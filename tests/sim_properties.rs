//! Property tests for the A-PRAM simulator's invariants.

use apex::sim::{
    AdversarySpec, Group, IdlePolicy, Json, MachineBuilder, ProcId, ScheduleKind, Stamped,
};
use proptest::prelude::*;
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::mock::StepRng;
use rand::{Rng, RngCore, SeedableRng};

fn any_schedule() -> impl Strategy<Value = ScheduleKind> {
    prop_oneof![
        Just(ScheduleKind::RoundRobin),
        Just(ScheduleKind::Uniform),
        (1u64..64).prop_map(|m| ScheduleKind::Bursty { mean_burst: m }),
        (0.1f64..0.9).prop_map(|f| ScheduleKind::TwoClass {
            slow_frac: f,
            ratio: 8.0
        }),
        Just(ScheduleKind::Sleepy {
            sleepy_frac: 0.25,
            awake: 200,
            asleep: 800
        }),
        (0.1f64..0.6, 100u64..5000).prop_map(|(f, h)| ScheduleKind::Crash {
            crash_frac: f,
            horizon: h
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Work conservation: total work equals the sum of per-processor work,
    /// equals ticks under the counting idle policy.
    #[test]
    fn work_conservation(
        seed in any::<u64>(),
        n in 1usize..24,
        ticks in 1u64..5000,
        kind in any_schedule(),
    ) {
        let mut m = MachineBuilder::new(n, n)
            .seed(seed)
            .schedule_kind(&kind)
            .build(|ctx| async move {
                loop {
                    ctx.nop().await;
                }
            });
        m.run_ticks(ticks);
        prop_assert_eq!(m.work(), ticks);
        prop_assert_eq!(m.per_proc_work().iter().sum::<u64>(), ticks);
        prop_assert_eq!(m.ticks(), ticks);
    }

    /// The adversary is oblivious: the schedule's choices are identical
    /// whatever the protocol does with its randomness.
    #[test]
    fn schedule_is_oblivious_to_protocol_behavior(
        seed in any::<u64>(),
        n in 2usize..16,
        kind in any_schedule(),
    ) {
        let run = |weird: bool| {
            let mut m = MachineBuilder::new(n, n)
                .seed(seed)
                .schedule_kind(&kind)
                .build(move |ctx| async move {
                    loop {
                        if weird {
                            // Consume lots of private randomness and write.
                            let a = ctx.rand_below(n as u64).await as usize;
                            let v = ctx.rand_u64().await;
                            ctx.write(a, Stamped::new(v, 0)).await;
                        } else {
                            ctx.nop().await;
                        }
                    }
                });
            (0..500).map(|_| m.tick().0).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// Memory access accounting never exceeds work, and reads/writes
    /// round-trip.
    #[test]
    fn memory_accounting_bounded_by_work(
        seed in any::<u64>(),
        n in 1usize..8,
        ticks in 1u64..2000,
    ) {
        let mut m = MachineBuilder::new(n, n.max(1))
            .seed(seed)
            .build(|ctx| async move {
                let me = ctx.id().0;
                loop {
                    let v = ctx.read(me).await;
                    ctx.write(me, Stamped::new(v.value + 1, v.stamp)).await;
                }
            });
        m.run_ticks(ticks);
        let r = m.report();
        prop_assert!(r.mem_reads + r.mem_writes <= r.total_work);
        // Each cell's value equals the number of completed write ops on it.
        let total: u64 = m.with_mem(|mem| (0..n).map(|a| mem.peek(a).value).sum());
        prop_assert_eq!(total, r.mem_writes);
    }

    /// Idle policy Skip counts only live ops; CountAsWork counts all ticks.
    #[test]
    fn idle_policies_differ_exactly_by_halted_ticks(
        seed in any::<u64>(),
        n in 1usize..8,
        ticks in 10u64..2000,
    ) {
        // Round-robin makes the reachable-processor set deterministic: in
        // t ticks exactly min(n, t) distinct processors run. (A uniform
        // random schedule may miss processors in few ticks — a proptest
        // counterexample caught exactly that.)
        let build = |policy| {
            MachineBuilder::new(n, n)
                .seed(seed)
                .schedule_kind(&ScheduleKind::RoundRobin)
                .idle_policy(policy)
                .build(|ctx| async move {
                    ctx.nop().await; // one op then halt
                })
        };
        let mut a = build(IdlePolicy::CountAsWork);
        let mut b = build(IdlePolicy::Skip);
        a.run_ticks(ticks);
        b.run_ticks(ticks);
        prop_assert_eq!(a.work(), ticks);
        prop_assert_eq!(b.work(), n.min(ticks as usize) as u64);
    }
}

/// The index plain inversion picks for the 53-bit draw `m`: the sampling
/// code `WeightedIndex` had before its guide table — `gen_range` over the
/// total weight fed the raw output `m << 11`, then a binary search.
fn plain_inversion(cumulative: &[f64], m: u64) -> usize {
    let total = *cumulative.last().unwrap();
    let u = StepRng::new(m << 11, 0).gen_range(0.0f64..total);
    cumulative
        .partition_point(|c| *c <= u)
        .min(cumulative.len() - 1)
}

/// The guide-table sampler returns exactly the plain-inversion index: at
/// both end draws of every guide bucket (so, by monotonicity, everywhere
/// in every unmixed bucket) and for a stream of random draws — over zipf
/// and two-class speeds and weight vectors with zero entries.
#[test]
fn weighted_index_guide_table_matches_plain_inversion() {
    let zipf =
        |n: usize, s: f64| -> Vec<f64> { (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect() };
    let mut vectors = vec![
        vec![2.5],
        vec![5.0, 0.0],
        vec![0.0, 0.0, 1.0],
        vec![0.0, 1.0, 0.0, 0.0, 3.0, 0.0],
        vec![1e-12, 1.0, 1e-12, 0.0, 1e12],
        (0..16).map(|i| if i < 4 { 1.0 } else { 16.0 }).collect(),
        (0..12).map(|i| if i < 9 { 1.0 } else { 3.0 }).collect(),
        zipf(5000, 1.0),
    ];
    for n in [2, 16, 100] {
        for s in [0.5, 1.0, 1.5] {
            vectors.push(zipf(n, s));
        }
    }
    for (v, weights) in vectors.iter().enumerate() {
        let cumulative: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        let d = WeightedIndex::new(weights).unwrap();
        let width = (1u64 << 53) / d.guide_buckets() as u64;
        for b in 0..d.guide_buckets() as u64 {
            for m in [b * width, (b + 1) * width - 1] {
                assert_eq!(
                    d.index_of_draw(m),
                    plain_inversion(&cumulative, m),
                    "vector {v}, bucket {b}, draw {m}"
                );
            }
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(v as u64);
        let mut raw = rng.clone();
        for _ in 0..20_000 {
            let m = raw.next_u64() >> 11;
            assert_eq!(
                d.sample(&mut rng),
                plain_inversion(&cumulative, m),
                "vector {v}"
            );
        }
    }
}

/// A partition's batched decision stream equals its per-tick stream at
/// ragged batch sizes: shorter than a round, whole rounds, and windows
/// that wrap the slot cursor several times.
#[test]
fn partition_batches_equal_the_per_tick_stream() {
    let n = 10;
    let spec = AdversarySpec::Partition {
        groups: vec![
            Group {
                procs: vec![0, 3, 4, 9],
                spec: ScheduleKind::Zipf { s: 1.0 }.into(),
            },
            Group {
                procs: vec![1, 2],
                spec: ScheduleKind::Uniform.into(),
            },
            Group {
                procs: vec![5, 6, 7, 8],
                spec: ScheduleKind::RoundRobin.into(),
            },
        ],
    };
    let sizes = [1usize, 3, 10, 7, 256, 11, 20, 9, 64, 2, 31];
    for seed in 0..3 {
        let mut reference = spec.build(n, seed);
        let serial: Vec<ProcId> = (0..4000).map(|_| reference.next()).collect();
        let mut batched = spec.build(n, seed);
        let mut got = Vec::with_capacity(serial.len());
        let mut buf = [ProcId(0); 256];
        for k in 0.. {
            if got.len() == serial.len() {
                break;
            }
            let take = sizes[k % sizes.len()].min(serial.len() - got.len());
            batched.next_batch(&mut buf[..take]);
            got.extend_from_slice(&buf[..take]);
        }
        assert_eq!(got, serial, "seed {seed}");
    }
}

/// The JSON codec's string escaping, one character at a time: the
/// reference the run-copying renderer must reproduce byte for byte.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// String pieces that stress the escaper's run boundaries: quotes,
/// backslashes, every control character, multi-byte UTF-8 of each
/// width, and long unescaped ASCII runs.
fn any_string_piece() -> impl Strategy<Value = String> {
    let char_piece = |lo: u32, hi: u32| {
        (lo..hi).prop_map(|c| char::from_u32(c).expect("scalar value").to_string())
    };
    prop_oneof![
        Just("\"".to_string()),
        Just("\\".to_string()),
        Just("\\u0041/".to_string()),
        char_piece(0, 0x20),
        char_piece(0x20, 0x80),
        char_piece(0x80, 0x800),
        char_piece(0x800, 0xD800),
        char_piece(0xE000, 0x1_0000),
        char_piece(0x1_0000, 0x11_0000),
        (0usize..300, 0x20u32..0x7f)
            .prop_map(|(len, c)| { char::from_u32(c).expect("ascii").to_string().repeat(len) }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Any string survives render → parse exactly, compact and pretty,
    /// as a value and as an object key, and renders to exactly what the
    /// per-character reference escaper writes.
    #[test]
    fn json_strings_round_trip_and_match_the_reference_escaper(
        pieces in proptest::collection::vec(any_string_piece(), 0usize..24),
    ) {
        let s: String = pieces.concat();
        let value = Json::Str(s.clone());
        prop_assert_eq!(value.render(), reference_escape(&s));
        prop_assert_eq!(Json::parse(&value.render()).unwrap(), value.clone());
        let doc = Json::Obj(vec![(s.clone(), Json::Arr(vec![value.clone(), Json::Null]))]);
        prop_assert_eq!(Json::parse(&doc.render()).unwrap(), doc.clone());
        prop_assert_eq!(Json::parse(&doc.render_pretty()).unwrap(), doc);
    }
}

#[test]
fn committed_json_documents_reparse_to_their_own_bytes() {
    // Every committed JSON document the workspace reads survives parse
    // → render; the canonical ones (records, corpus reproducers, golden
    // documents) re-render to exactly their committed bytes.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for dir in ["corpus", "tests/golden", "suites"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let value = Json::parse(&text).unwrap();
            assert_eq!(
                Json::parse(&value.render()).unwrap(),
                value,
                "{}",
                path.display()
            );
            if dir != "suites" {
                assert_eq!(value.render_pretty(), text, "{}", path.display());
            }
        }
    }
}
