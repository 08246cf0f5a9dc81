//! Differential suite for the bytecode engine (`apex-bc`).
//!
//! The bytecode VM's contract is *byte-identity*: for any scheme-mode
//! scenario, running with `--engine bytecode` must produce the exact
//! [`ReportRecord`](apex::scenario::ReportRecord) bytes of the default
//! tree-walking interpreter — same work, same final memory, same event
//! counters, same verifier verdict, same digests. The tree walker is the
//! oracle; the VM is only ever a faster spelling of the same op sequence.
//!
//! Three layers pin the contract:
//! * a proptest sweep over synthesized nondeterministic programs paired
//!   with synthesized adversary schedules (the fuzz generator's full
//!   space, not just the library workloads),
//! * a deterministic sweep of every scheme kind × adversary family over
//!   library programs,
//! * a replay of the committed fuzz corpus on the bytecode engine — every
//!   pinned divergence (and cleanliness) finding must reproduce
//!   identically on both interpreters.
//!
//! One-credit (interleaving) adversaries get their own sweep: under them
//! the VM parks its local operations and the machine settles them without
//! polling, so records, machine work reports and final memory images are
//! compared at the per-tick reference batch and the default batch, and
//! the machine's dispatch counters are checked to account for every tick.

use apex::scenario::{ProgramEngine, ProgramSource, ReportRecord, RunOutcome, Scenario};
use apex::scheme::{SchemeKind, SchemeRun};
use apex::sim::{AdversarySpec, Group, ScheduleKind, Span};
use apex_obs::Obs;
use apex_synth::gen::{generate_nondet_program, GenConfig};
use apex_synth::repro::Reproducer;
use apex_synth::sched_gen::{generate_adversary, SchedGenConfig};
use apex_synth::Triple;
use proptest::prelude::*;

/// Render the full report record under `engine`; this is what the lab
/// store writes, so equality here is store-level byte-identity.
fn record_bytes(scenario: &Scenario, engine: Option<ProgramEngine>) -> String {
    let outcome = RunOutcome::capture_with(scenario, |s| {
        ReportRecord::run_with(s, engine, &Obs::disabled())
    });
    assert!(
        outcome.record().is_some(),
        "scenario must execute: {}",
        outcome.summary()
    );
    outcome.to_json().render_pretty()
}

fn assert_engines_agree(scenario: &Scenario, what: &str) {
    let tree = record_bytes(scenario, Some(ProgramEngine::Tree));
    let bytecode = record_bytes(scenario, Some(ProgramEngine::Bytecode));
    assert_eq!(tree, bytecode, "{what}: engine records diverged");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Synthesized nondeterministic program × synthesized adversary tree:
    /// the two interpreters render byte-identical report records.
    #[test]
    fn synthesized_triples_render_identically(seed in any::<u64>()) {
        let program = generate_nondet_program(&GenConfig::default().nondet_only(), seed);
        let schedule = generate_adversary(&SchedGenConfig::default(), program.n_threads, seed);
        let triple = Triple { program, schedule, seed };
        assert_engines_agree(&triple.scenario(SchemeKind::Nondet), &format!("seed {seed}"));
    }
}

/// Every scheme kind × adversary family agrees on a library workload
/// (the proptest above covers only the nondet scheme, whose cycle path
/// is the deepest; this sweep pins the other three interpreters' paths).
#[test]
fn all_scheme_kinds_render_identically_under_adversaries() {
    use apex::sim::ScheduleKind;
    for kind in [
        SchemeKind::Nondet,
        SchemeKind::DetBaseline,
        SchemeKind::ScanConsensus,
        SchemeKind::IdealCas,
    ] {
        for sched in [
            ScheduleKind::Uniform,
            ScheduleKind::Bursty { mean_burst: 9 },
            ScheduleKind::Zipf { s: 1.5 },
        ] {
            let scenario = Scenario::scheme(
                kind,
                apex::scenario::ProgramSource::library("coin-sum", 8, vec![32]),
                23,
            )
            .schedule(sched.clone());
            assert_engines_agree(&scenario, &format!("{kind:?} under {sched:?}"));
        }
    }
}

/// The scenario knob (not just the runtime override) selects the engine,
/// and the digest moves with it: an explicit `bytecode` knob is a
/// different document than the default, while the default (tree) knob
/// keeps the digest every pre-engine store recorded.
#[test]
fn engine_knob_round_trips_and_default_digest_is_stable() {
    let base = Scenario::scheme(
        SchemeKind::Nondet,
        apex::scenario::ProgramSource::library("coin-sum", 8, vec![32]),
        23,
    );
    let knobbed = base.clone().program_engine(ProgramEngine::Bytecode);
    assert_ne!(base.digest(), knobbed.digest());
    let rt = Scenario::from_json(&knobbed.to_json()).unwrap();
    assert_eq!(rt.digest(), knobbed.digest());
    assert_eq!(rt.engine.program_engine, ProgramEngine::Bytecode);
    // The default knob serializes without the field, so digests of
    // pre-engine documents are untouched.
    let rt = Scenario::from_json(&base.to_json()).unwrap();
    assert_eq!(rt.digest(), base.digest());
    // And the knobbed document executes identically anyway.
    assert_engines_agree(&base, "engine knob");
}

/// The committed corpus replays to its recorded outcome on the bytecode
/// engine, and every artifact's record bytes match the tree engine's.
#[test]
fn corpus_replays_identically_on_the_bytecode_engine() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let entries = Reproducer::load_dir(&dir).expect("committed corpus loads");
    assert!(!entries.is_empty(), "corpus must not be empty");
    for (path, repro) in &entries {
        repro
            .check_with_engine(Some(ProgramEngine::Bytecode))
            .unwrap_or_else(|e| panic!("{} on bytecode: {e}", path.display()));
        assert_engines_agree(&repro.scenario, &path.display().to_string());
    }
}

/// Adversaries that grant one credit per decision: uniform, zipf at three
/// skews, and a phase switch from zipf into a uniform | zipf partition.
fn one_credit_adversaries(n: usize) -> Vec<AdversarySpec> {
    let half = n / 2;
    let mut specs: Vec<AdversarySpec> = vec![ScheduleKind::Uniform.into()];
    for s in [0.5, 1.0, 1.5] {
        specs.push(ScheduleKind::Zipf { s }.into());
    }
    specs.push(AdversarySpec::PhaseSwitch {
        spans: vec![Span {
            ticks: 2048,
            spec: ScheduleKind::Zipf { s: 1.0 }.into(),
        }],
        tail: Box::new(AdversarySpec::Partition {
            groups: vec![
                Group {
                    procs: (0..half).collect(),
                    spec: ScheduleKind::Uniform.into(),
                },
                Group {
                    procs: (half..n).collect(),
                    spec: ScheduleKind::Zipf { s: 0.5 }.into(),
                },
            ],
        }),
    });
    specs
}

fn assemble(scenario: &Scenario, engine: ProgramEngine) -> SchemeRun {
    scenario.build_scheme_obs(Some(engine), &Obs::disabled())
}

/// Tree and bytecode runs of every scheme kind under every one-credit
/// adversary, at `batch(1)` and at the default batch: byte-identical
/// records, and — driven for the run's exact tick count — equal machine
/// work reports (total and per-processor work, memory reads and writes)
/// and equal final memory images.
#[test]
fn one_credit_adversaries_agree_on_records_and_work_reports() {
    const N: usize = 8;
    for kind in [
        SchemeKind::Nondet,
        SchemeKind::DetBaseline,
        SchemeKind::ScanConsensus,
        SchemeKind::IdealCas,
    ] {
        for spec in one_credit_adversaries(N) {
            for batch in [Some(1), None] {
                let mut scenario =
                    Scenario::scheme(kind, ProgramSource::library("coin-sum", N, vec![24]), 31)
                        .schedule(spec.clone());
                if let Some(b) = batch {
                    scenario = scenario.batch(b);
                }
                let what = format!("{kind:?} under {} at batch {batch:?}", spec.label());
                assert_engines_agree(&scenario, &what);

                let ticks = assemble(&scenario, ProgramEngine::Tree).run().ticks;
                let [tree, bytecode] = [ProgramEngine::Tree, ProgramEngine::Bytecode].map(|e| {
                    let mut run = assemble(&scenario, e);
                    let m = run.machine_mut();
                    m.run_ticks(ticks);
                    (m.report(), m.mem_image())
                });
                assert_eq!(tree.0, bytecode.0, "{what}: work reports diverged");
                assert!(tree.1 == bytecode.1, "{what}: final memory diverged");
            }
        }
    }
}

/// The dispatch counters account for every tick — polled, parked, or
/// idle — and under an interleaving adversary the VM is polled for fewer
/// ticks than it executes, while the async tree walker never parks.
#[test]
fn dispatch_counters_account_for_every_tick() {
    let scenario = Scenario::scheme(
        SchemeKind::Nondet,
        ProgramSource::library("coin-sum", 16, vec![64]),
        5,
    )
    .schedule(ScheduleKind::Zipf { s: 1.0 });
    for engine in [ProgramEngine::Tree, ProgramEngine::Bytecode] {
        let mut run = assemble(&scenario, engine);
        let m = run.machine_mut();
        m.run_ticks(200_000);
        let st = m.dispatch_stats();
        assert_eq!(
            st.polled_ticks + st.parked_ticks + st.idle_ticks,
            m.ticks(),
            "{engine:?}: {st:?}"
        );
        assert_eq!(st.idle_ticks, 0, "scheme processors never complete");
        match engine {
            ProgramEngine::Tree => assert_eq!(st.parked_ticks, 0, "async protocols never park"),
            ProgramEngine::Bytecode => {
                assert!(st.parked_ticks > 0, "{st:?}");
                assert!(st.polls < m.ticks(), "{st:?}");
            }
        }
    }
}
