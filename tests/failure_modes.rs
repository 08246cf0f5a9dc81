//! The paper's negative results, as tests: what breaks without each piece.

use std::rc::Rc;

use apex::baselines::adversary::{gun_volley, resonant_sleepy};
use apex::core::{AgreementConfig, ValueSource};
use apex::scheme::{tasks::eval_cost, SchemeKind};
use apex::sim::ScheduleKind;
use apex::{ProgramSource, Scenario};

fn violations_over_seeds(kind: SchemeKind, sched: &ScheduleKind, seeds: u64) -> usize {
    (0..seeds)
        .map(|seed| {
            // One scenario per seed; the two schemes' runs differ only in
            // the scheme field.
            Scenario::scheme(
                kind,
                ProgramSource::library("random-walks", 32, vec![1000, 12]),
                seed,
            )
            .schedule(sched.clone())
            .run()
            .into_scheme()
            .verify
            .violations()
        })
        .sum()
}

/// The headline claim: prior (deterministic) schemes fail on randomized
/// programs once tardy processors appear; the paper's scheme does not.
#[test]
fn deterministic_scheme_breaks_where_the_paper_scheme_does_not() {
    let cfg = AgreementConfig::for_n(32, eval_cost(2));
    let sched = resonant_sleepy(&cfg, 0.5);
    let det = violations_over_seeds(SchemeKind::DetBaseline, &sched, 4);
    let nondet = violations_over_seeds(SchemeKind::Nondet, &sched, 4);
    assert!(
        det > 0,
        "resonant sleepers must break the deterministic baseline"
    );
    assert_eq!(nondet, 0, "the agreement scheme must stay consistent");
}

/// Under crash faults the scheme still completes and verifies: surviving
/// processors absorb the dead ones' tasks (the redundancy that motivates
/// the whole random-task-choice design).
#[test]
fn crash_faults_are_absorbed() {
    let report = Scenario::scheme(
        SchemeKind::Nondet,
        ProgramSource::library("random-walks", 16, vec![500, 6]),
        8,
    )
    .schedule(ScheduleKind::Crash {
        crash_frac: 0.5,
        horizon: 200_000,
    })
    .run();
    assert!(report.ok(), "{}", report.summary());
}

/// The gun volley stresses the replica defense; with the default K = 2 the
/// nondeterministic scheme stays consistent (E11 sweeps K and shows K = 1
/// admits rare corruption).
#[test]
fn gun_volley_does_not_break_default_replication() {
    let cfg = AgreementConfig::for_n(32, eval_cost(2));
    let sched = gun_volley(&cfg, 0.375, 4);
    let nondet = violations_over_seeds(SchemeKind::Nondet, &sched, 4);
    assert_eq!(nondet, 0);
}

/// Stampless bins (ablation) stop producing fresh values as soon as the
/// array is reused — the timestamps of §3 are load-bearing.
#[test]
fn stampless_bins_fail_on_reuse() {
    use apex::baselines::stampless::{fraction_matching, run_stampless_participant};
    use apex::clock::PhaseClock;
    use apex::core::{BinLayout, KeyedSource};
    use apex::sim::{MachineBuilder, RegionAllocator};

    let n = 8;
    let cfg = AgreementConfig::for_n(n, 1);
    let mut alloc = RegionAllocator::new();
    let clock = PhaseClock::new(&mut alloc, n);
    let bins = BinLayout::new(&mut alloc, n, cfg.cells_per_bin);
    let mut m = MachineBuilder::new(n, alloc.total())
        .seed(5)
        .schedule_kind(&ScheduleKind::Uniform)
        .build(move |ctx| {
            let source: Rc<dyn ValueSource> = Rc::new(KeyedSource);
            run_stampless_participant(ctx, cfg, bins, clock, source)
        });
    m.run_until(1_000_000_000, 4096, |mem| clock.oracle(mem) >= 2)
        .expect("two phases");
    let phase1 = m.with_mem(|mem| fraction_matching(mem, &bins, |b| KeyedSource::expected(1, b)));
    assert_eq!(phase1, 0.0, "reused stampless bins cannot serve phase 1");
}

/// Scan-consensus (the classical-style comparator) is not only slower —
/// without real per-value consensus rounds it also flaps on randomized
/// programs at scale, while remaining fine on deterministic ones
/// (documented comparator limitation; see README.md, "Design
/// notes: comparators").
#[test]
fn scan_consensus_is_sound_on_deterministic_programs() {
    let report = Scenario::scheme(
        SchemeKind::ScanConsensus,
        ProgramSource::library("tree-reduce-add", 8, vec![1]),
        2,
    )
    .run();
    assert!(report.ok(), "{}", report.summary());
}
