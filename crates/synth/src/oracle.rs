//! The differential oracle over (program, schedule, seed) triples.
//!
//! One triple fixes an entire asynchronous execution: the program, the
//! oblivious adversary, and the master seed that derives every private
//! random source. A triple plus a scheme is a full [`Scenario`]
//! ([`Triple::scenario`]), and every oracle leg goes through
//! [`Scenario::run`] — so the legs of a differential comparison are
//! scenarios differing in exactly one field, `mode.scheme`. The oracle
//! runs the scenario through its execution scheme
//! on the batched engine; the scheme harness then replays the agreed
//! choices through the ideal executor with `Choices::Injected` and
//! compares memory, per-instruction outputs, and admissibility
//! ([`apex_scheme::verify`]). On top of the verifier the oracle checks the
//! run's *work accounting* invariants (tick/work identity, subphase
//! monotonicity), so a divergence in any of memory, outputs, or
//! bookkeeping fails the triple.
//!
//! Expected differential shape (the paper's Theorem 1 vs its §1
//! motivation): [`SchemeKind::Nondet`] must never diverge; running the
//! same nondeterministic triples through [`SchemeKind::DetBaseline`]
//! *does* diverge on a measurable fraction — each such triple is a
//! concrete witness that the prior-work scheme is unsound for
//! nondeterministic programs (the E10 claim, generalized from one
//! hand-written workload to the synthesized program space).

use apex_pram::Program;
use apex_scenario::{ProgramSource, Scenario};
use apex_scheme::{SchemeKind, SchemeReport};
use apex_sim::AdversarySpec;

/// One generated scenario point: the workload and adversary, with the
/// scheme left open (the differential axis).
#[derive(Clone, Debug, PartialEq)]
pub struct Triple {
    /// The synthesized strict-EREW program.
    pub program: Program,
    /// The synthesized oblivious adversary (any algebra composition).
    pub schedule: AdversarySpec,
    /// Master seed (private random sources + schedule fallback stream).
    pub seed: u64,
}

impl Triple {
    /// The full [`Scenario`] this triple describes under `kind` — the
    /// oracle's legs differ **only** in this one field, which is the whole
    /// differential argument.
    pub fn scenario(&self, kind: SchemeKind) -> Scenario {
        Scenario::scheme(
            kind,
            ProgramSource::Explicit(self.program.clone()),
            self.seed,
        )
        .schedule(self.schedule.clone())
    }
}

/// Why a scheme run aborted instead of completing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunAbort {
    /// The harness's clock-stall assertion tripped: a liveness budget
    /// exhausted under an extreme adversary — survivable data, not an
    /// inconsistent execution.
    ClockStall(String),
    /// Any other panic — a genuine engine/scheme crash the fuzzer must
    /// surface as a failure, never swallow.
    Panic(String),
}

/// What the oracle concluded about one (triple, scheme) execution.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Verifier violations (replica divergence, missing values,
    /// deterministic mismatches, inadmissible choices, final-memory
    /// mismatches, replay shape errors).
    pub violations: usize,
    /// Work-accounting invariants that failed (human-readable), plus any
    /// non-stall harness panic.
    pub work_anomalies: Vec<String>,
    /// The run tripped the clock-stall liveness budget — counted
    /// separately from divergence.
    pub stalled: bool,
}

impl Verdict {
    /// Whether the execution was inconsistent with every synchronous run
    /// (the fuzzer's failure condition).
    pub fn diverged(&self) -> bool {
        self.violations > 0 || !self.work_anomalies.is_empty()
    }
}

/// Execute a scheme-mode scenario, classifying panics: the harness's
/// clock-stall assertion becomes [`RunAbort::ClockStall`]; any other panic
/// (including a failed [`Scenario::validate`]) is [`RunAbort::Panic`] and
/// must be treated as a failure by callers. `engine` overrides the
/// interpreter (`None` runs the scenario's own knob). Reports are
/// engine-independent, so a divergence found on one engine and replayed
/// on the other is a bug in an interpreter, not in the finding.
pub fn run_scenario(
    scenario: &Scenario,
    engine: Option<apex_scenario::ProgramEngine>,
) -> Result<SchemeReport, RunAbort> {
    let scenario = scenario.clone();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        scenario
            .run_with(engine, &apex_obs::Obs::disabled())
            .into_scheme()
    }))
    .map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        if msg.contains("clock stalled") {
            RunAbort::ClockStall(msg)
        } else {
            RunAbort::Panic(msg)
        }
    })
}

/// [`run_scenario`] for a (triple, scheme) pair.
pub fn run_triple(triple: &Triple, kind: SchemeKind) -> Result<SchemeReport, RunAbort> {
    run_scenario(&triple.scenario(kind), None)
}

/// Apply the oracle's checks to a completed run.
pub fn judge(report: &SchemeReport) -> Verdict {
    let mut work_anomalies = Vec::new();
    if report.ticks != report.total_work {
        work_anomalies.push(format!(
            "ticks {} != total work {} under the count-as-work policy",
            report.ticks, report.total_work
        ));
    }
    if report.subphase_work.len() != 2 * report.t_steps {
        work_anomalies.push(format!(
            "{} subphase boundaries for {} steps (want {})",
            report.subphase_work.len(),
            report.t_steps,
            2 * report.t_steps
        ));
    }
    if report.subphase_work.windows(2).any(|w| w[0] > w[1]) {
        work_anomalies.push("subphase work not monotone".into());
    }
    if let Some(&last) = report.subphase_work.last() {
        if last > report.total_work {
            work_anomalies.push(format!(
                "final subphase boundary {last} exceeds total work {}",
                report.total_work
            ));
        }
    }
    Verdict {
        violations: report.verify.violations(),
        work_anomalies,
        stalled: false,
    }
}

/// [`run_scenario`] + [`judge`] in one call, on `engine` (`None` runs
/// the scenario's own knob). A clock stall yields a verdict with
/// `stalled = true` and no divergence; any other panic *is* a divergence
/// (recorded as a work anomaly so campaigns and reproducers fail loudly
/// on engine crashes).
pub fn check_scenario(
    scenario: &Scenario,
    engine: Option<apex_scenario::ProgramEngine>,
) -> Verdict {
    match run_scenario(scenario, engine) {
        Ok(report) => judge(&report),
        Err(RunAbort::ClockStall(_)) => Verdict {
            stalled: true,
            ..Verdict::default()
        },
        Err(RunAbort::Panic(msg)) => Verdict {
            work_anomalies: vec![format!("harness panic: {msg}")],
            ..Verdict::default()
        },
    }
}

/// [`check_scenario`] for a (triple, scheme) pair.
pub fn check_triple(triple: &Triple, kind: SchemeKind) -> Verdict {
    check_scenario(&triple.scenario(kind), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_nondet_program, GenConfig};
    use crate::sched_gen::{generate_adversary, SchedGenConfig};

    fn triple(seed: u64) -> Triple {
        let program = generate_nondet_program(&GenConfig::default(), seed);
        let schedule = generate_adversary(&SchedGenConfig::default(), program.n_threads, seed);
        Triple {
            program,
            schedule,
            seed,
        }
    }

    #[test]
    fn nondet_scheme_is_clean_on_synthesized_triples() {
        for seed in 0..5 {
            let t = triple(seed);
            let v = check_triple(&t, SchemeKind::Nondet);
            assert!(!v.stalled, "seed {seed} stalled");
            assert!(!v.diverged(), "seed {seed}: {v:?}");
        }
    }

    #[test]
    fn non_stall_panics_are_divergences_not_stalls() {
        // An invalid program trips the harness's "valid program" assert —
        // a non-stall panic, which must fail the triple loudly.
        let mut t = triple(0);
        t.program.init.pop();
        let v = check_triple(&t, SchemeKind::Nondet);
        assert!(!v.stalled, "{v:?}");
        assert!(v.diverged(), "{v:?}");
        assert!(v.work_anomalies[0].contains("harness panic"), "{v:?}");
        assert!(matches!(
            run_triple(&t, SchemeKind::Nondet),
            Err(RunAbort::Panic(_))
        ));
    }

    #[test]
    fn judge_flags_cooked_work_accounting() {
        let t = triple(1);
        let mut report = run_triple(&t, SchemeKind::Nondet).unwrap();
        assert!(!judge(&report).diverged());
        report.ticks += 1;
        report.subphase_work.push(report.total_work + 999);
        let v = judge(&report);
        assert!(v.work_anomalies.len() >= 2, "{v:?}");
        assert!(v.diverged());
    }

    #[test]
    fn oracle_legs_differ_only_in_the_scheme_field() {
        let t = triple(2);
        let a = t.scenario(SchemeKind::Nondet);
        let b = t.scenario(SchemeKind::DetBaseline);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.agreement, b.agreement);
        assert_eq!(a.engine, b.engine);
        let (
            apex_scenario::Mode::Scheme {
                program: pa,
                replicas: ka,
                ..
            },
            apex_scenario::Mode::Scheme {
                program: pb,
                replicas: kb,
                ..
            },
        ) = (&a.mode, &b.mode)
        else {
            panic!("triple scenarios are scheme-mode");
        };
        assert_eq!(pa, pb);
        assert_eq!(ka, kb);
        assert_ne!(a, b, "the one differing field");
    }

    #[test]
    fn comparator_schemes_are_clean_on_a_synthesized_triple() {
        let t = triple(4);
        for kind in [SchemeKind::ScanConsensus, SchemeKind::IdealCas] {
            let v = check_triple(&t, kind);
            assert!(!v.stalled, "{kind:?} stalled");
            assert!(!v.diverged(), "{kind:?}: {v:?}");
        }
    }

    #[test]
    fn verdicts_are_reproducible() {
        let t = triple(3);
        let a = run_triple(&t, SchemeKind::Nondet).unwrap();
        let b = run_triple(&t, SchemeKind::Nondet).unwrap();
        assert_eq!(a.total_work, b.total_work);
        assert_eq!(a.final_memory, b.final_memory);
    }
}
