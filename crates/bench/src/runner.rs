//! Experiment trial recipes on the workspace's thread pool.
//!
//! Every experiment in this workspace is a sweep over independent
//! `(n, seed, adversary)` trials on the workspace's thread pool,
//! [`apex_lab::pool`]: [`run_trials`] builds each trial's [`apex_sim`]
//! machine *inside* its worker thread and returns results **in config
//! order**, so tables and JSON artifacts are byte-identical whether the
//! sweep ran on one thread or sixteen. `APEX_RUNNER_THREADS=1` forces
//! the serial path (used to verify byte-identical artifacts).
//!
//! The trial recipes ([`AgreementTrial`], [`SchemeTrial`]) are thin
//! wrappers over the workspace's declarative [`Scenario`] — each exposes
//! `scenario()`, so any benchmark cell can be exported as a shareable
//! JSON scenario file.

use apex_core::{AgreementConfig, AgreementRun, InstrumentOpts};
use apex_scenario::{ProgramSource, Scenario, ScenarioReport};
use apex_scheme::{SchemeKind, SchemeReport};
use apex_sim::AdversarySpec;

use apex_lab::pool::run_trials;

pub use apex_scenario::{AgreementRunReport as AgreementTrialResult, SourceSpec};

/// One agreement-protocol trial: run `phases` phases of an
/// [`AgreementRun`] and return the outcomes. A thin wrapper over an
/// agreement-mode [`Scenario`].
#[derive(Clone, Debug)]
pub struct AgreementTrial {
    /// Processor count.
    pub n: usize,
    /// Master seed.
    pub seed: u64,
    /// Adversary (any algebra spec; legacy kinds lower via [`Into`]).
    pub kind: AdversarySpec,
    /// Value source recipe.
    pub source: SourceSpec,
    /// Instrumentation switches.
    pub opts: InstrumentOpts,
    /// Phases to run.
    pub phases: usize,
    /// Explicit protocol constants; `None` derives the default config
    /// from `n` and the source cost.
    pub config: Option<AgreementConfig>,
}

impl AgreementTrial {
    /// Default-config trial.
    pub fn new(
        n: usize,
        seed: u64,
        kind: impl Into<AdversarySpec>,
        source: SourceSpec,
        phases: usize,
    ) -> Self {
        AgreementTrial {
            n,
            seed,
            kind: kind.into(),
            source,
            opts: InstrumentOpts::default(),
            phases,
            config: None,
        }
    }

    /// Enable instrumentation.
    pub fn opts(mut self, opts: InstrumentOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Use explicit protocol constants.
    pub fn config(mut self, cfg: AgreementConfig) -> Self {
        self.config = Some(cfg);
        self
    }

    /// The [`Scenario`] this recipe describes.
    pub fn scenario(&self) -> Scenario {
        let mut s = Scenario::agreement(self.n, self.source.clone(), self.phases, self.seed)
            .schedule(self.kind.clone())
            .instrument(self.opts);
        s.agreement = self.config;
        s
    }

    /// Build the run on the current thread.
    pub fn build(&self) -> AgreementRun {
        self.scenario().build_agreement()
    }
}

/// Run agreement trials across threads (the `core` harness on the runner).
pub fn run_agreement_trials(trials: &[AgreementTrial]) -> Vec<AgreementTrialResult> {
    run_trials(trials, |t| match t.scenario().run() {
        ScenarioReport::Agreement(r) => r,
        _ => unreachable!("agreement scenario"),
    })
}

/// Thread-safe recipe for a PRAM workload program (sugar over
/// [`ProgramSource`]).
#[derive(Clone, Debug)]
pub enum ProgramSpec {
    /// `coin_sum(n, bound)`.
    CoinSum {
        /// Threads.
        n: usize,
        /// Coin bound.
        bound: u64,
    },
    /// `random_walks(&[init; n], steps)`.
    RandomWalks {
        /// Threads.
        n: usize,
        /// Initial walker position.
        init: u64,
        /// Walk steps.
        steps: usize,
    },
    /// An explicit program carried by value — the synthesis subsystem's
    /// generated workloads ([`Program`](apex_pram::Program) is plain data,
    /// so the recipe stays `Send + Sync` and each worker clones its own
    /// copy).
    Explicit(apex_pram::Program),
}

impl ProgramSpec {
    /// The scenario-level [`ProgramSource`] this recipe names.
    pub fn to_source(&self) -> ProgramSource {
        match self {
            ProgramSpec::CoinSum { n, bound } => {
                ProgramSource::library("coin-sum", *n, vec![*bound])
            }
            ProgramSpec::RandomWalks { n, init, steps } => {
                ProgramSource::library("random-walks", *n, vec![*init, *steps as u64])
            }
            ProgramSpec::Explicit(p) => ProgramSource::Explicit(p.clone()),
        }
    }
}

/// One end-to-end scheme trial: execute a PRAM program through an
/// execution scheme and return its [`SchemeReport`]. A thin wrapper over
/// a scheme-mode [`Scenario`].
#[derive(Clone, Debug)]
pub struct SchemeTrial {
    /// Execution scheme under test.
    pub scheme: SchemeKind,
    /// Workload recipe.
    pub program: ProgramSpec,
    /// Master seed.
    pub seed: u64,
    /// Adversary; `None` uses the scheme harness default.
    pub schedule: Option<AdversarySpec>,
    /// Variable replica factor; `None` uses the harness default.
    pub replicas: Option<usize>,
}

impl SchemeTrial {
    /// Trial with harness-default schedule and replicas.
    pub fn new(scheme: SchemeKind, program: ProgramSpec, seed: u64) -> Self {
        SchemeTrial {
            scheme,
            program,
            seed,
            schedule: None,
            replicas: None,
        }
    }

    /// Set the adversary.
    pub fn schedule(mut self, kind: impl Into<AdversarySpec>) -> Self {
        self.schedule = Some(kind.into());
        self
    }

    /// Set the replica factor.
    pub fn replicas(mut self, k: usize) -> Self {
        self.replicas = Some(k);
        self
    }

    /// The [`Scenario`] this recipe describes.
    pub fn scenario(&self) -> Scenario {
        let mut s = Scenario::scheme(self.scheme, self.program.to_source(), self.seed);
        if let Some(kind) = &self.schedule {
            s = s.schedule(kind.clone());
        }
        if let Some(k) = self.replicas {
            s = s.replicas(k);
        }
        s
    }

    /// Execute on the current thread.
    pub fn run(&self) -> SchemeReport {
        self.scenario().run().into_scheme()
    }
}

/// Run scheme trials across threads (the `scheme` harness on the runner).
pub fn run_scheme_trials(trials: &[SchemeTrial]) -> Vec<SchemeReport> {
    run_trials(trials, SchemeTrial::run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_lab::pool::run_trials_threaded;
    use apex_pram::library::coin_sum;
    use apex_sim::ScheduleKind;

    #[test]
    fn agreement_trials_parallel_equals_serial() {
        let trials: Vec<AgreementTrial> = (0..4)
            .map(|s| AgreementTrial::new(8, s, ScheduleKind::Uniform, SourceSpec::Random(100), 1))
            .collect();
        let digest = |rs: &[AgreementTrialResult]| {
            rs.iter()
                .map(|r| {
                    (
                        r.ticks,
                        r.outcomes[0].advance_work,
                        r.outcomes[0].agreed.clone(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let serial = run_trials_threaded(&trials, 1, |t| {
            let mut run = t.build();
            let outcomes = run.run_phases(t.phases);
            AgreementTrialResult {
                outcomes,
                ticks: run.machine().ticks(),
                stability_violations: run.stability_violations(),
            }
        });
        let parallel = run_agreement_trials(&trials);
        assert_eq!(digest(&serial), digest(&parallel));
    }

    #[test]
    fn explicit_program_spec_runs_the_carried_program() {
        let built = coin_sum(4, 8);
        let report = SchemeTrial::new(
            SchemeKind::Nondet,
            ProgramSpec::Explicit(built.program.clone()),
            3,
        )
        .run();
        assert!(report.verify.ok(), "{report}");
        assert_eq!(report.program, built.program.name);
        assert_eq!(report.n, built.program.n_threads);
    }
}
