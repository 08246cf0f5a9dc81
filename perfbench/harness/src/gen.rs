//! Seeded workload generation: one suite document per (workload, seed).
//!
//! The product only ever sees the document this module writes. Every
//! cell running a deterministic library program has its outputs pinned
//! in the suite's `expect` list, with the expected values taken from the
//! sequential reference executor (`apex_pram::refexec`), so `apex suite
//! run` itself fails on a wrong result.

use apex_lab::{OutputExpectation, Suite};
use apex_pram::refexec::{execute, Choices};
use apex_scenario::{ProgramSource, Scenario, SourceSpec};
use apex_scheme::SchemeKind;
use apex_sim::{AdversarySpec, Group, OverlayKind, ScheduleKind, Span};

/// splitmix64: a tiny, fully specified generator, so a seed names the
/// same suite on every platform and toolchain.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Cells of `campaign-small`: small scheme cells (deterministic program,
/// both schemes) and agreement cells, about 10^4–10^5 ticks each.
const CAMPAIGN_SCHEME_CELLS: usize = 320;
const CAMPAIGN_AGREEMENT_CELLS: usize = 480;
/// Agreement phases per agreement cell (about 10^4 ticks each).
const CAMPAIGN_AGREEMENT_PHASES: usize = 8;
/// Cells of each `program-*` workload: large 16-thread scheme cells.
const PROGRAM_BURSTY_CELLS: usize = 24;
const PROGRAM_INTERLEAVED_CELLS: usize = 12;
/// Library programs of the `program-*` workloads.
const PROGRAMS: &[&str] = &[
    "coin-sum",
    "blelloch-scan",
    "jacobi-smooth",
    "odd-even-sort",
];

/// Build the suite document for `workload` from `seed`.
pub fn generate(workload: &str, seed: u64) -> Result<Suite, String> {
    let mut rng = Rng(seed ^ 0xA9E7_0000_0000_0001);
    let mut suite = Suite::new(format!("perfbench-{workload}-{seed}"));
    match workload {
        "campaign-small" => campaign_small(&mut rng, &mut suite),
        "program-bursty" => programs(&mut rng, &mut suite, PROGRAM_BURSTY_CELLS, bursty),
        "program-interleaved" => {
            programs(&mut rng, &mut suite, PROGRAM_INTERLEAVED_CELLS, interleaved)
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    pin_outputs(&mut suite)?;
    Ok(suite)
}

fn campaign_small(rng: &mut Rng, suite: &mut Suite) {
    for i in 0..CAMPAIGN_SCHEME_CELLS {
        let scheme = if i % 2 == 0 {
            SchemeKind::Nondet
        } else {
            SchemeKind::DetBaseline
        };
        let program = ProgramSource::library("tree-reduce-max", 8, vec![rng.below(1 << 20)]);
        let schedule = match (i / 2) % 5 {
            0 => ScheduleKind::Uniform,
            k => ScheduleKind::Bursty { mean_burst: 2 << k },
        };
        suite
            .cells
            .push(Scenario::scheme(scheme, program, rng.next() >> 1).schedule(schedule));
    }
    for i in 0..CAMPAIGN_AGREEMENT_CELLS {
        let (kind, variant) = (i % 4, i / 4);
        let schedule = match kind {
            0 => ScheduleKind::Uniform,
            1 => ScheduleKind::Bursty {
                mean_burst: [4, 8, 16][variant % 3],
            },
            2 => ScheduleKind::Zipf {
                s: [0.5, 1.0, 1.5][variant % 3],
            },
            _ => ScheduleKind::Sleepy {
                sleepy_frac: 0.25,
                awake: [50, 100][variant % 2],
                asleep: [100, 200][variant / 2 % 2],
            },
        };
        let source = SourceSpec::Random([16, 64, 256][variant % 3]);
        suite.cells.push(
            Scenario::agreement(8, source, CAMPAIGN_AGREEMENT_PHASES, rng.next() >> 1)
                .schedule(schedule),
        );
    }
    // One composed adversary: fail-stop crashes layered over bursts.
    let crash = AdversarySpec::Overlay {
        layer: OverlayKind::Crash {
            crash_frac: 0.25,
            horizon: 4096,
        },
        base: Box::new(ScheduleKind::Bursty { mean_burst: 16 }.into()),
    };
    suite.cells.push(
        Scenario::scheme(
            SchemeKind::Nondet,
            ProgramSource::library("tree-reduce-max", 8, vec![rng.below(1 << 20)]),
            rng.next() >> 1,
        )
        .schedule(crash),
    );
}

/// A bursty adversary: long same-processor runs.
fn bursty(round: usize) -> AdversarySpec {
    ScheduleKind::Bursty {
        mean_burst: [32, 64, 128][round % 3],
    }
    .into()
}

/// An interleaving adversary: every decision may name a new processor.
fn interleaved(round: usize) -> AdversarySpec {
    match round % 3 {
        0 => ScheduleKind::Uniform.into(),
        1 => ScheduleKind::Zipf { s: 1.0 }.into(),
        _ => AdversarySpec::PhaseSwitch {
            spans: vec![Span {
                ticks: 16384,
                spec: ScheduleKind::Zipf { s: 1.0 }.into(),
            }],
            tail: Box::new(AdversarySpec::Partition {
                groups: vec![
                    Group {
                        procs: (0..8).collect(),
                        spec: ScheduleKind::Uniform.into(),
                    },
                    Group {
                        procs: (8..16).collect(),
                        spec: ScheduleKind::Zipf { s: 0.5 }.into(),
                    },
                ],
            }),
        },
    }
}

/// `cells` large scheme cells: the programs in rotation, each meeting
/// every adversary variant equally often. The seed draws input data and
/// cell seeds only, so every seed yields the same mix of work.
fn programs(rng: &mut Rng, suite: &mut Suite, cells: usize, schedule: fn(usize) -> AdversarySpec) {
    for i in 0..cells {
        let (name, round) = (PROGRAMS[i % PROGRAMS.len()], i / PROGRAMS.len());
        let params = match name {
            "coin-sum" => vec![256 + rng.below(256)],
            "jacobi-smooth" => vec![rng.below(1 << 20), [8, 12, 16][round % 3]],
            _ => vec![rng.below(1 << 20)],
        };
        let program = ProgramSource::library(name, 16, params);
        suite.cells.push(
            Scenario::scheme(SchemeKind::Nondet, program, rng.next() >> 1)
                .schedule(schedule(round)),
        );
    }
}

/// Pin the outputs of every deterministic-program cell to the reference
/// executor's result.
fn pin_outputs(suite: &mut Suite) -> Result<(), String> {
    const DETERMINISTIC: &[&str] = &[
        "tree-reduce-max",
        "blelloch-scan",
        "jacobi-smooth",
        "odd-even-sort",
    ];
    for cell in &suite.cells {
        let apex_scenario::Mode::Scheme { program, .. } = &cell.mode else {
            continue;
        };
        let ProgramSource::Library { name, .. } = program else {
            continue;
        };
        if !DETERMINISTIC.contains(&name.as_str()) {
            continue;
        }
        let resolved = program.resolve().map_err(|e| e.to_string())?;
        let (_, out) = program
            .resolve_io()
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("{name} declares no output block"))?;
        let reference = execute(&resolved, &Choices::Seeded(0));
        suite.expect.push(OutputExpectation {
            cell: cell.digest(),
            outputs: reference.memory[out.base..out.base + out.len].to_vec(),
        });
    }
    Ok(())
}
