//! Executing a suite on the workspace's parallel trial runner, with
//! per-cell panic isolation and (optionally) write-ahead journaling.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

use apex_bench::runner::{resolve_threads, run_trials, run_trials_threaded};
use apex_obs::{Metrics, ObsOpts, POW2_BOUNDS};
use apex_scenario::{CacheStats, ReportRecord, RunOutcome};

use crate::fault::CELL_PANIC_MARKER;
use crate::journal::{next_finish_seq, Journal, JournalEntry};
use crate::store::{LabStore, Manifest};
use crate::suite::{Cell, Suite};

/// A pinned cell whose run produced the wrong results: the suite's
/// [`OutputExpectation`](crate::suite::OutputExpectation) disagreed with
/// the record's named outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputMismatch {
    /// Cell index in expansion order.
    pub index: usize,
    /// The cell's scenario digest.
    pub digest: String,
    /// What the suite pinned.
    pub expected: Vec<u64>,
    /// What the run produced (`None` if the record carried no outputs or
    /// the cell did not complete).
    pub actual: Option<Vec<u64>>,
}

impl std::fmt::Display for OutputMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} ({}): expected outputs {:?}, got {:?}",
            self.index, self.digest, self.expected, self.actual
        )
    }
}

/// A completed suite execution: one [`RunOutcome`] per cell, in
/// expansion order (the runner collects results in config order, so the
/// outcome list is identical whether the run was serial or parallel),
/// plus any failed output assertions.
///
/// Every cell reaches a *typed* terminal state — complete, exhausted
/// (tick budget), or poisoned (panic) — and one bad cell never aborts
/// the rest of the campaign.
#[derive(Clone, Debug)]
pub struct SuiteRun {
    /// Suite name.
    pub name: String,
    /// Digest of the canonical suite document.
    pub suite_digest: String,
    /// One outcome per cell, in expansion order.
    pub outcomes: Vec<RunOutcome>,
    /// Output assertions that failed: pinned cells whose run produced
    /// different results even though the verifier may have been clean.
    pub output_mismatches: Vec<OutputMismatch>,
    /// Per cell, the checksum of its record's canonical bytes when the
    /// run already holds it (it wrote or verified those bytes), so
    /// [`Manifest::from_run`] need not render the record again. Empty
    /// for runs assembled from outcomes alone.
    pub checksums: Vec<Option<String>>,
}

impl SuiteRun {
    /// The completed records, in expansion order (cells that exhausted
    /// or poisoned have none).
    pub fn records(&self) -> impl Iterator<Item = &ReportRecord> {
        self.outcomes.iter().filter_map(|o| o.record())
    }

    /// Number of cells whose run completed and met its mode's
    /// correctness bar.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.ok()).count()
    }

    /// Whether every cell completed clean *and* every pinned output
    /// assertion held.
    pub fn all_ok(&self) -> bool {
        self.ok_count() == self.outcomes.len() && self.output_mismatches.is_empty()
    }
}

/// Expand and execute every cell of `suite` across worker threads
/// (`APEX_RUNNER_THREADS` controls fan-out, as everywhere else).
///
/// Fails up front if the suite is ill-formed. Each cell runs under
/// `catch_unwind` ([`RunOutcome::capture`]): a stall-budget trip becomes
/// a typed `exhausted` outcome, any other panic a `poisoned` one, and
/// the remaining cells run regardless.
pub fn run_suite(suite: &Suite) -> Result<SuiteRun, String> {
    let cells = suite.expand()?;
    Ok(run_cells(suite, &cells))
}

/// [`run_suite`] over an already-expanded cell list (callers that need
/// the cells anyway, e.g. drift, avoid expanding twice).
pub fn run_cells(suite: &Suite, cells: &[Cell]) -> SuiteRun {
    let outcomes = run_trials(cells, |cell| RunOutcome::capture(&cell.scenario));
    finish_run(suite, cells, outcomes)
}

/// Check pinned outputs and assemble the [`SuiteRun`] from outcomes
/// gathered elsewhere — the farm's manifest merger reconstructs outcomes
/// from verified records plus journal entries and finalizes through this
/// same path, so its manifest is byte-identical to a single-runner one.
pub fn assemble_run(suite: &Suite, cells: &[Cell], outcomes: Vec<RunOutcome>) -> SuiteRun {
    finish_run(suite, cells, outcomes)
}

/// Check pinned outputs and assemble the [`SuiteRun`].
fn finish_run(suite: &Suite, cells: &[Cell], outcomes: Vec<RunOutcome>) -> SuiteRun {
    // Check the suite's pinned outputs against what actually ran
    // (expansion validated that every pinned digest names a cell).
    let mut by_digest: HashMap<&str, Vec<usize>> = HashMap::new();
    if !suite.expect.is_empty() {
        for (k, cell) in cells.iter().enumerate() {
            by_digest.entry(&cell.digest).or_default().push(k);
        }
    }
    let mut output_mismatches = Vec::new();
    for expect in &suite.expect {
        for &k in by_digest.get(expect.cell.as_str()).into_iter().flatten() {
            let (cell, outcome) = (&cells[k], &outcomes[k]);
            let actual = outcome.record().and_then(|r| r.outputs.clone());
            if actual.as_deref() != Some(expect.outputs.as_slice()) {
                output_mismatches.push(OutputMismatch {
                    index: cell.index,
                    digest: cell.digest.clone(),
                    expected: expect.outputs.clone(),
                    actual,
                });
            }
        }
    }
    SuiteRun {
        name: suite.name.clone(),
        suite_digest: suite.digest(),
        outcomes,
        output_mismatches,
        checksums: Vec::new(),
    }
}

/// Options for [`run_suite_journaled`].
#[derive(Clone, Debug, Default)]
pub struct JournalOpts {
    /// Resume an interrupted run: keep the existing journal and skip
    /// cells whose stored records digest-verify byte-for-byte.
    pub resume: bool,
    /// Memoize: consult the store before executing any cell, skip
    /// verified hits, tally a [`CacheStats`], and write the
    /// `cache-stats.json` sidecar. Unlike `resume`, hits are also
    /// checked against the existing manifest's pinned checksums, and the
    /// tally distinguishes misses from rejected (present-but-unverified)
    /// bytes.
    pub cached: bool,
    /// Explicit worker-thread count (`None` resolves through
    /// [`resolve_threads`] — `APEX_RUNNER_THREADS` if set, else all
    /// cores; `Some(1)` forces the serial path, whose journal line order
    /// is fully deterministic).
    pub threads: Option<usize>,
    /// Runtime interpreter-engine override for scheme-mode cells
    /// ([`Scenario::run_with`](apex_scenario::Scenario::run_with)):
    /// `None` honors each scenario's own engine knob. The override never
    /// changes a result byte — records, manifests, and digests are
    /// engine-independent.
    pub engine: Option<apex_scenario::ProgramEngine>,
    /// Fold the run's wall-clock execution time (`time.elapsed_ms`) into
    /// the unified metrics document (timing telemetry, excluded from
    /// byte-identity checks).
    pub timing: bool,
    /// Telemetry plane: trace sink and metrics collection
    /// ([`apex_obs::ObsOpts`]). Telemetry observes the run and never
    /// steers it — with any of this on, every record, manifest, and
    /// digest byte is identical to a dark run.
    pub obs: ObsOpts,
}

/// The result of a journaled run: the run itself plus what resume
/// skipped vs executed.
#[derive(Clone, Debug)]
pub struct JournaledRun {
    /// The completed run.
    pub run: SuiteRun,
    /// The manifest written at the end.
    pub manifest: Manifest,
    /// Cell indices skipped because their stored record verified.
    pub skipped: Vec<usize>,
    /// Cell indices actually executed this time.
    pub executed: Vec<usize>,
    /// Memoization tally (all zero unless `resume` or `cached` consulted
    /// the store).
    pub cache: CacheStats,
    /// Wall-clock milliseconds spent executing this run's pending cells
    /// (telemetry only — never part of any stored result byte).
    pub elapsed_ms: u64,
    /// Machine ticks consumed by the cells executed this run (skipped
    /// cells contribute nothing — their ticks were paid for earlier).
    pub executed_ticks: u64,
    /// The unified metrics document written to `metrics.json` (empty
    /// unless the run requested metrics, caching, or timing).
    pub metrics: Metrics,
}

impl JournaledRun {
    /// Cells that ended in the named terminal status.
    pub fn status_count(&self, status: &str) -> usize {
        self.run
            .outcomes
            .iter()
            .filter(|o| o.status() == status)
            .count()
    }

    /// Throughput over the executed cells, in ticks per second.
    pub fn ticks_per_sec(&self) -> u64 {
        self.executed_ticks.saturating_mul(1000) / self.elapsed_ms.max(1)
    }
}

/// Execute `suite` with a write-ahead journal in `store`.
///
/// Protocol, per cell: append `claimed`, run the cell under
/// `catch_unwind`, then either write the record atomically and append
/// `committed`, or append `poisoned` (no record). The run starts with a
/// `started` entry and — once the manifest is durably written — ends
/// with `finished`. A crash at *any* boundary leaves a journal prefix
/// plus a set of verified record files; re-running with
/// `opts.resume = true` skips every cell whose content-addressed record
/// already exists, parses, digest-verifies, and is byte-identical to
/// its canonical rendering, then executes only the remainder. The final
/// manifest and record set are byte-identical to an uninterrupted run
/// (the determinism the whole store is built on).
///
/// The resume/cache checks ([`LabStore::verify_record`]) run on the
/// same `resolve_threads(opts.threads)` runner threads that execute
/// cells; their verdicts reach the tally, the trace and the skip list in
/// cell order, so every thread count reports the same run. The manifest
/// pins each record by the checksum of the bytes this run wrote
/// ([`LabStore::write_record`]) or verified, never a second rendering.
///
/// With a [`FaultInjector`](crate::fault::FaultInjector) installed on
/// `store`, injected kills surface as `Err` mid-run — exactly like a
/// real crash, minus the process exit.
pub fn run_suite_journaled(
    suite: &Suite,
    store: &LabStore,
    opts: &JournalOpts,
) -> Result<JournaledRun, String> {
    let cells = suite.expand()?;
    let suite_digest = suite.digest();
    let dir = store.suite_dir(&suite_digest);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let journal_path = store.journal_path(&suite_digest);
    if !opts.resume && journal_path.exists() {
        // A fresh run owns its journal; the previous history is not part
        // of this run's story. Records stay — they are content-addressed
        // and will be rewritten with identical bytes anyway.
        std::fs::remove_file(&journal_path)
            .map_err(|e| format!("{}: {e}", journal_path.display()))?;
    }
    let mut journal = Journal::new(&journal_path);
    if let Some(f) = store.faults() {
        journal = journal.with_faults(f.clone());
    }

    // Telemetry plane. The trace sink (when requested) sees lab-scope
    // cell-lifecycle events from this coordinator thread plus engine-
    // and compile-scope events from inside each cell's run; with
    // `threads = 1` the full interleaving is deterministic (the golden
    // canonical-trace test pins it). Nothing here touches a result byte.
    let obs = opts
        .obs
        .open_trace()
        .map_err(|e| format!("trace open failed: {e}"))?;

    // Resume and the cache path share one rule: trust nothing but
    // verified bytes. A record is skippable only if it exists, parses
    // (which digest-verifies the embedded scenario), sits at its own
    // address, and is byte-identical to its canonical rendering — and,
    // on the cached path, matches the manifest row's pinned checksum.
    // The checks run on the runner threads; each keeps only the verdict,
    // the parsed record and the checksum of the verified bytes (which
    // the manifest reuses), and the verdicts are applied in cell order.
    let mut slots: Vec<Option<RunOutcome>> = vec![None; cells.len()];
    let mut checksums: Vec<Option<String>> = vec![None; cells.len()];
    let mut skipped = Vec::new();
    let mut cache = CacheStats::default();
    if opts.resume || opts.cached {
        let manifest = if opts.cached {
            store.read_manifest(&suite_digest).ok()
        } else {
            None
        };
        let verdicts = run_trials_threaded(&cells, resolve_threads(opts.threads), |cell| {
            let pinned = manifest
                .as_ref()
                .and_then(|m| m.pinned_checksum(cell.index, &cell.digest));
            store
                .verify_record(&suite_digest, &cell.digest, pinned)
                .map(|hit| hit.map(|v| (v.record, v.checksum)))
        });
        for (cell, verdict) in cells.iter().zip(verdicts) {
            let label = match verdict {
                Ok(Some((record, checksum))) => {
                    slots[cell.index] = Some(RunOutcome::Complete(record));
                    checksums[cell.index] = Some(checksum);
                    skipped.push(cell.index);
                    cache.hits += 1;
                    "hit"
                }
                Ok(None) => {
                    cache.misses += 1;
                    "miss"
                }
                Err(_) => {
                    cache.rejected += 1;
                    "rejected"
                }
            };
            obs.emit("lab", "cache", cell.index as u64, label, &[]);
        }
    }

    let jerr = |e: std::io::Error| format!("journal append failed: {e}");
    journal
        .append(&JournalEntry::Started {
            suite: suite_digest.clone(),
            name: suite.name.clone(),
            cells: cells.len() as u64,
            resumed: opts.resume,
        })
        .map_err(jerr)?;

    let pending: Vec<usize> = (0..cells.len()).filter(|&i| slots[i].is_none()).collect();
    let executed = pending.clone();

    let run_one = |cell: &Cell| -> RunOutcome {
        if store.faults().is_some_and(|f| f.panics_cell(cell.index)) {
            RunOutcome::capture_with(&cell.scenario, |_| {
                panic!("{CELL_PANIC_MARKER} in cell {}", cell.index)
            })
        } else {
            RunOutcome::capture_with(&cell.scenario, |s| {
                ReportRecord::run_with(s, opts.engine, &obs)
            })
        }
    };

    // Journal + store writes all happen on this thread, in a strict
    // claimed → (committed | poisoned) order per cell; workers only run
    // scenarios. `threads = 1` takes the fully deterministic serial
    // path (the golden-journal test pins its exact line sequence).
    // Returns the written record's checksum, for the manifest.
    let commit =
        |journal: &Journal, cell: &Cell, outcome: &RunOutcome| -> Result<Option<String>, String> {
            match outcome.record() {
                Some(record) => {
                    let checksum = store
                        .write_record(&suite_digest, record)
                        .map_err(|e| format!("record write failed: {e}"))?;
                    journal
                        .append(&JournalEntry::Committed {
                            index: cell.index as u64,
                            cell: cell.digest.clone(),
                            ok: outcome.ok(),
                            by: String::new(),
                        })
                        .map_err(jerr)?;
                    obs.emit(
                        "lab",
                        "commit",
                        cell.index as u64,
                        &cell.digest,
                        &[("ok", u64::from(outcome.ok()))],
                    );
                    Ok(Some(checksum))
                }
                None => {
                    journal
                        .append(&JournalEntry::Poisoned {
                            index: cell.index as u64,
                            cell: cell.digest.clone(),
                            status: outcome.status().to_string(),
                            message: match outcome {
                                RunOutcome::Exhausted { message, .. }
                                | RunOutcome::Poisoned { message, .. } => message.clone(),
                                RunOutcome::Complete(_) => unreachable!("record() is None"),
                            },
                            by: String::new(),
                        })
                        .map_err(jerr)?;
                    obs.emit(
                        "lab",
                        outcome.status(),
                        cell.index as u64,
                        &cell.digest,
                        &[],
                    );
                    Ok(None)
                }
            }
        };

    let threads = resolve_threads(opts.threads).min(pending.len().max(1));
    let started_at = std::time::Instant::now();
    if threads <= 1 {
        for &i in &pending {
            let cell = &cells[i];
            journal
                .append(&JournalEntry::Claimed {
                    index: cell.index as u64,
                    cell: cell.digest.clone(),
                })
                .map_err(jerr)?;
            obs.emit("lab", "claim", cell.index as u64, &cell.digest, &[]);
            let outcome = run_one(cell);
            checksums[i] = commit(&journal, cell, &outcome)?;
            slots[i] = Some(outcome);
        }
    } else {
        // One message per cell on a bounded campaign; the size skew is
        // irrelevant next to the run each message reports on.
        #[allow(clippy::large_enum_variant)]
        enum Msg {
            Claimed(usize),
            Done(usize, RunOutcome),
        }
        let stop = AtomicBool::new(false);
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<Msg>();
        let result: Result<(), String> = std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let (cursor, stop, pending, cells) = (&cursor, &stop, &pending, &cells);
                let run_one = &run_one;
                scope.spawn(move || loop {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = pending.get(k) else { break };
                    if tx.send(Msg::Claimed(i)).is_err() {
                        break;
                    }
                    let outcome = run_one(&cells[i]);
                    if tx.send(Msg::Done(i, outcome)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            let mut first_err = None;
            for msg in rx {
                if first_err.is_some() {
                    continue; // drain so workers exit promptly
                }
                let step = match msg {
                    Msg::Claimed(i) => journal
                        .append(&JournalEntry::Claimed {
                            index: cells[i].index as u64,
                            cell: cells[i].digest.clone(),
                        })
                        .map_err(jerr)
                        .map(|()| {
                            obs.emit("lab", "claim", cells[i].index as u64, &cells[i].digest, &[]);
                        }),
                    Msg::Done(i, outcome) => {
                        commit(&journal, &cells[i], &outcome).map(|checksum| {
                            checksums[i] = checksum;
                            slots[i] = Some(outcome);
                        })
                    }
                };
                if let Err(e) = step {
                    stop.store(true, Ordering::SeqCst);
                    first_err = Some(e);
                }
            }
            first_err.map_or(Ok(()), Err)
        });
        result?;
        if let Some(i) = slots.iter().position(Option::is_none) {
            return Err(format!("cell {i} never reached a terminal state"));
        }
    }

    let elapsed_ms = started_at.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
    let outcomes: Vec<RunOutcome> = slots.into_iter().map(Option::unwrap).collect();
    let executed_ticks: u64 = executed
        .iter()
        .filter_map(|&i| outcomes[i].record())
        .map(|r| r.report.ticks())
        .sum();
    let mut run = finish_run(suite, &cells, outcomes);
    run.checksums = checksums;
    // Records are already durable (committed incrementally above); only
    // the manifest remains, pinned to the bytes this run wrote or
    // verified.
    let manifest = Manifest::from_run(&run);
    store
        .write_manifest(&manifest)
        .map_err(|e| format!("manifest write failed: {e}"))?;
    if opts.cached {
        // Telemetry sidecar, not store identity — written before the
        // `finished` line so a crash right after finalize still has it.
        // Deprecated alias: the same tallies also land in metrics.json.
        store
            .write_cache_stats(&suite_digest, &cache)
            .map_err(|e| format!("cache-stats write failed: {e}"))?;
    }
    let metrics = build_run_metrics(opts, &run, &cache, &executed, executed_ticks, elapsed_ms);
    if !metrics.is_empty() {
        store
            .write_metrics(&suite_digest, &metrics)
            .map_err(|e| format!("metrics write failed: {e}"))?;
    }
    obs.flush();
    journal
        .append(&JournalEntry::Finished {
            ok: run.all_ok(),
            seq: next_finish_seq(store),
        })
        .map_err(jerr)?;
    Ok(JournaledRun {
        run,
        manifest,
        skipped,
        executed,
        cache,
        elapsed_ms,
        executed_ticks,
        metrics,
    })
}

/// Assemble the unified per-run metrics document ([`apex_obs::Metrics`],
/// written to `metrics.json`) from a finished run's tallies. Empty when
/// no telemetry was requested.
///
/// Namespaces, chosen so [`Metrics::result_plane`] captures exactly the
/// partition-independent slice: `cells.*` / `ticks.*`
/// counters and `cells.*` gauges are deterministic functions of *what*
/// was computed (a fleet drain's merge equals the serial run's
/// aggregate), while `cache.*` coordination tallies and wall-clock
/// `time.*` describe *how this run* got there.
fn build_run_metrics(
    opts: &JournalOpts,
    run: &SuiteRun,
    cache: &CacheStats,
    executed: &[usize],
    executed_ticks: u64,
    elapsed_ms: u64,
) -> Metrics {
    let mut metrics = Metrics::new();
    if !(opts.obs.metrics || opts.obs.profile || opts.cached || opts.timing) {
        return metrics;
    }
    metrics.gauge_max("cells.total", run.outcomes.len() as u64);
    metrics.add("cells.executed", executed.len() as u64);
    let count = |pred: &dyn Fn(&RunOutcome) -> bool| {
        executed.iter().filter(|&&i| pred(&run.outcomes[i])).count() as u64
    };
    metrics.add("cells.ok", count(&|o| o.ok()));
    metrics.add("cells.exhausted", count(&|o| o.status() == "exhausted"));
    metrics.add("cells.poisoned", count(&|o| o.status() == "poisoned"));
    metrics.add("ticks.executed", executed_ticks);
    metrics.add("cache.hits", cache.hits);
    metrics.add("cache.misses", cache.misses);
    metrics.add("cache.rejected", cache.rejected);
    for &i in executed {
        if let Some(record) = run.outcomes[i].record() {
            metrics.observe_with("cells.ticks", &POW2_BOUNDS, record.report.ticks());
        }
    }
    if opts.timing || opts.obs.profile {
        // The only wall-clock entry — profiling plane, never compared.
        metrics.add("time.elapsed_ms", elapsed_ms);
    }
    metrics
}
