//! Executing a suite on the workspace's thread pool, with per-cell panic
//! isolation and write-ahead journaling.
//!
//! This module is the workspace's one cell loop. `apex suite run`
//! ([`run_suite_journaled`]) and every farm worker (`apex_farm`) run
//! cells through the same pieces: [`verify_cells`] checks stored records
//! on the pool's threads, [`CellLoop::run`] streams pending cells
//! claimed → run → committed under one commit rule, [`finalize_run`]
//! writes the manifest and the `finished` entry, and
//! [`tally_result_plane`] counts what was executed. Drift
//! ([`check_against_store`](crate::check_against_store)) re-runs cells
//! through the same `run_one` and judges them by the same store
//! comparison as the commit rule.

use std::collections::HashMap;

use apex_obs::{Metrics, Obs, ObsOpts, TICKS_BOUNDS};
use apex_scenario::{CacheStats, ProgramEngine, ReportRecord, RunOutcome};

use crate::digest_hex;
use crate::drift::{compare_stored, Divergence, Stored};
use crate::fault::{FaultInjector, CELL_PANIC_MARKER};
use crate::journal::{next_finish_seq, Journal, JournalEntry};
use crate::pool::{resolve_threads, run_trials_threaded, stream_trials, TrialEvent};
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

/// Check pinned outputs and assemble the [`SuiteRun`] from outcomes in
/// expansion order, however they were gathered — run here, verified from
/// the store, or rebuilt by a farm worker ([`finalize_run`] calls this).
pub fn assemble_run(suite: &Suite, cells: &[Cell], outcomes: Vec<RunOutcome>) -> SuiteRun {
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
    /// verified hits, and tally a [`CacheStats`] (printed, and written
    /// to `metrics.json` as `cache.*`). Unlike `resume`, hits are also
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
    pub engine: Option<ProgramEngine>,
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
    /// Executed cells whose fresh bytes disagreed with verified bytes
    /// already at their address (empty on a healthy deterministic
    /// pipeline).
    pub divergences: Vec<Divergence>,
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

/// Check every cell's stored record ([`LabStore::verify_record`], pinned
/// to the rows of `pins` when given) on `threads` pool threads. Each
/// check keeps only the parsed record and the checksum of its bytes.
/// Returns, in cell order, each verified cell's outcome and checksum
/// (`None` for a miss or a rejection) and the tally of all three; every
/// verdict is traced as one `lab`/`cache` event, in cell order, so every
/// thread count reports the same scan.
pub fn verify_cells(
    store: &LabStore,
    suite_digest: &str,
    cells: &[Cell],
    pins: Option<&Manifest>,
    threads: usize,
    obs: &Obs,
) -> (Vec<Option<RunOutcome>>, Vec<Option<String>>, CacheStats) {
    let verdicts = run_trials_threaded(cells, threads, |cell| {
        let pinned = pins.and_then(|m| m.pinned_checksum(cell.index, &cell.digest));
        store
            .verify_record(suite_digest, &cell.digest, pinned)
            .map(|hit| hit.map(|v| (v.record, v.checksum)))
    });
    let mut cache = CacheStats::default();
    let (outcomes, checksums) = cells
        .iter()
        .zip(verdicts)
        .map(|(cell, verdict)| {
            let (label, hit) = match verdict {
                Ok(Some((record, checksum))) => {
                    cache.hits += 1;
                    ("hit", (Some(RunOutcome::Complete(record)), Some(checksum)))
                }
                Ok(None) => {
                    cache.misses += 1;
                    ("miss", (None, None))
                }
                Err(_) => {
                    cache.rejected += 1;
                    ("rejected", (None, None))
                }
            };
            obs.emit("lab", "cache", cell.index as u64, label, &[]);
            hit
        })
        .unzip();
    (outcomes, checksums, cache)
}

/// Run one suite cell under `catch_unwind`, honoring a fault plan's
/// panic list and an interpreter-engine override — how the cell loop and
/// drift execute every cell.
pub(crate) fn run_one(
    cell: &Cell,
    faults: Option<&FaultInjector>,
    engine: Option<ProgramEngine>,
    obs: &Obs,
) -> RunOutcome {
    if faults.is_some_and(|f| f.panics_cell(cell.index)) {
        RunOutcome::capture_with(&cell.scenario, |_| {
            panic!("{CELL_PANIC_MARKER} in cell {}", cell.index)
        })
    } else {
        RunOutcome::capture_with(&cell.scenario, |s| ReportRecord::run_with(s, engine, obs))
    }
}

/// One suite's cell loop: where its cells run, commit and journal, and
/// who is committing. `apex suite run` and every farm worker execute
/// cells through [`CellLoop::run`].
pub struct CellLoop<'a> {
    /// The results store (and its fault injector, if any).
    pub store: &'a LabStore,
    /// The suite's digest — its directory in the store.
    pub suite_digest: &'a str,
    /// The suite's write-ahead journal.
    pub journal: &'a Journal,
    /// The suite's manifest, when it has one: bytes already at a cell's
    /// address count only if they match its pinned checksum.
    pub pins: Option<&'a Manifest>,
    /// Interpreter-engine override for scheme-mode cells.
    pub engine: Option<ProgramEngine>,
    /// Trace sink for the cells' lifecycle and engine events.
    pub obs: &'a Obs,
    /// The `by` field of every `committed`/`poisoned` entry (empty for
    /// `apex suite run`, the worker id for a farm worker).
    pub by: &'a str,
}

/// One cell as [`CellLoop::run`] left it: terminal in the journal.
#[derive(Debug)]
pub struct Committed {
    /// Cell index in expansion order.
    pub index: usize,
    /// The cell's outcome — the stored record's when it diverged.
    pub outcome: RunOutcome,
    /// Checksum of the record bytes at the cell's address (`None` for a
    /// cell that left no record).
    pub checksum: Option<String>,
    /// Set when the fresh bytes disagreed with verified stored bytes.
    pub divergence: Option<Divergence>,
}

impl CellLoop<'_> {
    /// Run the `pending` cells (indices into `cells`) on up to `threads`
    /// pool threads ([`stream_trials`]). Per cell: append `claimed` when a
    /// worker takes it, run it under `catch_unwind`, then commit it.
    /// Journal and store writes all happen on the calling thread, in a
    /// strict claimed → (committed | poisoned) order per cell; at one
    /// thread the whole journal line sequence is deterministic (the
    /// golden-journal tests pin it). Returns the committed cells in
    /// commit order; the first journal or store error stops the loop.
    pub fn run(
        &self,
        cells: &[Cell],
        pending: &[usize],
        threads: usize,
    ) -> Result<Vec<Committed>, String> {
        let faults = self.store.faults().map(|f| &**f);
        let mut done = Vec::with_capacity(pending.len());
        stream_trials(
            pending,
            threads,
            |&i| run_one(&cells[i], faults, self.engine, self.obs),
            |event| match event {
                TrialEvent::Started(k) => self.claim(&cells[pending[k]]),
                TrialEvent::Done(k, outcome) => self
                    .commit(&cells[pending[k]], outcome)
                    .map(|c| done.push(c)),
            },
        )?;
        Ok(done)
    }

    fn claim(&self, cell: &Cell) -> Result<(), String> {
        self.journal
            .append(&JournalEntry::Claimed {
                index: cell.index as u64,
                cell: cell.digest.clone(),
            })
            .map_err(journal_err)?;
        self.obs
            .emit("lab", "claim", cell.index as u64, &cell.digest, &[]);
        Ok(())
    }

    /// Durably record one outcome. A record is rendered once. If the
    /// cell's address already holds bytes that verify (against the
    /// manifest pin, when the suite has a manifest), identical bytes
    /// skip the write and different bytes are a [`Divergence`] — the
    /// stored bytes stay and give the cell's outcome and checksum.
    /// Otherwise the record is written. Then the journal entry.
    fn commit(&self, cell: &Cell, outcome: RunOutcome) -> Result<Committed, String> {
        let index = cell.index;
        let Some(record) = outcome.record() else {
            let message = match &outcome {
                RunOutcome::Exhausted { message, .. } | RunOutcome::Poisoned { message, .. } => {
                    message.clone()
                }
                RunOutcome::Complete(_) => unreachable!("record() is None"),
            };
            self.journal
                .append(&JournalEntry::Poisoned {
                    index: index as u64,
                    cell: cell.digest.clone(),
                    status: outcome.status().to_string(),
                    message,
                    by: self.by.to_string(),
                })
                .map_err(journal_err)?;
            self.obs
                .emit("lab", outcome.status(), index as u64, &cell.digest, &[]);
            return Ok(Committed {
                index,
                outcome,
                checksum: None,
                divergence: None,
            });
        };
        let fresh = record.render_pretty();
        let pinned = self
            .pins
            .and_then(|m| m.pinned_checksum(index, &cell.digest));
        let (outcome, checksum, divergence) =
            match compare_stored(self.store, self.suite_digest, cell, pinned, record, &fresh) {
                Stored::Same(stored) => (outcome, stored.checksum, None),
                Stored::Differs(stored, divergence) => (
                    RunOutcome::Complete(stored.record),
                    stored.checksum,
                    Some(divergence),
                ),
                Stored::Missing | Stored::Rejected(_) => {
                    self.store
                        .write_text(
                            &self.store.record_path(self.suite_digest, &cell.digest),
                            &fresh,
                        )
                        .map_err(|e| format!("record write failed: {e}"))?;
                    (outcome, digest_hex(fresh.as_bytes()), None)
                }
            };
        self.journal
            .append(&JournalEntry::Committed {
                index: index as u64,
                cell: cell.digest.clone(),
                ok: outcome.ok(),
                by: self.by.to_string(),
            })
            .map_err(journal_err)?;
        self.obs.emit(
            "lab",
            "commit",
            index as u64,
            &cell.digest,
            &[("ok", u64::from(outcome.ok()))],
        );
        Ok(Committed {
            index,
            outcome,
            checksum: Some(checksum),
            divergence,
        })
    }
}

fn journal_err(e: std::io::Error) -> String {
    format!("journal append failed: {e}")
}

/// Finish a suite whose every cell is terminal: check its pinned outputs
/// ([`assemble_run`]), pin each record by the checksum in `checksums`
/// (the bytes the caller wrote or verified, so no record is rendered
/// again), write the manifest, then `metrics` as `metrics.json` when it
/// is non-empty, and append `finished` last.
pub fn finalize_run(
    store: &LabStore,
    journal: &Journal,
    suite: &Suite,
    cells: &[Cell],
    outcomes: Vec<RunOutcome>,
    checksums: Vec<Option<String>>,
    metrics: &Metrics,
) -> Result<(SuiteRun, Manifest), String> {
    let mut run = assemble_run(suite, cells, outcomes);
    run.checksums = checksums;
    let manifest = Manifest::from_run(&run);
    store
        .write_manifest(&manifest)
        .map_err(|e| format!("manifest write failed: {e}"))?;
    if !metrics.is_empty() {
        store
            .write_metrics(&run.suite_digest, metrics)
            .map_err(|e| format!("metrics write failed: {e}"))?;
    }
    journal
        .append(&JournalEntry::Finished {
            ok: run.all_ok(),
            seq: next_finish_seq(store),
        })
        .map_err(journal_err)?;
    Ok((run, manifest))
}

/// Count executed cells into the result plane of `metrics`: the
/// `cells.total` gauge, the `cells.*` and `ticks.executed` counters and
/// the `cells.ticks` histogram (bucketed by [`TICKS_BOUNDS`]). Every key
/// is written even when `executed` is empty, so a farm worker that owns
/// no cell still merges to the key set a serial run writes.
///
/// Namespaces are chosen so [`Metrics::result_plane`] captures exactly
/// this partition-independent slice — a deterministic function of
/// *what* was computed, so a fleet drain's merge equals the serial
/// run's aggregate — while `cache.*`, `farm.*` and wall-clock `time.*`
/// describe *how* a run got there.
pub fn tally_result_plane<'a>(
    metrics: &mut Metrics,
    total: usize,
    executed: impl IntoIterator<Item = &'a RunOutcome>,
) {
    metrics.gauge_max("cells.total", total as u64);
    for key in [
        "cells.executed",
        "cells.ok",
        "cells.exhausted",
        "cells.poisoned",
        "ticks.executed",
    ] {
        metrics.add(key, 0);
    }
    for outcome in executed {
        metrics.add("cells.executed", 1);
        metrics.add("cells.ok", u64::from(outcome.ok()));
        match outcome.status() {
            "exhausted" => metrics.add("cells.exhausted", 1),
            "poisoned" => metrics.add("cells.poisoned", 1),
            _ => {}
        }
        if let Some(record) = outcome.record() {
            let ticks = record.report.ticks();
            metrics.add("ticks.executed", ticks);
            metrics.observe_with("cells.ticks", &TICKS_BOUNDS, ticks);
        }
    }
}

/// Execute `suite` with a write-ahead journal in `store`.
///
/// A fresh run owns the suite's journal: it starts with a `started`
/// entry, runs every cell through [`CellLoop::run`] (`claimed`, then
/// `committed` with the record on disk, or `poisoned` with none), and
/// — once the manifest is durably written — ends with `finished`
/// ([`finalize_run`]). A crash at *any* boundary leaves a journal prefix
/// plus a set of verified record files; re-running with
/// `opts.resume = true` skips every cell whose content-addressed record
/// already exists, parses, digest-verifies, and is byte-identical to
/// its canonical rendering, then executes only the remainder. The final
/// manifest and record set are byte-identical to an uninterrupted run
/// (the determinism the whole store is built on).
///
/// The resume/cache checks ([`verify_cells`]) run on the same
/// `resolve_threads(opts.threads)` pool threads that execute cells;
/// their verdicts reach the tally, the trace and the skip list in cell
/// order, so every thread count reports the same run. Every executed
/// cell commits under the one commit rule ([`CellLoop`]): verified
/// bytes already at its address are kept, and different fresh bytes are
/// reported in [`JournaledRun::divergences`]. The manifest pins each
/// record by the checksum of the bytes this run wrote or verified,
/// never a second rendering.
///
/// With a [`FaultInjector`] installed on `store`, injected kills surface
/// as `Err` mid-run — exactly like a real crash, minus the process exit.
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
        // and verified identical bytes are kept as they are.
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
    let threads = resolve_threads(opts.threads);
    let manifest = store.read_manifest(&suite_digest).ok();

    // Resume and the cache path share one rule: trust nothing but
    // verified bytes — on the cached path, also pinned by the manifest.
    let (mut slots, mut checksums, cache) = if opts.resume || opts.cached {
        let pins = manifest.as_ref().filter(|_| opts.cached);
        verify_cells(store, &suite_digest, &cells, pins, threads, &obs)
    } else {
        (
            vec![None; cells.len()],
            vec![None; cells.len()],
            CacheStats::default(),
        )
    };
    let skipped: Vec<usize> = (0..cells.len()).filter(|&i| slots[i].is_some()).collect();

    journal
        .append(&JournalEntry::Started {
            suite: suite_digest.clone(),
            name: suite.name.clone(),
            cells: cells.len() as u64,
            resumed: opts.resume,
        })
        .map_err(journal_err)?;

    let executed: Vec<usize> = (0..cells.len()).filter(|&i| slots[i].is_none()).collect();
    let cell_loop = CellLoop {
        store,
        suite_digest: &suite_digest,
        journal: &journal,
        pins: manifest.as_ref(),
        engine: opts.engine,
        obs: &obs,
        by: "",
    };
    let started_at = std::time::Instant::now();
    let committed = cell_loop.run(&cells, &executed, threads)?;
    let elapsed_ms = started_at.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;

    let mut divergences = Vec::new();
    for c in committed {
        divergences.extend(c.divergence);
        checksums[c.index] = c.checksum;
        slots[c.index] = Some(c.outcome);
    }
    let outcomes: Vec<RunOutcome> = slots.into_iter().map(Option::unwrap).collect();
    let executed_outcomes = || executed.iter().map(|&i| &outcomes[i]);
    let executed_ticks: u64 = executed_outcomes()
        .filter_map(RunOutcome::record)
        .map(|r| r.report.ticks())
        .sum();
    let mut metrics = Metrics::new();
    if opts.obs.metrics || opts.obs.profile || opts.cached || opts.timing {
        tally_result_plane(&mut metrics, cells.len(), executed_outcomes());
        metrics.add("cache.hits", cache.hits);
        metrics.add("cache.misses", cache.misses);
        metrics.add("cache.rejected", cache.rejected);
        if opts.timing || opts.obs.profile {
            // The only wall-clock entry — profiling plane, never compared.
            metrics.add("time.elapsed_ms", elapsed_ms);
        }
    }
    obs.flush();
    let (run, manifest) = finalize_run(
        store, &journal, suite, &cells, outcomes, checksums, &metrics,
    )?;
    Ok(JournaledRun {
        run,
        manifest,
        skipped,
        executed,
        cache,
        divergences,
        elapsed_ms,
        executed_ticks,
        metrics,
    })
}
