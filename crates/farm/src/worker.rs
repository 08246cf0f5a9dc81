//! The farm worker: drain queued suites by leasing cell shards.
//!
//! A worker runs cells through `apex suite run`'s own cell loop
//! ([`CellLoop`]); all it adds is what is farm-specific. Per suite, it
//! sweeps the shard list; for each shard it can claim (no lease, its
//! own lease, or a torn/expired one), it hands the shard's pending cells
//! — those the shared journal has not yet committed (with a record that
//! still verifies) or poisoned — to [`CellLoop::run`], which streams
//! them claimed → run → committed with thread fan-out from the
//! workspace's one resolver, [`resolve_threads`]. The journal therefore
//! replays like a serial run's, and fsck needs no new record rules.
//! Once every cell of a suite is terminal, whoever gets there finalizes:
//! outcomes are rebuilt from verified records (and journal `poisoned`
//! entries for record-less cells) and handed to the runner's own
//! [`finalize_run`], so the manifest is byte-identical to a
//! single-worker run.
//!
//! **Stalls cannot deadlock.** Lease expiry is operation-indexed on the
//! journal; when a sweep makes no progress because another worker holds
//! every remaining shard, this worker appends a probe entry (a duplicate
//! `claimed` — journals are telemetry, not store identity) to advance
//! the clock. A live holder keeps appending and stays ahead of its ttl;
//! a dead one's lease lapses after at most `ttl` probes and the shard is
//! taken over. Stealing from a *slow but live* holder is safe too: the
//! loop's commit rule keeps verified bytes already on disk, and any byte
//! disagreement between two workers' results for one cell is surfaced as
//! a [`Divergence`] instead of being silently overwritten.

use std::collections::BTreeMap;

use apex_lab::pool::resolve_threads;
use apex_lab::{
    finalize_run, lease_dir, lease_path, read_journal, read_leases, tally_result_plane,
    verify_cells, Cell, CellLoop, Divergence, Journal, JournalEntry, JournalState, LabStore, Lease,
    Suite,
};
use apex_obs::{Metrics, Obs, ObsOpts};
use apex_scenario::{CacheStats, RunOutcome};

use crate::queue::FarmQueue;

/// Default cells per shard (the lease granularity).
pub const DEFAULT_SHARD_CELLS: usize = 4;

/// Default lease ttl in journal appends.
pub const DEFAULT_TTL: u64 = 32;

/// Options for [`run_worker`].
#[derive(Clone, Debug)]
pub struct WorkerOpts {
    /// Worker identifier (lands in lease files; diagnostic only).
    pub worker: String,
    /// Cells per shard — the unit of lease-based work stealing.
    pub shard_cells: usize,
    /// Lease ttl, in journal appends (operation clock, never wall-clock).
    pub ttl: u64,
    /// Explicit thread count for cell execution (`None` resolves through
    /// [`resolve_threads`]: `APEX_RUNNER_THREADS`, else all cores —
    /// identical semantics to `apex suite run --threads`).
    pub threads: Option<usize>,
    /// Runtime interpreter-engine override for scheme-mode cells. It
    /// never changes a result byte, so workers running different
    /// interpreters still converge to one record set.
    pub engine: Option<apex_scenario::ProgramEngine>,
    /// Telemetry plane ([`apex_obs::ObsOpts`]). With `metrics` on, the
    /// worker writes a per-suite `metrics-<worker>.json` shard beside the
    /// suite's records; `apex obs metrics --merge` folds the shards into
    /// the same result-plane aggregate a serial run produces. With a
    /// trace path, lease-acquire/probe/expire seams and per-cell engine
    /// events are recorded. Telemetry never changes a stored byte.
    pub obs: ObsOpts,
}

impl Default for WorkerOpts {
    fn default() -> Self {
        WorkerOpts {
            worker: format!("worker-{}", std::process::id()),
            shard_cells: DEFAULT_SHARD_CELLS,
            ttl: DEFAULT_TTL,
            threads: None,
            engine: None,
            obs: ObsOpts::off(),
        }
    }
}

/// What one [`run_worker`] invocation did.
#[derive(Clone, Debug, Default)]
pub struct WorkerReport {
    /// Queue entries visited.
    pub suites: usize,
    /// Cells this worker actually executed.
    pub executed: usize,
    /// Memoization tally across the first scan of every visited suite.
    pub cache: CacheStats,
    /// Suites this worker finalized (wrote the manifest + `finished`).
    pub finalized: Vec<String>,
    /// Byte disagreements between this worker's results and records
    /// already in the store (empty on a healthy deterministic pipeline).
    pub divergences: Vec<Divergence>,
}

impl WorkerReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "worker: {} suites, {} executed, {} — finalized {}, {} divergences",
            self.suites,
            self.executed,
            self.cache.summary(),
            self.finalized.len(),
            self.divergences.len()
        )
    }
}

/// Drain every queued suite: claim shards, run their pending cells,
/// finalize completed suites. Returns when the whole queue is drained.
/// Injected faults (via the store's
/// [`FaultInjector`](apex_lab::FaultInjector)) surface as `Err`, exactly
/// like a crashed worker process.
pub fn run_worker(
    queue: &FarmQueue,
    store: &LabStore,
    opts: &WorkerOpts,
) -> Result<WorkerReport, String> {
    let mut report = WorkerReport::default();
    let obs = opts
        .obs
        .open_trace()
        .map_err(|e| format!("trace open failed: {e}"))?;
    for (digest, suite) in queue.entries()? {
        report.suites += 1;
        drain_suite(store, &digest, &suite, opts, &obs, &mut report)?;
    }
    obs.flush();
    Ok(report)
}

/// Is this cell terminal for the shared run — `poisoned` in the journal,
/// or `committed` there with a record that still verifies?
fn terminal(store: &LabStore, digest: &str, cell: &Cell, state: &JournalState) -> bool {
    let index = cell.index as u64;
    state.poisoned.contains(&index)
        || (state.committed.contains(&index)
            && matches!(store.verify_record(digest, &cell.digest, None), Ok(Some(_))))
}

/// Drain one suite, then (with `--metrics`) write this worker's
/// per-suite metrics shard — `metrics-<worker>.json` beside the records,
/// excluded from byte-identity like every telemetry sidecar.
fn drain_suite(
    store: &LabStore,
    digest: &str,
    suite: &Suite,
    opts: &WorkerOpts,
    obs: &Obs,
    report: &mut WorkerReport,
) -> Result<(), String> {
    let mut metrics = Metrics::new();
    drain_suite_inner(store, digest, suite, opts, obs, report, &mut metrics)?;
    if opts.obs.metrics && !metrics.is_empty() {
        let path = store
            .suite_dir(digest)
            .join(format!("metrics-{}.json", opts.worker));
        store
            .write_text(&path, &metrics.render_pretty())
            .map_err(|e| format!("metrics write failed: {e}"))?;
    }
    Ok(())
}

/// Fold the outcomes of every cell this worker owns into its metrics
/// shard. Ownership is the first terminal (`committed`/`poisoned`)
/// journal entry per index: the journal is one totally-ordered file
/// all workers share, so every worker computes the same attribution
/// and a doubly-executed cell (a lease stolen from a slow-but-live
/// holder) lands in exactly one shard. Merging the shards therefore
/// reproduces a serial run's result plane, not the fleet's raw
/// (duplicate-inflated) work — which is tallied separately under the
/// coordination-plane `farm.executions` counter.
fn attribute_result_plane(
    store: &LabStore,
    digest: &str,
    worker: &str,
    total: usize,
    executed: &BTreeMap<u64, RunOutcome>,
    metrics: &mut Metrics,
) {
    let state = read_journal(&store.journal_path(digest)).unwrap_or_default();
    let mut seen = std::collections::BTreeSet::new();
    let owned = state.entries.iter().filter_map(|entry| {
        let (index, by) = match entry {
            JournalEntry::Committed { index, by, .. } => (*index, by),
            JournalEntry::Poisoned { index, by, .. } => (*index, by),
            _ => return None,
        };
        (seen.insert(index) && by == worker)
            .then(|| executed.get(&index))
            .flatten()
    });
    tally_result_plane(metrics, total, owned);
}

fn drain_suite_inner(
    store: &LabStore,
    digest: &str,
    suite: &Suite,
    opts: &WorkerOpts,
    obs: &Obs,
    report: &mut WorkerReport,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let cells = suite.expand()?;
    metrics.add("farm.executions", 0);
    // Outcomes of the cells this worker executed, attributed to shards
    // only once the journal names an owner.
    let mut executed = BTreeMap::new();
    let dir = store.suite_dir(digest);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let journal_path = store.journal_path(digest);
    let mut journal = Journal::new(&journal_path);
    if let Some(f) = store.faults() {
        journal = journal.with_faults(f.clone());
    }
    let threads = resolve_threads(opts.threads);

    // First scan: the memoization tally for this visit.
    let (_, _, cache) = verify_cells(store, digest, &cells, None, threads, obs);
    report.cache.absorb(&cache);
    metrics.add("cache.hits", cache.hits);
    metrics.add("cache.misses", cache.misses);
    metrics.add("cache.rejected", cache.rejected);

    // Fast path: already finalized. Still sweep leases so a crashed
    // worker's debris does not outlive the run it belonged to.
    if read_journal(&journal_path).is_ok_and(|s| s.finished) && store.read_manifest(digest).is_ok()
    {
        reclaim_all_leases(store, digest)?;
        attribute_result_plane(store, digest, &opts.worker, cells.len(), &executed, metrics);
        return Ok(());
    }

    journal
        .append(&JournalEntry::Started {
            suite: digest.to_string(),
            name: suite.name.clone(),
            cells: cells.len() as u64,
            resumed: journal_path.exists(),
        })
        .map_err(|e| format!("journal append failed: {e}"))?;

    let pins = store.read_manifest(digest).ok();
    let cell_loop = CellLoop {
        store,
        suite_digest: digest,
        journal: &journal,
        pins: pins.as_ref(),
        engine: opts.engine,
        obs,
        by: &opts.worker,
    };
    let shard_cells = opts.shard_cells.max(1);
    let n_shards = cells.len().div_ceil(shard_cells);
    // Probes advance the operation clock when every remaining shard is
    // held by someone else; after this many fruitless sweeps even the
    // longest-ttl lease must have lapsed, so no progress then means the
    // queue is genuinely wedged (e.g. a fault injector killed the world).
    let probe_budget = opts.ttl.max(1) * (n_shards as u64 + 1) + 64;
    let mut probes = 0u64;

    loop {
        let state = read_journal(&journal_path).unwrap_or_default();
        if state.finished && store.read_manifest(digest).is_ok() {
            reclaim_all_leases(store, digest)?;
            attribute_result_plane(store, digest, &opts.worker, cells.len(), &executed, metrics);
            return Ok(());
        }
        let mut progress = false;

        for shard in 0..n_shards {
            let lo = shard * shard_cells;
            let hi = (lo + shard_cells).min(cells.len());
            let state = read_journal(&journal_path).unwrap_or_default();
            let pending: Vec<usize> = (lo..hi)
                .filter(|&i| !terminal(store, digest, &cells[i], &state))
                .collect();
            if pending.is_empty() {
                continue;
            }
            let journal_len = state.entries.len() as u64;
            let path = lease_path(store, digest, shard as u64);
            let claimable = match std::fs::read_to_string(&path) {
                Err(_) => true, // no lease (or unreadable debris)
                Ok(text) => match Lease::parse(&text) {
                    Err(_) => true,                           // torn — reclaim
                    Ok(l) if l.worker == opts.worker => true, // already ours
                    Ok(l) => {
                        // Steal only lapsed claims; the takeover of a
                        // dead worker's lease is a seam worth tracing
                        // (op-indexed on the journal's operation clock).
                        let lapsed = l.expired(journal_len);
                        if lapsed {
                            obs.emit(
                                "farm",
                                "expire",
                                journal_len,
                                &l.worker,
                                &[("shard", shard as u64)],
                            );
                        }
                        lapsed
                    }
                },
            };
            if !claimable {
                continue;
            }
            let lease = Lease {
                suite: digest.to_string(),
                shard: shard as u64,
                start: lo as u64,
                count: (hi - lo) as u64,
                worker: opts.worker.clone(),
                issued_at: journal_len,
                ttl: opts.ttl,
            };
            // The write creates `leases/` itself, on every attempt: a
            // concurrent `reclaim_all_leases` may remove it at any time.
            store
                .write_text(&path, &lease.render_pretty())
                .map_err(|e| format!("lease write failed: {e}"))?;
            obs.emit(
                "farm",
                "lease",
                journal_len,
                &opts.worker,
                &[
                    ("shard", shard as u64),
                    ("start", lo as u64),
                    ("count", (hi - lo) as u64),
                ],
            );

            for done in cell_loop.run(&cells, &pending, threads)? {
                report.executed += 1;
                // Raw work including duplicate executions of stolen
                // cells; the result plane is attributed at drain end.
                metrics.add("farm.executions", 1);
                report.divergences.extend(done.divergence);
                executed.insert(done.index as u64, done.outcome);
            }
            let _ = std::fs::remove_file(&path); // release our claim
            progress = true;
        }

        let state = read_journal(&journal_path).unwrap_or_default();
        let all_terminal = cells.iter().all(|c| terminal(store, digest, c, &state));
        if all_terminal {
            if !state.finished || store.read_manifest(digest).is_err() {
                finalize(store, digest, suite, &cells, &journal, &state, threads)?;
                report.finalized.push(digest.to_string());
            }
            reclaim_all_leases(store, digest)?;
            attribute_result_plane(store, digest, &opts.worker, cells.len(), &executed, metrics);
            return Ok(());
        }
        if !progress {
            // Someone else holds every remaining shard. Advance the
            // operation clock so a dead holder's lease lapses.
            probes += 1;
            if probes > probe_budget {
                return Err(format!(
                    "suite {digest}: no progress after {probes} probes — \
                     remaining shards are leased but never complete"
                ));
            }
            // `terminal` reads the store, so a concurrent worker may have
            // committed the remaining cells since the `all_terminal` pass
            // above; an empty scan just means the next loop will finalize.
            let Some(first_pending) = cells.iter().find(|c| !terminal(store, digest, c, &state))
            else {
                continue;
            };
            journal
                .append(&JournalEntry::Claimed {
                    index: first_pending.index as u64,
                    cell: first_pending.digest.clone(),
                })
                .map_err(|e| format!("journal append failed: {e}"))?;
            obs.emit(
                "farm",
                "probe",
                state.entries.len() as u64,
                &opts.worker,
                &[("probes", probes)],
            );
            // Bounded, probe-indexed politeness pause (real concurrent
            // workers spin less hot; in-process fault tests, which use
            // tiny ttls, barely wait).
            std::thread::sleep(std::time::Duration::from_millis(probes.min(10)));
        }
    }
}

/// Rebuild every cell's outcome from disk — its verified record, or the
/// journal's `poisoned` entry for a record-less cell — and finalize
/// through the runner's [`finalize_run`], pinning each row to the
/// checksum of the bytes verified here.
fn finalize(
    store: &LabStore,
    digest: &str,
    suite: &Suite,
    cells: &[Cell],
    journal: &Journal,
    state: &JournalState,
    threads: usize,
) -> Result<(), String> {
    let (verified, checksums, _) =
        verify_cells(store, digest, cells, None, threads, &Obs::disabled());
    let mut outcomes = Vec::with_capacity(cells.len());
    for (cell, verified) in cells.iter().zip(verified) {
        if let Some(outcome) = verified {
            outcomes.push(outcome);
            continue;
        }
        let (status, message) = state
            .entries
            .iter()
            .rev()
            .find_map(|e| match e {
                JournalEntry::Poisoned {
                    index,
                    status,
                    message,
                    ..
                } if *index == cell.index as u64 => Some((status.clone(), message.clone())),
                _ => None,
            })
            .ok_or_else(|| format!("cell {} of suite {digest} is not terminal", cell.index))?;
        let scenario = cell.scenario.clone();
        outcomes.push(if status == "exhausted" {
            RunOutcome::Exhausted { scenario, message }
        } else {
            RunOutcome::Poisoned { scenario, message }
        });
    }
    finalize_run(
        store,
        journal,
        suite,
        cells,
        outcomes,
        checksums,
        &Metrics::new(),
    )
    .map(drop)
}

/// Delete every lease file of a finalized suite and the `leases/`
/// directory itself — a converged store carries no queue debris.
fn reclaim_all_leases(store: &LabStore, digest: &str) -> Result<(), String> {
    for (path, _) in read_leases(store, digest)? {
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_dir(lease_dir(store, digest));
    Ok(())
}
