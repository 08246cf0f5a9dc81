//! The campaign farm, end to end: memoizing cache, multi-worker claim
//! queue, lease reclamation, and convergence under injected faults.
//!
//! The invariants this file pins:
//!
//! * a second `--cached` run of an already-stored suite executes zero
//!   cells, tallies all-hit [`CacheStats`], and leaves the store
//!   byte-identical;
//! * any number of concurrent (or crashed-and-replaced) workers drain a
//!   queued suite to a record set and manifest **byte-identical** to a
//!   single serial `apex suite run` — the journal and metrics sidecars
//!   are per-run telemetry and excluded from the comparison;
//! * every bad-lease class (torn, stale, orphaned) is detected by fsck
//!   and *reclaimed* — deleted, never quarantined — while a live claim
//!   in an in-flight run is left alone;
//! * seeded fault plans (kills mid-lease, torn lease writes, duplicate
//!   claims via tiny ttls) never prevent convergence once a clean
//!   worker finishes the drain.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use apex_farm::{query, run_worker, FarmQueue, QueryAnswer, WorkerOpts};
use apex_lab::{
    digest_hex, fsck, is_kill, lease_dir, lease_path, read_journal, run_suite_journaled,
    Divergence, FaultInjector, FaultPlan, FsckIssueKind, Grid, JournalOpts, LabStore, Lease,
    SeedRange, Suite, TornWrite, CACHE_STATS_FILE, TELEMETRY_FILES,
};
use apex_obs::{Metrics, ObsOpts};
use apex_scenario::{CacheStats, ProgramSource, RunOutcome, Scenario, SourceSpec};
use apex_scheme::SchemeKind;
use apex_sim::ScheduleKind;
use proptest::prelude::*;

fn committed_suite(name: &str) -> Suite {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("suites/{name}.json"));
    let suite = Suite::load(&path).unwrap();
    suite.validate().unwrap();
    suite
}

/// A small mixed suite (4 cells): cheap enough to run once per proptest
/// case, rich enough to cross shard boundaries at `shard_cells = 2`.
fn farm_suite() -> Suite {
    let mut suite = Suite::new("farm-unit");
    suite
        .cells
        .push(Scenario::agreement(8, SourceSpec::Random(50), 1, 41));
    suite
        .cells
        .push(Scenario::agreement(8, SourceSpec::Random(50), 1, 42));
    let mut grid = Grid::new(Scenario::scheme(
        SchemeKind::Nondet,
        ProgramSource::library("coin-sum", 8, vec![16]),
        1,
    ));
    grid.schedules = vec![ScheduleKind::Uniform.into()];
    grid.seeds = Some(SeedRange { start: 1, count: 2 });
    suite.grids.push(grid);
    suite
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apex-farm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn temp_store(tag: &str) -> LabStore {
    LabStore::new(temp_dir(&format!("store-{tag}")))
}

fn serial() -> JournalOpts {
    JournalOpts {
        threads: Some(1),
        ..JournalOpts::default()
    }
}

/// The suite directory's durable identity: file name → bytes, minus the
/// telemetry sidecars ([`TELEMETRY_FILES`] plus per-worker
/// `metrics-*`/`trace-*` shards) and any `leases/` debris — exactly what
/// must be byte-identical across runner topologies.
fn file_map(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            continue;
        }
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if TELEMETRY_FILES.contains(&name.as_str())
            || name.starts_with("metrics-")
            || name.starts_with("trace-")
        {
            continue;
        }
        out.insert(name, std::fs::read(&path).unwrap());
    }
    out
}

/// Serial single-runner ground truth for `suite`.
fn reference_map(suite: &Suite, tag: &str) -> BTreeMap<String, Vec<u8>> {
    let store = temp_store(tag);
    run_suite_journaled(suite, &store, &serial()).unwrap();
    let map = file_map(&store.suite_dir(&suite.digest()));
    let _ = std::fs::remove_dir_all(store.root());
    map
}

/// The `cache.*` counters of a metrics document, as a tally.
fn cache_counters(metrics: &Metrics) -> CacheStats {
    CacheStats {
        hits: metrics.counter("cache.hits"),
        misses: metrics.counter("cache.misses"),
        rejected: metrics.counter("cache.rejected"),
    }
}

fn worker(id: &str) -> WorkerOpts {
    WorkerOpts {
        worker: id.to_string(),
        shard_cells: 2,
        ttl: 8,
        threads: Some(1),
        ..WorkerOpts::default()
    }
}

#[test]
fn cached_rerun_executes_nothing_and_is_byte_identical() {
    // The memoization proof, on the committed adversary suite: run once,
    // then `--cached` — zero cells executed, all-hit stats, same bytes.
    let suite = committed_suite("adversary");
    let store = temp_store("cached-adv");
    run_suite_journaled(&suite, &store, &serial()).unwrap();
    let before = file_map(&store.suite_dir(&suite.digest()));

    let cached = JournalOpts {
        cached: true,
        threads: Some(1),
        ..JournalOpts::default()
    };
    let done = run_suite_journaled(&suite, &store, &cached).unwrap();
    assert!(done.executed.is_empty(), "cached run must execute 0 cells");
    assert_eq!(done.skipped.len(), suite.expand().unwrap().len());
    assert!(done.cache.all_hit(), "{}", done.cache.summary());
    assert_eq!(done.cache.hits as usize, done.skipped.len());
    assert_eq!(file_map(&store.suite_dir(&suite.digest())), before);

    // The tally lands in metrics.json as `cache.*`; the retired
    // cache-stats.json sidecar is not written.
    let metrics = store.read_metrics(&suite.digest()).unwrap();
    assert_eq!(cache_counters(&metrics), done.cache);
    assert!(!store
        .suite_dir(&suite.digest())
        .join(CACHE_STATS_FILE)
        .exists());
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn cached_run_rejects_and_heals_a_corrupt_record() {
    let suite = farm_suite();
    let store = temp_store("cached-heal");
    run_suite_journaled(&suite, &store, &serial()).unwrap();
    let before = file_map(&store.suite_dir(&suite.digest()));

    // Corrupt one record in place: the cached run must classify it as
    // rejected (present but unverifiable), re-execute exactly that cell,
    // and restore the byte-identical store.
    let manifest = store.read_manifest(&suite.digest()).unwrap();
    let victim = store.record_path(&suite.digest(), &manifest.cells[1].digest);
    std::fs::write(&victim, "not a record").unwrap();

    let cached = JournalOpts {
        cached: true,
        threads: Some(1),
        ..JournalOpts::default()
    };
    let done = run_suite_journaled(&suite, &store, &cached).unwrap();
    assert_eq!(done.cache.rejected, 1, "{}", done.cache.summary());
    assert_eq!(done.executed, vec![1]);
    assert!(!done.cache.all_hit());
    assert_eq!(file_map(&store.suite_dir(&suite.digest())), before);
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn two_concurrent_workers_converge_byte_identically_to_serial() {
    let suite = committed_suite("smoke");
    let reference = reference_map(&suite, "two-ref");
    let store = temp_store("two");
    let queue = FarmQueue::new(temp_dir("queue-two"));
    queue.submit(&suite).unwrap();

    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = ["alpha", "beta"]
            .into_iter()
            .map(|id| {
                let (queue, store) = (&queue, &store);
                scope.spawn(move || run_worker(queue, store, &worker(id)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect::<Vec<_>>()
    });
    for report in &reports {
        assert!(report.divergences.is_empty(), "{}", report.summary());
    }
    // At least one worker finalized (both may — finalization writes the
    // same manifest bytes, so the race is benign) and between them every
    // cell ran at least once. The lease protocol is an optimization, so
    // only the conservative bounds hold, not perfect partitioning.
    let cells = suite.expand().unwrap().len();
    assert!(reports.iter().map(|r| r.finalized.len()).sum::<usize>() >= 1);
    assert!(reports.iter().map(|r| r.executed).sum::<usize>() >= cells);

    assert_eq!(file_map(&store.suite_dir(&suite.digest())), reference);
    assert!(
        !lease_dir(&store, &suite.digest()).exists(),
        "a converged store carries no queue debris"
    );
    assert!(fsck(&store, false).unwrap().clean());
    let status = queue.status(&store).unwrap();
    assert!(status.all_finished(), "{}", status.summary());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn worker_killed_mid_lease_is_replaced_and_converges() {
    let suite = committed_suite("smoke");
    let reference = reference_map(&suite, "kill-ref");
    let store = temp_store("kill");
    let queue = FarmQueue::new(temp_dir("queue-kill"));
    queue.submit(&suite).unwrap();

    // Worker one dies mid-drain: a few cells committed, a lease likely
    // still on disk, journal unfinished.
    let faulty = store
        .clone()
        .with_faults(Arc::new(FaultInjector::new(FaultPlan {
            kill_after_journal: Some(4),
            ..FaultPlan::default()
        })));
    let err = run_worker(&queue, &faulty, &worker("doomed")).unwrap_err();
    assert!(is_kill(&err), "{err}");
    assert!(
        !read_journal(&store.journal_path(&suite.digest()))
            .unwrap()
            .finished
    );

    // Worker two (fresh process, no faults) takes over: expired or
    // foreign-but-dead leases lapse on the operation clock as the worker
    // appends, the remaining shards run, the suite finalizes.
    let report = run_worker(&queue, &store, &worker("relief")).unwrap();
    assert_eq!(report.finalized, vec![suite.digest()]);
    assert!(report.divergences.is_empty());

    assert_eq!(file_map(&store.suite_dir(&suite.digest())), reference);
    assert!(!lease_dir(&store, &suite.digest()).exists());
    assert!(fsck(&store, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

/// Write a syntactically valid lease file for `suite`'s shard `k`.
fn plant_lease(store: &LabStore, suite: &str, lease: &Lease) {
    let dir = lease_dir(store, suite);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(lease_path(store, suite, lease.shard), lease.render_pretty()).unwrap();
}

#[test]
fn a_lease_write_creates_the_leases_dir_a_reclaim_removed() {
    // A worker writes its shard lease while another worker may be
    // reclaiming the suite's `leases/` directory, so the write must
    // create the directory itself instead of failing on its absence. The
    // directory is made inside each write, so a fault plan still counts
    // exactly one store write per lease.
    let suite = farm_suite();
    let digest = suite.digest();
    let faults = Arc::new(FaultInjector::new(FaultPlan::default()));
    let store = temp_store("lease-dir").with_faults(faults.clone());
    std::fs::create_dir_all(store.suite_dir(&digest)).unwrap();
    let lease = Lease {
        suite: digest.clone(),
        shard: 0,
        start: 0,
        count: 2,
        worker: "racer".into(),
        issued_at: 0,
        ttl: 8,
    };
    let path = lease_path(&store, &digest, 0);
    for round in 0..2 {
        assert!(!lease_dir(&store, &digest).exists(), "round {round}");
        store.write_text(&path, &lease.render_pretty()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(Lease::parse(&text).unwrap(), lease, "round {round}");
        // A concurrent reclaim empties and removes the directory.
        std::fs::remove_dir_all(lease_dir(&store, &digest)).unwrap();
    }
    assert_eq!(faults.next_store_write(), 2, "one store write per lease");
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn fsck_reclaims_torn_leases_from_a_fault_plan() {
    // The first store write of a worker drain is the shard lease; tear
    // it and die. fsck must classify the debris as a torn lease and
    // reclaim (not quarantine) it.
    let suite = farm_suite();
    let store = temp_store("lease-torn");
    let queue = FarmQueue::new(temp_dir("queue-torn"));
    queue.submit(&suite).unwrap();
    let faulty = store
        .clone()
        .with_faults(Arc::new(FaultInjector::new(FaultPlan {
            torn_write: Some(TornWrite { write: 0, keep: 24 }),
            ..FaultPlan::default()
        })));
    let err = run_worker(&queue, &faulty, &worker("tearer")).unwrap_err();
    assert!(is_kill(&err), "{err}");
    let shard0 = lease_path(&store, &suite.digest(), 0);
    assert!(shard0.exists(), "the torn lease must be on disk");

    let report = fsck(&store, true).unwrap();
    let lease_issues: Vec<_> = report
        .issues
        .iter()
        .filter(|i| i.kind == FsckIssueKind::LeaseTorn)
        .collect();
    assert_eq!(lease_issues.len(), 1, "{}", report.summary());
    assert!(lease_issues[0].reclaimed && !lease_issues[0].quarantined);
    assert!(!shard0.exists());
    assert!(
        !store.quarantine_root().exists()
            || !store
                .quarantine_root()
                .join(suite.digest())
                .join("shard-0.json")
                .exists(),
        "leases are reclaimed, never quarantined"
    );
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn fsck_reclaims_stale_leases_after_the_run_finishes() {
    // A kill plan leaves a live lease behind; the run is then finished
    // by the journaled runner (which knows nothing of leases). The
    // leftover claim outlived its run: stale, reclaimed.
    let suite = farm_suite();
    let store = temp_store("lease-stale");
    let queue = FarmQueue::new(temp_dir("queue-stale"));
    queue.submit(&suite).unwrap();
    let faulty = store
        .clone()
        .with_faults(Arc::new(FaultInjector::new(FaultPlan {
            kill_after_journal: Some(3),
            ..FaultPlan::default()
        })));
    let err = run_worker(&queue, &faulty, &worker("doomed")).unwrap_err();
    assert!(is_kill(&err), "{err}");
    assert!(lease_path(&store, &suite.digest(), 0).exists());

    let resume = JournalOpts {
        resume: true,
        threads: Some(1),
        ..JournalOpts::default()
    };
    run_suite_journaled(&suite, &store, &resume).unwrap();

    let report = fsck(&store, true).unwrap();
    let stale: Vec<_> = report
        .issues
        .iter()
        .filter(|i| i.kind == FsckIssueKind::LeaseStale)
        .collect();
    assert_eq!(stale.len(), 1, "{}", report.summary());
    assert!(stale[0].reclaimed && !stale[0].quarantined);
    assert!(!lease_dir(&store, &suite.digest()).exists());
    assert!(fsck(&store, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn fsck_reclaims_orphaned_shard_claims() {
    let suite = farm_suite();
    let store = temp_store("lease-orphan");
    run_suite_journaled(&suite, &store, &serial()).unwrap();
    let digest = suite.digest();

    // Orphan class 1: a lease filed under this suite but claiming
    // another. Orphan class 2: a shard range past the suite's expansion.
    plant_lease(
        &store,
        &digest,
        &Lease {
            suite: "feedfacefeedface".into(),
            shard: 0,
            start: 0,
            count: 2,
            worker: "stray".into(),
            issued_at: 0,
            ttl: u64::MAX,
        },
    );
    plant_lease(
        &store,
        &digest,
        &Lease {
            suite: digest.clone(),
            shard: 7,
            start: 90,
            count: 2,
            worker: "confused".into(),
            issued_at: 0,
            ttl: u64::MAX,
        },
    );

    let report = fsck(&store, true).unwrap();
    let orphans: Vec<_> = report
        .issues
        .iter()
        .filter(|i| i.kind == FsckIssueKind::LeaseOrphan)
        .collect();
    assert_eq!(orphans.len(), 2, "{}", report.summary());
    assert!(orphans.iter().all(|i| i.reclaimed && !i.quarantined));
    assert!(!lease_dir(&store, &digest).exists());
    assert!(fsck(&store, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn fsck_leaves_a_live_claim_in_an_inflight_run_alone() {
    let suite = farm_suite();
    let store = temp_store("lease-live");
    let queue = FarmQueue::new(temp_dir("queue-live"));
    queue.submit(&suite).unwrap();
    // Die right after the first shard's claims hit the journal: the
    // journal is in-flight and the lease's operation budget is unspent.
    let faulty = store
        .clone()
        .with_faults(Arc::new(FaultInjector::new(FaultPlan {
            kill_after_journal: Some(2),
            ..FaultPlan::default()
        })));
    let err = run_worker(
        &queue,
        &faulty,
        &WorkerOpts {
            ttl: 1_000,
            ..worker("live")
        },
    )
    .unwrap_err();
    assert!(is_kill(&err), "{err}");
    assert!(lease_path(&store, &suite.digest(), 0).exists());

    // No lease issue: the claim is within budget and the run in-flight.
    let report = fsck(&store, false).unwrap();
    assert!(
        !report.issues.iter().any(|i| matches!(
            i.kind,
            FsckIssueKind::LeaseTorn | FsckIssueKind::LeaseStale | FsckIssueKind::LeaseOrphan
        )),
        "{}",
        report.summary()
    );
    assert!(lease_path(&store, &suite.digest(), 0).exists());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn query_misses_enqueue_then_hit_after_a_worker_drains() {
    let store = temp_store("query");
    let queue = FarmQueue::new(temp_dir("queue-query"));
    let scenario = Scenario::agreement(8, SourceSpec::Random(50), 1, 77);

    // Miss: enqueued as a one-cell suite, idempotently.
    let QueryAnswer::Enqueued {
        suite_digest,
        fresh,
        ..
    } = query(&store, &queue, &scenario).unwrap()
    else {
        panic!("expected a miss on an empty store")
    };
    assert!(fresh);
    let QueryAnswer::Enqueued { fresh, .. } = query(&store, &queue, &scenario).unwrap() else {
        panic!("expected the repeat query to still miss")
    };
    assert!(!fresh, "re-enqueueing the same query must be idempotent");

    let report = run_worker(&queue, &store, &worker("solo")).unwrap();
    assert_eq!(report.finalized, vec![suite_digest.clone()]);

    // Hit: the stored bytes verbatim, found under the one-cell suite.
    let QueryAnswer::Hit {
        suite,
        text,
        record,
    } = query(&store, &queue, &scenario).unwrap()
    else {
        panic!("expected a hit after the worker drained the queue")
    };
    assert_eq!(suite, suite_digest);
    assert_eq!(record.scenario.digest(), scenario.digest());
    let stored = std::fs::read_to_string(store.record_path(&suite, &scenario.digest())).unwrap();
    assert_eq!(text, stored);
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

/// Seed → a worker fleet's fault plans. Worker 0 may be killed at a
/// seeded journal boundary, worker 1 may tear its first lease write;
/// tiny ttls plus concurrency produce duplicate claims organically.
fn fleet_plans(seed: u64, workers: usize) -> Vec<Option<FaultPlan>> {
    (0..workers)
        .map(|w| match w {
            0 if seed & 1 != 0 => Some(FaultPlan {
                kill_after_journal: Some((seed >> 2) % 9),
                ..FaultPlan::default()
            }),
            1 if seed & 2 != 0 => Some(FaultPlan {
                torn_write: Some(TornWrite {
                    write: (seed >> 6) % 2,
                    keep: (seed % 64) as usize,
                }),
                ..FaultPlan::default()
            }),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// For any seeded fleet of 2–4 in-process workers — some killed
    /// mid-lease, some tearing lease writes, all racing with tiny ttls —
    /// the merged store converges byte-identical to the single-worker
    /// reference once a final clean worker drains what is left.
    #[test]
    fn seeded_worker_fleets_converge_to_the_serial_bytes(seed in any::<u64>()) {
        let suite = farm_suite();
        let workers = 2 + (seed % 3) as usize;
        let tag = format!("fleet-{seed:016x}");
        let reference = reference_map(&suite, &tag);
        let store = temp_store(&tag);
        let queue = FarmQueue::new(temp_dir(&format!("queue-{tag}")));
        queue.submit(&suite).unwrap();

        let plans = fleet_plans(seed, workers);
        std::thread::scope(|scope| {
            for (w, plan) in plans.iter().enumerate() {
                let (queue, store) = (&queue, &store);
                let opts = WorkerOpts {
                    worker: format!("fleet-{w}"),
                    shard_cells: 1 + (seed as usize >> 3) % 2,
                    ttl: 2 + seed % 4,
                    threads: Some(1),
                    ..WorkerOpts::default()
                };
                scope.spawn(move || {
                    let faulted = match plan {
                        Some(p) => store.clone().with_faults(Arc::new(FaultInjector::new(p.clone()))),
                        None => store.clone(),
                    };
                    // A faulted worker may die (is_kill) — that is the
                    // point; a clean one must not error.
                    match run_worker(queue, &faulted, &opts) {
                        Ok(report) => assert!(report.divergences.is_empty(), "{}", report.summary()),
                        Err(e) => assert!(is_kill(&e) && plan.is_some(), "{e}"),
                    }
                });
            }
        });

        // One final clean sweep: reclaims dead leases, runs stragglers,
        // finalizes if nobody else did.
        let report = run_worker(&queue, &store, &worker("closer")).unwrap();
        prop_assert!(report.divergences.is_empty(), "{}", report.summary());

        prop_assert_eq!(file_map(&store.suite_dir(&suite.digest())), reference);
        prop_assert!(!lease_dir(&store, &suite.digest()).exists());
        prop_assert!(fsck(&store, false).unwrap().clean());
        prop_assert!(queue.status(&store).unwrap().all_finished());

        let _ = std::fs::remove_dir_all(store.root());
        let _ = std::fs::remove_dir_all(queue.root());
    }
}

#[test]
fn worker_cache_stats_tally_hits_on_a_pre_populated_store() {
    // Submit a suite that is already fully stored: the worker's scan
    // counts pure hits, executes nothing, and only finalization remains.
    let suite = farm_suite();
    let store = temp_store("prehit");
    let queue = FarmQueue::new(temp_dir("queue-prehit"));
    run_suite_journaled(&suite, &store, &serial()).unwrap();
    let before = file_map(&store.suite_dir(&suite.digest()));
    queue.submit(&suite).unwrap();

    let report = run_worker(&queue, &store, &worker("idle")).unwrap();
    assert_eq!(report.executed, 0);
    assert!(report.cache.all_hit(), "{}", report.cache.summary());
    assert_eq!(
        report.cache,
        CacheStats {
            hits: suite.expand().unwrap().len() as u64,
            misses: 0,
            rejected: 0
        }
    );
    assert!(report.finalized.is_empty(), "already finished upstream");
    assert_eq!(file_map(&store.suite_dir(&suite.digest())), before);
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

/// Everything a rerun reports that must not depend on its thread count.
#[derive(Debug, PartialEq)]
struct RerunView {
    cache: CacheStats,
    skipped: Vec<usize>,
    executed: Vec<usize>,
    manifest: Vec<u8>,
    cache_metrics: Option<CacheStats>,
    trace: Vec<u8>,
    store: BTreeMap<String, Vec<u8>>,
}

#[test]
fn cached_and_resumed_reruns_agree_at_every_thread_count() {
    // The store checks run on the runner threads, but their verdicts are
    // applied in cell order: tallies, skip lists, manifest, metrics
    // tally and trace are the same at 1, 2 and 4 threads. Each rerun starts from a
    // cold store with one record deleted (a miss) and one corrupted (a
    // rejection); the other cells are hits.
    let suite = committed_suite("smoke");
    let digest = suite.digest();
    let reference = reference_map(&suite, "threads-ref");
    for (mode, cached) in [("resume", false), ("cached", true)] {
        let views: Vec<(usize, RerunView)> = [1, 2, 4]
            .into_iter()
            .map(|threads| {
                let store = temp_store(&format!("threads-{mode}-{threads}"));
                run_suite_journaled(&suite, &store, &serial()).unwrap();
                let manifest = store.read_manifest(&digest).unwrap();
                std::fs::remove_file(store.record_path(&digest, &manifest.cells[2].digest))
                    .unwrap();
                std::fs::write(
                    store.record_path(&digest, &manifest.cells[7].digest),
                    "{\"torn\": ",
                )
                .unwrap();
                let trace = temp_dir(&format!("threads-{mode}-{threads}.jsonl"));
                let opts = JournalOpts {
                    resume: !cached,
                    cached,
                    threads: Some(threads),
                    obs: ObsOpts {
                        trace: Some(trace.clone()),
                        ..ObsOpts::off()
                    },
                    ..JournalOpts::default()
                };
                let done = run_suite_journaled(&suite, &store, &opts).unwrap();
                let view = RerunView {
                    cache: done.cache,
                    skipped: done.skipped,
                    executed: done.executed,
                    manifest: std::fs::read(store.manifest_path(&digest)).unwrap(),
                    cache_metrics: store.read_metrics(&digest).ok().map(|m| cache_counters(&m)),
                    // Executed cells trace their engine events from the
                    // runner threads; only the lab-scope cache verdicts
                    // are ordered across thread counts.
                    trace: std::fs::read_to_string(&trace)
                        .unwrap()
                        .lines()
                        .filter(|l| l.contains("\"kind\":\"cache\""))
                        .flat_map(|l| l.bytes().chain([b'\n']))
                        .collect(),
                    store: file_map(&store.suite_dir(&digest)),
                };
                let _ = std::fs::remove_dir_all(store.root());
                let _ = std::fs::remove_file(&trace);
                (threads, view)
            })
            .collect();
        let (_, first) = &views[0];
        assert_eq!(first.executed, vec![2, 7], "{mode}");
        assert_eq!(first.cache.misses, 1, "{mode}");
        assert_eq!(first.cache.rejected, 1, "{mode}");
        assert_eq!(
            first.cache_metrics,
            cached.then_some(first.cache),
            "{mode}: metrics.json carries the tally"
        );
        assert_eq!(first.trace.iter().filter(|&&b| b == b'\n').count(), 13);
        assert_eq!(first.store, reference, "{mode}: the rerun heals the store");
        for (threads, view) in &views[1..] {
            assert_eq!(view, first, "{mode} at {threads} threads");
        }
    }
}

#[test]
fn two_thread_cached_runs_reject_and_heal_every_corruption_class() {
    let suite = farm_suite();
    let digest = suite.digest();
    let store = temp_store("corrupt-classes");
    run_suite_journaled(&suite, &store, &serial()).unwrap();
    let before = file_map(&store.suite_dir(&digest));
    let manifest = store.read_manifest(&digest).unwrap();
    let path_of = |i: usize| store.record_path(&digest, &manifest.cells[i].digest);
    let original = std::fs::read(path_of(1)).unwrap();

    let corrupt = |class: &str| match class {
        "flipped byte" => {
            let mut bytes = original.clone();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(path_of(1), bytes).unwrap();
        }
        "re-indented valid JSON" => {
            let text = String::from_utf8(original.clone()).unwrap();
            let compact = apex_sim::Json::parse(&text).unwrap().render();
            std::fs::write(path_of(1), compact).unwrap();
        }
        "record copied to another cell's address" => {
            std::fs::copy(path_of(0), path_of(1)).unwrap();
        }
        "manifest checksum mismatch" => {
            let mut pinned = manifest.clone();
            pinned.cells[1].checksum = Some("0000000000000000".into());
            store.write_manifest(&pinned).unwrap();
        }
        other => unreachable!("{other}"),
    };
    let cached = JournalOpts {
        cached: true,
        threads: Some(2),
        ..JournalOpts::default()
    };
    for class in [
        "flipped byte",
        "re-indented valid JSON",
        "record copied to another cell's address",
        "manifest checksum mismatch",
    ] {
        corrupt(class);
        assert_ne!(file_map(&store.suite_dir(&digest)), before, "{class}");
        let done = run_suite_journaled(&suite, &store, &cached).unwrap();
        assert_eq!(done.cache.rejected, 1, "{class}: {}", done.cache.summary());
        assert_eq!(done.cache.misses, 0, "{class}");
        assert_eq!(done.executed, vec![1], "{class}");
        assert_eq!(
            file_map(&store.suite_dir(&digest)),
            before,
            "{class}: healed"
        );
    }
    let _ = std::fs::remove_dir_all(store.root());
}

/// Every manifest row's checksum is the digest of its record file.
fn assert_manifest_pins_disk_bytes(store: &LabStore, digest: &str, when: &str) {
    let manifest = store.read_manifest(digest).unwrap();
    for row in &manifest.cells {
        let bytes = std::fs::read(store.record_path(digest, &row.digest)).unwrap();
        assert_eq!(
            row.checksum.as_deref(),
            Some(digest_hex(&bytes).as_str()),
            "{when}: cell {}",
            row.index
        );
    }
}

#[test]
fn manifest_checksums_pin_the_bytes_on_disk_after_every_run_kind() {
    let suite = farm_suite();
    let digest = suite.digest();
    let store = temp_store("pins");
    let two = |resume, cached| JournalOpts {
        resume,
        cached,
        threads: Some(2),
        ..JournalOpts::default()
    };
    run_suite_journaled(&suite, &store, &two(false, false)).unwrap();
    assert_manifest_pins_disk_bytes(&store, &digest, "cold");
    run_suite_journaled(&suite, &store, &two(false, true)).unwrap();
    assert_manifest_pins_disk_bytes(&store, &digest, "cached");
    let manifest = store.read_manifest(&digest).unwrap();
    std::fs::remove_file(store.record_path(&digest, &manifest.cells[3].digest)).unwrap();
    let resumed = run_suite_journaled(&suite, &store, &two(true, false)).unwrap();
    assert_eq!(resumed.executed, vec![3]);
    assert_manifest_pins_disk_bytes(&store, &digest, "resumed");

    let farm = temp_store("pins-farm");
    let queue = FarmQueue::new(temp_dir("queue-pins"));
    queue.submit(&suite).unwrap();
    let report = run_worker(&queue, &farm, &worker("pinner")).unwrap();
    assert_eq!(report.finalized, vec![digest.clone()]);
    assert_manifest_pins_disk_bytes(&farm, &digest, "farm finalize");
    assert_eq!(
        file_map(&farm.suite_dir(&digest)),
        file_map(&store.suite_dir(&digest))
    );
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(farm.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

/// Plant cell 0's honest record re-rendered with `ticks + 1`: it parses,
/// sits at its own address and is a canonical rendering, so it verifies
/// — but it is not what the cell computes. Returns the planted bytes.
fn plant_divergent_record(store: &LabStore, suite: &Suite) -> String {
    let cell = &suite.expand().unwrap()[0];
    let outcome = RunOutcome::capture(&cell.scenario);
    let record = outcome.record().unwrap();
    let honest = record.render_pretty();
    let ticks = record.report.ticks();
    let planted = honest.replacen(
        &format!("\"ticks\": {ticks}"),
        &format!("\"ticks\": {}", ticks + 1),
        1,
    );
    assert_ne!(planted, honest);
    let digest = suite.digest();
    std::fs::create_dir_all(store.suite_dir(&digest)).unwrap();
    std::fs::write(store.record_path(&digest, &cell.digest), &planted).unwrap();
    assert!(
        matches!(
            store.verify_record(&digest, &cell.digest, None),
            Ok(Some(_))
        ),
        "the planted record must verify"
    );
    planted
}

/// Exactly one divergence, naming cell 0's `ticks` path.
fn assert_one_ticks_divergence(divergences: &[Divergence], suite: &Suite, who: &str) {
    assert_eq!(divergences.len(), 1, "{who}: {divergences:?}");
    let d = &divergences[0];
    assert_eq!(d.suite, suite.digest(), "{who}");
    assert_eq!(d.cell, suite.expand().unwrap()[0].digest, "{who}");
    assert_eq!(d.paths.len(), 1, "{who}: {d}");
    assert!(d.paths[0].contains("ticks"), "{who}: {d}");
}

#[test]
fn a_verified_but_different_record_is_a_divergence_for_both_runners() {
    // No manifest: the planted bytes verify, so both runners keep them,
    // report the disagreement, and pin the kept bytes in the manifest.
    let suite = farm_suite();
    let digest = suite.digest();
    let record0 = |store: &LabStore| {
        std::fs::read_to_string(store.record_path(&digest, &suite.expand().unwrap()[0].digest))
            .unwrap()
    };

    let store = temp_store("diverge-lab");
    let planted = plant_divergent_record(&store, &suite);
    let done = run_suite_journaled(&suite, &store, &serial()).unwrap();
    assert_one_ticks_divergence(&done.divergences, &suite, "suite run");
    assert_eq!(record0(&store), planted, "the stored bytes stay");
    assert_manifest_pins_disk_bytes(&store, &digest, "suite run divergence");
    assert!(fsck(&store, false).unwrap().clean());

    let farm = temp_store("diverge-farm");
    let queue = FarmQueue::new(temp_dir("queue-diverge"));
    queue.submit(&suite).unwrap();
    assert_eq!(plant_divergent_record(&farm, &suite), planted);
    let report = run_worker(&queue, &farm, &worker("witness")).unwrap();
    assert_one_ticks_divergence(&report.divergences, &suite, "farm worker");
    assert_eq!(record0(&farm), planted, "the stored bytes stay");
    assert_manifest_pins_disk_bytes(&farm, &digest, "farm divergence");
    assert!(fsck(&farm, false).unwrap().clean());
    assert_eq!(
        file_map(&farm.suite_dir(&digest)),
        file_map(&store.suite_dir(&digest))
    );
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(farm.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn a_record_the_manifest_does_not_pin_is_rejected_and_healed_by_both_runners() {
    // With a manifest pinning the honest bytes, the planted record fails
    // verification: both runners overwrite it and report nothing.
    let suite = farm_suite();
    let digest = suite.digest();
    let reference = reference_map(&suite, "pinned-ref");

    let store = temp_store("pinned-lab");
    run_suite_journaled(&suite, &store, &serial()).unwrap();
    plant_divergent_record(&store, &suite);
    let done = run_suite_journaled(&suite, &store, &serial()).unwrap();
    assert!(done.divergences.is_empty(), "{:?}", done.divergences);
    assert_eq!(file_map(&store.suite_dir(&digest)), reference, "healed");
    assert!(fsck(&store, false).unwrap().clean());

    // The farm visits a suite with a manifest but no journal (a finished
    // journal would let it skip the suite outright).
    let farm = temp_store("pinned-farm");
    run_suite_journaled(&suite, &farm, &serial()).unwrap();
    std::fs::remove_file(farm.journal_path(&digest)).unwrap();
    plant_divergent_record(&farm, &suite);
    let queue = FarmQueue::new(temp_dir("queue-pinned"));
    queue.submit(&suite).unwrap();
    let report = run_worker(&queue, &farm, &worker("healer")).unwrap();
    assert!(report.divergences.is_empty(), "{}", report.summary());
    assert_eq!(file_map(&farm.suite_dir(&digest)), reference, "healed");
    assert!(fsck(&farm, false).unwrap().clean());
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(farm.root());
    let _ = std::fs::remove_dir_all(queue.root());
}

#[test]
fn an_uncontended_worker_writes_the_serial_golden_journal() {
    // One worker, default shards, one thread: the farm runs cells through
    // the same claimed → run → committed loop as `apex suite run`, so its
    // journal is the pinned serial one once the `by` fields are dropped.
    let suite = committed_suite("adversary");
    let store = temp_store("golden-worker");
    let queue = FarmQueue::new(temp_dir("queue-golden"));
    queue.submit(&suite).unwrap();
    let opts = WorkerOpts {
        worker: "solo".into(),
        threads: Some(1),
        ..WorkerOpts::default()
    };
    let report = run_worker(&queue, &store, &opts).unwrap();
    assert_eq!(report.finalized, vec![suite.digest()]);
    let journal = std::fs::read_to_string(store.journal_path(&suite.digest())).unwrap();
    let stripped: String = journal
        .lines()
        .map(|l| l.replace(",\"by\":\"solo\"", "") + "\n")
        .collect();
    assert_eq!(stripped, include_str!("golden/canonical-journal.jsonl"));
    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(queue.root());
}
