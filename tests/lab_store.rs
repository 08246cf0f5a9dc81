//! End-to-end lab store contract over the committed example suite:
//! every stored record verifies and re-renders byte-identically, a second
//! run produces byte-identical records with a clean drift report, and
//! mutating or deleting a stored record is flagged as drift — by the
//! re-run check and by the store comparison `apex drift report` renders,
//! under the same suite and cell. A cell that left no record in either
//! store (poisoned by a fault plan) is consistent, not drift. A legacy
//! `exec-stats.json` or `cache-stats.json` sidecar is telemetry, never a
//! record.

use std::sync::Arc;

use apex_lab::{
    check_against_store, compare_stores, fsck, run_suite_journaled, DriftKind, FaultInjector,
    FaultPlan, JournalOpts, LabStore, Suite, SuiteRun, CACHE_STATS_FILE, EXEC_STATS_FILE,
    TELEMETRY_FILES,
};
use apex_scenario::ReportRecord;

fn smoke_suite() -> Suite {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("suites/smoke.json");
    let suite = Suite::load(&path).unwrap();
    suite.validate().unwrap();
    suite
}

fn temp_store(tag: &str) -> LabStore {
    let dir = std::env::temp_dir().join(format!("apex-lab-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    LabStore::new(dir)
}

/// Run `suite` into `store` through the one cell loop, optionally under a
/// fault plan.
fn run_into(suite: &Suite, store: &LabStore, plan: Option<FaultPlan>) -> SuiteRun {
    let store = match plan {
        Some(plan) => store
            .clone()
            .with_faults(Arc::new(FaultInjector::new(plan))),
        None => store.clone(),
    };
    let opts = JournalOpts {
        threads: Some(2),
        ..JournalOpts::default()
    };
    run_suite_journaled(suite, &store, &opts).unwrap().run
}

#[test]
fn store_round_trip_is_byte_identical() {
    let suite = smoke_suite();
    let store = temp_store("roundtrip");
    let run = run_into(&suite, &store, None);
    let manifest = store.read_manifest(&suite.digest()).unwrap();
    assert_eq!(run.outcomes.len(), 13);
    assert_eq!(run.records().count(), 13, "every smoke cell completes");
    assert_eq!(run.ok_count(), 13, "every smoke cell verifies clean");
    assert!(run.all_ok(), "{:?}", run.output_mismatches);

    // Read every record back: it verifies against its manifest pin, the
    // parsed record re-renders to exactly the stored bytes, and a full
    // load/save cycle is the identity.
    for cell in &manifest.cells {
        let pinned = cell.checksum.as_deref();
        let stored = store
            .verify_record(&suite.digest(), &cell.digest, pinned)
            .unwrap()
            .expect("every manifest row names a stored record");
        assert_eq!(
            stored.record.render_pretty(),
            stored.text,
            "cell {}",
            cell.index
        );
        let path = store.record_path(&suite.digest(), &cell.digest);
        let reloaded = ReportRecord::load(&path).unwrap();
        assert_eq!(reloaded.render_pretty(), stored.text);
        assert_eq!(reloaded.digest(), cell.digest);
    }

    // A second, independent run writes byte-identical records.
    let second = temp_store("roundtrip-b");
    run_into(&suite, &second, None);
    for cell in &manifest.cells {
        let a = std::fs::read(store.record_path(&suite.digest(), &cell.digest)).unwrap();
        let b = std::fs::read(second.record_path(&suite.digest(), &cell.digest)).unwrap();
        assert_eq!(a, b, "cell {}", cell.index);
    }
    assert_eq!(
        store.read_manifest(&suite.digest()).unwrap(),
        second.read_manifest(&suite.digest()).unwrap()
    );

    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(second.root());
}

#[test]
fn drift_is_clean_until_a_record_is_mutated_or_deleted() {
    let suite = smoke_suite();
    let store = temp_store("drift");
    run_into(&suite, &store, None);
    let manifest = store.read_manifest(&suite.digest()).unwrap();

    let report = check_against_store(&suite, &store).unwrap();
    assert!(report.clean(), "{}", report.summary());
    assert_eq!(report.checked, 13);

    // Mutate one record's measured work: flagged as RecordDiffers with
    // the JSON path that moved.
    let victim = store.record_path(&suite.digest(), &manifest.cells[0].digest);
    let original = std::fs::read_to_string(&victim).unwrap();
    let tampered = original.replacen("\"total_work\": ", "\"total_work\": 9", 1);
    assert_ne!(original, tampered, "the smoke suite records total_work");
    std::fs::write(&victim, &tampered).unwrap();
    let report = check_against_store(&suite, &store).unwrap();
    assert_eq!(report.divergences.len(), 1, "{}", report.summary());
    assert_eq!(report.divergences[0].kind, DriftKind::RecordDiffers);
    assert!(
        report.divergences[0]
            .paths
            .iter()
            .any(|p| p.contains("total_work")),
        "{}",
        report.divergences[0]
    );

    // Delete it instead: flagged as MissingRecord.
    std::fs::remove_file(&victim).unwrap();
    let report = check_against_store(&suite, &store).unwrap();
    assert_eq!(report.divergences.len(), 1);
    assert_eq!(report.divergences[0].kind, DriftKind::MissingRecord);
    assert_eq!(report.divergences[0].index, Some(0));

    // A mutated *scenario* hashes to a different suite: checking it
    // against this store has no baseline at all.
    let mut edited = suite.clone();
    edited.grids[0].base.seed += 1;
    assert!(check_against_store(&edited, &store).is_err());

    let _ = std::fs::remove_dir_all(store.root());
}

/// Two byte-identical stores of the smoke suite with cell 3 poisoned by
/// the same fault plan.
fn poisoned_pair(tag: &str) -> (Suite, LabStore, LabStore) {
    let suite = smoke_suite();
    let plan = || FaultPlan {
        panic_cells: vec![3],
        ..FaultPlan::default()
    };
    let a = temp_store(&format!("{tag}-a"));
    let b = temp_store(&format!("{tag}-b"));
    for store in [&a, &b] {
        let run = run_into(&suite, store, Some(plan()));
        assert_eq!(run.outcomes[3].status(), "poisoned");
        assert_eq!(run.records().count(), 12);
    }
    (suite, a, b)
}

#[test]
fn a_cell_poisoned_in_both_stores_is_not_drift() {
    let (suite, a, b) = poisoned_pair("poisoned");
    let report = compare_stores(&a, &b).unwrap();
    assert!(report.clean(), "{}", report.summary());
    // The per-suite row `apex drift report` renders: the poisoned cell
    // left no record in either store, so it is neither checked nor
    // missing.
    assert_eq!(report.suites, vec![(suite.digest(), 12)]);
    for kind in [
        DriftKind::RecordDiffers,
        DriftKind::MissingRecord,
        DriftKind::ExtraRecord,
    ] {
        assert_eq!(report.count(&suite.digest(), kind), 0, "{kind}");
    }
    let _ = std::fs::remove_dir_all(a.root());
    let _ = std::fs::remove_dir_all(b.root());
}

#[test]
fn a_tampered_tick_count_is_flagged_by_both_checks_under_one_cell() {
    let (suite, a, b) = poisoned_pair("tampered");
    let digest = suite.digest();
    let cell = &suite.expand().unwrap()[0];
    let victim = b.record_path(&digest, &cell.digest);
    let original = std::fs::read_to_string(&victim).unwrap();
    let ticks = ReportRecord::parse(&original).unwrap().report.ticks();
    let tampered = original.replacen(
        &format!("\"ticks\": {ticks}"),
        &format!("\"ticks\": {}", ticks + 1),
        1,
    );
    assert_ne!(tampered, original);
    std::fs::write(&victim, &tampered).unwrap();

    // The store comparison: one divergence, in the suite's row.
    let compared = compare_stores(&a, &b).unwrap();
    assert_eq!(compared.divergences.len(), 1, "{}", compared.summary());
    assert_eq!(compared.count(&digest, DriftKind::RecordDiffers), 1);
    let by_compare = &compared.divergences[0];

    // The re-run check of the tampered store: the same suite and cell.
    let rerun = check_against_store(&suite, &b).unwrap();
    let by_rerun: Vec<_> = rerun
        .divergences
        .iter()
        .filter(|d| d.kind == DriftKind::RecordDiffers)
        .collect();
    assert_eq!(by_rerun.len(), 1, "{}", rerun.summary());
    for d in [by_compare, by_rerun[0]] {
        assert_eq!(d.suite, digest, "{d}");
        assert_eq!(d.cell, cell.digest, "{d}");
        assert!(d.paths.iter().any(|p| p.contains("ticks")), "{d}");
    }
    assert_eq!(by_rerun[0].index, Some(0));
    let _ = std::fs::remove_dir_all(a.root());
    let _ = std::fs::remove_dir_all(b.root());
}

#[test]
fn a_corrupt_record_differs_and_an_absent_one_is_missing() {
    let suite = smoke_suite();
    let digest = suite.digest();
    let store = temp_store("corrupt-vs-absent");
    run_into(&suite, &store, None);
    let cells = suite.expand().unwrap();
    std::fs::write(store.record_path(&digest, &cells[1].digest), "{\"torn\": ").unwrap();
    std::fs::remove_file(store.record_path(&digest, &cells[4].digest)).unwrap();

    let report = check_against_store(&suite, &store).unwrap();
    let found: Vec<_> = report
        .divergences
        .iter()
        .map(|d| (d.index, d.cell.as_str(), d.kind))
        .collect();
    assert_eq!(
        found,
        vec![
            (Some(1), cells[1].digest.as_str(), DriftKind::RecordDiffers),
            (Some(4), cells[4].digest.as_str(), DriftKind::MissingRecord),
        ],
        "{}",
        report.summary()
    );
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn a_stray_exec_stats_sidecar_is_telemetry_not_a_record() {
    // Older binaries wrote `exec-stats.json` and `cache-stats.json`
    // beside the manifest, and stores may still hold them. fsck counts
    // each as telemetry without parsing it (so even torn bytes are clean
    // and never quarantined), and record listing skips it.
    let suite = smoke_suite();
    let digest = suite.digest();
    let store = temp_store("stray-exec-stats");
    run_into(&suite, &store, None);
    let records = store.record_digests(&digest).unwrap();
    assert_eq!(records.len(), 13);
    let before = fsck(&store, false).unwrap();
    assert!(before.clean(), "{:?}", before.issues);

    for name in [EXEC_STATS_FILE, CACHE_STATS_FILE] {
        assert!(TELEMETRY_FILES.contains(&name));
        let stray = store.suite_dir(&digest).join(name);
        std::fs::write(&stray, "{\"exec\": \"ser").unwrap();
        for repair in [false, true] {
            let report = fsck(&store, repair).unwrap();
            assert!(
                report.clean(),
                "{name} repair={repair}: {:?}",
                report.issues
            );
            assert_eq!(report.files_checked, before.files_checked + 1, "{name}");
        }
        assert!(stray.exists(), "fsck --repair must leave {name} alone");
        assert_eq!(store.record_digests(&digest).unwrap(), records);
        std::fs::remove_file(&stray).unwrap();
    }

    let _ = std::fs::remove_dir_all(store.root());
}
