//! End-to-end lab store contract over the committed example suite:
//! write → read → byte-identical re-render, a second run produces
//! byte-identical records with a clean drift report, and mutating or
//! deleting a stored record is flagged as drift. A legacy
//! `exec-stats.json` or `cache-stats.json` sidecar is telemetry, never a
//! record.

use apex_lab::{
    check_against_store, fsck, run_suite, DriftKind, LabStore, Suite, CACHE_STATS_FILE,
    EXEC_STATS_FILE, TELEMETRY_FILES,
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

#[test]
fn store_round_trip_is_byte_identical() {
    let suite = smoke_suite();
    let store = temp_store("roundtrip");
    let run = run_suite(&suite).unwrap();
    let manifest = store.write_run(&run).unwrap();
    assert_eq!(run.outcomes.len(), 13);
    assert_eq!(run.records().count(), 13, "every smoke cell completes");
    assert_eq!(run.ok_count(), 13, "every smoke cell verifies clean");
    assert!(run.all_ok(), "{:?}", run.output_mismatches);

    // Read every record back: the parsed record re-renders to exactly the
    // stored bytes, and a full load/save cycle is the identity.
    for cell in &manifest.cells {
        let (text, record) = store.read_record(&suite.digest(), &cell.digest).unwrap();
        assert_eq!(record.render_pretty(), text, "cell {}", cell.index);
        let path = store.record_path(&suite.digest(), &cell.digest);
        let reloaded = ReportRecord::load(&path).unwrap();
        assert_eq!(reloaded.render_pretty(), text);
        assert_eq!(reloaded.digest(), cell.digest);
    }

    // A second, independent run writes byte-identical records.
    let second = temp_store("roundtrip-b");
    second.write_run(&run_suite(&suite).unwrap()).unwrap();
    for cell in &manifest.cells {
        let (a, _) = store.read_record(&suite.digest(), &cell.digest).unwrap();
        let (b, _) = second.read_record(&suite.digest(), &cell.digest).unwrap();
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
    let run = run_suite(&suite).unwrap();
    let manifest = store.write_run(&run).unwrap();

    let report = check_against_store(&suite, &store).unwrap();
    assert!(report.clean(), "{}", report.summary());
    assert_eq!(report.checked, 13);

    // Mutate one record's measured work: flagged as RecordDiffers with
    // the JSON path in the detail.
    let victim = store.record_path(&suite.digest(), &manifest.cells[0].digest);
    let original = std::fs::read_to_string(&victim).unwrap();
    let tampered = original.replacen("\"total_work\": ", "\"total_work\": 9", 1);
    assert_ne!(original, tampered, "the smoke suite records total_work");
    std::fs::write(&victim, &tampered).unwrap();
    let report = check_against_store(&suite, &store).unwrap();
    assert_eq!(report.divergences.len(), 1, "{}", report.summary());
    assert_eq!(report.divergences[0].kind, DriftKind::RecordDiffers);
    assert!(
        report.divergences[0].detail.contains("total_work"),
        "{}",
        report.divergences[0].detail
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

#[test]
fn a_stray_exec_stats_sidecar_is_telemetry_not_a_record() {
    // Older binaries wrote `exec-stats.json` and `cache-stats.json`
    // beside the manifest, and stores may still hold them. fsck counts
    // each as telemetry without parsing it (so even torn bytes are clean
    // and never quarantined), and record listing skips it.
    let suite = smoke_suite();
    let digest = suite.digest();
    let store = temp_store("stray-exec-stats");
    store.write_run(&run_suite(&suite).unwrap()).unwrap();
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
