//! Drift detection: a stored suite run is ground truth, and any
//! byte-level difference on re-execution is a real regression.
//!
//! The whole pipeline below the store is deterministic — seeded sources,
//! oblivious schedules, canonical JSON — so the strongest possible check
//! is also the simplest: render the fresh record and `==` the stored
//! bytes. When bytes differ, the parsed JSON trees are diffed to name the
//! paths that moved (verdict, work counters, final memory, …) so a drift
//! report reads like a regression report, not a checksum mismatch.
//!
//! There is one notion of "the same record" in the workspace:
//! `compare_stored` judges a fresh record against the bytes at its
//! address, and both the cell loop's commit rule and
//! [`check_against_store`] call it. Every disagreement — between a
//! re-run and the store, between two stores, or between two runs racing
//! on one cell — is one [`Divergence`].

use apex_obs::Obs;
use apex_scenario::{ReportRecord, RunOutcome};
use apex_sim::Json;

use crate::pool::run_trials;
use crate::runner::run_one;
use crate::store::{LabStore, Rejection, VerifiedRecord};
use crate::suite::{Cell, Suite};

/// How many differing JSON paths one divergence names at most.
const MAX_PATHS: usize = 8;

/// What kind of divergence a cell showed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftKind {
    /// The store has no record at the cell's address (deleted, or the
    /// scenario changed and now hashes elsewhere).
    MissingRecord,
    /// The store holds a record the suite no longer names.
    ExtraRecord,
    /// Stored and fresh record bytes differ.
    RecordDiffers,
    /// The manifest disagrees with the records next to it.
    ManifestMismatch,
}

impl std::fmt::Display for DriftKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DriftKind::MissingRecord => "missing record",
            DriftKind::ExtraRecord => "extra record",
            DriftKind::RecordDiffers => "record differs",
            DriftKind::ManifestMismatch => "manifest mismatch",
        })
    }
}

/// One record that moved: a drift check's finding, a store comparison's,
/// or the commit rule's when a fresh run disagrees with verified bytes
/// already at the cell's address (the stored bytes stay ground truth).
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Digest of the suite the record belongs to.
    pub suite: String,
    /// The cell's scenario digest (its record address); empty for a
    /// divergence of the suite as a whole.
    pub cell: String,
    /// Position in the suite's expansion order, when the cell is named by
    /// the suite (extra records are not).
    pub index: Option<usize>,
    /// Divergence class.
    pub kind: DriftKind,
    /// JSON paths at which the stored and fresh records differ (empty
    /// when the two could not both be read as records).
    pub paths: Vec<String>,
    /// Human-readable detail when no path applies (file errors, rejected
    /// bytes, manifest disagreements).
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = if self.paths.is_empty() {
            self.detail.clone()
        } else {
            self.paths.join("; ")
        };
        let (suite, cell, kind) = (&self.suite, &self.cell, self.kind);
        match self.index {
            _ if cell.is_empty() => write!(f, "suite {suite}: {kind} — {what}"),
            Some(i) => write!(f, "cell {i} ({cell}) of suite {suite}: {kind} — {what}"),
            None => write!(f, "record {cell} of suite {suite}: {kind} — {what}"),
        }
    }
}

/// Outcome of a drift check.
#[derive(Clone, Debug)]
pub struct DriftReport {
    /// Digest of the suite that was checked (for a store comparison, the
    /// two store roots).
    pub suite_digest: String,
    /// Cells compared (suite cells plus extra stored records).
    pub checked: usize,
    /// Cells compared per suite directory, in suite order.
    pub suites: Vec<(String, usize)>,
    /// Every divergence found, in suite and cell order.
    pub divergences: Vec<Divergence>,
}

impl DriftReport {
    /// No divergence anywhere.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Divergences of one kind under one suite.
    pub fn count(&self, suite: &str, kind: DriftKind) -> usize {
        self.divergences
            .iter()
            .filter(|d| d.suite == suite && d.kind == kind)
            .count()
    }

    /// Multi-line human summary.
    pub fn summary(&self) -> String {
        if self.clean() {
            format!(
                "drift: {} cells checked vs {} — no divergence",
                self.checked, self.suite_digest
            )
        } else {
            let mut out = format!(
                "drift: {} cells checked vs {} — {} DIVERGENCES\n",
                self.checked,
                self.suite_digest,
                self.divergences.len()
            );
            for d in &self.divergences {
                out.push_str(&format!("  {d}\n"));
            }
            out.pop();
            out
        }
    }
}

/// What a cell's address holds, judged against a fresh record.
pub(crate) enum Stored {
    /// Verified bytes identical to the fresh rendering.
    Same(VerifiedRecord),
    /// Verified bytes that differ from the fresh rendering, and the
    /// divergence naming the JSON paths that moved.
    Differs(VerifiedRecord, Divergence),
    /// No file at the address.
    Missing,
    /// Bytes at the address that fail [`LabStore::verify_record`].
    Rejected(Rejection),
}

/// The one store comparison: verify the bytes at `cell`'s address
/// (against `pinned`, when given) and compare them with `fresh_text`,
/// the canonical rendering of the freshly run `fresh`. The cell loop's
/// commit rule and [`check_against_store`] both judge records here.
pub(crate) fn compare_stored(
    store: &LabStore,
    suite_digest: &str,
    cell: &Cell,
    pinned: Option<&str>,
    fresh: &ReportRecord,
    fresh_text: &str,
) -> Stored {
    match store.verify_record(suite_digest, &cell.digest, pinned) {
        Ok(None) => Stored::Missing,
        Err(rejection) => Stored::Rejected(rejection),
        Ok(Some(stored)) if stored.text == fresh_text => Stored::Same(stored),
        Ok(Some(stored)) => {
            let divergence = Divergence {
                suite: suite_digest.to_string(),
                cell: cell.digest.clone(),
                index: Some(cell.index),
                kind: DriftKind::RecordDiffers,
                paths: json_diff(&stored.record.to_json(), &fresh.to_json(), MAX_PATHS),
                detail: String::new(),
            };
            Stored::Differs(stored, divergence)
        }
    }
}

/// Judge one freshly run cell against the store: `None` when the stored
/// state is what this run would leave.
fn judge(
    store: &LabStore,
    suite_digest: &str,
    cell: &Cell,
    outcome: &RunOutcome,
) -> Option<Divergence> {
    let path = store.record_path(suite_digest, &cell.digest);
    let found = |kind, detail: String| {
        Some(Divergence {
            suite: suite_digest.to_string(),
            cell: cell.digest.clone(),
            index: Some(cell.index),
            kind,
            paths: Vec::new(),
            detail,
        })
    };
    let Some(record) = outcome.record() else {
        // The fresh run did not complete this cell (exhausted or
        // poisoned). A stored record at its address then *is* drift —
        // the stored run completed where this one cannot. No stored
        // record is the consistent state.
        if !path.exists() {
            return None;
        }
        let detail = format!(
            "stored record exists but the fresh run did not complete ({})",
            outcome.summary()
        );
        return found(DriftKind::RecordDiffers, detail);
    };
    // A present-but-corrupt file is drift of the "differs" kind, and
    // only a genuinely absent file is "missing".
    match compare_stored(
        store,
        suite_digest,
        cell,
        None,
        record,
        &record.render_pretty(),
    ) {
        Stored::Same(_) => None,
        Stored::Differs(_, divergence) => Some(divergence),
        Stored::Missing => found(
            DriftKind::MissingRecord,
            format!("{}: no such file", path.display()),
        ),
        Stored::Rejected(rejection) => found(
            DriftKind::RecordDiffers,
            format!("stored bytes rejected: {rejection}"),
        ),
    }
}

/// Re-run `suite` and compare every fresh record against `store`,
/// byte-for-byte. Cells run on the workspace's thread pool through the
/// cell loop's own `run_one`, each judged by the commit rule's store
/// comparison on the thread that ran it. Also cross-checks the stored
/// manifest and flags stored records the suite no longer names.
pub fn check_against_store(suite: &Suite, store: &LabStore) -> Result<DriftReport, String> {
    let cells = suite.expand()?;
    let suite_digest = suite.digest();
    let manifest = store.read_manifest(&suite_digest).map_err(|e| {
        format!("no stored run for suite {suite_digest} (run `apex suite run` first): {e}")
    })?;
    let obs = Obs::disabled();
    let (expect, found): (Vec<_>, Vec<_>) = run_trials(&cells, |cell| {
        let outcome = run_one(cell, None, None, &obs);
        let divergence = judge(store, &suite_digest, cell, &outcome);
        ((cell.index, outcome.digest(), outcome.ok()), divergence)
    })
    .into_iter()
    .unzip();
    let mut divergences: Vec<Divergence> = found.into_iter().flatten().collect();

    // Stored records the suite no longer names.
    let named: std::collections::HashSet<&str> = cells.iter().map(|c| c.digest.as_str()).collect();
    let mut extra = 0;
    for stored in store.record_digests(&suite_digest)? {
        if !named.contains(stored.as_str()) {
            extra += 1;
            divergences.push(Divergence {
                suite: suite_digest.clone(),
                cell: stored,
                index: None,
                kind: DriftKind::ExtraRecord,
                paths: Vec::new(),
                detail: "present in the store but not in the suite expansion".to_string(),
            });
        }
    }

    // Manifest cross-check: same cells, same order, same verdicts.
    let got: Vec<(usize, String, bool)> = manifest
        .cells
        .iter()
        .map(|c| (c.index, c.digest.clone(), c.ok))
        .collect();
    if expect != got {
        divergences.push(Divergence {
            suite: suite_digest.clone(),
            cell: String::new(),
            index: None,
            kind: DriftKind::ManifestMismatch,
            paths: Vec::new(),
            detail: format!(
                "manifest lists {} cells, fresh run produced {} (or order/verdicts differ)",
                got.len(),
                expect.len()
            ),
        });
    }

    divergences.sort_by_key(|d| (d.index.unwrap_or(usize::MAX), d.cell.clone()));
    let checked = cells.len() + extra;
    Ok(DriftReport {
        suites: vec![(suite_digest.clone(), checked)],
        suite_digest,
        checked,
        divergences,
    })
}

/// Compare two stores (e.g. runs of the same suites under two builds):
/// for every suite directory in either store, every record must exist in
/// both with identical bytes. A cell that left no record in either store
/// (poisoned or exhausted) is consistent, not missing.
pub fn compare_stores(baseline: &LabStore, candidate: &LabStore) -> Result<DriftReport, String> {
    let base_suites = baseline.suite_digests()?;
    let cand_suites = candidate.suite_digests()?;
    let mut suites: Vec<String> = base_suites.iter().chain(&cand_suites).cloned().collect();
    suites.sort();
    suites.dedup();

    let mut divergences = Vec::new();
    let mut per_suite = Vec::with_capacity(suites.len());
    for suite in &suites {
        let in_base = base_suites.contains(suite);
        let base_records = if in_base {
            baseline.record_digests(suite)?
        } else {
            Vec::new()
        };
        let cand_records = if cand_suites.contains(suite) {
            candidate.record_digests(suite)?
        } else {
            Vec::new()
        };
        let found = |cell: &str, kind, paths: Vec<String>, detail: String| Divergence {
            suite: suite.clone(),
            cell: cell.to_string(),
            index: None,
            kind,
            paths,
            detail,
        };
        let mut checked = 0;
        for cell in &base_records {
            checked += 1;
            let base_path = baseline.record_path(suite, cell);
            let base_text = std::fs::read_to_string(&base_path)
                .map_err(|e| format!("{}: {e}", base_path.display()))?;
            let cand_path = candidate.record_path(suite, cell);
            match std::fs::read_to_string(&cand_path) {
                Err(e) => divergences.push(found(
                    cell,
                    DriftKind::MissingRecord,
                    Vec::new(),
                    format!("{}: {e}", cand_path.display()),
                )),
                Ok(cand_text) if cand_text == base_text => {}
                Ok(cand_text) => {
                    let (paths, detail) = match (Json::parse(&base_text), Json::parse(&cand_text)) {
                        (Ok(a), Ok(b)) => (json_diff(&a, &b, MAX_PATHS), String::new()),
                        _ => (Vec::new(), "unparseable record".to_string()),
                    };
                    divergences.push(found(cell, DriftKind::RecordDiffers, paths, detail));
                }
            }
        }
        for cell in cand_records.iter().filter(|c| !base_records.contains(c)) {
            checked += 1;
            let detail = "present in candidate store only".to_string();
            divergences.push(found(cell, DriftKind::ExtraRecord, Vec::new(), detail));
        }
        if !in_base && cand_records.is_empty() {
            checked += 1;
            let detail = "suite present in candidate store only".to_string();
            divergences.push(found("", DriftKind::ExtraRecord, Vec::new(), detail));
        }
        per_suite.push((suite.clone(), checked));
    }
    Ok(DriftReport {
        suite_digest: format!(
            "baseline store {} (candidate {})",
            baseline.root().display(),
            candidate.root().display()
        ),
        checked: per_suite.iter().map(|(_, n)| n).sum(),
        suites: per_suite,
        divergences,
    })
}

/// Paths at which two JSON trees differ, depth-first, capped at `max`
/// entries (the cap keeps a wildly-divergent record's report readable).
pub fn json_diff(a: &Json, b: &Json, max: usize) -> Vec<String> {
    let mut out = Vec::new();
    diff_into(a, b, "", max, &mut out);
    out
}

fn render_short(v: &Json) -> String {
    let text = v.render();
    if text.chars().count() > 40 {
        let head: String = text.chars().take(39).collect();
        format!("{head}…")
    } else {
        text
    }
}

fn diff_into(a: &Json, b: &Json, path: &str, max: usize, out: &mut Vec<String>) {
    if out.len() >= max || a == b {
        return;
    }
    let here = |p: &str| {
        if p.is_empty() {
            "$".to_string()
        } else {
            p.to_string()
        }
    };
    match (a, b) {
        (Json::Obj(fa), Json::Obj(fb)) => {
            for (k, va) in fa {
                let sub = format!("{path}.{k}");
                match fb.iter().find(|(kb, _)| kb == k) {
                    Some((_, vb)) => diff_into(va, vb, &sub, max, out),
                    None => {
                        if out.len() < max {
                            out.push(format!("{} removed", here(&sub)));
                        }
                    }
                }
            }
            for (k, _) in fb {
                if !fa.iter().any(|(ka, _)| ka == k) && out.len() < max {
                    out.push(format!("{}.{k} added", here(path)));
                }
            }
        }
        (Json::Arr(xa), Json::Arr(xb)) => {
            if xa.len() != xb.len() && out.len() < max {
                out.push(format!(
                    "{} length {} != {}",
                    here(path),
                    xa.len(),
                    xb.len()
                ));
            }
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                diff_into(va, vb, &format!("{path}[{i}]"), max, out);
            }
        }
        _ => out.push(format!(
            "{}: {} != {}",
            here(path),
            render_short(a),
            render_short(b)
        )),
    }
}
