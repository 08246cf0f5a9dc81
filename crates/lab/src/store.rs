//! The content-addressed lab results store.
//!
//! Layout (filesystem-backed, no database, diffable by hand):
//!
//! ```text
//! .apex/lab/
//!   <suite-digest>/                 one directory per suite document
//!     manifest.json                 name, digest, per-cell index
//!     journal.jsonl                 write-ahead execution journal
//!     <cell-digest>.json            one ReportRecord per completed cell
//!   quarantine/                     fsck's holding pen (never run over)
//!     <suite-digest>/<file>         corrupt files, moved — not deleted
//! ```
//!
//! Every path component is a content digest: the suite directory is the
//! FNV-1a digest of the canonical suite document, each record file the
//! digest of its canonical scenario document. Re-running the same suite
//! therefore rewrites the same files with the same bytes — anything else
//! is drift. The manifest carries no timestamps for exactly that reason:
//! two runs of one suite must be byte-identical, end to end.
//!
//! **Crash safety.** Every write goes through temp + fsync + rename
//! ([`apex_scenario::atomic_write`]), so a kill at any instant leaves
//! old bytes, new bytes, or a stale `.tmp` sibling — never a torn file
//! at a final path. Transient I/O errors are retried a bounded number of
//! times with *attempt-indexed* backoff (the delay is a pure function of
//! the attempt number, never of wall-clock readings), so a run's
//! fault-handling behavior is as reproducible as its results. A
//! [`FaultInjector`] can be installed to exercise all of this
//! deterministically — see `tests/lab_faults.rs`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use apex_scenario::ReportRecord;
use apex_sim::{Json, JsonError};

use crate::digest_hex;
use crate::fault::{FaultInjector, WriteDirective, KILL_MARKER};
use crate::runner::SuiteRun;

/// Default store root, relative to the working directory.
pub const DEFAULT_STORE_ROOT: &str = ".apex/lab";

/// Name of the quarantine directory under the store root. fsck moves
/// corrupt files here; runs, drift checks, and gc never touch it.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Bounded retry: total attempts per store write (1 initial + 3 retries).
pub const MAX_WRITE_ATTEMPTS: u32 = 4;

/// File name of a per-suite cache-tally sidecar that older binaries
/// wrote. Nothing writes it any more (the tallies land in the unified
/// [`apex_obs::METRICS_FILE`] as `cache.*`), but stores may still hold a
/// copy: fsck counts it as telemetry without parsing it, record listing
/// skips it, and byte-identity comparisons exclude it.
pub const CACHE_STATS_FILE: &str = "cache-stats.json";

/// File name of a per-suite timing sidecar that older binaries wrote.
/// Nothing writes it any more (timing lands in the unified
/// [`apex_obs::METRICS_FILE`]), but stores may still hold a copy: fsck
/// counts it as telemetry without parsing it, record listing skips it,
/// and byte-identity comparisons exclude it.
pub const EXEC_STATS_FILE: &str = "exec-stats.json";

/// Every telemetry sidecar filename a suite directory may carry — the
/// *single* source of truth for byte-identity exclusion lists (CI's
/// `diff -r --exclude=…` flags are generated from this set; tests assert
/// they stay in sync). Telemetry is per-run evidence about *how* a run
/// went, never part of the store's content-addressed identity.
pub const TELEMETRY_FILES: &[&str] = &[
    crate::journal::JOURNAL_FILE,
    CACHE_STATS_FILE,
    EXEC_STATS_FILE,
    apex_obs::METRICS_FILE,
    apex_obs::TRACE_FILE,
];

/// The answer a store gives when asked for one cell's record by digest.
///
/// The cache trusts *only verified bytes*: a file at the right path that
/// fails any verification step is [`Rejected`](CacheLookup::Rejected),
/// never a hit — exactly the resume-verification path, plus the
/// manifest-row checksum when a manifest is supplied.
#[derive(Debug)]
pub enum CacheLookup {
    /// Verified bytes found: the exact file text and the parsed record.
    Hit(String, Box<ReportRecord>),
    /// No file at the cell's content address.
    Miss,
    /// Bytes present but untrustworthy; the reason they failed
    /// verification.
    Rejected(String),
}

/// Which check stored record bytes failed ([`verify_bytes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectKind {
    /// The file exists but could not be read.
    Unreadable,
    /// Not UTF-8, not JSON, or not a record document — a torn or
    /// truncated write, or corruption severe enough to break the syntax.
    Torn,
    /// The embedded scenario does not hash to its stored digest, or the
    /// record sits at an address that is not its own digest.
    DigestMismatch,
    /// The record parses and digest-verifies, but its bytes are not its
    /// canonical rendering (whitespace or field-order tampering).
    NotCanonical,
    /// The bytes do not hash to the checksum a manifest row pinned.
    ChecksumMismatch,
}

/// Why stored record bytes are not trusted: the failed check and what
/// it saw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejection {
    /// The failed check.
    pub kind: RejectKind,
    /// Human-readable detail.
    pub detail: String,
}

impl Rejection {
    fn new(kind: RejectKind, detail: impl Into<String>) -> Self {
        Rejection {
            kind,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

/// The one record check every reader of the store shares — resume, the
/// cache, the commit rule, drift and fsck. `bytes` claim to be the record
/// at address `cell_digest`: they must be UTF-8 JSON that parses as a
/// record (which digest-verifies the embedded scenario), the record's
/// digest must equal `cell_digest`, the bytes must be the record's
/// canonical rendering, and their checksum must equal `pinned` when one
/// is given.
pub fn verify_bytes(
    cell_digest: &str,
    bytes: Vec<u8>,
    pinned: Option<&str>,
) -> Result<VerifiedRecord, Rejection> {
    let text = String::from_utf8(bytes).map_err(|e| {
        Rejection::new(
            RejectKind::Torn,
            format!("not UTF-8 at byte {}", e.utf8_error().valid_up_to()),
        )
    })?;
    let json = Json::parse(&text)
        .map_err(|e| Rejection::new(RejectKind::Torn, format!("not JSON: {e}")))?;
    let record = ReportRecord::from_json(&json).map_err(|e| {
        let kind = if e.msg.contains("digest") {
            RejectKind::DigestMismatch
        } else {
            RejectKind::Torn
        };
        Rejection::new(kind, e.msg)
    })?;
    let digest = record.digest();
    if digest != cell_digest {
        return Err(Rejection::new(
            RejectKind::DigestMismatch,
            format!("record {digest} filed at address {cell_digest}"),
        ));
    }
    if text != record.render_pretty() {
        return Err(Rejection::new(
            RejectKind::NotCanonical,
            "bytes are not the canonical rendering",
        ));
    }
    let checksum = digest_hex(text.as_bytes());
    if let Some(pinned) = pinned {
        if checksum != pinned {
            return Err(Rejection::new(
                RejectKind::ChecksumMismatch,
                format!("file checksum {checksum} != pinned {pinned}"),
            ));
        }
    }
    Ok(VerifiedRecord {
        text,
        record: Box::new(record),
        checksum,
    })
}

/// A stored record that passed every check of [`verify_bytes`].
#[derive(Debug)]
pub struct VerifiedRecord {
    /// The exact file text.
    pub text: String,
    /// The parsed record.
    pub record: Box<ReportRecord>,
    /// FNV-1a digest of `text` — what a manifest row pins.
    pub checksum: String,
}

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// One manifest row: where a cell's record lives and how the run went.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestCell {
    /// Position in the suite's expansion order.
    pub index: usize,
    /// The cell's scenario digest (also the record file stem).
    pub digest: String,
    /// Terminal state: `complete`, `exhausted`, or `poisoned`.
    pub status: String,
    /// Whether the run met its mode's correctness bar (always false for
    /// non-complete cells).
    pub ok: bool,
    /// One-line human summary of the report.
    pub summary: String,
    /// FNV-1a digest of the record file's exact bytes (`None` for cells
    /// with no record — exhausted/poisoned). Computed from the *intended*
    /// bytes at write time, so any later corruption of the file is
    /// detectable by `apex lab fsck`.
    pub checksum: Option<String>,
}

/// The per-suite index the store writes next to the records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Suite name (from the document).
    pub name: String,
    /// Digest of the canonical suite document.
    pub suite_digest: String,
    /// One row per cell, in expansion order.
    pub cells: Vec<ManifestCell>,
}

impl Manifest {
    /// Build the manifest for a completed run: one row per outcome in
    /// expansion order. A row's checksum is the one the run already holds
    /// for the record ([`SuiteRun::checksums`]: the bytes it wrote or
    /// verified); only a record with no known checksum — every record of
    /// a run from [`assemble_run`](crate::assemble_run) — is rendered and
    /// hashed here.
    pub fn from_run(run: &SuiteRun) -> Self {
        Manifest {
            name: run.name.clone(),
            suite_digest: run.suite_digest.clone(),
            cells: run
                .outcomes
                .iter()
                .enumerate()
                .map(|(index, outcome)| ManifestCell {
                    index,
                    digest: outcome.digest(),
                    status: outcome.status().to_string(),
                    ok: outcome.ok(),
                    summary: outcome.summary(),
                    checksum: outcome.record().map(|r| match run.checksums.get(index) {
                        Some(Some(sum)) => sum.clone(),
                        _ => digest_hex(r.render_pretty().as_bytes()),
                    }),
                })
                .collect(),
        }
    }

    /// The checksum pinned for cell `index` with scenario `digest`: the
    /// row at `index` when it names that cell (always, for a manifest of
    /// the same expansion), else the first row with that digest.
    pub fn pinned_checksum(&self, index: usize, digest: &str) -> Option<&str> {
        self.cells
            .get(index)
            .filter(|row| row.digest == digest)
            .or_else(|| self.cells.iter().find(|row| row.digest == digest))
            .and_then(|row| row.checksum.as_deref())
    }

    /// The manifest's core document, without the self-checksum field.
    fn core_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("suite_digest".into(), Json::Str(self.suite_digest.clone())),
            (
                "cells".into(),
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("index".into(), Json::UInt(c.index as u64)),
                                ("digest".into(), Json::Str(c.digest.clone())),
                                ("status".into(), Json::Str(c.status.clone())),
                                ("ok".into(), Json::Bool(c.ok)),
                                ("summary".into(), Json::Str(c.summary.clone())),
                                (
                                    "checksum".into(),
                                    c.checksum
                                        .as_ref()
                                        .map_or(Json::Null, |s| Json::Str(s.clone())),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The manifest's self-checksum: FNV-1a over the compact rendering
    /// of the core document. Emitted as the final `checksum` field and
    /// verified on read, so a bit flip anywhere in a stored manifest —
    /// including one that keeps the JSON well-formed — is detected.
    pub fn self_checksum(&self) -> String {
        digest_hex(self.core_json().render().as_bytes())
    }

    /// Serialize (canonical field order, no timestamps — deterministic).
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut fields) = self.core_json() else {
            unreachable!("core_json renders an object");
        };
        fields.push(("checksum".into(), Json::Str(self.self_checksum())));
        Json::Obj(fields)
    }

    /// Deserialize, verifying the self-checksum when present (manifests
    /// written before the checksum existed are tolerated).
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let manifest = Manifest {
            name: v.get("name")?.as_str()?.to_string(),
            suite_digest: v.get("suite_digest")?.as_str()?.to_string(),
            cells: v
                .get("cells")?
                .as_arr()?
                .iter()
                .map(|c| {
                    Ok(ManifestCell {
                        index: c.get("index")?.as_usize()?,
                        digest: c.get("digest")?.as_str()?.to_string(),
                        status: match c.get_opt("status") {
                            Some(s) => s.as_str()?.to_string(),
                            None => "complete".to_string(),
                        },
                        ok: match c.get("ok")? {
                            Json::Bool(b) => *b,
                            other => return Err(jerr(format!("expected bool ok, got {other:?}"))),
                        },
                        summary: c.get("summary")?.as_str()?.to_string(),
                        checksum: match c.get_opt("checksum") {
                            None | Some(Json::Null) => None,
                            Some(s) => Some(s.as_str()?.to_string()),
                        },
                    })
                })
                .collect::<Result<_, JsonError>>()?,
        };
        if let Some(stored) = v.get_opt("checksum") {
            let stored = stored.as_str()?;
            let actual = manifest.self_checksum();
            if stored != actual {
                return Err(jerr(format!(
                    "manifest checksum {stored:?} does not match its contents (expected \
                     {actual:?}) — the file was corrupted after it was written"
                )));
            }
        }
        Ok(manifest)
    }
}

/// A filesystem-backed store of suite runs.
#[derive(Clone, Debug)]
pub struct LabStore {
    root: PathBuf,
    faults: Option<Arc<FaultInjector>>,
}

impl LabStore {
    /// A store rooted at `root` (created lazily on first write).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        LabStore {
            root: root.into(),
            faults: None,
        }
    }

    /// The store at the default location, [`DEFAULT_STORE_ROOT`].
    pub fn default_location() -> Self {
        Self::new(DEFAULT_STORE_ROOT)
    }

    /// Route every write of this store through `faults` (the test-only
    /// seam for deterministic kill / torn-write / bit-flip injection).
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The installed fault injector, if any.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The quarantine root ([`QUARANTINE_DIR`]) under this store.
    pub fn quarantine_root(&self) -> PathBuf {
        self.root.join(QUARANTINE_DIR)
    }

    /// The directory holding one suite's records.
    pub fn suite_dir(&self, suite_digest: &str) -> PathBuf {
        self.root.join(suite_digest)
    }

    /// The record path for one cell of one suite.
    pub fn record_path(&self, suite_digest: &str, cell_digest: &str) -> PathBuf {
        self.suite_dir(suite_digest)
            .join(format!("{cell_digest}.json"))
    }

    /// The manifest path of one suite.
    pub fn manifest_path(&self, suite_digest: &str) -> PathBuf {
        self.suite_dir(suite_digest).join("manifest.json")
    }

    /// The journal path of one suite.
    pub fn journal_path(&self, suite_digest: &str) -> PathBuf {
        self.suite_dir(suite_digest)
            .join(crate::journal::JOURNAL_FILE)
    }

    /// The unified metrics sidecar path of one suite
    /// ([`apex_obs::METRICS_FILE`]).
    pub fn metrics_path(&self, suite_digest: &str) -> PathBuf {
        self.suite_dir(suite_digest).join(apex_obs::METRICS_FILE)
    }

    /// The trace sidecar path of one suite ([`apex_obs::TRACE_FILE`]).
    pub fn trace_path(&self, suite_digest: &str) -> PathBuf {
        self.suite_dir(suite_digest).join(apex_obs::TRACE_FILE)
    }

    /// Write one suite's unified metrics sidecar durably.
    pub fn write_metrics(
        &self,
        suite_digest: &str,
        metrics: &apex_obs::Metrics,
    ) -> std::io::Result<()> {
        self.write_text(&self.metrics_path(suite_digest), &metrics.render_pretty())
    }

    /// Load one suite's unified metrics sidecar (absent for runs that
    /// never requested telemetry).
    pub fn read_metrics(&self, suite_digest: &str) -> Result<apex_obs::Metrics, String> {
        apex_obs::Metrics::load(&self.metrics_path(suite_digest))
    }

    /// Look up one cell's record by digest, trusting only verified bytes
    /// ([`LabStore::verify_record`], pinned to the first manifest row for
    /// `cell_digest` when `manifest` is supplied — the same invariant
    /// `apex lab fsck` enforces).
    pub fn lookup_record(
        &self,
        suite_digest: &str,
        cell_digest: &str,
        manifest: Option<&Manifest>,
    ) -> CacheLookup {
        let pinned = manifest.and_then(|m| {
            m.cells
                .iter()
                .find(|row| row.digest == cell_digest)
                .and_then(|row| row.checksum.as_deref())
        });
        match self.verify_record(suite_digest, cell_digest, pinned) {
            Ok(Some(v)) => CacheLookup::Hit(v.text, v.record),
            Ok(None) => CacheLookup::Miss,
            Err(reason) => CacheLookup::Rejected(reason.to_string()),
        }
    }

    /// Verify one cell's stored record in a single pass
    /// ([`verify_bytes`] over the file at the cell's address). `Ok(None)`
    /// is a miss (no file at the address), `Err` a rejection naming the
    /// failed check.
    pub fn verify_record(
        &self,
        suite_digest: &str,
        cell_digest: &str,
        pinned: Option<&str>,
    ) -> Result<Option<VerifiedRecord>, Rejection> {
        let bytes = match std::fs::read(self.record_path(suite_digest, cell_digest)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(Rejection::new(RejectKind::Unreadable, e.to_string())),
        };
        verify_bytes(cell_digest, bytes, pinned).map(Some)
    }

    /// Cross-suite cache lookup: find a verified record for
    /// `cell_digest` under *any* suite in the store (sorted suite order,
    /// first verified hit wins). Each candidate is checked against its
    /// suite's manifest when that manifest loads. This is what
    /// `apex farm query` and `apex run --cached` answer from.
    pub fn find_record(&self, cell_digest: &str) -> Option<(String, String, Box<ReportRecord>)> {
        for suite in self.suite_digests().ok()? {
            let manifest = self.read_manifest(&suite).ok();
            if let CacheLookup::Hit(text, record) =
                self.lookup_record(&suite, cell_digest, manifest.as_ref())
            {
                return Some((suite, text, record));
            }
        }
        None
    }

    /// Write `text` to `path` atomically, retrying transient I/O errors
    /// up to [`MAX_WRITE_ATTEMPTS`] times with attempt-indexed backoff
    /// (attempt *a* sleeps *a²* ms — a pure function of the attempt
    /// number, so retry behavior is deterministic). Errors carrying
    /// [`KILL_MARKER`] are fatal and never retried: a dead process
    /// cannot try again.
    ///
    /// Every attempt first creates `path`'s parent directory, so a
    /// directory removed by a concurrent cleanup (a farm worker
    /// reclaiming `leases/`) between two writes — or between two attempts
    /// of one write — is recreated instead of failing the write. One
    /// call is one store write for a fault plan, however many attempts
    /// or directories it takes.
    pub fn write_text(&self, path: &Path, text: &str) -> std::io::Result<()> {
        let write_idx = self.faults.as_ref().map(|f| f.next_store_write());
        let mut last_err = None;
        for attempt in 0..MAX_WRITE_ATTEMPTS {
            let directive = match (&self.faults, write_idx) {
                (Some(f), Some(i)) => {
                    if f.killed() {
                        return Err(std::io::Error::other(format!(
                            "{KILL_MARKER} (process already dead)"
                        )));
                    }
                    f.directive(i, attempt)
                }
                _ => WriteDirective::Proceed,
            };
            let parent = path.parent().map_or(Ok(()), std::fs::create_dir_all);
            let result = match directive {
                _ if parent.is_err() => parent,
                WriteDirective::Proceed => apex_scenario::atomic_write(path, text),
                WriteDirective::Flip { byte, mask } => {
                    // Silent corruption: the write "succeeds" with one
                    // byte XORed — only integrity checking can tell.
                    let mut bytes = text.as_bytes().to_vec();
                    if !bytes.is_empty() {
                        let i = byte.min(bytes.len() - 1);
                        bytes[i] ^= mask;
                    }
                    atomic_write_bytes(path, &bytes)
                }
                WriteDirective::Torn(keep) => {
                    // A torn write lands a prefix at the *final* path
                    // (simulating a crash without atomic-write
                    // discipline), then the process dies.
                    let keep = keep.min(text.len());
                    std::fs::write(path, &text.as_bytes()[..keep])?;
                    if let Some(f) = &self.faults {
                        f.kill();
                    }
                    return Err(std::io::Error::other(format!(
                        "{KILL_MARKER} after torn write of {}",
                        path.display()
                    )));
                }
                WriteDirective::Transient => Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    format!("injected fault: transient write error (attempt {attempt})"),
                )),
            };
            match result {
                Ok(()) => return Ok(()),
                Err(e) if e.to_string().contains(KILL_MARKER) => return Err(e),
                Err(e) => {
                    last_err = Some(e);
                    if attempt + 1 < MAX_WRITE_ATTEMPTS {
                        // Attempt-indexed, bounded, wall-clock-free
                        // backoff: 1 ms, 4 ms, 9 ms.
                        let ms = u64::from(attempt + 1) * u64::from(attempt + 1);
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                }
            }
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("write failed with no error")))
    }

    /// Write one suite manifest durably.
    pub fn write_manifest(&self, manifest: &Manifest) -> std::io::Result<()> {
        self.write_text(
            &self.manifest_path(&manifest.suite_digest),
            &manifest.to_json().render_pretty(),
        )
    }

    /// Load one suite's manifest (verifying its self-checksum).
    pub fn read_manifest(&self, suite_digest: &str) -> Result<Manifest, String> {
        let path = self.manifest_path(suite_digest);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Manifest::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The suite digests present in this store (sorted, for deterministic
    /// iteration). The quarantine directory is not a suite and is never
    /// listed.
    pub fn suite_digests(&self) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        let entries =
            std::fs::read_dir(&self.root).map_err(|e| format!("{}: {e}", self.root.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", self.root.display()))?;
            if entry.path().is_dir() {
                if let Some(name) = entry.file_name().to_str() {
                    if name != QUARANTINE_DIR {
                        out.push(name.to_string());
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// The record digests present under one suite directory (sorted; the
    /// manifest, the metrics sidecars, and a legacy [`CACHE_STATS_FILE`]
    /// or [`EXEC_STATS_FILE`] are excluded, and the `.jsonl` journal and
    /// trace never match). Used to detect records a suite no longer
    /// names.
    pub fn record_digests(&self, suite_digest: &str) -> Result<Vec<String>, String> {
        let dir = self.suite_dir(suite_digest);
        let mut out = Vec::new();
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = entry.path();
            if path.is_dir() {
                continue;
            }
            if path.extension().is_some_and(|e| e == "json") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    if stem != "manifest"
                        && stem != "cache-stats"
                        && stem != "exec-stats"
                        && !stem.starts_with("metrics")
                    {
                        out.push(stem.to_string());
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

/// Byte-level sibling of [`apex_scenario::atomic_write`] (bit-flip
/// injection can produce non-UTF-8 content, which must still be written
/// with full temp + fsync + rename discipline).
fn atomic_write_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| std::io::Error::other(format!("{}: no file name", path.display())))?;
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}
