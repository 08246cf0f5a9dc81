//! The committed `BENCH_*.json` throughput artifact.
//!
//! [`BenchDoc`] is a keyed collection of throughput measurements for one
//! suite, accumulated across `apex suite run --bench` invocations (one
//! row per interpreter engine). It is **telemetry, not store identity**:
//! it carries wall-clock timings, so it is never hashed into a content
//! address. The committed artifact is what CI gates regressions against
//! via [`BenchDoc::gate_against`].

use std::path::Path;

use apex_sim::{Json, JsonError};

/// One measured point of a [`BenchDoc`]: how fast one interpreter
/// engine pushed the suite's ticks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchRun {
    /// Scheme-interpreter engine label, `tree` or `bytecode` — the row's
    /// key.
    pub engine: String,
    /// Logical cores available on the measuring host (0 when unknown) —
    /// machine context for reading cross-host artifacts, never part of
    /// the row key or the gate.
    pub host_cores: u64,
    /// Cells executed for this measurement.
    pub cells: u64,
    /// Total machine ticks executed.
    pub ticks: u64,
    /// Wall-clock milliseconds.
    pub elapsed_ms: u64,
    /// Throughput in ticks per second.
    pub ticks_per_sec: u64,
}

impl BenchRun {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("engine".into(), Json::Str(self.engine.clone())),
            ("host_cores".into(), Json::UInt(self.host_cores)),
            ("cells".into(), Json::UInt(self.cells)),
            ("ticks".into(), Json::UInt(self.ticks)),
            ("elapsed_ms".into(), Json::UInt(self.elapsed_ms)),
            ("ticks_per_sec".into(), Json::UInt(self.ticks_per_sec)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        // Older artifacts also carry `exec`/`workers` keys, always
        // `serial`/1 on engine rows; they are ignored. Pre-engine
        // artifacts measured the tree walker on an unrecorded host, so
        // both fields default accordingly.
        Ok(BenchRun {
            engine: match v.get_opt("engine") {
                None | Some(Json::Null) => "tree".to_string(),
                Some(e) => e.as_str()?.to_string(),
            },
            host_cores: match v.get_opt("host_cores") {
                None | Some(Json::Null) => 0,
                Some(x) => x.as_u64()?,
            },
            cells: v.get("cells")?.as_u64()?,
            ticks: v.get("ticks")?.as_u64()?,
            elapsed_ms: v.get("elapsed_ms")?.as_u64()?,
            ticks_per_sec: v.get("ticks_per_sec")?.as_u64()?,
        })
    }
}

/// A suite's throughput measurements, keyed by engine — the committed
/// `BENCH_*.json` artifact and the CI regression baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchDoc {
    /// Suite name.
    pub suite: String,
    /// Digest of the canonical suite document the measurements ran.
    pub digest: String,
    /// Measurements, sorted by engine for a canonical form.
    pub runs: Vec<BenchRun>,
}

impl BenchDoc {
    /// An empty artifact for one suite.
    pub fn new(suite: impl Into<String>, digest: impl Into<String>) -> Self {
        BenchDoc {
            suite: suite.into(),
            digest: digest.into(),
            runs: Vec::new(),
        }
    }

    /// Insert or replace the measurement for `run`'s engine, keeping the
    /// run list sorted.
    pub fn upsert(&mut self, run: BenchRun) {
        self.runs.retain(|r| r.engine != run.engine);
        self.runs.push(run);
        self.runs.sort_by(|a, b| a.engine.cmp(&b.engine));
    }

    /// The measurement for one engine.
    pub fn run(&self, engine: &str) -> Option<&BenchRun> {
        self.runs.iter().find(|r| r.engine == engine)
    }

    /// The bytecode-over-tree interpreter speedup, when the artifact
    /// holds both engine rows (what the program-compile acceptance gate
    /// reads).
    pub fn engine_speedup(&self) -> Option<f64> {
        let tree = self.run("tree")?;
        let bytecode = self.run("bytecode")?;
        (tree.ticks_per_sec > 0).then(|| bytecode.ticks_per_sec as f64 / tree.ticks_per_sec as f64)
    }

    /// Gate this (fresh) artifact against a committed `baseline`: every
    /// engine present in both must be within `tolerance` of the baseline
    /// throughput (`fresh >= baseline * (1 - tolerance)`). Engines only
    /// one side measured are ignored — machines differ; the gate is about
    /// regressions on comparable points.
    pub fn gate_against(&self, baseline: &BenchDoc, tolerance: f64) -> Result<(), String> {
        let mut failures = Vec::new();
        for fresh in &self.runs {
            let Some(base) = baseline.run(&fresh.engine) else {
                continue;
            };
            let floor = base.ticks_per_sec as f64 * (1.0 - tolerance);
            if (fresh.ticks_per_sec as f64) < floor {
                failures.push(format!(
                    "engine {}: {} ticks/s < floor {:.0} (baseline {} - {:.0}% tolerance)",
                    fresh.engine,
                    fresh.ticks_per_sec,
                    floor,
                    base.ticks_per_sec,
                    tolerance * 100.0
                ));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(format!("bench gate failed:\n  {}", failures.join("\n  ")))
        }
    }

    /// Serialize (canonical field order, runs sorted by key).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("suite".into(), Json::Str(self.suite.clone())),
            ("digest".into(), Json::Str(self.digest.clone())),
            (
                "runs".into(),
                Json::Arr(self.runs.iter().map(BenchRun::to_json).collect()),
            ),
        ])
    }

    /// Deserialize a bench artifact.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(BenchDoc {
            suite: v.get("suite")?.as_str()?.to_string(),
            digest: v.get("digest")?.as_str()?.to_string(),
            runs: v
                .get("runs")?
                .as_arr()?
                .iter()
                .map(BenchRun::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Parse a complete artifact.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// The canonical pretty-printed artifact.
    pub fn render_pretty(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Write the artifact to `path` atomically.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        apex_scenario::atomic_write(path, &self.render_pretty())
    }

    /// Load `path` if it exists, else an empty artifact for
    /// `(suite, digest)`. A present file naming a *different* suite
    /// digest is an error — measurements of two different suites must
    /// not be merged into one artifact.
    pub fn load_or_new(path: &Path, suite: &str, digest: &str) -> Result<Self, String> {
        if !path.exists() {
            return Ok(Self::new(suite, digest));
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.digest != digest {
            return Err(format!(
                "{}: artifact measures suite {} but this run is suite {digest}",
                path.display(),
                doc.digest
            ));
        }
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(engine: &str, ticks_per_sec: u64) -> BenchRun {
        BenchRun {
            engine: engine.into(),
            host_cores: 8,
            cells: 4,
            ticks: ticks_per_sec,
            elapsed_ms: 1000,
            ticks_per_sec,
        }
    }

    #[test]
    fn bench_doc_upserts_by_engine_and_round_trips() {
        let mut doc = BenchDoc::new("bench-program", "feedfacefeedface");
        doc.upsert(measured("tree", 100));
        doc.upsert(measured("bytecode", 200));
        doc.upsert(measured("bytecode", 250)); // replaces, not appends
        assert_eq!(doc.runs.len(), 2);
        assert_eq!(doc.runs[0].engine, "bytecode"); // sorted by key
        assert_eq!(doc.run("bytecode").unwrap().ticks_per_sec, 250);
        assert_eq!(doc.engine_speedup(), Some(2.5));
        let back = BenchDoc::parse(&doc.render_pretty()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn legacy_artifacts_parse() {
        // Rows written before the engine fields existed parse as tree
        // measurements on an unrecorded host; `exec`/`workers` keys are
        // ignored.
        let legacy = r#"{"suite":"b","digest":"d","runs":[{"exec":"serial",
            "workers":1,"cells":2,"ticks":10,"elapsed_ms":1,"ticks_per_sec":10000}]}"#;
        let doc = BenchDoc::parse(legacy).unwrap();
        assert_eq!(doc.runs[0].engine, "tree");
        assert_eq!(doc.runs[0].host_cores, 0);
        assert!(doc.run("tree").is_some());
        assert_eq!(doc.engine_speedup(), None);
    }

    #[test]
    fn gate_flags_regressions_within_tolerance() {
        let mut baseline = BenchDoc::new("b", "d");
        baseline.upsert(measured("tree", 1000));
        baseline.upsert(measured("bytecode", 4000));

        let mut fresh = BenchDoc::new("b", "d");
        fresh.upsert(measured("tree", 900));
        fresh.upsert(measured("bytecode", 2300));
        // tree is within 40%, bytecode is not (2300 < 4000 * 0.6).
        let err = fresh.gate_against(&baseline, 0.4).unwrap_err();
        assert!(err.contains("engine bytecode"), "{err}");
        assert!(!err.contains("engine tree"), "{err}");
        // A looser gate passes, and a baseline without the row is ignored.
        fresh.gate_against(&baseline, 0.5).unwrap();
        fresh
            .gate_against(&BenchDoc::new("b", "d"), 0.0)
            .expect("no comparable rows");
    }

    #[test]
    fn load_or_new_rejects_cross_suite_merges() {
        let dir = std::env::temp_dir().join(format!("apex-bench-doc-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_test.json");
        let mut doc = BenchDoc::new("b", "aaaaaaaaaaaaaaaa");
        doc.upsert(measured("tree", 10));
        doc.save(&path).unwrap();
        let loaded = BenchDoc::load_or_new(&path, "b", "aaaaaaaaaaaaaaaa").unwrap();
        assert_eq!(loaded, doc);
        assert!(BenchDoc::load_or_new(&path, "b", "bbbbbbbbbbbbbbbb").is_err());
        let fresh = BenchDoc::load_or_new(&dir.join("absent.json"), "b", "cc").unwrap();
        assert!(fresh.runs.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
