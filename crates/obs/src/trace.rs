//! Operation-indexed trace events and their versioned JSONL codec.
//!
//! A trace file is one compact-JSON object per line, exactly the
//! journal's conventions (`crates/lab/src/journal.rs`): every line is
//! versioned and self-contained, appends are whole lines, and a reader
//! tolerates a torn **final** line only. Events are indexed by an
//! *operation clock* (`op`) — a tick count, a window index, a cell
//! index, a journal length — never by wall-clock time, so a trace of a
//! deterministic run is itself deterministic (byte-for-byte at
//! `--threads 1`, where a single coordinator emits every event).

use std::path::Path;

use apex_sim::{Json, JsonError};

/// File name convention for a suite run's trace inside a store
/// directory (callers may also point `--trace` anywhere else).
pub const TRACE_FILE: &str = "trace.jsonl";

/// Major version stamped on every trace line (mismatches are rejected).
pub const TRACE_FORMAT_MAJOR: u64 = 1;

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// One operation-indexed telemetry event.
///
/// The payload is deliberately flat and numeric: a `scope` naming the
/// emitting plane (`engine`, `compile`, `lab`, `farm`), a `kind` naming
/// the seam (`block`, `lower`, `commit`, `cache-hit`, …), the
/// operation-clock index `op`, an optional string `label` (cell
/// digest, adversary description, worker name), and sorted named
/// `u64` fields. Everything a span needs is expressible as fields
/// (`ticks`, `work`, `writes`, …) anchored at `op`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Emission sequence number within one sink (0-based).
    pub seq: u64,
    /// Emitting plane: `engine`, `compile`, `lab`, or `farm`.
    pub scope: String,
    /// Event kind within the scope (e.g. `block`, `claim`).
    pub kind: String,
    /// Operation-clock index: ticks for `engine`, 0 for `compile`, cell
    /// index for `lab`, journal length for `farm`.
    pub op: u64,
    /// Free-form context label; empty means none (omitted on the wire).
    pub label: String,
    /// Named numeric payload, sorted by name (canonical form).
    pub fields: Vec<(String, u64)>,
}

impl TraceEvent {
    /// Build an event with `fields` sorted into canonical order.
    pub fn new(
        seq: u64,
        scope: impl Into<String>,
        kind: impl Into<String>,
        op: u64,
        label: impl Into<String>,
        fields: &[(&str, u64)],
    ) -> Self {
        let mut fields: Vec<(String, u64)> =
            fields.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        fields.sort();
        TraceEvent {
            seq,
            scope: scope.into(),
            kind: kind.into(),
            op,
            label: label.into(),
            fields,
        }
    }

    /// The value of one named field, if present.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields
            .iter()
            .find_map(|(k, v)| (k == name).then_some(*v))
    }

    /// Serialize to one compact-JSON trace line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut obj = vec![
            ("v".to_string(), Json::UInt(TRACE_FORMAT_MAJOR)),
            ("kind".to_string(), Json::Str(self.kind.clone())),
            ("seq".to_string(), Json::UInt(self.seq)),
            ("scope".to_string(), Json::Str(self.scope.clone())),
            ("op".to_string(), Json::UInt(self.op)),
        ];
        if !self.label.is_empty() {
            obj.push(("label".into(), Json::Str(self.label.clone())));
        }
        if !self.fields.is_empty() {
            obj.push((
                "fields".into(),
                Json::Obj(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ));
        }
        Json::Obj(obj).render()
    }

    /// Parse one trace line.
    pub fn parse_line(line: &str) -> Result<Self, JsonError> {
        let v = Json::parse(line)?;
        let version = v.get("v")?.as_u64()?;
        if version != TRACE_FORMAT_MAJOR {
            return Err(jerr(format!(
                "unsupported trace version {version} (this build reads {TRACE_FORMAT_MAJOR})"
            )));
        }
        let fields = match v.get_opt("fields") {
            None => Vec::new(),
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, fv)| Ok((k.clone(), fv.as_u64()?)))
                .collect::<Result<Vec<_>, JsonError>>()?,
            Some(other) => return Err(jerr(format!("expected fields object, got {other:?}"))),
        };
        Ok(TraceEvent {
            seq: v.get("seq")?.as_u64()?,
            scope: v.get("scope")?.as_str()?.to_string(),
            kind: v.get("kind")?.as_str()?.to_string(),
            op: v.get("op")?.as_u64()?,
            label: match v.get_opt("label") {
                Some(l) => l.as_str()?.to_string(),
                None => String::new(),
            },
            fields,
        })
    }
}

/// A replayed trace file.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// Every event, in file order.
    pub events: Vec<TraceEvent>,
    /// Whether the final line was torn (unparseable — tolerated, like
    /// the journal's torn tail).
    pub torn_tail: bool,
}

/// Read and parse a trace file. A torn **final** line is tolerated
/// (`torn_tail` is set); a corrupt line anywhere else is an error.
pub fn read_trace(path: &Path) -> Result<TraceLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut log = TraceLog::default();
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match TraceEvent::parse_line(line) {
            Ok(event) => log.events.push(event),
            Err(_) if i + 1 == lines.len() => log.torn_tail = true,
            Err(e) => {
                return Err(format!(
                    "{}:{}: corrupt trace line: {e}",
                    path.display(),
                    i + 1
                ))
            }
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::new(0, "lab", "claim", 0, "aaaaaaaaaaaaaaaa", &[]),
            TraceEvent::new(
                1,
                "compile",
                "lower",
                0,
                "coin-sum",
                &[("slots", 64), ("steps", 4)],
            ),
            TraceEvent::new(2, "engine", "block", 512, "uniform", &[("ticks", 256)]),
        ]
    }

    #[test]
    fn events_round_trip_through_lines() {
        for event in sample() {
            let line = event.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(TraceEvent::parse_line(&line).unwrap(), event);
        }
    }

    #[test]
    fn fields_are_canonically_sorted() {
        let e = TraceEvent::new(0, "engine", "block", 1, "", &[("z", 1), ("a", 2)]);
        assert_eq!(e.fields[0].0, "a");
        assert_eq!(e.field("z"), Some(1));
        assert_eq!(e.field("missing"), None);
    }

    #[test]
    fn version_gate_rejects_future_traces() {
        let line = sample()[0].to_line().replace("\"v\":1", "\"v\":9");
        assert!(TraceEvent::parse_line(&line).is_err());
    }

    #[test]
    fn torn_tail_is_tolerated_inner_corruption_is_not() {
        let dir = std::env::temp_dir().join(format!("apex-obs-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(TRACE_FILE);
        let mut text = String::new();
        for e in sample() {
            text.push_str(&e.to_line());
            text.push('\n');
        }
        text.push_str("{\"v\":1,\"kind\":\"blo");
        std::fs::write(&path, &text).unwrap();
        let log = read_trace(&path).unwrap();
        assert!(log.torn_tail);
        assert_eq!(log.events, sample());

        let broken = text.replacen("\"kind\":\"lower\"", "\"kind\":\"lo", 1);
        std::fs::write(&path, broken).unwrap();
        assert!(read_trace(&path).unwrap_err().contains("corrupt trace"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
