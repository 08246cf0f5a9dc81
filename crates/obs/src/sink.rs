//! The pluggable trace sink and the cloneable [`Obs`] handle.
//!
//! [`Obs`] is the one type instrumented code touches. Disabled (the
//! default) it is a `None` behind an `Option` — [`Obs::enabled`] is a
//! single inlined null check and no event is ever constructed, so
//! tracing costs nothing when off. Enabled, events flow through a
//! shared [`TraceSink`]: a buffered file writer for `--trace`, or an
//! in-memory vector for tests and golden-file generation.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::trace::TraceEvent;

/// Where trace events go. Implementations only need to accept events;
/// ordering and sequence numbering are the [`Obs`] handle's job.
pub trait TraceSink: Send {
    /// Accept one event.
    fn record(&mut self, event: &TraceEvent);
    /// Flush any buffered events (called at run boundaries).
    fn flush(&mut self) {}
}

struct ObsInner {
    seq: AtomicU64,
    sink: Mutex<Box<dyn TraceSink>>,
}

/// Cloneable handle instrumented code emits through.
///
/// All clones share one sink and one sequence counter. Sequence
/// numbers (and therefore file line order) are deterministic whenever
/// a single thread emits — which the instrumentation guarantees at
/// `--threads 1`.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// The no-op handle: nothing is constructed, nothing is emitted.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A handle emitting into `sink`.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        Obs {
            inner: Some(Arc::new(ObsInner {
                seq: AtomicU64::new(0),
                sink: Mutex::new(sink),
            })),
        }
    }

    /// A handle appending compact-JSON lines to a new file at `path`
    /// (truncating an existing one — a trace describes one run).
    pub fn to_file(path: &Path) -> std::io::Result<Self> {
        Ok(Self::with_sink(Box::new(FileSink::create(path)?)))
    }

    /// A handle recording into memory, plus the shared buffer to read
    /// the events back from.
    pub fn to_mem() -> (Self, MemEvents) {
        let events = MemEvents::default();
        (Self::with_sink(Box::new(MemSink(events.clone()))), events)
    }

    /// Whether emitting does anything. Instrumentation may use this to
    /// skip argument computation; [`Obs::emit`] checks it anyway.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit one event (no-op when disabled).
    pub fn emit(&self, scope: &str, kind: &str, op: u64, label: &str, fields: &[(&str, u64)]) {
        let Some(inner) = &self.inner else { return };
        let seq = inner.seq.fetch_add(1, Ordering::SeqCst);
        let event = TraceEvent::new(seq, scope, kind, op, label, fields);
        inner
            .sink
            .lock()
            .expect("trace sink poisoned")
            .record(&event);
    }

    /// Flush the sink (no-op when disabled).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.lock().expect("trace sink poisoned").flush();
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// Buffered JSONL file sink (the `--trace FILE` backend).
pub struct FileSink {
    out: std::io::BufWriter<std::fs::File>,
}

impl FileSink {
    /// Create (truncate) the trace file at `path`, creating parent
    /// directories as needed.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(FileSink {
            out: std::io::BufWriter::new(std::fs::File::create(path)?),
        })
    }
}

impl TraceSink for FileSink {
    fn record(&mut self, event: &TraceEvent) {
        // Telemetry: a failed write must never fail the run.
        let _ = writeln!(self.out, "{}", event.to_line());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Shared in-memory event buffer backing [`Obs::to_mem`].
#[derive(Clone, Default)]
pub struct MemEvents(Arc<Mutex<Vec<TraceEvent>>>);

impl MemEvents {
    /// Snapshot of the events recorded so far, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.lock().expect("mem sink poisoned").clone()
    }
}

struct MemSink(MemEvents);

impl TraceSink for MemSink {
    fn record(&mut self, event: &TraceEvent) {
        self.0
             .0
            .lock()
            .expect("mem sink poisoned")
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::read_trace;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        obs.emit("lab", "claim", 0, "", &[]); // must not panic
        obs.flush();
    }

    #[test]
    fn mem_sink_shares_one_sequence_across_clones() {
        let (obs, events) = Obs::to_mem();
        let clone = obs.clone();
        obs.emit("lab", "claim", 0, "cell-a", &[]);
        clone.emit("lab", "commit", 0, "cell-a", &[("ok", 1)]);
        let got = events.events();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, 0);
        assert_eq!(got[1].seq, 1);
        assert_eq!(got[1].field("ok"), Some(1));
    }

    #[test]
    fn file_sink_round_trips_through_the_reader() {
        let dir = std::env::temp_dir().join(format!("apex-obs-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("t.jsonl");
        let obs = Obs::to_file(&path).unwrap();
        obs.emit("lab", "claim", 0, "", &[]);
        obs.emit("lab", "commit", 0, "", &[("ok", 1)]);
        obs.flush();
        let log = read_trace(&path).unwrap();
        assert_eq!(log.events.len(), 2);
        assert!(!log.torn_tail);
        assert_eq!(log.events[1].kind, "commit");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
