//! In-memory spans for the traced run.
//!
//! Each span has a name, a start and end (nanoseconds since the run's
//! origin), a parent span and, under a cell, the cell's index. Spans are
//! kept in memory — one [`Recorder`] per thread, sharing the clock
//! origin and the id counter — and written out only when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub cell: Option<usize>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An open span; [`Recorder::end`] closes it.
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    cell: Option<usize>,
    start: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn start(&self) -> u64 {
        self.start
    }
}

pub struct Recorder {
    origin: Instant,
    ids: Arc<AtomicU64>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            ids: Arc::new(AtomicU64::new(ROOT + 1)),
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread: same clock origin, same id space.
    pub fn fork(&self) -> Self {
        Recorder {
            origin: self.origin,
            ids: Arc::clone(&self.ids),
            spans: Vec::new(),
        }
    }

    /// Take another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    pub fn begin(&self, name: &'static str, parent: u64, cell: Option<usize>) -> Open {
        Open {
            // Relaxed: the counter only hands out unique ids.
            id: self.ids.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            cell,
            start: self.now(),
        }
    }

    /// Close `open` now (on any thread's recorder: the clock is shared).
    pub fn end(&mut self, open: Open) {
        let end = self.now();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            cell: open.cell,
            start: open.start,
            end,
        });
    }

    /// Record `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        cell: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, parent, cell);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let cell = s.cell.map_or("null".to_string(), |c| c.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"cell\":{cell},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, s.parent, s.name, s.start, s.end, self_ns[&s.id]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children may overlap when they ran on
/// different threads, so the covered part is the union of their
/// intervals, clipped to the parent's).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.duration() - covered)
        })
        .collect()
}
