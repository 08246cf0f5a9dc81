//! The traced run: the same cells the `apex suite run` child executes,
//! driven through each layer's public functions with a span around every
//! call, so the per-layer numbers come from the benchmark's own files and
//! the program carries no tracing of its own.
//!
//! The cold pass follows `apex_lab::run_suite_journaled` step for step —
//! load and expand, a `started` journal line, per cell `claimed` → run →
//! record write → `committed`, the manifest, a `finished` line — with the
//! journal and the store written from one coordinator thread while up to
//! `threads` workers run cells. `run.py` checks that the store it leaves
//! is byte-identical to the store the product writes for the same suite.

use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use apex_lab::{
    assemble_run, digest_hex, next_finish_seq, CacheLookup, Cell, Journal, JournalEntry, LabStore,
    Manifest, Suite, SuiteRun,
};
use apex_scenario::{
    AgreementRunReport, Mode, ProgramEngine, ReportRecord, RunOutcome, Scenario, ScenarioReport,
};
use apex_scheme::{SchemeRun, SchemeRunConfig};
use apex_sim::{MachineBuilder, ProcId, DEFAULT_BATCH};

use crate::spans::{self_times, Open, Recorder, Span, ROOT};

/// What one traced run is asked to do.
pub struct TraceOpts<'a> {
    pub suite: &'a Path,
    pub store: &'a Path,
    pub threads: usize,
    pub engine: Option<ProgramEngine>,
}

/// One cell's result as a worker hands it to the coordinator.
struct CellOut {
    outcome: RunOutcome,
    /// The rendered record (what the store writes), when the cell completed.
    text: Option<String>,
    /// Bytecode slots, when the cell was lowered.
    slots: Option<u64>,
}

/// What the cold pass measured besides its spans.
#[derive(Default)]
pub struct Done {
    /// Bytes of each record written.
    pub record_bytes: Vec<u64>,
    /// Bytecode slots of each lowered cell.
    pub slots: Vec<u64>,
    /// Wall time of the whole cold pass.
    pub cold_ns: u64,
}

/// Everything the metrics are computed from.
pub struct Traced {
    pub rec: Recorder,
    pub run: SuiteRun,
    pub cells: Vec<Cell>,
    pub cold: Done,
    pub hits: u64,
    pub misses: u64,
    pub rejected: u64,
}

fn load_and_expand(path: &Path) -> Result<(Suite, Vec<Cell>, String), String> {
    let suite = Suite::load(path)?;
    let cells = suite.expand()?;
    let digest = suite.digest();
    Ok((suite, cells, digest))
}

/// Assemble a scheme-mode cell on `engine`, as `Scenario::build_scheme_obs`
/// does, with the bytecode lowering timed as its own `bc.compile` span.
fn assemble_scheme(
    rec: &mut Recorder,
    s: &Scenario,
    engine: ProgramEngine,
    parent: u64,
    cell: Option<usize>,
    slots: &mut Option<u64>,
) -> SchemeRun {
    let Mode::Scheme {
        scheme,
        program,
        replicas,
    } = &s.mode
    else {
        unreachable!("called on scheme-mode cells only");
    };
    let program = program
        .resolve()
        .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
    let mut cfg = SchemeRunConfig::new(*scheme, s.seed).schedule(s.schedule.clone());
    cfg.k = *replicas;
    cfg.agreement = s.agreement;
    cfg.batch = s.engine.batch;
    cfg.tick_budget = s.engine.tick_budget;
    match engine {
        ProgramEngine::Tree => SchemeRun::new(program, cfg),
        ProgramEngine::Bytecode => SchemeRun::new_with_factory(program, cfg, |parts| {
            let compiled = rec.time("bc.compile", parent, cell, || apex_bc::compile(parts));
            *slots = Some(compiled.stats().slots);
            apex_bc::factory_of(Rc::new(compiled), parts)
        }),
    }
}

/// Validate, assemble, run and render one cell under `catch_unwind`,
/// classified exactly as the product classifies it.
fn run_cell(
    rec: &mut Recorder,
    cell: &Cell,
    engine: Option<ProgramEngine>,
    cell_span: u64,
) -> CellOut {
    let at = Some(cell.index);
    let mut text = None;
    let mut slots = None;
    let outcome = RunOutcome::capture_with(&cell.scenario, |s| {
        rec.time("scenario.validate", cell_span, at, || s.validate())
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
        let report = match &s.mode {
            Mode::Scheme { .. } => {
                let engine = engine.unwrap_or(s.engine.program_engine);
                let open = rec.begin("scenario.assemble", cell_span, at);
                let run = assemble_scheme(rec, s, engine, open.id(), at, &mut slots);
                rec.end(open);
                ScenarioReport::Scheme(rec.time("scheme.run", cell_span, at, || run.run()))
            }
            Mode::Agreement { phases, .. } => {
                let mut run = rec.time("scenario.assemble", cell_span, at, || s.build_agreement());
                let outcomes = rec.time("core.agreement_run", cell_span, at, || {
                    run.run_phases(*phases)
                });
                ScenarioReport::Agreement(AgreementRunReport {
                    outcomes,
                    ticks: run.machine().ticks(),
                    stability_violations: run.stability_violations(),
                })
            }
            Mode::Kernel { .. } => panic!("kernel-mode cells are not benchmarked"),
        };
        rec.time("scenario.record_render", cell_span, at, || {
            let record = ReportRecord::from_run(s.clone(), report);
            let rendered = record.render_pretty();
            // The checksum `LabStore::write_record` computes beside the bytes.
            std::hint::black_box(digest_hex(rendered.as_bytes()));
            text = Some(rendered);
            record
        })
    });
    CellOut {
        outcome,
        text,
        slots,
    }
}

/// The coordinator's half of a cell: record file, then the terminal
/// journal line.
fn commit(
    rec: &mut Recorder,
    store: &LabStore,
    journal: &Journal,
    suite_digest: &str,
    cell: &Cell,
    out: &CellOut,
    cell_span: u64,
) -> Result<(), String> {
    let at = Some(cell.index);
    let entry = match (out.outcome.record(), &out.text) {
        (Some(_), Some(text)) => {
            rec.time("lab.record_write", cell_span, at, || {
                store.write_text(&store.record_path(suite_digest, &cell.digest), text)
            })
            .map_err(|e| format!("record write failed: {e}"))?;
            JournalEntry::Committed {
                index: cell.index as u64,
                cell: cell.digest.clone(),
                ok: out.outcome.ok(),
                by: String::new(),
            }
        }
        _ => JournalEntry::Poisoned {
            index: cell.index as u64,
            cell: cell.digest.clone(),
            status: out.outcome.status().to_string(),
            message: match &out.outcome {
                RunOutcome::Exhausted { message, .. } | RunOutcome::Poisoned { message, .. } => {
                    message.clone()
                }
                RunOutcome::Complete(_) => "completed without a rendered record".into(),
            },
            by: String::new(),
        },
    };
    rec.time("lab.journal_append", cell_span, at, || {
        journal.append(&entry)
    })
    .map_err(|e| format!("journal append failed: {e}"))
}

fn claimed(cell: &Cell) -> JournalEntry {
    JournalEntry::Claimed {
        index: cell.index as u64,
        cell: cell.digest.clone(),
    }
}

/// The cold pass into an empty store.
fn cold_pass(
    rec: &mut Recorder,
    opts: &TraceOpts<'_>,
    workload: u64,
) -> Result<(SuiteRun, Vec<Cell>, Done), String> {
    let pass = rec.begin("pass.cold", workload, None);
    let pid = pass.id();
    let (suite, cells, digest) =
        rec.time("lab.expand", pid, None, || load_and_expand(opts.suite))?;
    let store = LabStore::new(opts.store);
    let dir = store.suite_dir(&digest);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let journal = Journal::new(store.journal_path(&digest));
    let jerr = |e: std::io::Error| format!("journal append failed: {e}");
    rec.time("lab.journal_append", pid, None, || {
        journal.append(&JournalEntry::Started {
            suite: digest.clone(),
            name: suite.name.clone(),
            cells: cells.len() as u64,
            resumed: false,
        })
    })
    .map_err(jerr)?;

    let mut slots: Vec<Option<CellOut>> = (0..cells.len()).map(|_| None).collect();
    let threads = opts.threads.clamp(1, cells.len().max(1));
    if threads == 1 {
        for cell in &cells {
            let cell_span = rec.begin("cell", pid, Some(cell.index));
            let cid = cell_span.id();
            rec.time("lab.journal_append", cid, Some(cell.index), || {
                journal.append(&claimed(cell))
            })
            .map_err(jerr)?;
            let out = run_cell(rec, cell, opts.engine, cid);
            commit(rec, &store, &journal, &digest, cell, &out, cid)?;
            rec.end(cell_span);
            slots[cell.index] = Some(out);
        }
    } else {
        enum Msg {
            Claimed(usize, u64),
            Done(usize, Box<CellOut>, Open),
        }
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<Msg>();
        let result: Result<Vec<Recorder>, String> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    let tx = tx.clone();
                    let (cursor, cells) = (&cursor, &cells);
                    let mut wrec = rec.fork();
                    let engine = opts.engine;
                    scope.spawn(move || {
                        loop {
                            // Relaxed: the counter only hands out cells.
                            let k = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(cell) = cells.get(k) else { break };
                            let cell_span = wrec.begin("cell", pid, Some(cell.index));
                            if tx.send(Msg::Claimed(k, cell_span.id())).is_err() {
                                break;
                            }
                            let out = run_cell(&mut wrec, cell, engine, cell_span.id());
                            if tx.send(Msg::Done(k, Box::new(out), cell_span)).is_err() {
                                break;
                            }
                        }
                        wrec
                    })
                })
                .collect();
            drop(tx);
            let mut first_err = None;
            for msg in rx {
                if first_err.is_some() {
                    continue;
                }
                let step = match msg {
                    Msg::Claimed(k, cid) => rec
                        .time("lab.journal_append", cid, Some(k), || {
                            journal.append(&claimed(&cells[k]))
                        })
                        .map_err(jerr),
                    Msg::Done(k, out, cell_span) => {
                        let cid = cell_span.id();
                        let step = commit(rec, &store, &journal, &digest, &cells[k], &out, cid);
                        rec.end(cell_span);
                        slots[k] = Some(*out);
                        step
                    }
                };
                if let Err(e) = step {
                    cursor.store(cells.len(), Ordering::Relaxed);
                    first_err = Some(e);
                }
            }
            let recs = workers
                .into_iter()
                .map(|w| w.join().expect("traced worker panicked outside a cell"))
                .collect();
            first_err.map_or(Ok(recs), Err)
        });
        for wrec in result? {
            rec.absorb(wrec);
        }
    }

    let mut outcomes = Vec::with_capacity(cells.len());
    let mut done = Done::default();
    for (i, out) in slots.into_iter().enumerate() {
        let out = out.ok_or_else(|| format!("cell {i} never reached a terminal state"))?;
        done.record_bytes.extend(out.text.map(|t| t.len() as u64));
        done.slots.extend(out.slots);
        outcomes.push(out.outcome);
    }
    let run = assemble_run(&suite, &cells, outcomes);
    rec.time("lab.manifest_write", pid, None, || {
        store.write_manifest(&Manifest::from_run(&run))
    })
    .map_err(|e| format!("manifest write failed: {e}"))?;
    rec.time("lab.journal_append", pid, None, || {
        journal.append(&JournalEntry::Finished {
            ok: run.all_ok(),
            seq: next_finish_seq(&store),
        })
    })
    .map_err(jerr)?;
    done.cold_ns = rec.now() - pass.start();
    rec.end(pass);
    Ok((run, cells, done))
}

/// The cached pass over the store the cold pass wrote: every cell is
/// looked up through the store's verified-bytes cache path.
fn cached_pass(
    rec: &mut Recorder,
    opts: &TraceOpts<'_>,
    workload: u64,
) -> Result<(u64, u64, u64, Vec<String>), String> {
    let pass = rec.begin("pass.cached", workload, None);
    let pid = pass.id();
    let (_, cells, digest) = rec.time("lab.expand", pid, None, || load_and_expand(opts.suite))?;
    let store = LabStore::new(opts.store);
    let manifest = rec.time("lab.manifest_read", pid, None, || {
        store.read_manifest(&digest).ok()
    });
    let (mut hits, mut misses, mut rejected) = (0, 0, 0);
    let mut texts = Vec::with_capacity(cells.len());
    for cell in &cells {
        match rec.time("lab.lookup", pid, Some(cell.index), || {
            store.lookup_record(&digest, &cell.digest, manifest.as_ref())
        }) {
            CacheLookup::Hit(text, _) => {
                hits += 1;
                texts.push(text);
            }
            CacheLookup::Miss => misses += 1,
            CacheLookup::Rejected(_) => rejected += 1,
        }
    }
    rec.end(pass);
    Ok((hits, misses, rejected, texts))
}

/// Run the traced cold and cached passes, then the parse and `sim`
/// probes. Spans stay in memory until the caller writes them out.
pub fn trace(opts: &TraceOpts<'_>) -> Result<Traced, String> {
    let mut rec = Recorder::new();
    let workload = rec.begin("workload", ROOT, None);
    let wid = workload.id();
    let (run, cells, cold) = cold_pass(&mut rec, opts, wid)?;
    let (hits, misses, rejected, texts) = cached_pass(&mut rec, opts, wid)?;
    rec.end(workload);

    // Probes: standalone calls into one layer each, outside the passes.
    let probe = rec.begin("probe", ROOT, None);
    let pid = probe.id();
    for text in &texts {
        rec.time("scenario.record_parse", pid, None, || {
            ReportRecord::parse(text)
        })
        .map_err(|e| format!("stored record does not parse: {e}"))?;
    }
    for (cell, outcome) in cells.iter().zip(&run.outcomes) {
        let Some(record) = outcome.record() else {
            continue;
        };
        sim_probes(
            &mut rec,
            pid,
            &cell.scenario,
            cell.index,
            record.report.ticks(),
        );
    }
    rec.end(probe);

    Ok(Traced {
        rec,
        run,
        cells,
        cold,
        hits,
        misses,
        rejected,
    })
}

/// The `sim` layer alone, over the cell's own adversary and tick count:
/// `sim.sched` draws the cell's decisions from a freshly built schedule
/// in machine-sized batches; `sim.dispatch` runs a bare machine whose
/// processors only read, so it measures the per-tick dispatch floor
/// (decision sampling included) under that adversary.
fn sim_probes(rec: &mut Recorder, parent: u64, s: &Scenario, index: usize, ticks: u64) {
    let (n, seed, spec) = (s.n(), s.seed, &s.schedule);
    let batch = s.engine.batch.unwrap_or(DEFAULT_BATCH);
    rec.time("sim.sched", parent, Some(index), || {
        let mut schedule = spec.build(n, seed);
        let mut buf = vec![ProcId(0); batch];
        let mut left = ticks;
        while left > 0 {
            let k = left.min(batch as u64) as usize;
            schedule.next_batch(&mut buf[..k]);
            left -= k as u64;
        }
        std::hint::black_box(&buf);
    });
    rec.time("sim.dispatch", parent, Some(index), || {
        let mut machine = MachineBuilder::new(n, 1)
            .seed(seed)
            .schedule_spec(spec)
            .build(|ctx| async move {
                loop {
                    std::hint::black_box(ctx.read(0).await);
                }
            });
        machine.run_ticks(ticks);
        std::hint::black_box(machine.work());
    });
}

/// Aggregate of one span name.
#[derive(Default, Clone, Copy)]
struct Agg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Per-layer metrics, each `(name, value, unit)`.
pub fn metrics(t: &Traced) -> Vec<(&'static str, f64, &'static str)> {
    let spans = t.rec.spans();
    let self_ns = self_times(spans);
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    // Which pass (or probe) a span sits under.
    let root_of = |s: &Span| -> &'static str {
        let mut cur = s;
        loop {
            if cur.name.starts_with("pass.") || cur.name == "probe" {
                return cur.name;
            }
            match by_id.get(&cur.parent) {
                Some(p) => cur = p,
                None => return cur.name,
            }
        }
    };
    let mut cold: BTreeMap<&str, Agg> = BTreeMap::new();
    let mut all: BTreeMap<&str, Agg> = BTreeMap::new();
    for s in spans {
        let add = |m: &mut BTreeMap<&'static str, Agg>| {
            let a = m.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.duration();
            a.self_ns += self_ns[&s.id];
        };
        if root_of(s) == "pass.cold" {
            add(&mut cold);
        }
        add(&mut all);
    }
    let get = |m: &BTreeMap<&str, Agg>, name: &str| m.get(name).copied().unwrap_or_default();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mean = |a: Agg, scale: f64| ratio(a.total_ns as f64, a.count as f64) / scale;
    let mean_self = |a: Agg, scale: f64| ratio(a.self_ns as f64, a.count as f64) / scale;
    let (us, ms) = (1e3, 1e6);

    // Layer time: self time of every layer span in the cold pass (the
    // structural `pass.*` / `cell` spans' self time is waiting, reported
    // separately). A span's layer is its name's prefix before the dot.
    let layer_self = |want: &str| -> f64 {
        cold.iter()
            .filter(|(name, _)| name.split_once('.').map(|(layer, _)| layer) == Some(want))
            .map(|(_, a)| a.self_ns as f64)
            .sum()
    };
    let layer_time: f64 = ["lab", "scenario", "scheme", "core", "bc"]
        .iter()
        .map(|l| layer_self(l))
        .sum();

    let ticks: u64 = t.run.records().map(|r| r.report.ticks()).sum();
    let sched = get(&all, "sim.sched");
    let dispatch = get(&all, "sim.dispatch");
    let run_ns =
        (get(&cold, "scheme.run").total_ns + get(&cold, "core.agreement_run").total_ns) as f64;
    let lookups = t.hits + t.misses + t.rejected;
    let (mut stability, mut violations) = (0u64, 0u64);
    for r in t.run.records() {
        match &r.report {
            ScenarioReport::Scheme(s) => violations += s.verify.violations() as u64,
            ScenarioReport::Agreement(a) => stability += a.stability_violations as u64,
            ScenarioReport::Kernel(_) => {}
        }
    }
    let store_self =
        get(&cold, "lab.journal_append").self_ns + get(&cold, "lab.record_write").self_ns;
    let mean_of = |v: &[u64]| ratio(v.iter().sum::<u64>() as f64, v.len() as f64);

    vec![
        ("lab.expand_ms", mean(get(&all, "lab.expand"), ms), "ms"),
        (
            "lab.journal_append_us",
            mean(get(&cold, "lab.journal_append"), us),
            "us",
        ),
        (
            "lab.journal_appends_per_cell",
            ratio(
                get(&cold, "lab.journal_append").count as f64,
                t.cells.len() as f64,
            ),
            "count",
        ),
        (
            "lab.record_write_us",
            mean(get(&cold, "lab.record_write"), us),
            "us",
        ),
        ("lab.record_bytes", mean_of(&t.cold.record_bytes), "bytes"),
        (
            "lab.manifest_write_ms",
            mean(get(&cold, "lab.manifest_write"), ms),
            "ms",
        ),
        ("lab.lookup_us", mean(get(&all, "lab.lookup"), us), "us"),
        (
            "lab.cache_hit_ratio",
            ratio(t.hits as f64, lookups as f64),
            "ratio",
        ),
        ("lab.cell_wait_us", mean_self(get(&cold, "cell"), us), "us"),
        (
            "lab.store_share",
            ratio(store_self as f64, layer_time),
            "ratio",
        ),
        (
            "lab.self_share",
            ratio(layer_self("lab"), layer_time),
            "ratio",
        ),
        (
            "scenario.validate_us",
            mean(get(&cold, "scenario.validate"), us),
            "us",
        ),
        (
            "scenario.assemble_us",
            mean_self(get(&cold, "scenario.assemble"), us),
            "us",
        ),
        (
            "scenario.run_ns_per_tick",
            ratio(run_ns, ticks as f64),
            "ns",
        ),
        (
            "scenario.record_render_us",
            mean(get(&cold, "scenario.record_render"), us),
            "us",
        ),
        (
            "scenario.record_parse_us",
            mean(get(&all, "scenario.record_parse"), us),
            "us",
        ),
        (
            "scenario.self_share",
            ratio(layer_self("scenario"), layer_time),
            "ratio",
        ),
        (
            "scheme.self_share",
            ratio(layer_self("scheme"), layer_time),
            "ratio",
        ),
        ("scheme.violations", violations as f64, "count"),
        (
            "core.agreement_run_ms",
            mean(get(&cold, "core.agreement_run"), ms),
            "ms",
        ),
        (
            "core.self_share",
            ratio(layer_self("core"), layer_time),
            "ratio",
        ),
        ("core.stability_violations", stability as f64, "count"),
        ("bc.compile_us", mean(get(&cold, "bc.compile"), us), "us"),
        ("bc.slots", mean_of(&t.cold.slots), "count"),
        (
            "bc.self_share",
            ratio(layer_self("bc"), layer_time),
            "ratio",
        ),
        (
            "sim.sched_ns_per_decision",
            ratio(sched.total_ns as f64, ticks as f64),
            "ns",
        ),
        (
            "sim.dispatch_ns_per_tick",
            ratio(dispatch.total_ns as f64, ticks as f64),
            "ns",
        ),
        (
            "sim.sched_share",
            ratio(sched.total_ns as f64, layer_time),
            "ratio",
        ),
        ("obs.traced_cold_ms", t.cold.cold_ns as f64 / ms, "ms"),
    ]
}
