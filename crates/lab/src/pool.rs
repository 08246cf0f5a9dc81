//! The workspace's one thread pool: fan independent trials across OS
//! threads with deterministic, serial-identical results.
//!
//! Every sweep in this workspace — an experiment's `(n, seed, adversary)`
//! trials, a suite's cells, a fuzz campaign's triples, a store scan — is
//! a list of independent configs. A trial builds its own [`apex_sim`]
//! machine *inside* the worker thread (the machine's `Rc`-based internals
//! never cross a thread boundary) and returns plain `Send` data.
//!
//! [`stream_trials`] is the pool itself: each worker reports
//! [`TrialEvent::Started`] and then [`TrialEvent::Done`] for every config
//! it takes, and the calling thread consumes those reports in arrival
//! order. [`run_trials`] fills one slot per config from the `Done`
//! reports, so its results come back **in config order** — tables, JSON
//! artifacts and store manifests are byte-identical whether the sweep
//! ran on one thread or sixteen. The suite cell loop
//! ([`CellLoop::run`](crate::CellLoop::run)) journals `claimed` on
//! `Started` and commits on `Done`.
//!
//! Thread count: `APEX_RUNNER_THREADS` if set, else
//! [`std::thread::available_parallelism`] ([`default_threads`]);
//! `APEX_RUNNER_THREADS=1` forces the serial path, which runs every
//! trial on the calling thread.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// Worker-thread count the pool uses by default. `APEX_RUNNER_THREADS` is
/// parsed once per process (the invalid-value warning prints once, not
/// per sweep); the cached value is used from then on.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("APEX_RUNNER_THREADS") {
            match v.trim().parse::<usize>() {
                Ok(t) if t > 0 => return t,
                _ => eprintln!(
                    "warning: ignoring invalid APEX_RUNNER_THREADS={v:?} (want a positive \
                     integer); using all cores"
                ),
            }
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// The one thread-count resolver every runner-facing command shares
/// (`apex suite run --threads`, `apex farm worker --threads`): an
/// explicit value wins (clamped to at least 1), otherwise
/// [`default_threads`] — `APEX_RUNNER_THREADS` if set and valid, else
/// all cores.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit.map(|t| t.max(1)).unwrap_or_else(default_threads)
}

/// One report from a pool worker, naming its config by position.
#[derive(Debug)]
pub enum TrialEvent<T> {
    /// A worker took config `i` and is about to run it.
    Started(usize),
    /// Config `i` finished with this result.
    Done(usize, T),
}

/// Run `f` over `configs` on up to `threads` scoped OS threads, handing
/// every [`TrialEvent`] to `on_event` on the calling thread in arrival
/// order: each config's `Started` precedes its `Done`. At one thread
/// (or one config) everything runs on the calling thread, strictly
/// `Started(0)`, `Done(0, _)`, `Started(1)`, … — a fully deterministic
/// event sequence.
///
/// The first `Err` from `on_event` stops the sweep: no worker takes a
/// new config, the remaining reports are drained unhandled, and that
/// error is returned. A panic inside `f` propagates once every worker
/// has stopped (callers that must survive one catch it inside `f`, as
/// [`run_trials`] does).
pub fn stream_trials<C, T, E, F, H>(
    configs: &[C],
    threads: usize,
    f: F,
    mut on_event: H,
) -> Result<(), E>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
    H: FnMut(TrialEvent<T>) -> Result<(), E>,
{
    let threads = threads.min(configs.len()).max(1);
    if threads == 1 {
        for (i, c) in configs.iter().enumerate() {
            on_event(TrialEvent::Started(i))?;
            on_event(TrialEvent::Done(i, f(c)))?;
        }
        return Ok(());
    }

    let stop = AtomicBool::new(false);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<TrialEvent<T>>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (cursor, stop, f) = (&cursor, &stop, &f);
            scope.spawn(move || loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(c) = configs.get(i) else { break };
                if tx.send(TrialEvent::Started(i)).is_err() {
                    break;
                }
                if tx.send(TrialEvent::Done(i, f(c))).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut first_err = None;
        for event in rx {
            if first_err.is_some() {
                continue; // drain so workers exit promptly
            }
            if let Err(e) = on_event(event) {
                stop.store(true, Ordering::SeqCst);
                first_err = Some(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    })
}

/// Map `f` over `configs` on up to [`default_threads`] scoped OS threads,
/// returning results in config order (exactly what a serial
/// `configs.iter().map(f).collect()` would return).
///
/// `f` must be a pure function of its config (up to its own seeding): the
/// pool guarantees ordering, and purity then guarantees serial-identical
/// output. Machines built inside `f` stay on the worker thread.
///
/// # Panics
/// If any trial panics — but only **after** every other trial has run to
/// completion: each trial runs under [`std::panic::catch_unwind`], so one
/// bad config never aborts the in-flight remainder of a sweep. The
/// message names the first panicking trial in config order.
pub fn run_trials<C, T, F>(configs: &[C], f: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    run_trials_threaded(configs, default_threads(), f)
}

/// [`run_trials`] with an explicit thread count (tests use this to compare
/// serial and parallel runs directly).
pub fn run_trials_threaded<C, T, F>(configs: &[C], threads: usize, f: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    let caught = |c: &C| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(c))).map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string())
        })
    };
    let mut slots: Vec<Option<Result<T, String>>> = configs.iter().map(|_| None).collect();
    stream_trials(configs, threads, caught, |event| {
        if let TrialEvent::Done(i, out) = event {
            slots[i] = Some(out);
        }
        Ok(())
    })
    .unwrap_or_else(|never: std::convert::Infallible| match never {});
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some(Ok(t)) => t,
            Some(Err(msg)) => panic!("trial {i} worker panicked: {msg}"),
            None => panic!("trial {i} worker died before reporting"),
        })
        .collect()
}
