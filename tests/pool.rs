//! The thread pool's contracts (`apex_lab::pool`): results come back in
//! config order at every thread count, a panicking trial is never
//! swallowed, and it surfaces only after every other trial has run.

use std::sync::Mutex;

use apex_lab::pool::{run_trials_threaded, stream_trials, TrialEvent};

#[test]
fn results_arrive_in_config_order_regardless_of_threads() {
    let configs: Vec<u64> = (0..64).collect();
    // Uneven per-trial cost to force out-of-order completion.
    let work = |&c: &u64| {
        let mut acc = c;
        for _ in 0..(c % 7) * 10_000 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        (c, acc)
    };
    let serial = run_trials_threaded(&configs, 1, work);
    let parallel = run_trials_threaded(&configs, 8, work);
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), 64);
    assert!(serial.iter().enumerate().all(|(i, (c, _))| *c == i as u64));
}

#[test]
#[should_panic(expected = "worker panicked")]
fn worker_panic_is_not_swallowed() {
    let configs: Vec<u32> = (0..8).collect();
    run_trials_threaded(&configs, 4, |&c| {
        if c == 5 {
            panic!("boom");
        }
        c
    });
}

#[test]
fn one_panicking_trial_does_not_abort_the_rest() {
    let configs: Vec<u32> = (0..16).collect();
    for threads in [1, 4] {
        // Every trial that returns records its result before the sweep
        // ends, so what ran is visible after the panic surfaces.
        let ran = Mutex::new(Vec::new());
        let sweep = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_trials_threaded(&configs, threads, |&c| {
                if c == 5 {
                    panic!("injected fault: trial {c}");
                }
                ran.lock().unwrap().push((c, c * 2));
                c * 2
            })
        }));
        let payload = sweep.expect_err("the panicking trial must surface");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("injected fault"), "{msg}");
        assert!(msg.contains("trial 5"), "{msg}");

        // Every other trial ran before the panic surfaced, with its
        // result intact.
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        let expected: Vec<(u32, u32)> = (0..16).filter(|&i| i != 5).map(|i| (i, i * 2)).collect();
        assert_eq!(ran, expected, "threads = {threads}");
    }
}

#[test]
fn each_trial_reports_started_before_done_on_the_calling_thread() {
    let configs: Vec<u32> = (0..12).collect();
    for threads in [1, 3] {
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        stream_trials(
            &configs,
            threads,
            |&c| c + 100,
            |event| {
                assert_eq!(std::thread::current().id(), caller);
                seen.push(match event {
                    TrialEvent::Started(i) => (i, None),
                    TrialEvent::Done(i, out) => (i, Some(out)),
                });
                Ok::<(), String>(())
            },
        )
        .unwrap();
        assert_eq!(seen.len(), 24, "threads = {threads}");
        for i in 0..12 {
            let started = seen.iter().position(|&e| e == (i, None)).unwrap();
            let done = seen
                .iter()
                .position(|&e| e == (i, Some(i as u32 + 100)))
                .unwrap();
            assert!(started < done, "threads = {threads}, trial {i}");
        }
        if threads == 1 {
            // The serial path is the fully deterministic sequence.
            let serial: Vec<_> = (0..12)
                .flat_map(|i| [(i, None), (i, Some(i as u32 + 100))])
                .collect();
            assert_eq!(seen, serial);
        }
    }
}

#[test]
fn a_handler_error_stops_the_sweep_and_is_returned() {
    let configs: Vec<u32> = (0..64).collect();
    for threads in [1, 4] {
        let mut done = 0;
        let result = stream_trials(
            &configs,
            threads,
            |&c| c,
            |event| {
                if let TrialEvent::Done(..) = event {
                    done += 1;
                    if done == 3 {
                        return Err("stop here");
                    }
                }
                Ok(())
            },
        );
        assert_eq!(result, Err("stop here"), "threads = {threads}");
        assert_eq!(done, 3, "no report is handled after the error");
    }
}
