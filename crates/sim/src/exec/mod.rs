//! The cooperative executor: processors as futures, one poll per atomic op.

mod ctx;
mod machine;

pub use ctx::{Ctx, EngineGate, GateSession};
pub use machine::{BlockHook, DispatchStats, IdlePolicy, Machine, MachineBuilder, DEFAULT_BATCH};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{RoundRobin, ScheduleKind, Script};
    use crate::word::Stamped;

    /// Protocol that writes its id to cell `id`, then reads it back, then
    /// stops: exactly 2 ops.
    fn two_op_machine(n: usize) -> Machine {
        MachineBuilder::new(n, n)
            .schedule(Box::new(RoundRobin::new(n)))
            .build(|ctx| async move {
                let me = ctx.id().0 as u64;
                ctx.write(me as usize, Stamped::new(me, 1)).await;
                let r = ctx.read(me as usize).await;
                assert_eq!(r.value, me);
            })
    }

    #[test]
    fn one_tick_is_one_op() {
        let mut m = two_op_machine(4);
        // After 4 ticks (one round), each processor has performed its write.
        m.run_ticks(4);
        for i in 0..4 {
            assert_eq!(m.peek(i), Stamped::new(i as u64, 1));
        }
        assert_eq!(m.work(), 4);
        // After another round everyone has read and completed.
        m.run_ticks(4);
        assert!(m.all_done());
        assert_eq!(m.work(), 8);
        assert_eq!(m.per_proc_work(), &[2, 2, 2, 2]);
    }

    #[test]
    fn idle_policy_counts_busy_waiting() {
        let mut m = two_op_machine(2);
        m.run_ticks(10);
        assert!(m.all_done());
        // 4 live ops + 6 busy-wait ticks, all counted as work.
        assert_eq!(m.work(), 10);
    }

    #[test]
    fn dispatch_stats_attribute_every_tick() {
        let mut m = two_op_machine(2);
        m.run_ticks(10);
        let st = m.dispatch_stats();
        // 4 live ops, one poll each, then 6 busy-wait ticks.
        assert_eq!(st.polls, 4);
        assert_eq!(st.polled_ticks, 4);
        assert_eq!(st.parked_ticks, 0);
        assert_eq!(st.idle_ticks, 6);
    }

    #[test]
    fn parked_credits_are_settled_without_a_poll() {
        use std::future::Future;
        use std::pin::Pin;
        use std::task::{Context, Poll};
        // Parks 3 local ops, then writes its op count: the write must see
        // the parked ops counted and land on the 4th tick.
        struct Parker(EngineGate, bool);
        impl Future for Parker {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                let gate = self.0.clone();
                let mut sess = gate.session();
                if !self.1 {
                    sess.park(3);
                    self.1 = true;
                }
                if sess.take_credit() {
                    sess.store(0, Stamped::new(sess.ops(), 0));
                    sess.park(u64::MAX);
                }
                Poll::Pending
            }
        }
        let mut m = MachineBuilder::new(1, 1)
            .schedule(Box::new(RoundRobin::new(1)))
            .build(|ctx| Parker(EngineGate::new(&ctx), false));
        m.run_ticks(3);
        assert_eq!(m.peek(0), Stamped::ZERO, "parked ops come first");
        m.run_ticks(1);
        assert_eq!(m.peek(0), Stamped::new(4, 0));
        m.run_ticks(6);
        let st = m.dispatch_stats();
        assert_eq!(st.polls, 2, "one poll parks, one poll writes");
        assert_eq!(st.parked_ticks + st.polled_ticks, 10);
        assert_eq!(m.work(), 10);
    }

    #[test]
    fn idle_policy_skip_counts_only_live_ops() {
        let mut m = MachineBuilder::new(2, 2)
            .schedule(Box::new(RoundRobin::new(2)))
            .idle_policy(IdlePolicy::Skip)
            .build(|ctx| async move {
                ctx.nop().await;
            });
        m.run_ticks(10);
        assert_eq!(m.work(), 2);
        assert_eq!(m.ticks(), 10);
    }

    #[test]
    fn run_until_stops_at_predicate() {
        let mut m = MachineBuilder::new(1, 1)
            .schedule(Box::new(RoundRobin::new(1)))
            .build(|ctx| async move {
                for i in 0..100u64 {
                    ctx.write(0, Stamped::new(i, 0)).await;
                }
            });
        let work = m
            .run_until(10_000, 1, |mem| mem.peek(0).value >= 5)
            .expect("predicate reachable");
        assert_eq!(work, 6, "writes 0..=5 take 6 ops");
    }

    #[test]
    fn run_until_times_out() {
        let mut m = MachineBuilder::new(1, 1)
            .schedule(Box::new(RoundRobin::new(1)))
            .build(|ctx| async move {
                loop {
                    ctx.nop().await;
                }
            });
        let err = m.run_until(100, 10, |_| false).unwrap_err();
        assert_eq!(err.ticks, 100);
    }

    #[test]
    fn per_proc_rng_streams_differ_but_are_reproducible() {
        let build = || {
            MachineBuilder::new(2, 2)
                .seed(77)
                .schedule(Box::new(RoundRobin::new(2)))
                .build(|ctx| async move {
                    let v = ctx.rand_u64().await;
                    ctx.write(ctx.id().0, Stamped::new(v, 0)).await;
                })
        };
        let mut a = build();
        a.run_ticks(4);
        let mut b = build();
        b.run_ticks(4);
        assert_eq!(a.peek(0), b.peek(0));
        assert_eq!(a.peek(1), b.peek(1));
        assert_ne!(a.peek(0).value, a.peek(1).value, "private sources differ");
    }

    #[test]
    fn charge_consumes_k_ticks() {
        let mut m = MachineBuilder::new(1, 1)
            .schedule(Box::new(RoundRobin::new(1)))
            .build(|ctx| async move {
                ctx.charge(5).await;
                ctx.write(0, Stamped::new(1, 1)).await;
            });
        m.run_ticks(5);
        assert_eq!(m.peek(0), Stamped::ZERO, "write happens on the 6th op");
        m.run_ticks(1);
        assert_eq!(m.peek(0), Stamped::new(1, 1));
    }

    #[test]
    fn scripted_schedule_controls_interleaving_exactly() {
        // P1 writes 11 then P0 writes 10; last write wins.
        let script = Script::new().step(1).step(0);
        let mut m = MachineBuilder::new(2, 1)
            .schedule(Box::new(script.then(Box::new(RoundRobin::new(2)))))
            .build(|ctx| async move {
                let me = ctx.id().0 as u64;
                ctx.write(0, Stamped::new(10 + me, 0)).await;
            });
        m.run_ticks(2);
        assert_eq!(m.peek(0).value, 10);
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            let mut m = MachineBuilder::new(8, 64)
                .seed(123)
                .schedule_kind(&ScheduleKind::Bursty { mean_burst: 7 })
                .build(|ctx| async move {
                    loop {
                        let a = ctx.rand_below(64).await;
                        let v = ctx.read(a as usize).await;
                        ctx.write(a as usize, Stamped::new(v.value + 1, v.stamp + 1))
                            .await;
                    }
                });
            m.run_ticks(10_000);
            (
                m.work(),
                m.with_mem(|mem| (0..64).map(|a| mem.peek(a).value).sum::<u64>()),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cas_is_atomic_and_counts_one_op() {
        let mut m = MachineBuilder::new(2, 1)
            .schedule(Box::new(RoundRobin::new(2)))
            .build(|ctx| async move {
                ctx.cas(0, Stamped::ZERO, Stamped::new(ctx.id().0 as u64 + 1, 1))
                    .await;
            });
        m.run_ticks(2);
        // P0 wins the cas; P1's cas fails.
        assert_eq!(m.peek(0).value, 1);
        assert_eq!(m.work(), 2);
    }

    #[test]
    fn report_accounts_reads_and_writes() {
        let mut m = two_op_machine(2);
        m.run_ticks(4);
        let r = m.report();
        assert_eq!(r.total_work, 4);
        assert_eq!(r.mem_reads + r.mem_writes, 4);
    }
}
