//! The agreement participant: each processor's main loop.
//!
//! "The protocol operates in cycles, which processors execute repeatedly.
//! The cycles for all processors are identical. … Each processor reads the
//! Phase Clock every log n cycles. The clock indicates the current phase and
//! signals if the processor is working on an 'old' phase." (§3)
//!
//! Clock updates are interleaved with the cycles — "this is achieved by
//! interleaving clock updates with task execution" (§2.1) — at the cadence
//! fixed by [`AgreementConfig::update_period`], which is what makes one
//! clock level span a whole phase's worth of cycles (README.md, "Design notes: clock
//! cadence of the agreement driver").

use std::rc::Rc;

use apex_clock::PhaseClock;
use apex_sim::Ctx;

use crate::config::AgreementConfig;
use crate::cycle::run_cycle;
use crate::events::EventSink;
use crate::layout::BinLayout;
use crate::source::ValueSource;

/// Everything a participant needs; cheap to clone per processor.
#[derive(Clone)]
pub struct Participant {
    /// Protocol constants.
    pub cfg: AgreementConfig,
    /// The bin array.
    pub bins: BinLayout,
    /// The phase clock.
    pub clock: PhaseClock,
    /// Evaluator for the `f_i^{(π)}`.
    pub source: Rc<dyn ValueSource>,
    /// Optional instrumentation sink.
    pub sink: Option<EventSink>,
}

impl Participant {
    /// Run the participant forever (the protocol never terminates on its
    /// own; the harness decides when agreement has been reached).
    ///
    /// The phase estimate is kept monotone in a local register
    /// (`phase = max(phase, read)`) — a low clock sample must never move a
    /// processor backward in phase.
    pub async fn run(self, ctx: Ctx) {
        let mut phase = self.clock.read(&ctx).await;
        let mut since_read: u64 = 0;
        let mut since_update: u64 = 0;
        loop {
            run_cycle(
                &ctx,
                &self.cfg,
                &self.bins,
                &self.source,
                phase,
                self.sink.as_ref(),
            )
            .await;
            since_read += 1;
            since_update += 1;
            if since_update >= self.cfg.update_period {
                self.clock.update(&ctx).await;
                since_update = 0;
            }
            if since_read >= self.cfg.clock_read_period {
                phase = phase.max(self.clock.read(&ctx).await);
                since_read = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::KeyedSource;
    use apex_sim::{MachineBuilder, RegionAllocator, ScheduleKind};

    #[test]
    fn participants_fill_phase_zero_and_the_clock_eventually_advances() {
        let n = 16;
        let cfg = AgreementConfig::for_n(n, 1);
        let mut alloc = RegionAllocator::new();
        let clock = PhaseClock::new(&mut alloc, n);
        let bins = BinLayout::new(&mut alloc, n, cfg.cells_per_bin);
        let source: Rc<dyn ValueSource> = Rc::new(KeyedSource);
        let mut m = MachineBuilder::new(n, alloc.total())
            .seed(21)
            .schedule_kind(&ScheduleKind::Uniform)
            .build(move |ctx| {
                let p = Participant {
                    cfg,
                    bins,
                    clock,
                    source: source.clone(),
                    sink: None,
                };
                p.run(ctx)
            });

        // Run until the clock oracle reaches 1 (phase 0 complete).
        let res = m.run_until(200_000_000, 4096, |mem| clock.oracle(mem) >= 1);
        let work = res.expect("clock must advance");
        // By advance time, phase 0 should have produced agreement values in
        // every bin (the full Theorem-1 validation lives in validate.rs).
        m.with_mem(|mem| {
            for b in 0..n {
                let v = bins.oracle_value(mem, b, 0);
                assert_eq!(
                    v,
                    Some(KeyedSource::expected(0, b)),
                    "bin {b} has no (or a wrong) agreed value at clock advance"
                );
            }
        });
        // Work is Θ(n log n log log n) with our constants — sanity-bound it.
        let bound = 2_000 * (n as u64) * 4 * 3; // generous envelope for n=16
        assert!(work < bound, "phase-0 work {work} exceeds envelope {bound}");
    }
}
