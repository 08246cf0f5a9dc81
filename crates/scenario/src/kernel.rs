//! Kernel mode: synthetic stress kernels driven for a fixed number of
//! schedule ticks.
//!
//! Each processor is an explicit state machine ([`KernelProc`]) behind a
//! thin async adapter over [`apex_sim::Ctx`]: one awaited operation per
//! [`KernelOp`]. Private RNG draws and state transitions are free (they
//! model local register computation bundled with the op); exactly the
//! returned op costs the one atomic step, matching the A-PRAM accounting.
//!
//! The [`KernelReport`] pins the run with two order-sensitive checksums:
//! a fold over every store in machine order (address, value, stamp,
//! writer and global work stamp) and a fold over the final memory image.

use std::cell::Cell;
use std::rc::Rc;

use apex_sim::rng::{proc_rng, splitmix64};
use apex_sim::{AdversarySpec, Json, JsonError, MachineBuilder, Stamped};
use rand::rngs::SmallRng;
use rand::RngCore;

fn jerr(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// A serializable kernel family: what each processor's state machine
/// does with its one atomic step per tick.
///
/// Memory layout (all kernels): the shared region occupies addresses
/// `[0, shared_len)`, followed by `slots` private cells per processor in
/// pid order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelSpec {
    /// Every processor works entirely inside its own `slots`-cell
    /// region: reads, writes and computes, mixed by its private RNG.
    /// No two processors share a cell.
    PrivateSlots {
        /// Private cells per processor (≥ 1).
        slots: usize,
    },
    /// Mostly [`KernelSpec::PrivateSlots`], but every `period`-th step a
    /// processor touches shared cell 0 — processor 0 writes a fresh
    /// stamped word, everyone else reads it.
    SharedPulse {
        /// Private cells per processor (≥ 1).
        slots: usize,
        /// Steps between shared-cell pulses (≥ 1).
        period: u64,
    },
    /// Every step is a random read or write inside one shared
    /// `region`-cell arena.
    Storm {
        /// Shared arena size in cells (≥ 1).
        region: usize,
    },
}

impl KernelSpec {
    /// Stable label (JSON tag and report field).
    pub fn label(&self) -> &'static str {
        match self {
            KernelSpec::PrivateSlots { .. } => "private-slots",
            KernelSpec::SharedPulse { .. } => "shared-pulse",
            KernelSpec::Storm { .. } => "storm",
        }
    }

    /// Cells of shared (cross-processor) memory at the base of the map.
    fn shared_len(&self) -> usize {
        match self {
            KernelSpec::PrivateSlots { .. } => 0,
            KernelSpec::SharedPulse { .. } => 1,
            KernelSpec::Storm { region } => *region,
        }
    }

    /// Private cells per processor.
    fn slots(&self) -> usize {
        match self {
            KernelSpec::PrivateSlots { slots } | KernelSpec::SharedPulse { slots, .. } => *slots,
            KernelSpec::Storm { .. } => 0,
        }
    }

    /// Total shared-memory size for an `n`-processor run.
    fn mem_size(&self, n: usize) -> usize {
        self.shared_len() + n * self.slots()
    }

    /// Reject degenerate parameter choices.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            KernelSpec::PrivateSlots { slots } if *slots == 0 => {
                Err("private-slots kernel needs slots >= 1".into())
            }
            KernelSpec::SharedPulse { slots, .. } if *slots == 0 => {
                Err("shared-pulse kernel needs slots >= 1".into())
            }
            KernelSpec::SharedPulse { period, .. } if *period == 0 => {
                Err("shared-pulse kernel needs period >= 1".into())
            }
            KernelSpec::Storm { region } if *region == 0 => {
                Err("storm kernel needs region >= 1".into())
            }
            _ => Ok(()),
        }
    }

    /// Serialize (canonical field order, tag first).
    pub fn to_json(&self) -> Json {
        match self {
            KernelSpec::PrivateSlots { slots } => Json::Obj(vec![
                ("kernel".into(), Json::Str(self.label().into())),
                ("slots".into(), Json::UInt(*slots as u64)),
            ]),
            KernelSpec::SharedPulse { slots, period } => Json::Obj(vec![
                ("kernel".into(), Json::Str(self.label().into())),
                ("slots".into(), Json::UInt(*slots as u64)),
                ("period".into(), Json::UInt(*period)),
            ]),
            KernelSpec::Storm { region } => Json::Obj(vec![
                ("kernel".into(), Json::Str(self.label().into())),
                ("region".into(), Json::UInt(*region as u64)),
            ]),
        }
    }

    /// Deserialize (structural errors only; call
    /// [`KernelSpec::validate`] before running).
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.get("kernel")?.as_str()? {
            "private-slots" => Ok(KernelSpec::PrivateSlots {
                slots: v.get("slots")?.as_usize()?,
            }),
            "shared-pulse" => Ok(KernelSpec::SharedPulse {
                slots: v.get("slots")?.as_usize()?,
                period: v.get("period")?.as_u64()?,
            }),
            "storm" => Ok(KernelSpec::Storm {
                region: v.get("region")?.as_usize()?,
            }),
            other => Err(jerr(format!("unknown kernel kind {other:?}"))),
        }
    }
}

/// The observable outcome of a kernel run: the exact model-level
/// operation counts plus checksums of the ordered write log (work stamps
/// included) and the final memory image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelReport {
    /// Kernel family label ([`KernelSpec::label`]).
    pub kernel: String,
    /// Number of processors.
    pub n: usize,
    /// Schedule ticks executed.
    pub ticks: u64,
    /// Total work units (equals `ticks`: kernels never complete, so every
    /// tick is live work).
    pub work: u64,
    /// Model-level shared-memory loads performed.
    pub reads: u64,
    /// Model-level shared-memory stores performed.
    pub writes: u64,
    /// Checksum of the final memory image.
    pub mem_checksum: u64,
    /// Checksum chain over every store in machine order.
    pub events_checksum: u64,
}

impl KernelReport {
    /// Internal consistency: every tick accounted, op counts bounded by
    /// ticks.
    pub fn ok(&self) -> bool {
        self.work == self.ticks && self.reads + self.writes <= self.ticks
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "kernel {} n={} ticks={} reads={} writes={} mem={:016x} events={:016x}",
            self.kernel,
            self.n,
            self.ticks,
            self.reads,
            self.writes,
            self.mem_checksum,
            self.events_checksum
        )
    }

    /// Serialize (canonical field order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kernel".into(), Json::Str(self.kernel.clone())),
            ("n".into(), Json::UInt(self.n as u64)),
            ("ticks".into(), Json::UInt(self.ticks)),
            ("work".into(), Json::UInt(self.work)),
            ("reads".into(), Json::UInt(self.reads)),
            ("writes".into(), Json::UInt(self.writes)),
            ("mem_checksum".into(), Json::UInt(self.mem_checksum)),
            ("events_checksum".into(), Json::UInt(self.events_checksum)),
        ])
    }

    /// Deserialize the output of [`KernelReport::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(KernelReport {
            kernel: v.get("kernel")?.as_str()?.to_string(),
            n: v.get("n")?.as_usize()?,
            ticks: v.get("ticks")?.as_u64()?,
            work: v.get("work")?.as_u64()?,
            reads: v.get("reads")?.as_u64()?,
            writes: v.get("writes")?.as_u64()?,
            mem_checksum: v.get("mem_checksum")?.as_u64()?,
            events_checksum: v.get("events_checksum")?.as_u64()?,
        })
    }
}

/// Execute `ticks` schedule ticks of an `n`-processor kernel run.
/// `batch` overrides the machine's schedule-prefetch block size (`None` =
/// [`apex_sim::DEFAULT_BATCH`]).
pub(crate) fn run(
    spec: KernelSpec,
    n: usize,
    ticks: u64,
    schedule: &AdversarySpec,
    seed: u64,
    batch: Option<usize>,
) -> KernelReport {
    spec.validate().expect("invalid kernel spec");
    let mut b = MachineBuilder::new(n, spec.mem_size(n))
        .seed(seed)
        .schedule_spec(schedule);
    if let Some(batch) = batch {
        b = b.batch(batch);
    }
    let mut m = b.build(|ctx| async move {
        let mut k = KernelProc::new(spec, ctx.id().0, seed);
        loop {
            match k.next_op() {
                KernelOp::Read(a) => {
                    let w = ctx.read(a).await;
                    k.feed(w);
                }
                KernelOp::Write(a, w) => ctx.write(a, w).await,
                KernelOp::Compute => ctx.compute().await,
            }
        }
    });
    let events = Rc::new(Cell::new(0u64));
    let ev = events.clone();
    m.add_write_hook(Box::new(move |e| {
        ev.set(fold_write(ev.get(), e.work, e.addr, e.new, e.writer.0));
    }));
    m.run_ticks(ticks);
    let rep = m.report();
    debug_assert_eq!(rep.ticks, ticks);
    KernelReport {
        kernel: spec.label().to_string(),
        n,
        ticks: rep.ticks,
        work: rep.total_work,
        reads: rep.mem_reads,
        writes: rep.mem_writes,
        mem_checksum: fold_image(&m.mem_image()),
        events_checksum: events.get(),
    }
}

const WRITE_SALT: u64 = 0xEC5E_11A7_0F01_D5E1;
const IMAGE_SALT: u64 = 0x11A6_E5A1_D16E_57ED;

/// Fold one observed write into the running events checksum. `work` is
/// the global work counter at the instant of the store (for a kernel
/// run, the 1-based global tick position of the write).
fn fold_write(acc: u64, work: u64, addr: usize, word: Stamped, writer: usize) -> u64 {
    let mut s = acc
        ^ WRITE_SALT
        ^ work
        ^ (addr as u64).rotate_left(17)
        ^ word.value.rotate_left(29)
        ^ word.stamp.rotate_left(43)
        ^ (writer as u64).rotate_left(53);
    splitmix64(&mut s)
}

/// Checksum a full memory image (value and stamp of every cell, in
/// address order).
fn fold_image(image: &[Stamped]) -> u64 {
    let mut acc = IMAGE_SALT;
    for w in image {
        let mut s = acc ^ w.value ^ w.stamp.rotate_left(31);
        acc = splitmix64(&mut s);
    }
    acc
}

/// One atomic step a kernel processor wants to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KernelOp {
    /// Read the cell; the observed word must be handed back through
    /// [`KernelProc::feed`] before the next [`KernelProc::next_op`].
    Read(usize),
    /// Write the stamped word to the cell.
    Write(usize, Stamped),
    /// One basic local computation.
    Compute,
}

/// One processor of a kernel run.
#[derive(Debug)]
struct KernelProc {
    spec: KernelSpec,
    pid: usize,
    rng: SmallRng,
    /// Steps taken so far (stamps written words).
    iter: u64,
    /// Running fold of every observed read — written values mix it in,
    /// so one different read changes every later write.
    acc: u64,
}

impl KernelProc {
    /// Processor `pid` of a kernel run seeded by `master`, on the
    /// processor-private RNG stream ([`apex_sim::rng::proc_rng`]).
    fn new(spec: KernelSpec, pid: usize, master: u64) -> Self {
        KernelProc {
            spec,
            pid,
            rng: proc_rng(master, pid),
            iter: 0,
            acc: 0,
        }
    }

    /// First address of this processor's private region.
    fn base(&self) -> usize {
        self.spec.shared_len() + self.pid * self.spec.slots()
    }

    /// A fresh stamped word derived from the accumulator, the pid, and
    /// the step counter.
    fn word(&mut self) -> Stamped {
        let mut s = self.acc ^ (self.pid as u64).rotate_left(32) ^ self.iter;
        Stamped::new(splitmix64(&mut s), self.iter)
    }

    fn local_op(&mut self, slots: usize) -> KernelOp {
        let a = self.base() + (self.rng.next_u64() % slots as u64) as usize;
        match self.rng.next_u64() % 4 {
            0 | 1 => KernelOp::Read(a),
            2 => {
                let w = self.word();
                KernelOp::Write(a, w)
            }
            _ => KernelOp::Compute,
        }
    }

    /// Decide the next atomic step.
    fn next_op(&mut self) -> KernelOp {
        self.iter += 1;
        match self.spec {
            KernelSpec::PrivateSlots { slots } => self.local_op(slots),
            KernelSpec::SharedPulse { slots, period } => {
                if self.iter.is_multiple_of(period) {
                    if self.pid == 0 {
                        let w = self.word();
                        KernelOp::Write(0, w)
                    } else {
                        KernelOp::Read(0)
                    }
                } else {
                    self.local_op(slots)
                }
            }
            KernelSpec::Storm { region } => {
                let a = (self.rng.next_u64() % region as u64) as usize;
                if self.rng.next_u64().is_multiple_of(2) {
                    KernelOp::Read(a)
                } else {
                    let w = self.word();
                    KernelOp::Write(a, w)
                }
            }
        }
    }

    /// Hand back the word observed by the last [`KernelOp::Read`].
    fn feed(&mut self, w: Stamped) {
        let mut s = self.acc ^ w.value ^ w.stamp.rotate_left(17);
        self.acc = splitmix64(&mut s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_sim::ScheduleKind;

    fn uniform() -> AdversarySpec {
        ScheduleKind::Uniform.lower()
    }

    #[test]
    fn specs_round_trip_and_validate() {
        for spec in [
            KernelSpec::PrivateSlots { slots: 4 },
            KernelSpec::SharedPulse {
                slots: 2,
                period: 64,
            },
            KernelSpec::Storm { region: 32 },
        ] {
            spec.validate().unwrap();
            let back = KernelSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec);
        }
        assert!(KernelSpec::PrivateSlots { slots: 0 }.validate().is_err());
        assert!(KernelSpec::SharedPulse {
            slots: 1,
            period: 0
        }
        .validate()
        .is_err());
        assert!(KernelSpec::Storm { region: 0 }.validate().is_err());
    }

    #[test]
    fn fed_reads_change_future_writes() {
        let spec = KernelSpec::PrivateSlots { slots: 1 };
        let mut a = KernelProc::new(spec, 0, 7);
        let mut b = KernelProc::new(spec, 0, 7);
        loop {
            let (oa, ob) = (a.next_op(), b.next_op());
            assert_eq!(oa, ob);
            if let KernelOp::Read(_) = oa {
                a.feed(Stamped::new(1, 1));
                b.feed(Stamped::new(2, 1)); // a different read...
                break;
            }
        }
        // ...must eventually surface in a written word.
        let mut diverged = false;
        for _ in 0..512 {
            match (a.next_op(), b.next_op()) {
                (KernelOp::Write(_, wa), KernelOp::Write(_, wb)) if wa != wb => {
                    diverged = true;
                    break;
                }
                _ => {}
            }
        }
        assert!(diverged, "observed reads must feed later writes");
    }

    #[test]
    fn layout_separates_private_regions() {
        let spec = KernelSpec::SharedPulse {
            slots: 3,
            period: 1000,
        };
        assert_eq!(spec.mem_size(4), 1 + 12);
        let mut p1 = KernelProc::new(spec, 1, 9);
        let mut p2 = KernelProc::new(spec, 2, 9);
        for _ in 0..200 {
            for (p, lo, hi) in [(&mut p1, 4usize, 7usize), (&mut p2, 7, 10)] {
                match p.next_op() {
                    KernelOp::Read(a) => {
                        assert!(
                            a == 0 || (lo..hi).contains(&a),
                            "read {a} outside [{lo},{hi})"
                        );
                        p.feed(Stamped::ZERO);
                    }
                    KernelOp::Write(a, _) => {
                        assert!(
                            a == 0 || (lo..hi).contains(&a),
                            "write {a} outside [{lo},{hi})"
                        );
                    }
                    KernelOp::Compute => {}
                }
            }
        }
    }

    #[test]
    fn runs_are_reproducible_and_consistent() {
        let spec = KernelSpec::SharedPulse {
            slots: 2,
            period: 8,
        };
        let a = run(spec, 4, 2000, &uniform(), 11, None);
        let b = run(spec, 4, 2000, &uniform(), 11, None);
        assert_eq!(a, b);
        assert!(a.ok());
        assert_eq!(a.work, 2000);
        assert!(a.writes > 0);
        assert_eq!(KernelReport::from_json(&a.to_json()).unwrap(), a);
    }

    #[test]
    fn ok_rejects_inconsistent_counts() {
        let mut r = KernelReport {
            kernel: KernelSpec::PrivateSlots { slots: 1 }.label().to_string(),
            n: 2,
            ticks: 10,
            work: 10,
            reads: 6,
            writes: 5,
            mem_checksum: 0,
            events_checksum: 0,
        };
        assert!(!r.ok());
        r.writes = 4;
        assert!(r.ok());
        r.work = 9;
        assert!(!r.ok());
    }

    #[test]
    fn batch_size_is_invisible() {
        let spec = KernelSpec::Storm { region: 16 };
        let reference = run(spec, 6, 1500, &uniform(), 3, Some(1));
        for batch in [7, 64, 1024] {
            let r = run(spec, 6, 1500, &uniform(), 3, Some(batch));
            assert_eq!(r, reference, "batch {batch}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = KernelSpec::PrivateSlots { slots: 3 };
        let a = run(spec, 4, 1000, &uniform(), 1, None);
        let b = run(spec, 4, 1000, &uniform(), 2, None);
        assert_ne!(a.events_checksum, b.events_checksum);
    }
}
