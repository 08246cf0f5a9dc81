//! Processor context: the only gateway from protocol code to the machine.
//!
//! Protocol code is written as ordinary `async` Rust against a [`Ctx`]. Every
//! atomic operation of the model — shared-memory read, shared-memory write,
//! one basic computation, a draw from the private random source, or an
//! explicit no-op — is one `await` that consumes exactly one *op credit*.
//! The machine grants one credit per schedule tick, so
//!
//! > one schedule tick ⇔ one atomic operation ⇔ one work unit,
//!
//! which is precisely the paper's accounting ("total work … including steps
//! from busy waiting").
//!
//! Local control flow between `await`s (register moves, branches) is free, as
//! in the model, where a step is one atomic operation and processors have a
//! small set of internal registers.
//!
//! # Parked credits
//!
//! Synchronous engines (the bytecode VM) talk to the machine through an
//! [`EngineGate`] instead of awaiting `Ctx` operations. Such an engine may
//! *park* the credits of **local** operations ([`GateSession::park`]):
//! operations whose effects stay inside the processor — register
//! computation, ω-padding nops, draws from the private random source. It
//! applies their effects at once and pays for them from the credits in
//! hand; whatever is left is owed, and the machine settles owed credits
//! — without polling the future — before it grants the processor new
//! ones. Either way the op, work, tick and per-processor counters advance
//! exactly as if each parked operation had taken its own credit, and every
//! shared-memory operation still happens at the same work instant. Since
//! nothing outside the processor can see a local effect, applying it early
//! is unobservable: the private random stream is drawn in the same order,
//! only sooner.
//!
//! *Contract:* park only operations that touch no shared memory and
//! nothing else another processor or an observer can read (event
//! counters included), and only while the future will take at least one
//! more credit before it completes — the machine accounts a completing
//! poll's ticks assuming nothing is owed. The `async` [`Ctx`] protocols
//! never park.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use rand::prelude::*;
use rand::rngs::SmallRng;

use crate::memory::SharedMemory;
use crate::word::{ProcId, Stamped};

/// Per-processor executor state shared between the machine and the
/// processor's [`Ctx`].
///
/// `Cell` fields instead of a `RefCell` wrapper: the credit handshake is
/// on the machine's innermost loop (touched twice per live tick), and a
/// plain `Cell` store/load compiles to a move with no borrow-flag
/// bookkeeping. Single-threaded by construction — the machine and all of
/// its processors live on one thread.
#[derive(Debug, Default)]
pub(crate) struct ProcState {
    /// Op credits remaining for the current poll. Usually 1; the machine
    /// grants a whole *run* of credits when the schedule hands this
    /// processor several consecutive ticks, and the protocol then executes
    /// the entire run inside one poll (run coalescing — see the machine
    /// module docs).
    pub(crate) credit: Cell<u64>,
    /// Total atomic operations executed by this processor.
    pub(crate) ops: Cell<u64>,
    /// Credits owed for local operations an engine has already applied
    /// (see the module docs on parking). The machine settles them before
    /// it polls the future again. Invariant: nonzero only while `credit`
    /// is zero — parking pays from the credits in hand first, and the
    /// machine grants new credits only once nothing is owed.
    pub(crate) parked: Cell<u64>,
}

/// Handle through which a protocol performs its atomic operations.
///
/// Cloning is cheap (reference-counted); a protocol typically moves one clone
/// into its `async` body.
#[derive(Clone)]
pub struct Ctx {
    id: ProcId,
    mem: Rc<RefCell<SharedMemory>>,
    state: Rc<ProcState>,
    rng: Rc<RefCell<SmallRng>>,
    work: Rc<Cell<u64>>,
}

impl Ctx {
    pub(crate) fn new(
        id: ProcId,
        mem: Rc<RefCell<SharedMemory>>,
        state: Rc<ProcState>,
        rng: SmallRng,
        work: Rc<Cell<u64>>,
    ) -> Self {
        Ctx {
            id,
            mem,
            state,
            rng: Rc::new(RefCell::new(rng)),
            work,
        }
    }

    /// This processor's identity.
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Number of processors… is not known to a `Ctx`; protocols receive it as
    /// a parameter, mirroring the model where `n` is a program constant.
    ///
    /// Atomic operations executed so far by this processor (free to query —
    /// a processor may keep a step counter in a register).
    #[inline]
    pub fn ops(&self) -> u64 {
        self.state.ops.get()
    }

    /// Global work counter (instrumentation only: protocols must not branch
    /// on it; experiments use it to timestamp events).
    #[inline]
    pub fn work_now(&self) -> u64 {
        self.work.get()
    }

    /// Await one op credit (one schedule tick granted to this processor).
    #[inline]
    fn tick(&self) -> OpTick<'_> {
        OpTick {
            state: &self.state,
            work: &self.work,
        }
    }

    /// Atomic operation: read the stamped word at `addr`.
    pub async fn read(&self, addr: usize) -> Stamped {
        self.tick().await;
        self.mem.borrow_mut().load(addr, self.id)
    }

    /// Atomic operation: write the stamped word `w` to `addr`.
    pub async fn write(&self, addr: usize, w: Stamped) {
        self.tick().await;
        self.mem.borrow_mut().store(addr, w, self.id);
    }

    /// Atomic operation: one basic computation on local registers (add,
    /// multiply, compare, …). The computation itself is performed by the
    /// surrounding Rust code; this op accounts for its cost.
    pub async fn compute(&self) {
        self.tick().await;
    }

    /// `k` consecutive basic computations.
    pub async fn charge(&self, k: u64) {
        for _ in 0..k {
            self.tick().await;
        }
    }

    /// Atomic operation: an explicit no-op (busy waiting / padding). The
    /// agreement protocol pads every cycle to exactly ω steps with these.
    pub async fn nop(&self) {
        self.tick().await;
    }

    /// Atomic operation: draw a uniform value in `[0, bound)` from this
    /// processor's private random source.
    ///
    /// # Panics
    /// If `bound == 0`.
    pub async fn rand_below(&self, bound: u64) -> u64 {
        assert!(bound > 0, "rand_below(0)");
        self.tick().await;
        self.rng.borrow_mut().gen_range(0..bound)
    }

    /// Atomic operation: draw a uniform 64-bit word from the private random
    /// source.
    pub async fn rand_u64(&self) -> u64 {
        self.tick().await;
        self.rng.borrow_mut().gen()
    }

    /// **Model-violating** compound atomic compare-and-swap. The paper's
    /// model explicitly has *no* operation that both reads and writes shared
    /// memory ("no compound operation such as test∧set or compare∧swap is
    /// atomic"). Provided solely for the `ideal-cas` *cheating baseline*
    /// (README.md, "Design notes: comparators") that lower-bounds what hardware RMW would give.
    /// Costs one work unit. Returns the previous cell content.
    pub async fn cas(&self, addr: usize, expect: Stamped, new: Stamped) -> Stamped {
        self.tick().await;
        self.mem.borrow_mut().cas(addr, expect, new, self.id)
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("id", &self.id)
            .field("ops", &self.ops())
            .finish()
    }
}

/// Synchronous gateway to the same per-processor machinery a [`Ctx`] wraps,
/// for engines that execute many atomic operations per poll without the
/// `async` state machine (the bytecode VM).
///
/// An `EngineGate` shares the processor's credit cell, op counter, shared
/// memory, private random source, and the global work counter with the `Ctx`
/// it was derived from, so an engine that takes one credit before each
/// effect performs the *identical* sequence of (credit, op-count, work,
/// memory, RNG) transitions as `async` protocol code awaiting `Ctx`
/// operations — read/write counters, write-event stamps, and the random
/// stream all match op for op. The effects themselves go through a
/// [`GateSession`], acquired once per poll.
///
/// The contract is the machine's credit protocol: take one credit per
/// effectful atomic operation; when none is left, return `Poll::Pending`
/// from the driving future *without* performing further effects, and
/// resume at the same operation on the next poll. Local operations may
/// instead be parked (see the module docs).
#[derive(Clone)]
pub struct EngineGate {
    id: ProcId,
    mem: Rc<RefCell<SharedMemory>>,
    state: Rc<ProcState>,
    rng: Rc<RefCell<SmallRng>>,
    work: Rc<Cell<u64>>,
}

impl EngineGate {
    /// Derive a gate from a processor's context. The gate aliases the
    /// context's state; interleaving gated operations with `Ctx` awaits on
    /// the same processor is well-defined (both consume the same credits).
    pub fn new(ctx: &Ctx) -> Self {
        EngineGate {
            id: ctx.id,
            mem: ctx.mem.clone(),
            state: ctx.state.clone(),
            rng: ctx.rng.clone(),
            work: ctx.work.clone(),
        }
    }

    /// This processor's identity.
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Atomic operations executed so far by this processor (free to query,
    /// like [`Ctx::ops`]).
    #[inline]
    pub fn ops(&self) -> u64 {
        self.state.ops.get()
    }

    /// Consume one op credit if available, advancing the op and work
    /// counters exactly as a `Ctx` await does. Returns `false` when the
    /// current run of credits is exhausted.
    #[inline]
    pub fn take_credit(&self) -> bool {
        take_credit(&self.state, &self.work)
    }

    /// Borrow the shared memory for the duration of one poll. See
    /// [`GateSession`].
    ///
    /// # Panics
    /// If the memory is already borrowed (a session is still live, or
    /// protocol code is mid-operation — neither can happen from the
    /// machine's poll loop).
    #[inline]
    pub fn session(&self) -> GateSession<'_> {
        GateSession {
            id: self.id,
            mem: self.mem.borrow_mut(),
            rng: &self.rng,
            state: &self.state,
            work: &self.work,
        }
    }
}

impl std::fmt::Debug for EngineGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineGate").field("id", &self.id).finish()
    }
}

/// One credit for the next operation (shared by [`EngineGate`] and
/// [`GateSession`]). Nothing can be owed while a credit is in hand (see
/// [`ProcState::parked`]), so the credit pays for the operation right
/// after every parked one.
#[inline(always)]
fn take_credit(state: &ProcState, work: &Cell<u64>) -> bool {
    let credit = state.credit.get();
    if credit > 0 {
        state.credit.set(credit - 1);
        state.ops.set(state.ops.get() + 1);
        work.set(work.get() + 1);
        true
    } else {
        false
    }
}

/// A borrowed fast path over an [`EngineGate`] for engines that execute
/// many atomic operations per poll: the shared memory is borrowed **once
/// per poll** instead of once per operation. The private RNG is borrowed
/// per draw, so a poll that draws nothing pays no RNG borrow.
///
/// Acquire with [`EngineGate::session`] at poll entry and drop before
/// returning — the machine (and any instrumentation hooks outside the
/// poll) must be able to reborrow. Every effect is identical to the
/// corresponding [`Ctx`] operation's.
pub struct GateSession<'a> {
    id: ProcId,
    mem: std::cell::RefMut<'a, SharedMemory>,
    rng: &'a RefCell<SmallRng>,
    state: &'a ProcState,
    work: &'a Cell<u64>,
}

impl GateSession<'_> {
    /// Atomic operations executed so far by this processor, parked ones
    /// included (they are already applied).
    #[inline]
    pub fn ops(&self) -> u64 {
        self.state.ops.get().saturating_add(self.state.parked.get())
    }

    /// [`EngineGate::take_credit`].
    #[inline]
    pub fn take_credit(&mut self) -> bool {
        take_credit(self.state, self.work)
    }

    /// Pay for `k` local operations whose effects the engine applies at
    /// once: the credits in hand cover what they can, and the rest is
    /// owed. The machine settles owed credits without polling; see the
    /// module docs for the contract (no shared-memory access or other
    /// observable effect, and the future must take at least one more
    /// credit before it completes). `u64::MAX` parks forever: a
    /// busy-waiting engine is then never polled again.
    #[inline]
    pub fn park(&mut self, k: u64) {
        let st = self.state;
        let owed = st.parked.get().saturating_add(k);
        let paid = owed.min(st.credit.get());
        st.credit.set(st.credit.get() - paid);
        st.ops.set(st.ops.get() + paid);
        self.work.set(self.work.get() + paid);
        st.parked.set(owed - paid);
    }

    /// The shared-memory effect of [`Ctx::read`]. Call after
    /// [`take_credit`](GateSession::take_credit).
    #[inline]
    pub fn load(&mut self, addr: usize) -> Stamped {
        self.mem.load(addr, self.id)
    }

    /// The shared-memory effect of [`Ctx::write`]. Call after
    /// [`take_credit`](GateSession::take_credit).
    #[inline]
    pub fn store(&mut self, addr: usize, w: Stamped) {
        self.mem.store(addr, w, self.id);
    }

    /// The shared-memory effect of [`Ctx::cas`]. Call after
    /// [`take_credit`](GateSession::take_credit).
    #[inline]
    pub fn cas(&mut self, addr: usize, expect: Stamped, new: Stamped) -> Stamped {
        self.mem.cas(addr, expect, new, self.id)
    }

    /// The RNG effect of [`Ctx::rand_below`]. Call after
    /// [`take_credit`](GateSession::take_credit).
    ///
    /// # Panics
    /// If `bound == 0`.
    #[inline]
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "rand_below(0)");
        self.rng.borrow_mut().gen_range(0..bound)
    }
}

/// Leaf future implementing the credit protocol: completes exactly when an
/// op credit is available, consuming it; otherwise yields to the executor.
///
/// Consuming a credit advances the global work counter — the op *is* the
/// work unit, and charging it here (instead of once per tick in the
/// machine) is what lets the machine grant a multi-tick run of credits in
/// a single poll while `work_now()` and write-event stamps still advance
/// op by op, exactly as under per-tick polling.
struct OpTick<'a> {
    state: &'a ProcState,
    work: &'a Cell<u64>,
}

impl Future for OpTick<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let st = self.state;
        let credit = st.credit.get();
        if credit > 0 {
            st.credit.set(credit - 1);
            st.ops.set(st.ops.get() + 1);
            self.work.set(self.work.get() + 1);
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}
