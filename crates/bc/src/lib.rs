//! # apex-bc — flat bytecode compiler + VM for the scheme hot loop
//!
//! ROADMAP direction 3: the tree-walking scheme processors pay interpreter
//! overhead on every atomic operation — boxed `dyn` value-source futures,
//! per-operand last-write binary searches, asserted address arithmetic,
//! cycle-log bookkeeping, and deep nested poll chains. This crate lowers a
//! resolved program *once*, at machine-assembly time, into a contiguous
//! slot table with pre-resolved operand addresses and expected stamps
//! ([`compile`]), and executes it with a flat VM over the simulator's
//! synchronous [`EngineGate`] credit protocol.
//!
//! The VM is op-for-op identical to the tree walker — same operation
//! kinds, addresses, and RNG draws per processor per tick — so schedules,
//! work accounting, memory stamps, and reports are byte-identical; only
//! throughput changes. The tree walker stays the oracle:
//! `tests/bytecode_determinism.rs` diffs the two engines over synthesized
//! programs × adversary trees and the committed corpus.
//!
//! Local operations (private RNG draws, clock arithmetic, instruction
//! computes, ω-padding, the final drain) are never polled: the VM parks
//! their credits through
//! [`GateSession::park`](apex_sim::GateSession::park) and the machine
//! settles them without calling into the VM, so under one-credit
//! (interleaving) adversaries only shared-memory operations cost a poll.
//! Each processor's VM is boxed once, by the machine.
//!
//! Entry point: [`factory`], which plugs into
//! [`SchemeRun::new_with_factory`](apex_scheme::SchemeRun::new_with_factory).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod compile;
#[cfg(test)]
mod tests;
mod vm;

use std::rc::Rc;

use apex_scheme::SchemeParts;
use apex_sim::{Ctx, EngineGate};

pub use compile::{compile, CompileStats, CompiledScheme};
pub use vm::Vm;

/// Compile `parts` and return the per-processor builder for
/// [`SchemeRun::new_with_factory`](apex_scheme::SchemeRun::new_with_factory):
/// each processor gets a VM over the shared compiled table, driven by the
/// machine through the same credit protocol as the tree-walking
/// processors.
pub fn factory(parts: &SchemeParts) -> impl FnMut(Ctx) -> Vm {
    factory_of(Rc::new(compile(parts)), parts)
}

/// [`factory`] over an already-lowered table. Callers that want the
/// [`CompileStats`] before the run starts (the scenario layer's `compile.*`
/// trace instrument) call [`compile`] themselves and hand the result in,
/// so lowering still happens exactly once.
pub fn factory_of(prog: Rc<CompiledScheme>, parts: &SchemeParts) -> impl FnMut(Ctx) -> Vm {
    let events = parts.events.clone();
    move |ctx| Vm::new(prog.clone(), EngineGate::new(&ctx), events.clone())
}
