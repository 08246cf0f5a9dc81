//! # apex-clock — the Phase Clock
//!
//! The execution scheme of the paper (§2.1) relies on the *Phase Clock* of
//! Aumann–Rabin \[9\] through exactly this interface contract:
//!
//! * `Read-Clock` returns the current integral clock value in **Θ(log n)**
//!   atomic operations;
//! * `Update-Clock` lets a processor contribute to advancing the clock in
//!   **O(1)** atomic operations;
//! * the clock starts at 0, and for any α₁ > 0 there is an α₂ ≥ α₁ such that
//!   **at least α₁·n** invocations of `Update-Clock` are *necessary* and
//!   **α₂·n are sufficient** (w.h.p.) to advance the clock from one integral
//!   value to the next — *regardless of which processors invoke it*.
//!
//! \[9\] gives a concrete construction; this paper uses it as a black box.
//! We therefore build a construction satisfying the same contract
//! (README.md, "Design notes: phase clock construction"): an array of `m = n` counters.
//!
//! * **Update-Clock** (5 ops): draw two random cell indices, read both,
//!   write `min+1` to the smaller cell ("two-choice increment of the
//!   minimum"). Each update raises one counter by exactly one, and two-choice
//!   balancing keeps the counters tightly concentrated.
//! * The clock's integral value is the **median** counter value. Raising the
//!   median across one level requires at least `m/2` counter increments
//!   (α₁ = 1/2 amortized per level) and O(m) are sufficient w.h.p. —
//!   experiment E9 measures the realized α₂.
//! * **Read-Clock** (3s+1 ops, s = Θ(log n) samples): sample s random
//!   counters and return the median of the samples, which matches the true
//!   median to ±1 w.h.p.
//!
//! Tardy processors can only *lower* counters (a stale update re-writes an
//! old `min+1`), never raise them above values that once existed, so the
//! clock can never advance spuriously; a lowered counter becomes the minimum
//! and is repaired by subsequent two-choice updates. Robustness to sleepers
//! is exercised in this crate's tests and in experiment E9.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod analysis;
mod config;
mod proto;

pub use analysis::{measure_advances, AdvanceStats};
pub use config::ClockConfig;
pub use proto::PhaseClock;
