//! # apex-scheme — executing synchronous PRAM programs on the A-PRAM
//!
//! The paper's §2: the asynchronous system executes an `n`-thread
//! synchronous EREW PRAM program in a sequence of *phases*, one per PRAM
//! step, each split into a **Compute** and a **Copy** subphase (Fig. 1; the
//! split-execution device of Kedem–Palem–Spirakis keeps re-executed tasks
//! idempotent). The Phase Clock paces the subphases, guaranteeing w.h.p.
//! that no subphase starts before the previous one's tasks are all done.
//!
//! Two schemes are provided:
//!
//! * [`SchemeKind::Nondet`] — **the paper's contribution**: the Compute
//!   subphase *is* the bin-array agreement protocol, so all processors
//!   agree on every `NewVal[i]` before anything is copied. Works for
//!   nondeterministic (e.g. randomized) programs; overhead
//!   `O(log n log log n)`.
//! * [`SchemeKind::DetBaseline`] — the prior-work scheme: `NewVal[i]` is a
//!   single cell, tasks skip already-computed entries. Correct only for
//!   deterministic programs; running a randomized program through it
//!   produces inconsistent executions, which [`verify`] detects
//!   (experiment E10).
//!
//! Program variables are K-replicated stamped cells with last-write-table
//! validation (the tardy-writer defense; README.md, "Design notes: replicated program
//! variables").
//!
//! ```
//! use apex_scheme::{SchemeKind, SchemeRun, SchemeRunConfig};
//! use apex_pram::library::coin_sum;
//!
//! // Run a randomized program on 8 asynchronous processors.
//! let built = coin_sum(8, 32);
//! let report = SchemeRun::new(
//!     built.program, SchemeRunConfig::new(SchemeKind::Nondet, 1)).run();
//! assert!(report.verify.ok());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod drivers;
mod harness;
mod map;
mod report;
mod source;
pub mod tasks;
pub mod verify;

pub use drivers::{SchemeKind, SchemeProcessor};
pub use harness::{SchemeParts, SchemeRun, SchemeRunConfig};
pub use map::{ReplicaK, SchemeMap};
pub use report::SchemeReport;
pub use source::InstrSource;
pub use verify::{ObservedRun, VerifyReport};
