//! Program library: the synchronous EREW workloads used by the examples,
//! tests and experiments.
//!
//! Every program here is *strictly EREW* (each variable touched by at most
//! one thread per step — validated at build time) and *static-address*
//! (the paper's model; README.md, "Design notes: static-address EREW
//! programs"). Data-dependent behaviour is encoded
//! branchlessly; nondeterminism comes only from `RandBit`/`RandBelow`
//! instructions.

mod allreduce;
mod matvec;
mod randomized;
mod reduce;
mod scan;
mod sort;
mod stencil;

pub use allreduce::hypercube_allreduce;
pub use matvec::matvec;
pub use randomized::{coin_sum, leader_election, random_walks};
pub use reduce::tree_reduce;
pub use scan::blelloch_scan;
pub use sort::odd_even_sort;
pub use stencil::jacobi_smooth;

use crate::builder::VarBlock;
use crate::op::Op;
use crate::program::Program;

/// A library program together with its I/O conventions.
#[derive(Clone, Debug)]
pub struct Built {
    /// The validated program.
    pub program: Program,
    /// Input variables.
    pub inputs: VarBlock,
    /// Output variables.
    pub outputs: VarBlock,
}

/// The deterministic catalogue at problem size `n` (a power of two ≥ 4),
/// with generated inputs. Used by the overhead experiments.
pub fn deterministic_catalog(n: usize, seed: u64) -> Vec<Built> {
    let vals = gen_values(n, seed);
    vec![
        tree_reduce(Op::Add, &vals),
        tree_reduce(Op::Max, &vals),
        blelloch_scan(&vals),
        jacobi_smooth(&vals, 2),
        hypercube_allreduce(Op::Add, &vals),
        matvec(&gen_values(n * n, seed ^ 1), &vals, n),
    ]
}

/// The randomized catalogue at problem size `n`.
pub fn randomized_catalog(n: usize, seed: u64) -> Vec<Built> {
    let vals = gen_values(n, seed);
    vec![
        coin_sum(n, 64),
        random_walks(&vals, 4),
        leader_election(n, 3),
    ]
}

/// Deterministic pseudo-random input data for the catalogues.
pub fn gen_values(n: usize, seed: u64) -> Vec<u64> {
    let mut s = seed.wrapping_add(0xD1B5_4A32_D192_ED03);
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % 1_000
        })
        .collect()
}

pub(crate) fn assert_pow2(n: usize) {
    assert!(
        n >= 2 && n.is_power_of_two(),
        "library programs need a power-of-two n ≥ 2, got {n}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refexec::{execute, Choices};

    #[test]
    fn catalogs_build_and_validate() {
        for built in deterministic_catalog(8, 1)
            .into_iter()
            .chain(randomized_catalog(8, 1))
        {
            assert!(built.program.validate().is_ok(), "{}", built.program.name);
            assert!(built.program.n_steps() > 0);
            // All programs are runnable on the reference executor.
            let _ = execute(&built.program, &Choices::Seeded(1));
        }
    }

    #[test]
    fn deterministic_catalog_is_deterministic() {
        for built in deterministic_catalog(8, 2) {
            assert!(
                !built.program.is_nondeterministic(),
                "{} should be deterministic",
                built.program.name
            );
            let a = execute(&built.program, &Choices::Seeded(1));
            let b = execute(&built.program, &Choices::Seeded(999));
            assert_eq!(a.memory, b.memory, "{}", built.program.name);
        }
    }

    #[test]
    fn randomized_catalog_is_nondeterministic() {
        for built in randomized_catalog(8, 2) {
            assert!(
                built.program.is_nondeterministic(),
                "{} should be nondeterministic",
                built.program.name
            );
        }
    }

    #[test]
    fn gen_values_reproducible_and_bounded() {
        assert_eq!(gen_values(16, 3), gen_values(16, 3));
        assert_ne!(gen_values(16, 3), gen_values(16, 4));
        assert!(gen_values(100, 5).iter().all(|v| *v < 1000));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_pow2_rejected() {
        assert_pow2(6);
    }
}
