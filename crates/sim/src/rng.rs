//! Deterministic randomness streams.
//!
//! Two *independent* families of randomness exist in the model:
//!
//! 1. the **adversary's schedule**, which must be fixed before the execution
//!    and independent of all dynamic random choices (the *oblivious*
//!    adversary of the A-PRAM, paper §1);
//! 2. the **processors' private random sources** (one per processor).
//!
//! Both are derived from one master seed through domain-separated SplitMix64
//! streams, which makes every run bit-for-bit reproducible while keeping the
//! schedule stream statistically independent of the protocol streams — the
//! schedule is a pure function of `(master_seed)`, never of protocol draws,
//! so obliviousness holds *by construction*.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Domain tag for schedule randomness.
pub const STREAM_SCHEDULE: u64 = 0x5C4ED;
/// Domain tag for per-processor protocol randomness.
pub const STREAM_PROC: u64 = 0x9206C;
/// Domain tag for auxiliary harness randomness (workload generation, …).
pub const STREAM_AUX: u64 = 0xA0C11;

/// One step of the SplitMix64 generator. Small, fast, and good enough for
/// seed derivation (its intended use here).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a sub-seed for stream `stream`, salt `salt`, from `master`.
pub fn derive_seed(master: u64, stream: u64, salt: u64) -> u64 {
    let mut s = master ^ stream.rotate_left(24) ^ salt.rotate_left(48);
    let a = splitmix64(&mut s);
    let b = splitmix64(&mut s);
    a ^ b.rotate_left(32)
}

/// A seeded small RNG (the concrete generator behind schedules and
/// processors).
pub fn small_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// RNG for the oblivious adversary's schedule.
pub fn schedule_rng(master: u64) -> SmallRng {
    small_rng(derive_seed(master, STREAM_SCHEDULE, 0))
}

/// RNG for processor `pid`'s private random source.
pub fn proc_rng(master: u64, pid: usize) -> SmallRng {
    small_rng(derive_seed(master, STREAM_PROC, pid as u64))
}

/// RNG for harness-level auxiliary randomness.
pub fn aux_rng(master: u64, salt: u64) -> SmallRng {
    small_rng(derive_seed(master, STREAM_AUX, salt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 0 from the published SplitMix64.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn derive_is_deterministic_and_separated() {
        assert_eq!(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
        assert_ne!(
            derive_seed(1, STREAM_SCHEDULE, 0),
            derive_seed(1, STREAM_PROC, 0)
        );
        assert_ne!(
            derive_seed(1, STREAM_PROC, 0),
            derive_seed(1, STREAM_PROC, 1)
        );
        assert_ne!(
            derive_seed(1, STREAM_PROC, 0),
            derive_seed(2, STREAM_PROC, 0)
        );
    }

    #[test]
    fn rng_streams_reproducible() {
        let mut a = proc_rng(42, 7);
        let mut b = proc_rng(42, 7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn schedule_stream_differs_from_proc_streams() {
        let mut s = schedule_rng(42);
        let mut p = proc_rng(42, 0);
        let same = (0..32).filter(|_| s.next_u64() == p.next_u64()).count();
        assert!(same < 2, "streams should look independent");
    }
}
