//! Clock sizing.

use apex_sim::math::ceil_log2;

/// Parameters of the phase-clock construction.
///
/// The clock is an array of `cells` raw counters. The integral clock value
/// (the *level*) is `max(counter) / threshold`: counters trickle upward one
/// unit per `Update-Clock` (two-choice increment of the minimum), so one
/// level costs ≈ `threshold · cells` updates — the Θ(n)-updates-per-tick
/// contract — while the *crossing* of a level boundary is sharp: two-choice
/// keeps the counters within a few units of each other, so all readers see
/// the new level within a `O(spread/threshold)` fraction of the level
/// duration. A wide transition band would let processors disagree about the
/// current phase for a constant fraction of every phase, flooding the bin
/// array with clobbers; sharpness is what keeps Lemma 1's clobber count
/// logarithmic (see README.md, "Design notes: phase clock construction").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockConfig {
    /// Number of raw counter cells `m` (`max(n, 4)`).
    pub cells: usize,
    /// Samples taken by `Read-Clock` (Θ(log n), odd by convention).
    pub read_samples: usize,
    /// Counter units per clock level (`T`). Larger `T` sharpens phase
    /// transitions (band ∝ spread/T) at the cost of more updates per level.
    pub threshold: u64,
}

impl ClockConfig {
    /// Default counter units per level.
    pub const DEFAULT_THRESHOLD: u64 = 64;

    /// Default sizing for an `n`-processor machine:
    /// `m = max(n, 4)` cells, `2⌈log₂ n⌉ + 3` read samples, `T = 64`.
    pub fn for_n(n: usize) -> Self {
        let cells = n.max(4);
        let s = 2 * ceil_log2(n) as usize + 3;
        ClockConfig {
            cells,
            read_samples: s | 1,
            threshold: Self::DEFAULT_THRESHOLD,
        }
    }

    /// Same sizing with an explicit threshold (ablations).
    pub fn for_n_with_threshold(n: usize, threshold: u64) -> Self {
        assert!(threshold >= 1);
        ClockConfig {
            threshold,
            ..Self::for_n(n)
        }
    }

    /// Exact op cost of one `Update-Clock` invocation (O(1) per contract):
    /// two random draws, two reads, one write.
    pub const fn update_cost() -> u64 {
        5
    }

    /// Exact op cost of one `Read-Clock` invocation (Θ(log n) per
    /// contract): per sample one random draw, one read, one register
    /// incorporation; plus one final division by `T`.
    pub const fn read_cost(&self) -> u64 {
        3 * self.read_samples as u64 + 1
    }

    /// Conservative lower bound on updates needed to advance one level
    /// (the contract's α₁·n with α₁ = T/2 in per-`n` units): each update
    /// raises one counter by one, counters stay concentrated, and the
    /// maximum must climb a full `T` units carried by the whole array.
    pub fn min_updates_per_advance(&self) -> u64 {
        (self.cells as u64) * self.threshold / 2
    }

    /// Expected updates per level (`T·m`); the measured α₂ (experiment E9)
    /// sits slightly above this.
    pub fn nominal_updates_per_advance(&self) -> u64 {
        (self.cells as u64) * self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_scales_logarithmically() {
        let c16 = ClockConfig::for_n(16);
        let c1024 = ClockConfig::for_n(1024);
        assert_eq!(c16.cells, 16);
        assert_eq!(c1024.cells, 1024);
        assert_eq!(c16.read_samples % 2, 1, "odd sample count");
        assert!(c1024.read_samples > c16.read_samples);
        assert!(c1024.read_samples <= 2 * 10 + 4);
    }

    #[test]
    fn tiny_n_is_padded() {
        let c = ClockConfig::for_n(1);
        assert!(c.cells >= 4);
        assert!(c.read_samples >= 3);
    }

    #[test]
    fn costs_are_exact_formulas() {
        let c = ClockConfig::for_n(64);
        assert_eq!(ClockConfig::update_cost(), 5);
        assert_eq!(c.read_cost(), 3 * c.read_samples as u64 + 1);
        assert_eq!(c.min_updates_per_advance(), 64 * 64 / 2);
        assert_eq!(c.nominal_updates_per_advance(), 64 * 64);
    }

    #[test]
    fn threshold_is_configurable() {
        let c = ClockConfig::for_n_with_threshold(32, 16);
        assert_eq!(c.threshold, 16);
        assert_eq!(c.min_updates_per_advance(), 32 * 16 / 2);
    }

    #[test]
    #[should_panic]
    fn zero_threshold_rejected() {
        ClockConfig::for_n_with_threshold(8, 0);
    }
}
