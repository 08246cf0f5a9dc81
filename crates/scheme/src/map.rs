//! Shared-memory map of the execution scheme.
//!
//! One machine hosts (Fig. 1): the phase clock, the `NewVal` structure —
//! a bin array for the nondeterministic scheme, a single-cell array for the
//! deterministic baseline — and the program variables, each stored as `K`
//! stamped replicas (README.md, "Design notes: replicated program
//! variables").
//!
//! Stamp conventions:
//! * clock value `v` ⇒ step `π = v/2`; even `v` = Compute subphase of π,
//!   odd = Copy subphase of π;
//! * bin / NewVal cells are stamped with the *clock value* of their Compute
//!   subphase (`2π`), via [`BinLayout::stamp_for`];
//! * variable replicas are stamped `s+1` where `s` is the step that wrote
//!   them (0 = initial value) — exactly the program's
//!   [`LastWriteTable`](apex_pram::LastWriteTable) encoding.

use apex_clock::PhaseClock;
use apex_core::{AgreementConfig, BinLayout};
use apex_pram::{Program, VarId};
use apex_sim::{Region, RegionAllocator};

/// Replication factor for program variables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaK(pub usize);

impl Default for ReplicaK {
    fn default() -> Self {
        ReplicaK(2)
    }
}

/// The assembled memory map.
#[derive(Clone, Copy, Debug)]
pub struct SchemeMap {
    /// The phase clock.
    pub clock: PhaseClock,
    /// `NewVal` bins (nondeterministic scheme). Also allocated (one cell
    /// per thread) as [`SchemeMap::newval`] for the deterministic baseline.
    pub bins: BinLayout,
    /// Single-cell `NewVal[i]` array (deterministic baseline; decision
    /// cells for the scan-consensus and ideal-CAS comparators).
    pub newval: Region,
    /// Proposal matrix `proposals[i·n + p]` (scan-consensus comparator
    /// only; `None` otherwise).
    pub proposals: Option<Region>,
    /// Program variables: `vars[var · K + replica]`.
    pub vars: Region,
    /// Replication factor K.
    pub k: usize,
    /// Number of program variables.
    pub n_vars: usize,
}

impl SchemeMap {
    /// Lay out all structures for `program` under `cfg`. The proposal
    /// matrix (n² cells) is only allocated when `with_proposals` is set.
    pub fn new(
        alloc: &mut RegionAllocator,
        cfg: &AgreementConfig,
        program: &Program,
        k: ReplicaK,
        with_proposals: bool,
    ) -> Self {
        assert!(k.0 >= 1);
        assert_eq!(cfg.n, program.n_threads, "one bin per thread");
        let clock = PhaseClock::new(alloc, cfg.n);
        let bins = BinLayout::new(alloc, cfg.n, cfg.cells_per_bin);
        let newval = alloc.alloc(cfg.n);
        let proposals = with_proposals.then(|| alloc.alloc(cfg.n * cfg.n));
        let vars = alloc.alloc(program.mem_size * k.0);
        SchemeMap {
            clock,
            bins,
            newval,
            proposals,
            vars,
            k: k.0,
            n_vars: program.mem_size,
        }
    }

    /// Address of replica `r` of variable `var`.
    #[inline]
    pub fn var_addr(&self, var: VarId, r: usize) -> usize {
        assert!(var < self.n_vars && r < self.k);
        self.vars.addr(var * self.k + r)
    }

    /// Address of processor `p`'s proposal slot for value `i`.
    #[inline]
    pub fn proposal_addr(&self, n: usize, i: usize, p: usize) -> usize {
        self.proposals
            .expect("proposals not allocated")
            .addr(i * n + p)
    }

    /// Clock value of the Compute subphase of step π.
    #[inline]
    pub fn compute_clock(step: u64) -> u64 {
        2 * step
    }

    /// Clock value of the Copy subphase of step π.
    #[inline]
    pub fn copy_clock(step: u64) -> u64 {
        2 * step + 1
    }

    /// Decode a clock value into `(step, is_copy)`.
    #[inline]
    pub fn decode_clock(v: u64) -> (u64, bool) {
        (v / 2, v % 2 == 1)
    }

    /// The clock value at which the whole `t_steps`-step program is done.
    #[inline]
    pub fn done_clock(t_steps: u64) -> u64 {
        2 * t_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_pram::library::tree_reduce;
    use apex_pram::Op;

    #[test]
    fn regions_are_disjoint_and_sized() {
        let built = tree_reduce(Op::Add, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let cfg = AgreementConfig::for_n(8, 6);
        let mut alloc = RegionAllocator::new();
        let map = SchemeMap::new(&mut alloc, &cfg, &built.program, ReplicaK(2), false);
        assert_eq!(map.n_vars, built.program.mem_size);
        assert_eq!(map.vars.len, 2 * built.program.mem_size);
        // Disjointness by construction: sequential allocator.
        assert!(map.clock.region().end() <= map.bins.region().base);
        assert!(map.bins.region().end() <= map.newval.base);
        assert!(map.newval.end() <= map.vars.base);
        assert_eq!(alloc.total(), map.vars.end());
        // Replica addressing is injective.
        let mut seen = std::collections::HashSet::new();
        for v in 0..map.n_vars {
            for r in 0..2 {
                assert!(seen.insert(map.var_addr(v, r)));
            }
        }
    }

    #[test]
    fn clock_step_mapping_roundtrips() {
        for step in 0..10u64 {
            assert_eq!(
                SchemeMap::decode_clock(SchemeMap::compute_clock(step)),
                (step, false)
            );
            assert_eq!(
                SchemeMap::decode_clock(SchemeMap::copy_clock(step)),
                (step, true)
            );
        }
        assert_eq!(SchemeMap::done_clock(5), 10);
    }

    #[test]
    #[should_panic]
    fn replica_bounds_checked() {
        let built = tree_reduce(Op::Add, &[1, 2]);
        let cfg = AgreementConfig::for_n(2, 6);
        let mut alloc = RegionAllocator::new();
        let map = SchemeMap::new(&mut alloc, &cfg, &built.program, ReplicaK(2), false);
        let _ = map.var_addr(0, 2);
    }
}
