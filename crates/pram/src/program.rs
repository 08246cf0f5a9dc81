//! The synchronous EREW PRAM program: validation and static analysis.

use std::collections::HashMap;

use crate::instr::{Instr, VarId};
use crate::op::Value;

/// A complete `n`-thread, `T`-step EREW PRAM program.
///
/// `steps[π][i]` is thread `i`'s instruction at step π (`None` = the thread
/// idles that step). On the ideal machine all instructions of a step execute
/// simultaneously with read-before-write semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Program name (reports).
    pub name: String,
    /// Number of threads `n`.
    pub n_threads: usize,
    /// Number of program variables (the PRAM program's memory size).
    pub mem_size: usize,
    /// Initial variable values (length `mem_size`).
    pub init: Vec<Value>,
    /// `steps[π][i]`.
    pub steps: Vec<Vec<Option<Instr>>>,
}

/// A violation found by [`Program::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// A step row has the wrong number of thread slots.
    MalformedStep {
        /// The offending step.
        step: usize,
    },
    /// An instruction references a variable out of bounds.
    OutOfBounds {
        /// The offending step.
        step: usize,
        /// The offending thread.
        thread: usize,
        /// The variable referenced.
        var: VarId,
    },
    /// Strict EREW violation: two threads touch the same variable in the
    /// same step (read or write).
    ErewConflict {
        /// The offending step.
        step: usize,
        /// The shared variable.
        var: VarId,
        /// The two threads involved.
        threads: (usize, usize),
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::MalformedStep { step } => write!(f, "step {step} malformed"),
            ProgramError::OutOfBounds { step, thread, var } => {
                write!(
                    f,
                    "step {step} thread {thread}: variable v{var} out of bounds"
                )
            }
            ProgramError::ErewConflict { step, var, threads } => write!(
                f,
                "step {step}: threads {} and {} both access v{var} (EREW violation)",
                threads.0, threads.1
            ),
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Number of steps `T`.
    pub fn n_steps(&self) -> usize {
        self.steps.len()
    }

    /// The instruction of `(step, thread)`.
    pub fn instr(&self, step: usize, thread: usize) -> Option<&Instr> {
        self.steps.get(step)?.get(thread)?.as_ref()
    }

    /// Total non-idle instructions.
    pub fn n_instructions(&self) -> usize {
        self.steps.iter().map(|s| s.iter().flatten().count()).sum()
    }

    /// Whether any instruction is nondeterministic.
    pub fn is_nondeterministic(&self) -> bool {
        self.steps
            .iter()
            .flat_map(|s| s.iter().flatten())
            .any(|i| i.is_nondeterministic())
    }

    /// Validate shape, bounds, and the strict EREW discipline: within one
    /// step, every variable is accessed (read *or* written) by at most one
    /// thread. A single thread may both read and write the same variable
    /// (`z ← f(z, y)` accumulators are legal; reads precede writes).
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.init.len() != self.mem_size {
            return Err(ProgramError::MalformedStep { step: usize::MAX });
        }
        for (step, row) in self.steps.iter().enumerate() {
            if row.len() != self.n_threads {
                return Err(ProgramError::MalformedStep { step });
            }
            let mut touched: HashMap<VarId, usize> = HashMap::new();
            for (thread, slot) in row.iter().enumerate() {
                let Some(instr) = slot else { continue };
                for var in instr.reads().chain([instr.dst]) {
                    if var >= self.mem_size {
                        return Err(ProgramError::OutOfBounds { step, thread, var });
                    }
                    match touched.entry(var) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(thread);
                        }
                        std::collections::hash_map::Entry::Occupied(e) => {
                            if *e.get() != thread {
                                return Err(ProgramError::ErewConflict {
                                    step,
                                    var,
                                    threads: (*e.get(), thread),
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Compute the *last-write table*: `lw(var, step)` = the stamp a reader
    /// of `var` at step π must expect. Stamps encode "written at step s" as
    /// `s + 1`; the initial value carries stamp 0.
    ///
    /// This is computable exactly because addressing is static — the
    /// execution scheme's replica validation is built on it (README.md,
    /// "Design notes: replicated program variables").
    pub fn last_write_table(&self) -> LastWriteTable {
        let mut writes: Vec<Vec<u64>> = vec![Vec::new(); self.mem_size];
        for (step, row) in self.steps.iter().enumerate() {
            for slot in row.iter().flatten() {
                writes[slot.dst].push(step as u64);
            }
        }
        LastWriteTable { writes }
    }

    /// Per-step count of active threads (diagnostics).
    pub fn activity(&self) -> Vec<usize> {
        self.steps
            .iter()
            .map(|s| s.iter().flatten().count())
            .collect()
    }
}

/// Stamp oracle derived from the program text (static analysis).
#[derive(Clone, Debug)]
pub struct LastWriteTable {
    /// For each variable, the sorted list of steps that write it.
    writes: Vec<Vec<u64>>,
}

impl LastWriteTable {
    /// The stamp a reader of `var` at the *start* of step `step` expects:
    /// `s+1` for the last write step `s < step`, or 0 (initial value).
    pub fn expected_stamp(&self, var: VarId, step: u64) -> u64 {
        let w = &self.writes[var];
        match w.partition_point(|s| *s < step) {
            0 => 0,
            k => w[k - 1] + 1,
        }
    }

    /// Steps at which `var` is written.
    pub fn write_steps(&self, var: VarId) -> &[u64] {
        &self.writes[var]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Operand;
    use crate::op::Op;

    fn prog(n: usize, mem: usize, steps: Vec<Vec<Option<Instr>>>) -> Program {
        Program {
            name: "test".into(),
            n_threads: n,
            mem_size: mem,
            init: vec![0; mem],
            steps,
        }
    }

    #[test]
    fn valid_program_passes() {
        // Step 0: T0: v2 = v0+v1 ; T1: v3 = RandBit.
        let p = prog(
            2,
            4,
            vec![vec![
                Some(Instr::new(2, Op::Add, Operand::Var(0), Operand::Var(1))),
                Some(Instr::new(
                    3,
                    Op::RandBit,
                    Operand::Const(0),
                    Operand::Const(0),
                )),
            ]],
        );
        assert!(p.validate().is_ok());
        assert_eq!(p.n_instructions(), 2);
        assert!(p.is_nondeterministic());
        assert_eq!(p.activity(), vec![2]);
    }

    #[test]
    fn two_readers_of_one_var_rejected() {
        let p = prog(
            2,
            4,
            vec![vec![
                Some(Instr::new(2, Op::Mov, Operand::Var(0), Operand::Const(0))),
                Some(Instr::new(3, Op::Mov, Operand::Var(0), Operand::Const(0))),
            ]],
        );
        assert_eq!(
            p.validate(),
            Err(ProgramError::ErewConflict {
                step: 0,
                var: 0,
                threads: (0, 1)
            })
        );
    }

    #[test]
    fn reader_and_writer_of_one_var_rejected() {
        let p = prog(
            2,
            4,
            vec![vec![
                Some(Instr::new(0, Op::Mov, Operand::Const(1), Operand::Const(0))),
                Some(Instr::new(3, Op::Mov, Operand::Var(0), Operand::Const(0))),
            ]],
        );
        assert!(matches!(
            p.validate(),
            Err(ProgramError::ErewConflict { var: 0, .. })
        ));
    }

    #[test]
    fn accumulator_within_one_thread_is_legal() {
        let p = prog(
            1,
            2,
            vec![vec![Some(Instr::new(
                0,
                Op::Add,
                Operand::Var(0),
                Operand::Var(1),
            ))]],
        );
        assert!(p.validate().is_ok());
    }

    #[test]
    fn out_of_bounds_rejected() {
        let p = prog(
            1,
            2,
            vec![vec![Some(Instr::new(
                5,
                Op::Mov,
                Operand::Const(0),
                Operand::Const(0),
            ))]],
        );
        assert!(matches!(
            p.validate(),
            Err(ProgramError::OutOfBounds { var: 5, .. })
        ));
    }

    #[test]
    fn last_write_table_tracks_stamps() {
        // v0 written at steps 0 and 2; v1 never written.
        let w = |step_dst: VarId| {
            Some(Instr::new(
                step_dst,
                Op::Mov,
                Operand::Const(1),
                Operand::Const(0),
            ))
        };
        let p = prog(1, 2, vec![vec![w(0)], vec![None], vec![w(0)]]);
        let lw = p.last_write_table();
        assert_eq!(lw.expected_stamp(0, 0), 0, "before step 0: initial");
        assert_eq!(lw.expected_stamp(0, 1), 1, "written at step 0");
        assert_eq!(lw.expected_stamp(0, 2), 1);
        assert_eq!(lw.expected_stamp(0, 3), 3, "written at step 2");
        assert_eq!(lw.expected_stamp(1, 3), 0, "never written");
        assert_eq!(lw.write_steps(0), &[0, 2]);
    }

    #[test]
    fn idle_threads_are_no_accesses() {
        let p = prog(2, 1, vec![vec![None, None]]);
        assert!(p.validate().is_ok());
        assert_eq!(p.n_instructions(), 0);
        assert!(!p.is_nondeterministic());
    }
}
