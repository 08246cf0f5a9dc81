//! Instructions: `z ← f(x, y)` with static addresses.
//!
//! The paper's formal model fixes, for every step π and thread `i`, the
//! locations `x_i^{(π)}, y_i^{(π)}, z_i^{(π)}` — addresses never depend on
//! data. We keep exactly that (README.md, "Design notes:
//! static-address EREW programs"): operands are variables or
//! constants, destinations are variables, all resolved at program-build
//! time. Static addressing is what makes the *last-write table* computable,
//! which the execution scheme's stamp validation relies on.

use crate::op::{Op, Value};

/// Index of a program variable (a cell of the PRAM program's memory).
pub type VarId = usize;

/// An instruction operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read the variable.
    Var(VarId),
    /// An immediate constant (lives in the instruction, costs no read).
    Const(Value),
}

impl Operand {
    /// The variable read, if any.
    pub fn var(&self) -> Option<VarId> {
        match self {
            Operand::Var(v) => Some(*v),
            Operand::Const(_) => None,
        }
    }
}

/// One instruction `dst ← op(a, b)` of some thread at some step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Instr {
    /// Destination variable `z`.
    pub dst: VarId,
    /// The basic operation `f`.
    pub op: Op,
    /// First operand `x`.
    pub a: Operand,
    /// Second operand `y`.
    pub b: Operand,
}

impl Instr {
    /// Construct an instruction.
    pub fn new(dst: VarId, op: Op, a: Operand, b: Operand) -> Self {
        Instr { dst, op, a, b }
    }

    /// The variables this instruction reads (0, 1 or 2 entries).
    pub fn reads(&self) -> impl Iterator<Item = VarId> {
        self.a.var().into_iter().chain(self.b.var())
    }

    /// Whether the instruction is nondeterministic.
    pub fn is_nondeterministic(&self) -> bool {
        !self.op.is_deterministic()
    }
}

impl std::fmt::Display for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fmt_operand = |o: &Operand| match o {
            Operand::Var(v) => format!("v{v}"),
            Operand::Const(c) => format!("#{c}"),
        };
        write!(
            f,
            "v{} <- {:?}({}, {})",
            self.dst,
            self.op,
            fmt_operand(&self.a),
            fmt_operand(&self.b)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_lists_variable_operands_only() {
        let i = Instr::new(5, Op::Add, Operand::Var(1), Operand::Const(3));
        assert_eq!(i.reads().collect::<Vec<_>>(), vec![1]);
        let i = Instr::new(5, Op::Add, Operand::Var(1), Operand::Var(2));
        assert_eq!(i.reads().collect::<Vec<_>>(), vec![1, 2]);
        let i = Instr::new(5, Op::Mov, Operand::Const(7), Operand::Const(0));
        assert_eq!(i.reads().count(), 0);
    }

    #[test]
    fn nondeterminism_flag() {
        assert!(
            Instr::new(0, Op::RandBit, Operand::Const(0), Operand::Const(0)).is_nondeterministic()
        );
        assert!(!Instr::new(0, Op::Add, Operand::Var(1), Operand::Var(2)).is_nondeterministic());
    }

    #[test]
    fn display_is_readable() {
        let i = Instr::new(3, Op::Mul, Operand::Var(1), Operand::Const(2));
        assert_eq!(format!("{i}"), "v3 <- Mul(v1, #2)");
    }
}
