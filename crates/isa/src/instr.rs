//! Instruction definitions and their mapping onto pipeline units.

use crate::reg::Reg;
use std::fmt;

/// Integer ALU operation, executed in the EXU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    /// Shift left logical (shift amount from `rs2` or immediate, masked to 5 bits).
    Sll,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Set-less-than (signed): `rd = (rs1 < rs2) as u32`.
    Slt,
    /// 32-bit low multiply.
    Mul,
}

impl AluOp {
    /// All ALU operations, in encoding order.
    pub const ALL: [AluOp; 10] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Mul,
    ];

    /// Applies the operation to two operand words.
    #[must_use]
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b & 0x1f),
            AluOp::Srl => a.wrapping_shr(b & 0x1f),
            AluOp::Sra => (a as i32).wrapping_shr(b & 0x1f) as u32,
            AluOp::Slt => u32::from((a as i32) < (b as i32)),
            AluOp::Mul => a.wrapping_mul(b),
        }
    }
}

/// Branch condition evaluated in the EXU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
}

impl BranchCond {
    /// All branch conditions, in encoding order.
    pub const ALL: [BranchCond; 4] =
        [BranchCond::Eq, BranchCond::Ne, BranchCond::Lt, BranchCond::Ge];

    /// Evaluates the condition on two operand words (signed comparison).
    #[must_use]
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i32) < (b as i32),
            BranchCond::Ge => (a as i32) >= (b as i32),
        }
    }
}

/// Floating-point operation, executed in the FFU.
///
/// Operands are general-purpose registers reinterpreted as IEEE-754 `f32`
/// bit patterns, mirroring how the OpenSPARC FFU fronts the FPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FpuOp {
    Fadd,
    Fsub,
    Fmul,
    /// `rd = rd + rs1 * rs2` (fused multiply-accumulate; reads `rd`).
    Fmac,
}

impl FpuOp {
    /// All FPU operations, in encoding order.
    pub const ALL: [FpuOp; 4] = [FpuOp::Fadd, FpuOp::Fsub, FpuOp::Fmul, FpuOp::Fmac];

    /// Applies the operation to bit-pattern operands (`acc` is the old `rd`).
    #[must_use]
    pub fn apply(self, acc: u32, a: u32, b: u32) -> u32 {
        let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
        let out = match self {
            FpuOp::Fadd => fa + fb,
            FpuOp::Fsub => fa - fb,
            FpuOp::Fmul => fa * fb,
            FpuOp::Fmac => f32::from_bits(acc) + fa * fb,
        };
        out.to_bits()
    }
}

/// Software trap codes handled by the TLU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum TrapCode {
    /// Benign syscall-style trap; the simulator treats it as a no-op with
    /// TLU activity.
    Syscall,
    /// Software breakpoint.
    Break,
}

/// The five OpenSPARC T1 pipeline units R2D3 protects (paper Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Unit {
    /// Instruction fetch unit.
    Ifu,
    /// Integer execution unit.
    Exu,
    /// Load/store unit.
    Lsu,
    /// Trap logic unit.
    Tlu,
    /// Floating-point frontend unit.
    Ffu,
}

impl Unit {
    /// All units in Table III order.
    pub const ALL: [Unit; 5] = [Unit::Ifu, Unit::Exu, Unit::Lsu, Unit::Tlu, Unit::Ffu];

    /// Number of distinct units.
    pub const COUNT: usize = 5;

    /// Index of the unit in [`Unit::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Returns the unit with the given index, or `None` if out of range.
    #[must_use]
    pub fn from_index(idx: usize) -> Option<Unit> {
        Unit::ALL.get(idx).copied()
    }

    /// Short uppercase name used in reports (matches the paper's tables).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Unit::Ifu => "IFU",
            Unit::Exu => "EXU",
            Unit::Lsu => "LSU",
            Unit::Tlu => "TLU",
            Unit::Ffu => "FFU",
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A decoded instruction.
///
/// Each variant notes which pipeline unit performs its primary work; this
/// is what drives per-unit activity factors in the lifetime simulation.
/// Field meanings follow RISC convention: `rd` destination, `rs1`/`rs2`
/// sources, `imm`/`offset` immediates (PC-relative offsets in words).
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Register-register ALU operation (EXU).
    Alu { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// Register-immediate ALU operation (EXU).
    AluImm { op: AluOp, rd: Reg, rs1: Reg, imm: i16 },
    /// Load upper immediate: `rd = imm << 16` (EXU).
    Lui { rd: Reg, imm: u16 },
    /// Word load: `rd = mem[rs1 + offset]` (LSU).
    Load { rd: Reg, base: Reg, offset: i16 },
    /// Word store: `mem[rs1 + offset] = rs2` (LSU).
    Store { src: Reg, base: Reg, offset: i16 },
    /// Conditional PC-relative branch, offset in words (EXU resolves).
    Branch { cond: BranchCond, rs1: Reg, rs2: Reg, offset: i16 },
    /// Jump-and-link, PC-relative offset in words; `rd = pc + 1`.
    Jal { rd: Reg, offset: i32 },
    /// Indirect jump-and-link: `rd = pc + 1; pc = rs1 + offset` (words).
    Jalr { rd: Reg, rs1: Reg, offset: i16 },
    /// Floating-point operation (FFU).
    Fpu { op: FpuOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// Software trap (TLU).
    Trap { code: TrapCode },
    /// No operation.
    Nop,
    /// Stop the hart.
    Halt,
}

impl Instruction {
    /// The pipeline unit that performs this instruction's primary work.
    ///
    /// Every instruction also exercises the IFU (fetch); this method
    /// reports the *execute-phase* unit used for activity accounting.
    #[must_use]
    pub fn primary_unit(self) -> Unit {
        match self {
            Instruction::Alu { .. }
            | Instruction::AluImm { .. }
            | Instruction::Lui { .. }
            | Instruction::Branch { .. }
            | Instruction::Jal { .. }
            | Instruction::Jalr { .. } => Unit::Exu,
            Instruction::Load { .. } | Instruction::Store { .. } => Unit::Lsu,
            Instruction::Fpu { .. } => Unit::Ffu,
            Instruction::Trap { .. } => Unit::Tlu,
            Instruction::Nop | Instruction::Halt => Unit::Ifu,
        }
    }

    /// Destination register, if the instruction writes one.
    #[must_use]
    pub fn dest(self) -> Option<Reg> {
        match self {
            Instruction::Alu { rd, .. }
            | Instruction::AluImm { rd, .. }
            | Instruction::Lui { rd, .. }
            | Instruction::Load { rd, .. }
            | Instruction::Jal { rd, .. }
            | Instruction::Jalr { rd, .. }
            | Instruction::Fpu { rd, .. } => (!rd.is_zero()).then_some(rd),
            _ => None,
        }
    }

    /// Source registers read by the instruction (up to three).
    #[must_use]
    pub fn sources(self) -> [Option<Reg>; 3] {
        match self {
            Instruction::Alu { rs1, rs2, .. } => [Some(rs1), Some(rs2), None],
            Instruction::AluImm { rs1, .. } => [Some(rs1), None, None],
            Instruction::Lui { .. } => [None, None, None],
            Instruction::Load { base, .. } => [Some(base), None, None],
            Instruction::Store { src, base, .. } => [Some(src), Some(base), None],
            Instruction::Branch { rs1, rs2, .. } => [Some(rs1), Some(rs2), None],
            Instruction::Jal { .. } => [None, None, None],
            Instruction::Jalr { rs1, .. } => [Some(rs1), None, None],
            // Fmac also reads the accumulator rd.
            Instruction::Fpu { op, rd, rs1, rs2 } => {
                if op == FpuOp::Fmac {
                    [Some(rs1), Some(rs2), Some(rd)]
                } else {
                    [Some(rs1), Some(rs2), None]
                }
            }
            Instruction::Trap { .. } | Instruction::Nop | Instruction::Halt => [None, None, None],
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{op:?} {rd}, {rs1}, {rs2}")
            }
            Instruction::AluImm { op, rd, rs1, imm } => {
                write!(f, "{op:?}i {rd}, {rs1}, {imm}")
            }
            Instruction::Lui { rd, imm } => write!(f, "lui {rd}, {imm:#x}"),
            Instruction::Load { rd, base, offset } => write!(f, "lw {rd}, {offset}({base})"),
            Instruction::Store { src, base, offset } => write!(f, "sw {src}, {offset}({base})"),
            Instruction::Branch { cond, rs1, rs2, offset } => {
                write!(f, "b{cond:?} {rs1}, {rs2}, {offset}")
            }
            Instruction::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Instruction::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Instruction::Fpu { op, rd, rs1, rs2 } => write!(f, "{op:?} {rd}, {rs1}, {rs2}"),
            Instruction::Trap { code } => write!(f, "trap {code:?}"),
            Instruction::Nop => f.write_str("nop"),
            Instruction::Halt => f.write_str("halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(3, 4), 7);
        assert_eq!(AluOp::Sub.apply(3, 4), u32::MAX);
        assert_eq!(AluOp::Sll.apply(1, 33), 2, "shift amount is masked to 5 bits");
        assert_eq!(AluOp::Sra.apply(0x8000_0000, 31), u32::MAX);
        assert_eq!(AluOp::Slt.apply(u32::MAX, 0), 1, "signed compare");
        assert_eq!(AluOp::Mul.apply(0x1_0000, 0x1_0000), 0);
    }

    #[test]
    fn branch_semantics() {
        assert!(BranchCond::Eq.eval(5, 5));
        assert!(BranchCond::Ne.eval(5, 6));
        assert!(BranchCond::Lt.eval(u32::MAX, 0), "signed: -1 < 0");
        assert!(BranchCond::Ge.eval(0, u32::MAX));
    }

    #[test]
    fn fpu_semantics() {
        let two = 2.0f32.to_bits();
        let three = 3.0f32.to_bits();
        assert_eq!(f32::from_bits(FpuOp::Fadd.apply(0, two, three)), 5.0);
        assert_eq!(f32::from_bits(FpuOp::Fmul.apply(0, two, three)), 6.0);
        let acc = 1.0f32.to_bits();
        assert_eq!(f32::from_bits(FpuOp::Fmac.apply(acc, two, three)), 7.0);
    }

    #[test]
    fn unit_mapping() {
        let i = Instruction::Load { rd: Reg::R1, base: Reg::R2, offset: 0 };
        assert_eq!(i.primary_unit(), Unit::Lsu);
        let i = Instruction::Fpu { op: FpuOp::Fadd, rd: Reg::R1, rs1: Reg::R2, rs2: Reg::R3 };
        assert_eq!(i.primary_unit(), Unit::Ffu);
        let i = Instruction::Trap { code: TrapCode::Syscall };
        assert_eq!(i.primary_unit(), Unit::Tlu);
    }

    #[test]
    fn dest_ignores_r0() {
        let i = Instruction::AluImm { op: AluOp::Add, rd: Reg::R0, rs1: Reg::R1, imm: 1 };
        assert_eq!(i.dest(), None);
    }

    #[test]
    fn fmac_reads_accumulator() {
        let i = Instruction::Fpu { op: FpuOp::Fmac, rd: Reg::R4, rs1: Reg::R1, rs2: Reg::R2 };
        assert!(i.sources().contains(&Some(Reg::R4)));
    }

    #[test]
    fn unit_index_roundtrip() {
        for u in Unit::ALL {
            assert_eq!(Unit::from_index(u.index()), Some(u));
        }
        assert_eq!(Unit::from_index(5), None);
    }
}
