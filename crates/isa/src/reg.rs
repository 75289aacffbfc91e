//! Architectural register names.

use std::fmt;

/// One of the 32 general-purpose registers.
///
/// `R0` is hardwired to zero, as in most RISC ISAs; writes to it are
/// discarded by the interpreter and the pipeline simulator alike.
///
/// # Example
///
/// ```
/// use r2d3_isa::Reg;
/// assert_eq!(Reg::R5.index(), 5);
/// assert_eq!(Reg::from_index(5), Some(Reg::R5));
/// assert_eq!(Reg::R5.to_string(), "r5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
#[derive(Default)]
pub enum Reg {
    #[default]
    R0,
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
    R16,
    R17,
    R18,
    R19,
    R20,
    R21,
    R22,
    R23,
    R24,
    R25,
    R26,
    R27,
    R28,
    R29,
    R30,
    R31,
}

impl Reg {
    /// All 32 registers in index order.
    pub const ALL: [Reg; 32] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
        Reg::R16,
        Reg::R17,
        Reg::R18,
        Reg::R19,
        Reg::R20,
        Reg::R21,
        Reg::R22,
        Reg::R23,
        Reg::R24,
        Reg::R25,
        Reg::R26,
        Reg::R27,
        Reg::R28,
        Reg::R29,
        Reg::R30,
        Reg::R31,
    ];

    /// Returns the register's index in `0..32`.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Returns the register with the given index, or `None` if `idx >= 32`.
    #[must_use]
    pub fn from_index(idx: usize) -> Option<Reg> {
        Reg::ALL.get(idx).copied()
    }

    /// Returns `true` for the hardwired-zero register `R0`.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self == Reg::R0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for (i, r) in Reg::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Reg::from_index(i), Some(*r));
        }
    }

    #[test]
    fn from_index_out_of_range() {
        assert_eq!(Reg::from_index(32), None);
        assert_eq!(Reg::from_index(usize::MAX), None);
    }

    #[test]
    fn zero_register() {
        assert!(Reg::R0.is_zero());
        assert!(!Reg::R1.is_zero());
    }

    #[test]
    fn display() {
        assert_eq!(Reg::R0.to_string(), "r0");
        assert_eq!(Reg::R31.to_string(), "r31");
    }
}
