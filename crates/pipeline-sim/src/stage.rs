//! Physical pipeline stages: identity, health and fault effects.

use r2d3_isa::Unit;
use std::fmt;

/// Identifies one physical stage in the 3D stack: a unit on a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StageId {
    /// Vertical tier (0 = closest to the heat sink).
    pub layer: usize,
    /// Pipeline unit type.
    pub unit: Unit,
}

impl StageId {
    /// Convenience constructor.
    #[must_use]
    pub fn new(layer: usize, unit: Unit) -> Self {
        StageId { layer, unit }
    }

    /// Flat index within a stack of `layers` tiers (layer-major).
    #[must_use]
    pub fn flat_index(&self) -> usize {
        self.layer * Unit::COUNT + self.unit.index()
    }

    /// Inverse of [`flat_index`](StageId::flat_index).
    #[must_use]
    pub fn from_flat_index(i: usize) -> StageId {
        StageId {
            layer: i / Unit::COUNT,
            unit: Unit::from_index(i % Unit::COUNT).expect("mod COUNT is in range"),
        }
    }

    /// Enumerates every stage of a stack.
    pub fn all(layers: usize) -> impl Iterator<Item = StageId> {
        (0..layers * Unit::COUNT).map(StageId::from_flat_index)
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@L{}", self.unit, self.layer)
    }
}

/// Behavioral effect of a permanent stuck-at defect on a stage's output
/// word: bit `bit` of every value the stage produces is forced to `stuck`.
///
/// This is the behavioral projection of the gate-level stuck-at model the
/// ATPG campaign uses: whether a given operation *manifests* the fault
/// depends on whether the correct output already has that bit at the
/// stuck value — so detection latency is data-dependent, as in silicon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultEffect {
    /// Output bit position (0–31).
    pub bit: u8,
    /// Forced value.
    pub stuck: bool,
}

impl FaultEffect {
    /// Applies the effect to an output word.
    #[must_use]
    pub fn apply(&self, value: u32) -> u32 {
        let mask = 1u32 << (self.bit as u32 & 31);
        if self.stuck {
            value | mask
        } else {
            value & !mask
        }
    }

    /// Whether the effect changes this particular value.
    #[must_use]
    pub fn corrupts(&self, value: u32) -> bool {
        self.apply(value) != value
    }
}

/// Health state of a physical stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StageHealth {
    /// Fully functional.
    #[default]
    Healthy,
    /// Permanently defective with the given behavioral effect.
    Faulty(FaultEffect),
    /// Functional but power-gated (a leftover available for detection
    /// duty or rotation).
    PoweredOff,
}

impl StageHealth {
    /// Whether the stage can do useful work right now.
    #[must_use]
    pub fn is_usable(&self) -> bool {
        matches!(self, StageHealth::Healthy | StageHealth::PoweredOff)
    }

    /// Whether the stage is permanently broken.
    #[must_use]
    pub fn is_faulty(&self) -> bool {
        matches!(self, StageHealth::Faulty(_))
    }

    /// The fault effect, if any.
    #[must_use]
    pub fn effect(&self) -> Option<FaultEffect> {
        match self {
            StageHealth::Faulty(e) => Some(*e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_index_roundtrip() {
        for id in StageId::all(8) {
            assert_eq!(StageId::from_flat_index(id.flat_index()), id);
        }
        assert_eq!(StageId::all(8).count(), 40);
    }

    #[test]
    fn fault_effect_semantics() {
        let sa1 = FaultEffect { bit: 3, stuck: true };
        assert_eq!(sa1.apply(0), 8);
        assert_eq!(sa1.apply(8), 8);
        assert!(sa1.corrupts(0));
        assert!(!sa1.corrupts(8), "value already has the bit set");

        let sa0 = FaultEffect { bit: 0, stuck: false };
        assert_eq!(sa0.apply(0xff), 0xfe);
        assert!(!sa0.corrupts(0xfe));
    }

    #[test]
    fn health_predicates() {
        assert!(StageHealth::Healthy.is_usable());
        assert!(StageHealth::PoweredOff.is_usable());
        let f = StageHealth::Faulty(FaultEffect { bit: 0, stuck: true });
        assert!(!f.is_usable());
        assert!(f.is_faulty());
        assert!(f.effect().is_some());
        assert_eq!(StageHealth::Healthy.effect(), None);
    }

    #[test]
    fn display_format() {
        let s = StageId::new(3, Unit::Lsu);
        assert_eq!(s.to_string(), "LSU@L3");
    }
}
