//! The reconfigurable crossbar fabric: logical-pipeline → physical-stage
//! assignment, plus the vertical interconnect's own fault universe —
//! TSV link faults on the per-stage link bundles and mux-select upsets
//! on the per-slot route registers.

use crate::stage::StageId;
use crate::SimError;
use r2d3_isa::Unit;

/// A fault armed on one vertical TSV link bundle — the bundle that
/// carries the stage at `(layer, unit)`'s outputs into the crossbar.
/// Link faults corrupt values *in flight*: the stage computes correctly,
/// the consumer (and the stage's trace ring, which snoops the delivered
/// bundle) sees the corrupted value. The engine's replay network bypasses
/// the TSVs, so replays of a link-faulted stage come back clean — the
/// observable signature that separates a path fault from a stage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// Bits under `mask` stuck at `pattern`'s values (open/short TSV).
    Stuck {
        /// Which delivered bits are stuck.
        mask: u32,
        /// The values they are stuck at.
        pattern: u32,
    },
    /// Wired-OR bridge to the same-unit link bundle on `other_layer`:
    /// bits under `mask` are forced high while the partner link is
    /// active (its stage is serving a pipeline). With the partner idle
    /// the bridge is electrically silent.
    Bridge {
        /// Layer of the bridged same-unit link.
        other_layer: usize,
        /// Bits shorted across the pair.
        mask: u32,
    },
    /// Capacitive coupling from the same-unit link on `aggressor_layer`:
    /// every `period`-th transfer (at offset `phase`) flips the bits
    /// under `mask`, but only while the aggressor link is switching
    /// (its stage is serving a pipeline).
    Crosstalk {
        /// Layer of the aggressor link.
        aggressor_layer: usize,
        /// Victim bits that flip.
        mask: u32,
        /// Transfer period of the coupling beat.
        period: u64,
        /// Offset of the flip within the period.
        phase: u64,
    },
    /// One-shot SEU/MBU burst: the next `ops` transfers flip the bits
    /// under `mask`, then the upset clears itself.
    BurstOnce {
        /// Bits upset by the particle strike.
        mask: u32,
        /// Transfers corrupted before the burst dissipates.
        ops: u32,
    },
}

/// A link fault plus its per-link transfer counter (crosstalk beats and
/// burst depletion are functions of delivered-transfer count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ArmedLink {
    fault: LinkFault,
    ticks: u64,
}

/// Deterministic corruption a wrong mux select inflicts: the consumer
/// latches a bundle that is skewed/misaligned relative to the producer
/// it expected. Nonzero for every `expected != actual` pair.
#[must_use]
fn misroute_skew(expected: usize, actual: usize, unit: Unit) -> u32 {
    (0xA5A5_0000u32 | ((expected as u32 & 0xFF) << 8) | (actual as u32 & 0xFF))
        .rotate_left(unit.index() as u32)
}

/// Crossbar configuration: for each logical pipeline and unit type, which
/// layer's physical stage currently does the work.
///
/// The identity configuration (pipeline `p` uses all of layer `p`'s
/// stages) models a hard-wired NoRecon stack; the R2D3 controller
/// reconfigures the map to route around faults and rotate leftovers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fabric {
    layers: usize,
    /// `assignment[pipe][unit] = Some(layer)`.
    assignment: Vec<[Option<usize>; 5]>,
    /// `link_faults[layer][unit]`: armed fault on that stage's TSV bundle.
    link_faults: Vec<[Option<ArmedLink>; 5]>,
    /// `route_override[pipe][unit] = Some(layer)`: the slot's mux-select
    /// register was upset and reads `layer` instead of the assignment.
    /// Rewriting the register (assign/unassign/scrub) clears it.
    route_override: Vec<[Option<usize>; 5]>,
}

impl Fabric {
    /// Identity fabric: `pipelines` logical pipelines, pipeline `p` mapped
    /// onto layer `p` for every unit.
    ///
    /// # Panics
    ///
    /// Panics if `pipelines > layers`.
    #[must_use]
    pub fn identity(layers: usize, pipelines: usize) -> Self {
        assert!(pipelines <= layers, "more pipelines than layers");
        let assignment = (0..pipelines).map(|p| [Some(p); 5]).collect();
        Fabric {
            layers,
            assignment,
            link_faults: vec![[None; 5]; layers],
            route_override: vec![[None; 5]; pipelines],
        }
    }

    /// An empty fabric with `pipelines` unmapped logical pipelines.
    #[must_use]
    pub fn unmapped(layers: usize, pipelines: usize) -> Self {
        Fabric {
            layers,
            assignment: vec![[None; 5]; pipelines],
            link_faults: vec![[None; 5]; layers],
            route_override: vec![[None; 5]; pipelines],
        }
    }

    /// Number of tiers in the stack.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Number of logical pipelines (mapped or not).
    #[must_use]
    pub fn pipelines(&self) -> usize {
        self.assignment.len()
    }

    /// The physical stage serving `pipe`'s `unit` slot, if mapped.
    #[must_use]
    pub fn stage_for(&self, pipe: usize, unit: Unit) -> Option<StageId> {
        self.assignment
            .get(pipe)?
            .get(unit.index())
            .copied()
            .flatten()
            .map(|layer| StageId { layer, unit })
    }

    /// Maps `pipe`'s `unit` slot to the stage on `layer`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownPipeline`] / [`SimError::UnknownStage`]
    /// for out-of-range indices and [`SimError::InvalidFabric`] if another
    /// pipeline already uses that physical stage.
    pub fn assign(&mut self, pipe: usize, unit: Unit, layer: usize) -> Result<(), SimError> {
        if pipe >= self.assignment.len() {
            return Err(SimError::UnknownPipeline(pipe));
        }
        if layer >= self.layers {
            return Err(SimError::UnknownStage(StageId { layer, unit }));
        }
        for (other, slots) in self.assignment.iter().enumerate() {
            if other != pipe && slots[unit.index()] == Some(layer) {
                return Err(SimError::InvalidFabric(format!(
                    "stage {} already serves pipeline {other}",
                    StageId { layer, unit }
                )));
            }
        }
        self.assignment[pipe][unit.index()] = Some(layer);
        // Writing the select register replaces whatever an upset left in it.
        if let Some(row) = self.route_override.get_mut(pipe) {
            row[unit.index()] = None;
        }
        Ok(())
    }

    /// Unmaps `pipe`'s `unit` slot (the pipeline becomes incomplete).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownPipeline`] for an out-of-range pipeline.
    pub fn unassign(&mut self, pipe: usize, unit: Unit) -> Result<(), SimError> {
        if pipe >= self.assignment.len() {
            return Err(SimError::UnknownPipeline(pipe));
        }
        self.assignment[pipe][unit.index()] = None;
        if let Some(row) = self.route_override.get_mut(pipe) {
            row[unit.index()] = None;
        }
        Ok(())
    }

    /// Arms `fault` on the TSV link bundle of the stage at
    /// `(layer, unit)`, replacing any fault already armed there.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownStage`] for an out-of-range layer.
    pub fn inject_link_fault(
        &mut self,
        layer: usize,
        unit: Unit,
        fault: LinkFault,
    ) -> Result<(), SimError> {
        if layer >= self.layers {
            return Err(SimError::UnknownStage(StageId { layer, unit }));
        }
        if self.link_faults.len() < self.layers {
            self.link_faults.resize(self.layers, [None; 5]);
        }
        self.link_faults[layer][unit.index()] = Some(ArmedLink { fault, ticks: 0 });
        Ok(())
    }

    /// Upsets the mux-select register of `pipe`'s `unit` slot so the
    /// crossbar latches from `layer` instead of the assignment. The
    /// assignment itself (the controller's *intent*) is untouched —
    /// only a hardware readback ([`route_readback`](Self::route_readback))
    /// or the resulting data corruption can reveal the upset.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownPipeline`] / [`SimError::UnknownStage`]
    /// for out-of-range indices.
    pub fn override_route(
        &mut self,
        pipe: usize,
        unit: Unit,
        layer: usize,
    ) -> Result<(), SimError> {
        if pipe >= self.assignment.len() {
            return Err(SimError::UnknownPipeline(pipe));
        }
        if layer >= self.layers {
            return Err(SimError::UnknownStage(StageId { layer, unit }));
        }
        if self.route_override.len() < self.assignment.len() {
            self.route_override.resize(self.assignment.len(), [None; 5]);
        }
        self.route_override[pipe][unit.index()] = Some(layer);
        Ok(())
    }

    /// The layer the mux-select *hardware* of `pipe`'s `unit` slot
    /// actually reads — the assignment unless an upset overrode it.
    /// `None` for unmapped slots.
    #[must_use]
    pub fn route_readback(&self, pipe: usize, unit: Unit) -> Option<usize> {
        let u = unit.index();
        self.route_override
            .get(pipe)
            .and_then(|row| row[u])
            .or_else(|| self.assignment.get(pipe).and_then(|row| row[u]))
    }

    /// Rewrites `pipe`'s `unit` select register from the assignment
    /// (the controller's route-scrub repair), clearing any upset.
    pub fn scrub_route(&mut self, pipe: usize, unit: Unit) {
        if let Some(row) = self.route_override.get_mut(pipe) {
            row[unit.index()] = None;
        }
    }

    /// Passes one delivered value of `pipe`'s `unit` slot through the
    /// vertical interconnect: applies any link fault armed on the serving
    /// stage's TSV bundle, then any mux-select upset on the slot. Returns
    /// the value the consumer actually latches; a result different from
    /// `value` means the transfer was corrupted in flight.
    pub fn deliver(&mut self, pipe: usize, unit: Unit, value: u32) -> u32 {
        let u = unit.index();
        let Some(layer) = self.assignment.get(pipe).and_then(|row| row[u]) else {
            return value;
        };
        let mut out = value;
        let assignment = &self.assignment;
        let serving = |l: usize| assignment.iter().any(|row| row[u] == Some(l));
        if let Some(armed) = self.link_faults.get_mut(layer).and_then(|row| row[u].as_mut()) {
            let tick = armed.ticks;
            armed.ticks += 1;
            match &mut armed.fault {
                LinkFault::Stuck { mask, pattern } => {
                    out = (out & !*mask) | (*pattern & *mask);
                }
                LinkFault::Bridge { other_layer, mask } => {
                    if serving(*other_layer) {
                        out |= *mask;
                    }
                }
                LinkFault::Crosstalk { aggressor_layer, mask, period, phase } => {
                    if serving(*aggressor_layer) && *period > 0 && tick % *period == *phase {
                        out ^= *mask;
                    }
                }
                LinkFault::BurstOnce { mask, ops } => {
                    if *ops > 0 {
                        out ^= *mask;
                        *ops -= 1;
                    }
                }
            }
        }
        if let Some(wrong) = self.route_override.get(pipe).and_then(|row| row[u]) {
            if wrong != layer {
                out ^= misroute_skew(layer, wrong, unit);
            }
        }
        out
    }

    /// Whether [`deliver`](Self::deliver) on `pipe`'s `unit` slot passes
    /// every value through and changes no state: no link fault is armed
    /// on the serving stage's bundle (an armed one counts its transfers
    /// even when it corrupts none) and no select upset points away from
    /// the assignment. Faults, upsets and assignments change only between
    /// `run` calls, so a substrate resolves this once per segment and
    /// skips `deliver` for a transparent slot.
    #[must_use]
    pub fn transparent(&self, pipe: usize, unit: Unit) -> bool {
        let u = unit.index();
        let Some(layer) = self.assignment.get(pipe).and_then(|row| row[u]) else {
            return true;
        };
        let armed = self.link_faults.get(layer).is_some_and(|row| row[u].is_some());
        let upset = self
            .route_override
            .get(pipe)
            .and_then(|row| row[u])
            .is_some_and(|wrong| wrong != layer);
        !armed && !upset
    }

    /// Whether `pipe` has all five unit slots mapped.
    #[must_use]
    pub fn is_complete(&self, pipe: usize) -> bool {
        self.assignment.get(pipe).is_some_and(|slots| slots.iter().all(Option::is_some))
    }

    /// Number of complete logical pipelines.
    #[must_use]
    pub fn complete_pipelines(&self) -> usize {
        (0..self.pipelines()).filter(|&p| self.is_complete(p)).count()
    }

    /// Physical stages currently serving no pipeline (candidate leftovers,
    /// before health filtering).
    #[must_use]
    pub fn unassigned_stages(&self) -> Vec<StageId> {
        let mut used = vec![false; self.layers * Unit::COUNT];
        for slots in &self.assignment {
            for (ui, layer) in slots.iter().enumerate() {
                if let Some(l) = layer {
                    used[l * Unit::COUNT + ui] = true;
                }
            }
        }
        StageId::all(self.layers).filter(|s| !used[s.flat_index()]).collect()
    }

    /// Number of vertical tiers an instruction crosses between `unit` and
    /// the next unit in program order for `pipe` (crossbar hop length).
    #[must_use]
    pub fn crossing_distance(&self, pipe: usize, from: Unit, to: Unit) -> Option<usize> {
        let a = self.stage_for(pipe, from)?;
        let b = self.stage_for(pipe, to)?;
        Some(a.layer.abs_diff(b.layer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_complete() {
        let f = Fabric::identity(8, 8);
        assert_eq!(f.complete_pipelines(), 8);
        assert!(f.unassigned_stages().is_empty());
        assert_eq!(f.stage_for(3, Unit::Exu), Some(StageId::new(3, Unit::Exu)));
        assert_eq!(f.crossing_distance(3, Unit::Ifu, Unit::Exu), Some(0));
    }

    #[test]
    fn partial_stack_has_leftovers() {
        let f = Fabric::identity(8, 6);
        assert_eq!(f.complete_pipelines(), 6);
        assert_eq!(f.unassigned_stages().len(), 10, "two spare layers × five units");
    }

    #[test]
    fn double_assignment_rejected() {
        let mut f = Fabric::identity(4, 2);
        // Pipeline 1 tries to steal pipeline 0's EXU.
        let err = f.assign(1, Unit::Exu, 0).unwrap_err();
        assert!(matches!(err, SimError::InvalidFabric(_)));
        // Free it first, then it works.
        f.unassign(0, Unit::Exu).unwrap();
        f.assign(1, Unit::Exu, 0).unwrap();
        assert!(!f.is_complete(0));
        assert_eq!(f.crossing_distance(1, Unit::Ifu, Unit::Exu), Some(1));
    }

    #[test]
    fn bounds_checked() {
        let mut f = Fabric::identity(4, 2);
        assert!(matches!(f.assign(9, Unit::Ifu, 0), Err(SimError::UnknownPipeline(9))));
        assert!(matches!(f.assign(0, Unit::Ifu, 9), Err(SimError::UnknownStage(_))));
        assert!(f.unassign(9, Unit::Ifu).is_err());
    }

    #[test]
    #[should_panic(expected = "more pipelines than layers")]
    fn identity_requires_enough_layers() {
        let _ = Fabric::identity(2, 3);
    }

    #[test]
    fn stuck_link_forces_masked_bits() {
        let mut f = Fabric::identity(4, 2);
        f.inject_link_fault(1, Unit::Exu, LinkFault::Stuck { mask: 0xF0, pattern: 0xA0 }).unwrap();
        assert_eq!(f.deliver(1, Unit::Exu, 0x0F), 0xAF);
        assert_eq!(f.deliver(1, Unit::Exu, 0xAF), 0xAF, "already-matching bits pass clean");
        // Other links and other units are untouched.
        assert_eq!(f.deliver(0, Unit::Exu, 0x0F), 0x0F);
        assert_eq!(f.deliver(1, Unit::Ifu, 0x0F), 0x0F);
        assert!(f
            .inject_link_fault(9, Unit::Exu, LinkFault::Stuck { mask: 1, pattern: 1 })
            .is_err());
    }

    #[test]
    fn bridge_is_gated_on_partner_activity() {
        let mut f = Fabric::identity(4, 2);
        f.inject_link_fault(0, Unit::Lsu, LinkFault::Bridge { other_layer: 1, mask: 0x3 }).unwrap();
        assert_eq!(f.deliver(0, Unit::Lsu, 0x10), 0x13, "partner serving -> wired-OR");
        // Unassign the partner: the bridge goes electrically silent.
        f.unassign(1, Unit::Lsu).unwrap();
        assert_eq!(f.deliver(0, Unit::Lsu, 0x10), 0x10);
    }

    #[test]
    fn crosstalk_beats_with_aggressor_and_burst_self_clears() {
        let mut f = Fabric::identity(4, 2);
        f.inject_link_fault(
            0,
            Unit::Ifu,
            LinkFault::Crosstalk { aggressor_layer: 1, mask: 0x1, period: 2, phase: 0 },
        )
        .unwrap();
        let flipped = (0..6).filter(|_| f.deliver(0, Unit::Ifu, 0) != 0).count();
        assert_eq!(flipped, 3, "every second transfer flips");

        f.inject_link_fault(1, Unit::Ifu, LinkFault::BurstOnce { mask: 0xFF, ops: 2 }).unwrap();
        let upset = (0..5).filter(|_| f.deliver(1, Unit::Ifu, 0) != 0).count();
        assert_eq!(upset, 2, "burst corrupts exactly `ops` transfers, then clears");
    }

    /// `transparent` must be false exactly when `deliver` could change a
    /// value or a link's transfer count: one `deliver` leaves both the
    /// value and the fabric as they were if and only if it is true.
    fn check_transparency(f: &mut Fabric, pipe: usize, unit: Unit, expect: bool) {
        assert_eq!(f.transparent(pipe, unit), expect, "pipe {pipe} {unit}");
        let before = f.clone();
        let unchanged = f.deliver(pipe, unit, 0x1234_5678) == 0x1234_5678 && *f == before;
        assert_eq!(unchanged, expect, "pipe {pipe} {unit}: deliver disagrees");
    }

    #[test]
    fn transparency_follows_what_deliver_can_change() {
        let mut f = Fabric::identity(4, 3);
        for unit in Unit::ALL {
            check_transparency(&mut f, 1, unit, true);
        }
        let faults = [
            LinkFault::Stuck { mask: 0xF, pattern: 0x5 },
            LinkFault::Bridge { other_layer: 2, mask: 0x3 },
            LinkFault::Crosstalk { aggressor_layer: 2, mask: 0x1, period: 3, phase: 1 },
            LinkFault::BurstOnce { mask: 0xFF, ops: 1 },
        ];
        for fault in faults {
            let mut f = Fabric::identity(4, 3);
            f.inject_link_fault(1, Unit::Lsu, fault).unwrap();
            check_transparency(&mut f, 1, Unit::Lsu, false);
            // Only the armed bundle's slot loses transparency.
            check_transparency(&mut f, 1, Unit::Exu, true);
            check_transparency(&mut f, 0, Unit::Lsu, true);
        }
        // A depleted burst corrupts nothing, but still counts transfers.
        let mut f = Fabric::identity(4, 3);
        f.inject_link_fault(1, Unit::Ifu, LinkFault::BurstOnce { mask: 0xFF, ops: 1 }).unwrap();
        assert_ne!(f.deliver(1, Unit::Ifu, 0), 0);
        let before = f.clone();
        assert_eq!(f.deliver(1, Unit::Ifu, 0), 0);
        assert_ne!(f, before, "the depleted burst's tick moved");
        check_transparency(&mut f, 1, Unit::Ifu, false);
        // An upset to another layer skews every transfer.
        let mut f = Fabric::identity(4, 3);
        f.override_route(2, Unit::Tlu, 3).unwrap();
        check_transparency(&mut f, 2, Unit::Tlu, false);
        // An upset that reads the assigned layer anyway changes nothing.
        f.override_route(2, Unit::Tlu, 2).unwrap();
        check_transparency(&mut f, 2, Unit::Tlu, true);
        // An unmapped slot delivers its value unchanged.
        f.unassign(0, Unit::Ffu).unwrap();
        check_transparency(&mut f, 0, Unit::Ffu, true);
    }

    #[test]
    fn route_override_reads_back_and_scrubs() {
        let mut f = Fabric::identity(8, 4);
        assert_eq!(f.route_readback(2, Unit::Tlu), Some(2));
        f.override_route(2, Unit::Tlu, 6).unwrap();
        assert_eq!(f.route_readback(2, Unit::Tlu), Some(6));
        assert_eq!(f.stage_for(2, Unit::Tlu), Some(StageId::new(2, Unit::Tlu)), "intent intact");
        // A misrouted transfer is corrupted deterministically.
        let delivered = f.deliver(2, Unit::Tlu, 0x1234);
        assert_ne!(delivered, 0x1234);
        assert_eq!(f.deliver(2, Unit::Tlu, 0x1234), delivered, "skew is deterministic");
        // Scrubbing rewrites the select register from the assignment.
        f.scrub_route(2, Unit::Tlu);
        assert_eq!(f.route_readback(2, Unit::Tlu), Some(2));
        assert_eq!(f.deliver(2, Unit::Tlu, 0x1234), 0x1234);
        // Reassignment also rewrites the register.
        f.override_route(2, Unit::Tlu, 6).unwrap();
        f.unassign(2, Unit::Tlu).unwrap();
        f.assign(2, Unit::Tlu, 2).unwrap();
        assert_eq!(f.route_readback(2, Unit::Tlu), Some(2));
        assert!(f.override_route(9, Unit::Tlu, 0).is_err());
        assert!(f.override_route(0, Unit::Tlu, 9).is_err());
    }
}
