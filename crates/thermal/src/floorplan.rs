//! Floorplans: per-layer block placements for the 3D stack.

use r2d3_isa::Unit;

/// An axis-aligned rectangle in chip coordinates (meters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge.
    pub x0: f64,
    /// Bottom edge.
    pub y0: f64,
    /// Right edge.
    pub x1: f64,
    /// Top edge.
    pub y1: f64,
}

impl Rect {
    /// Width of the rectangle.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    /// Height of the rectangle.
    #[must_use]
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    /// Area in m².
    #[must_use]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Overlap area with another rectangle.
    #[must_use]
    pub fn overlap(&self, other: &Rect) -> f64 {
        let w = (self.x1.min(other.x1) - self.x0.max(other.x0)).max(0.0);
        let h = (self.y1.min(other.y1) - self.y0.max(other.y0)).max(0.0);
        w * h
    }
}

/// Identifies one block: a pipeline unit on a given vertical layer.
///
/// Layer 0 is the tier closest to the heat sink (the paper inserts the
/// reconfiguration controller at that layer); higher layers are farther
/// from the sink and run hotter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId {
    /// Vertical tier index (0 = closest to heat sink).
    pub layer: usize,
    /// Which pipeline unit.
    pub unit: Unit,
}

/// A complete 3D floorplan: the same per-tier unit placement replicated on
/// every layer (the paper stacks *corresponding* pipeline stages
/// vertically so the crossbars span minimal distance).
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    layers: usize,
    chip_width: f64,
    chip_height: f64,
    blocks: Vec<(Unit, Rect)>,
}

impl Floorplan {
    /// Builds the OpenSPARC T1 3D floorplan used throughout the paper:
    /// `layers` identical tiers, each carrying the five pipeline units
    /// with Table III area proportions on a 0.387 mm² die.
    ///
    /// The per-tier layout is a two-row arrangement:
    ///
    /// ```text
    /// +--------+-----+------+
    /// |  LSU   | TLU | FFU  |   (top row)
    /// +--------+--+--+------+
    /// |  IFU      |  EXU    |   (bottom row)
    /// +-----------+---------+
    /// ```
    #[must_use]
    pub fn opensparc_3d(layers: usize) -> Self {
        // Table III areas (mm²): IFU .056 EXU .036 LSU .067 TLU .040 FFU .014.
        // The remaining die area (register files, caches, routing) is
        // thermally passive background; we scale the chip so the five
        // units cover their real fraction of the 0.387 mm² core.
        let die_area_m2: f64 = 0.387e-6; // 0.387 mm² in m²
        let aspect = 4.0_f64 / 3.0;
        let chip_w = (die_area_m2 * aspect).sqrt();
        let chip_h = die_area_m2 / chip_w;

        // Two-row layout over the full die; row heights split the die so
        // each unit's rect area is proportional to (unit area + its share
        // of the passive background), keeping unit power densities
        // realistic without modeling every SRAM macro.
        let bottom = [Unit::Ifu, Unit::Exu];
        let top = [Unit::Lsu, Unit::Tlu, Unit::Ffu];
        let unit_area = |u: Unit| crate::grid::UNIT_AREA_MM2[u.index()];
        let bottom_area: f64 = bottom.iter().map(|&u| unit_area(u)).sum();
        let top_area: f64 = top.iter().map(|&u| unit_area(u)).sum();
        let total = bottom_area + top_area;
        let bottom_h = chip_h * bottom_area / total;

        let mut blocks = Vec::with_capacity(5);
        let mut x = 0.0;
        for &u in &bottom {
            let w = chip_w * unit_area(u) / bottom_area;
            blocks.push((u, Rect { x0: x, y0: 0.0, x1: x + w, y1: bottom_h }));
            x += w;
        }
        let mut x = 0.0;
        for &u in &top {
            let w = chip_w * unit_area(u) / top_area;
            blocks.push((u, Rect { x0: x, y0: bottom_h, x1: x + w, y1: chip_h }));
            x += w;
        }

        Floorplan { layers, chip_width: chip_w, chip_height: chip_h, blocks }
    }

    /// Number of vertical tiers.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Die width in meters.
    #[must_use]
    pub fn chip_width(&self) -> f64 {
        self.chip_width
    }

    /// Die height in meters.
    #[must_use]
    pub fn chip_height(&self) -> f64 {
        self.chip_height
    }

    /// The per-tier unit rectangles (identical on every layer).
    #[must_use]
    pub fn blocks(&self) -> &[(Unit, Rect)] {
        &self.blocks
    }

    /// The rectangle of `unit` on any tier, or `None` if absent.
    #[must_use]
    pub fn unit_rect(&self, unit: Unit) -> Option<Rect> {
        self.blocks.iter().find(|(u, _)| *u == unit).map(|(_, r)| *r)
    }

    /// All block identifiers across all layers.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.layers).flat_map(move |layer| {
            self.blocks.iter().map(move |(unit, _)| BlockId { layer, unit: *unit })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_geometry() {
        let r = Rect { x0: 0.0, y0: 0.0, x1: 2.0, y1: 3.0 };
        assert_eq!(r.area(), 6.0);
        let s = Rect { x0: 1.0, y0: 1.0, x1: 4.0, y1: 2.0 };
        assert_eq!(r.overlap(&s), 1.0);
        let t = Rect { x0: 5.0, y0: 5.0, x1: 6.0, y1: 6.0 };
        assert_eq!(r.overlap(&t), 0.0);
    }

    #[test]
    fn floorplan_covers_die_exactly() {
        let fp = Floorplan::opensparc_3d(8);
        let total: f64 = fp.blocks().iter().map(|(_, r)| r.area()).sum();
        let die = fp.chip_width() * fp.chip_height();
        assert!((total - die).abs() / die < 1e-9, "blocks must tile the die");
        assert_eq!(fp.layers(), 8);
        assert_eq!(fp.blocks().len(), 5);
    }

    #[test]
    fn blocks_do_not_overlap() {
        let fp = Floorplan::opensparc_3d(4);
        for (i, (_, a)) in fp.blocks().iter().enumerate() {
            for (_, b) in fp.blocks().iter().skip(i + 1) {
                assert!(a.overlap(b) < 1e-18, "blocks overlap");
            }
        }
    }

    #[test]
    fn unit_areas_keep_table_iii_ordering() {
        let fp = Floorplan::opensparc_3d(1);
        let area = |u: Unit| fp.unit_rect(u).unwrap().area();
        assert!(area(Unit::Lsu) > area(Unit::Ifu));
        assert!(area(Unit::Ifu) > area(Unit::Exu));
        assert!(area(Unit::Ffu) < area(Unit::Tlu));
    }

    #[test]
    fn block_ids_enumerate_all() {
        let fp = Floorplan::opensparc_3d(3);
        assert_eq!(fp.block_ids().count(), 15);
    }
}
