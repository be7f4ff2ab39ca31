//! A placed design: netlist + floorplan geometry + timing constraints.

use crate::geom::Rect;
use crate::model::Netlist;
use crate::sdc::Sdc;

/// A placement row (simplified `.scl` row: uniform height and site width).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// Bottom y coordinate of the row.
    pub y: f64,
    /// Left edge of the row.
    pub x_min: f64,
    /// Right edge of the row.
    pub x_max: f64,
    /// Row (cell) height.
    pub height: f64,
    /// Legal site pitch along the row.
    pub site_width: f64,
}

impl Row {
    /// Number of whole sites in the row.
    pub fn num_sites(&self) -> usize {
        ((self.x_max - self.x_min) / self.site_width).floor() as usize
    }
}

/// A design ready for placement: the netlist, the core region, placement rows
/// and the timing constraints.
#[derive(Clone, Debug)]
pub struct Design {
    /// Design name (e.g. `"sb1"`).
    pub name: String,
    /// The circuit.
    pub netlist: Netlist,
    /// Core placement region.
    pub region: Rect,
    /// Placement rows covering the region bottom-up.
    pub rows: Vec<Row>,
    /// Timing constraints.
    pub constraints: Sdc,
}

impl Design {
    /// Creates a design, synthesizing uniform rows of height `row_height` and
    /// site width `site_width` that tile `region`.
    pub fn new(
        name: impl Into<String>,
        netlist: Netlist,
        region: Rect,
        row_height: f64,
        site_width: f64,
        constraints: Sdc,
    ) -> Self {
        let mut rows = Vec::new();
        let mut y = region.yl;
        while y + row_height <= region.yh + 1e-9 {
            rows.push(Row {
                y,
                x_min: region.xl,
                x_max: region.xh,
                height: row_height,
                site_width,
            });
            y += row_height;
        }
        Design {
            name: name.into(),
            netlist,
            region,
            rows,
            constraints,
        }
    }

    /// Placement density target implied by the design: movable cell area over
    /// core area (fixed-cell area is ignored because the synthetic designs
    /// have zero-area ports only).
    pub fn utilization(&self) -> f64 {
        self.netlist.movable_area() / self.region.area()
    }

    /// Row height (uniform by construction).
    ///
    /// # Panics
    ///
    /// Panics if the design has no rows.
    pub fn row_height(&self) -> f64 {
        self.rows[0].height
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn rows_tile_region() {
        let nl = NetlistBuilder::new().finish().unwrap();
        let d = Design::new(
            "t",
            nl,
            Rect::new(0.0, 0.0, 100.0, 20.0),
            2.0,
            0.5,
            Sdc::default(),
        );
        assert_eq!(d.rows.len(), 10);
        assert_eq!(d.rows[0].y, 0.0);
        assert_eq!(d.rows[9].y, 18.0);
        assert_eq!(d.rows[0].num_sites(), 200);
        assert_eq!(d.row_height(), 2.0);
    }

    #[test]
    fn utilization_of_empty_netlist_is_zero() {
        let nl = NetlistBuilder::new().finish().unwrap();
        let d = Design::new(
            "t",
            nl,
            Rect::new(0.0, 0.0, 10.0, 10.0),
            2.0,
            0.5,
            Sdc::default(),
        );
        assert_eq!(d.utilization(), 0.0);
    }
}
