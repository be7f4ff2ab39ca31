//! The legality check every legalized placement is held to: rows, sites,
//! the core boundary and overlaps. The legalizer itself is
//! [`AbacusLegalizer`](crate::AbacusLegalizer).

use dtp_netlist::{CellId, Design};

/// Checks whether a placement is legal: every movable cell on a row and site,
/// inside the core, with no overlaps between movable cells. Returns the list
/// of violation descriptions (empty = legal).
pub fn check_legal(design: &Design, xs: &[f64], ys: &[f64]) -> Vec<String> {
    let nl = &design.netlist;
    let mut violations = Vec::new();
    let site = design.rows[0].site_width;
    let row_h = design.row_height();
    // Row and site alignment + bounds.
    let mut by_row: std::collections::BTreeMap<i64, Vec<(f64, f64, CellId)>> =
        std::collections::BTreeMap::new();
    for c in nl.movable_cells() {
        let i = c.index();
        let w = nl.class_of(c).width();
        let (x, y) = (xs[i], ys[i]);
        let row_idx = ((y - design.region.yl) / row_h).round() as i64;
        if ((y - design.region.yl) - row_idx as f64 * row_h).abs() > 1e-6 {
            violations.push(format!("cell {c:?} not row aligned (y={y})"));
        }
        if ((x - design.region.xl) / site).fract().abs() > 1e-6
            && (1.0 - ((x - design.region.xl) / site).fract()).abs() > 1e-6
        {
            violations.push(format!("cell {c:?} not site aligned (x={x})"));
        }
        if x < design.region.xl - 1e-6 || x + w > design.region.xh + 1e-6 {
            violations.push(format!("cell {c:?} outside core in x"));
        }
        by_row.entry(row_idx).or_default().push((x, x + w, c));
    }
    // Overlaps within rows.
    for (_, mut cells) in by_row {
        cells.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        for w in cells.windows(2) {
            if w[0].1 > w[1].0 + 1e-6 {
                violations.push(format!("overlap between {:?} and {:?}", w[0].2, w[1].2));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AbacusLegalizer;
    use dtp_netlist::generate::{generate, GeneratorConfig};

    #[test]
    fn legalizes_random_placement() {
        let d = generate(&GeneratorConfig::named("lg", 250)).unwrap();
        let (mut xs, mut ys) = d.netlist.positions();
        let (total, max_disp) = AbacusLegalizer::new(&d).legalize(&d, &mut xs, &mut ys);
        assert!(total >= 0.0 && max_disp >= 0.0);
        let violations = check_legal(&d, &xs, &ys);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn legal_input_moves_little() {
        // Re-legalizing a legal placement is near-free: every cell already
        // sits on its cheapest row and site.
        let d = generate(&GeneratorConfig::named("lg2", 100)).unwrap();
        let lg = AbacusLegalizer::new(&d);
        let (mut xs, mut ys) = d.netlist.positions();
        lg.legalize(&d, &mut xs, &mut ys);
        let (total2, _) = lg.legalize(&d, &mut xs, &mut ys);
        assert!(total2 < 1e-6, "re-legalization moved cells: {total2}");
    }

    #[test]
    fn detects_overlaps() {
        let d = generate(&GeneratorConfig::named("lg3", 50)).unwrap();
        let (mut xs, mut ys) = d.netlist.positions();
        AbacusLegalizer::new(&d).legalize(&d, &mut xs, &mut ys);
        // Manufacture an overlap.
        let movable: Vec<_> = d.netlist.movable_cells().collect();
        let a = movable[0].index();
        let b = movable[1].index();
        xs[b] = xs[a];
        ys[b] = ys[a];
        assert!(!check_legal(&d, &xs, &ys).is_empty());
    }
}
