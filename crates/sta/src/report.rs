//! Timing reports: critical-path extraction and slack summaries.

use crate::engine::{Analysis, Timer};
use crate::paths::worst_fanin;
use dtp_netlist::{Netlist, PinId};
use std::fmt;

/// A slack histogram over the analysis endpoints — the standard signoff
/// summary (e.g. for slack-histogram-compression style evaluations \[34\]).
#[derive(Clone, Debug, PartialEq)]
pub struct SlackHistogram {
    /// Bin edges, ascending (len = bins + 1).
    pub edges: Vec<f64>,
    /// Endpoint count per bin.
    pub counts: Vec<usize>,
    /// Endpoints below the first edge.
    pub underflow: usize,
    /// Endpoints at or above the last edge.
    pub overflow: usize,
}

impl SlackHistogram {
    /// Builds a histogram of the endpoint setup slacks with `bins` equal
    /// bins across `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(analysis: &Analysis, lo: f64, hi: f64, bins: usize) -> SlackHistogram {
        assert!(bins > 0 && lo < hi);
        let width = (hi - lo) / bins as f64;
        let edges = (0..=bins).map(|i| lo + i as f64 * width).collect();
        let mut counts = vec![0usize; bins];
        let mut underflow = 0;
        let mut overflow = 0;
        for &p in analysis.endpoints() {
            let s = analysis.slack[p.index()];
            if s < lo {
                underflow += 1;
            } else if s >= hi {
                overflow += 1;
            } else {
                counts[((s - lo) / width) as usize] += 1;
            }
        }
        SlackHistogram { edges, counts, underflow, overflow }
    }

    /// Total endpoints counted (including under/overflow).
    pub fn total(&self) -> usize {
        self.counts.iter().sum::<usize>() + self.underflow + self.overflow
    }

    /// Number of endpoints with negative slack (under the 0 edge), counting
    /// fractional bins conservatively by the bin's lower edge.
    pub fn violations(&self) -> usize {
        let mut n = self.underflow;
        for (i, &c) in self.counts.iter().enumerate() {
            if self.edges[i] < 0.0 {
                n += c;
            }
        }
        n
    }
}

impl fmt::Display for SlackHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.counts.iter().copied().max().unwrap_or(1).max(1);
        writeln!(f, "slack histogram ({} endpoints):", self.total())?;
        if self.underflow > 0 {
            writeln!(f, "  < {:>9.1} : {:>5}", self.edges[0], self.underflow)?;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat(c * 40 / max);
            writeln!(
                f,
                "  [{:>9.1}, {:>9.1}) : {:>5} {bar}",
                self.edges[i],
                self.edges[i + 1],
                c
            )?;
        }
        if self.overflow > 0 {
            writeln!(f, "  >={:>9.1} : {:>5}", self.edges[self.edges.len() - 1], self.overflow)?;
        }
        Ok(())
    }
}

/// One point on a reported timing path.
#[derive(Clone, Debug)]
pub struct PathPoint {
    /// The pin.
    pub pin: PinId,
    /// Hierarchical pin name (`cell/PIN`).
    pub name: String,
    /// Arrival time at the pin, ps.
    pub at: f64,
    /// Slew at the pin, ps.
    pub slew: f64,
}

/// A digest of one analysis: WNS/TNS, violation counts, and the critical
/// path traced from the worst endpoint back to its launch point.
#[derive(Clone, Debug)]
pub struct TimingReport {
    /// Worst negative slack (setup), ps.
    pub wns: f64,
    /// Total negative slack (setup), ps.
    pub tns: f64,
    /// Worst hold slack, ps.
    pub wns_hold: f64,
    /// Number of endpoints with negative setup slack.
    pub violations: usize,
    /// Number of endpoints checked.
    pub endpoints: usize,
    /// Critical path, launch to capture.
    pub critical_path: Vec<PathPoint>,
}

impl TimingReport {
    /// Builds a report from an (ideally exact) analysis.
    ///
    /// A design with no constrained endpoints (no registers, no output
    /// ports) reports `WNS = 0.0`, not `+inf`. The worst endpoint is selected
    /// deterministically: slack ties are broken by the smaller [`PinId`].
    pub fn new(timer: &Timer, nl: &Netlist, analysis: &Analysis) -> TimingReport {
        let endpoints = analysis.endpoints();
        let mut worst: Option<PinId> = None;
        let mut wns = f64::INFINITY;
        let mut tns = 0.0;
        let mut violations = 0;
        for &p in endpoints {
            let s = analysis.slack[p.index()];
            if s < wns || (s == wns && worst.is_none_or(|w| p < w)) {
                wns = s;
                worst = Some(p);
            }
            if s < 0.0 {
                tns += s;
                violations += 1;
            }
        }
        if worst.is_none() {
            wns = 0.0;
        }
        let critical_path = worst
            .map(|p| trace_path(timer, nl, analysis, p))
            .unwrap_or_default();
        TimingReport {
            wns,
            tns,
            wns_hold: analysis.wns_hold(),
            violations,
            endpoints: endpoints.len(),
            critical_path,
        }
    }
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "WNS {:.1} ps | TNS {:.1} ps | {}/{} endpoints violated | hold WNS {:.1} ps",
            self.wns, self.tns, self.violations, self.endpoints, self.wns_hold
        )?;
        writeln!(f, "critical path ({} points):", self.critical_path.len())?;
        for pt in &self.critical_path {
            writeln!(f, "  {:<30} at {:>9.2} ps  slew {:>7.2} ps", pt.name, pt.at, pt.slew)?;
        }
        Ok(())
    }
}

/// Traces the most critical path from `endpoint` back to a launch point by
/// following, at every merge, the fan-in whose arrival dominates (the same
/// [`worst_fanin`] step the top-K extractor uses).
fn trace_path(timer: &Timer, nl: &Netlist, analysis: &Analysis, endpoint: PinId) -> Vec<PathPoint> {
    let mut rev = Vec::new();
    let mut cur = endpoint;
    let mut guard = 0usize;
    loop {
        rev.push(PathPoint {
            pin: cur,
            name: nl.pin_name(cur),
            at: analysis.at[cur.index()],
            slew: analysis.slew[cur.index()],
        });
        guard += 1;
        if guard > nl.num_pins() {
            break; // defensive: malformed graphs cannot loop forever
        }
        match worst_fanin(timer, analysis, cur) {
            Some(from) => cur = from,
            None => break,
        }
    }
    rev.reverse();
    rev
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtp_liberty::synth::synthetic_pdk;
    use dtp_netlist::generate::{generate, GeneratorConfig};
    use dtp_rsmt::build_forest;

    #[test]
    fn report_on_generated_design() {
        let d = generate(&GeneratorConfig::named("rpt", 250)).unwrap();
        let lib = synthetic_pdk();
        let timer = Timer::new(&d, &lib).unwrap();
        let forest = build_forest(&d.netlist);
        let analysis = timer.analyze(&d.netlist, &forest);
        let report = TimingReport::new(&timer, &d.netlist, &analysis);
        assert_eq!(report.endpoints, analysis.endpoints().len());
        assert!(report.endpoints > 0);
        assert!((report.wns - analysis.wns()).abs() < 1e-9);
        assert!((report.tns - analysis.tns()).abs() < 1e-9);
        // The path starts at a launch point and ends at the worst endpoint.
        let path = &report.critical_path;
        assert!(path.len() >= 2, "critical path too short: {path:?}");
        let first = path.first().unwrap();
        let last = path.last().unwrap();
        assert!(timer.graph().role(first.pin).is_launch());
        assert!(timer.graph().role(last.pin).is_endpoint());
        // Arrival times are non-decreasing along the path.
        for w in path.windows(2) {
            assert!(
                w[1].at >= w[0].at - 1e-6,
                "AT decreases along path: {} -> {}",
                w[0].at,
                w[1].at
            );
        }
        // Display renders.
        let text = report.to_string();
        assert!(text.contains("WNS"));
        assert!(text.contains("critical path"));
    }

    #[test]
    fn slack_histogram_counts_all_endpoints() {
        let d = generate(&GeneratorConfig::named("hist", 300)).unwrap();
        let lib = synthetic_pdk();
        let timer = Timer::new(&d, &lib).unwrap();
        let forest = dtp_rsmt::build_forest(&d.netlist);
        let a = timer.analyze(&d.netlist, &forest);
        let h = SlackHistogram::new(&a, a.wns() - 1.0, a.wns().abs().max(100.0), 16);
        assert_eq!(h.total(), a.endpoints().len());
        // Lower-edge counting is conservative: every truly violating
        // endpoint lands in a bin whose lower edge is negative (or in the
        // underflow), so the histogram count can only overcount, by at most
        // the contents of the bin straddling zero.
        let direct = a
            .endpoints()
            .iter()
            .filter(|&&p| a.slack[p.index()] < 0.0)
            .count();
        assert!(h.violations() >= direct);
        let text = h.to_string();
        assert!(text.contains("slack histogram"));
    }

    #[test]
    fn histogram_violations_include_zero_straddling_bin() {
        // Edges at -10, 0 by construction plus a bin straddling zero:
        // edges [-10, -5, 5, 15]. Slacks -7 (fully negative bin), -1 and 2
        // (straddling bin), 12 (positive bin). The straddling bin's lower
        // edge is negative, so its whole count is reported: 3, not the 1
        // the old upper-edge test gave.
        let h = SlackHistogram {
            edges: vec![-10.0, -5.0, 5.0, 15.0],
            counts: vec![1, 2, 1],
            underflow: 0,
            overflow: 0,
        };
        assert_eq!(h.violations(), 3);
        // A bin whose lower edge is exactly 0 holds only non-negative
        // slacks and must not count.
        let h = SlackHistogram {
            edges: vec![-5.0, 0.0, 5.0],
            counts: vec![4, 9],
            underflow: 2,
            overflow: 1,
        };
        assert_eq!(h.violations(), 6);
    }

    #[test]
    #[should_panic]
    fn histogram_rejects_bad_range() {
        let d = generate(&GeneratorConfig::named("hist2", 60)).unwrap();
        let lib = synthetic_pdk();
        let timer = Timer::new(&d, &lib).unwrap();
        let forest = dtp_rsmt::build_forest(&d.netlist);
        let a = timer.analyze(&d.netlist, &forest);
        let _ = SlackHistogram::new(&a, 10.0, -10.0, 4);
    }
}
