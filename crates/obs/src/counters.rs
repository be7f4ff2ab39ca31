//! The counters/gauges registry: how much work the loop's subsystems did,
//! recorded into fixed arrays (no hashing, no allocation).
//!
//! Counters are monotone event totals incremented from the hot loop; gauges
//! are point-in-time values (backend selections, final cache statistics) set
//! once or at a coarse cadence. Both serialize into `metrics.json` and the
//! per-iteration JSONL stream (counters as per-iteration deltas).
//!
//! Each set is one table of `Variant = "sink_name"` rows; the slot count,
//! the slot order and the names every sink writes are derived from it, so a
//! new counter or gauge is one row.

use crate::schema::vocabulary;

vocabulary! {
    /// Monotone event counters of the placement flow.
    pub enum Counter ("counter") {
        /// Global-placement iterations executed.
        Iterations = "iterations",
        /// Nets classified geometry-dirty (coordinate-only Steiner update).
        GeoDirtyNets = "geo_dirty_nets",
        /// Nets classified topology-dirty (per-net Steiner rebuild).
        TopoDirtyNets = "topo_dirty_nets",
        /// STA analyses in the loop: one full analysis per iteration on which
        /// the mode's timing mechanism ran.
        StaFull = "sta_full",
        /// Full Steiner-forest builds.
        ForestBuilds = "forest_builds",
        /// Incremental forest synchronizations (dirty-set sweeps).
        ForestSyncs = "forest_syncs",
        /// Full RUDY congestion-map builds: one per route feedback iteration,
        /// plus the final summary map.
        RudyBuilds = "rudy_builds",
        /// Exact STA runs performed only to feed the trace.
        TraceAnalyses = "trace_analyses",
    }
}

vocabulary! {
    /// Point-in-time gauges: backend selections and end-of-run cache statistics.
    pub enum Gauge ("gauge") {
        /// 1.0 when the density model runs the FFT Poisson backend, 0.0 dense.
        FftBackend = "fft_backend",
        /// Fraction of routing bins over capacity in the final placement.
        OverflowedFrac = "overflowed_frac",
        /// Steiner trees from exact constructions (final forest composition).
        RsmtExact = "rsmt_exact",
        /// Steiner trees from topology-table lookups.
        RsmtTable = "rsmt_table",
        /// Steiner trees from the Prim fallback heuristic.
        RsmtPrim = "rsmt_prim",
        /// Degree-9 topology-table classes the process generated (lazily, on
        /// first visit). Degrees 4–8 ship as data and are never generated.
        RsmtClassesGenerated = "rsmt_classes_generated",
        /// Milliseconds spent generating them (degree 9 only), summed over
        /// threads (wall-clock: not deterministic, which is why it is a gauge and
        /// never in the trace).
        RsmtClassGenMs = "rsmt_class_gen_ms",
        /// Parallel regions this run dispatched to the worker pool.
        PoolDispatches = "pool_dispatches",
        /// Parallel regions of this run that ran inline on the calling thread
        /// instead: single-task regions, regions nested in a chunk (a helped
        /// one included), a join side's on a pool that may not spin, 1-thread
        /// pools.
        PoolInlineRegions = "pool_inline_regions",
        /// Dispatched regions published without a mutex or system call (every
        /// worker was running or polling).
        PoolHotHandoffs = "pool_hot_handoffs",
        /// Dispatched regions that had to wake a parked worker
        /// (`pool_hot_handoffs + pool_wakes = pool_dispatches`).
        PoolWakes = "pool_wakes",
        /// Milliseconds the pool's threads spent polling for work, for
        /// completion or, done with a join side, for the other side's regions
        /// to help with: what the hot hand-offs and the help cost in CPU time.
        /// Wall-clock dependent like the two before it, hence gauges and never
        /// in the trace.
        PoolSpinMs = "pool_spin_ms",
        /// Worker-pool width (threads participating in a parallel region).
        PoolThreads = "pool_threads",
        /// Milliseconds two tasks of one iteration ran side by side: for every
        /// region that ran the density/congestion evaluation beside the timing
        /// analysis or the wirelength gradient, the two tasks' busy time minus
        /// the region's wall time, summed over the run. Their phases record busy
        /// time, so the phase seconds sum to the instrumented wall time plus
        /// this. Wall-clock dependent, hence a gauge and never in the trace.
        OverlapMs = "overlap_ms",
        /// Row bands the legalizer partitioned the core into (1 = serial scan).
        LegalizeBands = "legalize_bands",
        /// Bins written by the exact RUDY map, taking demand back and stamping
        /// it alike: the route layer's unit of work (`rudy_update` time over
        /// this is ns per stamp). A per-run total, which is why it is a gauge
        /// and never in the trace.
        RudyStamps = "rudy_stamps",
        /// Heap bytes the design's netlist holds, summed from its arrays'
        /// capacities (bytes per cell is this over the cell count).
        NetlistBytes = "netlist_bytes",
        /// Input megabytes per second of the `parse` phase (file-backed designs).
        ParseMbS = "parse_mb_s",
        /// Parallel regions a join side of this run published for the join's
        /// other threads to help with (the idle side's thread takes its chunks).
        PoolHelpedRegions = "pool_helped_regions",
        /// Chunks of those regions a helping thread ran. Like the pool gauges
        /// above, schedule dependent, hence a gauge and never in the trace.
        PoolStolenChunks = "pool_stolen_chunks",
    }
}

/// Fixed-size counter/gauge storage.
#[derive(Clone, Copy, Debug, Default)]
pub struct Registry {
    counters: [u64; Counter::COUNT],
    gauges: [f64; Gauge::COUNT],
}

impl Registry {
    /// Adds `n` to `counter`.
    #[inline]
    pub fn add(&mut self, counter: Counter, n: u64) {
        self.counters[counter.index()] += n;
    }

    /// Current total of `counter`.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// All counter totals, in [`Counter::ALL`] order.
    #[inline]
    pub fn counters(&self) -> [u64; Counter::COUNT] {
        self.counters
    }

    /// Sets `gauge` to `v`.
    #[inline]
    pub fn set(&mut self, gauge: Gauge, v: f64) {
        self.gauges[gauge.index()] = v;
    }

    /// Current value of `gauge` (0.0 until first set).
    #[inline]
    pub fn gauge(&self, gauge: Gauge) -> f64 {
        self.gauges[gauge.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_indices_match_all() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
    }

    #[test]
    fn registry_accumulates_and_sets() {
        let mut r = Registry::default();
        r.add(Counter::GeoDirtyNets, 5);
        r.add(Counter::GeoDirtyNets, 2);
        r.set(Gauge::FftBackend, 1.0);
        assert_eq!(r.get(Counter::GeoDirtyNets), 7);
        assert_eq!(r.get(Counter::TopoDirtyNets), 0);
        assert_eq!(r.gauge(Gauge::FftBackend), 1.0);
    }
}
