//! The counters/gauges registry: how much work the loop's subsystems did,
//! recorded into fixed arrays (no hashing, no allocation).
//!
//! Counters are monotone event totals incremented from the hot loop; gauges
//! are point-in-time values (backend selections, final cache statistics) set
//! once or at a coarse cadence. Both serialize into `metrics.json` and the
//! per-iteration JSONL stream (counters as per-iteration deltas).

/// Monotone event counters of the placement flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Global-placement iterations executed.
    Iterations = 0,
    /// Nets classified geometry-dirty (coordinate-only Steiner update).
    GeoDirtyNets,
    /// Nets classified topology-dirty (per-net Steiner rebuild).
    TopoDirtyNets,
    /// STA analyses in the loop: one full analysis per iteration on which
    /// the mode's timing mechanism ran.
    StaFull,
    /// Full Steiner-forest builds.
    ForestBuilds,
    /// Incremental forest synchronizations (dirty-set sweeps).
    ForestSyncs,
    /// Full RUDY congestion-map builds: one per route feedback iteration,
    /// plus the final summary map.
    RudyBuilds,
    /// Exact STA runs performed only to feed the trace.
    TraceAnalyses,
}

impl Counter {
    /// Number of counters (length of every per-counter array).
    pub const COUNT: usize = 8;

    /// Every counter, in slot order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Iterations,
        Counter::GeoDirtyNets,
        Counter::TopoDirtyNets,
        Counter::StaFull,
        Counter::ForestBuilds,
        Counter::ForestSyncs,
        Counter::RudyBuilds,
        Counter::TraceAnalyses,
    ];

    /// Dense slot index of this counter.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in the structured sinks.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Iterations => "iterations",
            Counter::GeoDirtyNets => "geo_dirty_nets",
            Counter::TopoDirtyNets => "topo_dirty_nets",
            Counter::StaFull => "sta_full",
            Counter::ForestBuilds => "forest_builds",
            Counter::ForestSyncs => "forest_syncs",
            Counter::RudyBuilds => "rudy_builds",
            Counter::TraceAnalyses => "trace_analyses",
        }
    }

    /// Inverse of [`Counter::name`]: resolves a sink name back to the
    /// counter (the trace reader's lookup). `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.iter().copied().find(|c| c.name() == name)
    }
}

/// Point-in-time gauges: backend selections and end-of-run cache statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// 1.0 when the density model runs the FFT Poisson backend, 0.0 dense.
    FftBackend = 0,
    /// Fraction of routing bins over capacity in the final placement.
    OverflowedFrac,
    /// Steiner trees from exact constructions (final forest composition).
    RsmtExact,
    /// Steiner trees from topology-table lookups.
    RsmtTable,
    /// Steiner trees from the Prim fallback heuristic.
    RsmtPrim,
    /// Degree-9 topology-table classes the process generated (lazily, on
    /// first visit). Degrees 4–8 ship as data and are never generated.
    RsmtClassesGenerated,
    /// Milliseconds spent generating them (degree 9 only), summed over
    /// threads (wall-clock: not deterministic, which is why it is a gauge and
    /// never in the trace).
    RsmtClassGenMs,
    /// Parallel regions this run dispatched to the worker pool.
    PoolDispatches,
    /// Parallel regions of this run that ran inline on the calling thread
    /// instead: single-task regions, regions nested in a chunk (a helped
    /// one included), a join side's on a pool that may not spin, 1-thread
    /// pools.
    PoolInlineRegions,
    /// Dispatched regions published without a mutex or system call (every
    /// worker was running or polling).
    PoolHotHandoffs,
    /// Dispatched regions that had to wake a parked worker
    /// (`pool_hot_handoffs + pool_wakes = pool_dispatches`).
    PoolWakes,
    /// Milliseconds the pool's threads spent polling for work, for
    /// completion or, done with a join side, for the other side's regions
    /// to help with: what the hot hand-offs and the help cost in CPU time.
    /// Wall-clock dependent like the two before it, hence gauges and never
    /// in the trace.
    PoolSpinMs,
    /// Worker-pool width (threads participating in a parallel region).
    PoolThreads,
    /// Milliseconds two tasks of one iteration ran side by side: for every
    /// region that ran the density/congestion evaluation beside the timing
    /// analysis or the wirelength gradient, the two tasks' busy time minus
    /// the region's wall time, summed over the run. Their phases record busy
    /// time, so the phase seconds sum to the instrumented wall time plus
    /// this. Wall-clock dependent, hence a gauge and never in the trace.
    OverlapMs,
    /// Row bands the legalizer partitioned the core into (1 = serial scan).
    LegalizeBands,
    /// Bins written by the exact RUDY map, taking demand back and stamping
    /// it alike: the route layer's unit of work (`rudy_update` time over
    /// this is ns per stamp). A per-run total, which is why it is a gauge
    /// and never in the trace.
    RudyStamps,
    /// Heap bytes the design's netlist holds, summed from its arrays'
    /// capacities (bytes per cell is this over the cell count).
    NetlistBytes,
    /// Input megabytes per second of the `parse` phase (file-backed designs).
    ParseMbS,
    /// Parallel regions a join side of this run published for the join's
    /// other threads to help with (the idle side's thread takes its chunks).
    PoolHelpedRegions,
    /// Chunks of those regions a helping thread ran. Like the pool gauges
    /// above, schedule dependent, hence a gauge and never in the trace.
    PoolStolenChunks,
}

impl Gauge {
    /// Number of gauges (length of every per-gauge array).
    pub const COUNT: usize = 20;

    /// Every gauge, in slot order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::FftBackend,
        Gauge::OverflowedFrac,
        Gauge::RsmtExact,
        Gauge::RsmtTable,
        Gauge::RsmtPrim,
        Gauge::RsmtClassesGenerated,
        Gauge::RsmtClassGenMs,
        Gauge::PoolDispatches,
        Gauge::PoolInlineRegions,
        Gauge::PoolHotHandoffs,
        Gauge::PoolWakes,
        Gauge::PoolSpinMs,
        Gauge::PoolThreads,
        Gauge::OverlapMs,
        Gauge::LegalizeBands,
        Gauge::RudyStamps,
        Gauge::NetlistBytes,
        Gauge::ParseMbS,
        Gauge::PoolHelpedRegions,
        Gauge::PoolStolenChunks,
    ];

    /// Dense slot index of this gauge.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in the structured sinks.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::FftBackend => "fft_backend",
            Gauge::OverflowedFrac => "overflowed_frac",
            Gauge::RsmtExact => "rsmt_exact",
            Gauge::RsmtTable => "rsmt_table",
            Gauge::RsmtPrim => "rsmt_prim",
            Gauge::RsmtClassesGenerated => "rsmt_classes_generated",
            Gauge::RsmtClassGenMs => "rsmt_class_gen_ms",
            Gauge::PoolDispatches => "pool_dispatches",
            Gauge::PoolInlineRegions => "pool_inline_regions",
            Gauge::PoolHotHandoffs => "pool_hot_handoffs",
            Gauge::PoolWakes => "pool_wakes",
            Gauge::PoolSpinMs => "pool_spin_ms",
            Gauge::PoolThreads => "pool_threads",
            Gauge::OverlapMs => "overlap_ms",
            Gauge::LegalizeBands => "legalize_bands",
            Gauge::RudyStamps => "rudy_stamps",
            Gauge::NetlistBytes => "netlist_bytes",
            Gauge::ParseMbS => "parse_mb_s",
            Gauge::PoolHelpedRegions => "pool_helped_regions",
            Gauge::PoolStolenChunks => "pool_stolen_chunks",
        }
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
