//! Steiner-forest benchmark emitting `BENCH_rsmt.json`.
//!
//! Measurements, mirroring `bench_density`'s hand-timed style:
//!
//! 0. **Cold start**: what a flow actually pays — a tables-backed forest is
//!    built and then rebuilt over a drift loop that moves every cell each
//!    round, with an empty registry, and the classes generated on the way
//!    plus their generation milliseconds (summed over threads, so they can
//!    exceed the loop's wall clock) are read from `table_stats`.
//! 1. **Table prewarm**: class/POWV counts and generation time for the
//!    topology-table registry up to a degree cap (the flow generates
//!    lazily; this quantifies the full worst case), with the mean generation
//!    cost per class and degree.
//! 2. **Wirelength quality**: per-degree table-tree wirelength vs the
//!    legacy construction (exact at 4, Prim at 5–9) over random nets — the
//!    acceptance target is ≥ 1 % average reduction on degrees 5–9.
//! 3. **Maintenance throughput**: dirty-net sweeps at 1 % moved cells on a
//!    generated design, serial legacy rebuilds vs the parallel,
//!    sequence-cached, allocation-free `*_nets_into` sweeps on 4 worker
//!    threads (acceptance: ≥ 4×), plus per-call heap-allocation counts
//!    from a counting global allocator (`update_nets_into` must be zero in
//!    steady state).
//! 4. **Full-forest build**: legacy vs table-backed construction time.
//!
//! Usage: `cargo run --release -p dtp-bench --bin bench_rsmt [-- cells]`
//! (default 4000). `--smoke` runs a tiny configuration for CI.

use dtp_netlist::generate::{generate, GeneratorConfig};
use dtp_netlist::{CellId, NetId, Point};
use dtp_rsmt::{
    build_forest, build_forest_with, build_tree_with, prewarm, table_stats, ForestScratch,
    SteinerTree, TableConfig, TableStats, TreeView,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

mod alloc_counter {
    //! Counting wrapper around the system allocator: `allocs()` reads the
    //! total number of `alloc`/`realloc` calls process-wide.
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    // SAFETY: defers to `System` for every operation; only adds a counter.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, l: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(l)
        }
        unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
            System.dealloc(p, l)
        }
        unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(p, l, n)
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;

    pub fn allocs() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Mean nanoseconds per call of `f` (warmup + ~0.5 s of repetitions).
fn time_ns(mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64();
    let reps = ((0.5 / once.max(1e-6)) as usize).clamp(5, 200);
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / reps as f64
}

/// Heap allocations per call of `f`, averaged over `reps` post-warmup calls.
fn allocs_per_call(warmup: u64, reps: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let before = alloc_counter::allocs();
    for _ in 0..reps {
        f();
    }
    (alloc_counter::allocs() - before) as f64 / reps as f64
}

/// Deterministic splitmix64.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` pseudo-random pins in a 100×100 window, keyed by `seed`.
fn random_pins(n: usize, seed: u64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let a = mix(seed.wrapping_mul(0x10001).wrapping_add(i as u64));
            let b = mix(a);
            Point::new((a % 100_000) as f64 / 1000.0, (b % 100_000) as f64 / 1000.0)
        })
        .collect()
}

fn main() {
    // Pin the worker pool width before its lazy initialization so the
    // maintenance numbers are comparable across machines.
    if std::env::var("RAYON_NUM_THREADS").is_err() {
        std::env::set_var("RAYON_NUM_THREADS", "4");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let cells: usize = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if smoke { 800 } else { 4000 });

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"design_cells\": {cells},");
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"threads\": {},", rayon::current_num_threads());

    let cfg = TableConfig::default();
    let design = generate(&GeneratorConfig::named("bench_rsmt", cells)).unwrap();
    let mut nl = design.netlist;
    let movable: Vec<CellId> = nl.movable_cells().collect();

    // --- 0. Cold start: lazy generation under flow-like traffic ------------
    // Must run first: the registry is process-wide and nothing has touched
    // it yet. Every round moves every cell and rebuilds every tree, which is
    // what the in-loop forest sees (every sync touches every tree).
    {
        let home: Vec<Point> = movable.iter().map(|&c| nl.cell(c).pos()).collect();
        let rounds = if smoke { 4 } else { 16 };
        let t0 = Instant::now();
        let mut forest = build_forest_with(&nl, cfg);
        let nets: Vec<NetId> = nl.net_ids().filter(|&n| forest.tree(n).is_some()).collect();
        let mut scratch = ForestScratch::new();
        for round in 0..rounds {
            for (k, &c) in movable.iter().enumerate() {
                let a = mix(round * 0x1_0000 + k as u64);
                let dx = (a % 1000) as f64 / 125.0 - 4.0;
                let dy = ((a >> 10) % 1000) as f64 / 125.0 - 4.0;
                nl.set_cell_pos(c, home[k] + Point::new(dx, dy));
            }
            forest.rebuild_nets_into(&nl, &nets, &mut scratch);
        }
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
        for (&c, &p) in movable.iter().zip(&home) {
            nl.set_cell_pos(c, p);
        }
        let (t, s) = (table_stats(), forest.stats());
        let gen_ms = t.gen_ns as f64 / 1e6;
        let hit_rate = s.seq_hits as f64 / (s.seq_hits + s.seq_rebuilds).max(1) as f64;
        let _ = writeln!(
            json,
            "  \"cold\": {{\"rounds\": {rounds}, \"nets\": {}, \"classes_generated\": {}, \
             \"class_gen_ms\": {gen_ms:.2}, \"build_and_sweeps_ms\": {cold_ms:.2}, \
             \"seq_cache_hit_rate\": {hit_rate:.4}}},",
            nets.len(),
            t.classes_generated
        );
        println!(
            "cold start: build + {rounds} all-net rebuild rounds over {} nets in {cold_ms:.1} ms, \
             of which {} classes generated in {gen_ms:.1} ms (seq-cache hit rate {:.1}%)",
            nets.len(),
            t.classes_generated,
            hit_rate * 100.0
        );
    }

    // --- 1. Table prewarm -------------------------------------------------
    // Degree by degree, so the registry counters attribute generation time.
    let prewarm_degree = if smoke { 5 } else { 8 };
    // A degree whose classes the cold arm already generated (4 and 5 on any
    // realistic design: 7 and 23 classes) has nothing left to time.
    let mut class_gen_us = String::new();
    let mut note_gen_us = |degree: usize, before: TableStats| {
        let now = table_stats();
        let n = now.classes_generated - before.classes_generated;
        if n > 0 {
            let us = (now.gen_ns - before.gen_ns) as f64 / 1e3 / n as f64;
            let _ = write!(class_gen_us, "\"degree_{degree}\": {us:.2}, ");
        }
    };
    let t0 = Instant::now();
    let (mut classes, mut powvs) = (0, 0);
    for degree in 4..=prewarm_degree {
        let before = table_stats();
        (classes, powvs) = prewarm(degree);
        note_gen_us(degree, before);
    }
    let prewarm_s = t0.elapsed().as_secs_f64();
    let _ = writeln!(
        json,
        "  \"prewarm\": {{\"max_degree\": {prewarm_degree}, \"classes\": {classes}, \
         \"powvs\": {powvs}, \"seconds\": {prewarm_s:.3}}},"
    );
    println!("prewarm(≤{prewarm_degree}): {classes} classes, {powvs} POWVs in {prewarm_s:.3}s");

    // --- 2. Wirelength quality per degree ---------------------------------
    let nets_per_degree = if smoke { 100 } else { 600 };
    let _ = writeln!(json, "  \"wl_quality\": {{");
    println!("wirelength vs legacy ({nets_per_degree} random nets/degree):");
    let mut sum_legacy_59 = 0.0;
    let mut sum_table_59 = 0.0;
    for degree in 4..=9usize {
        let mut legacy_wl = 0.0;
        let mut table_wl = 0.0;
        let before = table_stats();
        for k in 0..nets_per_degree {
            let pins = random_pins(degree, (degree * 10_000 + k) as u64);
            legacy_wl += SteinerTree::build(&pins).wirelength();
            table_wl += build_tree_with(&pins, cfg).wirelength();
        }
        assert!(
            table_wl <= legacy_wl + 1e-6,
            "degree {degree}: table trees longer than legacy ({table_wl} > {legacy_wl})"
        );
        if degree >= 5 {
            sum_legacy_59 += legacy_wl;
            sum_table_59 += table_wl;
        }
        if degree > prewarm_degree {
            // Not prewarmed: these nets generated their classes on the way.
            note_gen_us(degree, before);
        }
        let reduction = (1.0 - table_wl / legacy_wl) * 100.0;
        let _ = writeln!(
            json,
            "    \"degree_{degree}\": {{\"legacy_wl\": {legacy_wl:.1}, \
             \"table_wl\": {table_wl:.1}, \"reduction_pct\": {reduction:.3}}},"
        );
        println!("  deg {degree}: legacy {legacy_wl:>10.1} | table {table_wl:>10.1} | -{reduction:.2}%");
    }
    let mean_reduction = (1.0 - sum_table_59 / sum_legacy_59) * 100.0;
    let _ = writeln!(json, "    \"mean_reduction_5to9_pct\": {mean_reduction:.3}");
    let _ = writeln!(json, "  }},");
    println!("  degrees 5-9 combined: -{mean_reduction:.2}% vs Prim");
    let class_gen_us = class_gen_us.trim_end_matches(", ");
    let _ = writeln!(json, "  \"class_gen_us\": {{{class_gen_us}}},");
    println!("mean generation cost per class, us: {class_gen_us}");

    // --- 3. Maintenance throughput at 1 % moved cells ---------------------
    let moved_count = (movable.len() / 100).max(1);
    // A deterministic 1 % sample spread across the design.
    let moved: Vec<CellId> = (0..moved_count)
        .map(|k| movable[(mix(k as u64) as usize) % movable.len()])
        .collect();
    let base: Vec<Point> = moved.iter().map(|&c| nl.cell(c).pos()).collect();

    let mut legacy = build_forest(&nl);
    let mut tables = build_forest_with(&nl, cfg);
    let dirty: Vec<NetId> = {
        let mut seen = vec![false; nl.num_nets()];
        let mut v = Vec::new();
        for &c in &moved {
            for &p in nl.cell(c).pins() {
                if let Some(net) = nl.pin(p).net() {
                    if legacy.tree(net).is_some() && !seen[net.index()] {
                        seen[net.index()] = true;
                        v.push(net);
                    }
                }
            }
        }
        v
    };
    println!(
        "maintenance: {} moved cells (1%), {} dirty nets, {} threads",
        moved.len(),
        dirty.len(),
        rayon::current_num_threads()
    );

    // Bounded deterministic drift: cells cycle through 8 offsets so repeated
    // timing calls see realistic small moves without wandering off-chip.
    let mut round = 0u64;
    let mut drift = |nl: &mut dtp_netlist::Netlist| {
        round += 1;
        for (k, &c) in moved.iter().enumerate() {
            let a = mix(round % 8 + 17 * k as u64);
            let dx = (a % 1000) as f64 / 500.0 - 1.0;
            let dy = ((a >> 10) % 1000) as f64 / 500.0 - 1.0;
            nl.set_cell_pos(c, base[k] + Point::new(dx, dy));
        }
    };

    // Topology sweeps: serial legacy rebuilds (the pre-table behaviour) vs
    // the parallel table sweeps, same drift pattern inside both closures.
    let serial_rebuild_ns = time_ns(|| {
        drift(&mut nl);
        legacy.rebuild_nets(&nl, &dirty);
        black_box(legacy.tree(dirty[0]).map(TreeView::wirelength));
    });
    let mut scratch = ForestScratch::new();
    let parallel_rebuild_ns = time_ns(|| {
        drift(&mut nl);
        tables.rebuild_nets_into(&nl, &dirty, &mut scratch);
        black_box(tables.tree(dirty[0]).map(TreeView::wirelength));
    });
    let rebuild_speedup = serial_rebuild_ns / parallel_rebuild_ns;

    // Geometry sweeps over the dirty set (small: both run inline) and over
    // every signal net (large: the parallel path engages).
    let serial_update_ns = time_ns(|| {
        drift(&mut nl);
        legacy.update_nets(&nl, &dirty);
        black_box(legacy.tree(dirty[0]).map(TreeView::wirelength));
    });
    let parallel_update_ns = time_ns(|| {
        drift(&mut nl);
        tables.update_nets_into(&nl, &dirty, &mut scratch);
        black_box(tables.tree(dirty[0]).map(TreeView::wirelength));
    });
    let update_speedup = serial_update_ns / parallel_update_ns;
    let all_nets: Vec<NetId> = nl
        .net_ids()
        .filter(|&n| legacy.tree(n).is_some())
        .collect();
    let serial_update_all_ns = time_ns(|| {
        drift(&mut nl);
        legacy.update_nets(&nl, &all_nets);
        black_box(legacy.tree(all_nets[0]).map(TreeView::wirelength));
    });
    let parallel_update_all_ns = time_ns(|| {
        drift(&mut nl);
        tables.update_nets_into(&nl, &all_nets, &mut scratch);
        black_box(tables.tree(all_nets[0]).map(TreeView::wirelength));
    });
    let update_all_speedup = serial_update_all_ns / parallel_update_all_ns;

    let stats = tables.stats();
    let hit_rate = stats.seq_hits as f64 / (stats.seq_hits + stats.seq_rebuilds).max(1) as f64;

    // Steady-state allocation counts. 16 warmup rounds visit every offset of
    // the drift cycle, so all table classes and scratch capacities exist
    // before counting starts.
    let update_allocs = allocs_per_call(16, 10, || {
        drift(&mut nl);
        tables.update_nets_into(&nl, &dirty, &mut scratch);
    });
    let rebuild_allocs = allocs_per_call(16, 10, || {
        drift(&mut nl);
        tables.rebuild_nets_into(&nl, &dirty, &mut scratch);
    });
    assert_eq!(
        update_allocs, 0.0,
        "update_nets_into must be allocation-free in steady state"
    );
    assert_eq!(
        rebuild_allocs, 0.0,
        "rebuild_nets_into must be allocation-free in steady state"
    );

    let _ = writeln!(
        json,
        "  \"maintenance\": {{\"moved_cells\": {}, \"dirty_nets\": {}, \
         \"serial_legacy_rebuild_ns\": {serial_rebuild_ns:.0}, \
         \"parallel_tables_rebuild_ns\": {parallel_rebuild_ns:.0}, \
         \"rebuild_speedup\": {rebuild_speedup:.2}, \
         \"serial_update_ns\": {serial_update_ns:.0}, \
         \"parallel_update_ns\": {parallel_update_ns:.0}, \
         \"update_speedup\": {update_speedup:.2}, \
         \"all_nets\": {}, \
         \"serial_update_all_ns\": {serial_update_all_ns:.0}, \
         \"parallel_update_all_ns\": {parallel_update_all_ns:.0}, \
         \"update_all_speedup\": {update_all_speedup:.2}, \
         \"seq_cache_hit_rate\": {hit_rate:.4}, \
         \"update_into_steady_state_allocs\": {update_allocs:.1}, \
         \"rebuild_into_steady_state_allocs\": {rebuild_allocs:.1}}},",
        moved.len(),
        dirty.len(),
        all_nets.len()
    );
    println!(
        "  rebuild sweep: serial legacy {serial_rebuild_ns:>10.0} ns | parallel tables \
         {parallel_rebuild_ns:>10.0} ns ({rebuild_speedup:.1}x)"
    );
    println!(
        "  update sweep:  serial {serial_update_ns:>10.0} ns | parallel \
         {parallel_update_ns:>10.0} ns ({update_speedup:.1}x)"
    );
    println!(
        "  update all {} nets: serial {serial_update_all_ns:>10.0} ns | parallel \
         {parallel_update_all_ns:>10.0} ns ({update_all_speedup:.1}x)",
        all_nets.len()
    );
    println!("  seq-cache hit rate {:.1}% | allocs/sweep: update {update_allocs:.0}, rebuild {rebuild_allocs:.0}", hit_rate * 100.0);

    // --- 4. Full-forest build ---------------------------------------------
    let legacy_build_ns = time_ns(|| {
        black_box(build_forest(&nl).total_wirelength());
    });
    let tables_build_ns = time_ns(|| {
        black_box(build_forest_with(&nl, cfg).total_wirelength());
    });
    let _ = writeln!(
        json,
        "  \"forest_build\": {{\"legacy_ns\": {legacy_build_ns:.0}, \
         \"tables_ns\": {tables_build_ns:.0}}}"
    );
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_rsmt.json", &json).expect("write BENCH_rsmt.json");
    println!(
        "forest build: legacy {legacy_build_ns:.0} ns | tables {tables_build_ns:.0} ns"
    );
    println!("wrote BENCH_rsmt.json");
}
