//! Deterministic synthetic benchmark generation.
//!
//! The ICCAD-2015 superblue benchmarks used in the paper are proprietary
//! contest data at a scale (0.8–1.9 M cells) unsuited to a laptop test
//! environment. This module generates structurally similar designs: levelized
//! combinational clouds between register banks, contest-like (geometric)
//! fanout distributions, I/O ports on the die boundary, and an ideal clock
//! network. [`superblue_proxy`] scales the Table 2 cell counts down by a
//! configurable factor while keeping their *ratios*, so the benchmark suite
//! used by the experiment harness mirrors the paper's.

use crate::builder::NetlistBuilder;
use crate::class::ClassId;
use crate::design::Design;
use crate::error::NetlistError;
use crate::geom::Rect;
use crate::ids::{CellId, PinId};
use crate::sdc::Sdc;
use crate::stdcells::{self, ROW_HEIGHT, SITE_WIDTH};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic design generator.
#[derive(Clone, Debug, PartialEq)]
pub struct GeneratorConfig {
    /// Design name.
    pub name: String,
    /// Target number of movable cells (registers + combinational).
    pub num_cells: usize,
    /// Fraction of movable cells that are registers.
    pub register_fraction: f64,
    /// Number of combinational logic levels between register stages.
    pub depth: usize,
    /// Mean fanout of a driver (geometric distribution).
    pub mean_fanout: f64,
    /// Maximum fanout of any signal net.
    pub max_fanout: usize,
    /// Number of primary inputs (0 = derived from `num_cells`).
    pub num_inputs: usize,
    /// Number of primary outputs (0 = derived from `num_cells`).
    pub num_outputs: usize,
    /// Target placement utilization (movable area / core area).
    pub utilization: f64,
    /// Core aspect ratio (width / height).
    pub aspect: f64,
    /// Clock period in ps.
    pub clock_period: f64,
    /// RNG seed; identical configs generate identical designs.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            name: "synth".to_owned(),
            num_cells: 2000,
            register_fraction: 0.15,
            depth: 12,
            mean_fanout: 3.0,
            max_fanout: 24,
            num_inputs: 0,
            num_outputs: 0,
            utilization: 0.7,
            aspect: 1.0,
            clock_period: 0.0, // 0 = auto from depth
            seed: 0xD7CA_2022,
        }
    }
}

impl GeneratorConfig {
    /// Convenience constructor for a named design of a given size.
    pub fn named(name: impl Into<String>, num_cells: usize) -> Self {
        GeneratorConfig {
            name: name.into(),
            num_cells,
            ..GeneratorConfig::default()
        }
    }

    fn derived_io(&self) -> (usize, usize) {
        let base = ((self.num_cells as f64).sqrt() as usize).max(4);
        let ni = if self.num_inputs == 0 { base } else { self.num_inputs };
        let no = if self.num_outputs == 0 { base } else { self.num_outputs };
        (ni, no)
    }

    fn derived_period(&self) -> f64 {
        if self.clock_period > 0.0 {
            self.clock_period
        } else {
            // Roughly 60% of the expected unconstrained critical-path delay so
            // the generated design starts with real timing violations — the
            // regime timing-driven placement is evaluated in.
            self.depth as f64 * 38.0
        }
    }
}

/// A pool of driver pins, each appearing once per remaining fanout slot.
/// Uniform draws from the pool weight drivers by their remaining target
/// fanout, which produces the desired geometric fanout distribution.
struct DriverPool {
    slots: Vec<PinId>,
    /// Fallback when the pool runs dry: every driver once.
    all: Vec<PinId>,
}

impl DriverPool {
    fn new() -> Self {
        DriverPool { slots: Vec::new(), all: Vec::new() }
    }

    fn add(&mut self, pin: PinId, target_fanout: usize) {
        for _ in 0..target_fanout {
            self.slots.push(pin);
        }
        self.all.push(pin);
    }

    /// Draws a driver that still has sink capacity under `cap`, weighted by
    /// remaining target fanout while slots last, uniform over non-saturated
    /// drivers afterwards. `used` counts sinks already connected per driver.
    fn draw(
        &mut self,
        rng: &mut StdRng,
        used: &std::collections::HashMap<PinId, usize>,
        cap: usize,
    ) -> Option<PinId> {
        let has_cap = |p: &PinId| used.get(p).copied().unwrap_or(0) < cap;
        // Slot entries for drivers that saturated through the bias path are
        // stale; discard them as they come up.
        while !self.slots.is_empty() {
            let i = rng.gen_range(0..self.slots.len());
            let pin = self.slots.swap_remove(i);
            if has_cap(&pin) {
                return Some(pin);
            }
        }
        if self.all.is_empty() {
            return None;
        }
        for _ in 0..16 {
            let pin = self.all[rng.gen_range(0..self.all.len())];
            if has_cap(&pin) {
                return Some(pin);
            }
        }
        self.all.iter().copied().find(has_cap)
    }
}

/// Samples a geometric fanout with the configured mean, clamped to
/// `[1, max_fanout]`.
fn sample_fanout(rng: &mut StdRng, mean: f64, max: usize) -> usize {
    let p = 1.0 / mean.max(1.0);
    let mut f = 1usize;
    while f < max && rng.gen::<f64>() > p {
        f += 1;
    }
    f
}

/// Generates a synthetic [`Design`] from `config`.
///
/// The construction is level-synchronous: registers and primary inputs form
/// level 0; combinational gates are assigned to levels `1..=depth`; each gate
/// input draws its driver from strictly earlier levels (biased to the previous
/// level to create long paths); register data inputs and primary outputs draw
/// from the full pool. Every driver ends up with ≥ 1 sink (dangling outputs
/// are tied to auto-created output ports), so the result always validates.
///
/// # Errors
///
/// Propagates [`NetlistError`] from the builder; with a well-formed config
/// this does not occur.
pub fn generate(config: &GeneratorConfig) -> Result<Design, NetlistError> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ hash_name(&config.name));
    let mut b = NetlistBuilder::new();

    // Register the canonical classes.
    let comb_classes: Vec<ClassId> = stdcells::combinational()
        .map(|s| b.add_class(s.to_class()))
        .collect();
    let reg_classes: Vec<ClassId> = stdcells::registers()
        .map(|s| b.add_class(s.to_class()))
        .collect();

    let n_regs = ((config.num_cells as f64) * config.register_fraction).round() as usize;
    let n_comb = config.num_cells.saturating_sub(n_regs).max(1);
    let (n_pi, n_po) = config.derived_io();
    let depth = config.depth.max(1);

    // --- instantiate cells ---------------------------------------------------
    let clk_port = b.add_input_port("clk")?;
    let mut pi_ports = Vec::with_capacity(n_pi);
    for i in 0..n_pi {
        pi_ports.push(b.add_input_port(format!("in{i}"))?);
    }
    let mut po_ports = Vec::with_capacity(n_po);
    for i in 0..n_po {
        po_ports.push(b.add_output_port(format!("out{i}"))?);
    }
    let mut regs = Vec::with_capacity(n_regs);
    for i in 0..n_regs {
        let class = reg_classes[rng.gen_range(0..reg_classes.len())];
        regs.push(b.add_cell(format!("ff{i}"), class)?);
    }
    // Combinational gates, each assigned a level in 1..=depth.
    let mut gates: Vec<(CellId, usize)> = Vec::with_capacity(n_comb);
    for i in 0..n_comb {
        let class = comb_classes[rng.gen_range(0..comb_classes.len())];
        let level = rng.gen_range(1..=depth);
        gates.push((b.add_cell(format!("g{i}"), class)?, level));
    }
    gates.sort_by_key(|&(_, l)| l);

    // --- connect -------------------------------------------------------------
    // One net per driver pin, created lazily on first sink.
    let mut net_of_driver: std::collections::HashMap<PinId, crate::ids::NetId> =
        std::collections::HashMap::new();
    let mut net_counter = 0usize;

    let mut sink =
        |b: &mut NetlistBuilder, driver: PinId, sink_cell: CellId, sink_pin: &str| -> Result<(), NetlistError> {
            let net = match net_of_driver.get(&driver) {
                Some(&n) => n,
                None => {
                    let n = b.add_net(format!("net{net_counter}"))?;
                    net_counter += 1;
                    b.connect(n, driver)?;
                    net_of_driver.insert(driver, n);
                    n
                }
            };
            b.connect_by_name(net, sink_cell, sink_pin)?;
            Ok(())
        };

    // Pool of drivers, grown level by level. `used` counts connected sinks
    // per driver so no signal net ever exceeds `max_fanout` sinks, whichever
    // path (slot pool, locality bias, dry-pool fallback) picked the driver.
    let mut pool = DriverPool::new();
    let mut prev_level_drivers: Vec<PinId> = Vec::new();
    let mut used: std::collections::HashMap<PinId, usize> = std::collections::HashMap::new();
    let max_fo = config.max_fanout.max(1);

    // Level 0: PI ports and register Q outputs.
    for &p in &pi_ports {
        let pin = b.as_netlist().find_pin(p, crate::model::PORT_PIN).expect("port pin");
        let f = sample_fanout(&mut rng, config.mean_fanout, config.max_fanout);
        pool.add(pin, f);
        prev_level_drivers.push(pin);
    }
    let mut reg_q_pins = Vec::with_capacity(regs.len());
    for &r in &regs {
        let nl = b.as_netlist();
        let class = nl.class_of(r);
        let q = class.output_pins().next().expect("register has an output");
        let pin = nl.cell(r).pins()[q.index()];
        let f = sample_fanout(&mut rng, config.mean_fanout, config.max_fanout);
        pool.add(pin, f);
        reg_q_pins.push(pin);
        prev_level_drivers.push(pin);
    }

    // Combinational levels.
    let mut gate_outputs: Vec<PinId> = Vec::with_capacity(gates.len());
    let mut gi = 0usize;
    for level in 1..=depth {
        let start = gi;
        while gi < gates.len() && gates[gi].1 == level {
            gi += 1;
        }
        let level_gates = &gates[start..gi];
        // Wire inputs of this level's gates from the pool (earlier levels),
        // with a bias toward the immediately previous level for long paths.
        let mut this_level_outputs = Vec::with_capacity(level_gates.len());
        for &(g, _) in level_gates {
            let (input_pins, output_pin) = {
                let nl = b.as_netlist();
                let class = nl.class_of(g);
                let ins: Vec<String> = class
                    .signal_input_pins()
                    .map(|cp| class.pin(cp).name.clone())
                    .collect();
                let out_cp = class.output_pins().next().expect("gate has an output");
                let out = nl.cell(g).pins()[out_cp.index()];
                (ins, out)
            };
            for pin_name in &input_pins {
                // Locality bias: prefer the previous level, but only drivers
                // that still have fanout capacity.
                let biased = if !prev_level_drivers.is_empty() && rng.gen::<f64>() < 0.6 {
                    (0..8)
                        .map(|_| prev_level_drivers[rng.gen_range(0..prev_level_drivers.len())])
                        .find(|p| used.get(p).copied().unwrap_or(0) < max_fo)
                } else {
                    None
                };
                let driver = match biased {
                    Some(p) => p,
                    None => pool
                        .draw(&mut rng, &used, max_fo)
                        .expect("driver pool is never empty: PIs are added at level 0"),
                };
                *used.entry(driver).or_insert(0) += 1;
                sink(&mut b, driver, g, pin_name)?;
            }
            this_level_outputs.push(output_pin);
        }
        for &pin in &this_level_outputs {
            let f = sample_fanout(&mut rng, config.mean_fanout, config.max_fanout);
            pool.add(pin, f);
            gate_outputs.push(pin);
        }
        // Levels with no gates (possible at small sizes) keep the previous
        // driver set so the locality bias never indexes an empty vector.
        if !this_level_outputs.is_empty() {
            prev_level_drivers = this_level_outputs;
        }
    }

    // Register D inputs and primary outputs draw from the full pool, biased to
    // deep levels via the pool contents themselves.
    for &r in &regs {
        let driver = pool.draw(&mut rng, &used, max_fo).expect("non-empty driver pool");
        *used.entry(driver).or_insert(0) += 1;
        sink(&mut b, driver, r, stdcells::registers().next().map(|s| s.inputs[0]).unwrap_or("D"))?;
    }
    for &p in &po_ports {
        let driver = pool.draw(&mut rng, &used, max_fo).expect("non-empty driver pool");
        *used.entry(driver).or_insert(0) += 1;
        sink(&mut b, driver, p, crate::model::PORT_PIN)?;
    }

    // Clock network: clk port drives every register CK pin (ideal clock).
    if !regs.is_empty() {
        let clk_pin = b.as_netlist().find_pin(clk_port, crate::model::PORT_PIN).expect("clk pin");
        let cnet = b.add_net("clknet")?;
        b.connect(cnet, clk_pin)?;
        for &r in &regs {
            b.connect_by_name(cnet, r, stdcells::CLOCK_PIN)?;
        }
    }

    // Dangling gate outputs become extra primary outputs so validation holds.
    let dangling: Vec<PinId> = gate_outputs
        .iter()
        .chain(reg_q_pins.iter())
        .copied()
        .filter(|p| !net_of_driver.contains_key(p))
        .collect();
    for (extra_po, pin) in dangling.into_iter().enumerate() {
        let po = b.add_output_port(format!("xout{extra_po}"))?;
        let net = b.add_net(format!("net{net_counter}"))?;
        net_counter += 1;
        b.connect(net, pin)?;
        b.connect_port(net, po)?;
    }
    // Unused PI ports: leave their pins unconnected (allowed).

    // --- floorplan and initial placement --------------------------------------
    let movable_area: f64 = b.as_netlist().movable_area();
    let core_area = movable_area / config.utilization.clamp(0.05, 0.95);
    let width = (core_area * config.aspect).sqrt();
    let height_raw = core_area / width;
    let height = (height_raw / ROW_HEIGHT).ceil().max(1.0) * ROW_HEIGHT;
    let region = Rect::new(0.0, 0.0, width, height);

    // Random interior positions for movable cells; ports spread on boundary.
    {
        let cell_ids: Vec<CellId> = b.as_netlist().cell_ids().collect();
        let mut port_idx = 0usize;
        let n_ports = cell_ids
            .iter()
            .filter(|&&c| b.as_netlist().cell_is_port(c))
            .count()
            .max(1);
        for c in cell_ids {
            if b.as_netlist().cell_is_port(c) {
                // Walk the boundary perimeter clockwise from the lower-left.
                let t = port_idx as f64 / n_ports as f64;
                let perim = 2.0 * (width + height);
                let d = t * perim;
                let (x, y) = if d < width {
                    (d, 0.0)
                } else if d < width + height {
                    (width, d - width)
                } else if d < 2.0 * width + height {
                    (2.0 * width + height - d, height)
                } else {
                    (0.0, perim - d)
                };
                // Clamp away float noise from the perimeter arithmetic.
                b.place(c, x.clamp(0.0, width), y.clamp(0.0, height));
                port_idx += 1;
            } else {
                let w = b.as_netlist().class_of(c).width();
                let x = rng.gen_range(0.0..(width - w).max(1e-9));
                let y = rng.gen_range(0.0..(height - ROW_HEIGHT).max(1e-9));
                b.place(c, x, y);
            }
        }
    }

    let netlist = b.finish()?;
    netlist.validate()?;

    let mut sdc = Sdc::with_period(config.derived_period());
    sdc.clock_port = Some("clk".to_owned());
    // Modest IO constraints so boundary paths matter but register paths dominate.
    sdc.default_input_delay = 0.1 * sdc.clock_period;
    sdc.default_output_delay = 0.1 * sdc.clock_period;

    Ok(Design::new(&config.name, netlist, region, ROW_HEIGHT, SITE_WIDTH, sdc))
}

/// The eight ICCAD-2015 benchmarks of the paper's Table 2, as
/// `(name, cells, nets, pins)` reference rows.
pub const SUPERBLUE_TABLE2: &[(&str, usize, usize, usize)] = &[
    ("superblue1", 1_209_716, 1_215_710, 3_767_494),
    ("superblue3", 1_213_253, 1_224_979, 3_905_321),
    ("superblue4", 795_645, 802_513, 2_497_940),
    ("superblue5", 1_086_888, 1_100_825, 3_246_878),
    ("superblue7", 1_931_639, 1_933_945, 6_372_094),
    ("superblue10", 1_876_103, 1_898_119, 5_560_506),
    ("superblue16", 981_559, 999_902, 3_013_268),
    ("superblue18", 768_068, 771_542, 2_559_143),
];

/// Default down-scaling factor for the superblue proxies (1/150 of the paper's
/// cell counts keeps the full suite runnable on a laptop in minutes).
pub const DEFAULT_PROXY_SCALE: f64 = 1.0 / 150.0;

/// Generates the proxy for one superblue benchmark; `name` accepts either the
/// full name (`"superblue4"`) or the short form (`"sb4"`).
///
/// # Errors
///
/// Returns [`NetlistError::UnknownName`] for an unrecognized benchmark name
/// and [`NetlistError::ProxyScale`] for a `scale` that is not finite or
/// outside `(0, 1]`.
pub fn superblue_proxy(name: &str, scale: f64) -> Result<Design, NetlistError> {
    // `!(0 < s <= 1)` rather than `s <= 0 || s > 1`: NaN must fail too.
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(NetlistError::ProxyScale(scale));
    }
    let canon = if let Some(idx) = name.strip_prefix("sb") {
        format!("superblue{idx}")
    } else {
        name.to_owned()
    };
    let row = SUPERBLUE_TABLE2
        .iter()
        .find(|(n, _, _, _)| *n == canon)
        .ok_or_else(|| NetlistError::UnknownName(name.to_owned()))?;
    let cells = ((row.1 as f64) * scale).round().max(64.0) as usize;
    let short = canon.replace("superblue", "sb");
    let mut cfg = GeneratorConfig::named(short, cells);
    // Per-benchmark depth variation mirrors the differing path-length profiles
    // of the contest designs.
    cfg.depth = 10 + (hash_name(&canon) % 7) as usize;
    cfg.seed ^= hash_name(&canon);
    generate(&cfg)
}

/// Generates a flat synthetic design sized for scale studies.
///
/// This is the preset behind `scale_golden` and the benchmark's
/// `scale_wl_30k` workload: a shallow (depth 8), moderately
/// connected netlist whose generation cost stays roughly linear in
/// `num_cells`, so 100k/500k/1M-cell instances build in seconds. The same
/// `(num_cells, seed)` pair always produces an identical design, byte for
/// byte, regardless of the active thread pool (the generator is serial).
///
/// # Errors
///
/// Propagates generator errors (none occur for positive cell counts).
pub fn scale_design(num_cells: usize, seed: u64) -> Result<Design, NetlistError> {
    let mut cfg = GeneratorConfig::named(format!("scale{num_cells}"), num_cells);
    // Shallow pipelines keep the register graph wide; scaling studies care
    // about per-iteration throughput, not path-depth realism.
    cfg.depth = 8;
    cfg.utilization = 0.65;
    cfg.seed = 0x5CA1_E000 ^ seed;
    generate(&cfg)
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, deterministic across runs (unlike `DefaultHasher`).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::NetlistStats;

    #[test]
    fn generates_valid_design() {
        let cfg = GeneratorConfig::named("t", 300);
        let d = generate(&cfg).unwrap();
        d.netlist.validate().unwrap();
        let s = NetlistStats::of(&d.netlist);
        assert!(s.num_cells >= 290 && s.num_cells <= 310, "cells = {}", s.num_cells);
        assert!(s.num_registers > 0);
        assert!(s.num_nets > 0);
        assert!(s.avg_net_degree >= 2.0);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = GeneratorConfig::named("t", 200);
        let a = generate(&cfg).unwrap();
        let b = generate(&cfg).unwrap();
        assert_eq!(a.netlist.num_nets(), b.netlist.num_nets());
        assert_eq!(a.netlist.num_pins(), b.netlist.num_pins());
        let (ax, _) = a.netlist.positions();
        let (bx, _) = b.netlist.positions();
        assert_eq!(ax, bx);
    }

    #[test]
    fn scale_design_deterministic_for_same_seed() {
        // CI-sized in debug (`cargo test`), full 100k in release.
        let n = if cfg!(debug_assertions) { 20_000 } else { 100_000 };
        let a = scale_design(n, 7).unwrap();
        let b = scale_design(n, 7).unwrap();
        assert_eq!(a.netlist.num_cells(), b.netlist.num_cells());
        assert_eq!(a.netlist.num_nets(), b.netlist.num_nets());
        assert_eq!(a.netlist.num_pins(), b.netlist.num_pins());
        let (ax, ay) = a.netlist.positions();
        let (bx, by) = b.netlist.positions();
        assert_eq!(ax, bx);
        assert_eq!(ay, by);
        let c = scale_design(n, 8).unwrap();
        let (cx, _) = c.netlist.positions();
        assert_ne!(ax, cx);
    }

    #[test]
    fn scale_design_stable_across_pool_widths() {
        // The generator is serial, but the preset is consumed by a
        // thread-scaling bench — pin down that the active pool cannot leak
        // into the output.
        let base = scale_design(5_000, 3).unwrap();
        let (bx, by) = base.netlist.positions();
        for threads in [2usize, 4, 8] {
            let d = rayon::with_pool(&rayon::Pool::new(threads), || scale_design(5_000, 3))
                .unwrap();
            let (dx, dy) = d.netlist.positions();
            assert_eq!(bx, dx, "x positions differ under {threads} threads");
            assert_eq!(by, dy, "y positions differ under {threads} threads");
            assert_eq!(base.netlist.num_pins(), d.netlist.num_pins());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = GeneratorConfig::named("t", 200);
        let a = generate(&cfg).unwrap();
        cfg.seed += 1;
        let b = generate(&cfg).unwrap();
        // Structure may coincide, but positions will not.
        let (ax, _) = a.netlist.positions();
        let (bx, _) = b.netlist.positions();
        assert_ne!(ax, bx);
    }

    #[test]
    fn cells_inside_region_ports_on_boundary() {
        let d = generate(&GeneratorConfig::named("t", 150)).unwrap();
        for c in d.netlist.cell_ids() {
            let pos = d.netlist.cell(c).pos();
            assert!(
                d.region.contains(pos),
                "cell {c:?} at {pos} outside {}",
                d.region
            );
            if d.netlist.cell_is_port(c) {
                let on_edge = pos.x == d.region.xl
                    || pos.y == d.region.yl
                    || (pos.x - d.region.xh).abs() < 1e-9
                    || (pos.y - d.region.yh).abs() < 1e-9;
                assert!(on_edge, "port {c:?} at {pos} not on boundary");
            }
        }
    }

    #[test]
    fn clock_net_spans_all_registers() {
        let d = generate(&GeneratorConfig::named("t", 200)).unwrap();
        let s = NetlistStats::of(&d.netlist);
        let cnet = d.netlist.find_net("clknet").unwrap();
        assert!(d.netlist.net(cnet).is_clock());
        assert_eq!(d.netlist.net(cnet).degree(), s.num_registers + 1);
    }

    #[test]
    fn utilization_close_to_target() {
        let d = generate(&GeneratorConfig::named("t", 500)).unwrap();
        let u = d.utilization();
        assert!(u > 0.5 && u <= 0.75, "utilization = {u}");
    }

    #[test]
    fn proxy_names_and_scaling() {
        let d = superblue_proxy("sb18", 1.0 / 400.0).unwrap();
        assert_eq!(d.name, "sb18");
        let s = NetlistStats::of(&d.netlist);
        let want = (768_068.0 / 400.0) as usize;
        assert!(s.num_cells.abs_diff(want) < want / 10);
        assert!(superblue_proxy("sb99", 0.01).is_err());
    }

    #[test]
    fn proxy_accepts_long_names() {
        let d = superblue_proxy("superblue18", 1.0 / 800.0).unwrap();
        assert_eq!(d.name, "sb18");
    }

    /// `dtp proxy sb1 0` asked for a 16 GiB grid and aborted; a negative or
    /// NaN scale silently gave the 64-cell floor.
    #[test]
    fn proxy_refuses_a_scale_outside_zero_to_one() {
        for scale in [0.0, -0.2, 1e7, f64::INFINITY, f64::NAN] {
            match superblue_proxy("sb1", scale) {
                Err(NetlistError::ProxyScale(s)) => assert!(s.to_bits() == scale.to_bits()),
                other => panic!("scale {scale}: {other:?}"),
            }
        }
        // The smallest scales stay valid: they give the 64-cell floor.
        assert!(superblue_proxy("sb18", 1e-9).is_ok());
    }
}
