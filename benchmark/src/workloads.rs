//! The four workloads: literal design parameters and `dtp place` flags.
//!
//! Every field not listed keeps `GeneratorConfig::default()`. The design seed
//! is `seed ^ --seed`. Sizes are set so that five timed reps fit the
//! `run_seconds` of `BENCHMARK.json` on a 2-core host; README.md records how
//! they relate to the paper-scale runs they stand in for.

pub struct DesignSpec {
    pub name: &'static str,
    pub cells: usize,
    pub depth: usize,
    pub utilization: f64,
    pub seed: u64,
}

pub struct Workload {
    pub name: &'static str,
    /// One `dtp place` process per design, back to back.
    pub designs: &'static [DesignSpec],
    /// Flags after `dtp place <prefix>`; the harness adds
    /// `--threads 2 --log-level warn --out <dir>`.
    pub flags: &'static [&'static str],
}

/// Four of the eight superblue proxies of
/// `dtp_netlist::generate::superblue_proxy` (Table-2 cell counts, the proxy's
/// own depth and seed) at 1/600 scale, spanning the suite's depth range.
const SB_SUITE: &[DesignSpec] = &[
    DesignSpec {
        name: "sb1",
        cells: 2016,
        depth: 10,
        utilization: 0.7,
        seed: 0x3e66_ee20_cfe5_27a9,
    },
    DesignSpec {
        name: "sb4",
        cells: 1326,
        depth: 12,
        utilization: 0.7,
        seed: 0x3e66_f120_cfe5_2c86,
    },
    DesignSpec {
        name: "sb10",
        cells: 3127,
        depth: 16,
        utilization: 0.7,
        seed: 0x37ee_5b89_c020_02e3,
    },
    DesignSpec {
        name: "sb18",
        cells: 1280,
        depth: 13,
        utilization: 0.7,
        seed: 0x37ee_5389_c020_350b,
    },
];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sb_suite_diff",
        designs: SB_SUITE,
        flags: &["--mode", "differentiable"],
    },
    Workload {
        name: "scale_wl_30k",
        // The `scale_design` preset: shallow, wide, utilization 0.65.
        designs: &[DesignSpec {
            name: "scale",
            cells: 30_000,
            depth: 8,
            utilization: 0.65,
            seed: 0x5CA1_E000,
        }],
        flags: &["--mode", "wirelength"],
    },
    Workload {
        name: "sb10_route_diff",
        designs: &[DesignSpec {
            name: "sb10r",
            cells: 3127,
            depth: 16,
            utilization: 0.7,
            seed: 0x37ee_5b89_c020_02e3,
        }],
        flags: &["--mode", "differentiable", "--route", "--max-iters", "300"],
    },
    Workload {
        name: "nw_20k",
        designs: &[DesignSpec {
            name: "nw",
            cells: 20_000,
            depth: 12,
            utilization: 0.7,
            seed: 0xD7CA_2022,
        }],
        flags: &["--mode", "net-weighting"],
    },
];
