//! Experiment harness for the DAC-2022 differentiable-timing-driven
//! placement reproduction: one binary per table, figure and ablation
//! (`table2`, `table3`, `figure4`, `figure8`, `ablation`). Kernel timings
//! are the per-layer probes of the end-to-end benchmark under `benchmark/`.
//! See `DESIGN.md` §3 for the experiment index.

#![forbid(unsafe_code)]
