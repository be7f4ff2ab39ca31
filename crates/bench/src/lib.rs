//! Experiment harness for the DAC-2022 differentiable-timing-driven
//! placement reproduction: binaries regenerating each table/figure and the
//! hand-timed `bench_*` kernel records. See `DESIGN.md` §3 for the
//! experiment index.

#![forbid(unsafe_code)]
