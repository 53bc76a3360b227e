//! # efactory-perfbench — the repository's benchmark
//!
//! One command runs four named workloads through the harness's public API
//! (`efactory_harness::run_observed`) and prints end-to-end metrics on both
//! clocks — the virtual time of the modeled store and the host time of the
//! simulator running it — plus per-layer metrics from a separate traced
//! run. See `README.md` beside this crate for the metric list, the
//! workloads and how to read the traced run.

pub mod calib;
pub mod cli;
pub mod derive;
pub mod run;
pub mod spans;
pub mod workloads;
