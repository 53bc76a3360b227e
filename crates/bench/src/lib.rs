//! # efactory-bench — benchmark harness
//!
//! Three kinds of targets:
//!
//! * **Per-figure binaries** (`src/bin/fig*.rs`, `summary`, `ablations`)
//!   regenerate every table and figure of the paper's evaluation section.
//!   Run e.g. `cargo run --release -p efactory-bench --bin fig9`. Results
//!   are deterministic (virtual-time measurement on a seeded simulator).
//! * **`run <baseline|all> [--json-dir DIR]`** regenerates the committed
//!   `BENCH_*.json` baselines. Each baseline is one entry of the table in
//!   [`lanes`]: its labelled runs and the gate rows read off them.
//! * **`bench_gate`** evaluates the same table's gate rows on the committed
//!   and on fresh reports and fails on drift ([`gate`]).
//!
//! The `EF_OPS_SCALE` environment variable scales the per-client operation
//! counts (default 1.0; smaller = faster, noisier). Committed baselines are
//! full-scale runs.

use efactory_harness::{
    json_path_from_args, ExperimentSpec, LatencyStats, Report, RunResult, SystemKind,
};
use efactory_ycsb::Mix;

pub mod gate;
pub mod lanes;

/// The value sizes the paper sweeps in Figures 1, 2, and 9.
pub const VALUE_SIZES: [usize; 4] = [64, 256, 1024, 4096];

/// Scale an op count by `EF_OPS_SCALE`.
pub fn scaled_ops(base: usize) -> usize {
    let scale: f64 = std::env::var("EF_OPS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    ((base as f64 * scale) as usize).max(50)
}

/// Paper-flavored spec with the scaled default op count.
pub fn spec(system: SystemKind, mix: Mix, value_len: usize) -> ExperimentSpec {
    let mut s = ExperimentSpec::paper(system, mix, value_len);
    s.ops_per_client = scaled_ops(s.ops_per_client);
    s
}

/// A `--json <path>` report sink shared by every figure binary: records
/// entries only when a path was requested, and writes the rendered
/// [`Report`] on [`ReportSink::write`]. Pass `--json <path>` (or
/// `--json=<path>`) to any `fig*` binary to emit its runs as JSON next to
/// the rendered table (schema: `EXPERIMENTS.md`).
pub struct ReportSink {
    report: Report,
    path: Option<String>,
}

impl ReportSink {
    /// Sink for `figure`, enabled iff `--json <path>` is on the command
    /// line.
    pub fn from_args(figure: &str) -> ReportSink {
        let path = json_path_from_args(std::env::args());
        // Reject a valueless `--json` before the benchmark runs, not at
        // write time minutes later.
        if path.as_deref() == Some("") {
            eprintln!("error: --json requires a path (use --json <path> or --json=<path>)");
            std::process::exit(2);
        }
        ReportSink {
            report: Report::new(figure),
            path,
        }
    }

    /// Whether entries are being recorded.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Record one cluster run (no-op when disabled).
    pub fn add(&mut self, label: &str, spec: &ExperimentSpec, result: &RunResult) {
        if self.enabled() {
            self.report.add(label, spec, result);
        }
    }

    /// Record a latency-only measurement (no-op when disabled).
    pub fn add_latency(&mut self, label: &str, stats: &LatencyStats) {
        if self.enabled() {
            self.report.add_latency(label, stats);
        }
    }

    /// Write the report if a path was requested.
    pub fn write(&self) {
        if let Some(p) = &self.path {
            self.report
                .write_to(p)
                .unwrap_or_else(|e| panic!("failed to write {p}: {e}"));
            println!("json report written to {p}");
        }
    }
}

/// Pretty size label (64B / 1KB / ...).
pub fn size_label(bytes: usize) -> String {
    if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}KB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

/// Mix label used in figure tables.
pub fn mix_tag(mix: Mix) -> &'static str {
    match mix {
        Mix::C => "YCSB-C 100%GET",
        Mix::B => "YCSB-B 95%GET",
        Mix::A => "YCSB-A 50%GET",
        Mix::UpdateOnly => "Update-only",
        Mix::T => "YCSB-T 50%TXN",
        Mix::TxnOnly => "Txn-only",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_labels() {
        assert_eq!(size_label(64), "64B");
        assert_eq!(size_label(1024), "1KB");
        assert_eq!(size_label(4096), "4KB");
        assert_eq!(size_label(100), "100B");
    }

    #[test]
    fn scaled_ops_has_floor() {
        // Without the env var the base passes through.
        std::env::remove_var("EF_OPS_SCALE");
        assert_eq!(scaled_ops(2000), 2000);
    }
}
