//! CI perf-regression gate.
//!
//! Compares freshly generated bench reports against the committed
//! `BENCH_*.json` baselines and fails (exit 1) when a key metric drifts
//! out of band — see `efactory_bench::lanes` for the metric set and
//! `efactory_bench::gate` for the tolerance rules. Always writes a
//! machine-readable diff (`bench-gate-diff.json` by default) for upload
//! as a CI artifact.
//!
//! ```text
//! bench_gate [--baseline-dir .] [--fresh-dir fresh] [--diff bench-gate-diff.json]
//! ```
//!
//! The fresh reports must come from the same lane table that made the
//! baselines, at full scale (the committed baselines are full-scale runs;
//! comparing a scaled run against them would trip the band spuriously):
//!
//! ```text
//! cargo run --release -p efactory-bench --bin run -- all --json-dir fresh
//! ```
//!
//! On a `stale-baseline` verdict the fix is to refresh the committed
//! baseline in the same PR (copy the fresh report over the `BENCH_*.json`
//! at the repo root) so the checked-in trajectory tracks the code.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use efactory_bench::gate::{compare_all, diff_json, extract, Json};
use efactory_bench::lanes::table;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let mut baseline_dir = PathBuf::from(".");
    let mut fresh_dir = PathBuf::from("fresh");
    let mut diff_path = PathBuf::from("bench-gate-diff.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--baseline-dir" => baseline_dir = val("--baseline-dir").into(),
            "--fresh-dir" => fresh_dir = val("--fresh-dir").into(),
            "--diff" => diff_path = val("--diff").into(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                eprintln!("usage: bench_gate [--baseline-dir DIR] [--fresh-dir DIR] [--diff PATH]");
                return ExitCode::from(2);
            }
        }
    }

    let mut rows = Vec::new();
    let mut load_errors = 0u32;
    for b in table() {
        let file = b.file();
        let pair = load(&baseline_dir.join(&file)).and_then(|base| {
            let fresh = load(&fresh_dir.join(&file))?;
            Ok((
                extract(&b.gate, &base)?,
                extract(&b.gate, &fresh).map_err(|e| format!("fresh {file}: {e}"))?,
            ))
        });
        match pair {
            Ok((baseline, fresh)) => rows.extend(compare_all(&baseline, &fresh)),
            Err(e) => {
                eprintln!("error: {e}");
                load_errors += 1;
            }
        }
    }

    println!(
        "{:<30} {:>14} {:>14} {:>9}  verdict",
        "metric", "baseline", "fresh", "delta"
    );
    for row in &rows {
        println!(
            "{:<30} {:>14.6} {:>14.6} {:>+8.2}%  {}",
            row.name, row.baseline, row.fresh, row.delta_pct, row.verdict
        );
    }

    std::fs::write(&diff_path, diff_json(&rows) + "\n")
        .unwrap_or_else(|e| panic!("failed to write {}: {e}", diff_path.display()));
    println!("diff written to {}", diff_path.display());

    let failing = rows.iter().filter(|r| r.verdict.failing()).count() as u32 + load_errors;
    if failing > 0 {
        eprintln!("bench gate FAILED: {failing} metric(s) out of band");
        eprintln!("(regressions: fix the change; stale-baseline: refresh BENCH_*.json — see EXPERIMENTS.md)");
        ExitCode::FAILURE
    } else {
        println!("bench gate passed: {} metric(s) within band", rows.len());
        ExitCode::SUCCESS
    }
}
