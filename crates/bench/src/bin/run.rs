//! Regenerate committed `BENCH_*.json` baselines from the lane table
//! (`efactory_bench::lanes`).
//!
//! ```text
//! run <baseline|all> [--json-dir DIR]
//! ```
//!
//! Writes `DIR/BENCH_<baseline>.json` (default `DIR` is the current
//! directory, i.e. the committed baselines when run from the repo root)
//! and prints each lane plus the baseline's gate rows evaluated on the
//! fresh report. The breakdown baseline also writes its Chrome trace
//! (`trace_ycsb_a.json`) into `DIR`. Committed baselines are full-scale
//! runs: leave `EF_OPS_SCALE` unset when refreshing them.

use std::path::PathBuf;
use std::process::ExitCode;

use efactory_bench::lanes::{run, table};

fn main() -> ExitCode {
    let table = table();
    let names: Vec<&str> = table.iter().map(|b| b.name).collect();
    let usage = || {
        eprintln!("usage: run <baseline|all> [--json-dir DIR]");
        eprintln!("baselines: {}", names.join(" "));
        ExitCode::from(2)
    };
    let mut which = None;
    let mut dir = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json-dir" => match args.next() {
                Some(d) if !d.is_empty() => dir = d.into(),
                _ => {
                    eprintln!("error: --json-dir requires a directory");
                    return usage();
                }
            },
            name if which.is_none() && (name == "all" || names.contains(&name)) => {
                which = Some(a.clone())
            }
            other => {
                eprintln!("error: unexpected argument {other:?}");
                return usage();
            }
        }
    }
    let Some(which) = which else {
        return usage();
    };
    // Fail on an unusable output directory before minutes of runs.
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    for b in table.iter().filter(|b| which == "all" || b.name == which) {
        run(b, &dir);
    }
    ExitCode::SUCCESS
}
