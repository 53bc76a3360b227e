//! Sim-kernel throughput probe: events per wall-clock second across the
//! scale sweep {4K, 100K, 1M} records × {32, 1K} clients, plus the
//! thread-executor baseline at the 1M-record point.
//!
//! This is the one bench whose headline metric is *wall-clock*, not
//! virtual time: it measures how much simulated work the kernel chews
//! through per host second, which bounds every CI lane in the repo. The
//! CI bench gate locks three properties in over this report:
//!
//! * **Event volume (±10%)** — `sim.events_dispatched` at each sweep
//!   point is deterministic (a function of seed + spec, identical across
//!   executors and hosts). Drift means the workload→event mapping
//!   changed, which silently re-scales every wall-clock number.
//! * **Throughput floor (hard)** — events/wall-second at the 1M-record
//!   point must clear
//!   [`SIM_EPS_FLOOR`](efactory_bench::gate::SIM_EPS_FLOOR) regardless
//!   of baseline: a wedged or accidentally-quadratic executor fails fast.
//! * **Fiber speedup floor (hard)** — the fiber executor must hold ≥
//!   [`SIM_SPEEDUP_FLOOR`](efactory_bench::gate::SIM_SPEEDUP_FLOOR) × the
//!   thread executor's events/second,
//!   measured back-to-back on the same host at the 1M-record point
//!   (same-host ratio, so CI hardware variance cancels out).
//!
//! Wall-clock values are *not* drift-banded against the committed
//! baseline — they vary with host hardware — so the committed
//! `BENCH_sim.json` is refreshed for honesty, not byte-stability.
//!
//! Always writes `BENCH_sim.json` (override with `--json`). The thread
//! baseline preloads 1M records one Condvar round-trip per event, which
//! dominates this bin's runtime; `EF_SIM_BENCH_RECORDS_SCALE` (default
//! 1.0) shrinks the record counts for local smoke runs.

use std::time::Instant;

use efactory_bench::scaled_ops;
use efactory_harness::{cluster, json_path_from_args, ExperimentSpec, SystemKind};
use efactory_obs::json::{Arr, Obj};
use efactory_sim::ExecModel;
use efactory_ycsb::Mix;

/// Measured client operations across the whole sweep point, split over
/// however many clients the point runs. Preload (= `records` PUTs)
/// dominates at the 1M point either way.
const TOTAL_OPS: usize = 64_000;

fn records_scale() -> f64 {
    std::env::var("EF_SIM_BENCH_RECORDS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

fn spec(records: u64, clients: usize, exec: ExecModel) -> ExperimentSpec {
    let mut s = ExperimentSpec::paper(SystemKind::EFactory, Mix::A, 64);
    s.record_count = ((records as f64 * records_scale()) as u64).max(1024);
    s.clients = clients;
    s.ops_per_client = scaled_ops(TOTAL_OPS / clients);
    // Pin the executor explicitly: the fiber rows must not silently turn
    // into thread rows under a stray `EF_SIM_EXEC=thread`.
    s.exec = Some(exec);
    s
}

struct Row {
    label: String,
    records: u64,
    clients: usize,
    exec: &'static str,
    total_ops: u64,
    virt_ns: u64,
    wall_ns: u64,
    events: u64,
    eps: f64,
}

fn run_point(label: &str, records: u64, clients: usize, exec: ExecModel) -> Row {
    let s = spec(records, clients, exec);
    let t0 = Instant::now();
    let r = cluster::run(&s);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let events = r
        .counters
        .iter()
        .find(|(n, _)| n == "sim.events_dispatched")
        .map(|(_, v)| *v)
        .expect("run reports sim.events_dispatched");
    let eps = events as f64 / (wall_ns as f64 / 1e9);
    let row = Row {
        label: label.to_string(),
        records: s.record_count,
        clients,
        exec: match exec {
            ExecModel::Fiber => "fiber",
            ExecModel::Thread => "thread",
        },
        total_ops: r.total_ops,
        virt_ns: r.elapsed_ns,
        wall_ns,
        events,
        eps,
    };
    println!(
        "{:<18} {:>10} {:>12} {:>10.2} {:>12.0}",
        row.label,
        row.events,
        row.wall_ns / 1_000_000,
        row.virt_ns as f64 / 1e6,
        row.eps,
    );
    row
}

fn main() {
    let path = json_path_from_args(std::env::args()).unwrap_or_else(|| "BENCH_sim.json".into());
    if path.is_empty() {
        eprintln!("error: --json requires a path (use --json <path> or --json=<path>)");
        std::process::exit(2);
    }
    println!("sim-kernel scale sweep · YCSB-A · 64B values · eFactory");
    println!(
        "{:<18} {:>10} {:>12} {:>10} {:>12}",
        "point", "events", "wall ms", "virt ms", "events/sec"
    );

    let mut rows = Vec::new();
    for (records, tag) in [(4_096, "4K"), (100_000, "100K"), (1_000_000, "1M")] {
        for (clients, ctag) in [(32, "32"), (1_000, "1K")] {
            rows.push(run_point(
                &format!("Sim/{tag}/{ctag}"),
                records,
                clients,
                ExecModel::Fiber,
            ));
        }
    }
    // Thread-executor baseline at the 1M-record point, 32 clients (1K OS
    // threads is a spawn-cost benchmark, not an event-throughput one).
    // Ratio against the matching fiber row is the gated speedup.
    let thread = run_point("Sim/1M/32/thread", 1_000_000, 32, ExecModel::Thread);
    let fiber_1m = rows.iter().find(|r| r.label == "Sim/1M/32").unwrap();
    let speedup = fiber_1m.eps / thread.eps;
    rows.push(thread);
    println!();
    println!(
        "fiber speedup over threads @ 1M records: {speedup:.1}x  (gate floor: {:.0}x)",
        efactory_bench::gate::SIM_SPEEDUP_FLOOR
    );

    let mut entries = Arr::new();
    for r in &rows {
        entries = entries.raw(
            &Obj::new()
                .str("label", &r.label)
                .str("exec", r.exec)
                .u64("records", r.records)
                .u64("clients", r.clients as u64)
                .u64("total_ops", r.total_ops)
                .u64("virt_elapsed_ns", r.virt_ns)
                .u64("wall_ns", r.wall_ns)
                .u64("events_dispatched", r.events)
                .f64("events_per_wall_sec", r.eps, 0)
                .finish(),
        );
    }
    let doc = Obj::new()
        .str("schema", "efactory-sim-throughput/v1")
        .str("figure", "sim-throughput")
        .f64("records_scale", records_scale(), 3)
        .f64("fiber_speedup_1m", speedup, 2)
        .raw("entries", &entries.finish())
        .finish();
    std::fs::write(&path, doc + "\n").unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
    println!("json report written to {path}");
}
