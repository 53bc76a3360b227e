//! The benchmark table: every committed `BENCH_<name>.json` baseline as
//! data — the labelled runs (lanes) that produce it and the gate rows
//! `bench_gate` evaluates on it.
//!
//! Three things read this one table:
//! * the `run <name|all>` binary executes a baseline's lanes and writes
//!   its report ([`run`]);
//! * `bench_gate` evaluates each baseline's [`GateRow`]s on the committed
//!   and on a fresh report and compares them;
//! * the gate table of `EXPERIMENTS.md` is rendered from the rows
//!   ([`gate_docs`]) and a unit test keeps the committed copy in sync.
//!
//! Adding a baseline is one more entry in [`table`]: its lanes, and gate
//! rows that name those lanes by label.

use std::path::Path;
use std::time::Instant;

use efactory_harness::{cluster, Cleaning, ExperimentSpec, Report, RunResult, SystemKind};
use efactory_obs::json::{Arr, Obj};
use efactory_obs::{Obs, Subsystem};
use efactory_rnic::CostModel;
use efactory_sim::{micros, millis, ExecModel};
use efactory_ycsb::Mix;

use crate::gate::Better::{self, Higher, Lower};
use crate::gate::{
    Expr, GateRow, Json, Tolerance, Val, ABS_TOL_PCT, CLEAN_P999_CEILING_X, FLOOR_ONLY,
    MIGRATE_P999_CEILING_X, REL_TOL, SIM_EPS_FLOOR, SIM_SPEEDUP_FLOOR, TAIL_SHARE_TOL_PP,
};
use crate::{mix_tag, scaled_ops, size_label, spec};

/// One committed baseline report.
pub struct Baseline {
    /// Table key and report file stem (`run put_get` writes
    /// `BENCH_put_get.json`).
    pub name: &'static str,
    /// The report's `figure` field.
    pub figure: &'static str,
    pub lanes: Vec<Lane>,
    pub gate: Vec<GateRow>,
}

impl Baseline {
    /// The report's file name.
    pub fn file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// One labelled run of a baseline.
pub struct Lane {
    pub label: String,
    pub spec: ExperimentSpec,
    pub kind: LaneKind,
}

/// How a lane is run and recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// One `cluster::run`, recorded as a run-report entry.
    Plain,
    /// Run with a [`TRACE_CAPACITY`]-record trace ring and print the
    /// percentile attribution folded from it. `Some(file)` also exports
    /// the run as a Chrome trace with the tail exemplars on an overlay
    /// lane (`tid` 7), written next to the report.
    Traced(Option<&'static str>),
    /// Timed on the wall clock: events dispatched per host second,
    /// recorded in the `efactory-sim-throughput/v1` schema.
    Wall,
}

/// Trace ring large enough to hold the breakdown lanes' measured windows
/// without drops (the fold is total either way, but a complete trace
/// keeps the percentile cohorts exact).
pub const TRACE_CAPACITY: usize = 1 << 20;

/// Subsystem lanes of the breakdown's `shares` object that are gated.
const BREAKDOWN_SUBS: [&str; 7] = [
    "server", "client", "verifier", "cleaner", "pmem", "nic", "repl",
];

/// Measured client operations per sim sweep point, split over however
/// many clients the point runs. Preload (= `records` PUTs) dominates at
/// the 1M point either way.
const SIM_TOTAL_OPS: usize = 64_000;

/// `EF_SIM_BENCH_RECORDS_SCALE` (default 1.0) shrinks the sim sweep's
/// record counts for local smoke runs; never commit a baseline made
/// with it.
fn records_scale() -> f64 {
    std::env::var("EF_SIM_BENCH_RECORDS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

fn lane(label: impl Into<String>, spec: ExperimentSpec) -> Lane {
    Lane {
        label: label.into(),
        spec,
        kind: LaneKind::Plain,
    }
}

fn field(label: &str, path: &'static str) -> Val {
    Val::Field(label.to_string(), path)
}

fn mops(label: &str) -> Val {
    field(label, "mops")
}

/// A gate row on the default ±10% band; `tol` and `floor` adjust it.
fn gate(name: impl Into<String>, expr: impl Into<Expr>, better: Better) -> GateRow {
    GateRow {
        name: name.into(),
        expr: expr.into(),
        better,
        tol: Tolerance::Rel(REL_TOL),
        floor: None,
    }
}

impl GateRow {
    fn tol(mut self, tol: Tolerance) -> GateRow {
        self.tol = tol;
        self
    }

    fn floor(mut self, floor: f64) -> GateRow {
        self.floor = Some(floor);
        self
    }
}

/// eFactory at 256 B values with the scaled op count `ops`.
fn ef256(mix: Mix, ops: usize) -> ExperimentSpec {
    let mut s = ExperimentSpec::paper(SystemKind::EFactory, mix, 256);
    s.ops_per_client = scaled_ops(ops);
    s
}

/// The perf trajectory: a small put/get matrix, 8 clients.
fn put_get() -> Baseline {
    let mut lanes = Vec::new();
    for mix in [Mix::C, Mix::A, Mix::UpdateOnly] {
        for size in [256, 4096] {
            let label = format!("{}/{}", mix_tag(mix), size_label(size));
            lanes.push(lane(label, spec(SystemKind::EFactory, mix, size)));
        }
    }
    Baseline {
        name: "put_get",
        figure: "put_get",
        lanes,
        gate: vec![
            gate("update_only_256B_mops", mops("Update-only/256B"), Higher),
            gate(
                "ycsb_a_256B_p99_ns",
                field("YCSB-A 50%GET/256B", "all.p99_ns"),
                Lower,
            ),
            gate("ycsb_c_256B_mops", mops("YCSB-C 100%GET/256B"), Higher),
        ],
    }
}

/// Mirroring rides behind the background verifier, off the client
/// critical path: throughput with one backup vs none, plus a failover
/// lane (every primary power-fails 200 µs into the window; clients ride
/// through to the promoted backup).
fn repl() -> Baseline {
    let spec = |mix, replicas| {
        let mut s = ef256(mix, 2_000);
        s.doorbell_batch = 16;
        s.replicas = replicas;
        s
    };
    let mut lanes = Vec::new();
    for mix in [Mix::UpdateOnly, Mix::A] {
        for replicas in [0, 1] {
            let label = format!("{}/256B/replicas{replicas}", mix_tag(mix));
            lanes.push(lane(label, spec(mix, replicas)));
        }
    }
    let mut failover = spec(Mix::UpdateOnly, 1);
    failover.fault_at = Some(micros(200));
    lanes.push(lane("Update-only/256B/failover", failover));
    let overhead = |name: &str, mix: &str| {
        let base = mops(&format!("{mix}/256B/replicas0"));
        let repl = mops(&format!("{mix}/256B/replicas1"));
        gate(name, Expr::PctDrop(base, repl), Lower).tol(Tolerance::Abs(ABS_TOL_PCT))
    };
    Baseline {
        name: "repl",
        figure: "repl-overhead",
        lanes,
        gate: vec![
            overhead("repl_overhead_update_only_pct", "Update-only"),
            overhead("repl_overhead_ycsb_a_pct", "YCSB-A 50%GET"),
        ],
    }
}

/// A serial client is latency-bound (one allocation RPC + one RDMA write
/// per PUT); the pipelined client keeps `window` ops in flight. The
/// location cache lets repeat GETs skip the bucket-probe read.
fn pipeline() -> Baseline {
    let spec = |mix, clients, window, loc_cache| {
        let mut s = ef256(mix, 8_000);
        s.clients = clients;
        s.doorbell_batch = 16;
        s.window = window;
        s.loc_cache = loc_cache;
        s
    };
    let mut lanes = Vec::new();
    for window in [1, 4, 16] {
        let label = format!("Update-only/256B/window{window}");
        lanes.push(lane(label, spec(Mix::UpdateOnly, 1, window, false)));
    }
    for loc_cache in [false, true] {
        let label = format!("YCSB-C/256B/loc_cache{}", u8::from(loc_cache));
        lanes.push(lane(label, spec(Mix::C, 8, 1, loc_cache)));
    }
    let everything = spec(Mix::A, 1, 16, true);
    lanes.push(lane("YCSB-A/256B/window16+loc_cache", everything));
    let (w1, w16) = ("Update-only/256B/window1", "Update-only/256B/window16");
    Baseline {
        name: "pipeline",
        figure: "pipeline-scaling",
        lanes,
        gate: vec![
            gate("pipeline_window1_mops", mops(w1), Higher),
            // Acceptance criterion of the pipelined client: window=16
            // holds ≥ 2× window=1.
            gate(
                "pipeline_window16_speedup",
                Expr::Ratio(mops(w16), mops(w1)),
                Higher,
            )
            .floor(2.0),
            gate(
                "loc_cache_ycsb_c_mops",
                mops("YCSB-C/256B/loc_cache1"),
                Higher,
            ),
        ],
    }
}

/// Which subsystem owns the tail: each gated subsystem's share of the
/// p99.9 cohort's latency, per mix, on an absolute band, so attribution
/// drift is caught even when totals stay in band.
fn breakdown() -> Baseline {
    let mut lanes = Vec::new();
    let mut gate_rows = Vec::new();
    for (label, mix, tag, chrome) in [
        ("Update-only/256B", Mix::UpdateOnly, "update_only", None),
        (
            "YCSB-A 50%GET/256B",
            Mix::A,
            "ycsb_a",
            Some("trace_ycsb_a.json"),
        ),
    ] {
        lanes.push(Lane {
            kind: LaneKind::Traced(chrome),
            ..lane(label, spec(SystemKind::EFactory, mix, 256))
        });
        for sub in BREAKDOWN_SUBS {
            let share = Val::TailShare(label.to_string(), sub);
            let row = gate(format!("{tag}_p999_{sub}_share_pct"), share, Lower);
            gate_rows.push(row.tol(Tolerance::Abs(TAIL_SHARE_TOL_PP)));
        }
    }
    Baseline {
        name: "breakdown",
        figure: "latency-breakdown",
        lanes,
        gate: gate_rows,
    }
}

/// Multi-key atomic commit cost vs singleton PUTs, and snapshot-reader
/// interference with the write path.
fn txn() -> Baseline {
    let spec = |mix, snap_readers| {
        let mut s = ef256(mix, 8_000);
        s.snap_readers = snap_readers;
        s
    };
    let (upd, txn, readers) = (
        "Update-only/256B/snap_readers0",
        "Txn-only/256B",
        "Update-only/256B/snap_readers2",
    );
    let pct = Tolerance::Abs(ABS_TOL_PCT);
    Baseline {
        name: "txn",
        figure: "txn-bench",
        lanes: vec![
            lane(upd, spec(Mix::UpdateOnly, 0)),
            lane(txn, spec(Mix::TxnOnly, 0)),
            lane(readers, spec(Mix::UpdateOnly, 2)),
            lane("YCSB-T/256B", spec(Mix::T, 0)),
        ],
        gate: vec![
            gate("txn_only_mops", mops(txn), Higher),
            // 4-key atomic batches hold per-key throughput within 25% of
            // singleton PUTs (Txn-only records one sample per key).
            gate(
                "txn_overhead_pct",
                Expr::PctDrop(mops(upd), mops(txn)),
                Lower,
            )
            .tol(pct)
            .floor(25.0),
            // Snapshot readers must not block writers: writer-only
            // throughput with 2 readers stays within 5% of none.
            gate(
                "snap_interference_pct",
                Expr::PctDrop(Val::PutMops(upd.into()), Val::PutMops(readers.into())),
                Lower,
            )
            .tol(pct)
            .floor(5.0),
            gate("ycsb_t_mops", mops("YCSB-T/256B"), Higher),
        ],
    }
}

/// Placement cost on 2 and 4 nodes, and the client-visible price of a
/// live migration of shard 0 fired 2 ms into the window.
fn cluster() -> Baseline {
    let spec = |nodes, migrate_at| {
        let mut s = ef256(Mix::A, 4_000);
        s.nodes = nodes;
        s.shards = 4;
        s.migrate_at = migrate_at;
        s
    };
    let (n2, n4, mig) = (
        "Cluster/256B/nodes2",
        "Cluster/256B/nodes4",
        "Cluster/256B/nodes2/migrate",
    );
    let p999 = |label| field(label, "all.p999_ns");
    Baseline {
        name: "cluster",
        figure: "cluster-bench",
        lanes: vec![
            lane(n2, spec(2, None)),
            lane(n4, spec(4, None)),
            lane(mig, spec(2, Some(millis(2)))),
        ],
        gate: vec![
            gate("cluster_nodes2_mops", mops(n2), Higher),
            gate("cluster_nodes4_mops", mops(n4), Higher),
            gate("cluster_migrate_mops", mops(mig), Higher),
            // Only the seal→flip window stalls client ops; the tail is
            // where a migration that blocks too long shows first.
            gate(
                "migrate_p999_inflation_x",
                Expr::Ratio(p999(mig), p999(n2)),
                Lower,
            )
            .floor(MIGRATE_P999_CEILING_X),
        ],
    }
}

/// Update-heavy churn whose live set fills most of a dual pool, so the
/// cleaner runs passes back to back through the window: a single-pool
/// baseline, steady-state cleaning, and a pass forced at window start.
fn cleaning() -> Baseline {
    let enabled = Cleaning::Enabled {
        threshold: 0.75,
        pool_len: 2 << 20,
    };
    let mut lanes = Vec::new();
    for (tag, cleaning, force_clean) in [
        ("noclean", Cleaning::Disabled, false),
        ("clean", enabled, false),
        ("forced", enabled, true),
    ] {
        let mut s = spec(SystemKind::EFactory, Mix::UpdateOnly, 256);
        s.cleaning = cleaning;
        s.force_clean = force_clean;
        lanes.push(lane(format!("Update-only/256B/{tag}"), s));
    }
    let (noclean, clean) = ("Update-only/256B/noclean", "Update-only/256B/clean");
    let p999 = |label| field(label, "put.p999_ns");
    let counter = |name| Val::Counter(clean.to_string(), name);
    Baseline {
        name: "cleaning",
        figure: "cleaning_pressure",
        lanes,
        gate: vec![
            gate("cleaning_update_mops", mops(clean), Higher),
            gate(
                "cleaning_forced_mops",
                mops("Update-only/256B/forced"),
                Higher,
            ),
            // A put stuck behind a pass is bounded backpressure.
            gate(
                "cleaning_p999_inflation_x",
                Expr::Ratio(p999(clean), p999(noclean)),
                Lower,
            )
            .floor(CLEAN_P999_CEILING_X),
            // Relocation write amplification: rising means the cleaner
            // re-copies more than the churn justifies.
            gate(
                "cleaning_write_amp",
                Expr::Ratio(counter("server.relocated"), counter("server.puts")),
                Lower,
            ),
        ],
    }
}

/// Sim-kernel events per wall second over {4K, 100K, 1M} records × {32,
/// 1K} clients, plus the thread executor at the 1M-record point.
/// Event counts are deterministic and banded; the wall-clock rows gate
/// on hard floors only (see [`FLOOR_ONLY`]).
fn sim() -> Baseline {
    let wall = |label: String, records: f64, clients: usize, exec| {
        let mut s = ExperimentSpec::paper(SystemKind::EFactory, Mix::A, 64);
        s.record_count = ((records * records_scale()) as u64).max(1024);
        s.clients = clients;
        s.ops_per_client = scaled_ops(SIM_TOTAL_OPS / clients);
        // Pinned, so a stray `EF_SIM_EXEC=thread` cannot turn the fiber
        // lanes into thread lanes.
        s.exec = Some(exec);
        Lane {
            kind: LaneKind::Wall,
            ..lane(label, s)
        }
    };
    let mut lanes = Vec::new();
    let mut gate_rows = Vec::new();
    for (records, tag) in [(4_096.0, "4K"), (100_000.0, "100K"), (1_000_000.0, "1M")] {
        for (clients, ctag) in [(32, "32"), (1_000, "1K")] {
            let label = format!("Sim/{tag}/{ctag}");
            let name = format!("sim_events_{tag}_c{ctag}").to_lowercase();
            gate_rows.push(gate(name, field(&label, "events_dispatched"), Lower));
            lanes.push(wall(label, records, clients, ExecModel::Fiber));
        }
    }
    // 32 clients: 1K OS threads would measure spawn cost, not events.
    let thread = "Sim/1M/32/thread";
    lanes.push(wall(thread.into(), 1_000_000.0, 32, ExecModel::Thread));
    let eps = |label| field(label, "events_per_wall_sec");
    gate_rows.push(
        gate("sim_eps_1m_c32", eps("Sim/1M/32"), Higher)
            .tol(FLOOR_ONLY)
            .floor(SIM_EPS_FLOOR),
    );
    gate_rows.push(
        gate(
            "sim_fiber_speedup_1m",
            Expr::Ratio(eps("Sim/1M/32"), eps(thread)),
            Higher,
        )
        .tol(FLOOR_ONLY)
        .floor(SIM_SPEEDUP_FLOOR),
    );
    Baseline {
        name: "sim",
        figure: "sim-throughput",
        lanes,
        gate: gate_rows,
    }
}

/// Throughput at 1/2/4/8 shards, 32 clients (8 already saturate one
/// server), doorbell-batched recv rings.
fn shard_scaling() -> Baseline {
    let mut lanes = Vec::new();
    let mut gate_rows = Vec::new();
    for (mix, tag) in [(Mix::UpdateOnly, "update_only"), (Mix::A, "ycsb_a")] {
        for shards in [1, 2, 4, 8] {
            let mut s = ef256(mix, 1_000);
            s.clients = 32;
            s.shards = shards;
            s.doorbell_batch = 16;
            let label = format!("{}/256B/{shards}shards", mix_tag(mix));
            if shards == 1 || shards == 8 {
                gate_rows.push(gate(
                    format!("shards{shards}_{tag}_mops"),
                    mops(&label),
                    Higher,
                ));
            }
            lanes.push(lane(label, s));
        }
    }
    Baseline {
        name: "shard_scaling",
        figure: "shard-scaling",
        lanes,
        gate: gate_rows,
    }
}

/// Every baseline, in the order `run all` and `bench_gate` visit them.
pub fn table() -> Vec<Baseline> {
    vec![
        put_get(),
        repl(),
        pipeline(),
        breakdown(),
        txn(),
        cluster(),
        cleaning(),
        sim(),
        shard_scaling(),
    ]
}

fn print_run(label: &str, r: &RunResult) {
    println!(
        "{label:<34} {:>7.3} Mops · p50 {:.2} · p99 {:.2} · p99.9 {:.2} µs",
        r.mops,
        r.all.p50_ns as f64 / 1000.0,
        r.all.p99_ns as f64 / 1000.0,
        r.all.p999_ns as f64 / 1000.0,
    );
}

/// Print a traced run's percentile attribution (the tail exemplars are
/// in the report).
fn print_breakdown(r: &RunResult, obs: &Obs) {
    let b = r
        .breakdown
        .as_ref()
        .expect("eFactory run folds a breakdown");
    println!(
        "  {} ops · conservation_max_err={}ns · trace_dropped={}",
        b.ops,
        b.conservation_max_err_ns,
        obs.tracer.dropped(),
    );
    for p in &b.percentiles {
        let shares = Subsystem::ALL
            .iter()
            .filter(|sub| p.share_pct(**sub) > 0.0)
            .map(|sub| format!("{} {:.2}", sub.label(), p.share_pct(*sub)))
            .collect::<Vec<_>>()
            .join("  ");
        println!(
            "  {:<6} {:>10.2}µs {:>7} ops   {shares}   ← {}",
            p.label,
            p.threshold_ns as f64 / 1000.0,
            p.cohort,
            p.dominant.label(),
        );
    }
}

fn write(path: &Path, text: String) {
    std::fs::write(path, text + "\n")
        .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
}

/// One wall-clocked lane's report entry and rate.
struct WallRun {
    spec: ExperimentSpec,
    eps: f64,
    entry: String,
}

fn run_wall(lane: &Lane) -> WallRun {
    let t0 = Instant::now();
    let r = cluster::run(&lane.spec);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let events = r
        .counters
        .iter()
        .find(|(n, _)| n == "sim.events_dispatched")
        .map(|(_, v)| *v)
        .expect("run reports sim.events_dispatched");
    let eps = events as f64 / (wall_ns as f64 / 1e9);
    println!(
        "{:<34} {:>9} events · {} ms wall · {:.2} ms virtual · {:.0} events/s",
        lane.label,
        events,
        wall_ns / 1_000_000,
        r.elapsed_ns as f64 / 1e6,
        eps,
    );
    let exec = match lane.spec.exec {
        Some(ExecModel::Thread) => "thread",
        _ => "fiber",
    };
    let entry = Obj::new()
        .str("label", &lane.label)
        .str("exec", exec)
        .u64("records", lane.spec.record_count)
        .u64("clients", lane.spec.clients as u64)
        .u64("total_ops", r.total_ops)
        .u64("virt_elapsed_ns", r.elapsed_ns)
        .u64("wall_ns", wall_ns)
        .u64("events_dispatched", events)
        .f64("events_per_wall_sec", eps, 0)
        .finish();
    WallRun {
        spec: lane.spec.clone(),
        eps,
        entry,
    }
}

/// The `efactory-sim-throughput/v1` report. Its `fiber_speedup_1m` is the
/// thread lane's matching fiber lane (same records and clients) over the
/// thread lane, in events per wall second.
fn sim_report(figure: &str, runs: &[WallRun]) -> String {
    let thread = runs
        .iter()
        .find(|w| w.spec.exec == Some(ExecModel::Thread))
        .expect("a wall-clocked baseline has a thread lane");
    let fiber = runs
        .iter()
        .find(|w| {
            w.spec.exec == Some(ExecModel::Fiber)
                && w.spec.record_count == thread.spec.record_count
                && w.spec.clients == thread.spec.clients
        })
        .expect("the thread lane has a matching fiber lane");
    let mut entries = Arr::new();
    for w in runs {
        entries = entries.raw(&w.entry);
    }
    Obj::new()
        .str("schema", "efactory-sim-throughput/v1")
        .str("figure", figure)
        .f64("records_scale", records_scale(), 3)
        .f64("fiber_speedup_1m", fiber.eps / thread.eps, 2)
        .raw("entries", &entries.finish())
        .finish()
}

/// Run every lane of `b`, write its report (and any Chrome trace) into
/// `dir`, and print the gate rows evaluated on the fresh report.
pub fn run(b: &Baseline, dir: &Path) {
    println!("== {} → {}", b.name, dir.join(b.file()).display());
    let mut report = Report::new(b.figure);
    let mut walls = Vec::new();
    for lane in &b.lanes {
        let s = &lane.spec;
        match lane.kind {
            LaneKind::Plain => {
                let r = cluster::run(s);
                print_run(&lane.label, &r);
                report.add(&lane.label, s, &r);
            }
            LaneKind::Traced(chrome) => {
                // One Obs per lane: the fold and the Chrome export each
                // want a single run's records.
                let obs = Obs::with_trace_capacity(TRACE_CAPACITY);
                let r = cluster::run_observed(s, CostModel::default(), &obs);
                print_run(&lane.label, &r);
                print_breakdown(&r, &obs);
                if let Some(file) = chrome {
                    let b = r.breakdown.as_ref().expect("traced lane folds a breakdown");
                    let json = obs
                        .tracer
                        .to_chrome_json_with_overlay(&b.chrome_overlay_events());
                    write(&dir.join(file), json);
                }
                report.add(&lane.label, s, &r);
            }
            LaneKind::Wall => walls.push(run_wall(lane)),
        }
    }
    let json = if walls.is_empty() {
        report.to_json()
    } else {
        sim_report(b.figure, &walls)
    };
    let fresh = Json::parse(&json).expect("a report parses");
    write(&dir.join(b.file()), json);
    for row in &b.gate {
        match row.eval(&fresh) {
            Ok(m) => println!("  gate {:<34} {:>14.6}   {}", row.name, m.value, row.band()),
            Err(e) => println!("  gate {:<34} {e}", row.name),
        }
    }
    println!();
}

/// The gate table of `EXPERIMENTS.md` (the text between its
/// `<!-- gate-rows:begin -->` and `<!-- gate-rows:end -->` markers).
pub fn gate_docs(table: &[Baseline]) -> String {
    let mut out =
        String::from("| metric | value | better | band | report |\n|---|---|---|---|---|\n");
    for b in table {
        for r in &b.gate {
            let better = match r.better {
                Higher => "higher",
                Lower => "lower",
            };
            out += &format!(
                "| `{}` | {} | {better} | {} | `{}` |\n",
                r.name,
                r.expr,
                r.band(),
                b.file()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn gate_rows_name_their_own_lanes_and_are_unique() {
        let table = table();
        let mut names = HashSet::new();
        let mut baselines = HashSet::new();
        for b in &table {
            assert!(baselines.insert(b.name), "baseline {} twice", b.name);
            let labels: HashSet<&str> = b.lanes.iter().map(|l| l.label.as_str()).collect();
            assert_eq!(
                labels.len(),
                b.lanes.len(),
                "{}: duplicate lane label",
                b.name
            );
            assert!(!b.gate.is_empty(), "{} has no gate rows", b.name);
            for row in &b.gate {
                assert!(
                    names.insert(row.name.clone()),
                    "gate row {} twice",
                    row.name
                );
                let vals = match &row.expr {
                    Expr::Val(v) => vec![v],
                    Expr::Ratio(a, b) | Expr::PctDrop(a, b) => vec![a, b],
                };
                for v in vals {
                    assert!(
                        labels.contains(v.label()),
                        "{}: row {} reads lane {:?}, not in its lane list",
                        b.name,
                        row.name,
                        v.label()
                    );
                }
            }
        }
        // The 42 rows gated before shard scaling joined, plus its 4.
        assert_eq!(names.len(), 46);
    }

    #[test]
    fn experiments_gate_table_is_rendered_from_the_rows() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).unwrap();
        let (begin, end) = ("<!-- gate-rows:begin -->\n", "<!-- gate-rows:end -->");
        let start = doc.find(begin).expect("begin marker") + begin.len();
        let stop = doc.find(end).expect("end marker");
        let rendered = gate_docs(&table());
        assert!(
            doc[start..stop] == rendered,
            "EXPERIMENTS.md gate table is stale; replace the text between the markers with:\n{rendered}"
        );
    }
}
