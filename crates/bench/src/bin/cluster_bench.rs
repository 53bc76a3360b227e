//! Cluster-layer throughput probe: multi-node placement cost and the
//! client-visible price of a live shard migration.
//!
//! The CI bench gate locks three properties of the cluster layer in over
//! this report:
//!
//! * **Placement cost** — YCSB-A throughput on a 2-node and a 4-node
//!   cluster (4 shards, round-robin placement, 3-replica metadata
//!   service) is drift-banded at ±10%. Routing through the epoch-tagged
//!   placement map must not regress against the committed trajectory.
//! * **Migration-window throughput** — the same 2-node run with shard 0
//!   live-migrated mid-window stays in band: the copy and the
//!   fixup/verify passes run off the client critical path.
//! * **Migration tail ceiling (hard)** — client p99.9 during the
//!   migrated run may inflate to at most
//!   [`MIGRATE_P999_CEILING_X`](efactory_bench::gate::MIGRATE_P999_CEILING_X)
//!   × the quiescent run's p99.9, regardless of what the baseline says.
//!   The seal→flip window is the only stretch where client ops stall, so
//!   the tail is where a migration that blocks too long shows up first.
//!
//! Always writes `BENCH_cluster.json` (override with `--json`).

use efactory_bench::{scaled_ops, ReportSink};
use efactory_harness::{cluster, ExperimentSpec, RunResult, SystemKind};
use efactory_sim::millis;
use efactory_ycsb::Mix;

fn spec(nodes: usize, migrate_at: Option<u64>) -> ExperimentSpec {
    let mut s = ExperimentSpec::paper(SystemKind::EFactory, Mix::A, 256);
    s.ops_per_client = scaled_ops(4_000);
    s.nodes = nodes;
    s.shards = 4;
    s.migrate_at = migrate_at;
    s
}

fn main() {
    let mut sink = ReportSink::with_default_path("cluster-bench", Some("BENCH_cluster.json"));
    println!("eFactory cluster · YCSB-A · 256B values · 8 clients · 4 shards");
    println!(
        "{:<28} {:>9} {:>10} {:>10} {:>10}",
        "topology", "Mops", "p50 µs", "p99 µs", "p99.9 µs"
    );
    let mut row = |label: &str, s: &ExperimentSpec| -> RunResult {
        let r = cluster::run(s);
        println!(
            "{label:<28} {:>9.3} {:>10.2} {:>10.2} {:>10.2}",
            r.mops,
            r.all.p50_ns as f64 / 1000.0,
            r.all.p99_ns as f64 / 1000.0,
            r.all.p999_ns as f64 / 1000.0,
        );
        sink.add(label, s, &r);
        r
    };

    let n2 = row("Cluster/256B/nodes2", &spec(2, None));
    row("Cluster/256B/nodes4", &spec(4, None));
    // Live migration fired 2 ms into the measurement window: shard 0
    // moves to the other node while the eight clients keep operating and
    // retarget on WrongEpoch.
    let mig = row("Cluster/256B/nodes2/migrate", &spec(2, Some(millis(2))));

    let inflation = mig.all.p999_ns as f64 / n2.all.p999_ns.max(1) as f64;
    println!();
    println!(
        "migration p99.9 inflation : {inflation:.2}x  (gate ceiling: {:.1}x)",
        efactory_bench::gate::MIGRATE_P999_CEILING_X
    );
    sink.write();
}
