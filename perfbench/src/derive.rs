//! Metric derivations: from child-run reports and calibration timings to
//! named metrics. Pure functions, so each ratio's base is testable.
//!
//! Counter bases: the harness's counters cover the whole run, preload
//! included. A per-op (or per-PUT) counter metric is therefore the shipped
//! run's counter minus the same spec's zero-op `setup` run's counter,
//! divided by the measured ops (or measured PUT samples).

use std::collections::BTreeMap;

use efactory_harness::{ExperimentSpec, LatencyStats};
use efactory_obs::Subsystem;

use crate::calib::Calibration;
use crate::run::RunReport;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time of the modeled store.
    Virtual,
    /// Wall time / memory of the host process.
    Host,
    /// A count or ratio of counts.
    Count,
}

impl Clock {
    /// Label used in the printed report.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Host => "host",
            Clock::Count => "-",
        }
    }
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`BENCHMARK.json` name where it is listed there).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Which clock it is read from.
    pub clock: Clock,
    /// The value.
    pub value: f64,
    /// Sample count behind a timing or ratio, where one applies.
    pub samples: Option<u64>,
}

fn metric(
    name: &str,
    unit: &'static str,
    clock: Clock,
    value: f64,
    samples: Option<u64>,
) -> Metric {
    Metric { name: name.to_string(), unit, clock, value, samples }
}

/// Samples a percentile needs so that at least ten lie beyond it:
/// 20 for p50, 1,000 for p99, 10,000 for p99.9.
pub fn min_samples(q: f64) -> u64 {
    (10.0 / (1.0 - q)).round() as u64
}

/// A latency percentile the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pct {
    /// Median.
    P50,
    /// 99th percentile.
    P99,
    /// 99.9th percentile.
    P999,
}

/// Percentile `p` of `s` in µs, or `None` when the sample set is too small
/// to report it (including an op type the workload never runs).
pub fn percentile_us(s: &LatencyStats, p: Pct) -> Option<f64> {
    let (q, ns) = match p {
        Pct::P50 => (0.5, s.p50_ns),
        Pct::P99 => (0.99, s.p99_ns),
        Pct::P999 => (0.999, s.p999_ns),
    };
    (s.count >= min_samples(q)).then(|| ns as f64 / 1e3)
}

/// `num / den`, or `None` on a zero base.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

/// Median of `v` (mean of the middle pair for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The fastest wall time among repeats of one run. Host time on a shared
/// machine slows in stretches of seconds when other tenants load the
/// cores; the minimum over many short repeats tracks the program's own
/// cost and moves far less between runs than the median does.
pub fn fastest_wall(runs: &[RunReport]) -> f64 {
    runs.iter().map(|r| r.wall_s).reduce(f64::min).unwrap_or(0.0)
}

/// Median peak RSS among repeats of one run.
pub fn median_rss(runs: &[RunReport]) -> f64 {
    median(&runs.iter().map(|r| r.rss_mb).collect::<Vec<_>>())
}

/// Sum of every counter named `name` or ending in `.name` (one per shard,
/// per backup pool, …).
pub fn sum(counters: &BTreeMap<String, u64>, name: &str) -> u64 {
    let suffix = format!(".{name}");
    counters.iter().filter(|(n, _)| *n == name || n.ends_with(&suffix)).map(|(_, v)| *v).sum()
}

/// `sum(name)` over the measured window: shipped run minus zero-op run.
pub fn delta(shipped: &RunReport, setup: &RunReport, name: &str) -> u64 {
    sum(&shipped.counters, name).saturating_sub(sum(&setup.counters, name))
}

/// Measured PUTs per shard (`shard<i>.server.puts`, or the single
/// server's `server.puts`), in shard order.
pub fn shard_puts(shipped: &RunReport, setup: &RunReport) -> Vec<u64> {
    let per_shard = |r: &RunReport| -> BTreeMap<u64, u64> {
        r.counters
            .iter()
            .filter_map(|(n, v)| {
                if n == "server.puts" {
                    return Some((0, *v));
                }
                let i = n.strip_prefix("shard")?.strip_suffix(".server.puts")?;
                Some((i.parse().ok()?, *v))
            })
            .collect()
    };
    let before = per_shard(setup);
    per_shard(shipped)
        .into_iter()
        .map(|(i, v)| v.saturating_sub(before.get(&i).copied().unwrap_or(0)))
        .collect()
}

/// Correctness checks on one run; each failure is a message.
pub fn run_checks(r: &RunReport) -> Vec<String> {
    let mut bad = Vec::new();
    if r.total_ops != r.expected_ops {
        bad.push(format!(
            "completed ops {} != clients x ops_per_client {}",
            r.total_ops, r.expected_ops
        ));
    }
    let (server, client) = (sum(&r.counters, "server.puts"), sum(&r.counters, "client.puts"));
    if server != client {
        bad.push(format!("sum of server.puts {server} != client.puts {client} (exactly-once)"));
    }
    bad
}

/// `failed_ops_frac`: ops not completed ÷ ops attempted.
pub fn failed_ops_frac(attempted: u64, failed: u64) -> Option<Metric> {
    let f = ratio(failed as f64, attempted as f64)?;
    Some(metric("failed_ops_frac", "ratio", Clock::Count, f, Some(attempted)))
}

/// The end-to-end metrics of a workload other than `failed_ops_frac`.
/// `shipped` and `setups` are the repeated runs (virtual results are
/// identical across them; host metrics summarize them).
pub fn end_to_end(
    spec: &ExperimentSpec,
    shipped: &[RunReport],
    setups: &[RunReport],
) -> Vec<Metric> {
    let mut out = Vec::new();
    let (Some(r), Some(setup)) = (shipped.first(), setups.first()) else {
        return out;
    };
    if let Some(secs) = ratio(r.elapsed_ns as f64, 1e9) {
        if let Some(m) = ratio(r.total_ops as f64 / 1e6, secs) {
            out.push(metric("mops", "Mops/s", Clock::Virtual, m, Some(r.total_ops)));
        }
    }
    for (name, stats, q) in [
        ("get_p50_us", &r.get, Pct::P50),
        ("get_p99_us", &r.get, Pct::P99),
        ("put_p50_us", &r.put, Pct::P50),
        ("put_p99_us", &r.put, Pct::P99),
        ("all_p999_us", &r.all, Pct::P999),
    ] {
        if let Some(v) = percentile_us(stats, q) {
            out.push(metric(name, "us", Clock::Virtual, v, Some(stats.count)));
        }
    }
    let user_bytes = r.put.count as f64 * (spec.key_len + spec.value_len) as f64;
    if let Some(w) = ratio(delta(r, setup, "pmem.bytes_written") as f64, user_bytes) {
        out.push(metric("write_amp", "ratio", Clock::Count, w, Some(r.put.count)));
    }
    let n = Some(shipped.len() as u64);
    out.push(metric("wall_s", "s", Clock::Host, fastest_wall(shipped), n));
    out.push(metric("setup_s", "s", Clock::Host, fastest_wall(setups), Some(setups.len() as u64)));
    out.push(metric("peak_rss_mb", "MB", Clock::Host, median_rss(shipped), n));
    out
}

/// Share of the cohort's latency on `sub`'s lane, as a fraction.
fn share(shares: &[u64; 8], sub: Subsystem) -> f64 {
    shares[sub.lane() as usize] as f64 / 1e4
}

/// The runs the per-layer metrics are derived from (one of each kind).
pub struct TracedRuns<'a> {
    /// As shipped.
    pub shipped: &'a RunReport,
    /// Zero measured ops.
    pub setup: &'a RunReport,
    /// Built-in tracer muted.
    pub muted: &'a RunReport,
    /// Large trace ring, every record kept (bounded for `sharded-repl`).
    pub ring: &'a RunReport,
}

/// One per-layer metric before zero-base values are dropped: name, unit,
/// clock, value, samples.
type Row = (String, &'static str, Clock, Option<f64>, Option<u64>);

/// The per-layer metrics of a workload, named by module, in layer order.
/// A metric whose base is zero on this workload is left out.
pub fn per_layer(t: &TracedRuns, cal: &Calibration) -> Vec<Metric> {
    use Clock::{Count, Host, Virtual};
    use Subsystem::{Cleaner, Client, Nic, Repl, Server, Verifier};
    let (r, setup) = (t.shipped, t.setup);
    let d = |name: &str| delta(r, setup, name) as f64;
    let (ops, puts) = (r.total_ops as f64, r.put.count as f64);
    let per_op = |v: f64| ratio(v, ops);
    let per_put = |v: f64| ratio(v, puts);
    let (nops, nputs) = (Some(r.total_ops), Some(r.put.count));
    let fold = t.ring.fold.clone().unwrap_or_default();
    let folded = Some(fold.ops);
    let cp = |sub, p999: bool| {
        let shares = if p999 { &fold.share_p999 } else { &fold.share_p50 };
        (fold.ops > 0).then(|| share(shares, sub))
    };
    // Folded PUTs: measured PUTs scaled by the traced run's coverage (all
    // of them when the ring kept every record). The fold counts op
    // attempts — a PUT the harness retries after `Busy` opens a new root
    // span — so coverage can exceed 1; the base is capped at every PUT.
    let coverage = ratio(fold.ops as f64, ops).unwrap_or(0.0).min(1.0);
    let offpath =
        |sub: Subsystem| ratio(fold.offpath_ns[sub.lane() as usize] as f64, puts * coverage);

    let events = d("sim.events_dispatched");
    let verbs = d("fabric.sends") + d("fabric.rdma_reads") + d("fabric.rdma_writes");
    let drains = d("pmem.drains");
    let (hits, fallbacks) = (d("client.pure_hits"), d("client.fallbacks"));
    let (lc_hits, lc_misses) = (d("client.loc_cache.hits"), d("client.loc_cache.misses"));
    let retries = ["client.get_retry", "client.rpc_retry", "client.op_retry", "client.put_reissue"]
        .map(&d)
        .iter()
        .sum::<f64>();
    let shards = shard_puts(r, setup);
    let mean_shard = shards.iter().sum::<u64>() as f64 / shards.len().max(1) as f64;
    let max_shard = shards.iter().copied().max().unwrap_or(0) as f64;
    let shipped_folded = r.fold.as_ref().map_or(0, |f| f.ops) as f64;
    let records = r.records.saturating_sub(setup.records) as f64;
    let ring_records = t.ring.fold_records;

    let mut rows: Vec<Row> = [
        ("sim.events_per_op", "1/op", Count, per_op(events), nops),
        ("sim.ctx_switches_per_op", "1/op", Count, per_op(d("sim.ctx_switches")), nops),
        (
            "sim.stale_wake_frac",
            "ratio",
            Count,
            ratio(d("sim.wakes_stale"), d("sim.chan_wakes")),
            Some(d("sim.chan_wakes") as u64),
        ),
        ("rnic.verbs_per_op", "1/op", Count, per_op(verbs), nops),
        ("rnic.wire_bytes_per_op", "B/op", Count, per_op(d("fabric.bytes_on_wire")), nops),
        ("rnic.cp_share_p50", "ratio", Virtual, cp(Nic, false), folded),
        ("rnic.cp_share_p999", "ratio", Virtual, cp(Nic, true), folded),
        ("pmem.flushes_per_op", "1/op", Count, per_op(d("pmem.flushes")), nops),
        ("pmem.drains_per_op", "1/op", Count, per_op(drains), nops),
        ("pmem.bytes_written_per_op", "B/op", Count, per_op(d("pmem.bytes_written")), nops),
        (
            "client.one_sided_read_frac",
            "ratio",
            Count,
            ratio(hits, hits + fallbacks),
            Some((hits + fallbacks) as u64),
        ),
        (
            "client.loc_cache_hit_frac",
            "ratio",
            Count,
            ratio(lc_hits, lc_hits + lc_misses),
            Some((lc_hits + lc_misses) as u64),
        ),
        ("client.retries_per_op", "1/op", Count, per_op(retries), nops),
        ("client.cp_share_p50", "ratio", Virtual, cp(Client, false), folded),
        ("client.cp_share_p999", "ratio", Virtual, cp(Client, true), folded),
        ("server.cp_share_p50", "ratio", Virtual, cp(Server, false), folded),
        ("server.cp_share_p999", "ratio", Virtual, cp(Server, true), folded),
        (
            "server.queue_ns_per_op",
            "ns/op",
            Virtual,
            ratio(fold.req_queue_ns as f64, fold.ops as f64),
            folded,
        ),
        ("shard.max_over_mean_puts", "ratio", Count, ratio(max_shard, mean_shard), nputs),
        ("verifier.verified_per_put", "1/put", Count, per_put(d("server.bg_verified")), nputs),
        ("verifier.offpath_ns_per_put", "ns/put", Virtual, offpath(Verifier), folded),
        ("cleaner.passes", "count", Count, Some(d("server.cleanings")), None),
        ("cleaner.relocated_per_put", "1/put", Count, per_put(d("server.relocated")), nputs),
        ("cleaner.stalls", "count", Count, Some(d("server.cleaner.stalls")), None),
        ("cleaner.park_ms", "ms", Virtual, Some(d("server.cleaner.park_ns") / 1e6), None),
        ("cleaner.cp_share_p999", "ratio", Virtual, cp(Cleaner, true), folded),
        ("repl.mirror_bytes_per_put", "B/put", Count, per_put(d("repl.mirror_bytes")), nputs),
        ("repl.offpath_ns_per_put", "ns/put", Virtual, offpath(Repl), folded),
        ("repl.cp_share_p999", "ratio", Virtual, cp(Repl, true), folded),
        (
            "pipeline.hazard_waits_per_op",
            "1/op",
            Count,
            per_op(d("client.pipeline.hazard_waits")),
            nops,
        ),
        (
            "pipeline.window_waits_per_op",
            "1/op",
            Count,
            per_op(d("client.pipeline.window_waits")),
            nops,
        ),
        ("pipeline.doorbells_per_op", "1/op", Count, per_op(d("client.pipeline.doorbells")), nops),
        ("obs.fold_coverage", "ratio", Count, per_op(shipped_folded), nops),
        ("obs.traced_fold_coverage", "ratio", Count, per_op(fold.ops as f64), nops),
        (
            "obs.conservation_max_err_ns",
            "ns",
            Virtual,
            Some(fold.conservation_max_err_ns as f64),
            folded,
        ),
        ("obs.records_per_op", "1/op", Count, per_op(records), nops),
        ("obs.tracer_wall_frac", "ratio", Host, ratio(r.wall_s - t.muted.wall_s, r.wall_s), None),
        ("obs.tracer_rss_mb", "MB", Host, Some(r.rss_mb - t.muted.rss_mb), None),
        (
            "obs.fold_ns_per_record",
            "ns",
            Host,
            ratio(t.ring.fold_host_ns as f64, ring_records as f64),
            Some(ring_records),
        ),
    ]
    .map(|(name, unit, clock, v, n)| (name.to_string(), unit, clock, v, n))
    .into();

    // Calibrated host costs, and each layer's share of the shipped run's
    // wall time: ns per call × calls over the measured window ÷ wall.
    // Calls come from deterministic counters. No counter counts CRC calls,
    // so those are estimated from the operations that compute one.
    let crc_calls = d("client.puts")
        + d("server.bg_verified")
        + hits
        + fallbacks
        + d("repl.applied_objects")
        + d("server.relocated");
    let lookups = d("server.puts") + d("server.gets");
    let setup_frac = ratio(setup.wall_s, r.wall_s);
    let mut attributed = setup_frac.unwrap_or(0.0);
    for (layer, call, calls) in [
        ("sim", "event", events),
        ("rnic", "verb", verbs),
        ("pmem", "persist", drains),
        ("checksum", "crc", crc_calls),
        ("hashtable", "lookup", lookups),
        ("ycsb", "op", ops),
        ("obs", "record", records),
    ] {
        let Some(c) = cal.get(layer) else { continue };
        let frac = ratio(c.net_ns * calls, r.wall_s * 1e9);
        attributed += frac.unwrap_or(0.0);
        rows.push((format!("{layer}.host_ns_per_{call}"), "ns", Host, Some(c.ns), Some(c.samples)));
        rows.push((format!("{layer}.host_ns_spread"), "ratio", Host, Some(c.spread), None));
        rows.push((format!("{layer}.host_frac"), "ratio", Host, frac, None));
    }
    let max_spread = cal.0.iter().map(|(_, c)| c.spread).fold(0.0, f64::max);
    let overhead = ratio(t.ring.wall_s - r.wall_s, r.wall_s);
    for (name, v) in [
        ("harness.setup_frac", setup_frac),
        ("harness.unattributed_host_frac", Some(1.0 - attributed)),
        ("harness.trace_overhead_frac", overhead),
        ("harness.calib_max_spread", Some(max_spread)),
    ] {
        rows.push((name.to_string(), "ratio", Host, v, None));
    }
    rows.into_iter()
        .filter_map(|(name, unit, clock, v, n)| Some(metric(&name, unit, clock, v?, n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(count: u64, p50: u64) -> LatencyStats {
        LatencyStats {
            count,
            mean_ns: p50 as f64,
            p50_ns: p50,
            p99_ns: 2 * p50,
            p999_ns: 3 * p50,
            max_ns: 4 * p50,
        }
    }

    fn counters(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.99), 1_000);
        assert_eq!(min_samples(0.999), 10_000);
        assert_eq!(percentile_us(&stats(19, 1000), Pct::P50), None);
        assert_eq!(percentile_us(&stats(20, 1000), Pct::P50), Some(1.0));
        assert_eq!(percentile_us(&stats(999, 1000), Pct::P99), None);
        assert_eq!(percentile_us(&stats(1_000, 1000), Pct::P99), Some(2.0));
        assert_eq!(percentile_us(&stats(9_999, 1000), Pct::P999), None);
        assert_eq!(percentile_us(&stats(10_000, 1000), Pct::P999), Some(3.0));
        assert_eq!(percentile_us(&stats(0, 0), Pct::P50), None, "no samples, no metric");
    }

    #[test]
    fn ratios_have_no_value_on_a_zero_base() {
        assert_eq!(ratio(1.0, 0.0), None);
        assert_eq!(ratio(0.0, 4.0), Some(0.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn counters_sum_across_shards_and_backups_and_subtract_setup() {
        let c = counters(&[
            ("shard0.pmem.bytes_written", 10),
            ("shard0.backup.pmem.bytes_written", 5),
            ("shard1.pmem.bytes_written", 7),
            ("pmem.bytes_written_other", 1000),
        ]);
        assert_eq!(sum(&c, "pmem.bytes_written"), 22);
        let shipped = RunReport { counters: c, ..RunReport::default() };
        let setup = RunReport {
            counters: counters(&[("shard0.pmem.bytes_written", 4)]),
            ..RunReport::default()
        };
        assert_eq!(delta(&shipped, &setup, "pmem.bytes_written"), 18);
    }

    #[test]
    fn shard_puts_are_per_shard_deltas() {
        let shipped = RunReport {
            counters: counters(&[
                ("shard0.server.puts", 30),
                ("shard1.server.puts", 50),
                ("shard1.server.puts_other", 999),
            ]),
            ..RunReport::default()
        };
        let setup = RunReport {
            counters: counters(&[("shard0.server.puts", 10), ("shard1.server.puts", 10)]),
            ..RunReport::default()
        };
        assert_eq!(shard_puts(&shipped, &setup), vec![20, 40]);
        let single =
            RunReport { counters: counters(&[("server.puts", 8)]), ..RunReport::default() };
        assert_eq!(shard_puts(&single, &RunReport::default()), vec![8]);
    }

    #[test]
    fn checks_catch_lost_ops_and_duplicate_puts() {
        let mut r = RunReport {
            expected_ops: 10,
            total_ops: 10,
            counters: counters(&[
                ("shard0.server.puts", 3),
                ("shard1.server.puts", 2),
                ("client.puts", 5),
            ]),
            ..RunReport::default()
        };
        assert!(run_checks(&r).is_empty());
        r.total_ops = 9;
        assert_eq!(run_checks(&r).len(), 1, "a lost op");
        r.total_ops = 10;
        // Server PUTs applied twice, or acknowledged PUTs the server lost.
        for client in [0, 2, 4, 6] {
            r.counters.insert("client.puts".into(), client);
            assert_eq!(run_checks(&r).len(), 1, "client.puts {client}");
        }
    }

    fn spec() -> ExperimentSpec {
        crate::workloads::spec("clean-churn", 1, crate::workloads::Scale::Tiny).unwrap()
    }

    #[test]
    fn write_amp_is_pool_bytes_over_user_bytes_put() {
        let s = spec();
        let obj = (s.key_len + s.value_len) as u64;
        let shipped = RunReport {
            wall_s: 2.0,
            total_ops: 100,
            elapsed_ns: 1_000_000,
            put: stats(100, 5_000),
            all: stats(100, 5_000),
            counters: counters(&[("pmem.bytes_written", 1_000 + 300 * obj)]),
            ..RunReport::default()
        };
        let setup = RunReport {
            wall_s: 1.0,
            counters: counters(&[("pmem.bytes_written", 1_000)]),
            ..RunReport::default()
        };
        let m = end_to_end(&s, &[shipped], &[setup]);
        let get = |n: &str| m.iter().find(|x| x.name == n).map(|x| x.value);
        assert_eq!(get("write_amp"), Some(3.0));
        // 100 ops in 1 ms of virtual time.
        assert_eq!(get("mops"), Some(0.1));
        assert_eq!(get("wall_s"), Some(2.0));
        assert_eq!(get("setup_s"), Some(1.0));
        // 100 samples: p50 yes, p99 and p99.9 no; no GETs at all.
        assert_eq!(get("put_p50_us"), Some(5.0));
        assert_eq!(get("put_p99_us"), None);
        assert_eq!(get("all_p999_us"), None);
        assert_eq!(get("get_p50_us"), None);
    }

    #[test]
    fn failed_ops_are_a_share_of_attempted_ops() {
        assert_eq!(failed_ops_frac(500, 500).map(|m| m.value), Some(1.0));
        assert_eq!(failed_ops_frac(500, 0).map(|m| m.value), Some(0.0));
        assert_eq!(failed_ops_frac(0, 0), None);
        assert!(end_to_end(&spec(), &[], &[]).is_empty());
    }
}
