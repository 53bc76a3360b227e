//! One measured call into the harness, as a child process runs it, and the
//! line format the child reports it in.
//!
//! Four kinds of run share one spec:
//!
//! * `shipped` — `run_observed` with a default `Obs`, the program as it
//!   ships (its built-in tracer keeps a bounded ring and the harness folds
//!   it); the end-to-end metrics come from these runs.
//! * `setup` — the same spec with `ops_per_client = 0`: build, preload,
//!   verifier drain and teardown only.
//! * `muted` — the shipped run after `Tracer::filter(&[])`.
//! * `ring` — the shipped run with a trace ring large enough to keep every
//!   record (bounded for `sharded-repl`), followed by the benchmark's own
//!   timed call to `critical_path::fold`.

use std::collections::BTreeMap;
use std::time::Instant;

use efactory_harness::{run_observed, ExperimentSpec, LatencyStats, RunResult};
use efactory_obs::{critical_path, FoldConfig, Obs, Subsystem};
use efactory_rnic::CostModel;

/// Which of the four runs to make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// As shipped: default observability.
    Shipped,
    /// Zero measured ops: set-up and teardown only.
    Setup,
    /// Built-in tracer muted.
    Muted,
    /// Trace ring of the given capacity.
    Ring(usize),
}

impl Kind {
    /// Stable label (command line and span names).
    pub fn label(self) -> &'static str {
        match self {
            Kind::Shipped => "shipped",
            Kind::Setup => "setup",
            Kind::Muted => "muted",
            Kind::Ring(_) => "ring",
        }
    }
}

/// What the harness's own fold of a run's trace attributed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FoldSummary {
    /// Ops folded.
    pub ops: u64,
    /// Max per-op |latency − Σ segments|.
    pub conservation_max_err_ns: u64,
    /// Per-lane share of the p50 cohort's latency, in hundredths of a percent.
    pub share_p50: [u64; 8],
    /// Per-lane share of the p99.9 cohort's latency, in hundredths of a percent.
    pub share_p999: [u64; 8],
    /// Critical-path nanoseconds spent in the server's request queue.
    pub req_queue_ns: u64,
    /// Off-path nanoseconds per lane (verifier CRC/flush, repl mirror).
    pub offpath_ns: [u64; 8],
}

impl FoldSummary {
    fn from_result(r: &RunResult) -> Option<FoldSummary> {
        let b = r.breakdown.as_ref()?;
        let shares =
            |label| b.percentile(label).map(|row| row.share_hundredths).unwrap_or_default();
        let mut offpath_ns = [0u64; 8];
        for t in &b.offpath {
            offpath_ns[t.sub.lane() as usize] += t.total_ns;
        }
        Some(FoldSummary {
            ops: b.ops,
            conservation_max_err_ns: b.conservation_max_err_ns,
            share_p50: shares("p50"),
            share_p999: shares("p999"),
            req_queue_ns: b
                .phases
                .iter()
                .filter(|t| t.sub == Subsystem::Server && t.phase == "req_queue")
                .map(|t| t.total_ns)
                .sum(),
            offpath_ns,
        })
    }
}

/// Everything one child run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Host wall time of the `run_observed` call, seconds.
    pub wall_s: f64,
    /// Peak resident set (`VmHWM`) of the process, MB.
    pub rss_mb: f64,
    /// Ops the spec asked for (clients × ops per client).
    pub expected_ops: u64,
    /// Ops the run completed.
    pub total_ops: u64,
    /// Virtual measurement window, ns.
    pub elapsed_ns: u64,
    /// GET latencies (virtual).
    pub get: LatencyStats,
    /// PUT latencies (virtual).
    pub put: LatencyStats,
    /// All-op latencies (virtual).
    pub all: LatencyStats,
    /// End-of-run counter registry (whole run, preload included).
    pub counters: BTreeMap<String, u64>,
    /// Trace records the tracer accepted over the run (kept + evicted).
    pub records: u64,
    /// The harness's fold of the run's trace.
    pub fold: Option<FoldSummary>,
    /// `ring` only: host ns of the benchmark's own call to `fold`.
    pub fold_host_ns: u64,
    /// `ring` only: records that call folded.
    pub fold_records: u64,
}

impl RunReport {
    /// Counters a run's virtual behaviour determines. The `obs.*` family
    /// describes the tracer itself, which the muted and ring runs change
    /// on purpose.
    pub fn deterministic_counters(&self) -> BTreeMap<&str, u64> {
        self.counters
            .iter()
            .filter(|(n, _)| !n.starts_with("obs."))
            .map(|(n, v)| (n.as_str(), *v))
            .collect()
    }

    /// Whether `other` reproduces this run's virtual-time results and
    /// deterministic counters exactly.
    pub fn same_virtual_run(&self, other: &RunReport) -> bool {
        self.total_ops == other.total_ops
            && self.elapsed_ns == other.elapsed_ns
            && self.get == other.get
            && self.put == other.put
            && self.all == other.all
            && self.deterministic_counters() == other.deterministic_counters()
    }

    /// Serialize as `key value…` lines (parsed back by [`RunReport::parse`]).
    pub fn to_lines(&self) -> String {
        let stats = |s: &LatencyStats| {
            format!(
                "{} {} {} {} {} {}",
                s.count, s.mean_ns, s.p50_ns, s.p99_ns, s.p999_ns, s.max_ns
            )
        };
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v);
            out.push('\n');
        };
        line("wall_s", self.wall_s.to_string());
        line("rss_mb", self.rss_mb.to_string());
        line("expected_ops", self.expected_ops.to_string());
        line("total_ops", self.total_ops.to_string());
        line("elapsed_ns", self.elapsed_ns.to_string());
        line("get", stats(&self.get));
        line("put", stats(&self.put));
        line("all", stats(&self.all));
        line("records", self.records.to_string());
        line("fold_host_ns", self.fold_host_ns.to_string());
        line("fold_records", self.fold_records.to_string());
        if let Some(f) = &self.fold {
            let arr = |a: &[u64; 8]| a.map(|v| v.to_string()).join(" ");
            line("fold_ops", f.ops.to_string());
            line("fold_err", f.conservation_max_err_ns.to_string());
            line("fold_p50", arr(&f.share_p50));
            line("fold_p999", arr(&f.share_p999));
            line("fold_req_queue", f.req_queue_ns.to_string());
            line("fold_offpath", arr(&f.offpath_ns));
        }
        for (n, v) in &self.counters {
            line("counter", format!("{n} {v}"));
        }
        out
    }

    /// Parse [`RunReport::to_lines`] output; lines it does not know are
    /// ignored, a malformed known line is an error.
    pub fn parse(text: &str) -> Result<RunReport, String> {
        fn num<T: std::str::FromStr>(s: Option<&str>, key: &str) -> Result<T, String> {
            s.and_then(|s| s.parse().ok()).ok_or_else(|| format!("bad value for {key}"))
        }
        fn arr8(it: &mut std::str::SplitWhitespace, key: &str) -> Result<[u64; 8], String> {
            let mut a = [0u64; 8];
            for v in a.iter_mut() {
                *v = num(it.next(), key)?;
            }
            Ok(a)
        }
        let mut r = RunReport::default();
        let mut fold = FoldSummary::default();
        let mut folded = false;
        for line in text.lines() {
            let mut it = line.split_whitespace();
            let Some(key) = it.next() else { continue };
            match key {
                "wall_s" => r.wall_s = num(it.next(), key)?,
                "rss_mb" => r.rss_mb = num(it.next(), key)?,
                "expected_ops" => r.expected_ops = num(it.next(), key)?,
                "total_ops" => r.total_ops = num(it.next(), key)?,
                "elapsed_ns" => r.elapsed_ns = num(it.next(), key)?,
                "get" | "put" | "all" => {
                    let s = LatencyStats {
                        count: num(it.next(), key)?,
                        mean_ns: num(it.next(), key)?,
                        p50_ns: num(it.next(), key)?,
                        p99_ns: num(it.next(), key)?,
                        p999_ns: num(it.next(), key)?,
                        max_ns: num(it.next(), key)?,
                    };
                    match key {
                        "get" => r.get = s,
                        "put" => r.put = s,
                        _ => r.all = s,
                    }
                }
                "records" => r.records = num(it.next(), key)?,
                "fold_host_ns" => r.fold_host_ns = num(it.next(), key)?,
                "fold_records" => r.fold_records = num(it.next(), key)?,
                "fold_ops" => {
                    folded = true;
                    fold.ops = num(it.next(), key)?;
                }
                "fold_err" => fold.conservation_max_err_ns = num(it.next(), key)?,
                "fold_p50" => fold.share_p50 = arr8(&mut it, key)?,
                "fold_p999" => fold.share_p999 = arr8(&mut it, key)?,
                "fold_req_queue" => fold.req_queue_ns = num(it.next(), key)?,
                "fold_offpath" => fold.offpath_ns = arr8(&mut it, key)?,
                "counter" => {
                    let name = it.next().ok_or("counter without a name")?;
                    r.counters.insert(name.to_string(), num(it.next(), key)?);
                }
                _ => {}
            }
        }
        if r.expected_ops == 0 && r.wall_s == 0.0 {
            return Err("no run report in the child's output".into());
        }
        r.fold = folded.then_some(fold);
        Ok(r)
    }
}

/// Peak resident set of this process (`VmHWM`), MB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Make one run of `spec` in this process. Panics propagate: the parent
/// runs this in a child process and counts a panic as a failed workload.
pub fn run(spec: &ExperimentSpec, kind: Kind) -> RunReport {
    let mut spec = spec.clone();
    if kind == Kind::Setup {
        spec.ops_per_client = 0;
    }
    let obs = match kind {
        Kind::Ring(cap) => Obs::with_trace_capacity(cap),
        _ => Obs::new(),
    };
    if kind == Kind::Muted {
        obs.tracer.filter(&[]);
    }
    let t0 = Instant::now();
    let r = run_observed(&spec, CostModel::default(), &obs);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut report = RunReport {
        wall_s,
        rss_mb: 0.0,
        expected_ops: (spec.clients * spec.ops_per_client) as u64,
        total_ops: r.total_ops,
        elapsed_ns: r.elapsed_ns,
        get: r.get,
        put: r.put,
        all: r.all,
        counters: r.counters.iter().cloned().collect(),
        records: obs.tracer.len() as u64 + obs.tracer.dropped(),
        fold: FoldSummary::from_result(&r),
        fold_host_ns: 0,
        fold_records: 0,
    };
    if let Kind::Ring(_) = kind {
        let records = obs.tracer.records();
        let t0 = Instant::now();
        let b = critical_path::fold(&records, &FoldConfig::default());
        report.fold_host_ns = t0.elapsed().as_nanos() as u64;
        report.fold_records = records.len() as u64;
        std::hint::black_box(b);
    }
    report.rss_mb = peak_rss_mb();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lines_round_trip() {
        let mut r = RunReport {
            wall_s: 1.25,
            rss_mb: 37.5,
            expected_ops: 100,
            total_ops: 100,
            elapsed_ns: 12345,
            ..RunReport::default()
        };
        r.get = LatencyStats {
            count: 3,
            mean_ns: 1.0 / 3.0,
            p50_ns: 1,
            p99_ns: 2,
            p999_ns: 3,
            max_ns: 4,
        };
        r.counters.insert("shard0.server.puts".into(), 7);
        r.fold = Some(FoldSummary {
            ops: 9,
            share_p999: [1, 2, 3, 4, 5, 6, 7, 8],
            ..FoldSummary::default()
        });
        assert_eq!(RunReport::parse(&r.to_lines()).unwrap(), r);
    }

    #[test]
    fn empty_or_malformed_output_is_an_error() {
        assert!(RunReport::parse("").is_err());
        assert!(RunReport::parse("wall_s x\n").is_err());
    }

    #[test]
    fn tracer_counters_do_not_break_determinism() {
        let mut a = RunReport::default();
        a.counters.insert("server.puts".into(), 3);
        let mut b = a.clone();
        b.counters.insert("obs.trace_dropped".into(), 99);
        assert!(a.same_virtual_run(&b));
        b.counters.insert("server.puts".into(), 4);
        assert!(!a.same_virtual_run(&b));
    }
}
