//! The benchmark command: argument parsing, child processes with a wall
//! limit, the end-to-end and traced run sequences, correctness checks, and
//! the printed report whose last line is the JSON result.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::calib;
use crate::derive::{self, Metric, TracedRuns};
use crate::run::{self, Kind, RunReport};
use crate::spans::SpanLog;
use crate::workloads::{self, Scale};
use efactory_harness::ExperimentSpec;

/// End-to-end metrics in the JSON result (`--trace 0`). The printed report
/// has all eleven; see the benchmark's README for why only these four.
pub const END_TO_END: [&str; 4] = ["mops", "write_amp", "setup_s", "peak_rss_mb"];

/// Per-layer metrics in the JSON result (`--trace 1`).
pub const PER_LAYER: [&str; 55] = [
    "sim.events_per_op",
    "sim.ctx_switches_per_op",
    "sim.stale_wake_frac",
    "sim.host_ns_per_event",
    "sim.host_frac",
    "rnic.verbs_per_op",
    "rnic.wire_bytes_per_op",
    "rnic.cp_share_p50",
    "rnic.cp_share_p999",
    "rnic.host_ns_per_verb",
    "rnic.host_frac",
    "pmem.flushes_per_op",
    "pmem.drains_per_op",
    "pmem.bytes_written_per_op",
    "pmem.host_ns_per_persist",
    "pmem.host_frac",
    "checksum.host_ns_per_crc",
    "checksum.host_frac",
    "hashtable.host_ns_per_lookup",
    "hashtable.host_frac",
    "client.retries_per_op",
    "client.cp_share_p50",
    "client.cp_share_p999",
    "server.cp_share_p50",
    "server.cp_share_p999",
    "server.queue_ns_per_op",
    "shard.max_over_mean_puts",
    "verifier.verified_per_put",
    "verifier.offpath_ns_per_put",
    "cleaner.passes",
    "cleaner.relocated_per_put",
    "cleaner.stalls",
    "cleaner.park_ms",
    "cleaner.cp_share_p999",
    "repl.mirror_bytes_per_put",
    "repl.offpath_ns_per_put",
    "repl.cp_share_p999",
    "pipeline.hazard_waits_per_op",
    "pipeline.window_waits_per_op",
    "pipeline.doorbells_per_op",
    "obs.fold_coverage",
    "obs.traced_fold_coverage",
    "obs.conservation_max_err_ns",
    "obs.records_per_op",
    "obs.host_ns_per_record",
    "obs.host_frac",
    "obs.tracer_wall_frac",
    "obs.tracer_rss_mb",
    "obs.fold_ns_per_record",
    "ycsb.host_ns_per_op",
    "ycsb.host_frac",
    "harness.setup_frac",
    "harness.unattributed_host_frac",
    "harness.trace_overhead_frac",
    "harness.calib_max_spread",
];

/// End-to-end runs repeat until `--seconds` have passed, but at least
/// this many times (host figures summarize the repeats)…
const MIN_REPEATS: usize = 3;
/// …and at most this many.
const MAX_REPEATS: usize = 101;
/// Wall limit of one child run; a child past it is killed and its
/// workload counted as failed.
const CHILD_LIMIT: Duration = Duration::from_secs(60);

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Cli {
    /// Run the benchmark.
    Bench {
        /// A workload name, or `all`.
        workload: String,
        /// Workload seed.
        seed: u64,
        /// Measurement budget per workload, seconds.
        seconds: u64,
        /// Per-layer (traced) run instead of the end-to-end runs.
        trace: bool,
    },
    /// Internal: make one run in this process and print its report.
    Child {
        /// Workload name.
        workload: String,
        /// Workload seed.
        seed: u64,
        /// Which run.
        kind: Kind,
    },
}

/// Usage text.
pub const USAGE: &str =
    "usage: efactory-perfbench [--workload <paper-read|clean-churn|sharded-repl|pipelined|all>] \
--seed <n> [--seconds <n>] [--trace <0|1>]";

/// Parse the arguments after the program name.
pub fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut workload = "all".to_string();
    let (mut seed, mut seconds, mut trace) = (None, 10u64, false);
    let mut child = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = value()?,
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--child" => child = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if workload != "all" && workloads::spec(&workload, seed, Scale::Full).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    if let Some(kind) = child {
        let kind = match kind.as_str() {
            "shipped" => Kind::Shipped,
            "setup" => Kind::Setup,
            "muted" => Kind::Muted,
            k => Kind::Ring(
                k.strip_prefix("ring:")
                    .and_then(|c| c.parse().ok())
                    .ok_or(format!("unknown child kind {k}"))?,
            ),
        };
        return Ok(Cli::Child { workload, seed, kind });
    }
    Ok(Cli::Bench { workload, seed, seconds: seconds.max(1), trace })
}

/// Run one child process (this executable in `--child` mode) with a wall
/// limit, and parse its report.
fn child(name: &str, seed: u64, kind: Kind) -> Result<RunReport, String> {
    let kind_arg = match kind {
        Kind::Ring(cap) => format!("ring:{cap}"),
        k => k.label().to_string(),
    };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut proc = Command::new(exe)
        .args(["--child", &kind_arg, "--workload", name, "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = proc.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = proc.try_wait().map_err(|e| format!("wait: {e}"))? {
            break Some(status);
        }
        if t0.elapsed() > CHILD_LIMIT {
            let _ = proc.kill();
            let _ = proc.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let out = reader
        .join()
        .map_err(|_| "reader thread panicked".to_string())?
        .map_err(|e| format!("read child output: {e}"))?;
    match status {
        None => Err(format!("{kind_arg} run timed out after {CHILD_LIMIT:?}")),
        Some(s) if !s.success() => Err(format!("{kind_arg} run failed: {s}")),
        Some(_) => RunReport::parse(&out),
    }
}

/// What benchmarking one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric derived, in print order.
    pub metrics: Vec<Metric>,
    /// Ops the runs were asked for.
    pub attempted: u64,
    /// Ops not completed: all of them once any run panicked or timed out.
    pub failed: u64,
    /// Failed correctness checks and failed runs.
    pub problems: Vec<String>,
}

/// One workload's runs in progress: the child runs made so far and what
/// they found.
struct Runs<'a> {
    name: &'a str,
    seed: u64,
    /// Ops each non-setup run is asked for.
    ops: u64,
    log: &'a mut SpanLog,
    out: Outcome,
    crashed: bool,
}

impl Runs<'_> {
    /// One child run, with the per-run correctness checks.
    fn run(&mut self, kind: Kind) -> Option<RunReport> {
        let (name, seed) = (self.name, self.seed);
        let r = self.log.within(&format!("{name}.{}", kind.label()), |_| child(name, seed, kind));
        if kind != Kind::Setup {
            self.out.attempted += self.ops;
        }
        match r {
            Ok(r) => {
                let checks = derive::run_checks(&r).into_iter();
                self.out.problems.extend(checks.map(|p| format!("{}: {p}", kind.label())));
                Some(r)
            }
            Err(e) => {
                self.crashed = true;
                self.out.problems.push(e);
                None
            }
        }
    }

    /// Check that `r` reproduces `base`'s virtual results exactly.
    fn repro(&mut self, what: &str, base: &RunReport, r: &RunReport) {
        if !base.same_virtual_run(r) {
            self.out.problems.push(format!(
                "{what} did not reproduce the first shipped run's virtual results and counters"
            ));
        }
    }

    /// End-to-end runs: shipped runs until the budget is spent (set-up
    /// runs beside every other one), at least `MIN_REPEATS` of them.
    fn end_to_end(&mut self, spec: &ExperimentSpec, deadline: Instant) -> Vec<Metric> {
        let (mut shipped, mut setups) = (Vec::new(), Vec::new());
        while shipped.len() < MAX_REPEATS {
            let Some(s) = self.run(Kind::Shipped) else {
                break;
            };
            if let Some(s0) = shipped.first() {
                self.repro("a repeated shipped run", s0, &s);
            }
            shipped.push(s);
            // `setup_s` needs repeats too, but the shipped runs set `wall_s`.
            if shipped.len() % 2 == 1 {
                let Some(u) = self.run(Kind::Setup) else {
                    break;
                };
                if let Some(u0) = setups.first() {
                    self.repro("a repeated setup run", u0, &u);
                }
                setups.push(u);
            }
            if shipped.len() >= MIN_REPEATS && Instant::now() >= deadline {
                break;
            }
        }
        derive::end_to_end(spec, &shipped, &setups)
    }

    /// Traced runs: shipped and muted pairs until the budget is spent, one
    /// set-up run, one ring run, then the calibration loops. Returns the
    /// end-to-end metrics of its shipped runs, then the per-layer metrics.
    fn traced(&mut self, spec: &ExperimentSpec, deadline: Instant) -> Option<Vec<Metric>> {
        let (mut shipped, mut muted) = (Vec::new(), Vec::new());
        while shipped.len() < MAX_REPEATS {
            let s = self.run(Kind::Shipped)?;
            let m = self.run(Kind::Muted)?;
            let base = shipped.first().unwrap_or(&s).clone();
            self.repro("a repeated shipped run", &base, &s);
            self.repro("the muted-tracer run", &base, &m);
            shipped.push(s);
            muted.push(m);
            if shipped.len() >= MIN_REPEATS && Instant::now() >= deadline {
                break;
            }
        }
        let setup = self.run(Kind::Setup)?;
        // The end-to-end metrics of this sequence's own shipped runs print
        // beside the per-layer ones they explain.
        let mut metrics = derive::end_to_end(spec, &shipped, std::slice::from_ref(&setup));
        let (shipped, muted) = (with_host_figures(&shipped), with_host_figures(&muted));
        let cap = workloads::traced_ring_cap(self.name).unwrap_or(shipped.records as usize + 1);
        let ring = self.run(Kind::Ring(cap))?;
        self.repro("the full-ring run", &shipped, &ring);
        match &ring.fold {
            Some(f) if f.conservation_max_err_ns == 0 => {}
            Some(f) => self.out.problems.push(format!(
                "traced run: conservation_max_err_ns = {} (must be 0)",
                f.conservation_max_err_ns
            )),
            None => self.out.problems.push("traced run folded no ops".into()),
        }
        let cal = self.log.within(&format!("{}.calibrate", self.name), |log| {
            calib::calibrate(spec, |layer, f| log.within(&format!("calibrate.{layer}"), |_| f()))
        });
        let traced = TracedRuns { shipped: &shipped, setup: &setup, muted: &muted, ring: &ring };
        metrics.extend(derive::per_layer(&traced, &cal));
        Some(metrics)
    }
}

/// Benchmark one workload (`trace` selects the traced run sequence). A
/// run that panics or times out fails the workload: every op attempted
/// counts as failed and no other metric is reported for it.
pub fn bench_workload(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    log: &mut SpanLog,
) -> Outcome {
    let spec = workloads::spec(name, seed, Scale::Full).expect("known workload");
    let mut runs = Runs {
        name,
        seed,
        ops: (spec.clients * spec.ops_per_client) as u64,
        log,
        out: Outcome::default(),
        crashed: false,
    };
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let metrics = if trace {
        runs.traced(&spec, deadline).unwrap_or_default()
    } else {
        runs.end_to_end(&spec, deadline)
    };
    let mut out = runs.out;
    if runs.crashed {
        out.attempted = out.attempted.max(runs.ops);
        out.failed = out.attempted;
    }
    out.metrics = derive::failed_ops_frac(out.attempted, out.failed).into_iter().collect();
    if !runs.crashed {
        out.metrics.extend(metrics);
    }
    out
}

/// The first of `runs` with its host wall time and peak RSS replaced by
/// the fastest wall and the median RSS over all of them (the virtual
/// results are identical).
fn with_host_figures(runs: &[RunReport]) -> RunReport {
    let mut r = runs[0].clone();
    r.wall_s = derive::fastest_wall(runs);
    r.rss_mb = derive::median_rss(runs);
    r
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_metrics(metrics: &[Metric]) {
    println!("  {:<34} {:>16} {:<8} {:<8} samples", "metric", "value", "unit", "clock");
    for m in metrics {
        let samples = m.samples.map_or("-".to_string(), |n| n.to_string());
        println!(
            "  {:<34} {:>16.6} {:<8} {:<8} {samples}",
            m.name,
            m.value,
            m.unit,
            m.clock.label()
        );
    }
}

/// The JSON result line: `names` picked from `metrics`, each
/// key prefixed by `prefix`. A listed metric that is missing is a problem.
fn json_metrics(
    metrics: &[Metric],
    names: &[&str],
    prefix: &str,
    problems: &mut Vec<String>,
) -> Vec<String> {
    names
        .iter()
        .filter_map(|name| match metrics.iter().find(|m| m.name == *name) {
            Some(m) => Some(format!(
                "\"{prefix}{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            )),
            None => {
                problems.push(format!("metric {name} has no value"));
                None
            }
        })
        .collect()
}

/// Run the benchmark command; returns the process exit code.
pub fn main_with(args: &[String]) -> i32 {
    let cli = match parse_args(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let (workload, seed, seconds, trace) = match cli {
        Cli::Child { workload, seed, kind } => {
            let spec = workloads::spec(&workload, seed, Scale::Full).expect("checked workload");
            print!("{}", run::run(&spec, kind).to_lines());
            return 0;
        }
        Cli::Bench { workload, seed, seconds, trace } => (workload, seed, seconds, trace),
    };
    let names: Vec<&str> =
        if workload == "all" { workloads::NAMES.to_vec() } else { vec![workload.as_str()] };
    let mut log = SpanLog::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    let mut json = Vec::new();
    let listed: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    for name in &names {
        println!(
            "== {name} (seed {seed}, {} run): {}",
            if trace { "traced" } else { "end-to-end" },
            workloads::why(name)
        );
        let out = log.within(name, |log| bench_workload(name, seed, seconds, trace, log));
        print_metrics(&out.metrics);
        attempted += out.attempted;
        failed += out.failed;
        let mut mine: Vec<String> = out.problems.iter().map(|p| format!("{name}: {p}")).collect();
        if out.failed == 0 {
            let prefix = if names.len() > 1 { format!("{name}/") } else { String::new() };
            json.extend(json_metrics(&out.metrics, listed, &prefix, &mut mine));
        }
        for p in &mine {
            println!("  CHECK FAILED: {p}");
        }
        problems.extend(mine);
    }
    // Next to the binary, inside the build directory.
    let path = std::env::current_exe()
        .ok()
        .and_then(|e| e.parent().map(|p| p.join("perfbench-spans")))
        .unwrap_or_else(|| PathBuf::from("."))
        .join(format!("{workload}-seed{seed}-trace{}.json", u8::from(trace)));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| std::fs::write(&path, log.to_chrome_json()));
    match written {
        Ok(()) => println!("benchmark spans: {} ({} spans)", path.display(), log.spans().len()),
        Err(e) => println!("benchmark spans not written to {}: {e}", path.display()),
    }
    let correct = problems.is_empty() && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        json.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let cli =
            parse_args(&args("--workload pipelined --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            cli,
            Cli::Bench { workload: "pipelined".into(), seed: 7, seconds: 20, trace: true }
        );
        let child = parse_args(&args("--child ring:99 --workload paper-read --seed 1")).unwrap();
        assert!(matches!(child, Cli::Child { kind: Kind::Ring(99), .. }));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1",
            "--workload paper-read",
            "--seed x",
            "--seed 1 --trace 2",
            "--seed 1 --bogus",
            "--seed",
            "--seed 1 --child ring:x",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_run_that_fails_fails_every_op_of_its_workload() {
        // Under `cargo test` the child is the test binary itself, which
        // rejects `--child` and exits non-zero: a failed run.
        let mut log = SpanLog::default();
        let out = bench_workload("paper-read", 1, 1, false, &mut log);
        assert_eq!(out.attempted, 32_000);
        assert_eq!(out.failed, out.attempted);
        assert_eq!(out.metrics.len(), 1);
        assert_eq!((out.metrics[0].name.as_str(), out.metrics[0].value), ("failed_ops_frac", 1.0));
        assert_eq!(out.problems.len(), 1);
        assert_eq!(log.spans().len(), 1);
    }

    #[test]
    fn missing_listed_metrics_are_problems() {
        let m = vec![Metric {
            name: "mops".into(),
            unit: "Mops/s",
            clock: derive::Clock::Virtual,
            value: 1.5,
            samples: None,
        }];
        let mut problems = Vec::new();
        let j = json_metrics(&m, &END_TO_END, "", &mut problems);
        assert_eq!(j, vec!["\"mops\": {\"value\": 1.5, \"unit\": \"Mops/s\"}".to_string()]);
        assert_eq!(problems.len(), END_TO_END.len() - 1);
    }
}
