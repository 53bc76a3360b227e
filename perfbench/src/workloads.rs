//! The four named workloads. Each is a closed loop (paper §5): every
//! simulated client sends its next operation when the previous one
//! completes (or, for `pipelined`, when a window slot frees). Clients are
//! fibers on one host thread; the executor is pinned so an environment
//! override cannot add an OS thread per simulated process.

use efactory_harness::{Cleaning, ExperimentSpec, SystemKind};
use efactory_sim::ExecModel;
use efactory_ycsb::Mix;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["paper-read", "clean-churn", "sharded-repl", "pipelined"];

/// Why each workload exists (one line each; mirrored in `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "paper-read" => "paper's hybrid one-sided read path: YCSB-B, 1 KB values, 8 serial clients; cleaner, replication and pipeline idle",
        "clean-churn" => "update-only churn through dual 2 MiB pools at 0.75 fill: back-to-back cleaning, pmem flushes and the verifier dominate",
        "sharded-repl" => "YCSB-A over 4 shards x 1 backup, 32 clients, 100K records beyond the 64K location cache; preload is most of the wall time",
        "pipelined" => "YCSB-A with 2 clients x window 16: the only workload with many ops in flight per client",
        _ => "",
    }
}

/// Run size. `Full` is what the benchmark measures; `Tiny` is the same
/// shape shrunk for the smoke test (still enough samples for every
/// percentile the workload reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A fast configuration for tests.
    Tiny,
}

/// The experiment for workload `name` at `seed`, or `None` for an unknown
/// name. The program under test receives only this spec.
pub fn spec(name: &str, seed: u64, scale: Scale) -> Option<ExperimentSpec> {
    let tiny = scale == Scale::Tiny;
    let mut s = ExperimentSpec::paper(SystemKind::EFactory, Mix::B, 1024);
    s.seed = seed;
    s.exec = Some(ExecModel::Fiber);
    match name {
        "paper-read" => {
            // 5% PUTs: 8 x 4,000 ops gives ~1,600 PUT samples.
            s.ops_per_client = if tiny { 3_000 } else { 4_000 };
        }
        "clean-churn" => {
            s.mix = Mix::UpdateOnly;
            s.value_len = 256;
            s.cleaning = Cleaning::Enabled {
                threshold: 0.75,
                pool_len: if tiny { 512 << 10 } else { 2 << 20 },
            };
            s.record_count = if tiny { 1_024 } else { 4_096 };
            s.ops_per_client = if tiny { 1_300 } else { 8_000 };
        }
        "sharded-repl" => {
            s.mix = Mix::A;
            s.value_len = 64;
            s.record_count = if tiny { 2_000 } else { 100_000 };
            s.shards = 4;
            s.replicas = 1;
            s.clients = 32;
            s.loc_cache = true;
            s.ops_per_client = if tiny { 320 } else { 2_000 };
        }
        "pipelined" => {
            s.mix = Mix::A;
            s.value_len = 256;
            s.clients = 2;
            s.window = 16;
            s.loc_cache = true;
            s.ops_per_client = if tiny { 5_000 } else { 20_000 };
        }
        _ => return None,
    }
    Some(s)
}

/// Trace-ring capacity for the traced run, or `None` to size the ring to
/// hold every record of the run. `sharded-repl` stays bounded: the
/// critical-path fold scans every replication span for each PUT, so its
/// cost grows with the square of the ring and a full ring does not finish
/// in minutes. Its traced run reports the coverage it reached instead.
pub fn traced_ring_cap(name: &str) -> Option<usize> {
    (name == "sharded-repl").then_some(1 << 17)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::min_samples;

    /// Every workload supplies ≥ 1,000 samples of each op type it runs and
    /// ≥ 10,000 ops in total, so p99 and p99.9 both have ≥ 10 samples
    /// beyond them — at both scales.
    #[test]
    fn every_workload_supplies_enough_samples() {
        for scale in [Scale::Full, Scale::Tiny] {
            for name in NAMES {
                let s = spec(name, 1, scale).unwrap();
                let ops = (s.clients * s.ops_per_client) as f64;
                assert!(ops >= min_samples(0.999) as f64, "{name} {scale:?}");
                let reads = s.mix.read_fraction();
                for frac in [reads, 1.0 - reads] {
                    if frac > 0.0 {
                        // Expected count with a 10% margin for the mix's
                        // random draw.
                        assert!(ops * frac * 0.9 >= min_samples(0.99) as f64, "{name} {scale:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_workload_pins_the_fiber_executor_and_has_a_reason() {
        for name in NAMES {
            let s = spec(name, 1, Scale::Full).unwrap();
            assert_eq!(s.exec, Some(ExecModel::Fiber));
            assert!(!why(name).is_empty() && why(name).len() <= 200);
        }
        assert!(spec("nope", 1, Scale::Full).is_none());
    }
}
