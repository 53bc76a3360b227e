//! Calibration loops: host nanoseconds per call of one layer's public
//! function, at a workload's shapes (value size, object size, record
//! count). The vendored `criterion` stand-in times nothing, so this is the
//! benchmark's own loop: warm-up, then N samples of a fixed batch, reported
//! as the median ns per call with the samples' quartile spread.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use efactory::hashtable::{fingerprint, HashTable};
use efactory::layout::object_size;
use efactory_harness::ExperimentSpec;
use efactory_obs::{Subsystem, Tracer};
use efactory_pmem::PmemPool;
use efactory_rnic::{CostModel, Fabric};
use efactory_sim::{self as sim, ExecModel, Sim};
use efactory_ycsb::{make_value, OpStream, WorkloadConfig};

/// One layer's calibrated cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cal {
    /// Median host ns per call.
    pub ns: f64,
    /// Host ns per call net of the simulation-kernel events the call
    /// schedules (already counted by the `sim` layer); equals `ns` for
    /// calls that schedule none.
    pub net_ns: f64,
    /// (Q3 − Q1) ÷ median over the samples.
    pub spread: f64,
    /// Samples taken.
    pub samples: u64,
}

/// Calibrated costs by layer name (`sim`, `rnic`, `pmem`, `checksum`,
/// `hashtable`, `ycsb`, `obs`).
#[derive(Debug, Clone, Default)]
pub struct Calibration(pub Vec<(&'static str, Cal)>);

impl Calibration {
    /// The cost for `layer`, if calibrated.
    pub fn get(&self, layer: &str) -> Option<Cal> {
        self.0.iter().find(|(l, _)| *l == layer).map(|(_, c)| *c)
    }
}

/// Quartiles (Q1, median, Q3) of `v` by linear interpolation.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        if s.is_empty() {
            return 0.0;
        }
        let pos = q * (s.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Summarize per-call ns samples.
pub fn summarize(samples: &[f64]) -> Cal {
    let (q1, med, q3) = quartiles(samples);
    Cal {
        ns: med,
        net_ns: med,
        spread: if med > 0.0 { (q3 - q1) / med } else { 0.0 },
        samples: samples.len() as u64,
    }
}

/// Sample counts for one calibration loop.
#[derive(Debug, Clone, Copy)]
pub struct Loop {
    /// Untimed batches first.
    pub warmup: usize,
    /// Timed batches.
    pub samples: usize,
    /// Calls per timed batch.
    pub batch: usize,
}

/// Time `f` per call: `warmup` untimed batches, then `samples` timed ones.
pub fn time_per_call(l: Loop, mut f: impl FnMut()) -> Cal {
    for _ in 0..l.warmup * l.batch {
        f();
    }
    let samples: Vec<f64> = (0..l.samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..l.batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / l.batch as f64
        })
        .collect();
    summarize(&samples)
}

/// `crc32c` over one value.
pub fn checksum(spec: &ExperimentSpec, l: Loop) -> Cal {
    let value = make_value(spec.value_len, 1, 1);
    time_per_call(l, || {
        black_box(efactory_checksum::crc32c(black_box(&value)));
    })
}

/// `PmemPool::write` + `persist` of one object, at rotating offsets.
pub fn pmem(spec: &ExperimentSpec, l: Loop) -> Cal {
    let obj = object_size(spec.key_len, spec.value_len);
    let slots = 4096;
    let pool = PmemPool::new(obj * slots);
    let data = make_value(obj, 2, 1);
    let mut i = 0;
    time_per_call(l, || {
        let off = (i % slots) * obj;
        i += 1;
        pool.write(off, &data);
        pool.persist(off, obj);
    })
}

/// `HashTable::lookup` of present keys in a table holding the workload's
/// records at the store's fill (4 buckets per key).
pub fn hashtable(spec: &ExperimentSpec, l: Loop) -> Cal {
    let keys = spec.record_count as usize;
    let buckets = (keys * 4).max(128);
    let pool = PmemPool::new(HashTable::region_len(buckets));
    let table = HashTable::new(0, buckets);
    let wl = workload(spec);
    let fps: Vec<u64> = (0..spec.record_count).map(|id| fingerprint(&wl.key(id))).collect();
    for &fp in &fps {
        table.lookup_or_claim(&pool, fp).expect("calibration table overflow");
    }
    let mut i = 0;
    time_per_call(l, || {
        let fp = fps[i % fps.len()];
        i += 1;
        black_box(table.lookup(&pool, fp));
    })
}

fn workload(spec: &ExperimentSpec) -> WorkloadConfig {
    WorkloadConfig {
        mix: spec.mix,
        record_count: spec.record_count,
        key_len: spec.key_len,
        value_len: spec.value_len,
        txn_keys: efactory_harness::cluster::TXN_KEYS,
    }
}

/// `OpStream::next_op` for the workload's mix, keys and values.
pub fn ycsb(spec: &ExperimentSpec, l: Loop) -> Cal {
    let mut stream = OpStream::new(workload(spec), spec.seed, 0);
    time_per_call(l, || {
        black_box(stream.next_op());
    })
}

/// `Tracer::record_span_at` into a default-capacity ring (which wraps, as
/// it does in a shipped run).
pub fn obs(l: Loop) -> Cal {
    let tracer = Tracer::new();
    let mut t = 0;
    time_per_call(l, || {
        t += 100;
        tracer.record_span_at(Subsystem::Nic, "rdma_read", t, 50, &[("bytes", 64)]);
    })
}

/// Host ns per kernel event: one simulated process sleeping in a loop.
pub fn sim(l: Loop) -> Cal {
    let one = || {
        let mut simu = Sim::with_exec(0, ExecModel::Fiber);
        let n = l.batch;
        simu.spawn("sleeper", move || {
            for _ in 0..n {
                sim::sleep(10);
            }
        });
        let t0 = Instant::now();
        simu.run().expect_ok();
        let ns = t0.elapsed().as_nanos() as f64;
        ns / simu.counters().events_dispatched.max(1) as f64
    };
    for _ in 0..l.warmup {
        one();
    }
    summarize(&(0..l.samples).map(|_| one()).collect::<Vec<_>>())
}

/// Host ns per RDMA read of one object between two nodes of a
/// micro-simulation; `net_ns` subtracts the kernel events each read
/// schedules, at `event_ns` each.
pub fn rnic(spec: &ExperimentSpec, l: Loop, event_ns: f64) -> Cal {
    let obj = object_size(spec.key_len, spec.value_len);
    let one = || {
        let mut simu = Sim::with_exec(0, ExecModel::Fiber);
        let fabric = Fabric::new(CostModel::default());
        let server = fabric.add_node("server");
        let client = fabric.add_node("client");
        let pool = Arc::new(PmemPool::new(obj * 64));
        let mr = server.register_mr(&pool, 0, obj * 64);
        let n = l.batch;
        let f = Arc::clone(&fabric);
        simu.spawn("reader", move || {
            let _listener = server.listen(&f, false);
            let qp = f.connect(&client, &server).expect("connect");
            for i in 0..n {
                black_box(qp.rdma_read(&mr, (i % 64) * obj, obj).expect("rdma read"));
            }
        });
        let t0 = Instant::now();
        simu.run().expect_ok();
        let ns = t0.elapsed().as_nanos() as f64;
        let events = simu.counters().events_dispatched as f64;
        (ns / n as f64, events / n as f64)
    };
    for _ in 0..l.warmup {
        one();
    }
    let runs: Vec<(f64, f64)> = (0..l.samples).map(|_| one()).collect();
    let mut cal = summarize(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
    let events_per_read = runs.first().map_or(0.0, |r| r.1);
    cal.net_ns = (cal.ns - events_per_read * event_ns).max(0.0);
    cal
}

/// Every layer's calibration at `spec`'s shapes. `each` wraps each loop
/// (the command records a span around it).
pub fn calibrate(
    spec: &ExperimentSpec,
    mut each: impl FnMut(&str, &mut dyn FnMut() -> Cal) -> Cal,
) -> Calibration {
    let l = |batch: usize| Loop { warmup: 2, samples: 31, batch };
    let sim_cal = each("sim", &mut || sim(l(2_000)));
    let rnic_cal = each("rnic", &mut || rnic(spec, l(500), sim_cal.ns));
    Calibration(vec![
        ("sim", sim_cal),
        ("rnic", rnic_cal),
        ("pmem", each("pmem", &mut || pmem(spec, l(1_000)))),
        ("checksum", each("checksum", &mut || checksum(spec, l(1_000)))),
        ("hashtable", each("hashtable", &mut || hashtable(spec, l(1_000)))),
        ("ycsb", each("ycsb", &mut || ycsb(spec, l(1_000)))),
        ("obs", each("obs", &mut || obs(l(1_000)))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
        let c = summarize(&[10.0, 10.0, 10.0]);
        assert_eq!((c.ns, c.spread, c.samples), (10.0, 0.0, 3));
    }

    #[test]
    fn every_layer_calibrates_to_a_positive_cost() {
        let spec = crate::workloads::spec("pipelined", 3, crate::workloads::Scale::Tiny).unwrap();
        let cal = calibrate(&spec, |_, f| f());
        assert_eq!(cal.0.len(), 7);
        for (layer, c) in &cal.0 {
            assert!(c.ns > 0.0, "{layer}: {c:?}");
            assert!(c.net_ns >= 0.0 && c.net_ns <= c.ns, "{layer}: {c:?}");
        }
    }
}
