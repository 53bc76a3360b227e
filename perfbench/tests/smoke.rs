//! Tiny-scale smoke run of every workload through the same code paths the
//! benchmark command uses (in process, without the child processes), and a
//! check that `BENCHMARK.json` names exactly what the code emits.

use std::collections::BTreeMap;

use efactory_perfbench::calib::calibrate;
use efactory_perfbench::cli::{END_TO_END, PER_LAYER};
use efactory_perfbench::derive::{end_to_end, per_layer, run_checks, Metric, TracedRuns};
use efactory_perfbench::run::{run, Kind};
use efactory_perfbench::workloads::{self, spec, traced_ring_cap, Scale, NAMES};

fn names(metrics: &[Metric]) -> Vec<&str> {
    metrics.iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn every_workload_reports_every_metric_it_should() {
    let mut units = BTreeMap::new();
    for name in NAMES {
        let s = spec(name, 5, Scale::Tiny).unwrap();
        let shipped = run(&s, Kind::Shipped);
        let setup = run(&s, Kind::Setup);
        let muted = run(&s, Kind::Muted);
        let cap = traced_ring_cap(name).unwrap_or(shipped.records as usize + 1);
        let ring = run(&s, Kind::Ring(cap));
        for r in [&shipped, &muted, &ring] {
            assert_eq!(run_checks(r), Vec::<String>::new(), "{name}");
            assert!(shipped.same_virtual_run(r), "{name}: runs diverged");
        }
        assert_eq!(setup.total_ops, 0);
        assert_eq!(ring.fold.as_ref().unwrap().conservation_max_err_ns, 0, "{name}");

        let e2e = end_to_end(&s, std::slice::from_ref(&shipped), std::slice::from_ref(&setup));
        let got = names(&e2e);
        for metric in END_TO_END.iter().chain(&["put_p50_us", "put_p99_us", "all_p999_us"]) {
            assert!(got.contains(metric), "{name}: missing {metric}");
        }
        let has_gets = s.mix.read_fraction() > 0.0;
        for metric in ["get_p50_us", "get_p99_us"] {
            assert_eq!(got.contains(&metric), has_gets, "{name}: {metric}");
        }
        for m in &e2e {
            assert!(m.value.is_finite() && m.value > 0.0, "{name}: {m:?}");
        }

        let cal = calibrate(&s, |_, f| f());
        let traced = TracedRuns { shipped: &shipped, setup: &setup, muted: &muted, ring: &ring };
        let layer = per_layer(&traced, &cal);
        let got = names(&layer);
        for metric in PER_LAYER {
            assert!(got.contains(&metric), "{name}: missing {metric}");
        }
        for m in e2e.iter().chain(&layer) {
            units.insert(m.name.clone(), m.unit);
        }
        assert!(got.contains(&"client.one_sided_read_frac") == has_gets, "{name}");
        assert!(got.contains(&"client.loc_cache_hit_frac") == s.loc_cache, "{name}");
        assert!(layer.iter().all(|m| m.value.is_finite()), "{name}");
        let value = |n: &str| layer.iter().find(|m| m.name == n).unwrap().value;
        if name == "clean-churn" {
            assert!(value("cleaner.passes") > 0.0);
        } else {
            assert_eq!(value("cleaner.passes"), 0.0, "{name}");
        }
        assert_eq!(value("repl.mirror_bytes_per_put") > 0.0, s.replicas > 0, "{name}");
        assert_eq!(value("pipeline.doorbells_per_op") > 0.0, s.window > 1, "{name}");
    }

    // `BENCHMARK.json` lists exactly the metrics the JSON line carries,
    // with the units the code emits them in.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let workloads: Vec<&str> = section(&json, "workloads").iter().map(|(n, _)| *n).collect();
    assert_eq!(workloads, NAMES);
    for name in NAMES {
        assert!(json.contains(workloads::why(name)), "why of {name}");
    }
    for (key, listed) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let expected: Vec<_> = listed.iter().map(|n| (*n, Some(units[*n]))).collect();
        assert_eq!(section(&json, key), expected, "{key}");
    }
}

/// The `"name"`/`"unit"` pairs of one array section of `BENCHMARK.json`.
fn section<'a>(json: &'a str, key: &str) -> Vec<(&'a str, Option<&'a str>)> {
    let start = json.find(&format!("\"{key}\": [")).unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').unwrap()];
    let field = |obj: &'a str, f: &str| {
        let at = obj.find(&format!("\"{f}\": \""))? + f.len() + 5;
        Some(&obj[at..at + obj[at..].find('"')?])
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name").unwrap(), field(obj, "unit"))).collect()
}
