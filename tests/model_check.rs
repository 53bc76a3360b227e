//! Model checking: random operation sequences against an in-memory
//! reference model.
//!
//! With a single client, every system is sequential, so the store must
//! behave exactly like a `HashMap` (linearizability degenerates to
//! sequential consistency). With concurrent clients on eFactory, each key
//! must always read as *some* value written for it (and the final value as
//! the last write of whoever wrote last, which the deterministic sim makes
//! well-defined per seed — we check membership, the stronger per-op
//! property).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use efactory::client::{Client, ClientConfig, RemoteKv};
use efactory::log::StoreLayout;
use efactory::server::{Server, ServerConfig};
use efactory_baselines::common::baseline_layout;
use efactory_baselines::{BaselineClient, BaselineServer, Scheme};
use efactory_rnic::{CostModel, Fabric};
use efactory_sim::Sim;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random single-client op sequence.
#[derive(Debug, Clone)]
enum ModelOp {
    Put(u8, Vec<u8>),
    Get(u8),
    Del(u8),
}

fn op_strategy() -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(k, v)| ModelOp::Put(k % 16, v)),
        any::<u8>().prop_map(|k| ModelOp::Get(k % 16)),
        any::<u8>().prop_map(|k| ModelOp::Del(k % 16)),
    ]
}

fn key_bytes(k: u8) -> Vec<u8> {
    format!("model-key-{k:03}").into_bytes()
}

/// Drive a single-client op sequence through eFactory and compare every GET
/// against the model.
fn check_efactory_against_model(ops: Vec<ModelOp>, seed: u64) {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::zero());
    let server_node = fabric.add_node("server");
    let layout = StoreLayout::new(256, 1 << 20, true);
    let server = Server::format(&fabric, &server_node, layout, ServerConfig::default());
    let f = Arc::clone(&fabric);
    let failure: Arc<Mutex<Option<String>>> = Arc::default();
    let failure2 = Arc::clone(&failure);
    simu.spawn("main", move || {
        server.start(&f);
        let cnode = f.add_node("client");
        let c = Client::connect(
            &f,
            &cnode,
            &server_node,
            server.desc(),
            ClientConfig::default(),
        )
        .unwrap();
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                ModelOp::Put(k, v) => {
                    c.put(&key_bytes(*k), v).unwrap();
                    model.insert(key_bytes(*k), v.clone());
                }
                ModelOp::Del(k) => {
                    c.del(&key_bytes(*k)).unwrap();
                    model.remove(&key_bytes(*k));
                }
                ModelOp::Get(k) => {
                    let got = c.get(&key_bytes(*k)).unwrap();
                    let want = model.get(&key_bytes(*k)).cloned();
                    if got != want {
                        *failure2.lock().unwrap() =
                            Some(format!("op {i}: key {k}: got {got:?}, want {want:?}"));
                        break;
                    }
                }
            }
        }
        server.shutdown();
    });
    simu.run().expect_ok();
    let diverged = failure.lock().unwrap().take();
    if let Some(msg) = diverged {
        panic!("model divergence: {msg}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn efactory_matches_hashmap_model(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        seed in any::<u64>(),
    ) {
        check_efactory_against_model(ops, seed);
    }
}

/// The same sequential-model property for a baseline scheme (fixed random
/// sequences; baselines lack DELETE so only PUT/GET).
fn check_baseline_against_model(scheme: Scheme) {
    for seed in 0..4u64 {
        let mut simu = Sim::new(seed);
        let fabric = Fabric::new(CostModel::zero());
        let server_node = fabric.add_node("server");
        let f = Arc::clone(&fabric);
        simu.spawn("main", move || {
            let layout = baseline_layout(256, 1 << 20);
            let srv = BaselineServer::format(scheme, &f, &server_node, layout);
            srv.start(&f);
            let cnode = f.add_node("client");
            let c = BaselineClient::connect(scheme, &f, &cnode, &server_node, srv.desc()).unwrap();
            let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
            let mut rng = StdRng::seed_from_u64(seed * 1000 + 1);
            for _ in 0..120 {
                let k = key_bytes(rng.gen_range(0..12u8));
                if rng.gen_bool(0.5) {
                    let v: Vec<u8> = (0..rng.gen_range(0..48)).map(|_| rng.gen()).collect();
                    c.kv_put(&k, &v).unwrap();
                    model.insert(k, v);
                } else {
                    assert_eq!(
                        c.kv_get(&k).unwrap(),
                        model.get(&k).cloned(),
                        "{scheme:?} seed {seed}"
                    );
                }
            }
            srv.shutdown();
        });
        simu.run().expect_ok();
    }
}

#[test]
fn saw_matches_model() {
    check_baseline_against_model(Scheme::Saw);
}

#[test]
fn imm_matches_model() {
    check_baseline_against_model(Scheme::Imm);
}

#[test]
fn erda_matches_model() {
    check_baseline_against_model(Scheme::Erda);
}

#[test]
fn forca_matches_model() {
    check_baseline_against_model(Scheme::Forca);
}

#[test]
fn ca_noper_matches_model() {
    check_baseline_against_model(Scheme::CaNoper);
}

#[test]
fn rpc_matches_model() {
    check_baseline_against_model(Scheme::Rpc);
}

/// Concurrent eFactory clients over a shared keyspace: every GET must
/// return a value some client wrote for that key (or None before any
/// write), and nothing ever errors.
#[test]
fn concurrent_clients_read_only_written_values() {
    for seed in 0..3u64 {
        let mut simu = Sim::new(seed);
        let fabric = Fabric::new(CostModel::default());
        let server_node = fabric.add_node("server");
        let layout = StoreLayout::new(512, 4 << 20, true);
        let server = Server::format(&fabric, &server_node, layout, ServerConfig::default());
        let f = Arc::clone(&fabric);
        simu.spawn("main", move || {
            server.start(&f);
            let mut handles = Vec::new();
            for w in 0..4u64 {
                let f2 = Arc::clone(&f);
                let sn = server_node.clone();
                let desc = server.desc();
                handles.push(efactory_sim::spawn(&format!("w{w}"), move || {
                    let cn = f2.add_node(&format!("cn{w}"));
                    let c = Client::connect(&f2, &cn, &sn, desc, ClientConfig::default()).unwrap();
                    let mut rng = StdRng::seed_from_u64(seed * 31 + w);
                    for i in 0..80 {
                        let k = key_bytes(rng.gen_range(0..8u8));
                        if rng.gen_bool(0.5) {
                            // Values are tagged so readers can validate
                            // provenance: "w{writer}-{key:?}-{i}".
                            let v = format!("w{w}-i{i}");
                            c.put(&k, v.as_bytes()).unwrap();
                        } else if let Some(v) = c.get(&k).unwrap() {
                            let s = String::from_utf8(v).expect("utf8 value");
                            assert!(
                                s.starts_with('w') && s.contains("-i"),
                                "seed {seed}: garbage value {s:?}"
                            );
                        }
                    }
                }));
            }
            for h in &handles {
                h.join();
            }
            server.shutdown();
        });
        simu.run().expect_ok();
    }
}
