//! Sharding is transparent: the router is deterministic and total, and a
//! [`ShardedServer`] behind it is byte-for-byte equivalent to a single
//! unsharded [`Server`] on any failure-free op sequence.
//!
//! Two layers of evidence:
//!
//! * property tests over the router itself — every key maps to exactly one
//!   shard, the same one on every call, for every shard count;
//! * replay equivalence — the same seeded PUT/GET/DEL sequence through an
//!   unsharded server and through `ShardedServer` at every shard count in
//!   the acceptance sweep produces identical read results and an identical
//!   final KV image, doorbell batching on or off.
//!
//! The shard counts exercised by the replay tests honor `EF_TEST_SHARDS`
//! (comma-separated, default `1,2,4,8`) so CI can matrix over counts.

use std::sync::{Arc, Mutex};

use efactory::client::{Client, ClientConfig};
use efactory::log::StoreLayout;
use efactory::route::RoutedClient;
use efactory::server::{Server, ServerConfig};
use efactory::shard::{shard_of, ShardedServer};
use efactory_rnic::{CostModel, Fabric};
use efactory_sim::Sim;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shard counts under test: `EF_TEST_SHARDS` env (comma-separated) or the
/// acceptance sweep's default.
fn shard_counts() -> Vec<usize> {
    match std::env::var("EF_TEST_SHARDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("EF_TEST_SHARDS: bad count"))
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    }
}

// ---------------------------------------------------------------- routing

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn routing_is_deterministic_and_total(
        key in proptest::collection::vec(any::<u8>(), 0..48),
        shards in 1usize..=16,
    ) {
        let s = shard_of(&key, shards);
        prop_assert!(s < shards, "shard {} out of range for {}", s, shards);
        // Pure function of the bytes: a second call and a cloned buffer
        // agree (every client, every connection routes identically).
        prop_assert_eq!(s, shard_of(&key, shards));
        prop_assert_eq!(s, shard_of(&key.clone(), shards));
    }
}

#[test]
fn routing_is_stable_across_shard_table_sizes() {
    // shards == 1 must be the identity partition, and the router must not
    // depend on anything but (key, shards): recomputing the whole table in
    // a different order yields the same assignment.
    let keys: Vec<Vec<u8>> = (0..200u32)
        .map(|i| format!("user{i:010}").into_bytes())
        .collect();
    for k in &keys {
        assert_eq!(shard_of(k, 1), 0);
    }
    for shards in [2usize, 3, 4, 8] {
        let fwd: Vec<usize> = keys.iter().map(|k| shard_of(k, shards)).collect();
        let rev: Vec<usize> = keys.iter().rev().map(|k| shard_of(k, shards)).collect();
        assert_eq!(fwd, rev.into_iter().rev().collect::<Vec<_>>());
    }
}

// ------------------------------------------------------------ equivalence

#[derive(Clone, Debug)]
enum KvOp {
    Put(u8, u32),
    Get(u8),
    Del(u8),
}

const KEYS: u8 = 24;

fn key_bytes(k: u8) -> Vec<u8> {
    format!("eq-key-{k:02}").into_bytes()
}

fn value_bytes(k: u8, ver: u32) -> Vec<u8> {
    let mut v = format!("k{k:02}v{ver:06}").into_bytes();
    v.resize(120, b'a' + (k % 26));
    v
}

/// A seeded op sequence shared verbatim by every system under comparison.
fn op_sequence(seed: u64, n: usize) -> Vec<KvOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vers = [0u32; KEYS as usize];
    (0..n)
        .map(|_| {
            let k = rng.gen_range(0..KEYS);
            match rng.gen_range(0..10) {
                0..=4 => {
                    vers[k as usize] += 1;
                    KvOp::Put(k, vers[k as usize])
                }
                5..=7 => KvOp::Get(k),
                _ => KvOp::Del(k),
            }
        })
        .collect()
}

/// Everything a replay observes: each GET's bytes in sequence order, then
/// one final GET per key (the recovered KV image).
type ReadLog = Vec<Option<Vec<u8>>>;

trait KvOps {
    fn op_put(&self, key: &[u8], value: &[u8]);
    fn op_get(&self, key: &[u8]) -> Option<Vec<u8>>;
    fn op_del(&self, key: &[u8]);
}

impl KvOps for Client {
    fn op_put(&self, key: &[u8], value: &[u8]) {
        self.put(key, value).unwrap()
    }
    fn op_get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.get(key).unwrap()
    }
    fn op_del(&self, key: &[u8]) {
        self.del(key).unwrap()
    }
}

impl KvOps for RoutedClient {
    fn op_put(&self, key: &[u8], value: &[u8]) {
        self.put(key, value).unwrap()
    }
    fn op_get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.get(key).unwrap()
    }
    fn op_del(&self, key: &[u8]) {
        self.del(key).unwrap()
    }
}

fn drive(kv: &dyn KvOps, ops: &[KvOp]) -> ReadLog {
    let mut log = Vec::new();
    for op in ops {
        match *op {
            KvOp::Put(k, ver) => kv.op_put(&key_bytes(k), &value_bytes(k, ver)),
            KvOp::Get(k) => log.push(kv.op_get(&key_bytes(k))),
            KvOp::Del(k) => kv.op_del(&key_bytes(k)),
        }
    }
    for k in 0..KEYS {
        log.push(kv.op_get(&key_bytes(k)));
    }
    log
}

/// Replay `ops` through a plain unsharded [`Server`].
fn replay_single(seed: u64, ops: Vec<KvOp>) -> ReadLog {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let server_node = fabric.add_node("server");
    let out: Arc<Mutex<ReadLog>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        let server = Server::format(
            &f,
            &server_node,
            StoreLayout::new(256, 1 << 20, true),
            ServerConfig::default(),
        );
        server.start(&f);
        let c = Client::connect(
            &f,
            &f.add_node("c"),
            &server_node,
            server.desc(),
            ClientConfig::default(),
        )
        .unwrap();
        *out2.lock().unwrap() = drive(&c, &ops);
        server.shutdown();
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().clone();
    v
}

/// Replay `ops` through a [`ShardedServer`] at `shards` shards.
fn replay_sharded(seed: u64, ops: Vec<KvOp>, shards: usize, doorbell: usize) -> ReadLog {
    let mut simu = Sim::new(seed);
    let fabric = Fabric::new(CostModel::default());
    let out: Arc<Mutex<ReadLog>> = Arc::default();
    let out2 = Arc::clone(&out);
    let f = Arc::clone(&fabric);
    simu.spawn("main", move || {
        let server = ShardedServer::format(
            &f,
            "server",
            StoreLayout::new(256, 1 << 20, true),
            ServerConfig {
                doorbell_batch: doorbell,
                ..ServerConfig::default()
            },
            shards,
            0,
        );
        server.start(&f);
        let c = RoutedClient::connect(
            &f,
            &f.add_node("c"),
            &server.desc(),
            ClientConfig::default(),
        )
        .unwrap();
        *out2.lock().unwrap() = drive(&c, &ops);
        server.shutdown();
    });
    simu.run().expect_ok();
    let v = out.lock().unwrap().clone();
    v
}

#[test]
fn sharded_store_is_byte_identical_to_single_server() {
    let ops = op_sequence(42, 400);
    let reference = replay_single(42, ops.clone());
    assert!(!reference.is_empty());
    for shards in shard_counts() {
        for doorbell in [0usize, 16] {
            let got = replay_sharded(42, ops.clone(), shards, doorbell);
            assert_eq!(
                got.len(),
                reference.len(),
                "{shards} shards (doorbell {doorbell}): op count diverged"
            );
            for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(
                    r, g,
                    "{shards} shards (doorbell {doorbell}): read {i} diverged"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn random_sequences_agree_across_shard_counts(
        seed in any::<u64>(),
        n in 50usize..200,
    ) {
        let ops = op_sequence(seed, n);
        let reference = replay_single(seed, ops.clone());
        for shards in shard_counts() {
            let got = replay_sharded(seed, ops.clone(), shards, 16);
            prop_assert_eq!(&reference, &got, "{} shards diverged (seed {})", shards, seed);
        }
    }
}
