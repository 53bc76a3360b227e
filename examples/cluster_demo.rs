//! Cluster demo: multi-node placement, node death + recovery, and a live
//! shard migration under client load.
//!
//! A [`Cluster`] places shards round-robin across data nodes and runs a
//! 3-replica metadata service (leader-based, replicating one versioned
//! state over the same fabric) that owns the placement map. This demo:
//!
//! 1. seeds keys through a [`RoutedClient`] that routes by the
//!    epoch-tagged placement map;
//! 2. power-fails a data node, waits for the death detector to commit
//!    `NodeDown`, then restarts it and recovers its shards from NVM;
//! 3. live-migrates shard 0 to the other node while a background writer
//!    keeps the cluster under load — live copy, seal + drain, a fixup
//!    pass over what changed since the copy, then an epoch-bumped router
//!    flip. Clients retarget on `WrongEpoch`; the destination's bytes
//!    verify identical to a stop-the-world copy.
//!
//! Run with: `cargo run --release --example cluster_demo`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use efactory::client::ClientConfig;
use efactory::cluster::{Cluster, ClusterConfig, MetaClient};
use efactory::log::StoreLayout;
use efactory::route::RoutedClient;
use efactory::server::ServerConfig;
use efactory_pmem::CrashSpec;
use efactory_rnic::{CostModel, Fabric};
use efactory_sim as sim;
use efactory_sim::Sim;

const KEYS: usize = 32;

fn key(i: usize) -> Vec<u8> {
    format!("user{i:04}").into_bytes()
}

fn connect(cluster: &Cluster, name: &str) -> RoutedClient {
    RoutedClient::connect(
        cluster.fabric(),
        &cluster.fabric().add_node(name),
        &cluster.desc(),
        ClientConfig::default(),
    )
    .expect("cluster client connect")
}

fn main() {
    let mut simulation = Sim::new(42);
    let fabric = Fabric::new(CostModel::default());
    let cluster = Arc::new(Cluster::format(
        &fabric,
        ClusterConfig::new(
            2,
            2,
            StoreLayout::new(512, 512 * 1024, false),
            ServerConfig::default(),
        ),
    ));

    let c = Arc::clone(&cluster);
    simulation.spawn("demo", move || {
        c.start();
        sim::sleep(sim::millis(1));

        // Phase 1: seed through the placement-routed client.
        let client = connect(&c, "client");
        for i in 0..KEYS {
            client
                .put(&key(i), format!("value-{i}").as_bytes())
                .expect("put");
            client.get(&key(i)).expect("get").expect("hit");
        }
        println!(
            "[{:>9} ns] {KEYS} keys seeded; shard owners: {:?}",
            sim::now(),
            (0..2).map(|g| c.owner_of(g)).collect::<Vec<_>>(),
        );

        // Phase 2: power-fail node 1, let the death detector commit
        // NodeDown, restart, recover from NVM.
        c.crash_data_node(1, CrashSpec::DropAll, 7);
        let probe = c.fabric().add_node("probe");
        let mut mc = MetaClient::new(c.fabric(), &probe, c.meta_nodes());
        while mc
            .get_map(sim::now() + sim::micros(500))
            .is_none_or(|s| s.alive[1])
        {
            sim::sleep(sim::micros(100));
        }
        println!(
            "[{:>9} ns] node 1 power-failed; death detector fired",
            sim::now()
        );
        let reports = c.restart_data_node(1);
        println!(
            "[{:>9} ns] node 1 restarted; {} shard(s) recovered from NVM",
            sim::now(),
            reports.len(),
        );
        while mc
            .get_map(sim::now() + sim::micros(500))
            .is_none_or(|s| !s.alive[1])
        {
            sim::sleep(sim::micros(100));
        }

        // Phase 3: live-migrate shard 0 under load.
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let c2 = Arc::clone(&c);
        let writer = sim::spawn("writer", move || {
            let w = connect(&c2, "writer");
            let mut ver = 0u64;
            while !stop2.load(Ordering::Relaxed) {
                for i in 0..4 {
                    w.put(&key(i), format!("value-{i}-v{ver}").as_bytes())
                        .expect("put");
                }
                ver += 1;
                sim::sleep(sim::micros(10));
            }
        });
        let from = c.owner_of(0);
        let to = 1 - from;
        println!(
            "[{:>9} ns] live-migrating shard 0: node {from} -> node {to} (writer active)",
            sim::now()
        );
        let report = c.migrate(0, to).expect("live migration");
        stop.store(true, Ordering::Relaxed);
        writer.join();
        assert_eq!(c.owner_of(0), to);
        assert_eq!(
            report.verify_diff_bytes, 0,
            "destination must be byte-identical to a stop-the-world copy"
        );
        println!(
            "[{:>9} ns] migration committed at epoch {}: {} snapshot bytes, \
             {} fixup bytes, {} ns sealed, verify diff 0",
            sim::now(),
            report.epoch,
            report.snapshot_bytes,
            report.fixup_bytes,
            report.sealed_ns,
        );

        // Every key reads back through the new placement; the stale
        // client retargets on WrongEpoch.
        for i in 0..KEYS {
            let got = client
                .get(&key(i))
                .expect("get")
                .expect("key survived the move");
            assert!(got.starts_with(b"value-"));
        }
        println!(
            "[{:>9} ns] all keys served post-move; client retargets: {}, \
             placement refreshes: {}",
            sim::now(),
            c.stats().client_retargets.get(),
            c.stats().client_refreshes.get(),
        );
        c.shutdown();
    });
    simulation.run().expect_ok();
    println!("done.");
}
