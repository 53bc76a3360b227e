//! Additional fabric coverage: event channels, detached repliers/notifiers,
//! overlapping one-sided writes, DDIO semantics, and telemetry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use efactory_pmem::{CrashSpec, PmemPool};
use efactory_rnic::{CostModel, Fabric, Incoming, Node, QpError};
use efactory_sim as sim;
use efactory_sim::Sim;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(cost: CostModel) -> (Sim, Arc<Fabric>, Node, Node) {
    let sim = Sim::new(1);
    let fabric = Fabric::new(cost);
    let server = fabric.add_node("server");
    let client = fabric.add_node("client");
    (sim, fabric, server, client)
}

#[test]
fn notify_reaches_client_event_channel() {
    let (mut simu, fabric, server, client) = setup(CostModel::default());
    let f = Arc::clone(&fabric);
    let f2 = Arc::clone(&fabric);
    let server2 = server.clone();
    simu.spawn("server", move || {
        let l = server2.listen(&f2, true);
        // Wait for the client to connect (first message), then notify.
        let Ok(Incoming::Send { from, .. }) = l.recv() else {
            panic!("expected hello");
        };
        l.notify_all(&[0xC1]).unwrap();
        l.reply(from, vec![1]).unwrap();
    });
    simu.spawn("client", move || {
        sim::yield_now();
        let qp = f.connect(&client, &server).unwrap();
        assert!(qp.try_event().is_none(), "no event before notify");
        let _ = qp.rpc(vec![0]).unwrap();
        // The notification was sent before the reply: it must be readable.
        assert_eq!(qp.try_event(), Some(vec![0xC1]));
        assert_eq!(qp.try_event(), None);
    });
    simu.run().expect_ok();
}

#[test]
fn notifier_broadcasts_from_another_process() {
    let (mut simu, fabric, server, client) = setup(CostModel::default());
    let f = Arc::clone(&fabric);
    let f2 = Arc::clone(&fabric);
    let server2 = server.clone();
    let got = Arc::new(AtomicU64::new(0));
    let got2 = Arc::clone(&got);
    simu.spawn("server", move || {
        let l = server2.listen(&f2, true);
        let notifier = l.notifier();
        sim::spawn("broadcaster", move || {
            sim::sleep(5_000);
            notifier.notify_all(&[0x42]).unwrap();
        });
        // Keep the listener alive long enough.
        let _ = l.recv_deadline(sim::now() + 50_000);
    });
    for i in 0..3 {
        let f3 = Arc::clone(&f);
        let server3 = server.clone();
        let client3 = if i == 0 {
            client.clone()
        } else {
            f.add_node(&format!("c{i}"))
        };
        let got3 = Arc::clone(&got2);
        simu.spawn(&format!("client{i}"), move || {
            sim::yield_now();
            let qp = f3.connect(&client3, &server3).unwrap();
            sim::sleep(20_000);
            if qp.try_event() == Some(vec![0x42]) {
                got3.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    simu.run().expect_ok();
    assert_eq!(
        got.load(Ordering::Relaxed),
        3,
        "all clients must see the broadcast"
    );
}

#[test]
fn replier_sends_from_worker_process() {
    let (mut simu, fabric, server, client) = setup(CostModel::default());
    let f = Arc::clone(&fabric);
    let f2 = Arc::clone(&fabric);
    let server2 = server.clone();
    simu.spawn("server", move || {
        let l = server2.listen(&f2, true);
        let replier = l.replier();
        let (tx, rx) = sim::channel::<(efactory_rnic::QpId, Vec<u8>)>();
        sim::spawn("worker", move || {
            while let Ok((from, mut v)) = rx.recv() {
                sim::work(500); // worker-side processing
                v.push(0xFF);
                if replier.reply(from, v).is_err() {
                    return;
                }
            }
        });
        while let Ok(Incoming::Send { from, payload }) = l.recv() {
            tx.send((from, payload), 0).unwrap();
        }
    });
    simu.spawn("client", move || {
        sim::yield_now();
        let qp = f.connect(&client, &server).unwrap();
        for i in 0..5u8 {
            let resp = qp.rpc(vec![i]).unwrap();
            assert_eq!(resp, vec![i, 0xFF]);
        }
    });
    simu.run().expect_ok();
}

#[test]
fn overlapping_writes_to_disjoint_regions_land_correctly() {
    let (mut simu, fabric, server, client) = setup(CostModel::default());
    let pool = Arc::new(PmemPool::new(1 << 20));
    let mr = server.register_mr(&pool, 0, 1 << 20);
    let f = Arc::clone(&fabric);
    let f2 = Arc::clone(&fabric);
    let server2 = server.clone();
    simu.spawn("server", move || {
        let _l = server2.listen(&f2, true);
        sim::sleep(sim::millis(1));
    });
    // Two client processes writing big buffers concurrently.
    for w in 0..2usize {
        let f3 = Arc::clone(&f);
        let server3 = server.clone();
        let node = if w == 0 {
            client.clone()
        } else {
            f.add_node("client2")
        };
        simu.spawn(&format!("writer{w}"), move || {
            sim::yield_now();
            let qp = f3.connect(&node, &server3).unwrap();
            let data = vec![w as u8 + 1; 64 * 1024];
            qp.rdma_write(&mr, w * 128 * 1024, data).unwrap();
        });
    }
    simu.run().expect_ok();
    let mut a = vec![0u8; 64 * 1024];
    pool.read(0, &mut a);
    assert!(a.iter().all(|&b| b == 1));
    pool.read(128 * 1024, &mut a);
    assert!(a.iter().all(|&b| b == 2));
}

#[test]
fn ddio_off_makes_one_sided_writes_durable_on_arrival() {
    let cost = CostModel {
        ddio_enabled: false,
        ..CostModel::default()
    };
    let (mut simu, fabric, server, client) = setup(cost);
    let pool = Arc::new(PmemPool::new(1 << 16));
    let mr = server.register_mr(&pool, 0, 1 << 16);
    let pool2 = Arc::clone(&pool);
    let f = Arc::clone(&fabric);
    let f2 = Arc::clone(&fabric);
    let server2 = server.clone();
    simu.spawn("server", move || {
        let _l = server2.listen(&f2, true);
        sim::sleep(sim::millis(1));
    });
    simu.spawn("client", move || {
        sim::yield_now();
        let qp = f.connect(&client, &server).unwrap();
        qp.rdma_write(&mr, 0, vec![0x77; 4096]).unwrap();
        // With DDIO off, the DMA bypassed the cache: already persistent.
        assert!(pool2.is_persisted(0, 4096), "non-DDIO DMA must be durable");
    });
    simu.run().expect_ok();
}

#[test]
fn ddio_on_leaves_write_volatile() {
    let (mut simu, fabric, server, client) = setup(CostModel::default());
    let pool = Arc::new(PmemPool::new(1 << 16));
    let mr = server.register_mr(&pool, 0, 1 << 16);
    let pool2 = Arc::clone(&pool);
    let f = Arc::clone(&fabric);
    let f2 = Arc::clone(&fabric);
    let server2 = server.clone();
    simu.spawn("server", move || {
        let _l = server2.listen(&f2, true);
        sim::sleep(sim::millis(1));
    });
    simu.spawn("client", move || {
        sim::yield_now();
        let qp = f.connect(&client, &server).unwrap();
        qp.rdma_write(&mr, 0, vec![0x77; 4096]).unwrap();
        assert!(!pool2.is_persisted(0, 4096));
    });
    simu.run().expect_ok();
}

#[test]
fn fabric_stats_count_verbs_and_bytes() {
    let (mut simu, fabric, server, client) = setup(CostModel::default());
    let pool = Arc::new(PmemPool::new(1 << 16));
    let mr = server.register_mr(&pool, 0, 1 << 16);
    let f2 = Arc::clone(&fabric);
    let server2 = server.clone();
    simu.spawn("server", move || {
        let l = server2.listen(&f2, true);
        while let Ok(Incoming::Send { from, payload }) = l.recv() {
            if l.reply(from, payload).is_err() {
                break;
            }
        }
    });
    let f3 = Arc::clone(&fabric);
    simu.spawn("client", move || {
        sim::yield_now();
        let qp = f3.connect(&client, &server).unwrap();
        qp.rdma_write(&mr, 0, vec![0; 1000]).unwrap();
        qp.rdma_read(&mr, 0, 500).unwrap();
        qp.rpc(vec![0; 100]).unwrap();
    });
    simu.run().expect_ok();
    let stats = fabric.stats();
    assert_eq!(stats.rdma_writes.load(Ordering::Relaxed), 1);
    assert_eq!(stats.rdma_reads.load(Ordering::Relaxed), 1);
    assert_eq!(stats.sends.load(Ordering::Relaxed), 2, "request + reply");
    assert_eq!(
        stats.bytes_on_wire.load(Ordering::Relaxed),
        1000 + 500 + 100 + 100
    );
}

#[test]
fn crash_tears_multiple_inflight_writes_independently() {
    let (mut simu, fabric, server, _client) = setup(CostModel::default());
    let pool = Arc::new(PmemPool::new(1 << 20));
    let mr = server.register_mr(&pool, 0, 1 << 20);
    let f = Arc::clone(&fabric);
    let f2 = Arc::clone(&fabric);
    let server2 = server.clone();
    let server3 = server.clone();
    simu.spawn("server", move || {
        let _l = server2.listen(&f2, true);
        sim::sleep(sim::millis(10));
    });
    // Three writers with different transfer lengths, all in flight when the
    // crash hits.
    let len = 256 * 1024;
    for w in 0..3usize {
        let f3 = Arc::clone(&f);
        let server4 = server.clone();
        let mr2 = mr;
        simu.spawn(&format!("w{w}"), move || {
            let node = f3.add_node(&format!("n{w}"));
            sim::yield_now();
            let qp = f3.connect(&node, &server4).unwrap();
            let _ = qp.rdma_write(&mr2, w * 300 * 1024, vec![w as u8 + 1; len]);
        });
    }
    let fc = Arc::clone(&fabric);
    let cost = CostModel::default();
    let t_crash = cost.one_way(0) + cost.wire(len) / 3;
    simu.spawn("controller", move || {
        sim::sleep_until(t_crash);
        let mut rng = StdRng::seed_from_u64(5);
        fc.crash_node(&server3, CrashSpec::KeepAll, &mut rng);
    });
    simu.run().expect_ok();
    // Each write left a whole-line prefix of roughly a third of its bytes.
    for w in 0..3usize {
        let mut buf = vec![0u8; len];
        pool.read(w * 300 * 1024, &mut buf);
        let arrived = buf.iter().take_while(|&&b| b == w as u8 + 1).count();
        assert!(
            arrived > 0 && arrived < len,
            "writer {w}: arrived={arrived}"
        );
        assert_eq!(
            arrived % efactory_pmem::LINE,
            0,
            "writer {w}: unaligned tear"
        );
        assert!(buf[arrived..].iter().all(|&b| b == 0), "writer {w}: holes");
    }
}

#[test]
fn rpc_times_out_against_mute_server() {
    let (mut simu, fabric, server, client) = setup(CostModel::default());
    let f = Arc::clone(&fabric);
    let f2 = Arc::clone(&fabric);
    let server2 = server.clone();
    simu.spawn("server", move || {
        let l = server2.listen(&f2, true);
        // Receive but never reply.
        let _ = l.recv();
        sim::sleep(sim::millis(200));
    });
    simu.spawn("client", move || {
        sim::yield_now();
        let qp = f.connect(&client, &server).unwrap();
        let t0 = sim::now();
        assert_eq!(qp.rpc(vec![1]).unwrap_err(), QpError::Timeout);
        assert!(sim::now() - t0 >= sim::millis(100), "timeout too early");
    });
    simu.run().expect_ok();
}
