//! The experiment driver: build a cluster for any of the paper's six
//! systems inside one deterministic simulation, run a YCSB workload with N
//! closed-loop clients, and report latency/throughput in virtual time.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use efactory::client::{ClientConfig, RemoteKv};
use efactory::cluster::{Cluster, ClusterConfig};
use efactory::log::StoreLayout;
use efactory::pipeline::{OpCompletion, OpKind, PipelineConfig, PipelinedClient};
use efactory::protocol::{Status, StoreError};
use efactory::route::{RouteDesc, RoutedClient};
use efactory::server::{CleanPhase, ServerConfig, ServerShared, ServerStats, StoreDesc};
use efactory::shard::ShardedServer;
use efactory::TxnKv;
use efactory_baselines::{BaselineClient, BaselineServer, Scheme};
use efactory_obs::{Breakdown, FoldConfig, Obs, Subsystem};
use efactory_rnic::{CostModel, Fabric, FaultPlan, Node};
use efactory_sim as sim;
use efactory_sim::{Nanos, Sim};
use efactory_ycsb::{make_value, Mix, Op, OpStream, WorkloadConfig};

use crate::stats::LatencyStats;

/// The systems under comparison (paper §5.3 + the factor-analysis variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum SystemKind {
    /// The paper's contribution.
    EFactory,
    /// eFactory with the hybrid read disabled (always RPC+RDMA read).
    EFactoryNoHr,
    /// Send-after-write.
    Saw,
    /// write_with_imm.
    Imm,
    /// Erda (client-side CRC).
    Erda,
    /// Forca (server-side CRC on reads).
    Forca,
    /// Client-active without persistence (Figure 1 baseline).
    CaNoper,
    /// Plain RPC store (Figure 1 baseline).
    Rpc,
}

impl SystemKind {
    /// Label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::EFactory => "eFactory",
            SystemKind::EFactoryNoHr => "eFactory w/o hr",
            SystemKind::Saw => "SAW",
            SystemKind::Imm => "IMM",
            SystemKind::Erda => "Erda",
            SystemKind::Forca => "Forca",
            SystemKind::CaNoper => "CA w/o persistence",
            SystemKind::Rpc => "RPC",
        }
    }

    /// The six systems of Figures 9/10, in the paper's legend order.
    pub fn comparison() -> [SystemKind; 6] {
        [
            SystemKind::EFactory,
            SystemKind::EFactoryNoHr,
            SystemKind::Saw,
            SystemKind::Imm,
            SystemKind::Erda,
            SystemKind::Forca,
        ]
    }

    /// The comparison scheme this system runs, or `None` for eFactory.
    pub fn scheme(self) -> Option<Scheme> {
        match self {
            SystemKind::EFactory | SystemKind::EFactoryNoHr => None,
            SystemKind::Saw => Some(Scheme::Saw),
            SystemKind::Imm => Some(Scheme::Imm),
            SystemKind::Erda => Some(Scheme::Erda),
            SystemKind::Forca => Some(Scheme::Forca),
            SystemKind::CaNoper => Some(Scheme::CaNoper),
            SystemKind::Rpc => Some(Scheme::Rpc),
        }
    }
}

/// Log-cleaning configuration for eFactory runs.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub enum Cleaning {
    /// Single pool sized for the whole workload; no cleaner process.
    Disabled,
    /// Dual pools of `pool_len` bytes each; clean at `threshold` fill.
    Enabled {
        /// Fill fraction that triggers cleaning.
        threshold: f64,
        /// Per-pool capacity in bytes.
        pool_len: usize,
    },
}

/// One experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// System under test.
    pub system: SystemKind,
    /// Operation mix.
    pub mix: Mix,
    /// Value size in bytes.
    pub value_len: usize,
    /// Key size in bytes (the paper uses 32).
    pub key_len: usize,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Measured operations per client.
    pub ops_per_client: usize,
    /// Distinct keys (preloaded before measurement).
    pub record_count: u64,
    /// Deterministic seed.
    pub seed: u64,
    /// Cleaning mode (eFactory only; baselines never clean).
    pub cleaning: Cleaning,
    /// Force one cleaning pass right as measurement starts (Figure 11:
    /// latency *during* cleaning). Requires `Cleaning::Enabled`.
    pub force_clean: bool,
    /// Shard count (eFactory only; baselines require 1). With more than
    /// one shard the key space is hash-partitioned across independent
    /// servers, each on its own node with its own verifier and cleaner;
    /// one routed client per workload process talks to all of them.
    pub shards: usize,
    /// Doorbell batch length for recv-ring refills and verifier flush
    /// fences (eFactory only; 0 = flat per-message charging).
    pub doorbell_batch: usize,
    /// Backup replicas per shard (eFactory only; 0 = unreplicated, 1 =
    /// primary–backup mirroring with one backup node per shard). Composes
    /// with shards, any pipeline window, and `Cleaning::Enabled` (the
    /// backup indexes mirrored objects by content, so relocation is
    /// transparent to it). Not combinable with `nodes > 1`: cluster shards
    /// survive node death by restart + recovery instead.
    pub replicas: usize,
    /// Fault injection: power-fail every shard's primary this many virtual
    /// nanoseconds after the measurement window opens. Requires
    /// `replicas > 0`; clients ride through via transparent failover.
    pub fault_at: Option<Nanos>,
    /// Fault injection: a lossy-fabric plan installed as the default for
    /// every link (message drop/duplicate/delay — see
    /// [`efactory_rnic::FaultPlan`]). Clients ride through via RPC
    /// deadlines + idempotent retry; the stalls are part of the measured
    /// latency. `None` = perfect fabric.
    pub fault_plan: Option<FaultPlan>,
    /// Run the background CRC scrubber on every eFactory server
    /// (repairs/quarantines bit-rotted objects — see [`efactory::scrub`]).
    pub scrub: bool,
    /// Pipeline window per client: each client keeps up to this many
    /// operations in flight through [`efactory::PipelinedClient`] (one
    /// routed client per slot, per-key hazards, doorbell-batched send
    /// posts). `1` (the default) drives the serial routed client. Above 1
    /// it composes with any shard count, replicas and nodes (eFactory only;
    /// mixes with snapshot-read ops need `1` — use `snap_readers`).
    pub window: usize,
    /// Enable the client-side location cache (key → object offset), so
    /// repeat GETs skip the bucket-probe RDMA read (eFactory only).
    pub loc_cache: bool,
    /// Background snapshot-reader processes running for the whole
    /// measurement window: each captures an MVCC snapshot, reads a handful
    /// of keys under it, and repeats until the workload clients finish.
    /// Used to measure snapshot/writer interference (eFactory only). With
    /// `Cleaning::Enabled` a pool swap expires open snapshots; readers
    /// re-capture on `Status::Expired`.
    pub snap_readers: usize,
    /// Data nodes hosting the shards. `1` (the default) runs the
    /// single-machine store; above 1 the run builds an
    /// [`efactory::cluster::Cluster`] — shards placed round-robin across
    /// nodes, a 3-replica metadata service, and clients that retarget on
    /// placement changes. Composes with any shard count and pipeline window
    /// (eFactory only; `replicas` must be 0).
    pub nodes: usize,
    /// Live-migrate shard 0 to the next node (`(owner + 1) % nodes`)
    /// this many virtual nanoseconds after the measurement window opens,
    /// while the measured workload keeps flowing. Requires `nodes > 1`.
    pub migrate_at: Option<Nanos>,
    /// Simulation executor override (`None` = the process default, i.e.
    /// `EF_SIM_EXEC` or fibers). Used by the equivalence tests and the
    /// `sim` bench baseline to pin a backend per run. Deliberately
    /// excluded from report params: both backends produce byte-identical
    /// reports, and stamping the executor would break that check.
    pub exec: Option<efactory_sim::ExecModel>,
}

/// Keys per multi-key transaction (and per snapshot read) in the
/// transactional mixes — the YCSB-T write-set width.
pub const TXN_KEYS: usize = 4;

impl ExperimentSpec {
    /// A paper-flavored spec: 32-byte keys, 4 K records, 8 clients.
    pub fn paper(system: SystemKind, mix: Mix, value_len: usize) -> ExperimentSpec {
        ExperimentSpec {
            system,
            mix,
            value_len,
            key_len: 32,
            clients: 8,
            ops_per_client: 2_000,
            record_count: 4_096,
            seed: 42,
            cleaning: Cleaning::Disabled,
            force_clean: false,
            shards: 1,
            doorbell_batch: 0,
            replicas: 0,
            fault_at: None,
            fault_plan: None,
            scrub: false,
            window: 1,
            loc_cache: false,
            snap_readers: 0,
            nodes: 1,
            migrate_at: None,
            exec: None,
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RunResult {
    /// System label.
    pub system: &'static str,
    /// Measured operations (across all clients).
    pub total_ops: u64,
    /// Virtual time of the measurement window.
    pub elapsed_ns: Nanos,
    /// Throughput in million operations per virtual second.
    pub mops: f64,
    /// GET latencies.
    pub get: LatencyStats,
    /// PUT latencies.
    pub put: LatencyStats,
    /// All-op latencies (Figure 11 plots the combined average).
    pub all: LatencyStats,
    /// Server-side RPC GETs (eFactory: the fallback count).
    pub server_rpc_gets: u64,
    /// Objects persisted by the background verifier (eFactory).
    pub bg_verified: u64,
    /// Log cleanings completed (eFactory).
    pub cleanings: u64,
    /// Seed the run was driven by (determinism provenance).
    pub seed: u64,
    /// End-of-run metric registry snapshot, sorted by name
    /// (`server.*`, `pmem.*`, `fabric.*`).
    pub counters: Vec<(String, u64)>,
    /// Per-op critical-path breakdown folded from the trace over the
    /// measurement window (None when the trace captured no attributed
    /// ops — e.g. baseline systems that don't emit `"op"` root spans).
    /// Serialized separately by the report writer, not via serde.
    pub breakdown: Option<Breakdown>,
}

#[derive(Default)]
struct Collected {
    get: Vec<Nanos>,
    put: Vec<Nanos>,
    end: Nanos,
}

/// Connection info handed to clients.
#[derive(Clone)]
enum AnyDesc {
    /// A baseline server: its node and descriptor.
    Baseline(Node, StoreDesc),
    /// Any eFactory topology.
    Ef(RouteDesc),
}

// One AnyServer exists per run and lives behind an Arc; the size gap from
// the cluster variant's seat tables is irrelevant.
#[allow(clippy::large_enum_variant)]
enum AnyServer {
    /// Single-machine eFactory store: shards, each optionally replicated.
    Ef(ShardedServer),
    /// Multi-node eFactory cluster.
    EfCluster(Cluster),
    /// One of the comparison systems.
    Baseline(BaselineServer),
}

impl AnyServer {
    fn desc(&self) -> AnyDesc {
        match self {
            AnyServer::Ef(s) => AnyDesc::Ef(s.desc()),
            AnyServer::EfCluster(c) => AnyDesc::Ef(c.desc()),
            AnyServer::Baseline(s) => AnyDesc::Baseline(s.base().node.clone(), s.desc()),
        }
    }

    fn start(&self, fabric: &Arc<Fabric>) {
        match self {
            AnyServer::Ef(s) => s.start(fabric),
            AnyServer::EfCluster(c) => c.start(),
            AnyServer::Baseline(s) => s.start(fabric),
        }
    }

    fn shutdown(&self) {
        match self {
            AnyServer::Ef(s) => s.shutdown(),
            AnyServer::EfCluster(c) => c.shutdown(),
            AnyServer::Baseline(s) => s.shutdown(),
        }
    }

    /// Sum a server counter across shards (a baseline is one shard).
    fn stat_sum(&self, pick: impl Fn(&ServerStats) -> &efactory_obs::Counter) -> u64 {
        match self {
            AnyServer::Ef(s) => s.stat_sum(pick),
            AnyServer::EfCluster(c) => c.stat_sum(pick),
            AnyServer::Baseline(s) => pick(&s.base().stats).get(),
        }
    }

    /// Every eFactory shard's (primary) shared state.
    fn ef_shared(&self) -> Vec<Arc<ServerShared>> {
        match self {
            AnyServer::Ef(s) => s.shared_all().into_iter().map(Arc::clone).collect(),
            AnyServer::EfCluster(c) => (0..c.config().shards).map(|g| c.shard_shared(g)).collect(),
            _ => Vec::new(),
        }
    }

    /// Attach a baseline's server + pool counters and the pmem tracer to
    /// the run's observability context. eFactory stores register theirs
    /// where each server and pool is created, through `cfg.obs`.
    fn attach_obs(&self, obs: &Obs) {
        if let AnyServer::Baseline(s) = self {
            let base = s.base();
            base.stats.register(&obs.registry);
            base.pool.attach_obs(obs, "");
        }
    }
}

fn build_server(
    fabric: &Arc<Fabric>,
    spec: &ExperimentSpec,
    obs: &Obs,
    cfg_tweak: Option<&(dyn Fn(&mut ServerConfig) + Send + Sync)>,
) -> AnyServer {
    // Size the store to hold preload + every measured PUT with slack. A
    // transactional write op stages `TXN_KEYS` objects plus one (smaller)
    // commit record, so count it as `TXN_KEYS + 1` puts.
    let write_frac = (1.0 - spec.mix.read_fraction() - spec.mix.snap_fraction()).max(0.0);
    let puts_per_write = if spec.mix.transactional() {
        (TXN_KEYS + 1) as f64
    } else {
        1.0
    };
    let total_puts = ((spec.clients * spec.ops_per_client) as f64 * write_frac * puts_per_write)
        .ceil() as usize
        + 16;
    let sized = StoreLayout::for_workload(
        spec.record_count as usize,
        total_puts,
        spec.key_len,
        spec.value_len,
        1.3,
        false,
    );
    if let Some(scheme) = spec.system.scheme() {
        let node = fabric.add_node("server");
        return AnyServer::Baseline(BaselineServer::format(scheme, fabric, &node, sized));
    }
    let (layout, mut cfg) = match spec.cleaning {
        Cleaning::Disabled => (
            sized,
            ServerConfig {
                clean_enabled: false,
                ..ServerConfig::default()
            },
        ),
        Cleaning::Enabled {
            threshold,
            pool_len,
        } => (
            StoreLayout::new((spec.record_count as usize * 4).max(1024), pool_len, true),
            ServerConfig {
                clean_enabled: true,
                clean_threshold: threshold,
                ..ServerConfig::default()
            },
        ),
    };
    cfg.obs = obs.clone();
    cfg.doorbell_batch = spec.doorbell_batch;
    cfg.scrub_enabled = spec.scrub;
    if let Some(tweak) = cfg_tweak {
        tweak(&mut cfg);
    }
    if spec.nodes > 1 {
        let ccfg = ClusterConfig::new(spec.nodes, spec.shards, layout, cfg);
        return AnyServer::EfCluster(Cluster::format(fabric, ccfg));
    }
    // Each shard keeps the full-workload layout: the router spreads keys,
    // but Zipf skew makes the hottest shard's share unpredictable, and
    // simulated bytes are cheap.
    AnyServer::Ef(ShardedServer::format(
        fabric,
        "server",
        layout,
        cfg,
        spec.shards,
        spec.replicas,
    ))
}

/// Reject every combination the harness cannot run, up front, with one
/// message each.
fn check_supported(spec: &ExperimentSpec) {
    let system = spec.system;
    if system.scheme().is_some() {
        assert_eq!(spec.shards, 1, "{system:?} does not support sharding");
        assert_eq!(spec.nodes, 1, "{system:?} does not support multi-node");
        assert_eq!(spec.replicas, 0, "{system:?} does not support replication");
        assert_eq!(
            spec.window, 1,
            "{system:?} does not support a pipelined client"
        );
        assert!(
            !spec.mix.transactional() && spec.snap_readers == 0,
            "transactional/snapshot workloads require eFactory"
        );
    }
    assert!(spec.shards >= 1, "a store has at least one shard");
    assert!(spec.nodes >= 1, "a store runs on at least one node");
    assert!(spec.window >= 1, "pipeline window must be at least 1");
    assert!(
        spec.replicas <= 1,
        "primary–backup replication supports exactly one backup per shard"
    );
    assert!(
        spec.replicas == 0 || spec.nodes == 1,
        "replicas > 0 with nodes > 1 is not supported: cluster shards have no backups"
    );
    assert!(
        spec.fault_at.is_none() || spec.replicas > 0,
        "fault_at requires replicas > 0"
    );
    assert!(
        spec.migrate_at.is_none() || spec.nodes > 1,
        "migrate_at requires nodes > 1"
    );
    assert!(
        spec.window == 1 || spec.mix.snap_fraction() == 0.0,
        "the pipelined driver has no snapshot-read lane; use spec.snap_readers"
    );
}

/// A connected workload client.
enum Conn {
    /// A baseline's plain KV client.
    Baseline(Box<BaselineClient>),
    /// The serial eFactory client, on any topology.
    Ef(RoutedClient),
    /// `window > 1`: up to `window` eFactory operations in flight.
    Pipelined(Box<PipelinedClient>),
}

impl Conn {
    fn kv(&self) -> &dyn RemoteKv {
        match self {
            Conn::Baseline(c) => &**c,
            Conn::Ef(c) => c,
            Conn::Pipelined(_) => unreachable!("pipelined clients run through run_pipelined"),
        }
    }

    fn txn(&self) -> &dyn TxnKv {
        match self {
            Conn::Ef(c) => c,
            _ => unreachable!("check_supported admits transactional ops on eFactory only"),
        }
    }
}

/// Connect a workload client from `local`: a baseline's own client, or an
/// eFactory client over any topology — pipelined when `window > 1`. Any
/// transport error panics naming the system that failed to connect.
fn connect(
    spec: &ExperimentSpec,
    fabric: &Arc<Fabric>,
    local: &Node,
    desc: &AnyDesc,
    obs: &Obs,
    window: usize,
    name: &str,
) -> Conn {
    let connected = match desc {
        AnyDesc::Baseline(node, d) => {
            let scheme = spec.system.scheme().expect("a baseline descriptor");
            BaselineClient::connect(scheme, fabric, local, node, *d)
                .map(|c| Conn::Baseline(Box::new(c)))
        }
        AnyDesc::Ef(route) => {
            let cfg = ClientConfig {
                hybrid_read: spec.system == SystemKind::EFactory,
                loc_cache: spec.loc_cache,
                obs: obs.clone(),
                ..ClientConfig::default()
            };
            if window > 1 {
                let pcfg = PipelineConfig {
                    window,
                    doorbell_batch: spec.doorbell_batch,
                    client: cfg,
                };
                PipelinedClient::connect(fabric, local, route, pcfg, name)
                    .map(|pc| Conn::Pipelined(Box::new(pc)))
            } else {
                RoutedClient::connect(fabric, local, route, cfg).map(Conn::Ef)
            }
        }
    };
    connected.unwrap_or_else(|e| panic!("{}: client connect failed: {e}", spec.system.label()))
}

/// Drive one client's workload through a [`PipelinedClient`]
/// (`spec.window > 1`). Op latencies run submit → completion (including
/// any wait behind the window or a per-key hazard), and slot-level
/// NoSpace/Busy backoff is part of them just like the serial loop. Must
/// run inside the client's simulated process.
fn run_pipelined(
    mut pc: PipelinedClient,
    ops_per_client: usize,
    stream: &mut OpStream,
    get: &mut Vec<Nanos>,
    put: &mut Vec<Nanos>,
) {
    let record = |comps: Vec<OpCompletion>, get: &mut Vec<Nanos>, put: &mut Vec<Nanos>| {
        for comp in comps {
            if let Err(e) = &comp.result {
                panic!("{:?} failed: {e:?}", comp.kind);
            }
            match comp.kind {
                OpKind::Get => get.push(comp.latency()),
                OpKind::Put => put.push(comp.latency()),
                OpKind::Del => {}
                // One latency sample per written key, so transactional
                // throughput counts key-writes like the serial driver.
                OpKind::Txn => {
                    for _ in 0..comp.txn_keys.len().max(1) {
                        put.push(comp.latency());
                    }
                }
            }
        }
    };
    for _ in 0..ops_per_client {
        let comps = match stream.next_op() {
            Op::Get { key } => pc.submit_get(&key),
            Op::Put { key, value } => pc.submit_put(&key, &value),
            Op::Txn { puts } => pc.submit_txn(&puts),
            Op::SnapRead { .. } => unreachable!("check_supported rejects snapshot ops here"),
        };
        record(comps, get, put);
    }
    record(pc.finish(), get, put);
}

/// Drive one client's workload through a serial client. Latencies: one
/// sample per written key for a transaction (so throughput counts
/// key-writes), one sample per read key for a snapshot read. Must run
/// inside the client's simulated process.
fn run_serial(
    conn: &Conn,
    ops_per_client: usize,
    stream: &mut OpStream,
    get: &mut Vec<Nanos>,
    put: &mut Vec<Nanos>,
) {
    for _ in 0..ops_per_client {
        match stream.next_op() {
            Op::Get { key } => {
                let t0 = sim::now();
                conn.kv().kv_get(&key).expect("get failed");
                get.push(sim::now() - t0);
            }
            Op::Put { key, value } => {
                let t0 = sim::now();
                // Under heavy cleaning pressure the pool can momentarily
                // run out of space; real clients back off and retry, and
                // the stall is part of the measured latency.
                let mut tries = 0;
                loop {
                    match conn.kv().kv_put(&key, &value) {
                        Ok(()) => break,
                        Err(StoreError::Status(Status::NoSpace | Status::Busy)) if tries < 200 => {
                            tries += 1;
                            sim::sleep(sim::micros(50));
                        }
                        Err(e) => panic!("put failed: {e:?}"),
                    }
                }
                put.push(sim::now() - t0);
            }
            Op::Txn { puts } => {
                let t0 = sim::now();
                // The routed txn driver already retries Busy/Conflict with
                // backoff; anything surviving that is a real failure.
                conn.txn().txn_put_all(&puts).expect("txn commit failed");
                let dt = sim::now() - t0;
                for _ in 0..puts.len() {
                    put.push(dt);
                }
            }
            Op::SnapRead { keys } => {
                let t0 = sim::now();
                let kv = conn.txn();
                // A cleaning pool swap expires open snapshots (the swap
                // recycles old-pool offsets); re-capture and restart the
                // scan — the retry latency is part of the measurement.
                'scan: loop {
                    let snap = kv.snapshot().expect("snapshot capture failed");
                    for k in &keys {
                        match kv.snap_get(k, &snap) {
                            Ok(_) => {}
                            Err(StoreError::Status(Status::Expired)) => continue 'scan,
                            Err(e) => panic!("snap get failed: {e:?}"),
                        }
                    }
                    break;
                }
                let dt = sim::now() - t0;
                for _ in 0..keys.len() {
                    get.push(dt);
                }
            }
        }
    }
}

/// Execute one experiment. Deterministic in `spec.seed`.
pub fn run(spec: &ExperimentSpec) -> RunResult {
    run_with_cost(spec, CostModel::default())
}

/// Execute one experiment with a custom cost model (ablations).
pub fn run_with_cost(spec: &ExperimentSpec, cost: CostModel) -> RunResult {
    run_inner(spec, cost, None, None)
}

/// Execute one experiment against a caller-supplied observability handle:
/// the run's metrics land in `obs.registry` and its spans/events in
/// `obs.tracer`, so the caller can export a trace or inspect counters after
/// the run. Deterministic in `spec.seed` — same seed, same trace.
pub fn run_observed(spec: &ExperimentSpec, cost: CostModel, obs: &Obs) -> RunResult {
    run_inner(spec, cost, None, Some(obs.clone()))
}

/// Execute one experiment with a tweak applied to the eFactory
/// `ServerConfig` (verifier/cleaner ablations). No effect on baselines.
pub fn run_with_server_cfg(
    spec: &ExperimentSpec,
    cost: CostModel,
    tweak: impl Fn(&mut ServerConfig) + Send + Sync + 'static,
) -> RunResult {
    run_inner(spec, cost, Some(Arc::new(tweak)), None)
}

type CfgTweak = Arc<dyn Fn(&mut ServerConfig) + Send + Sync>;

fn run_inner(
    spec: &ExperimentSpec,
    cost: CostModel,
    tweak: Option<CfgTweak>,
    obs: Option<Obs>,
) -> RunResult {
    check_supported(spec);
    let obs = obs.unwrap_or_default();
    let mut simu = match spec.exec {
        Some(model) => Sim::with_exec(spec.seed, model),
        None => Sim::new(spec.seed),
    };
    let fabric = Fabric::new(cost);
    if let Some(plan) = spec.fault_plan {
        fabric.set_fault_plan(Some(plan));
    }
    // NIC verbs become spans on the trace's nic lane, covering the verb's
    // full start→completion window (retransmissions and fault delays
    // included). The probe fires on the issuing thread, so the record
    // inherits the active op id for critical-path attribution.
    let nic_tracer = obs.tracer.clone();
    fabric.set_verb_probe(move |verb, bytes, start, end| {
        nic_tracer.record_span_at(
            Subsystem::Nic,
            verb,
            start,
            end.saturating_sub(start),
            &[("bytes", bytes as u64)],
        );
    });
    let server = Arc::new(build_server(&fabric, spec, &obs, tweak.as_deref()));
    server.attach_obs(&obs);

    let collected: Arc<Mutex<Collected>> = Arc::default();
    let window: Arc<Mutex<(Nanos, Nanos)>> = Arc::default(); // (start, end)

    let spec2 = spec.clone();
    let f2 = Arc::clone(&fabric);
    let server2 = Arc::clone(&server);
    let collected2 = Arc::clone(&collected);
    let window2 = Arc::clone(&window);
    let obs2 = obs.clone();
    simu.spawn("orchestrator", move || {
        server2.start(&f2);
        let desc = server2.desc();

        // ---- preload ------------------------------------------------------
        let loader_node = f2.add_node("loader");
        let loader = connect(&spec2, &f2, &loader_node, &desc, &obs2, 1, "loader");
        let wl = WorkloadConfig {
            mix: spec2.mix,
            record_count: spec2.record_count,
            key_len: spec2.key_len,
            value_len: spec2.value_len,
            txn_keys: TXN_KEYS,
        };
        for id in 0..spec2.record_count {
            loader
                .kv()
                .kv_put(&wl.key(id), &make_value(spec2.value_len, id, 0))
                .expect("preload put");
        }
        // Forca verifies+persists on *first read*; sweep the keyspace once
        // so measurement starts from the verified steady state (mirroring
        // eFactory's drained-verifier start below).
        if matches!(spec2.system, SystemKind::Forca) {
            for id in 0..spec2.record_count {
                loader.kv().kv_get(&wl.key(id)).expect("preload warm get");
            }
        }
        // Let eFactory's verifier(s) drain so measurement starts from a
        // clean, fully durable store (bounded wait).
        if spec2.system.scheme().is_none() {
            let deadline = sim::now() + sim::millis(500);
            while server2.stat_sum(|s| &s.bg_verified) + server2.stat_sum(|s| &s.bg_timeouts)
                < spec2.record_count
                && sim::now() < deadline
            {
                sim::sleep(sim::micros(200));
            }
        }
        // With replication, also wait for the backups to catch up so the
        // measurement (and any injected fault) starts from a fully
        // mirrored store.
        if let AnyServer::Ef(s) = &*server2 {
            if spec2.replicas > 0 {
                let deadline = sim::now() + sim::millis(500);
                while s.repl_stat_sum(|r| &r.applied_objects) < spec2.record_count
                    && sim::now() < deadline
                {
                    sim::sleep(sim::micros(200));
                }
            }
        }

        // ---- measured clients ----------------------------------------------
        // Each shard with a forced pass, and its completed-pass count when
        // the pass was requested.
        let mut forced = Vec::new();
        if spec2.force_clean {
            for shared in server2.ef_shared() {
                shared.clean_request.store(true, Ordering::Relaxed);
                let done = shared.stats.cleanings.get();
                forced.push((shared, done));
            }
        }
        let t_start = sim::now();
        window2.lock().unwrap().0 = t_start;
        // Fault injection: power-fail every shard's primary at the chosen
        // instant. Clients ride through via per-shard failover; the stall
        // is part of the measured latency.
        if let (Some(fault_at), AnyServer::Ef(s)) = (spec2.fault_at, &*server2) {
            for i in 0..s.shards() {
                let primary = s.replicated(i).expect("fault_at requires replicas > 0");
                f2.schedule_crash(
                    primary.primary_node(),
                    t_start + fault_at,
                    efactory_pmem::CrashSpec::DropAll,
                    spec2.seed ^ 0x0FAB_u64 ^ ((i as u64) << 17),
                );
            }
        }
        // Live migration mid-window: shard 0 moves to the next node
        // while the measured clients keep operating. The driver runs in
        // its own process; clients retarget on WrongEpoch. The handle is
        // joined before shutdown: at reduced op scales the window can end
        // before `migrate_at`, and the migration must still run against a
        // live cluster rather than race the teardown.
        let mut migrator = None;
        if let Some(migrate_at) = spec2.migrate_at {
            let server3 = Arc::clone(&server2);
            let t0 = t_start + migrate_at;
            migrator = Some(sim::spawn("migrator", move || {
                sim::sleep(t0.saturating_sub(sim::now()));
                let AnyServer::EfCluster(c) = &*server3 else {
                    unreachable!("check_supported: migrate_at requires nodes > 1")
                };
                let from = c.owner_of(0);
                let to = (from + 1) % c.config().nodes;
                c.migrate(0, to).expect("mid-window migration failed");
            }));
        }
        // Background snapshot readers: continuous capture + multi-key
        // snapshot reads for the whole measurement window, stopped once
        // the workload clients finish. Their point is interference
        // measurement — they must not block (or be blocked by) writers.
        let snap_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut snap_handles = Vec::new();
        for rid in 0..spec2.snap_readers {
            let f3 = Arc::clone(&f2);
            let spec3 = spec2.clone();
            let wl = wl.clone();
            let obs3 = obs2.clone();
            let desc3 = desc.clone();
            let stop = Arc::clone(&snap_stop);
            snap_handles.push(sim::spawn(&format!("snap-reader-{rid}"), move || {
                let node = f3.add_node(&format!("snapnode-{rid}"));
                let conn = connect(&spec3, &f3, &node, &desc3, &obs3, 1, "snap");
                let kv = conn.txn();
                // Deterministic key picks: a per-reader xorshift stream.
                let mut z = spec3.seed ^ ((rid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut next_id = || {
                    z ^= z << 13;
                    z ^= z >> 7;
                    z ^= z << 17;
                    z % spec3.record_count
                };
                // Scan cadence: readers model periodic analytics scans
                // (capture + 4 reads, then a 60 µs pause — ~12k scans/s
                // per reader), not closed-loop stress. Every scan RPC
                // still shares the server CPU with writer allocations, so
                // the interference measurement stays honest; the cadence
                // only bounds how much scan load the probe applies.
                while !stop.load(Ordering::Relaxed) {
                    let snap = kv.snapshot().expect("snap capture");
                    for _ in 0..TXN_KEYS {
                        // A cleaning pool swap expires the snapshot
                        // mid-scan; abandon it and re-capture on the next
                        // iteration (readers model periodic scans, not
                        // exactly-once reads).
                        match kv.snap_get(&wl.key(next_id()), &snap) {
                            Ok(_) => {}
                            Err(StoreError::Status(Status::Expired)) => break,
                            Err(e) => panic!("snap get: {e:?}"),
                        }
                    }
                    sim::sleep(sim::micros(60));
                }
            }));
        }
        let mut handles = Vec::new();
        for cid in 0..spec2.clients {
            let f3 = Arc::clone(&f2);
            let spec3 = spec2.clone();
            let wl = wl.clone();
            let collected3 = Arc::clone(&collected2);
            let obs3 = obs2.clone();
            let desc3 = desc.clone();
            handles.push(sim::spawn(&format!("client-{cid}"), move || {
                let node = f3.add_node(&format!("cnode-{cid}"));
                let mut stream = OpStream::new(wl, spec3.seed, cid as u64);
                let mut get = Vec::with_capacity(spec3.ops_per_client);
                let mut put = Vec::with_capacity(spec3.ops_per_client);
                let name = format!("client-{cid}");
                let conn = connect(&spec3, &f3, &node, &desc3, &obs3, spec3.window, &name);
                let ops = spec3.ops_per_client;
                match conn {
                    Conn::Pipelined(pc) => run_pipelined(*pc, ops, &mut stream, &mut get, &mut put),
                    conn => run_serial(&conn, ops, &mut stream, &mut get, &mut put),
                }
                let mut c = collected3.lock().unwrap();
                c.get.extend_from_slice(&get);
                c.put.extend_from_slice(&put);
                c.end = c.end.max(sim::now());
            }));
        }
        for h in &handles {
            h.join();
        }
        snap_stop.store(true, Ordering::Relaxed);
        for h in &snap_handles {
            h.join();
        }
        if let Some(h) = migrator {
            h.join();
        }
        // Likewise let a forced cleaning pass finish instead of racing the
        // teardown (bounded wait): on YCSB-C it outlasts the clients. It
        // has ended once its request was taken and either a pass has
        // completed since or none is running.
        let deadline = sim::now() + sim::millis(500);
        while forced.iter().any(|(shared, done)| {
            shared.clean_request.load(Ordering::Relaxed)
                || (shared.stats.cleanings.get() == *done && shared.phase() != CleanPhase::Normal)
        }) && sim::now() < deadline
        {
            sim::sleep(sim::micros(200));
        }
        window2.lock().unwrap().1 = collected2.lock().unwrap().end;
        server2.shutdown();
    });

    let outcome = simu.run();
    if let efactory_sim::RunOutcome::Failed { error, .. } = outcome {
        panic!("experiment failed: {error}");
    }

    let mut c = collected.lock().unwrap();
    let (start, end) = *window.lock().unwrap();
    let elapsed = end.saturating_sub(start).max(1);
    let total_ops = (c.get.len() + c.put.len()) as u64;
    let mut all: Vec<Nanos> = c.get.iter().chain(c.put.iter()).copied().collect();
    // Mirror the fabric's raw telemetry into the registry so the final
    // snapshot carries the full server/pmem/fabric picture.
    let fstats = fabric.stats();
    for (name, v) in [
        ("fabric.sends", &fstats.sends),
        ("fabric.rdma_reads", &fstats.rdma_reads),
        ("fabric.rdma_writes", &fstats.rdma_writes),
        ("fabric.bytes_on_wire", &fstats.bytes_on_wire),
        ("fabric.crashes", &fstats.crashes),
        ("fabric.fault.dropped", &fstats.fault_dropped),
        ("fabric.fault.duplicated", &fstats.fault_duplicated),
        ("fabric.fault.delayed", &fstats.fault_delayed),
        ("fabric.fault.retrans", &fstats.fault_retrans),
    ] {
        obs.registry
            .counter(name)
            .store(v.load(Ordering::Relaxed), Ordering::Relaxed);
    }
    obs.registry
        .counter("fabric.links_down")
        .store(fabric.links_down_count() as u64, Ordering::Relaxed);
    obs.registry
        .counter("obs.trace_dropped")
        .store(obs.tracer.dropped(), Ordering::Relaxed);
    // Mirror the kernel's execution telemetry the same way. Only the
    // backend-invariant counters go in (`stack_bytes` stays out): these
    // values are a function of the deterministic event sequence, so a
    // fiber run and a thread run of the same spec report identical
    // numbers — the equivalence tests assert exactly that.
    let sc = simu.counters().backend_invariant();
    for (name, v) in [
        ("sim.events_scheduled", sc.events_scheduled),
        ("sim.events_dispatched", sc.events_dispatched),
        ("sim.calls", sc.calls),
        ("sim.chan_wakes", sc.chan_wakes),
        ("sim.wakes_stale", sc.wakes_stale),
        ("sim.ctx_switches", sc.ctx_switches),
        ("sim.allocs", sc.allocs),
        ("sim.slab_reused", sc.slab_reused),
    ] {
        obs.registry.counter(name).store(v, Ordering::Relaxed);
    }
    // Fold the trace into the per-op critical-path breakdown, clipped to
    // the measurement window (preload ops start before `start` and are
    // excluded by min_start).
    let breakdown = {
        let b = efactory_obs::critical_path::fold(
            &obs.tracer.records(),
            &FoldConfig {
                min_start: start,
                exemplars: 4,
            },
        );
        (b.ops > 0).then_some(b)
    };
    RunResult {
        system: spec.system.label(),
        total_ops,
        elapsed_ns: elapsed,
        mops: total_ops as f64 / (elapsed as f64 / 1e9) / 1e6,
        get: LatencyStats::from_samples(&mut c.get),
        put: LatencyStats::from_samples(&mut c.put),
        all: LatencyStats::from_samples(&mut all),
        server_rpc_gets: server.stat_sum(|s| &s.gets),
        bg_verified: server.stat_sum(|s| &s.bg_verified),
        cleanings: server.stat_sum(|s| &s.cleanings),
        seed: spec.seed,
        counters: obs.registry.snapshot(),
        breakdown,
    }
}
