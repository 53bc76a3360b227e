//! The cluster layer: multi-node placement, a replicated
//! membership/metadata service, and live shard migration.
//!
//! Everything below the [`shard`](crate::shard) layer treats a "store" as
//! N hash-partitioned shards on one implicit machine. This module hosts
//! those shards on **N independent server nodes** and makes ownership a
//! first-class, *changeable* fact:
//!
//! * [`placement::PlacementMap`] — the deterministic shard→node map,
//!   tagged with a monotonically increasing **placement epoch**;
//! * [`meta`] — a small leader-based metadata service (3 replicas over
//!   the same simulated fabric) that replicates one versioned control-plane
//!   state: it owns the placement map, detects node death via heartbeats
//!   on the virtual clock, and serializes every ownership change;
//! * [`migrate`] — **live shard migration**: copy the shard's pool to the
//!   destination while client traffic keeps flowing, seal + drain the
//!   source, rewrite every chunk that changed since the copy, verify the
//!   copy byte-identical to the (now frozen) source, and only then flip
//!   ownership with an epoch bump;
//! * clients ([`crate::route::RoutedClient`] over [`Cluster::desc`]) cache
//!   the placement with its epoch and retarget transparently on
//!   `WrongEpoch` rejections.
//!
//! # Topology and naming
//!
//! The simulated fabric allows one listener per node, so a *cluster node*
//! `i` is a named family of fabric nodes: seat `n{i}.g{g}` hosts shard
//! `g` when node `i` owns it, and `n{i}.agent` is the node's agent — a
//! client-only endpoint that heartbeats the metadata leader (and lends
//! its identity to the migration driver). All `nodes × shards` seats are
//! created up front so names are stable across crashes, restarts, and
//! repeated migrations; [`efactory_rnic::Fabric::node_by_name`] is the
//! directory that resolves them.
//!
//! Cluster shards may run with cleaning enabled. The cleaner and the
//! migration engine exclude each other only at seal time: the cleaner's
//! gate skips sealed shards, and [`migrate`] waits for any in-flight pass
//! to finish or abort before it seals (see
//! [`migrate::MigrateError::CleanTimeout`]). A pass may run during the
//! live copy; the fixup pass after the seal rewrites whatever it moved. A
//! migrated copy is taken from a sealed, drained source, so it is a
//! crash-consistent image and the standard recovery rules — including
//! cleaning-progress records — apply to it unchanged. Shards run without
//! per-shard backups: node death is survived the same way the single-node
//! system survives power failure — restart + recovery over the NVM pool —
//! while *planned* moves use live migration.

pub mod meta;
pub mod migrate;
pub mod placement;

pub use meta::{MetaClient, MetaCmd, MetaService, MetaState, MetaStats, MetaTiming};
pub use migrate::{MigrateError, MigrationReport};
pub use placement::{key_shard, PlacementMap};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use efactory_obs::{Counter, Registry};
use efactory_pmem::{CrashSpec, PmemPool};
use efactory_rnic::{Fabric, Node};
use efactory_sim as sim;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::Nanos;

use crate::log::StoreLayout;
use crate::recovery::{self, RecoveryReport};
use crate::route::RouteDesc;
use crate::server::{Server, ServerConfig, ServerShared, StoreDesc};

/// Tunables for a cluster.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Data nodes (each may own any subset of shards).
    pub nodes: usize,
    /// Shards, hash-partitioned exactly like the single-node store.
    pub shards: usize,
    /// Metadata service replicas (odd; 3 is the default).
    pub meta_replicas: usize,
    /// Per-shard NVM geometry.
    pub layout: StoreLayout,
    /// Per-shard server template; the counter prefix is replaced with the
    /// seat name. `clean_enabled` is honored per shard (see module docs
    /// for how cleaning and migration serialize).
    pub server: ServerConfig,
    /// Metadata-service timing (heartbeats, elections, death timeout).
    pub meta_timing: MetaTiming,
    /// Agent heartbeat period.
    pub heartbeat_every: Nanos,
    /// Migration snapshot/fixup copy chunk (bytes).
    pub migrate_chunk: usize,
}

impl ClusterConfig {
    /// A cluster of `nodes` data nodes and `shards` shards with default
    /// control-plane timing.
    pub fn new(nodes: usize, shards: usize, layout: StoreLayout, server: ServerConfig) -> Self {
        ClusterConfig {
            nodes,
            shards,
            meta_replicas: 3,
            layout,
            server,
            meta_timing: MetaTiming::default(),
            heartbeat_every: sim::micros(40),
            migrate_chunk: 64 * 1024,
        }
    }
}

/// Counters for the cluster layer (migration driver + client routing).
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// Migrations started (MigrateStart committed).
    pub migrations_started: Counter,
    /// Migrations committed (ownership flipped).
    pub migrations_committed: Counter,
    /// Migrations aborted (any phase).
    pub migrations_aborted: Counter,
    /// Snapshot-copy bytes shipped to destinations.
    pub snapshot_bytes: Counter,
    /// Snapshot-copy chunks shipped.
    pub snapshot_chunks: Counter,
    /// Bytes rewritten by the post-drain fixup pass.
    pub fixup_bytes: Counter,
    /// Byte differences found by the final verify pass (must stay 0 —
    /// a nonzero value means the copy was *not* stop-the-world-identical).
    pub verify_diff_bytes: Counter,
    /// Seal→drain waits completed.
    pub drain_waits: Counter,
    /// Data nodes power-failed through the cluster API.
    pub node_kills: Counter,
    /// Data nodes restarted + recovered through the cluster API.
    pub node_restarts: Counter,
    /// Client-side: ops retargeted after a `WrongEpoch` rejection.
    pub client_retargets: Counter,
    /// Client-side: placement refreshes from the metadata service.
    pub client_refreshes: Counter,
}

impl ClusterStats {
    /// Attach every counter to `reg` under `cluster.*` names.
    pub fn register(&self, reg: &Registry) {
        let pairs: [(&str, &Counter); 12] = [
            ("cluster.migrate.started", &self.migrations_started),
            ("cluster.migrate.committed", &self.migrations_committed),
            ("cluster.migrate.aborted", &self.migrations_aborted),
            ("cluster.migrate.snapshot_bytes", &self.snapshot_bytes),
            ("cluster.migrate.snapshot_chunks", &self.snapshot_chunks),
            ("cluster.migrate.fixup_bytes", &self.fixup_bytes),
            ("cluster.migrate.verify_diff_bytes", &self.verify_diff_bytes),
            ("cluster.migrate.drain_waits", &self.drain_waits),
            ("cluster.node_kills", &self.node_kills),
            ("cluster.node_restarts", &self.node_restarts),
            ("cluster.client.retargets", &self.client_retargets),
            ("cluster.client.refreshes", &self.client_refreshes),
        ];
        for (name, c) in pairs {
            reg.attach_counter(name, c);
        }
    }
}

/// Connection info for one shard's current home, published through
/// [`ClusterHandle`] — the data-plane rendezvous (the metadata service
/// stays authoritative for *ownership*; this carries the MR + geometry a
/// client needs once it knows the owner).
#[derive(Clone)]
pub struct SeatInfo {
    /// The owning cluster node index.
    pub owner: usize,
    /// The owning seat's fabric node.
    pub node: Node,
    /// Connection descriptor (MR + layout) of the serving instance.
    pub desc: StoreDesc,
    /// Shared state of the serving instance.
    pub shared: Arc<ServerShared>,
}

/// Shared seat table, updated by migration commit and node restart.
#[derive(Default)]
pub struct ClusterHandle {
    seats: Mutex<Vec<SeatInfo>>,
}

impl ClusterHandle {
    /// Shard `g`'s current seat.
    pub fn seat(&self, g: usize) -> SeatInfo {
        self.seats.lock().unwrap()[g].clone()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.seats.lock().unwrap().len()
    }

    pub(crate) fn set_seat(&self, g: usize, info: SeatInfo) {
        self.seats.lock().unwrap()[g] = info;
    }
}

/// One shard's server-side bookkeeping.
struct SeatState {
    owner: usize,
    server: Server,
    pool: Arc<PmemPool>,
}

/// A migration's destination artifacts, parked in the cluster the moment
/// the copy begins. This models the destination machine's NVM: the pool
/// must outlive the migration *driver* (whose endpoint may die with the
/// destination machine) so that a `MigrateCommit` the driver never
/// learned the outcome of can still be settled afterwards — promoted
/// from this staging if the metadata service says the move committed,
/// abandoned if it aborted. See [`Cluster::reconcile`].
pub(crate) struct StagedMigration {
    shard: usize,
    to: usize,
    pool: Arc<PmemPool>,
    /// The recovered destination server, parked just before the commit
    /// window opens (present iff the driver reached step 6).
    server: Option<Server>,
}

/// A multi-node eFactory cluster: data seats, node agents, and the
/// replicated metadata service, all over one simulated fabric.
pub struct Cluster {
    fabric: Arc<Fabric>,
    cfg: ClusterConfig,
    /// `seat_nodes[i][g]` = fabric node `n{i}.g{g}`.
    seat_nodes: Vec<Vec<Node>>,
    /// `agent_nodes[i]` = fabric node `n{i}.agent`.
    agent_nodes: Vec<Node>,
    meta: MetaService,
    seats: Mutex<Vec<SeatState>>,
    handle: Arc<ClusterHandle>,
    stats: Arc<ClusterStats>,
    /// In-flight migration's destination artifacts (at most one — the
    /// metadata service serializes migrations).
    staged: Mutex<Option<StagedMigration>>,
    /// A `MigrateAbort` whose proposal never reached a metadata majority:
    /// `(shard, to)` of the dead migration still occupying the slot.
    /// With both endpoints alive the death sweep will never free it, so
    /// [`reconcile`](Self::reconcile) re-proposes it once a majority is
    /// reachable again.
    pending_abort: Mutex<Option<(u32, u32)>>,
    stop: Arc<AtomicBool>,
}

impl Cluster {
    /// The name of node `i`'s seat for shard `g`.
    pub fn seat_name(i: usize, g: usize) -> String {
        format!("n{i}.g{g}")
    }

    /// Create all fabric nodes, format the initial owners' shards
    /// (round-robin placement: shard `g` on node `g % nodes`), and build
    /// the unstarted metadata service.
    pub fn format(fabric: &Arc<Fabric>, cfg: ClusterConfig) -> Cluster {
        assert!(cfg.nodes >= 1 && cfg.shards >= 1);
        let server_cfg = cfg.server.clone();

        let seat_nodes: Vec<Vec<Node>> = (0..cfg.nodes)
            .map(|i| {
                (0..cfg.shards)
                    .map(|g| fabric.add_node(&Self::seat_name(i, g)))
                    .collect()
            })
            .collect();
        let agent_nodes: Vec<Node> = (0..cfg.nodes)
            .map(|i| fabric.add_node(&format!("n{i}.agent")))
            .collect();

        let stats = Arc::new(ClusterStats::default());
        stats.register(&server_cfg.obs.registry);
        let meta_stats = Arc::new(MetaStats::default());
        meta_stats.register(&server_cfg.obs.registry);

        let stop = Arc::new(AtomicBool::new(false));
        let meta = MetaService::new(
            fabric,
            cfg.meta_replicas,
            cfg.nodes,
            MetaState::initial(cfg.shards, cfg.nodes),
            cfg.meta_timing.clone(),
            meta_stats,
            Arc::clone(&stop),
        );

        let mut seats = Vec::with_capacity(cfg.shards);
        let mut infos = Vec::with_capacity(cfg.shards);
        // `seat_nodes` is indexed [owner][shard], and the owner varies per
        // iteration — a plain index loop is the clear spelling.
        #[allow(clippy::needless_range_loop)]
        for g in 0..cfg.shards {
            let owner = g % cfg.nodes;
            let node = &seat_nodes[owner][g];
            let mut scfg = server_cfg.clone();
            scfg.counter_prefix = format!("{}.", Self::seat_name(owner, g));
            let server = Server::format(fabric, node, cfg.layout, scfg);
            let pool = Arc::clone(&server.shared().pool);
            infos.push(SeatInfo {
                owner,
                node: node.clone(),
                desc: server.desc(),
                shared: Arc::clone(server.shared()),
            });
            seats.push(SeatState {
                owner,
                server,
                pool,
            });
        }
        let handle = Arc::new(ClusterHandle {
            seats: Mutex::new(infos),
        });

        Cluster {
            fabric: Arc::clone(fabric),
            cfg: ClusterConfig {
                server: server_cfg,
                ..cfg
            },
            seat_nodes,
            agent_nodes,
            meta,
            seats: Mutex::new(seats),
            handle,
            stats,
            staged: Mutex::new(None),
            pending_abort: Mutex::new(None),
            stop,
        }
    }

    /// Start everything: metadata replicas, every owned seat's server
    /// processes, and one agent per data node. Must run inside a
    /// simulated process.
    pub fn start(&self) {
        self.meta.start(&self.fabric);
        for seat in self.seats.lock().unwrap().iter() {
            seat.server.start(&self.fabric);
        }
        for i in 0..self.cfg.nodes {
            self.spawn_agent(i);
        }
    }

    /// The per-node agent: heartbeats the metadata leader so the death
    /// detector sees the node, for as long as the node is up. It survives
    /// crash/restart cycles of its node (heartbeats simply fail while the
    /// node is down), mirroring a host daemon that comes back with the
    /// machine.
    fn spawn_agent(&self, i: usize) {
        let fabric = Arc::clone(&self.fabric);
        let local = self.agent_nodes[i].clone();
        let meta_nodes = self.meta.nodes().to_vec();
        let stop = Arc::clone(&self.stop);
        let period = self.cfg.heartbeat_every;
        sim::spawn(&format!("efactory-agent-n{i}"), move || {
            let mut mc = MetaClient::new(&fabric, &local, &meta_nodes);
            while !stop.load(Ordering::Relaxed) {
                if !local.is_crashed() {
                    mc.heartbeat(i, sim::now() + period / 2);
                }
                sim::sleep(period);
            }
        });
    }

    /// The rendezvous clients connect through.
    pub fn handle(&self) -> &Arc<ClusterHandle> {
        &self.handle
    }

    /// What clients connect with: the seat table, the metadata service,
    /// and the counters client retargets land in.
    pub fn desc(&self) -> RouteDesc {
        RouteDesc::Cluster {
            handle: Arc::clone(&self.handle),
            meta_nodes: self.meta.nodes().to_vec(),
            stats: Arc::clone(&self.stats),
        }
    }

    /// The metadata replicas' fabric nodes.
    pub fn meta_nodes(&self) -> &[Node] {
        self.meta.nodes()
    }

    /// Cluster-layer counters.
    pub fn stats(&self) -> &Arc<ClusterStats> {
        &self.stats
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The fabric.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Agent (client-only) fabric node of data node `i` — also the local
    /// endpoint the migration driver issues its copy verbs from.
    pub fn agent_node(&self, i: usize) -> &Node {
        &self.agent_nodes[i]
    }

    /// The seat fabric node for (`node`, `shard`).
    pub fn seat_node(&self, i: usize, g: usize) -> &Node {
        &self.seat_nodes[i][g]
    }

    /// Shard `g`'s current owner.
    pub fn owner_of(&self, g: usize) -> usize {
        self.seats.lock().unwrap()[g].owner
    }

    /// Shard `g`'s serving instance's shared state.
    pub fn shard_shared(&self, g: usize) -> Arc<ServerShared> {
        Arc::clone(self.seats.lock().unwrap()[g].server.shared())
    }

    /// Shard `g`'s pool (tests: byte-level assertions).
    pub fn shard_pool(&self, g: usize) -> Arc<PmemPool> {
        Arc::clone(&self.seats.lock().unwrap()[g].pool)
    }

    /// Sum a server counter across all owned seats.
    pub fn stat_sum(&self, pick: impl Fn(&crate::server::ServerStats) -> &Counter) -> u64 {
        self.seats
            .lock()
            .unwrap()
            .iter()
            .map(|s| pick(&s.server.shared().stats).get())
            .sum()
    }

    /// Install shard `g`'s new serving instance (migration commit or
    /// node-restart recovery): update the seat table and the rendezvous.
    pub(crate) fn install_seat(&self, g: usize, owner: usize, server: Server) {
        let info = SeatInfo {
            owner,
            node: server.shared().node.clone(),
            desc: server.desc(),
            shared: Arc::clone(server.shared()),
        };
        let pool = Arc::clone(&server.shared().pool);
        let retired = {
            let mut seats = self.seats.lock().unwrap();
            let old = &mut seats[g];
            old.owner = owner;
            old.pool = pool;
            std::mem::replace(&mut old.server, server)
        };
        // Decommission the replaced instance: its seal/poison already
        // stopped it serving, but its handler and verifier processes
        // would otherwise spin for the rest of the simulation.
        retired.shutdown();
        self.handle.set_seat(g, info);
    }

    /// Park a migration's destination pool (step 2 of the protocol; the
    /// pool is the destination machine's NVM and must outlive the
    /// driver).
    pub(crate) fn stage_pool(&self, shard: usize, to: usize, pool: Arc<PmemPool>) {
        // A dead driver's staging may still be parked here (its
        // migration was auto-aborted and this is the retry): wind it
        // down before installing ours.
        self.clear_staged();
        *self.staged.lock().unwrap() = Some(StagedMigration {
            shard,
            to,
            pool,
            server: None,
        });
    }

    /// Park the recovered destination server just before the commit
    /// window opens (step 7 of the protocol).
    pub(crate) fn stage_server(&self, server: Server) {
        if let Some(st) = self.staged.lock().unwrap().as_mut() {
            st.server = Some(server);
        }
    }

    /// Take the staged destination server back out (commit confirmed).
    pub(crate) fn take_staged_server(&self) -> Option<Server> {
        self.staged.lock().unwrap().take().and_then(|st| st.server)
    }

    /// Drop any staged migration (abort with a provably-uncommitted
    /// flip). The staged server, if recovery already produced one, is
    /// wound down.
    pub(crate) fn clear_staged(&self) {
        if let Some(st) = self.staged.lock().unwrap().take() {
            if let Some(server) = st.server {
                server.shutdown();
            }
        }
    }

    /// Record a `MigrateAbort` whose proposal found no metadata majority
    /// (see the field doc on `pending_abort`).
    pub(crate) fn note_unacked_abort(&self, shard: usize, to: usize) {
        *self.pending_abort.lock().unwrap() = Some((shard as u32, to as u32));
    }

    /// A new migration start supersedes any recorded unacked abort: the
    /// slot either freed in the meantime or was re-adopted by the new
    /// driver (same pair), and re-proposing the stale abort would kill
    /// the live migration.
    pub(crate) fn clear_pending_abort(&self) {
        *self.pending_abort.lock().unwrap() = None;
    }

    /// Re-propose a dropped `MigrateAbort` if the slot still holds that
    /// exact migration. Returns the (possibly post-abort) state staging
    /// reconciliation should judge against.
    fn resolve_pending_abort(&self, mc: &mut MetaClient, state: MetaState) -> MetaState {
        let Some((shard, to)) = *self.pending_abort.lock().unwrap() else {
            return state;
        };
        if state.migrating != Some((shard, to)) {
            // Settled without us: the death sweep's auto-abort fired, or
            // a new migration took the slot.
            self.clear_pending_abort();
            return state;
        }
        match mc.propose(
            &MetaCmd::MigrateAbort { shard },
            sim::now() + sim::millis(2),
        ) {
            meta::ProposeOutcome::Committed(s) => {
                self.clear_pending_abort();
                s
            }
            meta::ProposeOutcome::Rejected => {
                self.clear_pending_abort();
                state
            }
            meta::ProposeOutcome::Unavailable => state,
        }
    }

    /// Settle any staged migration against the authoritative placement:
    /// promote the staged destination if the metadata service says the
    /// move committed, abandon it (and unseal the surviving owner, which
    /// a dead driver may have left sealed) if it aborted, leave it
    /// parked while the migration is still marked in flight. Also
    /// re-proposes a `MigrateAbort` the metadata service never acked
    /// (the slot would otherwise stay occupied forever — no endpoint
    /// died, so the death sweep never auto-aborts).
    ///
    /// [`restart_data_node`](Self::restart_data_node) runs this
    /// automatically; call it directly after waiting out a convergence
    /// window when no node restart is involved. Must run inside a
    /// simulated process. No-op when nothing is staged or pending, or no
    /// metadata majority is reachable.
    pub fn reconcile(&self) {
        let staged_to = self.staged.lock().unwrap().as_ref().map(|st| st.to);
        let pending_to = self
            .pending_abort
            .lock()
            .unwrap()
            .map(|(_, to)| to as usize);
        let Some(local) = staged_to.or(pending_to) else {
            return;
        };
        let mut mc = MetaClient::new(&self.fabric, &self.agent_nodes[local], self.meta.nodes());
        if let Some(state) = mc.get_map(sim::now() + sim::millis(5)) {
            let state = self.resolve_pending_abort(&mut mc, state);
            self.reconcile_staged(&state);
        }
    }

    fn reconcile_staged(&self, state: &MetaState) {
        let st = match self.staged.lock().unwrap().take() {
            Some(st) => st,
            None => return,
        };
        if state.placement.node_of_shard(st.shard) == st.to {
            // The commit landed even though the driver never learned it.
            // The staged pool holds the verified byte-identical copy; the
            // staged server (if the destination machine survived) is
            // already serving it.
            match st.server {
                Some(server) if !self.seat_nodes[st.to][st.shard].is_crashed() => {
                    self.install_seat(st.shard, st.to, server);
                }
                _ => {
                    // The destination machine power-failed after the
                    // commit: this is its reboot path — ordinary recovery
                    // over the surviving NVM copy.
                    let node = &self.seat_nodes[st.to][st.shard];
                    self.fabric.restart_node(node);
                    let mut scfg = self.cfg.server.clone();
                    scfg.counter_prefix = format!("{}.", Self::seat_name(st.to, st.shard));
                    let (server, _report) =
                        recovery::recover(&self.fabric, node, st.pool, self.cfg.layout, scfg);
                    server.start(&self.fabric);
                    self.install_seat(st.shard, st.to, server);
                }
            }
        } else if state.migrating.is_none() {
            // Aborted (driver abort or the death detector's auto-abort):
            // the old owner keeps the shard. A driver that died inside
            // the commit window left it sealed — restore service.
            if let Some(server) = st.server {
                server.shutdown();
            }
            self.seats.lock().unwrap()[st.shard]
                .server
                .shared()
                .unseal();
        } else {
            // Still marked in flight; not ours to settle yet.
            *self.staged.lock().unwrap() = Some(st);
        }
    }

    /// Power-fail data node `i`: crash its agent endpoint and **every**
    /// seat endpoint the node hosts (in-flight DMA torn per `spec`) —
    /// the seats it currently owns, retired tombstone seats, and equally
    /// the scaffolding seat of a migration *to* this node, so a staged
    /// destination pool stops absorbing copy writes the instant the
    /// machine dies. The metadata leader notices the heartbeat silence
    /// and commits `NodeDown`.
    pub fn crash_data_node(&self, i: usize, spec: CrashSpec, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DD5_EED5);
        self.fabric.crash_node(&self.agent_nodes[i], spec, &mut rng);
        for g in 0..self.cfg.shards {
            if !self.seat_nodes[i][g].is_crashed() {
                self.fabric
                    .crash_node(&self.seat_nodes[i][g], spec, &mut rng);
            }
        }
        self.stats.node_kills.inc();
    }

    /// Restart data node `i`: restart its fabric endpoints and run
    /// recovery over every owned shard's surviving NVM pool, then start
    /// the recovered servers. The resuming agent heartbeats bring the
    /// node back to `alive` in the metadata service. Must run inside a
    /// simulated process. Returns one recovery report per recovered
    /// shard.
    pub fn restart_data_node(&self, i: usize) -> Vec<(usize, RecoveryReport)> {
        self.fabric.restart_node(&self.agent_nodes[i]);
        // Consult the authoritative placement before trusting the local
        // seat table: a migration whose driver died inside the commit
        // window may have flipped ownership without the table hearing.
        // Shards the metadata service says moved away are NOT recovered
        // here (recovering them would double-own the shard); a staged
        // destination copy this restart makes promotable is settled by
        // the reconciliation below. With no majority reachable the seat
        // table is the best available truth and recovery proceeds on it.
        let mut mc = MetaClient::new(&self.fabric, &self.agent_nodes[i], self.meta.nodes());
        let state = mc.get_map(sim::now() + sim::millis(5));
        let owned: Vec<(usize, Arc<PmemPool>)> = {
            let seats = self.seats.lock().unwrap();
            seats
                .iter()
                .enumerate()
                .filter(|(g, s)| {
                    s.owner == i
                        && state
                            .as_ref()
                            .is_none_or(|st| st.placement.node_of_shard(*g) == i)
                })
                .map(|(g, s)| (g, Arc::clone(&s.pool)))
                .collect()
        };
        if let Some(state) = state {
            let state = self.resolve_pending_abort(&mut mc, state);
            self.reconcile_staged(&state);
        }
        let mut reports = Vec::with_capacity(owned.len());
        for (g, pool) in owned {
            let node = &self.seat_nodes[i][g];
            self.fabric.restart_node(node);
            let mut scfg = self.cfg.server.clone();
            scfg.counter_prefix = format!("{}.", Self::seat_name(i, g));
            let (server, report) =
                recovery::recover(&self.fabric, node, pool, self.cfg.layout, scfg);
            server.start(&self.fabric);
            self.install_seat(g, i, server);
            reports.push((g, report));
        }
        // Reboot the node's remaining crashed endpoints (idle seats,
        // tombstones, a migration scaffolding seat the machine failure
        // took down) so future migrations can target them again. Runs
        // AFTER the staging reconciliation above: its is_crashed() check
        // must still observe the crash.
        for g in 0..self.cfg.shards {
            let node = &self.seat_nodes[i][g];
            if node.is_crashed() {
                self.fabric.restart_node(node);
            }
        }
        self.stats.node_restarts.inc();
        reports
    }

    /// Power-fail metadata replica `r` (volatile state lost).
    pub fn crash_meta_replica(&self, r: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3E7A_0000);
        self.fabric
            .crash_node(&self.meta.nodes()[r], CrashSpec::DropAll, &mut rng);
    }

    /// Restart metadata replica `r` from its simulated stable storage:
    /// term, vote, and the versioned state survive the power failure (see
    /// [`MetaService::restart_replica`]). Must run inside a simulated
    /// process.
    pub fn restart_meta_replica(&self, r: usize) {
        self.meta.restart_replica(&self.fabric, r);
    }

    /// Wind the whole cluster down.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        for seat in self.seats.lock().unwrap().iter() {
            seat.server.shutdown();
        }
    }
}
