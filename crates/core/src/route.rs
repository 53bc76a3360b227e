//! The routed client: one eFactory connection per shard, picked by key.
//!
//! Everything eFactory does for a key — the client-active PUT with
//! background verification, the hybrid one-sided GET, transactions —
//! happens inside one client–server [`Client`] connection. Sharding,
//! backup failover and cluster placement only decide *which* server that
//! connection talks to. A [`RoutedClient`] therefore holds one [`Client`]
//! per shard, routes every key with [`key_shard`], and keeps one **seat
//! source** ([`RouteDesc`]) that says how shard `g` is found again after an
//! error. There are three cases:
//!
//! * **Static seat** (a [`Seat`] without a failover handle) — never
//!   re-resolved; errors surface to the caller.
//! * **Replicated seat** (a [`Seat`] whose shard has a backup) — when the
//!   primary stops answering (RPC deadline, one-sided verb error), the
//!   failing RPC waits (bounded) for the promoted backup to publish itself
//!   through the [`ReplHandle`], reconnects shard `g`, and is retried, at
//!   most twice. Because the retry is per RPC, a 2PC transaction keeps its
//!   id across a failover: the retried attempt runs under a new QP, outside
//!   the old connection's exactly-once window, so a blind-write commit may
//!   re-execute (same values, new versions — like a replayed plain PUT)
//!   while read-modify-writes stay correct through read-set re-validation.
//! * **Cluster** ([`RouteDesc::Cluster`]) — placement can change under the
//!   client: a committed live migration makes the old owner answer
//!   `WrongEpoch` (its hash table is poisoned, so even the one-sided GET
//!   falls back to RPC and sees the rejection), and a node restart kills
//!   the old QP. Either way the client re-fetches placement from the
//!   metadata service, reconnects every seat whose owner changed (or whose
//!   QP broke), stamps the new epoch into every connection's location
//!   cache, and retries the **whole** operation with capped exponential
//!   backoff. A `WrongEpoch` from any 2PC participant aborts the attempt
//!   (prepared siblings are actively aborted by
//!   [`crate::txn::put_all_routed`]), and the retry runs with a fresh
//!   transaction id against the refreshed placement.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use efactory_rnic::{Fabric, Node, QpError};
use efactory_sim as sim;
use sim::Nanos;

use crate::client::{Client, ClientConfig, OpCtx, RemoteKv};
use crate::cluster::meta::MetaClient;
use crate::cluster::placement::key_shard;
use crate::cluster::{ClusterHandle, ClusterStats};
use crate::protocol::{Status, StoreError};
use crate::repl::ReplHandle;
use crate::server::StoreDesc;
use crate::txn::{self, SnapOutcome, TxnKv, TxnShard, TxnSnapshot};

/// How long a replicated seat polls its handle for a promotion before
/// giving up. Comfortably covers crash detection (the backup's 100 µs
/// receive deadline) plus drain and replay.
const FAILOVER_DEADLINE: Nanos = 200_000_000; // 200 virtual ms

/// Failovers one RPC may ride through before its error surfaces.
const MAX_FAILOVERS: usize = 2;

/// Bounded whole-op retries after a cluster retarget/refresh. A migrating
/// shard answers `WrongEpoch` for its whole sealed window (drain + fixup +
/// verify + destination recovery), so the budget must outlast it: with the
/// capped backoff below this rides out ~7 ms of rejections while still
/// surfacing a persistently dead owner as an error.
const MAX_RETRIES: usize = 32;

/// Cluster retry backoff cap (the budget above assumes this).
const MAX_BACKOFF: Nanos = 250_000;

/// One shard's endpoint on a single-machine store.
#[derive(Clone)]
pub struct Seat {
    /// The serving (primary) fabric node.
    pub node: Node,
    /// Connection descriptor (MR + geometry).
    pub desc: StoreDesc,
    /// Failover rendezvous when the shard has a backup; `None` for a
    /// static seat.
    pub failover: Option<Arc<ReplHandle>>,
}

/// Everything a [`RoutedClient`] connects with: the shard seats and how
/// they are found again after an error.
#[derive(Clone)]
pub enum RouteDesc {
    /// A single-machine store: shard `g` lives at `seats[g]` (static, or
    /// replicated with failover to its backup).
    Machine(Vec<Seat>),
    /// A multi-node [`Cluster`](crate::cluster::Cluster): seats resolve
    /// through the metadata service and the seat table.
    Cluster {
        /// Seat table rendezvous.
        handle: Arc<ClusterHandle>,
        /// The metadata replicas' fabric nodes.
        meta_nodes: Vec<Node>,
        /// Cluster-layer counters (client retargets and refreshes).
        stats: Arc<ClusterStats>,
    },
}

impl From<Seat> for RouteDesc {
    fn from(seat: Seat) -> RouteDesc {
        RouteDesc::Machine(vec![seat])
    }
}

/// Where the connections came from, and the state needed to re-resolve
/// them.
enum SeatSource {
    /// Single machine: each shard's seat, and whether its connection now
    /// targets the promoted backup.
    Machine {
        seats: Vec<Seat>,
        on_backup: Vec<Cell<bool>>,
    },
    Cluster(Box<Placement>),
}

/// A cluster client's cached placement.
struct Placement {
    handle: Arc<ClusterHandle>,
    stats: Arc<ClusterStats>,
    meta: RefCell<MetaClient>,
    /// Owner node index each per-shard connection targets.
    owners: RefCell<Vec<usize>>,
}

/// Which seats a cluster refresh reconnects even when the owner index is
/// unchanged.
#[derive(Clone, Copy)]
enum Force {
    /// Only seats whose owner changed.
    No,
    /// One specific shard (its QP surfaced a transport error).
    Shard(usize),
    /// Every shard (a whole-placement op failed; the culprit is unknown).
    All,
}

impl Force {
    fn includes(self, g: usize) -> bool {
        match self {
            Force::No => false,
            Force::Shard(s) => s == g,
            Force::All => true,
        }
    }
}

/// A client connected to every shard of an eFactory store, routing each
/// operation to the owner. Not `Sync`: one client per simulated process.
pub struct RoutedClient {
    fabric: Arc<Fabric>,
    local: Node,
    cfg: ClientConfig,
    /// One connection per shard, in shard order.
    conns: Vec<RefCell<Client>>,
    seats: SeatSource,
    failovers: Cell<u64>,
    /// Retries counted by connections since replaced, so
    /// [`retry_total`](Self::retry_total) never goes backwards.
    retired_retries: Cell<u64>,
    /// Transaction-id source shared by all shard connections and surviving
    /// reconnects: one logical transaction carries one id across its 2PC
    /// participants, and a replayed id never aliases an earlier in-doubt
    /// transaction on a promoted backup. Every *attempt* gets a fresh id (a
    /// retried commit is a new transaction), while the RPCs inside one
    /// attempt reuse their request ids across fabric retries as usual.
    next_txn_id: Cell<u64>,
}

impl RoutedClient {
    /// Connect `local` to every shard in `desc` — for a replicated seat
    /// whose backup already promoted, directly to the backup. Must run
    /// inside a simulated process.
    pub fn connect(
        fabric: &Arc<Fabric>,
        local: &Node,
        desc: &RouteDesc,
        cfg: ClientConfig,
    ) -> Result<RoutedClient, StoreError> {
        let open = |g: usize, node: &Node, d: StoreDesc| open(fabric, local, &cfg, g, node, d);
        let mut conns = Vec::new();
        let seats = match desc {
            RouteDesc::Machine(seats) => {
                assert!(!seats.is_empty(), "a store has at least one shard");
                let mut on_backup = Vec::with_capacity(seats.len());
                for (g, seat) in seats.iter().enumerate() {
                    let promoted = seat.failover.as_ref().and_then(|h| h.promoted());
                    let c = match &promoted {
                        Some(p) => open(g, &p.node, p.desc)?,
                        None => open(g, &seat.node, seat.desc)?,
                    };
                    conns.push(RefCell::new(c));
                    on_backup.push(Cell::new(promoted.is_some()));
                }
                SeatSource::Machine {
                    seats: seats.clone(),
                    on_backup,
                }
            }
            RouteDesc::Cluster {
                handle,
                meta_nodes,
                stats,
            } => {
                let mut meta = MetaClient::new(fabric, local, meta_nodes);
                let state = meta
                    .get_map(sim::now() + sim::millis(5))
                    .ok_or(StoreError::Protocol)?;
                let epoch = state.placement.epoch;
                let mut owners = Vec::with_capacity(handle.shards());
                for g in 0..handle.shards() {
                    let seat = handle.seat(g);
                    let c = open(g, &seat.node, seat.desc)?;
                    c.set_placement_epoch(epoch);
                    conns.push(RefCell::new(c));
                    owners.push(seat.owner);
                }
                SeatSource::Cluster(Box::new(Placement {
                    handle: Arc::clone(handle),
                    stats: Arc::clone(stats),
                    meta: RefCell::new(meta),
                    owners: RefCell::new(owners),
                }))
            }
        };
        Ok(RoutedClient {
            fabric: Arc::clone(fabric),
            local: local.clone(),
            cfg,
            conns,
            seats,
            failovers: Cell::new(0),
            retired_retries: Cell::new(0),
            next_txn_id: Cell::new(1),
        })
    }

    /// The shard `key` routes to.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        key_shard(key, self.conns.len())
    }

    /// Whether every shard is served by its promoted backup.
    pub fn on_backup(&self) -> bool {
        match &self.seats {
            SeatSource::Machine { on_backup, .. } => on_backup.iter().all(Cell::get),
            SeatSource::Cluster(_) => false,
        }
    }

    /// How many times this client re-resolved a shard to its promoted
    /// backup.
    pub fn failovers(&self) -> u64 {
        self.failovers.get()
    }

    /// Store `value` under `key` on the owning shard.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.route(key, |c| c.put(key, value))
    }

    /// Read `key` from the owning shard.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.route(key, |c| c.get(key))
    }

    /// Delete `key` (tombstone) on the owning shard.
    pub fn del(&self, key: &[u8]) -> Result<(), StoreError> {
        self.route(key, |c| c.del(key))
    }

    /// Sum of every connection's retry counters (see
    /// [`Client::retry_total`]), replaced ones included; deltas across an
    /// op give its root span's `retries` arg.
    pub(crate) fn retry_total(&self) -> u64 {
        let live: u64 = self.conns.iter().map(|c| c.borrow().retry_total()).sum();
        self.retired_retries.get() + live
    }

    /// Swap shard `g`'s connection for `c` (failover or retarget).
    fn replace(&self, g: usize, c: Client) {
        let old = self.conns[g].replace(c);
        self.retired_retries
            .set(self.retired_retries.get() + old.retry_total());
    }

    fn open(&self, g: usize, node: &Node, desc: StoreDesc) -> Result<Client, StoreError> {
        open(&self.fabric, &self.local, &self.cfg, g, node, desc)
    }

    /// A single-key operation on `key`'s owning shard.
    fn route<T>(
        &self,
        key: &[u8],
        op: impl Fn(&Client) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        self.retry_op(Some(key), || self.call(self.shard_of(key), &op))
    }

    /// One RPC on shard `g`. A replicated seat rides out a dead primary by
    /// reconnecting to its promoted backup and retrying.
    fn call<T>(
        &self,
        g: usize,
        op: impl Fn(&Client) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut failovers = 0;
        loop {
            let result = op(&self.conns[g].borrow());
            match result {
                Err(StoreError::Qp(
                    QpError::Crashed | QpError::Timeout | QpError::Disconnected,
                )) if failovers < MAX_FAILOVERS && self.failover_handle(g).is_some() => {
                    failovers += 1;
                    self.failover(g)?;
                }
                other => return other,
            }
        }
    }

    fn failover_handle(&self, g: usize) -> Option<&Arc<ReplHandle>> {
        match &self.seats {
            SeatSource::Machine { seats, .. } => seats[g].failover.as_ref(),
            SeatSource::Cluster(_) => None,
        }
    }

    /// Wait (bounded) for shard `g`'s backup to finish promoting, then
    /// reconnect to it.
    fn failover(&self, g: usize) -> Result<(), StoreError> {
        let SeatSource::Machine { seats, on_backup } = &self.seats else {
            unreachable!("cluster seats have no backup");
        };
        let handle = seats[g].failover.as_ref().expect("replicated seat");
        let deadline = sim::now() + FAILOVER_DEADLINE;
        loop {
            if let Some(p) = handle.promoted() {
                self.replace(g, self.open(g, &p.node, p.desc)?);
                on_backup[g].set(true);
                self.failovers.set(self.failovers.get() + 1);
                return Ok(());
            }
            if sim::now() >= deadline {
                return Err(StoreError::Qp(QpError::Timeout));
            }
            sim::sleep(sim::micros(100));
        }
    }

    /// Run a whole operation. In a cluster, a `WrongEpoch` or transport
    /// error refreshes placement and retries it, bounded by
    /// [`MAX_RETRIES`]; `key` names the shard whose QP a transport error
    /// condemns (`None`: a multi-shard op — rebuild every seat). Elsewhere
    /// the op runs once.
    fn retry_op<T>(
        &self,
        key: Option<&[u8]>,
        mut op: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let SeatSource::Cluster(pl) = &self.seats else {
            return op();
        };
        let mut backoff = sim::micros(5);
        let mut last = StoreError::Protocol;
        for _ in 0..MAX_RETRIES {
            match op() {
                Ok(v) => return Ok(v),
                Err(StoreError::Status(Status::WrongEpoch)) => {
                    pl.stats.client_retargets.inc();
                    last = StoreError::Status(Status::WrongEpoch);
                    self.refresh(pl, Force::No);
                }
                Err(StoreError::Qp(e)) => {
                    last = StoreError::Qp(e);
                    let force = key.map_or(Force::All, |k| Force::Shard(self.shard_of(k)));
                    self.refresh(pl, force);
                }
                Err(e) => return Err(e),
            }
            sim::sleep(backoff);
            backoff = (backoff * 2).min(MAX_BACKOFF);
        }
        Err(last)
    }

    /// Re-learn placement from the metadata service and reconnect every
    /// seat whose owner changed, plus whatever `force` names (its QP broke:
    /// a restarted owner has a fresh listener and registration even though
    /// the owner index is unchanged). Stamps the fresh epoch into every
    /// connection's location cache. An unreachable metadata service or a
    /// failed reconnect leaves the seat as it was; the caller backs off and
    /// retries.
    fn refresh(&self, pl: &Placement, force: Force) {
        pl.stats.client_refreshes.inc();
        let Some(state) = pl.meta.borrow_mut().get_map(sim::now() + sim::millis(2)) else {
            return;
        };
        let mut owners = pl.owners.borrow_mut();
        for (g, owner) in owners.iter_mut().enumerate() {
            let seat = pl.handle.seat(g);
            if seat.owner != *owner || force.includes(g) {
                if let Ok(c) = self.open(g, &seat.node, seat.desc) {
                    self.replace(g, c);
                    *owner = seat.owner;
                }
            }
        }
        for c in &self.conns {
            c.borrow().set_placement_epoch(state.placement.epoch);
        }
    }

    /// Run a transactional operation under one root span (`kind`, `shard`,
    /// `key_fp`, `retries`), exactly like a single [`Client`]'s. Returns
    /// the span's context so the caller can attach the commit timestamp.
    fn traced<T>(
        &self,
        kind: u64,
        key: &[u8],
        op: impl FnOnce() -> Result<T, StoreError>,
    ) -> (Result<T, StoreError>, OpCtx) {
        self.poll_events();
        let mut ctx = self.conns[self.shard_of(key)].borrow().op_root(kind, key);
        let before = self.retry_total();
        let result = op();
        ctx.set_retries(self.retry_total() - before);
        (result, ctx)
    }

    /// A committed transaction: count it and stamp its timestamp on the
    /// root span.
    fn committed(
        &self,
        result: Result<u64, StoreError>,
        mut ctx: OpCtx,
    ) -> Result<u64, StoreError> {
        if let Ok(ts) = &result {
            self.conns[0].borrow().txn_commit_ctr.inc();
            ctx.arg("commit_ts", *ts);
        }
        result
    }

    fn poll_events(&self) {
        for c in &self.conns {
            c.borrow().poll_events();
        }
    }

    /// Per-shard transactional handles for the routed txn drivers.
    fn shard_refs(&self) -> Vec<ShardRef<'_>> {
        (0..self.conns.len())
            .map(|g| ShardRef { client: self, g })
            .collect()
    }
}

/// Connect shard `g`'s connection (its root spans carry `shard = g`).
fn open(
    fabric: &Arc<Fabric>,
    local: &Node,
    cfg: &ClientConfig,
    g: usize,
    node: &Node,
    desc: StoreDesc,
) -> Result<Client, StoreError> {
    let mut cfg = cfg.clone();
    cfg.shard = g as u32;
    Client::connect(fabric, local, node, desc, cfg)
}

impl RemoteKv for RoutedClient {
    fn kv_put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.put(key, value)
    }
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.get(key)
    }
}

impl TxnKv for RoutedClient {
    fn txn_put_all(&self, puts: &[(Vec<u8>, Vec<u8>)]) -> Result<u64, StoreError> {
        let first = puts.first().map(|(k, _)| k.as_slice()).unwrap_or(b"");
        let (result, ctx) = self.traced(3, first, || {
            self.retry_op(None, || {
                txn::put_all_routed(&self.shard_refs(), &self.next_txn_id, puts)
            })
        });
        self.committed(result, ctx)
    }

    fn txn_rmw(
        &self,
        key: &[u8],
        f: &mut dyn FnMut(Option<Vec<u8>>) -> Vec<u8>,
    ) -> Result<u64, StoreError> {
        let (result, ctx) = self.traced(3, key, || {
            self.retry_op(None, || {
                txn::rmw_routed(&self.shard_refs(), &self.next_txn_id, key, &mut *f)
            })
        });
        self.committed(result, ctx)
    }

    fn snapshot(&self) -> Result<TxnSnapshot, StoreError> {
        self.poll_events();
        self.retry_op(None, || txn::snapshot_all(&self.shard_refs()))
    }

    fn snap_get(&self, key: &[u8], snap: &TxnSnapshot) -> Result<Option<Vec<u8>>, StoreError> {
        self.traced(4, key, || {
            self.retry_op(None, || txn::snap_get_routed(&self.shard_refs(), key, snap))
        })
        .0
    }
}

/// Shard `g` of a [`RoutedClient`], as one participant of the routed
/// transaction drivers: every RPC goes through the seat's failover policy.
struct ShardRef<'a> {
    client: &'a RoutedClient,
    g: usize,
}

impl TxnShard for ShardRef<'_> {
    fn shard_txn_commit(
        &self,
        txn_id: u64,
        reads: &[(Vec<u8>, u32)],
        puts: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(Status, u64), StoreError> {
        self.client
            .call(self.g, |c| c.shard_txn_commit(txn_id, reads, puts))
    }

    fn shard_txn_prepare(
        &self,
        txn_id: u64,
        reads: &[(Vec<u8>, u32)],
        puts: &[(Vec<u8>, Vec<u8>)],
    ) -> Result<(Status, u64), StoreError> {
        self.client
            .call(self.g, |c| c.shard_txn_prepare(txn_id, reads, puts))
    }

    fn shard_txn_decide(
        &self,
        txn_id: u64,
        commit: bool,
        commit_ts: u64,
    ) -> Result<Status, StoreError> {
        self.client
            .call(self.g, |c| c.shard_txn_decide(txn_id, commit, commit_ts))
    }

    fn shard_snap_capture(&self) -> Result<(Status, u64), StoreError> {
        self.client.call(self.g, |c| c.shard_snap_capture())
    }

    fn shard_snap_get(&self, key: &[u8], snap_ts: u64) -> Result<SnapOutcome, StoreError> {
        self.client.call(self.g, |c| c.shard_snap_get(key, snap_ts))
    }

    fn shard_get_with_seq(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, u32), StoreError> {
        self.client.call(self.g, |c| c.shard_get_with_seq(key))
    }
}
