//! Replicated cluster metadata/membership service.
//!
//! Three (by default) replica processes, each on its own fabric node
//! (`meta{r}`), keep the cluster's control-plane state — the placement
//! map, per-node liveness, and the at-most-one in-flight migration —
//! consistent by replicating one small versioned [`MetaState`]:
//!
//! * **Versions.** Every replica holds a state and its version
//!   `(term, index)`: the term of the leader that wrote the state and the
//!   number of commands applied to reach it. Versions compare
//!   lexicographically, so a state written in a later term beats any
//!   state from an earlier one, whatever its index.
//! * **Terms + election.** Replicas start as followers. A follower that
//!   hears nothing from a leader for its (deterministically staggered)
//!   election timeout campaigns: it bumps its term, votes for itself, and
//!   requests votes from its peers. A vote is granted at most once per
//!   term and only to a candidate whose version is at least the voter's —
//!   the rule that keeps a committed state on whoever wins. Majority
//!   grants make a leader, which stamps its state with the new term before
//!   serving (Raft's no-op entry: a state inherited from an earlier term
//!   is not known committed until one of this term's rounds carries it).
//! * **Replication.** The leader applies a `Propose`d command to its
//!   state, bumps the version to `(term, index + 1)`, persists it, and
//!   sends every peer an `Append` carrying `(term, leader, version,
//!   state)`. A follower overwrites its version and state on every
//!   current-term `Append`. The command is committed once a majority
//!   (leader included) acks that round; only then is the proposer
//!   answered. The state is tiny — a placement map, a liveness vector and
//!   one migration slot — so shipping it whole replaces a log, its
//!   compaction, and per-follower repair.
//! * **Death detection via the virtual clock.** Each data node's agent
//!   heartbeats the leader. The leader sweeps `last_seen` on its
//!   heartbeat tick and proposes `NodeDown` when a node has been silent
//!   past the death timeout; a heartbeat from a down node proposes
//!   `NodeUp`. Liveness transitions are therefore replicated facts, not
//!   per-replica opinions.
//!
//! Two load-bearing rules (DESIGN.md §10):
//!
//! * **Persistence.** Term, vote, version, and state are written to the
//!   replica's simulated stable storage before they are acted on over
//!   the network, and a power-failed replica reboots *from* that
//!   storage. Without this, a restarted replica could double-vote in a
//!   term it already voted in, or grant a vote to a candidate missing a
//!   committed state — letting an acknowledged command be erased.
//! * **Read-index + step-down.** The leader only answers `GetMap` after
//!   a replication round confirms a majority still follows it, and any
//!   round that loses its majority makes it step down — so a deposed
//!   leader on the wrong side of a partition can never serve a stale
//!   placement map as authoritative.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use efactory_obs::{Counter, Registry};
use efactory_rnic::{ClientQp, Fabric, Incoming, Listener, Node, QpError};
use efactory_sim as sim;
use sim::Nanos;

use super::placement::PlacementMap;

/// Control-plane commands. The leader applies them to the replicated
/// state one at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaCmd {
    /// `node` stopped heartbeating: mark it dead. Aborts an in-flight
    /// migration touching it (the driver observes and gives up).
    NodeDown(u32),
    /// `node` is heartbeating again (restarted + recovered).
    NodeUp(u32),
    /// Begin migrating `shard` to `to`. At most one migration is in
    /// flight cluster-wide.
    MigrateStart { shard: u32, to: u32 },
    /// The copy is verified: flip ownership of `shard` to the migration
    /// destination and bump the placement epoch.
    MigrateCommit { shard: u32 },
    /// Abandon the in-flight migration of `shard`; the source stays the
    /// one owner.
    MigrateAbort { shard: u32 },
}

impl MetaCmd {
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(9);
        match self {
            MetaCmd::NodeDown(n) => {
                b.push(1);
                b.extend_from_slice(&n.to_le_bytes());
            }
            MetaCmd::NodeUp(n) => {
                b.push(2);
                b.extend_from_slice(&n.to_le_bytes());
            }
            MetaCmd::MigrateStart { shard, to } => {
                b.push(3);
                b.extend_from_slice(&shard.to_le_bytes());
                b.extend_from_slice(&to.to_le_bytes());
            }
            MetaCmd::MigrateCommit { shard } => {
                b.push(4);
                b.extend_from_slice(&shard.to_le_bytes());
            }
            MetaCmd::MigrateAbort { shard } => {
                b.push(5);
                b.extend_from_slice(&shard.to_le_bytes());
            }
        }
        b
    }

    fn decode(b: &[u8]) -> Option<MetaCmd> {
        let u32_at = |off: usize| -> Option<u32> {
            b.get(off..off + 4)
                .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
        };
        match *b.first()? {
            1 => Some(MetaCmd::NodeDown(u32_at(1)?)),
            2 => Some(MetaCmd::NodeUp(u32_at(1)?)),
            3 => Some(MetaCmd::MigrateStart {
                shard: u32_at(1)?,
                to: u32_at(5)?,
            }),
            4 => Some(MetaCmd::MigrateCommit { shard: u32_at(1)? }),
            5 => Some(MetaCmd::MigrateAbort { shard: u32_at(1)? }),
            _ => None,
        }
    }
}

/// The replicated control-plane state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaState {
    /// Who owns which shard, tagged with the placement epoch.
    pub placement: PlacementMap,
    /// Per data node liveness, as decided by the leader's death sweep.
    pub alive: Vec<bool>,
    /// The at-most-one in-flight migration: `(shard, destination)`.
    pub migrating: Option<(u32, u32)>,
}

impl MetaState {
    /// The initial state every replica boots with: round-robin placement,
    /// everyone alive, nothing migrating.
    pub fn initial(shards: usize, nodes: usize) -> MetaState {
        MetaState {
            placement: PlacementMap::initial(shards, nodes),
            alive: vec![true; nodes],
            migrating: None,
        }
    }

    /// Apply one command. Total and deterministic: invalid commands (e.g.
    /// a commit for a migration that was already aborted) are no-ops,
    /// which the leader rejects instead of replicating.
    pub fn apply(&mut self, cmd: &MetaCmd) {
        match *cmd {
            MetaCmd::NodeDown(n) => {
                if let Some(a) = self.alive.get_mut(n as usize) {
                    *a = false;
                }
                // A migration whose source or destination died cannot
                // finish: auto-abort so the slot frees up.
                if let Some((g, to)) = self.migrating {
                    let from = self.placement.node_of_shard(g as usize);
                    if to == n || from == n as usize {
                        self.migrating = None;
                    }
                }
            }
            MetaCmd::NodeUp(n) => {
                if let Some(a) = self.alive.get_mut(n as usize) {
                    *a = true;
                }
            }
            MetaCmd::MigrateStart { shard, to } => {
                let valid = self.migrating.is_none()
                    && (shard as usize) < self.placement.shards()
                    && (to as usize) < self.alive.len()
                    && self.alive[to as usize]
                    && self.placement.node_of_shard(shard as usize) != to as usize;
                if valid {
                    self.migrating = Some((shard, to));
                }
            }
            MetaCmd::MigrateCommit { shard } => {
                if let Some((g, to)) = self.migrating {
                    if g == shard {
                        self.placement.reassign(g as usize, to as usize);
                        self.migrating = None;
                    }
                }
            }
            MetaCmd::MigrateAbort { shard } => {
                if let Some((g, _)) = self.migrating {
                    if g == shard {
                        self.migrating = None;
                    }
                }
            }
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut b = self.placement.encode();
        b.extend_from_slice(&(self.alive.len() as u32).to_le_bytes());
        b.extend(self.alive.iter().map(|&a| a as u8));
        match self.migrating {
            Some((g, to)) => {
                b.push(1);
                b.extend_from_slice(&g.to_le_bytes());
                b.extend_from_slice(&to.to_le_bytes());
            }
            None => b.push(0),
        }
        b
    }

    fn decode(b: &[u8]) -> Option<MetaState> {
        let placement = PlacementMap::decode(b)?;
        let mut off = 12 + 4 * placement.shards();
        let n = u32::from_le_bytes(b.get(off..off + 4)?.try_into().unwrap()) as usize;
        off += 4;
        let alive: Vec<bool> = b.get(off..off + n)?.iter().map(|&x| x != 0).collect();
        off += n;
        let migrating = match *b.get(off)? {
            1 => {
                let g = u32::from_le_bytes(b.get(off + 1..off + 5)?.try_into().unwrap());
                let to = u32::from_le_bytes(b.get(off + 5..off + 9)?.try_into().unwrap());
                Some((g, to))
            }
            _ => None,
        };
        Some(MetaState {
            placement,
            alive,
            migrating,
        })
    }
}

/// Aggregate counters for the metadata service (shared by all replicas —
/// the audit cares about service-level activity, not per-replica splits).
#[derive(Debug, Default)]
pub struct MetaStats {
    /// Leader elections won (across all replicas and terms).
    pub elections: Counter,
    /// Highest term ever adopted (gauge-as-counter: monotone max).
    pub terms: Counter,
    /// Proposals committed (majority-acked) by a leader.
    pub commits: Counter,
    /// State versions adopted by a replica: a leader applying a proposal,
    /// or a follower taking a different version from an `Append`.
    pub applies: Counter,
    /// Append RPCs sent by leaders (heartbeats included).
    pub appends: Counter,
    /// Data-node heartbeats processed by a leader.
    pub heartbeats: Counter,
    /// `NodeDown` transitions committed (counted once, by the leader).
    pub node_downs: Counter,
    /// `NodeUp` transitions committed (counted once, by the leader).
    pub node_ups: Counter,
    /// Proposals rejected by leader-side validation.
    pub rejects: Counter,
    /// `GetMap` reads served by a leader.
    pub getmaps: Counter,
}

impl MetaStats {
    /// Attach every counter to `reg` under `meta.*` names.
    pub fn register(&self, reg: &Registry) {
        let pairs: [(&str, &Counter); 10] = [
            ("meta.elections", &self.elections),
            ("meta.terms", &self.terms),
            ("meta.commits", &self.commits),
            ("meta.applies", &self.applies),
            ("meta.appends", &self.appends),
            ("meta.heartbeats", &self.heartbeats),
            ("meta.node_downs", &self.node_downs),
            ("meta.node_ups", &self.node_ups),
            ("meta.rejects", &self.rejects),
            ("meta.getmaps", &self.getmaps),
        ];
        for (name, c) in pairs {
            reg.attach_counter(name, c);
        }
    }
}

/// Timing knobs for the service. All deterministic; the election timeout
/// is staggered per replica so campaigns never tie.
#[derive(Debug, Clone)]
pub struct MetaTiming {
    /// Replica loop tick (listener receive deadline).
    pub tick: Nanos,
    /// Leader heartbeat (empty `Append`) period; also the death-sweep
    /// cadence.
    pub heartbeat_every: Nanos,
    /// Base election timeout; replica `r` waits `base + r * stagger`.
    pub election_base: Nanos,
    /// Per-replica election stagger.
    pub election_stagger: Nanos,
    /// Peer RPC reply deadline (votes, append acks).
    pub peer_rpc: Nanos,
    /// A data node silent for this long is proposed down.
    pub death_timeout: Nanos,
}

impl Default for MetaTiming {
    fn default() -> Self {
        MetaTiming {
            tick: sim::micros(10),
            heartbeat_every: sim::micros(40),
            election_base: sim::micros(200),
            election_stagger: sim::micros(80),
            peer_rpc: sim::micros(50),
            death_timeout: sim::micros(400),
        }
    }
}

// ---------------------------------------------------------------------
// Wire protocol. Peer messages (replica <-> replica) and client messages
// (agents, drivers, cluster clients) share one listener per replica.
// ---------------------------------------------------------------------

const M_REQUEST_VOTE: u8 = 0x01;
const M_APPEND: u8 = 0x02;
const M_GET_MAP: u8 = 0x10;
const M_PROPOSE: u8 = 0x11;
const M_HEARTBEAT: u8 = 0x12;

const R_VOTE: u8 = 0x81;
const R_APPEND_ACK: u8 = 0x82;
const R_MAP: u8 = 0x90;
const R_PROPOSE: u8 = 0x91;
const R_HEARTBEAT_ACK: u8 = 0x92;

/// Reply status for client-facing RPCs.
const S_OK: u8 = 0;
const S_NOT_LEADER: u8 = 1;
const S_REJECTED: u8 = 2;
const S_UNAVAILABLE: u8 = 3;

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(b: &[u8], off: usize) -> Option<u64> {
    b.get(off..off + 8)
        .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
}

/// A state's version: `(term, index)` — the term of the leader that wrote
/// it and the number of commands applied to reach it. Ordered
/// lexicographically.
type Version = (u64, u64);

/// A replica's simulated stable storage: exactly the state that must
/// survive a power failure — current term, vote, and the versioned state.
/// The [`MetaService`] owns one cell per replica; a restarted replica
/// process reboots from it, so a vote it granted or a state it
/// acknowledged can never be un-acknowledged by a crash. The store is
/// atomic (the sim's cooperative scheduling cannot preempt it), modelling
/// an fsync'd write that completes before the next message is sent.
#[derive(Clone)]
struct Durable {
    term: u64,
    voted_for: Option<u32>,
    version: Version,
    state: MetaState,
}

/// One replica of the metadata service.
struct Replica {
    r: usize,
    n_replicas: usize,
    data_nodes: usize,
    node: Node,
    fabric: Arc<Fabric>,
    peers: Vec<Option<ClientQp>>,
    peer_nodes: Vec<Node>,
    /// Do not contact peer `p` again before this instant. A peer that
    /// just timed out costs a full `peer_rpc` deadline of *blocking* per
    /// attempt (a partitioned link swallows the request silently), so
    /// probing it on every round would leave the leader wedged in dead
    /// RPCs instead of serving — back off and re-probe periodically.
    peer_backoff: Vec<Nanos>,

    term: u64,
    voted_for: Option<u32>,
    is_leader: bool,
    leader_hint: u32,
    version: Version,
    state: MetaState,

    last_contact: Nanos,
    next_heartbeat: Nanos,
    last_seen: Vec<Nanos>,

    durable: Arc<Mutex<Durable>>,
    timing: MetaTiming,
    stats: Arc<MetaStats>,
    stop: Arc<AtomicBool>,
}

/// The service handle: replica nodes + shared state, owned by the
/// [`Cluster`](super::Cluster).
pub struct MetaService {
    nodes: Vec<Node>,
    /// Per-replica simulated stable storage (survives power failure).
    durable: Vec<Arc<Mutex<Durable>>>,
    data_nodes: usize,
    timing: MetaTiming,
    stats: Arc<MetaStats>,
    stop: Arc<AtomicBool>,
}

impl MetaService {
    /// Create `replicas` replica nodes (named `meta{r}`) on `fabric`.
    /// Processes start in [`start`](Self::start).
    pub fn new(
        fabric: &Fabric,
        replicas: usize,
        data_nodes: usize,
        init: MetaState,
        timing: MetaTiming,
        stats: Arc<MetaStats>,
        stop: Arc<AtomicBool>,
    ) -> MetaService {
        assert!(replicas >= 1 && replicas % 2 == 1, "odd replica count");
        let nodes = (0..replicas)
            .map(|r| fabric.add_node(&format!("meta{r}")))
            .collect();
        let fresh = Durable {
            term: 0,
            voted_for: None,
            version: (0, 0),
            state: init,
        };
        let durable = (0..replicas)
            .map(|_| Arc::new(Mutex::new(fresh.clone())))
            .collect();
        MetaService {
            nodes,
            durable,
            data_nodes,
            timing,
            stats,
            stop,
        }
    }

    /// The replica fabric nodes (clients round-robin these to find the
    /// leader).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Spawn every replica process. Must run inside a simulated process
    /// (listeners are created here, so replicas are addressable when this
    /// returns).
    pub fn start(&self, fabric: &Arc<Fabric>) {
        for r in 0..self.nodes.len() {
            self.spawn_replica(fabric, r);
        }
    }

    /// Re-admit a power-failed replica: restart its node and reboot the
    /// process from its simulated stable storage. Term, vote, version and
    /// state survive the failure — the classic Raft requirement — so the
    /// restarted replica can neither double-vote in a term it already
    /// voted in nor elect a candidate missing a committed state.
    pub fn restart_replica(&self, fabric: &Arc<Fabric>, r: usize) {
        fabric.restart_node(&self.nodes[r]);
        self.spawn_replica(fabric, r);
    }

    fn spawn_replica(&self, fabric: &Arc<Fabric>, r: usize) {
        let node = &self.nodes[r];
        let listener = node.listen_with(fabric, false, 0);
        let d = self.durable[r].lock().unwrap().clone();
        let mut rep = Replica {
            r,
            n_replicas: self.nodes.len(),
            data_nodes: self.data_nodes,
            node: node.clone(),
            fabric: Arc::clone(fabric),
            peers: (0..self.nodes.len()).map(|_| None).collect(),
            peer_nodes: self.nodes.clone(),
            peer_backoff: vec![0; self.nodes.len()],
            term: d.term,
            voted_for: d.voted_for,
            is_leader: false,
            leader_hint: 0,
            version: d.version,
            state: d.state,
            last_contact: sim::now(),
            next_heartbeat: 0,
            last_seen: vec![sim::now(); self.data_nodes],
            durable: Arc::clone(&self.durable[r]),
            timing: self.timing.clone(),
            stats: Arc::clone(&self.stats),
            stop: Arc::clone(&self.stop),
        };
        sim::spawn(&format!("efactory-meta{r}"), move || rep.run(listener));
    }
}

impl Replica {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.node.is_crashed()
    }

    fn election_timeout(&self) -> Nanos {
        self.timing.election_base + self.r as Nanos * self.timing.election_stagger
    }

    fn majority(&self) -> usize {
        self.n_replicas / 2 + 1
    }

    /// Write the persistent state (term, vote, version, state) to stable
    /// storage. Must run after every mutation of those fields and before
    /// the mutation is acted on over the network.
    fn persist(&self) {
        *self.durable.lock().unwrap() = Durable {
            term: self.term,
            voted_for: self.voted_for,
            version: self.version,
            state: self.state.clone(),
        };
    }

    fn run(&mut self, listener: Listener) {
        loop {
            if self.stopping() {
                return;
            }
            match listener.recv_deadline(sim::now() + self.timing.tick) {
                Ok(Incoming::Send { from, payload }) => {
                    self.dispatch(&listener, from, &payload);
                }
                Ok(_) => {}
                Err(QpError::Timeout) => {}
                Err(_) => return,
            }
            self.tick_duties();
        }
    }

    /// Time-driven work: elections for followers, heartbeats + death
    /// sweep for the leader. A heartbeat round that loses its majority
    /// steps the leader down (see [`replicate`](Self::replicate)), so the
    /// death sweep never runs on deposed state.
    fn tick_duties(&mut self) {
        let now = sim::now();
        if self.is_leader {
            if now >= self.next_heartbeat {
                self.next_heartbeat = now + self.timing.heartbeat_every;
                if self.replicate() {
                    self.death_sweep();
                }
            }
        } else if now.saturating_sub(self.last_contact) > self.election_timeout() {
            self.campaign();
        }
    }

    /// A replica-crash epoch guard wrapper: peer QPs die with the peer;
    /// drop and lazily re-dial.
    fn peer_qp(&mut self, p: usize) -> Option<&ClientQp> {
        if self.peers[p].is_none() {
            self.peers[p] = self.fabric.connect(&self.node, &self.peer_nodes[p]).ok();
        }
        self.peers[p].as_ref()
    }

    fn adopt_term(&mut self, term: u64) {
        if term > self.term {
            self.term = term;
            self.voted_for = None;
            self.is_leader = false;
            self.persist();
            // Track the max term as a monotone counter.
            while self.stats.terms.get() < term {
                self.stats.terms.inc();
            }
        }
    }

    fn campaign(&mut self) {
        self.adopt_term(self.term + 1);
        self.voted_for = Some(self.r as u32);
        self.persist();
        self.last_contact = sim::now();
        let mut req = vec![M_REQUEST_VOTE];
        put_u64(&mut req, self.term);
        req.extend_from_slice(&(self.r as u32).to_le_bytes());
        put_u64(&mut req, self.version.0);
        put_u64(&mut req, self.version.1);

        let mut votes = 1usize; // self
        for p in 0..self.n_replicas {
            if p == self.r {
                continue;
            }
            let deadline = sim::now() + self.timing.peer_rpc;
            let reply = (|| {
                let qp = self.peer_qp(p)?;
                qp.send(req.clone()).ok()?;
                qp.recv_reply_deadline(deadline).ok()
            })();
            match reply {
                Some(b) if b.first() == Some(&R_VOTE) => {
                    let term = get_u64(&b, 1).unwrap_or(0);
                    if term > self.term {
                        self.adopt_term(term);
                        return;
                    }
                    if b.get(9) == Some(&1) {
                        votes += 1;
                    }
                }
                Some(_) => {}
                None => self.peers[p] = None,
            }
        }
        if votes >= self.majority() {
            self.is_leader = true;
            self.leader_hint = self.r as u32;
            // A fresh mandate probes every peer, whatever its history.
            self.peer_backoff.iter_mut().for_each(|b| *b = 0);
            self.next_heartbeat = 0; // heartbeat immediately
                                     // Fresh grace for every data node so a new leader does not
                                     // instantly declare the world dead.
            let now = sim::now();
            self.last_seen.iter_mut().for_each(|t| *t = now);
            self.stats.elections.inc();
            // Stamp the inherited state with this term, then establish it
            // on a majority BEFORE serving. A state from an earlier term
            // is not known committed: a majority holding it could still
            // lose an election to a replica holding a later-term state.
            // Once a majority holds it under this term's version, no such
            // replica can win. A read or proposal validated against it
            // before this round would be answered from the past.
            self.version.0 = self.term;
            self.persist();
            self.replicate();
        }
    }

    /// Ship the versioned state to every peer. Doubles as the heartbeat,
    /// the commit round of a proposal, AND the leadership confirmation:
    /// returns `true` iff a majority acked this round. A round that loses
    /// its majority steps the leader down — a quorum on the other side of
    /// a partition may already follow a newer leader, so continuing to
    /// serve reads or validate proposals here would use stale state.
    fn replicate(&mut self) -> bool {
        let mut msg = vec![M_APPEND];
        put_u64(&mut msg, self.term);
        msg.extend_from_slice(&(self.r as u32).to_le_bytes());
        put_u64(&mut msg, self.version.0);
        put_u64(&mut msg, self.version.1);
        msg.extend_from_slice(&self.state.encode());

        let mut acks = 1usize; // self
        for p in 0..self.n_replicas {
            if p == self.r {
                continue;
            }
            // A backed-off peer counts as silent (no ack) this round —
            // conservative for both the commit and the majority
            // confirmation, never optimistic.
            if sim::now() < self.peer_backoff[p] {
                continue;
            }
            self.stats.appends.inc();
            let deadline = sim::now() + self.timing.peer_rpc;
            let reply = (|| {
                let qp = self.peer_qp(p)?;
                qp.send(msg.clone()).ok()?;
                qp.recv_reply_deadline(deadline).ok()
            })();
            match reply {
                Some(b) if b.first() == Some(&R_APPEND_ACK) => {
                    self.peer_backoff[p] = 0;
                    let term = get_u64(&b, 1).unwrap_or(0);
                    if term > self.term {
                        self.adopt_term(term);
                        return false;
                    }
                    if b.get(9) == Some(&1) {
                        acks += 1;
                    }
                }
                Some(_) => {}
                None => {
                    self.peers[p] = None;
                    self.peer_backoff[p] = sim::now() + 3 * self.timing.heartbeat_every;
                }
            }
        }
        if acks < self.majority() {
            self.is_leader = false;
            self.last_contact = sim::now();
            return false;
        }
        true
    }

    /// Leader-side proposal: apply `cmd` to the state, bump the version,
    /// persist, replicate. Returns the client-facing status: `S_OK` iff
    /// committed, `S_REJECTED` when `cmd` would not change the state.
    fn propose(&mut self, cmd: &MetaCmd) -> u8 {
        if !self.is_leader {
            return S_NOT_LEADER;
        }
        let mut next = self.state.clone();
        next.apply(cmd);
        if next == self.state {
            self.stats.rejects.inc();
            return S_REJECTED;
        }
        self.state = next;
        self.version = (self.term, self.version.1 + 1);
        self.stats.applies.inc();
        self.persist();
        if !self.replicate() {
            return S_UNAVAILABLE;
        }
        self.stats.commits.inc();
        match cmd {
            MetaCmd::NodeDown(_) => self.stats.node_downs.inc(),
            MetaCmd::NodeUp(_) => self.stats.node_ups.inc(),
            _ => {}
        }
        S_OK
    }

    fn death_sweep(&mut self) {
        let now = sim::now();
        for i in 0..self.data_nodes {
            if !self.is_leader {
                return; // a failed propose round deposed us mid-sweep
            }
            if self.state.alive[i]
                && now.saturating_sub(self.last_seen[i]) > self.timing.death_timeout
            {
                self.propose(&MetaCmd::NodeDown(i as u32));
            }
        }
    }

    fn dispatch(&mut self, listener: &Listener, from: efactory_rnic::QpId, payload: &[u8]) {
        let reply = match payload.first() {
            Some(&M_REQUEST_VOTE) => self.on_request_vote(payload),
            Some(&M_APPEND) => self.on_append(payload),
            Some(&M_GET_MAP) => self.on_get_map(),
            Some(&M_PROPOSE) => self.on_propose(payload),
            Some(&M_HEARTBEAT) => self.on_heartbeat(payload),
            _ => return,
        };
        let _ = listener.reply(from, reply);
    }

    fn on_request_vote(&mut self, b: &[u8]) -> Vec<u8> {
        let term = get_u64(b, 1).unwrap_or(0);
        let cand = b
            .get(9..13)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
            .unwrap_or(0);
        let cand_version = (get_u64(b, 13).unwrap_or(0), get_u64(b, 21).unwrap_or(0));
        self.adopt_term(term);
        let grant = term == self.term
            && cand_version >= self.version
            && (self.voted_for.is_none() || self.voted_for == Some(cand));
        if grant {
            self.voted_for = Some(cand);
            self.persist();
            self.last_contact = sim::now();
        }
        let mut r = vec![R_VOTE];
        put_u64(&mut r, self.term);
        r.push(grant as u8);
        r
    }

    fn on_append(&mut self, b: &[u8]) -> Vec<u8> {
        let term = get_u64(b, 1).unwrap_or(0);
        let leader = b
            .get(9..13)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
            .unwrap_or(0);
        let mut ok = false;
        if term >= self.term {
            self.adopt_term(term);
            self.is_leader = false;
            self.leader_hint = leader;
            self.last_contact = sim::now();
            let version = get_u64(b, 13).zip(get_u64(b, 21));
            if let Some((version, state)) = version.zip(b.get(29..).and_then(MetaState::decode)) {
                if version != self.version {
                    self.stats.applies.inc();
                }
                self.version = version;
                self.state = state;
                self.persist();
                ok = true;
            }
        }
        let mut r = vec![R_APPEND_ACK];
        put_u64(&mut r, self.term);
        r.push(ok as u8);
        r
    }

    fn on_get_map(&mut self) -> Vec<u8> {
        let mut r = vec![R_MAP];
        // Read-index: confirm leadership with a majority round before
        // answering. A deposed leader partitioned away from the quorum
        // otherwise serves a placement map that predates commits on the
        // other side — e.g. telling a migration driver its commit
        // "provably did not land" while the real leader flipped
        // ownership, double-owning the shard.
        if self.is_leader && self.replicate() {
            self.stats.getmaps.inc();
            r.push(S_OK);
            r.extend_from_slice(&self.state.encode());
        } else {
            r.push(S_NOT_LEADER);
            r.extend_from_slice(&self.leader_hint.to_le_bytes());
        }
        r
    }

    fn on_propose(&mut self, b: &[u8]) -> Vec<u8> {
        let status = match MetaCmd::decode(&b[1..]) {
            Some(cmd) => self.propose(&cmd),
            None => S_REJECTED,
        };
        let mut r = vec![R_PROPOSE, status];
        match status {
            S_OK => r.extend_from_slice(&self.state.encode()),
            S_NOT_LEADER => r.extend_from_slice(&self.leader_hint.to_le_bytes()),
            _ => {}
        }
        r
    }

    fn on_heartbeat(&mut self, b: &[u8]) -> Vec<u8> {
        let mut r = vec![R_HEARTBEAT_ACK];
        if !self.is_leader {
            r.push(S_NOT_LEADER);
            r.extend_from_slice(&self.leader_hint.to_le_bytes());
            return r;
        }
        let node = b
            .get(1..5)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
            .unwrap_or(u32::MAX) as usize;
        if node < self.data_nodes {
            self.stats.heartbeats.inc();
            self.last_seen[node] = sim::now();
            if !self.state.alive[node] {
                self.propose(&MetaCmd::NodeUp(node as u32));
            }
        }
        r.push(S_OK);
        r
    }
}

// ---------------------------------------------------------------------
// Client side: a small leader-following RPC wrapper shared by node
// agents, the migration driver, and the cluster client.
// ---------------------------------------------------------------------

/// Outcome of a proposal as seen by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProposeOutcome {
    /// Committed; the reply carries the post-apply state.
    Committed(MetaState),
    /// Leader-side validation rejected it (e.g. a migration is already in
    /// flight, or the destination is down).
    Rejected,
    /// No leader reachable / no majority within the deadline.
    Unavailable,
}

/// A connection to the metadata service that tracks the current leader.
pub struct MetaClient {
    fabric: Arc<Fabric>,
    local: Node,
    nodes: Vec<Node>,
    /// Cached (replica index, qp) of the presumed leader.
    conn: Option<(usize, ClientQp)>,
    /// Per-try reply deadline.
    rpc_timeout: Nanos,
}

impl MetaClient {
    /// A client of the service, issuing RPCs from `local`.
    pub fn new(fabric: &Arc<Fabric>, local: &Node, meta_nodes: &[Node]) -> MetaClient {
        MetaClient {
            fabric: Arc::clone(fabric),
            local: local.clone(),
            nodes: meta_nodes.to_vec(),
            conn: None,
            rpc_timeout: sim::micros(100),
        }
    }

    /// One RPC against the presumed leader; `Err(hint)` asks the caller
    /// to re-dial `hint` (or the next replica when `None`).
    fn try_rpc(&mut self, r: usize, req: &[u8]) -> Result<Vec<u8>, Option<usize>> {
        if self.conn.as_ref().map(|(i, _)| *i) != Some(r) {
            match self.fabric.connect(&self.local, &self.nodes[r]) {
                Ok(qp) => self.conn = Some((r, qp)),
                Err(_) => {
                    self.conn = None;
                    return Err(None);
                }
            }
        }
        let qp = &self.conn.as_ref().unwrap().1;
        let deadline = sim::now() + self.rpc_timeout;
        if qp.send(req.to_vec()).is_err() {
            self.conn = None;
            return Err(None);
        }
        match qp.recv_reply_deadline(deadline) {
            Ok(b) => Ok(b),
            Err(_) => {
                self.conn = None;
                Err(None)
            }
        }
    }

    /// Run `req` against the service, following `NotLeader` hints, until
    /// `deadline`. The closure maps a raw leader reply to `Some(T)` or
    /// `None` (= malformed / retry).
    fn leader_rpc<T>(
        &mut self,
        req: &[u8],
        deadline: Nanos,
        mut parse: impl FnMut(&[u8]) -> Option<LeaderReply<T>>,
    ) -> Option<T> {
        let mut r = self.conn.as_ref().map(|(i, _)| *i).unwrap_or(0);
        loop {
            if sim::now() >= deadline {
                return None;
            }
            match self.try_rpc(r, req) {
                Ok(b) => match parse(&b) {
                    Some(LeaderReply::Done(t)) => return Some(t),
                    Some(LeaderReply::NotLeader(hint)) => {
                        let hint = hint as usize;
                        r = if hint < self.nodes.len() && hint != r {
                            hint
                        } else {
                            (r + 1) % self.nodes.len()
                        };
                        self.conn = None;
                        sim::sleep(sim::micros(5));
                    }
                    None => {
                        r = (r + 1) % self.nodes.len();
                        self.conn = None;
                        sim::sleep(sim::micros(5));
                    }
                },
                Err(_) => {
                    r = (r + 1) % self.nodes.len();
                    sim::sleep(sim::micros(5));
                }
            }
        }
    }

    /// Fetch the committed control-plane state from the leader.
    pub fn get_map(&mut self, deadline: Nanos) -> Option<MetaState> {
        self.leader_rpc(&[M_GET_MAP], deadline, |b| {
            if b.first() != Some(&R_MAP) {
                return None;
            }
            match b.get(1) {
                Some(&S_OK) => MetaState::decode(&b[2..]).map(LeaderReply::Done),
                Some(&S_NOT_LEADER) => Some(LeaderReply::NotLeader(
                    b.get(2..6)
                        .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
                        .unwrap_or(u32::MAX),
                )),
                _ => None,
            }
        })
    }

    /// Propose `cmd`; `Committed` carries the post-apply state.
    pub fn propose(&mut self, cmd: &MetaCmd, deadline: Nanos) -> ProposeOutcome {
        let mut req = vec![M_PROPOSE];
        req.extend_from_slice(&cmd.encode());
        let out = self.leader_rpc(&req, deadline, |b| {
            if b.first() != Some(&R_PROPOSE) {
                return None;
            }
            match b.get(1) {
                Some(&S_OK) => MetaState::decode(&b[2..])
                    .map(|s| LeaderReply::Done(ProposeOutcome::Committed(s))),
                Some(&S_REJECTED) => Some(LeaderReply::Done(ProposeOutcome::Rejected)),
                Some(&S_UNAVAILABLE) => Some(LeaderReply::Done(ProposeOutcome::Unavailable)),
                Some(&S_NOT_LEADER) => Some(LeaderReply::NotLeader(
                    b.get(2..6)
                        .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
                        .unwrap_or(u32::MAX),
                )),
                _ => None,
            }
        });
        out.unwrap_or(ProposeOutcome::Unavailable)
    }

    /// One heartbeat for data node `node`. `false` when no leader
    /// acknowledged (caller just tries again next period).
    pub fn heartbeat(&mut self, node: usize, deadline: Nanos) -> bool {
        let mut req = vec![M_HEARTBEAT];
        req.extend_from_slice(&(node as u32).to_le_bytes());
        self.leader_rpc(&req, deadline, |b| {
            if b.first() != Some(&R_HEARTBEAT_ACK) {
                return None;
            }
            match b.get(1) {
                Some(&S_OK) => Some(LeaderReply::Done(())),
                Some(&S_NOT_LEADER) => Some(LeaderReply::NotLeader(
                    b.get(2..6)
                        .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
                        .unwrap_or(u32::MAX),
                )),
                _ => None,
            }
        })
        .is_some()
    }
}

enum LeaderReply<T> {
    Done(T),
    NotLeader(u32),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmd_encoding_roundtrips() {
        let cmds = [
            MetaCmd::NodeDown(3),
            MetaCmd::NodeUp(0),
            MetaCmd::MigrateStart { shard: 7, to: 2 },
            MetaCmd::MigrateCommit { shard: 7 },
            MetaCmd::MigrateAbort { shard: 1 },
        ];
        for c in &cmds {
            assert_eq!(MetaCmd::decode(&c.encode()).as_ref(), Some(c));
        }
    }

    #[test]
    fn state_encoding_roundtrips() {
        let mut s = MetaState::initial(8, 4);
        s.alive[2] = false;
        s.migrating = Some((5, 3));
        let b = s.encode();
        assert_eq!(MetaState::decode(&b).unwrap(), s);
    }

    #[test]
    fn apply_is_total_and_guards_invariants() {
        let mut s = MetaState::initial(4, 3);
        // Start to a dead node: rejected (no-op).
        s.alive[2] = false;
        s.apply(&MetaCmd::MigrateStart { shard: 0, to: 2 });
        assert_eq!(s.migrating, None);
        s.alive[2] = true;
        // Start to self: no-op (shard 1 lives on node 1 initially).
        s.apply(&MetaCmd::MigrateStart { shard: 1, to: 1 });
        assert_eq!(s.migrating, None);
        // Valid start, then a second start is refused.
        s.apply(&MetaCmd::MigrateStart { shard: 0, to: 2 });
        assert_eq!(s.migrating, Some((0, 2)));
        s.apply(&MetaCmd::MigrateStart { shard: 3, to: 1 });
        assert_eq!(s.migrating, Some((0, 2)));
        // Commit flips ownership and bumps the epoch.
        let e0 = s.placement.epoch;
        s.apply(&MetaCmd::MigrateCommit { shard: 0 });
        assert_eq!(s.placement.node_of_shard(0), 2);
        assert_eq!(s.placement.epoch, e0 + 1);
        assert_eq!(s.migrating, None);
        // Death of a migration endpoint aborts the migration.
        s.apply(&MetaCmd::MigrateStart { shard: 3, to: 2 });
        s.apply(&MetaCmd::NodeDown(2));
        assert_eq!(s.migrating, None);
        assert!(!s.alive[2]);
        s.apply(&MetaCmd::NodeUp(2));
        assert!(s.alive[2]);
    }
}
