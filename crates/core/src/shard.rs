//! Sharded store: N independent eFactory servers behind a deterministic
//! client-side router ([`crate::route::RoutedClient`]).
//!
//! The key space is partitioned by hash across N **shards**. Each shard is
//! a complete [`Server`]: its own fabric node (one listener per node), its
//! own NVM pool(s), hash table, append log, background verifier, and log
//! cleaner. Nothing is shared between shards, so there is no cross-shard
//! coordination on any path:
//!
//! * GET's pure one-sided path goes straight to the owning shard's MR;
//! * PUT's client-active path RPCs the owning shard's handler and then
//!   RDMA-writes the value into that shard's pool;
//! * each shard's verifier and cleaner run as independent processes.
//!
//! A replicated store gives every shard one backup node
//! ([`crate::repl::ReplicatedServer`]); clients fail over per shard.
//!
//! The router is *deterministic and total*: every key maps to exactly one
//! shard, the same one on every client, every connection, and every run.
//! Routing hashes a **different** bit mix than the hash table's
//! [`crate::hashtable::fingerprint`] — routing on the fingerprint itself would leave each
//! shard populating only every N-th bucket home.

use std::sync::Arc;

use efactory_rnic::{Fabric, Node};

use crate::log::StoreLayout;
use crate::repl::{ReplStats, ReplicatedServer};
use crate::route::RouteDesc;
use crate::server::{Server, ServerConfig, ServerShared, ServerStats};

/// Deterministic, total shard routing: `hash(key) % shards`.
///
/// Thin delegate to [`crate::cluster::placement::key_shard`] — the one
/// routing implementation, shared with the cluster layer's
/// [`PlacementMap`](crate::cluster::placement::PlacementMap). The
/// single-machine store is the degenerate placement (every shard on one
/// machine), so this wrapper keeps its call sites unchanged.
pub fn shard_of(key: &[u8], shards: usize) -> usize {
    crate::cluster::placement::key_shard(key, shards)
}

/// One shard: a plain server, or a primary with its backup.
enum Shard {
    Plain(Server),
    Replicated(Box<ReplicatedServer>),
}

impl Shard {
    fn primary(&self) -> &Server {
        match self {
            Shard::Plain(s) => s,
            Shard::Replicated(r) => r.primary(),
        }
    }
}

/// N independent shards over one fabric — the single-machine eFactory
/// store. Each shard is a [`Server`], or a [`ReplicatedServer`] (primary
/// plus one backup node) when the store is replicated.
pub struct ShardedServer {
    shards: Vec<Shard>,
}

impl ShardedServer {
    /// Create `shards` freshly formatted shards, each with its own node
    /// (named `{name}-shard{i}`; a backup is `{name}-shard{i}-backup`) and
    /// a full copy of `layout` (per-shard geometry; the per-shard fill is
    /// what matters for cleaning, so a layout sized for the whole workload
    /// leaves generous slack under any skew). `replicas` is 0
    /// (unreplicated) or 1 (one backup per shard). Counter names get a
    /// `shard{i}.` prefix when `shards > 1`.
    pub fn format(
        fabric: &Fabric,
        name: &str,
        layout: StoreLayout,
        cfg: ServerConfig,
        shards: usize,
        replicas: usize,
    ) -> ShardedServer {
        assert!(shards >= 1, "a store has at least one shard");
        assert!(
            replicas <= 1,
            "primary–backup replication supports exactly one backup per shard"
        );
        let shards = (0..shards)
            .map(|i| {
                let node = fabric.add_node(&format!("{name}-shard{i}"));
                let mut scfg = cfg.clone();
                if shards > 1 {
                    scfg.counter_prefix = format!("{}shard{i}.", cfg.counter_prefix);
                }
                if replicas == 0 {
                    Shard::Plain(Server::format(fabric, &node, layout, scfg))
                } else {
                    Shard::Replicated(Box::new(ReplicatedServer::format(
                        fabric, &node, layout, scfg,
                    )))
                }
            })
            .collect();
        ShardedServer { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`'s (primary) server.
    pub fn shard(&self, i: usize) -> &Server {
        self.shards[i].primary()
    }

    /// Shard `i`'s primary and backup, if the store is replicated.
    pub fn replicated(&self, i: usize) -> Option<&ReplicatedServer> {
        match &self.shards[i] {
            Shard::Plain(_) => None,
            Shard::Replicated(r) => Some(r),
        }
    }

    /// Shard `i`'s (primary) fabric node.
    pub fn node(&self, i: usize) -> &Node {
        &self.shard(i).shared().node
    }

    /// Shared state of every shard's primary (verifier drain checks,
    /// stats).
    pub fn shared_all(&self) -> Vec<&Arc<ServerShared>> {
        self.shards.iter().map(|s| s.primary().shared()).collect()
    }

    /// What clients connect with.
    pub fn desc(&self) -> RouteDesc {
        RouteDesc::Machine(
            self.shards
                .iter()
                .map(|s| match s {
                    Shard::Plain(s) => s.seat(),
                    Shard::Replicated(r) => r.seat(),
                })
                .collect(),
        )
    }

    /// Start every shard's processes (for a replicated shard, the backup's
    /// apply loop first). Must run inside a simulated process.
    pub fn start(&self, fabric: &Arc<Fabric>) {
        for s in &self.shards {
            match s {
                Shard::Plain(s) => {
                    s.start(fabric);
                }
                Shard::Replicated(r) => {
                    r.start(fabric);
                }
            }
        }
    }

    /// Ask every shard's processes to wind down.
    pub fn shutdown(&self) {
        for s in &self.shards {
            match s {
                Shard::Plain(s) => s.shutdown(),
                Shard::Replicated(r) => r.shutdown(),
            }
        }
    }

    /// Sum a primary server counter across shards.
    pub fn stat_sum(&self, pick: impl Fn(&ServerStats) -> &efactory_obs::Counter) -> u64 {
        self.shards
            .iter()
            .map(|s| pick(&s.primary().shared().stats).get())
            .sum()
    }

    /// Sum a replication counter across shards (0 when unreplicated).
    pub fn repl_stat_sum(&self, pick: impl Fn(&ReplStats) -> &efactory_obs::Counter) -> u64 {
        (0..self.shards())
            .filter_map(|i| self.replicated(i))
            .map(|r| pick(r.stats()).get())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashtable::fingerprint;

    #[test]
    fn routing_is_total_and_spread() {
        // Every key lands in-range, and a modest key set touches every
        // shard for every shard count the acceptance sweep uses.
        for shards in [1usize, 2, 4, 8] {
            let mut hit = vec![0usize; shards];
            for i in 0..512u32 {
                let key = format!("user{i:08}");
                let s = shard_of(key.as_bytes(), shards);
                assert!(s < shards);
                hit[s] += 1;
            }
            assert!(hit.iter().all(|&c| c > 0), "unused shard: {hit:?}");
        }
    }

    #[test]
    fn routing_decorrelated_from_bucket_home() {
        // Keys of one shard must not collapse onto every N-th fingerprint
        // residue (which would waste (N-1)/N of the shard's bucket homes).
        let shards = 4;
        let mut residues = std::collections::HashSet::new();
        for i in 0..256u32 {
            let key = format!("user{i:08}");
            if shard_of(key.as_bytes(), shards) == 0 {
                residues.insert(fingerprint(key.as_bytes()) % shards as u64);
            }
        }
        assert!(residues.len() > 1, "shard 0 keys share a fp residue class");
    }
}
