//! Live shard migration: move a shard's log + hash table to another node
//! while client traffic keeps flowing.
//!
//! # Protocol (the migration state machine)
//!
//! 1. **Start** — `MigrateStart{shard, to}` is committed through the
//!    metadata service (rejected if a migration is already in flight, the
//!    destination is down, or it already owns the shard). Ownership does
//!    NOT change yet; the source keeps serving.
//! 2. **Copy** — the driver bulk-copies the hash-table region and each
//!    log region up to its current head, in chunks, with one-sided reads
//!    from the source and writes into the destination pool. Traffic
//!    flows, and a cleaning pass may run, so the copy is best-effort:
//!    step 5 reconciles everything that changed under it.
//! 3. **Seal** — the driver waits for any in-flight cleaning pass to
//!    finish or abort (`CleanPhase::Normal`) and seals the source with no
//!    yield between the check and the seal. The cleaner refuses to start
//!    a pass on a sealed shard and claims its phase without yielding, so
//!    exactly one side wins. A sealed source answers every client data op
//!    `WrongEpoch` (the retarget signal); `TxnDecide` stays admissible so
//!    2PC transactions prepared before the seal still resolve (PR 7's
//!    atomicity composes unchanged).
//! 4. **Drain** — the driver waits for the verifier to reach the log
//!    head: in-flight one-sided value writes either land (verified) or
//!    time out (invalidated); in-doubt transactions resolve by decide or
//!    presumed-abort. Bounded by `verify_timeout` + `txn_abort_timeout`.
//!    The source pool is now frozen.
//! 5. **Fixup + verify** — one chunked compare-and-rewrite pass over the
//!    whole pool rewrites every chunk that changed since the copy (log
//!    growth, hash-table churn, flag-word updates, relocations by a
//!    cleaning pass). A second pass asserts **zero** differences: the
//!    destination is byte-identical to the frozen source — exactly what a
//!    stop-the-world copy would have produced.
//! 6. **Adopt** — ordinary [`crate::recovery`] runs over the copied pool
//!    (the same code path a rebooted owner would run) and the destination
//!    server starts.
//! 7. **Decommission + commit** — the source's hash-table entries are
//!    poisoned (`new_valid`), pushing any straggler's pure one-sided read
//!    onto the RPC fallback where the seal answers `WrongEpoch`, and a
//!    `CleanStart` event pins polling clients off the pure path entirely.
//!    Then `MigrateCommit` flips ownership in the metadata service with
//!    an **epoch bump**, and the new seat is published. The sealed source
//!    stays up as a tombstone answering `WrongEpoch` — the retarget
//!    signal for every client that has not yet refreshed.
//!
//! Aborting at any step before 7 leaves the source the one owner: the
//! driver unseals it and commits `MigrateAbort`. If the abort proposal
//! itself finds no metadata majority, the driver parks it on the cluster
//! and [`Cluster::reconcile`] re-proposes it once a majority is reachable
//! — otherwise the slot would stay occupied forever, since with both
//! endpoints alive the death sweep never auto-aborts. A crash of either
//! endpoint mid-migration is detected by the metadata service's death
//! sweep, which auto-aborts the migration; the invariant "exactly one
//! owner per shard" holds at every instant because ownership only ever
//! changes inside `MigrateCommit`.

use std::sync::Arc;

use efactory_pmem::PmemPool;
use efactory_rnic::{ClientQp, Node, QpError, RemoteMr};
use efactory_sim as sim;
use sim::Nanos;

use super::meta::{MetaClient, MetaCmd, ProposeOutcome};
use super::Cluster;
use crate::protocol::Event;
use crate::recovery::{self, RecoveryReport};
use crate::server::{CleanPhase, ServerShared};

/// Why a migration did not commit. In every case the source remains the
/// owner (the metadata service never saw, or refused, the commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateError {
    /// The metadata service refused `MigrateStart` (migration already in
    /// flight, destination down, or destination already owns the shard).
    Rejected,
    /// No metadata leader/majority reachable within the deadline.
    MetaUnavailable,
    /// The copy or fixup failed (an endpoint died or a partition
    /// outlasted the retry budget).
    CopyFailed,
    /// The sealed source did not drain within the bound (its verifier
    /// died — e.g. the source was power-failed mid-migration).
    DrainTimeout,
    /// The copy verified, but the metadata service refused the commit —
    /// the migration was auto-aborted under us (endpoint declared dead).
    CommitRefused,
    /// The source's log cleaner kept a pass in flight past the wait
    /// bound, so the source was never sealed. A sealed shard must hold
    /// still for the drain and the fixup, so the seal waits for the pass
    /// rather than racing it.
    CleanTimeout,
}

/// What a committed migration did.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The migrated shard.
    pub shard: usize,
    /// Previous owner.
    pub from: usize,
    /// New owner.
    pub to: usize,
    /// Placement epoch after the commit.
    pub epoch: u64,
    /// Bytes bulk-copied while traffic flowed.
    pub snapshot_bytes: u64,
    /// Bytes rewritten by the post-drain fixup pass: nonzero iff the
    /// source changed between the copy and the seal.
    pub fixup_bytes: u64,
    /// Differences found by the final verify pass — 0 by construction;
    /// the driver fails the migration otherwise.
    pub verify_diff_bytes: u64,
    /// Virtual time spent sealed (the client-visible unavailability
    /// window of this shard).
    pub sealed_ns: Nanos,
    /// Whole-migration virtual time (start committed → commit).
    pub total_ns: Nanos,
    /// What recovery over the copied pool found (expected: all keys
    /// intact — the source was drained before the copy froze).
    pub recovery: RecoveryReport,
}

/// Bounded one-sided op with timeout retries (transient partitions).
fn read_retry(qp: &ClientQp, mr: &RemoteMr, off: usize, len: usize) -> Result<Vec<u8>, QpError> {
    let mut backoff = sim::micros(2);
    for _ in 0..4 {
        match qp.rdma_read(mr, off, len) {
            Ok(b) => return Ok(b),
            Err(QpError::Timeout) => {
                sim::sleep(backoff);
                backoff *= 2;
            }
            Err(e) => return Err(e),
        }
    }
    Err(QpError::Timeout)
}

fn write_retry(qp: &ClientQp, mr: &RemoteMr, off: usize, data: &[u8]) -> Result<(), QpError> {
    let mut backoff = sim::micros(2);
    for _ in 0..4 {
        match qp.rdma_write(mr, off, data.to_vec()) {
            Ok(()) => return Ok(()),
            Err(QpError::Timeout) => {
                sim::sleep(backoff);
                backoff *= 2;
            }
            Err(e) => return Err(e),
        }
    }
    Err(QpError::Timeout)
}

/// Everything the abort path needs to unwind.
struct Unwind<'a> {
    mc: &'a mut MetaClient,
    shard: usize,
    to: usize,
    src: &'a Arc<ServerShared>,
    sealed: bool,
}

impl Unwind<'_> {
    fn abort(self, cluster: &Cluster, err: MigrateError) -> MigrateError {
        if self.sealed {
            self.src.unseal();
        }
        cluster.clear_staged();
        let deadline = sim::now() + sim::millis(2);
        let outcome = self.mc.propose(
            &MetaCmd::MigrateAbort {
                shard: self.shard as u32,
            },
            deadline,
        );
        if matches!(outcome, ProposeOutcome::Unavailable) {
            // The abort may never have been committed. Both endpoints
            // are (or may be) alive, so the death sweep will never free
            // the slot for us — park the abort for `Cluster::reconcile`
            // to re-propose once a metadata majority is reachable.
            cluster.note_unacked_abort(self.shard, self.to);
        }
        cluster.stats().migrations_aborted.inc();
        err
    }
}

/// The commit proposal came back `Unavailable` — ambiguous: the command
/// may have replicated before the ack was lost (or the leader died and
/// the command died with it). Resolve against the authoritative state: an
/// owner flip to `to` means it committed; a slot that is no longer ours
/// means it provably did not and can no longer (the death sweep's
/// auto-abort won the race); a slot still holding this exact migration
/// is resolved by **re-proposing the commit** — `MigrateCommit` is
/// idempotent against its own slot, so the first application flips
/// ownership and a resurfacing original finds the slot cleared and
/// no-ops. `None` means the metadata service stayed unreachable for the
/// whole bound and the outcome is still unknown.
fn resolve_commit(mc: &mut MetaClient, shard: usize, to: usize) -> Option<Result<u64, ()>> {
    let deadline = sim::now() + sim::millis(3);
    while sim::now() < deadline {
        if let Some(state) = mc.get_map(sim::now() + sim::millis(1)) {
            if state.placement.node_of_shard(shard) == to {
                return Some(Ok(state.placement.epoch));
            }
            if state.migrating != Some((shard as u32, to as u32)) {
                return Some(Err(()));
            }
            if let ProposeOutcome::Committed(state) = mc.propose(
                &MetaCmd::MigrateCommit {
                    shard: shard as u32,
                },
                sim::now() + sim::millis(1),
            ) {
                return Some(if state.placement.node_of_shard(shard) == to {
                    Ok(state.placement.epoch)
                } else {
                    Err(())
                });
            }
        }
        sim::sleep(sim::micros(20));
    }
    None
}

impl Cluster {
    /// Live-migrate `shard` to data node `to`. Runs the full protocol in
    /// the calling (simulated) process; client traffic may keep flowing
    /// throughout. On success the destination serves the shard and every
    /// byte of its pool provably matches what a stop-the-world copy of
    /// the drained source would hold.
    pub fn migrate(&self, shard: usize, to: usize) -> Result<MigrationReport, MigrateError> {
        let t_begin = sim::now();
        let cfg = self.config().clone();
        let seat = self.handle().seat(shard);
        let from = seat.owner;
        let src = seat.shared;
        let src_node = seat.node;
        let src_mr = seat.desc.mr;

        // The driver borrows the destination agent's fabric identity for
        // the control RPCs and the copy verbs.
        let local = self.agent_node(to).clone();
        let mut mc = MetaClient::new(self.fabric(), &local, self.meta_nodes());

        // Step 1: replicate the intent.
        match mc.propose(
            &MetaCmd::MigrateStart {
                shard: shard as u32,
                to: to as u32,
            },
            sim::now() + sim::millis(2),
        ) {
            // Trust the returned state, not the status: only a state
            // that holds this exact migration makes the slot ours.
            ProposeOutcome::Committed(state)
                if state.migrating == Some((shard as u32, to as u32)) => {}
            ProposeOutcome::Committed(_) => return Err(MigrateError::Rejected),
            ProposeOutcome::Rejected => {
                // A driver that died after its start committed — or our
                // own start whose ack was lost and which a retry now
                // collides with — leaves the slot occupied. If the
                // occupied slot IS this exact migration, adopt it
                // instead of failing.
                let ours = mc
                    .get_map(sim::now() + sim::millis(1))
                    .is_some_and(|s| s.migrating == Some((shard as u32, to as u32)));
                if !ours {
                    return Err(MigrateError::Rejected);
                }
            }
            ProposeOutcome::Unavailable => return Err(MigrateError::MetaUnavailable),
        }
        // The slot is (again) ours: any abort a previous driver failed to
        // deliver is obsolete, and re-proposing it would kill this run.
        self.clear_pending_abort();
        self.stats().migrations_started.inc();

        // Destination scaffolding: fresh pool (counted under the
        // destination seat's prefix), a listener so the driver's QP can
        // connect, and a registration covering the whole pool. Offsets
        // line up 1:1 with the source — both pools share one layout.
        let dest_node: Node = self.seat_node(to, shard).clone();
        let dest_prefix = format!("{}.", Cluster::seat_name(to, shard));
        let dest_pool = Arc::new(PmemPool::new(cfg.layout.total_len()));
        dest_pool.attach_obs(&cfg.server.obs, &dest_prefix);
        let _dest_listener = dest_node.listen_with(self.fabric(), false, 0);
        let dest_mr = dest_node.register_mr(&dest_pool, 0, cfg.layout.total_len());
        // Park the pool in the cluster: it is the destination machine's
        // NVM and must outlive this driver, whose borrowed endpoint may
        // die with the destination mid-commit. See `Cluster::reconcile`.
        self.stage_pool(shard, to, Arc::clone(&dest_pool));

        let mut unwind = Unwind {
            mc: &mut mc,
            shard,
            to,
            src: &src,
            sealed: false,
        };

        // Step 2: copy the hash table and each log region up to its head
        // while traffic flows. Nothing here is pinned down: the fixup
        // pass after the seal rewrites every chunk that changed since.
        let src_qp = match self.fabric().connect(&local, &src_node) {
            Ok(qp) => qp,
            Err(_) => return Err(unwind.abort(self, MigrateError::CopyFailed)),
        };
        let dest_qp = match self.fabric().connect(&local, &dest_node) {
            Ok(qp) => qp,
            Err(_) => return Err(unwind.abort(self, MigrateError::CopyFailed)),
        };
        let mut snapshot_bytes = 0u64;
        let spans = std::iter::once((0, src.logs[0].base()))
            .chain(src.logs.iter().map(|log| (log.base(), log.head())));
        for (lo, hi) in spans {
            let mut off = lo;
            while off < hi {
                let len = cfg.migrate_chunk.min(hi - off);
                let chunk = match read_retry(&src_qp, &src_mr, off, len) {
                    Ok(c) => c,
                    Err(_) => return Err(unwind.abort(self, MigrateError::CopyFailed)),
                };
                if write_retry(&dest_qp, &dest_mr, off, &chunk).is_err() {
                    return Err(unwind.abort(self, MigrateError::CopyFailed));
                }
                snapshot_bytes += len as u64;
                self.stats().snapshot_bytes.add(len as u64);
                self.stats().snapshot_chunks.inc();
                off += len;
            }
        }

        // Step 3: seal once no cleaning pass is in flight. The cleaner's
        // gate refuses to start a pass on a sealed shard, and a pass
        // claims its phase without yielding, so with no yield between
        // observing `Normal` and the seal exactly one side wins.
        let clean_deadline = sim::now() + sim::millis(100);
        while src.phase() != CleanPhase::Normal {
            if sim::now() >= clean_deadline {
                return Err(unwind.abort(self, MigrateError::CleanTimeout));
            }
            sim::sleep(sim::micros(50));
        }
        src.seal();
        unwind.sealed = true;
        let t_sealed = sim::now();

        // Step 4: drain the verifier to the log head.
        let drain_deadline =
            sim::now() + cfg.server.verify_timeout + cfg.server.txn_abort_timeout + sim::millis(2);
        loop {
            let active = src.active.load(std::sync::atomic::Ordering::Relaxed);
            let head = src.logs[active].head() as u64;
            if src.cursor.load(std::sync::atomic::Ordering::Relaxed) >= head {
                break;
            }
            if sim::now() >= drain_deadline || src.node.is_crashed() {
                return Err(unwind.abort(self, MigrateError::DrainTimeout));
            }
            sim::sleep(sim::micros(5));
        }
        self.stats().drain_waits.inc();

        // Step 5: fixup + verify against the frozen source.
        let total = cfg.layout.total_len();
        let mut fixup_bytes = 0u64;
        let mut verify_diff_bytes = 0u64;
        for pass in 0..2 {
            let mut off = 0usize;
            while off < total {
                let len = cfg.migrate_chunk.min(total - off);
                let want = match read_retry(&src_qp, &src_mr, off, len) {
                    Ok(c) => c,
                    Err(_) => return Err(unwind.abort(self, MigrateError::CopyFailed)),
                };
                let mut have = vec![0u8; len];
                dest_pool.read(off, &mut have);
                if want != have {
                    if pass == 0 {
                        if write_retry(&dest_qp, &dest_mr, off, &want).is_err() {
                            return Err(unwind.abort(self, MigrateError::CopyFailed));
                        }
                        fixup_bytes += len as u64;
                        self.stats().fixup_bytes.add(len as u64);
                    } else {
                        let diff = want.iter().zip(&have).filter(|(a, b)| a != b).count() as u64;
                        verify_diff_bytes += diff;
                        self.stats().verify_diff_bytes.add(diff);
                    }
                }
                off += len;
            }
        }
        if verify_diff_bytes != 0 {
            // The copy is not byte-identical to the frozen source: never
            // flip ownership onto it.
            return Err(unwind.abort(self, MigrateError::CopyFailed));
        }

        // Step 6: adopt — ordinary recovery over the copied pool, then
        // start serving (replaces the driver's scaffolding listener).
        let mut dest_cfg = cfg.server.clone();
        dest_cfg.counter_prefix = dest_prefix;
        let (dest_server, recovery_report) = recovery::recover(
            self.fabric(),
            &dest_node,
            Arc::clone(&dest_pool),
            cfg.layout,
            dest_cfg,
        );
        dest_server.start(self.fabric());

        // Step 7a: decommission the source's read paths *before* the
        // flip, so no straggler can be served stale bytes afterwards:
        // poison every occupied hash entry (pure probes fall back to RPC,
        // where the seal answers `WrongEpoch`) and pin polling clients
        // off the pure path entirely.
        src.ht.for_each_occupied(&src.pool, |idx, e| {
            src.ht.set_ctl(&src.pool, idx, e.ctl.with_new_valid(true));
        });
        if let Some(n) = src.notifier.lock().unwrap().as_ref() {
            let _ = n.notify_all(&Event::CleanStart.encode());
        }

        // Park the recovered server beside its pool: if the commit's
        // outcome is lost below, reconciliation can still promote (or
        // wind down) a complete destination.
        self.stage_server(dest_server);

        // Step 7b: the commit point — ownership flips here and only here.
        let outcome = unwind.mc.propose(
            &MetaCmd::MigrateCommit {
                shard: shard as u32,
            },
            sim::now() + sim::millis(2),
        );
        let resolved = match outcome {
            // Believe the flip only if the returned state shows it.
            ProposeOutcome::Committed(state) if state.placement.node_of_shard(shard) == to => {
                Some(Ok(state.placement.epoch))
            }
            // Everything else is ambiguous, not refused: `Unavailable`
            // may have replicated before the ack was lost, and `Rejected`
            // may be our own commit landing in a previous leader's state
            // and the retry reaching its successor as a duplicate. Settle
            // against the authoritative state.
            _ => resolve_commit(unwind.mc, shard, to),
        };
        let epoch = match resolved {
            Some(Ok(epoch)) => epoch,
            Some(Err(())) => {
                // Provably not committed and no longer committable.
                return Err(unwind.abort(self, MigrateError::CommitRefused));
            }
            None => {
                // Outcome unknown within the bound: consistency over
                // availability. Serving the source could double-own the
                // shard if the commit did land, so it stays sealed and
                // the destination stays staged; `Cluster::reconcile`
                // settles both once a metadata majority is reachable
                // again.
                return Err(MigrateError::MetaUnavailable);
            }
        };
        // A concurrent reconciliation (a node restart racing this commit)
        // may have settled the staging already; otherwise install the
        // destination ourselves.
        if let Some(dest_server) = self.take_staged_server() {
            self.install_seat(shard, to, dest_server);
        }
        self.stats().migrations_committed.inc();

        Ok(MigrationReport {
            shard,
            from,
            to,
            epoch,
            snapshot_bytes,
            fixup_bytes,
            verify_diff_bytes,
            sealed_ns: sim::now() - t_sealed,
            total_ns: sim::now() - t_begin,
            recovery: recovery_report,
        })
    }
}
