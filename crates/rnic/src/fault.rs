//! Deterministic message-fault injection: lossy / duplicating / delaying
//! links.
//!
//! A [`FaultPlan`] arms a link (or the whole fabric) with a seeded RNG that
//! draws a fate for every two-sided message crossing it: deliver, drop,
//! duplicate, or delay. The simulator serializes process execution, so the
//! shared RNG is consumed in a reproducible order — the same `(plan, seed)`
//! pair replays the exact same fault sequence, byte for byte.
//!
//! Semantics follow real RC-transport RDMA hardware:
//!
//! * **Two-sided sends and replies** ride unacknowledged at this layer: a
//!   dropped SEND or reply simply never arrives, and the requester's RPC
//!   deadline converts the silence into a `Timeout` (at-least-once fabric —
//!   end-to-end retry + server-side dedup restore exactly-once, see
//!   `efactory::client`).
//! * **One-sided verbs** (reads and writes) run over a reliable
//!   connection: the NIC retransmits lost packets transparently, so a
//!   "drop" draw surfaces as one wasted round trip of extra latency —
//!   never as data loss or an error.
//! * **Event notifications** (the log-cleaning protocol's
//!   `CleanStart`/`CleanEnd` broadcasts) are *not* faulted: the paper's
//!   cleaning protocol assumes those arrive, and a real implementation
//!   carries them over the same reliable QP as replies.
//!
//! Faults compose with the existing whole-node crash
//! ([`crate::Fabric::schedule_crash`]) and binary partition
//! ([`crate::Fabric::fail_link`]) hooks: a chaos run can arm all three.

use std::collections::HashMap;

use efactory_sim::Nanos;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fabric::NodeId;

/// Probabilistic per-message fault behaviour for a link. All probabilities
/// are independent cut points of a single uniform draw per message, so
/// `drop_p + dup_p + delay_p` must not exceed 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a message is silently dropped (two-sided) or costs a
    /// retransmission round trip (one-sided).
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub dup_p: f64,
    /// Probability a message is delayed by `delay_ns` beyond its normal
    /// propagation time.
    pub delay_p: f64,
    /// Extra latency applied to delayed messages.
    pub delay_ns: Nanos,
    /// RNG seed: same `(plan, seed)` ⇒ same fault sequence.
    pub seed: u64,
}

impl FaultPlan {
    /// A loss-only plan (no duplication or delay).
    pub fn lossy(drop_p: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            drop_p,
            dup_p: 0.0,
            delay_p: 0.0,
            delay_ns: 0,
            seed,
        }
    }

    /// A full chaos plan: loss + duplication + delay.
    pub fn chaos(drop_p: f64, dup_p: f64, delay_p: f64, delay_ns: Nanos, seed: u64) -> FaultPlan {
        FaultPlan {
            drop_p,
            dup_p,
            delay_p,
            delay_ns,
            seed,
        }
    }

    fn validate(&self) {
        let total = self.drop_p + self.dup_p + self.delay_p;
        assert!(
            (0.0..=1.0).contains(&total)
                && self.drop_p >= 0.0
                && self.dup_p >= 0.0
                && self.delay_p >= 0.0,
            "fault probabilities must be non-negative and sum to <= 1, got {self:?}"
        );
    }
}

/// What happens to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Normal delivery.
    Deliver,
    /// Silently swallowed.
    Drop,
    /// Delivered twice.
    Duplicate,
    /// Delivered after this much extra latency.
    Delay(Nanos),
}

/// A plan armed with its RNG.
struct Armed {
    plan: FaultPlan,
    rng: StdRng,
}

impl Armed {
    fn new(plan: FaultPlan) -> Armed {
        plan.validate();
        Armed {
            rng: StdRng::seed_from_u64(plan.seed),
            plan,
        }
    }

    fn draw(&mut self) -> Fate {
        let x: f64 = self.rng.gen();
        let p = &self.plan;
        if x < p.drop_p {
            Fate::Drop
        } else if x < p.drop_p + p.dup_p {
            Fate::Duplicate
        } else if x < p.drop_p + p.dup_p + p.delay_p {
            Fate::Delay(p.delay_ns)
        } else {
            Fate::Deliver
        }
    }
}

/// Canonical (unordered) key for the link between two nodes — faults are
/// bidirectional, like [`crate::Fabric::fail_link`] partitions.
fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

/// Fabric-wide fault state: an optional default plan plus per-link
/// overrides. Shared (via `Arc`) with every endpoint the fabric creates, so
/// plans installed mid-run affect live connections immediately.
pub(crate) struct FaultTable {
    inner: Mutex<FaultInner>,
}

impl Default for FaultTable {
    fn default() -> FaultTable {
        FaultTable {
            inner: Mutex::new(FaultInner::default()),
        }
    }
}

#[derive(Default)]
struct FaultInner {
    default: Option<Armed>,
    links: HashMap<(NodeId, NodeId), Armed>,
}

impl FaultTable {
    /// Install (or clear, with `None`) the fabric-wide default plan.
    pub(crate) fn set_default(&self, plan: Option<FaultPlan>) {
        self.inner.lock().default = plan.map(Armed::new);
    }

    /// Install a per-link plan, overriding the default on that link.
    pub(crate) fn set_link(&self, a: NodeId, b: NodeId, plan: FaultPlan) {
        self.inner
            .lock()
            .links
            .insert(link_key(a, b), Armed::new(plan));
    }

    /// Remove a per-link plan (the link falls back to the default).
    pub(crate) fn clear_link(&self, a: NodeId, b: NodeId) {
        self.inner.lock().links.remove(&link_key(a, b));
    }

    /// Draw the fate of one message crossing the `a`–`b` link.
    pub(crate) fn draw(&self, a: NodeId, b: NodeId) -> Fate {
        let mut inner = self.inner.lock();
        let key = link_key(a, b);
        if let Some(armed) = inner.links.get_mut(&key) {
            return armed.draw();
        }
        match inner.default.as_mut() {
            Some(armed) => armed.draw(),
            None => Fate::Deliver,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_plan_always_delivers() {
        let t = FaultTable::default();
        for _ in 0..100 {
            assert_eq!(t.draw(0, 1), Fate::Deliver);
        }
    }

    #[test]
    fn same_seed_same_fate_sequence() {
        let seq = |seed: u64| {
            let t = FaultTable::default();
            t.set_default(Some(FaultPlan::chaos(0.2, 0.2, 0.2, 500, seed)));
            (0..256).map(|_| t.draw(0, 1)).collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8), "different seeds should diverge");
    }

    #[test]
    fn probabilities_are_roughly_honored() {
        let t = FaultTable::default();
        t.set_default(Some(FaultPlan::lossy(0.25, 42)));
        let n = 10_000;
        let dropped = (0..n).filter(|_| t.draw(0, 1) == Fate::Drop).count();
        let frac = dropped as f64 / n as f64;
        assert!((0.2..0.3).contains(&frac), "drop fraction {frac}");
    }

    #[test]
    fn per_link_plan_overrides_default() {
        let t = FaultTable::default();
        t.set_default(Some(FaultPlan::lossy(0.0, 1)));
        t.set_link(2, 5, FaultPlan::lossy(1.0, 1));
        assert_eq!(t.draw(2, 5), Fate::Drop);
        assert_eq!(t.draw(5, 2), Fate::Drop, "links are bidirectional");
        assert_eq!(t.draw(0, 1), Fate::Deliver);
        t.clear_link(5, 2);
        assert_eq!(t.draw(2, 5), Fate::Deliver);
    }

    #[test]
    #[should_panic(expected = "sum to <= 1")]
    fn overfull_plan_is_rejected() {
        FaultTable::default().set_default(Some(FaultPlan::chaos(0.6, 0.6, 0.0, 0, 1)));
    }
}
