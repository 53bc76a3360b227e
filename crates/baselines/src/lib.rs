//! # efactory-baselines — the paper's comparison systems
//!
//! All prior designs the eFactory paper evaluates against (§5.3),
//! implemented on the same code base as eFactory itself (the data
//! structures, protocol, and substrates from the `efactory` crate), exactly
//! as the authors did for their apples-to-apples comparison. They differ
//! only in *when* data is flushed and metadata exposed, so they share one
//! server ([`BaselineServer`]) and one client ([`BaselineClient`]); a
//! [`Scheme`] picks each system's write and read path:
//!
//! | [`Scheme`] | PUT | GET | Durability of a PUT |
//! |---|---|---|---|
//! | `CaNoper` | RPC alloc + RDMA write; server links, flushes nothing | 2 RDMA reads, unverified | none |
//! | `Rpc` | value through RPC; server copies + flushes | RPC + RDMA read | on ack |
//! | `Saw` | RPC alloc + RDMA write + RDMA send (persist) | 2 RDMA reads | on ack |
//! | `Imm` | RPC alloc + write_with_imm; server flushes | 2 RDMA reads | on ack |
//! | `Erda` | RPC alloc + RDMA write; 8-byte atomic metadata | 2 RDMA reads + client CRC (+1 fallback read) | never explicit |
//! | `Forca` | like Erda + metadata indirection | RPC (server CRC + persist) + RDMA read | on first read |
//!
//! eFactory itself (background verification, durability flag, hybrid read)
//! lives in the `efactory` crate; "eFactory w/o hybrid read" is its client
//! with `hybrid_read: false`.

mod client;
pub mod common;
mod server;

pub use client::BaselineClient;
pub use server::BaselineServer;

/// One comparison system's write/read scheme (see the crate docs' table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Send-after-write (paper §3, after Douglas's SDC'15 mechanism): the
    /// client allocates via RPC, DMAs the value, then sends a *persist*
    /// request; the server flushes, exposes the metadata and acks. Durable
    /// on ack, at the price of a second round trip and server CPU on every
    /// write.
    Saw,
    /// `write_with_imm` (paper §3, after Orion): the immediate tells the
    /// server which write completed, so it flushes, links and acks. One
    /// round trip fewer than SAW, but the server CPU still sits on every
    /// write's critical path.
    Imm,
    /// Erda (paper §5.3.3, after Liu et al.): no explicit persistence of
    /// values; an 8-byte *atomic region* in the hash entry packs the latest
    /// two versions' offsets, and GETs verify the value's CRC **on the
    /// client** with one fallback read. Reproduces Erda's two documented
    /// weaknesses: only two versions are reachable, and reads are
    /// non-monotonic across crashes (data is durable only through eviction).
    Erda,
    /// Forca (paper §5.3.4, after Huang et al., ICCD'18): Erda's PUT plus
    /// an extra object-metadata hop; every GET is an RPC in which the
    /// server verifies and persists the object before returning its offset.
    Forca,
    /// Client-active without persistence (the Figure 1 baseline): nothing
    /// is ever flushed, so a crash can lose or tear acknowledged writes.
    CaNoper,
    /// NVM as conventional storage behind RPCs (paper §2.2): the value
    /// crosses the server's CPU, which copies, flushes and links it.
    Rpc,
}

impl Scheme {
    /// Every scheme: the Figure 9/10 systems, then the Figure 1 bounds.
    pub const ALL: [Scheme; 6] = [
        Scheme::Saw,
        Scheme::Imm,
        Scheme::Erda,
        Scheme::Forca,
        Scheme::CaNoper,
        Scheme::Rpc,
    ];
}
