//! Shared scaffolding for the comparison systems.
//!
//! The paper implements SAW, IMM, Erda, and Forca "on the same code base as
//! eFactory" (§5.3); this module is that code base: the single-pool server
//! state, object staging, entry linking, and the handler-loop skeleton. The
//! [`Scheme`](crate::Scheme)s differ only in *when* data is flushed and
//! metadata exposed — which is exactly the design space the paper explores.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use efactory::hashtable::HashTable;
use efactory::layout::{self, flags, ObjHeader, NIL};
use efactory::log::{LogRegion, StoreLayout};
use efactory::protocol::Status;
use efactory::server::{ServerStats, StoreDesc};
use efactory_pmem::PmemPool;
use efactory_rnic::{CostModel, Fabric, Incoming, Listener, Node};
use efactory_sim as sim;

/// Single-pool server state shared by every baseline.
pub struct BaseServer {
    /// The fabric node.
    pub node: Node,
    /// The NVM device.
    pub pool: Arc<PmemPool>,
    /// Cost model (copied from the fabric).
    pub cost: CostModel,
    /// Geometry.
    pub layout: StoreLayout,
    /// Hash index.
    pub ht: HashTable,
    /// The (only) data pool.
    pub log: LogRegion,
    /// Counters (reusing the core definitions).
    pub stats: ServerStats,
    /// Cooperative shutdown.
    pub stop: AtomicBool,
    born_epoch: u64,
    desc: StoreDesc,
}

impl BaseServer {
    /// Format a fresh single-pool store on `node`.
    pub fn format(fabric: &Fabric, node: &Node, layout: StoreLayout) -> Arc<BaseServer> {
        let pool = Arc::new(PmemPool::new(layout.total_len()));
        Self::with_pool(fabric, node, pool, layout)
    }

    /// Build over an existing pool (recovery paths).
    pub fn with_pool(
        fabric: &Fabric,
        node: &Node,
        pool: Arc<PmemPool>,
        layout: StoreLayout,
    ) -> Arc<BaseServer> {
        let mr = node.register_mr(&pool, 0, layout.total_len());
        let [log, _] = layout.regions();
        Arc::new(BaseServer {
            node: node.clone(),
            pool,
            cost: fabric.cost().clone(),
            ht: layout.hashtable(),
            log,
            layout,
            stats: ServerStats::default(),
            stop: AtomicBool::new(false),
            born_epoch: node.epoch(),
            desc: StoreDesc { mr, layout },
        })
    }

    /// Rebuild after a crash: re-register the region and re-establish the
    /// log head by scanning persisted headers. Systems whose metadata only
    /// ever references durable data (SAW, IMM, RPC) need nothing more;
    /// Erda/Forca additionally self-heal through CRC fallback at read time.
    pub fn recover(
        fabric: &Fabric,
        node: &Node,
        pool: Arc<PmemPool>,
        layout: StoreLayout,
    ) -> Arc<BaseServer> {
        let base = Self::with_pool(fabric, node, pool, layout);
        let (_, head) = base.log.scan_for_recovery(&base.pool, 256, 16 << 20);
        base.log.set_head(head);
        base
    }

    /// Client-facing descriptor.
    pub fn desc(&self) -> StoreDesc {
        self.desc
    }

    /// True when the handler should exit.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
            || self.node.is_crashed()
            || self.node.epoch() != self.born_epoch
    }

    /// Ask the handler to wind down.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// The previous version's offset for `fp` (0 if the key is new), and
    /// its bucket if it exists.
    pub fn peek_prev(&self, fp: u64) -> (Option<usize>, u64) {
        match self.ht.lookup(&self.pool, fp) {
            Some((idx, e)) => (Some(idx), e.current()),
            None => (None, 0),
        }
    }

    /// Allocate and fill an object (header + key) in the log **without**
    /// flushing anything or touching the hash table. Returns the object
    /// offset and its header.
    ///
    /// Mutation block: no yields inside.
    pub fn stage_object(
        &self,
        key: &[u8],
        vlen: u32,
        crc: u32,
        prev: u64,
        obj_flags: u8,
    ) -> Result<(usize, ObjHeader), Status> {
        let size = layout::object_size(key.len(), vlen as usize);
        let Some(off) = self.log.alloc(size) else {
            self.stats.put_failures.fetch_add(1, Ordering::Relaxed);
            return Err(Status::NoSpace);
        };
        let hdr = ObjHeader {
            klen: key.len() as u16,
            vlen,
            flags: obj_flags,
            pre_ptr: if prev == 0 { NIL } else { prev },
            next_ptr: NIL,
            crc,
            seq: 0,
            alloc_time: sim::now(),
        };
        hdr.write_to(&self.pool, off);
        self.pool.write(off + hdr.key_off(), key);
        if prev != 0 {
            layout::set_next_ptr(&self.pool, prev as usize, off as u64);
        }
        Ok((off, hdr))
    }

    /// Point the hash entry for `fp` at `off` (slot 0 — baselines are
    /// single-pool). Claims a bucket if needed. Returns the flushed line
    /// count when `persist` is set (0 otherwise).
    ///
    /// Mutation block: no yields inside.
    pub fn link_entry(
        &self,
        fp: u64,
        off: usize,
        klen: u16,
        vlen: u32,
        persist: bool,
    ) -> Result<usize, Status> {
        let (idx, entry) = self
            .ht
            .lookup_or_claim(&self.pool, fp)
            .map_err(|_| Status::TableFull)?;
        self.ht.set_slot(&self.pool, idx, 0, off as u64);
        self.ht.set_sizes(&self.pool, idx, klen, vlen);
        self.ht.set_ctl(&self.pool, idx, entry.ctl.bumped());
        if persist {
            Ok(self.ht.persist_entry(&self.pool, idx))
        } else {
            Ok(0)
        }
    }

    /// Persist `[off, off+len)` and return the flushed line count.
    pub fn persist_range(&self, off: usize, len: usize) -> usize {
        let lines = self.pool.flush(off, len);
        self.pool.drain();
        lines
    }

    /// Mark the object durable (flag + flush of the flag word).
    pub fn set_durable(&self, off: usize) -> usize {
        layout::update_flags(&self.pool, off, flags::DURABLE, 0);
        let lines = self.pool.flush(off, 8);
        self.pool.drain();
        lines
    }

    /// Handler-loop skeleton: ticks a deadline so `stop`/crash are observed
    /// promptly, decodes nothing (systems differ), hands each message to
    /// `f`. `f` returns `false` to stop serving.
    pub fn serve(
        self: &Arc<Self>,
        listener: &Listener,
        mut f: impl FnMut(&Listener, Incoming) -> bool,
    ) {
        loop {
            let msg = match listener.recv_deadline(sim::now() + sim::micros(100)) {
                Ok(m) => m,
                Err(efactory_rnic::QpError::Timeout) => {
                    if self.stopping() {
                        return;
                    }
                    continue;
                }
                Err(_) => return,
            };
            if self.stopping() {
                return;
            }
            if !f(listener, msg) {
                return;
            }
        }
    }
}

/// Single-pool layout helper for baselines (no cleaning ⇒ no pool B).
pub fn baseline_layout(ht_buckets: usize, pool_len: usize) -> StoreLayout {
    StoreLayout::new(ht_buckets, pool_len, false)
}

/// Erda's 8-byte atomic region: the offsets of the latest two versions
/// packed into one word so the metadata update is failure-atomic (§5.3.3).
/// Offsets are stored in 8-byte units (31 bits each, covering 16 GiB).
pub mod atomic_region {
    /// Bucket-occupied marker.
    const OCCUPIED: u64 = 1 << 63;
    /// The previous-version field is valid.
    const HAS_PREV: u64 = 1 << 62;

    /// Pack `(latest, prev)` byte offsets. `prev == 0` means no previous
    /// version.
    pub fn pack(latest: u64, prev: u64) -> u64 {
        debug_assert_eq!(latest % 8, 0);
        debug_assert_eq!(prev % 8, 0);
        debug_assert!(latest / 8 < (1 << 31) && prev / 8 < (1 << 31));
        let mut w = OCCUPIED | (latest / 8);
        if prev != 0 {
            w |= HAS_PREV | ((prev / 8) << 31);
        }
        w
    }

    /// Unpack to `(latest, prev)`; `None` if the region is empty.
    pub fn unpack(w: u64) -> Option<(u64, Option<u64>)> {
        if w & OCCUPIED == 0 {
            return None;
        }
        let latest = (w & ((1 << 31) - 1)) * 8;
        let prev = if w & HAS_PREV != 0 {
            Some(((w >> 31) & ((1 << 31) - 1)) * 8)
        } else {
            None
        };
        Some((latest, prev))
    }
}

/// Client-side helpers shared by the baselines' pure-RDMA read paths.
pub mod read_path {
    use efactory::hashtable::{find_in_window, Entry, BUCKET_LEN, NPROBE};
    use efactory::layout::{self, ObjHeader};
    use efactory::protocol::StoreError;
    use efactory::server::StoreDesc;
    use efactory_rnic::ClientQp;

    /// One-RDMA-read fetch of the probe window; returns the entry for `fp`.
    pub fn fetch_entry(
        qp: &ClientQp,
        desc: &StoreDesc,
        fp: u64,
    ) -> Result<Option<Entry>, StoreError> {
        let ht = desc.layout.hashtable();
        let window = qp.rdma_read(&desc.mr, ht.entry_off(ht.home(fp)), NPROBE * BUCKET_LEN)?;
        Ok(find_in_window(&window, fp).map(|(_, e)| e))
    }

    /// One-RDMA-read fetch of a whole object; decodes the header and
    /// validates the key. Returns `(header, object bytes)`.
    pub fn fetch_object(
        qp: &ClientQp,
        desc: &StoreDesc,
        off: u64,
        klen: usize,
        vlen: usize,
        key: &[u8],
    ) -> Result<Option<(ObjHeader, Vec<u8>)>, StoreError> {
        let size = layout::object_size(klen, vlen);
        let obj = qp.rdma_read(&desc.mr, off as usize, size)?;
        let Some(hdr) = ObjHeader::decode(&obj) else {
            return Ok(None);
        };
        if hdr.klen as usize != key.len() || hdr.klen as usize != klen {
            return Ok(None);
        }
        let ks = hdr.key_off();
        if &obj[ks..ks + key.len()] != key {
            return Ok(None);
        }
        Ok(Some((hdr, obj)))
    }

    /// Slice the value out of a fetched object.
    pub fn value_of(hdr: &ObjHeader, obj: &[u8]) -> Vec<u8> {
        let vs = hdr.value_off();
        obj[vs..vs + hdr.vlen as usize].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::atomic_region::{pack, unpack};

    #[test]
    fn atomic_region_roundtrips() {
        assert_eq!(unpack(pack(4096, 0)), Some((4096, None)));
        assert_eq!(unpack(pack(4096, 8192)), Some((4096, Some(8192))));
        assert_eq!(unpack(0), None);
        // Large offsets (multi-GiB pools).
        let big = (1u64 << 33) + 64;
        assert_eq!(unpack(pack(big, big + 8)), Some((big, Some(big + 8))));
    }
}
