//! The one baseline server: [`BaseServer`] state plus each [`Scheme`]'s
//! PUT and GET handling. Every mechanism is written once; a scheme picks
//! its row in [`BaselineServer::start`].

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use efactory::hashtable::{fingerprint, Ctl};
use efactory::layout::{self, flags, ObjHeader, NIL};
use efactory::log::StoreLayout;
use efactory::protocol::{Request, Response, Status};
use efactory::server::StoreDesc;
use efactory_checksum::crc32c;
use efactory_pmem::{PmemPool, LINE};
use efactory_rnic::{Fabric, Incoming, Node, QpId};
use efactory_sim as sim;

use crate::common::{atomic_region, BaseServer};
use crate::Scheme;

/// SAW/IMM objects staged but not yet persisted and linked: object offset
/// → key fingerprint.
type Pending = parking_lot::Mutex<HashMap<u64, u64>>;

/// A comparison system's server.
pub struct BaselineServer {
    scheme: Scheme,
    base: Arc<BaseServer>,
}

impl BaselineServer {
    /// Format a fresh store on `node`.
    pub fn format(scheme: Scheme, fabric: &Fabric, node: &Node, layout: StoreLayout) -> Self {
        if scheme == Scheme::Imm {
            // The immediate field is 32 bits and carries the object offset.
            assert!(
                layout.total_len() < u32::MAX as usize,
                "IMM requires the pool offset to fit the 32-bit immediate"
            );
        }
        BaselineServer {
            scheme,
            base: BaseServer::format(fabric, node, layout),
        }
    }

    /// Rebuild after a crash (see [`BaseServer::recover`]). No scheme
    /// repairs values: SAW, IMM and RPC metadata only ever references
    /// durable data, and Erda/Forca reads self-heal through CRC fallback —
    /// precisely what makes Erda's reads non-monotonic.
    pub fn recover(
        scheme: Scheme,
        fabric: &Fabric,
        node: &Node,
        pool: Arc<PmemPool>,
        layout: StoreLayout,
    ) -> Self {
        BaselineServer {
            scheme,
            base: BaseServer::recover(fabric, node, pool, layout),
        }
    }

    /// Client-facing descriptor.
    pub fn desc(&self) -> StoreDesc {
        self.base.desc()
    }

    /// Shared base (stats etc.).
    pub fn base(&self) -> &Arc<BaseServer> {
        &self.base
    }

    /// Stop serving.
    pub fn shutdown(&self) {
        self.base.shutdown();
    }

    /// Spawn the server processes. Call from within a sim process.
    ///
    /// Every scheme runs one dispatch process (`saw-handler`, …), which
    /// posts receive regions one at a time (the optimization gap the paper
    /// credits for eFactory's small-value PUT edge). SAW and IMM add a
    /// completion process: as on the paper's multi-core testbed, dispatch
    /// and flush + link + ack run on separate cores, so flush work
    /// pipelines behind dispatch.
    pub fn start(&self, fabric: &Arc<Fabric>) {
        let scheme = self.scheme;
        let base = Arc::clone(&self.base);
        let listener = base.node.listen(fabric, false);
        let pending = Arc::new(Pending::new(HashMap::new()));
        let (done_tx, done_rx) = sim::channel::<(QpId, u64)>();
        let (handler, completion) = match scheme {
            Scheme::Saw => ("saw-handler", Some("saw-persist")),
            Scheme::Imm => ("imm-handler", Some("imm-completion")),
            Scheme::Erda => ("erda-handler", None),
            Scheme::Forca => ("forca-handler", None),
            Scheme::CaNoper => ("ca-noper-handler", None),
            Scheme::Rpc => ("rpc-handler", None),
        };
        if let Some(name) = completion {
            let replier = listener.replier();
            let (b, pending) = (Arc::clone(&base), Arc::clone(&pending));
            sim::spawn(name, move || {
                while let Ok((from, obj_off)) = done_rx.recv() {
                    if b.stopping() {
                        return;
                    }
                    // Its own statement: the lock must be released before
                    // completion yields simulated time.
                    let fp = pending.lock().remove(&obj_off);
                    let resp = match fp {
                        Some(fp) => complete_staged(&b, scheme, fp, obj_off as usize),
                        None => corrupt(),
                    };
                    if replier.reply(from, resp.encode()).is_err() {
                        return;
                    }
                }
            });
        }
        sim::spawn(handler, move || {
            let b = Arc::clone(&base);
            base.serve(&listener, move |l, msg| {
                let (from, req) = match msg {
                    Incoming::Send { from, payload } => (from, Request::decode(&payload)),
                    // IMM's completion trigger: the immediate names the
                    // object whose value just landed.
                    Incoming::WriteImm { from, imm, .. } if scheme == Scheme::Imm => {
                        return done_tx.send((from, imm as u64), 0).is_ok();
                    }
                    Incoming::WriteImm { .. } => return true,
                };
                let resp = match (scheme, req) {
                    // SAW's completion trigger: the persist send.
                    (Scheme::Saw, Some(Request::Persist { obj_off })) => {
                        return done_tx.send((from, obj_off), 0).is_ok();
                    }
                    (Scheme::Rpc, Some(Request::RpcPut { key, value })) => {
                        rpc_put(&b, &key, &value)
                    }
                    (Scheme::Rpc, Some(Request::Get { key })) => rpc_get(&b, &key),
                    (Scheme::Forca, Some(Request::Get { key })) => forca_get(&b, &key),
                    (scheme, Some(Request::Put { key, vlen, crc })) if scheme != Scheme::Rpc => {
                        alloc_put(scheme, &b, &pending, &key, vlen, crc)
                    }
                    _ => corrupt(),
                };
                l.reply(from, resp.encode()).is_ok()
            });
        });
    }
}

fn corrupt() -> Response {
    Response::Ack {
        status: Status::Corrupt,
    }
}

/// The reply to an allocation RPC: where the object and its value live.
fn put_reply(staged: Result<(usize, ObjHeader), Status>) -> Response {
    match staged {
        Ok((off, hdr)) => Response::Put {
            status: Status::Ok,
            obj_off: off as u64,
            value_off: (off + hdr.value_off()) as u64,
        },
        Err(status) => Response::Put {
            status,
            obj_off: 0,
            value_off: 0,
        },
    }
}

/// The client-active allocation RPC: the client RDMA-writes the value
/// into the returned slot afterwards. The schemes differ in what the
/// server does with the new object before replying.
fn alloc_put(
    scheme: Scheme,
    b: &BaseServer,
    pending: &Pending,
    key: &[u8],
    vlen: u32,
    crc: u32,
) -> Response {
    if scheme == Scheme::Forca {
        // Forca's extra object-metadata hop and its flush.
        sim::work(b.cost.cpu_mem_hop_ns + b.cost.flush_base_ns);
    }
    sim::work(b.cost.cpu_req_handle_ns + b.cost.cpu_hash_ns + b.cost.cpu_alloc_ns);
    let fp = fingerprint(key);
    // Mutation block: no yields (Erda's ends with its flush charge).
    let staged = match scheme {
        Scheme::Erda | Scheme::Forca => return erda_put(b, fp, key, vlen, crc),
        // Link at once, flush nothing.
        Scheme::CaNoper => stage(b, fp, key, vlen, crc).and_then(|(off, hdr)| {
            b.link_entry(fp, off, hdr.klen, hdr.vlen, false)?;
            b.stats.puts.fetch_add(1, Ordering::Relaxed);
            Ok((off, hdr))
        }),
        // SAW/IMM: leave the hash entry untouched so no reader can observe
        // non-durable data; the completion process persists and links.
        _ => stage(b, fp, key, vlen, crc).inspect(|&(off, _)| {
            pending.lock().insert(off as u64, fp);
        }),
    };
    put_reply(staged)
}

/// Allocate and fill a new version of `key` (header + key, linked after
/// the current version) without flushing or linking it.
fn stage(
    b: &BaseServer,
    fp: u64,
    key: &[u8],
    vlen: u32,
    crc: u32,
) -> Result<(usize, ObjHeader), Status> {
    let (_, prev) = b.peek_prev(fp);
    b.stage_object(key, vlen, crc, prev, flags::VALID)
}

/// Flush a staged object, mark it durable, then point its hash entry at
/// it (flushed too). Returns the flushed line count.
fn persist_and_link(b: &BaseServer, fp: u64, off: usize, hdr: &ObjHeader) -> Result<usize, Status> {
    let lines = b.persist_range(off, hdr.object_size()) + b.set_durable(off);
    Ok(lines + b.link_entry(fp, off, hdr.klen, hdr.vlen, true)?)
}

/// SAW/IMM completion: the value has landed, so persist the object, then
/// expose the metadata and ack. IMM also pays for handling the
/// write_imm completion event.
fn complete_staged(b: &BaseServer, scheme: Scheme, fp: u64, off: usize) -> Response {
    let imm = if scheme == Scheme::Imm {
        b.cost.cpu_imm_completion_ns
    } else {
        0
    };
    sim::work(imm + b.cost.cpu_req_handle_ns);
    let hdr = ObjHeader::read_from(&b.pool, off);
    let lines = match persist_and_link(b, fp, off, &hdr) {
        Ok(n) => n,
        Err(status) => return Response::Ack { status },
    };
    sim::work(b.cost.flush(lines * LINE) + b.cost.cpu_hash_ns);
    b.stats.puts.fetch_add(1, Ordering::Relaxed);
    Response::Ack { status: Status::Ok }
}

/// Erda PUT: allocate, persist header + key + entry metadata, and expose
/// the new version *immediately* via the 8-byte atomic region. The value
/// itself is never flushed.
fn erda_put(b: &BaseServer, fp: u64, key: &[u8], vlen: u32, crc: u32) -> Response {
    let Ok((idx, entry)) = b.ht.lookup_or_claim(&b.pool, fp) else {
        return put_reply(Err(Status::TableFull));
    };
    let prev_latest = atomic_region::unpack(entry.slot[0])
        .map(|(latest, _)| latest)
        .unwrap_or(0);
    let (off, hdr) = match b.stage_object(key, vlen, crc, prev_latest, flags::VALID) {
        Ok(v) => v,
        Err(status) => return put_reply(Err(status)),
    };
    // Persist the object metadata + key (Erda's consistency anchor is
    // metadata durability; values are left to eviction).
    let mut lines = b.persist_range(off, layout::HDR_LEN + layout::pad8(key.len()));
    // The single failure-atomic metadata update: latest ← new, prev ← old.
    b.pool.write_u64(
        b.ht.entry_off(idx) + 8,
        atomic_region::pack(off as u64, prev_latest),
    );
    b.ht.set_sizes(&b.pool, idx, hdr.klen, hdr.vlen);
    b.ht.set_ctl(&b.pool, idx, Ctl::default().bumped());
    lines += b.ht.persist_entry(&b.pool, idx);
    sim::work(b.cost.flush(lines * LINE));
    b.stats.puts.fetch_add(1, Ordering::Relaxed);
    put_reply(Ok((off, hdr)))
}

/// RPC PUT: the value arrives inside the request; the server copies it
/// from the network buffer into NVM, persists, links, and acks.
fn rpc_put(b: &BaseServer, key: &[u8], value: &[u8]) -> Response {
    // Bulk two-sided receive + copy from the network buffer into NVM.
    sim::work(
        b.cost.cpu_twosided_bulk_ns
            + b.cost.cpu_req_handle_ns
            + b.cost.cpu_hash_ns
            + b.cost.cpu_alloc_ns
            + b.cost.memcpy(value.len()),
    );
    let fp = fingerprint(key);
    // Mutation block: stage + value copy + persist + link.
    let staged = stage(b, fp, key, value.len() as u32, crc32c(value)).and_then(|(off, hdr)| {
        b.pool.write(off + hdr.value_off(), value);
        persist_and_link(b, fp, off, &hdr)
    });
    let lines = match staged {
        Ok(n) => n,
        Err(status) => return Response::Ack { status },
    };
    sim::work(b.cost.flush(lines * LINE));
    b.stats.puts.fetch_add(1, Ordering::Relaxed);
    Response::Ack { status: Status::Ok }
}

fn get_reply(off: u64, klen: u16, vlen: u32) -> Response {
    Response::Get {
        status: Status::Ok,
        obj_off: off,
        klen,
        vlen,
    }
}

const NOT_FOUND: Response = Response::Get {
    status: Status::NotFound,
    obj_off: 0,
    klen: 0,
    vlen: 0,
};

/// RPC GET: a hash lookup returning the object's location (data is always
/// durable here).
fn rpc_get(b: &BaseServer, key: &[u8]) -> Response {
    sim::work(b.cost.cpu_req_handle_ns + b.cost.cpu_hash_ns);
    b.stats.gets.fetch_add(1, Ordering::Relaxed);
    match b.ht.lookup(&b.pool, fingerprint(key)) {
        Some((_, e)) if e.current() != 0 => get_reply(e.current(), e.klen, e.vlen),
        _ => NOT_FOUND,
    }
}

/// Forca GET: server-side self-verification + persisting before the
/// offset is returned. An object that a previous read already verified and
/// persisted carries its verified (durable) mark and skips the CRC;
/// *fresh* writes always pay it on their first read — which is why CRC
/// shows up so prominently in the paper's read-after-write latency
/// breakdown (Figure 2) while hot re-reads stay RPC-bound. The contrast
/// with eFactory remains: no background thread ever verifies ahead of the
/// first read, and every read needs the server.
fn forca_get(b: &BaseServer, key: &[u8]) -> Response {
    sim::work(b.cost.cpu_req_handle_ns + b.cost.cpu_hash_ns + b.cost.cpu_mem_hop_ns);
    b.stats.gets.fetch_add(1, Ordering::Relaxed);
    let Some((_, entry)) = b.ht.lookup(&b.pool, fingerprint(key)) else {
        return NOT_FOUND;
    };
    let Some((latest, _)) = atomic_region::unpack(entry.slot[0]) else {
        return NOT_FOUND;
    };
    // Walk the version list: serve the newest intact version.
    let mut off = latest;
    while off != 0 && off != NIL {
        let hdr = ObjHeader::read_from(&b.pool, off as usize);
        if hdr.klen as usize == key.len() && hdr.has(flags::VALID) {
            if hdr.has(flags::DURABLE) {
                // Verified + persisted by an earlier read.
                return get_reply(off, hdr.klen, hdr.vlen);
            }
            let value = layout::read_value(&b.pool, off as usize, &hdr);
            sim::work(b.cost.crc(value.len()));
            if crc32c(&value) == hdr.crc {
                // Persist on the read path and mark verified.
                let mut lines = b.persist_range(off as usize, hdr.object_size());
                lines += b.set_durable(off as usize);
                sim::work(b.cost.flush(lines * LINE));
                return get_reply(off, hdr.klen, hdr.vlen);
            }
        }
        off = hdr.pre_ptr;
    }
    NOT_FOUND
}
