//! The one baseline client: each [`Scheme`]'s PUT and GET over one queue
//! pair. Every mechanism is written once; a scheme picks its row in
//! [`BaselineClient::put`] and [`BaselineClient::get`].

use std::sync::Arc;

use efactory::client::RemoteKv;
use efactory::hashtable::fingerprint;
use efactory::layout::{self, ObjHeader};
use efactory::protocol::{Request, Response, Status, StoreError};
use efactory::server::StoreDesc;
use efactory_checksum::crc32c;
use efactory_rnic::{ClientQp, CostModel, Fabric, Node};
use efactory_sim as sim;

use crate::common::{atomic_region, read_path};
use crate::Scheme;

/// A comparison system's client.
pub struct BaselineClient {
    scheme: Scheme,
    qp: ClientQp,
    desc: StoreDesc,
    cost: CostModel,
}

/// Decode a durability ack.
fn ack(raw: &[u8]) -> Result<(), StoreError> {
    match Response::decode(raw).ok_or(StoreError::Protocol)? {
        Response::Ack { status: Status::Ok } => Ok(()),
        Response::Ack { status } => Err(StoreError::Status(status)),
        _ => Err(StoreError::Protocol),
    }
}

impl BaselineClient {
    /// Connect to the `scheme` server on `server_node`.
    pub fn connect(
        scheme: Scheme,
        fabric: &Arc<Fabric>,
        local: &Node,
        server_node: &Node,
        desc: StoreDesc,
    ) -> Result<Self, StoreError> {
        Ok(BaselineClient {
            scheme,
            qp: fabric.connect(local, server_node)?,
            desc,
            cost: fabric.cost().clone(),
        })
    }

    /// PUT `key = value`. Durable on return for SAW, IMM and RPC; never
    /// explicitly for CA w/o persistence, Erda and Forca.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        if self.scheme == Scheme::Rpc {
            // One RPC carrying the whole value.
            let req = Request::RpcPut {
                key: key.to_vec(),
                value: value.to_vec(),
            };
            return ack(&self.qp.rpc(req.encode())?);
        }
        // Client-active: an allocation RPC, then a one-sided value write.
        let req = Request::Put {
            key: key.to_vec(),
            vlen: value.len() as u32,
            crc: crc32c(value),
        };
        let raw = self.qp.rpc(req.encode())?;
        let (obj_off, value_off) = match Response::decode(&raw).ok_or(StoreError::Protocol)? {
            Response::Put {
                status: Status::Ok,
                obj_off,
                value_off,
            } => (obj_off, value_off as usize),
            Response::Put { status, .. } => return Err(StoreError::Status(status)),
            _ => return Err(StoreError::Protocol),
        };
        if self.scheme == Scheme::Imm {
            // The immediate carries the object offset back to the server;
            // wait for its durability ack.
            self.qp
                .rdma_write_imm(&self.desc.mr, value_off, value.to_vec(), obj_off as u32)?;
            return ack(&self.qp.recv_reply_deadline(sim::now() + sim::millis(100))?);
        }
        if !value.is_empty() {
            self.qp
                .rdma_write(&self.desc.mr, value_off, value.to_vec())?;
        }
        if self.scheme == Scheme::Saw {
            // The "send" of send-after-write.
            return ack(&self.qp.rpc(Request::Persist { obj_off }.encode())?);
        }
        Ok(())
    }

    /// GET `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        match self.scheme {
            Scheme::Erda => self.get_verified(key),
            Scheme::Forca | Scheme::Rpc => self.get_via_rpc(key),
            Scheme::CaNoper | Scheme::Saw | Scheme::Imm => self.get_unverified(key),
        }
    }

    /// Two pure RDMA reads (hash entry window, object), no verification
    /// beyond the key match: SAW and IMM entries only ever point at
    /// durable objects, and CA w/o persistence promises nothing.
    fn get_unverified(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(entry) = read_path::fetch_entry(&self.qp, &self.desc, fingerprint(key))? else {
            return Ok(None);
        };
        let off = entry.current();
        if off == 0 {
            return Ok(None);
        }
        let (klen, vlen) = (entry.klen as usize, entry.vlen as usize);
        let fetched = read_path::fetch_object(&self.qp, &self.desc, off, klen, vlen, key)?;
        Ok(fetched.map(|(hdr, obj)| read_path::value_of(&hdr, &obj)))
    }

    /// Erda: pure one-sided GET with client-side verification and
    /// one-step previous-version fallback.
    fn get_verified(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(entry) = read_path::fetch_entry(&self.qp, &self.desc, fingerprint(key))? else {
            return Ok(None);
        };
        let Some((latest, prev)) = atomic_region::unpack(entry.slot[0]) else {
            return Ok(None);
        };
        if let Some(v) =
            self.fetch_verified(latest, entry.klen as usize, entry.vlen as usize, key)?
        {
            return Ok(Some(v));
        }
        // Latest incomplete: one extra read of the previous version. Its
        // sizes may differ, so fetch its header first.
        let Some(prev) = prev else { return Ok(None) };
        let hraw = self
            .qp
            .rdma_read(&self.desc.mr, prev as usize, layout::HDR_LEN)?;
        let Some(phdr) = ObjHeader::decode(&hraw) else {
            return Ok(None);
        };
        if phdr.klen as usize != key.len() || phdr.vlen as usize > 16 << 20 {
            return Ok(None);
        }
        self.fetch_verified(prev, phdr.klen as usize, phdr.vlen as usize, key)
    }

    /// Fetch + CRC-verify the object at `off` (client pays the CRC cost).
    fn fetch_verified(
        &self,
        off: u64,
        klen: usize,
        vlen: usize,
        key: &[u8],
    ) -> Result<Option<Vec<u8>>, StoreError> {
        let Some((hdr, obj)) = read_path::fetch_object(&self.qp, &self.desc, off, klen, vlen, key)?
        else {
            return Ok(None);
        };
        let value = read_path::value_of(&hdr, &obj);
        // The client-side CRC on the read critical path — Erda's documented
        // weakness at large values.
        sim::work(self.cost.crc(value.len()));
        Ok((crc32c(&value) == hdr.crc).then_some(value))
    }

    /// Forca and RPC: a GET RPC locates the object (Forca's server also
    /// verifies and persists it), then one one-sided read fetches it.
    fn get_via_rpc(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let raw = self.qp.rpc(Request::Get { key: key.to_vec() }.encode())?;
        let Response::Get {
            status,
            obj_off,
            klen,
            vlen,
        } = Response::decode(&raw).ok_or(StoreError::Protocol)?
        else {
            return Err(StoreError::Protocol);
        };
        match status {
            Status::NotFound => return Ok(None),
            Status::Ok => {}
            s => return Err(StoreError::Status(s)),
        }
        let (klen, vlen) = (klen as usize, vlen as usize);
        match read_path::fetch_object(&self.qp, &self.desc, obj_off, klen, vlen, key)? {
            Some((hdr, obj)) => Ok(Some(read_path::value_of(&hdr, &obj))),
            None => Err(StoreError::Protocol),
        }
    }
}

impl RemoteKv for BaselineClient {
    fn kv_put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.put(key, value)
    }
    fn kv_get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.get(key)
    }
}
