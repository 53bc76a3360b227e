//! The hash index (paper §4.2.2, Figure 4).
//!
//! A flat array of 40-byte buckets in the registered NVM region, designed so
//! a client can resolve a key with **one** RDMA read: it fetches a
//! [`NPROBE`]-bucket window starting at the key's home bucket and scans it
//! locally. Each bucket stores:
//!
//! ```text
//! w0: key fingerprint (64-bit FNV-1a; 0 = empty bucket)
//! w1: slot 0 — object offset in data pool A
//! w2: slot 1 — object offset in data pool B
//! w3: sizes  — klen:u16 | vlen:u32 (lets the client size the object read)
//! w4: ctl    — mark bit (which slot is current), new-valid bit (the other
//!              slot holds a relocated offset during log cleaning), seq
//! ```
//!
//! The paper's hash entry holds "the key and the object's offset …, an
//! additional offset …, \[and\] a mark bit to indicate which offset is related
//! to the current working data pool". We store a 64-bit fingerprint instead
//! of the full key (clients verify the key bytes of the fetched object, the
//! paper's own validation step) and add the sizes word so one entry read
//! suffices to issue the object read.
//!
//! Collision policy: linear probing within the home window. Insertion never
//! wraps (home indices are capped at `buckets - NPROBE`), so a client window
//! read is always one contiguous RDMA read.
//!
//! The comparison systems reuse this structure; Erda reinterprets slot 0 as
//! its packed 8-byte atomic region (see `efactory_baselines::common::atomic_region`).
//!
//! **Concurrency discipline**: server-side mutators touch multiple words,
//! which is only safe because every mutation sequence runs without an
//! intervening simulated-time yield (no `sim::work` between the word
//! stores) — remote readers and sibling server processes observe entries at
//! event granularity, i.e. before or after the whole update.

use efactory_pmem::PmemPool;

/// Bytes per bucket.
pub const BUCKET_LEN: usize = 40;
/// Buckets fetched (and probed) per lookup window.
pub const NPROBE: usize = 16;

/// Control-word accessors (`w4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ctl(pub u64);

impl Ctl {
    /// Which slot (0/1) holds the current working-pool offset.
    #[inline]
    pub fn mark(self) -> usize {
        (self.0 & 1) as usize
    }

    /// During log cleaning: the *other* slot holds a valid offset in the
    /// new data pool.
    #[inline]
    pub fn new_valid(self) -> bool {
        self.0 & 2 != 0
    }

    /// Update sequence number (diagnostics; bumped on every entry update).
    #[inline]
    pub fn seq(self) -> u64 {
        self.0 >> 8
    }

    /// Builder: set the mark bit.
    #[inline]
    pub fn with_mark(self, mark: usize) -> Ctl {
        Ctl((self.0 & !1) | (mark as u64 & 1))
    }

    /// Builder: set the new-valid bit.
    #[inline]
    pub fn with_new_valid(self, v: bool) -> Ctl {
        Ctl(if v { self.0 | 2 } else { self.0 & !2 })
    }

    /// Builder: bump the sequence number.
    #[inline]
    pub fn bumped(self) -> Ctl {
        Ctl(self.0.wrapping_add(1 << 8))
    }
}

/// A decoded hash entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Key fingerprint (0 ⇒ the bucket is empty).
    pub fp: u64,
    /// Object offsets: slot 0 → pool A, slot 1 → pool B.
    pub slot: [u64; 2],
    /// Key length of the current version.
    pub klen: u16,
    /// Value length of the current version.
    pub vlen: u32,
    /// Control word.
    pub ctl: Ctl,
}

impl Entry {
    /// The offset of the current version (selected by the mark bit).
    #[inline]
    pub fn current(&self) -> u64 {
        self.slot[self.ctl.mark()]
    }

    /// The offset in the *other* slot (the new pool during cleaning).
    #[inline]
    pub fn other(&self) -> u64 {
        self.slot[1 - self.ctl.mark()]
    }

    /// Decode from 40 raw bytes (client side, after an RDMA read).
    pub fn decode(buf: &[u8]) -> Option<Entry> {
        if buf.len() < BUCKET_LEN {
            return None;
        }
        let w = |i: usize| u64::from_le_bytes(buf[i * 8..(i + 1) * 8].try_into().unwrap());
        let sizes = w(3);
        Some(Entry {
            fp: w(0),
            slot: [w(1), w(2)],
            klen: sizes as u16,
            vlen: (sizes >> 16) as u32,
            ctl: Ctl(w(4)),
        })
    }
}

/// Fingerprint of a key: 64-bit FNV-1a over the bytes, finalized with a
/// splitmix64 scramble so near-sequential keys spread across buckets, with
/// 0 remapped (0 marks an empty bucket).
pub fn fingerprint(key: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in key {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    // splitmix64 finalizer.
    let mut z = hash.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    if z == 0 {
        1
    } else {
        z
    }
}

/// Errors from hash-table mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HtError {
    /// No free bucket in the key's probe window.
    TableFull,
}

/// Server-side view of the hash index over a pmem region.
#[derive(Debug, Clone, Copy)]
pub struct HashTable {
    base: usize,
    buckets: usize,
}

impl HashTable {
    /// Table over `buckets` buckets starting at pool offset `base`.
    pub fn new(base: usize, buckets: usize) -> Self {
        assert!(buckets > NPROBE, "table too small for the probe window");
        assert_eq!(base % 8, 0);
        HashTable { base, buckets }
    }

    /// Bytes needed for `buckets` buckets.
    pub const fn region_len(buckets: usize) -> usize {
        buckets * BUCKET_LEN
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Base offset of the table in the pool.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Home bucket index for a fingerprint. Capped so the probe window
    /// `[home, home + NPROBE)` never wraps.
    #[inline]
    pub fn home(&self, fp: u64) -> usize {
        (fp % (self.buckets - NPROBE) as u64) as usize
    }

    /// Absolute pool offset of bucket `idx`.
    #[inline]
    pub fn entry_off(&self, idx: usize) -> usize {
        self.base + idx * BUCKET_LEN
    }

    /// Read and decode bucket `idx`.
    pub fn read(&self, pool: &PmemPool, idx: usize) -> Entry {
        let off = self.entry_off(idx);
        let sizes = pool.read_u64(off + 24);
        Entry {
            fp: pool.read_u64(off),
            slot: [pool.read_u64(off + 8), pool.read_u64(off + 16)],
            klen: sizes as u16,
            vlen: (sizes >> 16) as u32,
            ctl: Ctl(pool.read_u64(off + 32)),
        }
    }

    /// Find the bucket holding `fp`, if any.
    pub fn lookup(&self, pool: &PmemPool, fp: u64) -> Option<(usize, Entry)> {
        let home = self.home(fp);
        for idx in home..home + NPROBE {
            let e = self.read(pool, idx);
            if e.fp == fp {
                return Some((idx, e));
            }
        }
        None
    }

    /// Find the bucket for `fp`, claiming the first empty bucket in the
    /// window if absent. The claimed bucket has only its fingerprint word
    /// written; the caller fills the rest (and flushes).
    pub fn lookup_or_claim(&self, pool: &PmemPool, fp: u64) -> Result<(usize, Entry), HtError> {
        let home = self.home(fp);
        let mut free = None;
        for idx in home..home + NPROBE {
            let e = self.read(pool, idx);
            if e.fp == fp {
                return Ok((idx, e));
            }
            if e.fp == 0 && free.is_none() {
                free = Some(idx);
            }
        }
        let idx = free.ok_or(HtError::TableFull)?;
        let off = self.entry_off(idx);
        pool.write_u64(off, fp);
        Ok((idx, self.read(pool, idx)))
    }

    /// Overwrite one slot word.
    pub fn set_slot(&self, pool: &PmemPool, idx: usize, which: usize, off_val: u64) {
        pool.write_u64(self.entry_off(idx) + 8 + which * 8, off_val);
    }

    /// Overwrite the sizes word.
    pub fn set_sizes(&self, pool: &PmemPool, idx: usize, klen: u16, vlen: u32) {
        let sizes = (klen as u64) | ((vlen as u64) << 16);
        pool.write_u64(self.entry_off(idx) + 24, sizes);
    }

    /// Overwrite the control word.
    pub fn set_ctl(&self, pool: &PmemPool, idx: usize, ctl: Ctl) {
        pool.write_u64(self.entry_off(idx) + 32, ctl.0);
    }

    /// Clear the bucket entirely (key deleted by log cleaning).
    pub fn clear(&self, pool: &PmemPool, idx: usize) {
        let off = self.entry_off(idx);
        for w in 0..5 {
            pool.write_u64(off + w * 8, 0);
        }
    }

    /// Flush the cache line(s) holding bucket `idx` (40 B can straddle two).
    pub fn persist_entry(&self, pool: &PmemPool, idx: usize) -> usize {
        let n = pool.flush(self.entry_off(idx), BUCKET_LEN);
        pool.drain();
        n
    }

    /// Iterate over occupied buckets.
    pub fn for_each_occupied(&self, pool: &PmemPool, mut f: impl FnMut(usize, Entry)) {
        for idx in 0..self.buckets {
            let e = self.read(pool, idx);
            if e.fp != 0 {
                f(idx, e);
            }
        }
    }
}

/// Client-side scan of a fetched probe window for `fp`. Returns the bucket
/// index (relative to the window start) and the decoded entry.
pub fn find_in_window(window: &[u8], fp: u64) -> Option<(usize, Entry)> {
    for (i, chunk) in window.chunks_exact(BUCKET_LEN).enumerate() {
        let e = Entry::decode(chunk)?;
        if e.fp == fp {
            return Some((i, e));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (PmemPool, HashTable) {
        let buckets = 256;
        let pool = PmemPool::new(HashTable::region_len(buckets) + 64);
        (pool, HashTable::new(0, buckets))
    }

    #[test]
    fn fingerprint_never_zero_and_distinguishes_keys() {
        assert_ne!(fingerprint(b""), 0);
        assert_ne!(fingerprint(b"a"), fingerprint(b"b"));
        assert_ne!(fingerprint(b"key1"), fingerprint(b"key2"));
    }

    #[test]
    fn claim_then_lookup_roundtrip() {
        let (pool, ht) = table();
        let fp = fingerprint(b"hello");
        let (idx, e) = ht.lookup_or_claim(&pool, fp).unwrap();
        assert_eq!(e.fp, fp);
        assert_eq!(e.current(), 0);
        ht.set_slot(&pool, idx, 0, 4096);
        ht.set_sizes(&pool, idx, 5, 100);
        ht.set_ctl(&pool, idx, Ctl::default().bumped());
        let (idx2, e2) = ht.lookup(&pool, fp).unwrap();
        assert_eq!(idx2, idx);
        assert_eq!(e2.current(), 4096);
        assert_eq!(e2.klen, 5);
        assert_eq!(e2.vlen, 100);
        assert_eq!(e2.ctl.seq(), 1);
    }

    #[test]
    fn lookup_missing_returns_none() {
        let (pool, ht) = table();
        assert!(ht.lookup(&pool, fingerprint(b"ghost")).is_none());
    }

    #[test]
    fn colliding_homes_probe_linearly() {
        let (pool, ht) = table();
        // Craft fingerprints with the same home bucket.
        let base_fp = 7u64;
        let stride = (ht.buckets() - NPROBE) as u64;
        let fps: Vec<u64> = (0..4).map(|i| base_fp + i * stride).collect();
        let mut idxs = Vec::new();
        for &fp in &fps {
            let (idx, _) = ht.lookup_or_claim(&pool, fp).unwrap();
            idxs.push(idx);
        }
        // All in the same window, all distinct.
        assert!(idxs.windows(2).all(|w| w[1] == w[0] + 1));
        for (&fp, &idx) in fps.iter().zip(&idxs) {
            assert_eq!(ht.lookup(&pool, fp).unwrap().0, idx);
        }
    }

    #[test]
    fn window_overflow_reports_table_full() {
        let (pool, ht) = table();
        let base_fp = 3u64;
        let stride = (ht.buckets() - NPROBE) as u64;
        for i in 0..NPROBE as u64 {
            ht.lookup_or_claim(&pool, base_fp + i * stride).unwrap();
        }
        assert_eq!(
            ht.lookup_or_claim(&pool, base_fp + NPROBE as u64 * stride),
            Err(HtError::TableFull)
        );
    }

    #[test]
    fn mark_selects_slot() {
        let (pool, ht) = table();
        let fp = fingerprint(b"both-slots");
        let (idx, _) = ht.lookup_or_claim(&pool, fp).unwrap();
        ht.set_slot(&pool, idx, 0, 111);
        ht.set_slot(&pool, idx, 1, 222);
        ht.set_ctl(&pool, idx, Ctl::default().with_mark(0).with_new_valid(true));
        let e = ht.read(&pool, idx);
        assert_eq!(e.current(), 111);
        assert_eq!(e.other(), 222);
        assert!(e.ctl.new_valid());
        ht.set_ctl(&pool, idx, e.ctl.with_mark(1).with_new_valid(false));
        let e = ht.read(&pool, idx);
        assert_eq!(e.current(), 222);
        assert_eq!(e.other(), 111);
    }

    #[test]
    fn clear_frees_the_bucket() {
        let (pool, ht) = table();
        let fp = fingerprint(b"temp");
        let (idx, _) = ht.lookup_or_claim(&pool, fp).unwrap();
        ht.clear(&pool, idx);
        assert!(ht.lookup(&pool, fp).is_none());
        // Bucket is reusable.
        let (idx2, _) = ht.lookup_or_claim(&pool, fp).unwrap();
        assert_eq!(idx2, idx);
    }

    #[test]
    fn client_window_scan_matches_server_lookup() {
        let (pool, ht) = table();
        let fp = fingerprint(b"remote");
        let (idx, _) = ht.lookup_or_claim(&pool, fp).unwrap();
        ht.set_slot(&pool, idx, 0, 8192);
        ht.set_sizes(&pool, idx, 6, 64);
        // Simulate the client's one-shot window read.
        let home = ht.home(fp);
        let mut window = vec![0u8; NPROBE * BUCKET_LEN];
        pool.read(ht.entry_off(home), &mut window);
        let (rel, e) = find_in_window(&window, fp).unwrap();
        assert_eq!(home + rel, idx);
        assert_eq!(e.current(), 8192);
        assert_eq!(e.vlen, 64);
    }

    #[test]
    fn for_each_occupied_visits_every_key() {
        let (pool, ht) = table();
        let keys: Vec<Vec<u8>> = (0..50).map(|i| format!("key{i}").into_bytes()).collect();
        for k in &keys {
            ht.lookup_or_claim(&pool, fingerprint(k)).unwrap();
        }
        let mut seen = 0;
        ht.for_each_occupied(&pool, |_, _| seen += 1);
        assert_eq!(seen, keys.len());
    }

    #[test]
    fn entry_decode_matches_read() {
        let (pool, ht) = table();
        let fp = fingerprint(b"zz");
        let (idx, _) = ht.lookup_or_claim(&pool, fp).unwrap();
        ht.set_slot(&pool, idx, 1, 77);
        ht.set_ctl(&pool, idx, Ctl::default().with_mark(1));
        let mut raw = vec![0u8; BUCKET_LEN];
        pool.read(ht.entry_off(idx), &mut raw);
        assert_eq!(Entry::decode(&raw).unwrap(), ht.read(&pool, idx));
    }
}
