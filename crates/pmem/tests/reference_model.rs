//! `PmemPool` against a reference model: the straightforward two-image
//! pool (a full working image plus a full media image) that the pre-image
//! pool replaces. Random operation sequences must leave both with the same
//! working and media images, crash reports, counters, dirty-line counts and
//! `is_persisted` answers.

use efactory_pmem::{CrashReport, CrashSpec, PmemPool, LINE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Two full images and a dirty flag per line; counters in `PmemStats`
/// order: bytes written, flushes, lines flushed, drains, crashes,
/// corruptions.
struct TwoImagePool {
    working: Vec<u8>,
    media: Vec<u8>,
    dirty: Vec<bool>,
    stats: [u64; 6],
}

impl TwoImagePool {
    fn new(len: usize) -> Self {
        TwoImagePool {
            working: vec![0; len],
            media: vec![0; len],
            dirty: vec![false; len / LINE],
            stats: [0; 6],
        }
    }

    fn write(&mut self, off: usize, data: &[u8]) {
        self.working[off..off + data.len()].copy_from_slice(data);
        self.stats[0] += data.len() as u64;
        if !data.is_empty() {
            self.dirty[off / LINE..=(off + data.len() - 1) / LINE].fill(true);
        }
    }

    fn flush(&mut self, off: usize, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        self.stats[1] += 1;
        let mut flushed = 0;
        for line in off / LINE..=(off + len - 1) / LINE {
            if std::mem::take(&mut self.dirty[line]) {
                let r = line * LINE..(line + 1) * LINE;
                self.media[r.clone()].copy_from_slice(&self.working[r]);
                flushed += 1;
            }
        }
        self.stats[2] += flushed as u64;
        flushed
    }

    fn crash(&mut self, spec: CrashSpec, rng: &mut StdRng) -> CrashReport {
        self.stats[4] += 1;
        let mut report = CrashReport::default();
        for line in (0..self.dirty.len()).filter(|&l| self.dirty[l]) {
            report.dirty_lines += 1;
            let keep_line = match spec {
                CrashSpec::DropAll => false,
                CrashSpec::KeepAll | CrashSpec::Words(_) => true,
                CrashSpec::Lines(p) => rng.gen_bool(p),
            };
            for w in (line * LINE..(line + 1) * LINE).step_by(8) {
                let keep = match spec {
                    CrashSpec::Words(p) => rng.gen_bool(p),
                    _ => keep_line,
                };
                if self.working[w..w + 8] == self.media[w..w + 8] {
                    continue;
                }
                if keep {
                    self.media[w..w + 8].copy_from_slice(&self.working[w..w + 8]);
                    report.words_persisted += 1;
                } else {
                    report.words_lost += 1;
                }
            }
        }
        self.working.clone_from(&self.media);
        self.dirty.fill(false);
        report
    }

    fn zero_region(&mut self, off: usize, len: usize) {
        self.working[off..off + len].fill(0);
        self.media[off..off + len].fill(0);
        self.dirty[off / LINE..(off + len) / LINE].fill(false);
    }

    fn corrupt_range(&mut self, off: usize, len: usize, pattern: u8) {
        for i in off..off + len {
            self.working[i] ^= pattern;
            self.media[i] ^= pattern;
        }
        self.stats[5] += len as u64;
    }
}

/// Three 64-line tracking words' worth of lines, the last one partial.
const POOL: usize = 130 * LINE;

#[derive(Clone, Debug)]
enum Op {
    Write(usize, Vec<u8>),
    WriteU64(usize, u64),
    Flush(usize, usize),
    Persist(usize, usize),
    Zero(usize, usize),
    Corrupt(usize, usize, u8),
    Crash(u8, f64, u64),
    IsPersisted(usize, usize),
}

/// Bytes biased towards zero, so zero pre-images, all-zero lines and clean
/// words inside dirty lines all come up often.
fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![Just(0u8), any::<u8>()], 0..max)
}

/// A byte range inside the pool, up to 1500 bytes long.
fn range() -> impl Strategy<Value = (usize, usize)> {
    (0..POOL, 0usize..1500).prop_map(|(off, len)| (off, len.min(POOL - off)))
}

fn write() -> impl Strategy<Value = Op> {
    (0..POOL, bytes(300)).prop_map(|(off, d)| Op::Write(off % (POOL - d.len() + 1), d))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        write(),
        write(),
        (0..POOL / 8, prop_oneof![Just(0u64), any::<u64>()])
            .prop_map(|(w, v)| Op::WriteU64(w * 8, v)),
        range().prop_map(|(off, len)| Op::Flush(off, len)),
        range().prop_map(|(off, len)| Op::Persist(off, len)),
        (0..POOL / LINE, 0usize..20)
            .prop_map(|(l, n)| Op::Zero(l * LINE, n.min(POOL / LINE - l) * LINE)),
        (range(), 1u8..=255).prop_map(|((off, len), p)| Op::Corrupt(off, len, p)),
        (0u8..4, 0.0f64..=1.0, any::<u64>()).prop_map(|(k, p, s)| Op::Crash(k, p, s)),
        range().prop_map(|(off, len)| Op::IsPersisted(off, len)),
        // Short ranges probe byte precision inside partly rewritten words.
        (0..POOL - 16, 1usize..16).prop_map(|(off, len)| Op::IsPersisted(off, len)),
    ]
}

fn stats(pool: &PmemPool) -> [u64; 6] {
    let s = pool.stats();
    [
        s.bytes_written.get(),
        s.flushes.get(),
        s.lines_flushed.get(),
        s.drains.get(),
        s.crashes.get(),
        s.corruptions.get(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pre_image_pool_matches_two_image_model(ops in proptest::collection::vec(op(), 1..60)) {
        let pool = PmemPool::new(POOL);
        let mut model = TwoImagePool::new(POOL);
        for op in ops {
            match op {
                Op::Write(off, data) => {
                    pool.write(off, &data);
                    model.write(off, &data);
                }
                Op::WriteU64(off, v) => {
                    pool.write_u64(off, v);
                    model.write(off, &v.to_le_bytes());
                }
                Op::Flush(off, len) => prop_assert_eq!(pool.flush(off, len), model.flush(off, len)),
                Op::Persist(off, len) => {
                    pool.persist(off, len);
                    model.flush(off, len);
                    model.stats[3] += 1;
                }
                Op::Zero(off, len) => {
                    pool.zero_region(off, len);
                    model.zero_region(off, len);
                }
                Op::Corrupt(off, len, pattern) => {
                    pool.corrupt_range(off, len, pattern);
                    model.corrupt_range(off, len, pattern);
                }
                Op::Crash(kind, p, seed) => {
                    let spec = match kind {
                        0 => CrashSpec::DropAll,
                        1 => CrashSpec::KeepAll,
                        2 => CrashSpec::Lines(p),
                        _ => CrashSpec::Words(p),
                    };
                    let got = pool.crash(spec, &mut StdRng::seed_from_u64(seed));
                    let want = model.crash(spec, &mut StdRng::seed_from_u64(seed));
                    prop_assert_eq!(got, want);
                }
                Op::IsPersisted(off, len) => prop_assert_eq!(
                    pool.is_persisted(off, len),
                    model.working[off..off + len] == model.media[off..off + len]
                ),
            }
            prop_assert_eq!(pool.dirty_line_count(), model.dirty.iter().filter(|&&d| d).count());
            prop_assert_eq!(stats(&pool), model.stats);
            prop_assert!(pool.working_snapshot() == model.working, "working images differ");
            prop_assert!(pool.media_snapshot() == model.media, "media images differ");
        }
    }
}
