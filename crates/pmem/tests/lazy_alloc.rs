//! A pool's untouched bytes must cost no resident memory: the working
//! image and the per-line bookkeeping are mapped lazily by the OS. This
//! test sits in a binary of its own so no other test moves the process's
//! resident set while it measures.

use efactory_pmem::{CrashSpec, PmemPool};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Resident set size of this process in KiB, or `None` without procfs.
fn vm_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[test]
fn gib_pool_is_lazily_allocated() {
    let Some(before) = vm_rss_kib() else {
        eprintln!("no /proc/self/status; skipping");
        return;
    };
    let pool = PmemPool::new(1 << 30);
    // Touch a few lines at both ends, flush some, crash the rest away.
    pool.write(0, &[0xAB; 4096]);
    pool.persist(0, 2048);
    pool.write((1 << 30) - 4096, &[0xCD; 4096]);
    pool.crash(CrashSpec::DropAll, &mut StdRng::seed_from_u64(1));
    assert_eq!(pool.dirty_line_count(), 0);
    let grown_kib = vm_rss_kib().expect("VmRSS").saturating_sub(before);
    assert!(
        grown_kib < 16 * 1024,
        "a 1 GiB pool raised VmRSS by {grown_kib} KiB (limit 16 MiB)"
    );
}
