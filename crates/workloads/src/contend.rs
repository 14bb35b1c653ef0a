//! Read-dominated contention workload for the lock-free read path.
//!
//! [`churn`](crate::churn) stresses the sharded runtime with *disjoint*
//! per-thread live sets — threads rarely touch the same object, so the
//! striped mutexes barely collide. This workload is the opposite shape:
//! every thread hammers the **same shared set of objects**, with a small
//! writer fraction mutating fields while the readers race through the
//! optimistic (seqlock) path. It is the workload behind the
//! `mixed_rw_mt*` benchmark rows and the `check.sh` lock-free stress
//! smoke.
//!
//! Correctness oracle: writers only ever store values whose two 32-bit
//! halves are equal (`(x << 32) | x`), so any torn read — a reader
//! observing half an update — is caught by a cheap `hi == lo` check
//! without needing per-object locks in the test harness itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_runtime::{Addr, RandomizeMode, RuntimeConfig, RuntimeStats, ShardedRuntime};
use polar_rng::{Rng, RngExt, SplitMix64};

/// Shape of a contention run.
#[derive(Debug, Clone, Copy)]
pub struct ContendConfig {
    /// Worker threads, all operating on the one shared object set.
    pub threads: u64,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Shard count for the runtime.
    pub shards: usize,
    /// Root seed for the runtime and the per-thread op drivers.
    pub seed: u64,
    /// Shared objects allocated up front (spread round-robin over shards).
    pub objects: usize,
    /// Percentage of operations that are field writes; the rest are
    /// field reads. The benchmark's mixed row uses 10 (a 90/10 mix);
    /// 0 gives a pure-reader run.
    pub write_pct: u32,
}

impl Default for ContendConfig {
    fn default() -> Self {
        ContendConfig {
            threads: 4,
            ops_per_thread: 10_000,
            shards: 4,
            seed: 0x5EC_10C,
            objects: 64,
            write_pct: 10,
        }
    }
}

/// What a contention run observed.
#[derive(Debug, Clone, Copy)]
pub struct ContendReport {
    /// Quiescent runtime counters summed over shards and threads.
    pub stats: RuntimeStats,
    /// Field reads issued across all threads (each checked for tearing).
    pub reads: u64,
    /// Field writes issued across all threads.
    pub writes: u64,
    /// `estimated_metadata_bytes` of the runtime at the end of the run.
    pub metadata_bytes: usize,
}

impl ContendReport {
    /// Fraction of reads served without taking a shard mutex, in
    /// `[0, 1]`; `None` when no read was issued.
    pub fn lockfree_share(&self) -> Option<f64> {
        let attempts = self.stats.lockfree_reads + self.stats.lockfree_fallbacks;
        if attempts == 0 {
            None
        } else {
            Some(self.stats.lockfree_reads as f64 / attempts as f64)
        }
    }
}

/// The shared object class: one vtable slot plus three data words.
fn contended_class() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("Contended")
            .field("vtable", FieldKind::VtablePtr)
            .field("a", FieldKind::I64)
            .field("b", FieldKind::I64)
            .field("c", FieldKind::I64)
            .build(),
    ))
}

/// Run the contention workload and return its report.
///
/// Panics if any reader observes a torn value (unequal 32-bit halves)
/// or any runtime call fails — the shared set is never freed mid-run,
/// so every access must resolve.
pub fn run_contend(mode: RandomizeMode, config: ContendConfig) -> ContendReport {
    assert!(config.objects > 0, "contend needs at least one shared object");
    assert!(config.write_pct <= 100, "write_pct is a percentage");
    let mut rt_config = RuntimeConfig::default();
    rt_config.heap.capacity = 64 << 20;
    rt_config.seed = config.seed;
    let rt = ShardedRuntime::new(mode, rt_config, config.shards);
    let info = contended_class();

    // Shared set, spread over shards so routing stays multi-shard.
    let mut seeder = SplitMix64::new(config.seed ^ 0xC0_47E4D);
    let mut objects = Vec::with_capacity(config.objects);
    for i in 0..config.objects {
        let mut h = rt.handle(i as u64);
        let obj = h.olr_malloc(&info).expect("contend setup malloc");
        for field in 0..info.field_count() {
            let x = seeder.next_u64() & 0xFFFF_FFFF;
            h.write_field(obj, info.hash(), field, (x << 32) | x)
                .expect("contend setup write");
        }
        objects.push(obj);
    }

    let reads = AtomicU64::new(0);
    let writes = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let (rt, info, objects, reads, writes) = (&rt, &info, &objects, &reads, &writes);
        let workers: Vec<_> = (0..config.threads)
            .map(|t| {
                scope.spawn(move || {
                    let (r, w) = contend_thread(rt, info, objects, t, config);
                    reads.fetch_add(r, Ordering::Relaxed);
                    writes.fetch_add(w, Ordering::Relaxed);
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("contend worker panicked");
        }
    });

    let mut drain = rt.handle(0);
    for obj in objects {
        drain.olr_free(obj).expect("contend drain free");
    }
    drop(drain); // flushes its counts before the snapshot below
    ContendReport {
        stats: rt.stats(),
        reads: reads.into_inner(),
        writes: writes.into_inner(),
        metadata_bytes: rt.estimated_metadata_bytes(),
    }
}

/// One worker: seeded read/write mix over the shared set. Returns
/// `(reads, writes)` issued.
fn contend_thread(
    rt: &ShardedRuntime,
    info: &Arc<ClassInfo>,
    objects: &[Addr],
    thread: u64,
    config: ContendConfig,
) -> (u64, u64) {
    // Per-thread handle: reads count into its plain sheet, flushed into
    // the shared stats when the handle drops at the end of this scope —
    // before the spawning scope joins, so `run_contend`'s final stats
    // are exact.
    let mut h = rt.handle(thread);
    let mut driver = SplitMix64::new(config.seed ^ (0xD15C0_u64 + thread));
    let fields = info.field_count();
    let (mut reads, mut writes) = (0u64, 0u64);
    for _ in 0..config.ops_per_thread {
        let obj = objects[driver.random_range(0..objects.len())];
        let field = driver.random_range(0..fields);
        if driver.random_range(0..100u32) < config.write_pct {
            let x = driver.next_u64() & 0xFFFF_FFFF;
            h.write_field(obj, info.hash(), field, (x << 32) | x)
                .expect("contend write");
            writes += 1;
        } else {
            let v = h.read_field(obj, info.hash(), field).expect("contend read");
            assert_eq!(
                v >> 32,
                v & 0xFFFF_FFFF,
                "thread {thread}: torn read of field {field} of {obj:?}: {v:#x}"
            );
            reads += 1;
        }
    }
    (reads, writes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contend_mixes_and_counts_every_read_attempt() {
        let report = run_contend(
            RandomizeMode::per_allocation(),
            ContendConfig { threads: 4, ops_per_thread: 2_000, ..Default::default() },
        );
        assert!(report.reads > 0);
        assert!(report.writes > 0);
        assert_eq!(report.reads + report.writes, 8_000);
        assert_eq!(report.stats.total_detections(), 0);
        // Exactly one counter bump per handle read attempt: the
        // optimistic hits and the mutex fallbacks partition the reads.
        assert_eq!(
            report.stats.lockfree_reads + report.stats.lockfree_fallbacks,
            report.reads,
            "every read resolves as exactly one fast hit or fallback"
        );
        assert!(report.lockfree_share().is_some());
    }

    #[test]
    fn pure_readers_stay_on_the_fast_path() {
        let report = run_contend(
            RandomizeMode::per_allocation(),
            ContendConfig {
                threads: 2,
                ops_per_thread: 2_000,
                write_pct: 0,
                ..Default::default()
            },
        );
        assert_eq!(report.writes, 0);
        assert_eq!(report.reads, 4_000);
        // With no writers there is no seqlock contention: after the
        // setup writes publish the objects, every read should resolve
        // optimistically.
        assert_eq!(report.stats.lockfree_fallbacks, 0);
        assert_eq!(report.stats.lockfree_reads, 4_000);
    }
}
