//! Runtime statistics — the Table III counters.

use std::fmt;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};

/// Defines [`RuntimeStats`], its [`AddAssign`] and [`AtomicRuntimeStats`]
/// from one list of counters, so a counter is named exactly once.
macro_rules! runtime_stats {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Counters the runtime maintains, matching the columns of the paper's
        /// Table III ("number of allocation/free, member variable access, and
        /// cache hit attempts against the randomized objects") plus the detection
        /// counters used by the security evaluation.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct RuntimeStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl AddAssign for RuntimeStats {
            fn add_assign(&mut self, rhs: RuntimeStats) {
                $(self.$field += rhs.$field;)*
            }
        }

        /// [`RuntimeStats`] with every counter behind a relaxed
        /// [`AtomicU64`]: the one shared sheet of a
        /// [`ShardedRuntime`](crate::ShardedRuntime), which its handles
        /// fold their pending sheets into and its remote-free drains
        /// count into.
        ///
        /// Counters are individually exact and monotone. A
        /// [`snapshot`](AtomicRuntimeStats::snapshot) taken while other
        /// threads are mid-operation is a *consistent read of each
        /// counter*, not an atomic cut across all of them (relaxed loads
        /// impose no cross-counter ordering); at quiescence — after the
        /// contributing threads' operations have completed — the snapshot
        /// is exact. That trade keeps the hot path at plain `fetch_add`s
        /// with no lock and no fence.
        #[derive(Debug, Default)]
        pub struct AtomicRuntimeStats {
            $($(#[$doc])* $field: AtomicU64,)*
        }

        impl AtomicRuntimeStats {
            /// All counters at zero.
            pub fn new() -> Self {
                Self::default()
            }

            /// Fold a per-thread delta into the shared counters
            /// (relaxed `fetch_add` per non-zero field).
            pub fn add(&self, delta: &RuntimeStats) {
                $(
                    if delta.$field != 0 {
                        self.$field.fetch_add(delta.$field, Ordering::Relaxed);
                    }
                )*
            }

            /// Read every counter (relaxed; see the type docs for the
            /// coherence contract).
            pub fn snapshot(&self) -> RuntimeStats {
                RuntimeStats {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

runtime_stats! {
    /// Randomized object allocations (`olr_malloc`).
    allocations,
    /// Randomized object frees (`olr_free`).
    frees,
    /// Object-aware memory copies (`olr_memcpy`).
    memcpys,
    /// Member-variable accesses (`olr_getptr`).
    member_accesses,
    /// Member accesses satisfied by the offset-lookup cache.
    cache_hits,
    /// Use-after-free accesses detected.
    uaf_detected,
    /// Class-hash mismatches (type confusions) detected.
    mismatch_detected,
    /// Booby-trap canaries found corrupted.
    traps_triggered,
    /// Booby-trap sweeps performed (explicit [`check_traps`] calls plus
    /// the free-path scan when `check_traps_on_free` is set).
    ///
    /// [`check_traps`]: crate::ObjectRuntime::check_traps
    trap_scans,
    /// Dummy slots found with a corrupted canary, counted per slot across
    /// all sweeps. `traps_triggered` counts the same events; this counter
    /// exists so attack evaluations can tell "no sweep ran" apart from
    /// "sweeps ran and found nothing" together with `trap_scans`.
    dummy_touches,
    /// Double frees of tracked objects detected (`olr_free` on an object
    /// already in the freed state).
    double_free_detected,
    /// Distinct layout plans interned (metadata records after dedup).
    unique_plans,
    /// Metadata records saved by plan deduplication.
    dedup_saved,
    /// Member accesses whose metadata came from a generation-current
    /// shadow-index slot (O(1) lookup, no hashing).
    shadow_hits,
    /// Member accesses that found no current shadow-index entry: the
    /// address was never tracked, or its slot was re-allocated since the
    /// metadata was recorded (generation mismatch — a self-invalidated
    /// stale entry).
    shadow_misses,
    /// Member accesses resolved by a per-call-site inline cache.
    site_ic_hits,
    /// Inline-cache probes that fell back to the full metadata path.
    site_ic_misses,
    /// Allocations served by the stateless small-class path: the layout
    /// (and any virtual traps) derived from (generation, slot, epoch
    /// key) instead of drawn from a pool or the engine.
    stateless_allocs,
    /// Probe reads (`probe_read_uint`) that overlapped a live object's
    /// booby-trap slot and were refused. Also counted into
    /// `traps_triggered`/`dummy_touches`; this counter separates
    /// probe-time trips from free-time sweep findings.
    probe_traps,
    /// Allocations whose plan came out of a per-class pool without an
    /// inline generation (the §V-B fast path's steady-state case).
    pool_hits,
    /// Pool refill events: warm-up batch fills plus steady-state churn
    /// regenerations.
    pool_refills,
    /// Member accesses served entirely by the optimistic (seqlock) read
    /// path: no shard mutex was taken.
    lockfree_reads,
    /// Optimistic read attempts that fell back to the shard mutex
    /// (contended seqlock window, unpublished slot, or a condition the
    /// fast path cannot classify, e.g. a detection).
    lockfree_fallbacks,
    /// Allocations served from a per-handle magazine of pre-reserved
    /// capsules: no shard mutex was taken.
    magazine_hits,
    /// Magazine refill events: one shard-lock acquisition reserving a
    /// batch of capsules.
    magazine_refills,
    /// Capsules returned to the shard unconsumed (handle teardown or
    /// magazine retirement) — these were reserved but never allocated,
    /// so they count in neither `allocations` nor `frees`.
    magazine_returns,
    /// Frees completed entirely on the lock-free path: publication
    /// claim + remote-free stack push, no shard mutex.
    fast_frees,
    /// Remote-freed slots drained and released by their owning shard
    /// (each matches one earlier `fast_frees` event).
    remote_drained,
}

impl RuntimeStats {
    /// Cache hit ratio over member accesses, in `[0, 1]`; `None` when no
    /// member was ever accessed.
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        if self.member_accesses == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / self.member_accesses as f64)
        }
    }

    /// Total security detections of any kind.
    pub fn total_detections(&self) -> u64 {
        self.uaf_detected + self.mismatch_detected + self.traps_triggered + self.double_free_detected
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alloc={} free={} memcpy={} access={} cache_hit={} ({}), detections={}",
            self.allocations,
            self.frees,
            self.memcpys,
            self.member_accesses,
            self.cache_hits,
            match self.cache_hit_ratio() {
                Some(r) => format!("{:.1}%", r * 100.0),
                None => "n/a".to_owned(),
            },
            self.total_detections(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_handles_zero_accesses() {
        assert_eq!(RuntimeStats::default().cache_hit_ratio(), None);
        let s = RuntimeStats { member_accesses: 4, cache_hits: 3, ..Default::default() };
        assert!((s.cache_hit_ratio().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn add_assign_sums_fields() {
        let mut a = RuntimeStats { allocations: 1, cache_hits: 2, ..Default::default() };
        a += RuntimeStats { allocations: 3, traps_triggered: 1, ..Default::default() };
        assert_eq!(a.allocations, 4);
        assert_eq!(a.cache_hits, 2);
        assert_eq!(a.total_detections(), 1);
    }

    #[test]
    fn display_is_nonempty() {
        let s = RuntimeStats::default().to_string();
        assert!(s.contains("alloc=0"));
        assert!(s.contains("n/a"));
    }

    #[test]
    fn atomic_stats_accumulate_and_snapshot() {
        let shared = AtomicRuntimeStats::new();
        shared.add(&RuntimeStats { allocations: 3, pool_hits: 2, ..Default::default() });
        shared.add(&RuntimeStats { allocations: 1, frees: 4, ..Default::default() });
        let snap = shared.snapshot();
        assert_eq!(snap.allocations, 4);
        assert_eq!(snap.frees, 4);
        assert_eq!(snap.pool_hits, 2);
        assert_eq!(snap.memcpys, 0);
    }

    #[test]
    fn atomic_stats_sum_across_threads() {
        let shared = AtomicRuntimeStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        shared.add(&RuntimeStats {
                            allocations: 1,
                            member_accesses: 2,
                            ..Default::default()
                        });
                    }
                });
            }
        });
        let snap = shared.snapshot();
        assert_eq!(snap.allocations, 4000);
        assert_eq!(snap.member_accesses, 8000);
    }
}
