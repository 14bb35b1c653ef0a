//! The concurrent sharded runtime: POLaR for multi-threaded programs.
//!
//! [`ObjectRuntime`] is deliberately `&mut self` — one heap, one shadow
//! index, one RNG. This module scales it across threads without touching
//! that hot path:
//!
//! * **Shards.** A [`ShardedRuntime`] owns N complete `ObjectRuntime`s,
//!   each behind its own mutex (lock striping) and each given a disjoint
//!   arena window `[i·span, (i+1)·span)` via
//!   [`HeapConfig::arena_base`](polar_simheap::HeapConfig). Any address
//!   names its owning shard by one division, so frees, member accesses
//!   and copies route without consulting shared state.
//! * **Per-thread plan state.** Each thread obtains a [`ShardHandle`]
//!   carrying its *own* [`PlanPools`], [`PlanInterner`], [`LayoutEngine`]
//!   and [`BufferedRng`], seeded from disjoint [`SplitMix64`] jump
//!   streams of the root seed. Plans are drawn outside any lock; the
//!   home shard only mallocs, seeds traps and records metadata. Streams
//!   are per-thread, so the plan sequence a thread sees is a pure
//!   function of `(root seed, thread index)` — independent of scheduling
//!   and of every other thread (the cross-thread determinism the tests
//!   pin down, and the independence Heelan-style heap-shaping attacks
//!   are meant to be starved by).
//! * **One op surface.** A [`ShardHandle`] is the only way to operate
//!   on the runtime; [`ShardedRuntime`] itself offers construction,
//!   [`ShardedRuntime::handle`] and inspection. A single-context
//!   program (the IR interpreter, the attack harness) is simply one
//!   handle, so it allocates through magazines like every threaded
//!   program.
//! * **One counter model.** Every count is a [`RuntimeStats`] column.
//!   Locked paths count into their shard's [`ObjectRuntime`]; a handle
//!   counts everything else into its plain pending sheet, which reaches
//!   the runtime's one [`AtomicRuntimeStats`] at
//!   [`ShardHandle::flush_stats`] or when the handle drops.
//!   [`ShardedRuntime::stats`] drains every shard's remote-free stack,
//!   sums the shards' counters, and then snapshots the atomics;
//!   [`ShardHandle::stats`] adds the handle's unflushed sheet.
//! * **Lock-free reads.** Every shard's heap is *published*
//!   ([`SimHeap::new_published`](polar_simheap::SimHeap::new_published)):
//!   block identity and object metadata are mirrored into per-slot
//!   seqlocked publication slots, plans are interned into a shared
//!   [`PlanRegistry`] resolvable by integer id, and
//!   [`ShardHandle::olr_getptr`], [`ShardHandle::olr_getptr_ic`]
//!   and [`ShardHandle::read_field`] first attempt the access with
//!   **no lock at all**: snapshot the slot, validate
//!   `(base, live, generation, class)`, resolve the field through the
//!   registry plan, and — for `read_field` — load the value from the
//!   shared arena and re-check the sequence. Any condition the fast
//!   path cannot classify (a miss, a detection, a contended writer
//!   window after a few retries, an unpublished slot) falls back to the
//!   shard mutex, whose path does all of its own counting and error
//!   construction; the fast path only counts its successes (with the
//!   locked path's column meaning) and its fallbacks, keeping the two
//!   paths' statistics semantics identical.
//! * **Magazine front-end + remote frees.** With
//!   [`RuntimeConfig::magazine`] enabled (the default), each
//!   [`ShardHandle`] keeps per-size-class **magazines** of pre-reserved
//!   allocation capsules — fully armed objects (block allocated,
//!   canaries seeded, metadata recorded and published) — refilled
//!   `batch` at a time under one home-shard lock acquisition, so the
//!   common-case `olr_malloc` is a lock-free pop. The matching free
//!   fast path validates the published snapshot (and scans traps
//!   through the shared arena when configured), claims the slot with a
//!   generation-exact CAS on the publication's packed life word, and
//!   pushes the slot onto the owning shard's **MPSC remote-free stack**
//!   (a Treiber stack threaded through the publication slots). Every
//!   shard-lock acquisition drains that shard's stack first, so mutex
//!   paths always observe completed frees — double frees and dangling
//!   accesses keep being classified by the one locked path that owns
//!   detection semantics.
//!
//! Handles round-robin their **home shard** (`thread % shards`) for
//! allocations; accesses to any address still work from any thread
//! because routing is by address, not by handle.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use polar_classinfo::{ClassHash, ClassInfo};
use polar_layout::{
    LayoutEngine, LayoutPlan, PlanHash, PlanInterner, PlanPools, PlanRegistry,
    RandomizationPolicy,
};
use polar_rng::{BufferedRng, Rng, SeedableRng, SplitMix64, Xoshiro256StarStar};
use polar_simheap::{
    Addr, HeapError, HeapPublisher, SnapshotOutcome, PUB_STATE_FREED, PUB_STATE_LIVE,
};

use crate::api::PolarRuntime;
use crate::error::{RuntimeError, TrapReport};
use crate::runtime::{
    canary_width, truncate, Capsule, ObjectMeta, ObjectRuntime, RandomizeMode, RuntimeConfig,
    SiteCache,
};
use crate::stats::{AtomicRuntimeStats, RuntimeStats};

/// Smallest per-shard arena the constructor accepts: a shard must at
/// least fit its reserved alignment unit plus a few blocks.
const MIN_SHARD_CAPACITY: usize = 4096;

/// Salt folded into the root seed before deriving per-shard runtime
/// seeds, so shard-internal RNG streams (plan fitting, unpooled draws)
/// never coincide with the per-thread handle streams derived from the
/// unsalted root.
const SHARD_SEED_SALT: u64 = 0x5348_4152; // "SHAR"

/// Optimistic snapshot attempts before an access gives up on the
/// seqlock and takes the shard mutex. Writer windows are a handful of
/// relaxed stores, so a couple of spins almost always suffice; the cap
/// bounds reader latency when a writer is descheduled mid-window.
const FAST_RETRIES: usize = 8;

/// Head of one shard's MPSC remote-free stack, on its own cache line so
/// concurrent pushers to different shards do not false-share. The value
/// is `slot id + 1` (`0` = empty); links are threaded through the
/// publication slots' `remote_next` words, so the stack costs no
/// allocation and no extra table. Pushers are the lock-free free path
/// (any thread); the single consumer is whoever next takes the shard's
/// mutex ([`ShardedRuntime::drain_remote`] runs at every acquisition).
#[repr(align(64))]
#[derive(Debug, Default)]
struct RemoteHead(AtomicU32);

/// Outcome of one optimistic snapshot-and-resolve attempt.
enum FastAttempt {
    /// Resolved: `addr`/`width` are the access, `(slot, seq)` validate
    /// any later arena load, `ic_hit` is `None` for a plain access and
    /// whether the site cache served it otherwise, and `warmed` is the
    /// published warm flag at snapshot time (a `true` skips
    /// [`ShardedRuntime::count_hit`]'s probe-and-set).
    Hit { addr: Addr, width: usize, slot: u32, seq: u64, ic_hit: Option<bool>, warmed: bool },
    /// A condition the fast path does not classify (miss, detection,
    /// unpublished slot): take the mutex, which owns those outcomes.
    Fallback,
    /// A writer window overlapped the snapshot: worth retrying.
    Contended,
}

/// A thread-safe POLaR runtime: N address-partitioned [`ObjectRuntime`]
/// shards behind striped locks, shared by reference across threads.
///
/// The runtime itself only builds, hands out and inspects: every
/// operation goes through a per-thread [`ShardHandle`]. Single-threaded
/// code that needs no sharing keeps using `ObjectRuntime` directly.
#[derive(Debug)]
pub struct ShardedRuntime {
    shards: Vec<Mutex<ObjectRuntime>>,
    /// Each shard's publication side-table (same index as `shards`),
    /// readable without the shard's mutex.
    pubs: Vec<Arc<HeapPublisher>>,
    /// Shared plan storage for published metadata: readers resolve the
    /// small ids carried by publication slots here, lock-free.
    registry: Arc<PlanRegistry>,
    /// Per-shard remote-free stack heads (same index as `shards`).
    remote: Vec<RemoteHead>,
    /// Arena bytes per shard; shard of `addr` = `addr / span`.
    span: u64,
    /// `log2(span)` when the span is a power of two, letting the
    /// per-access routing divide be a shift (the common case: capacities
    /// and shard counts are powers of two in practice, and a 64-bit
    /// divide is tens of cycles on the read hot path).
    span_shift: Option<u32>,
    mode: RandomizeMode,
    config: RuntimeConfig,
    /// Every count the shard mutexes do not own: the handles' flushed
    /// pending sheets and the remote-free drains.
    counters: AtomicRuntimeStats,
}

impl ShardedRuntime {
    /// Create a runtime with `shards` address-partitioned shards.
    ///
    /// `config.heap.capacity` is the *total* arena budget, split evenly;
    /// `config.heap.arena_base` must be 0 (the runtime assigns bases).
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`, when the per-shard capacity would fall
    /// below a usable minimum, or when `config.heap.arena_base != 0`.
    pub fn new(mode: RandomizeMode, config: RuntimeConfig, shards: usize) -> Self {
        assert!(shards > 0, "a sharded runtime needs at least one shard");
        assert_eq!(
            config.heap.arena_base, 0,
            "the runtime owns arena partitioning; leave arena_base at 0"
        );
        // Round the per-shard span down to an alignment-friendly boundary
        // so every shard window starts on a block-aligned address.
        let per = (config.heap.capacity / shards) & !(MIN_SHARD_CAPACITY - 1);
        assert!(
            per >= MIN_SHARD_CAPACITY,
            "capacity {} is too small for {} shards",
            config.heap.capacity,
            shards
        );
        let registry = Arc::new(PlanRegistry::new());
        let mut pubs = Vec::with_capacity(shards);
        let shards: Vec<Mutex<ObjectRuntime>> = (0..shards)
            .map(|i| {
                let mut shard_config = config;
                shard_config.heap.capacity = per;
                shard_config.heap.arena_base = i as u64 * per as u64;
                // Distinct per-shard seeds keep shard-internal streams
                // (plan fitting, unpooled draws, epoch keys) independent.
                shard_config.seed =
                    SplitMix64::stream(config.seed ^ SHARD_SEED_SALT, i as u64).next_u64();
                // Every shard also gets its own placement stream: block
                // addresses in one shard window reveal nothing about
                // placement in another, yet the whole arrangement
                // replays from the one root seed.
                if shard_config.heap.placement.enabled()
                    && shard_config.heap.placement.seed == 0
                {
                    shard_config.heap.placement.seed =
                        SplitMix64::stream(config.seed ^ crate::runtime::PLACEMENT_SALT, i as u64)
                            .next_u64();
                }
                let rt =
                    ObjectRuntime::new_published(mode, shard_config, Arc::clone(&registry));
                pubs.push(Arc::clone(
                    rt.heap().publisher().expect("published heaps carry a publisher"),
                ));
                Mutex::new(rt)
            })
            .collect();
        let remote = (0..shards.len()).map(|_| RemoteHead::default()).collect();
        ShardedRuntime {
            shards,
            pubs,
            registry,
            remote,
            span: per as u64,
            span_shift: (per as u64).is_power_of_two().then(|| per.trailing_zeros()),
            mode,
            config,
            counters: AtomicRuntimeStats::new(),
        }
    }

    /// The runtime's mode.
    pub fn mode(&self) -> &RandomizeMode {
        &self.mode
    }

    /// The configuration the runtime was built from (total capacity,
    /// root seed).
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Arena bytes owned by each shard.
    pub fn shard_span(&self) -> u64 {
        self.span
    }

    /// A per-thread handle. `thread` selects both the home shard
    /// (`thread % shards`) and the thread's disjoint randomness stream;
    /// two handles built with the same `(root seed, thread)` draw
    /// identical plan sequences regardless of what other threads do.
    pub fn handle(&self, thread: u64) -> ShardHandle<'_> {
        let policy = match self.mode {
            RandomizeMode::PerAllocation { policy } => policy,
            RandomizeMode::StaticOlr { policy, .. } => policy,
            RandomizeMode::Native => RandomizationPolicy::off(),
        };
        ShardHandle {
            rt: self,
            home: (thread % self.shards.len() as u64) as usize,
            engine: LayoutEngine::new(policy),
            interner: PlanInterner::new(),
            pools: PlanPools::new(self.config.pool),
            rng: thread_rng(self.config.seed, thread),
            magazines: Vec::new(),
            pending: RuntimeStats::default(),
        }
    }

    /// The shard owning `addr`, or `None` for null and out-of-window
    /// addresses.
    #[inline]
    fn shard_of(&self, addr: Addr) -> Option<usize> {
        if addr.is_null() {
            return None;
        }
        let i = match self.span_shift {
            Some(shift) => (addr.0 >> shift) as usize,
            None => (addr.0 / self.span) as usize,
        };
        (i < self.shards.len()).then_some(i)
    }

    /// Lock shard `i`, converting a poisoned mutex into
    /// [`RuntimeError::ShardPoisoned`] instead of panicking: a thread
    /// that died inside one shard degrades that shard, not the process.
    ///
    /// Every successful acquisition first drains the shard's remote-free
    /// stack, so locked paths always observe lock-free frees as
    /// *completed* — a double free or dangling access that raced a fast
    /// free is still classified exactly like its single-threaded
    /// counterpart.
    fn shard(&self, i: usize) -> Result<MutexGuard<'_, ObjectRuntime>, RuntimeError> {
        let mut guard =
            self.shards[i].lock().map_err(|_| RuntimeError::ShardPoisoned { shard: i })?;
        self.drain_remote(i, &mut guard);
        Ok(guard)
    }

    /// Lock shard `i` even if poisoned — for observability paths
    /// (statistics, metadata snapshots) that must stay readable while a
    /// shard is degraded. Counters are plain integers, so the worst a
    /// mid-panic state costs is one partially counted operation.
    fn shard_ignore_poison(&self, i: usize) -> MutexGuard<'_, ObjectRuntime> {
        let mut guard = self.shards[i].lock().unwrap_or_else(|e| e.into_inner());
        self.drain_remote(i, &mut guard);
        guard
    }

    /// Push `slot` onto shard `shard`'s remote-free stack (lock-free,
    /// multi-producer). The caller must have claimed the slot via
    /// [`HeapPublisher::claim_free`] — each claimed slot is pushed
    /// exactly once, so links cannot be clobbered concurrently. The
    /// release CAS publishes the link store; the consumer's acquire
    /// swap pairs with it.
    fn remote_push(&self, shard: usize, slot: u32) {
        let head = &self.remote[shard].0;
        let mut cur = head.load(Ordering::Acquire);
        loop {
            self.pubs[shard].set_remote_next(slot, cur);
            match head.compare_exchange_weak(cur, slot + 1, Ordering::Release, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Drain shard `i`'s remote-free stack while holding its lock:
    /// retire each claimed slot (flip the shadow record, mirror, release
    /// the heap block). The block's free was already *counted* by the
    /// claiming thread (`fast_frees`); the drain only completes it and
    /// counts `remote_drained`.
    ///
    /// Retirement is gated on the publication slot still reading
    /// `FREED` with matching generations: a slot whose block raced
    /// through another completion path (a concurrent double free the
    /// program itself issued) or was recycled raw since the claim is
    /// skipped rather than releasing an innocent successor's block.
    fn drain_remote(&self, i: usize, rt: &mut ObjectRuntime) {
        let head = &self.remote[i].0;
        if head.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut cur = head.swap(0, Ordering::Acquire);
        let mut drained = 0u64;
        while cur != 0 {
            let slot = cur - 1;
            cur = self.pubs[i].remote_next(slot);
            // Writers are excluded by the lock we hold and claims are
            // single-shot, so this snapshot is stable.
            if let SnapshotOutcome::Snap(s) = self.pubs[i].try_snapshot_slot(slot) {
                if s.state == PUB_STATE_FREED && s.meta_gen == s.heap_gen {
                    rt.retire_reserved(slot);
                }
            }
            drained += 1;
        }
        if drained != 0 {
            self.counters
                .add(&RuntimeStats { remote_drained: drained, ..RuntimeStats::default() });
        }
    }

    /// Route `addr` to its shard's lock, or fail with `err`.
    fn route(&self, addr: Addr, err: RuntimeError) -> Result<MutexGuard<'_, ObjectRuntime>, RuntimeError> {
        match self.shard_of(addr) {
            Some(i) => self.shard(i),
            None => Err(err),
        }
    }

    // ----- the lock-free read path -----

    /// One optimistic attempt at resolving `(base, expected, field)` on
    /// `shard` without its mutex. Success means the published snapshot
    /// proved a live, generation-current object of the expected class
    /// and the field resolved through the registry plan; every other
    /// condition routes to the mutex, which owns miss/detection
    /// counting and error construction.
    #[inline]
    fn fast_attempt(
        &self,
        shard: usize,
        base: Addr,
        expected: ClassHash,
        field: usize,
        mut ic: Option<&mut SiteCache>,
    ) -> FastAttempt {
        // Slot hint: a warmed-up inline cache remembers which published
        // slot its base resolved to, skipping the addr -> slot unit
        // walk. The hint is *only* a shortcut — the snapshot below is
        // re-validated against `base` (and the seqlock metadata), so a
        // stale hint degrades to the full walk, never to a wrong read.
        let hinted = ic
            .as_deref()
            .and_then(|site| site.slot_hint(base.0))
            .and_then(|slot| match self.pubs[shard].try_snapshot_slot(slot) {
                SnapshotOutcome::Snap(s) if s.base == base.0 => Some(s),
                _ => None,
            });
        let snap = match hinted {
            Some(s) => s,
            None => match self.pubs[shard].try_snapshot(base.0) {
                SnapshotOutcome::Snap(s) => s,
                SnapshotOutcome::Untracked => return FastAttempt::Fallback,
                SnapshotOutcome::Unstable => return FastAttempt::Contended,
            },
        };
        if snap.base != base.0
            || snap.state != PUB_STATE_LIVE
            || snap.meta_gen != snap.heap_gen
            || snap.class_hash != expected.0
        {
            // Interior pointer, freed or raw-recycled object, class
            // mismatch: all of these are misses or detections, and the
            // locked path is the single place that classifies them.
            return FastAttempt::Fallback;
        }
        if self.config.offset_cache {
            if let Some(site) = ic.as_deref_mut() {
                if let Some((offset, width)) = site.lookup(expected, PlanHash(snap.plan_hash)) {
                    site.note_slot(base.0, snap.slot);
                    return FastAttempt::Hit {
                        addr: base.offset(u64::from(offset)),
                        width: width as usize,
                        slot: snap.slot,
                        seq: snap.seq,
                        ic_hit: Some(true),
                        warmed: snap.warmed,
                    };
                }
            }
        }
        let Some(plan) = snap.plan_id.and_then(|id| self.registry.get(id)) else {
            return FastAttempt::Fallback; // unregistered plan (registry full)
        };
        if plan.plan_hash().0 != snap.plan_hash {
            return FastAttempt::Fallback; // defensive: ids are permanent, hashes must agree
        }
        let Some(access) = plan.access(field) else {
            return FastAttempt::Fallback; // FieldOutOfBounds: raised under the lock
        };
        let ic_hit = ic.map(|site| {
            if self.config.offset_cache {
                site.pin(expected, PlanHash(snap.plan_hash), access.offset, access.width);
                site.note_slot(base.0, snap.slot);
            }
            false
        });
        FastAttempt::Hit {
            addr: base.offset(u64::from(access.offset)),
            width: access.width as usize,
            slot: snap.slot,
            seq: snap.seq,
            ic_hit,
            warmed: snap.warmed,
        }
    }

    /// Count one lock-free success into `sink` with the meaning
    /// [`ObjectRuntime`]'s locked getptr gives it: a member access served
    /// from the (published mirror of the) shadow index, an offset-cache
    /// hit once the object is warm (probe-and-set the published warm
    /// flag unless the snapshot already saw it set), and the site-cache
    /// column for inline-cached accesses.
    #[inline]
    fn count_hit(
        &self,
        sink: &mut RuntimeStats,
        shard: usize,
        slot: u32,
        ic_hit: Option<bool>,
        warmed: bool,
    ) {
        sink.member_accesses += 1;
        sink.shadow_hits += 1;
        sink.lockfree_reads += 1;
        if self.config.offset_cache && (warmed || self.pubs[shard].warm_probe(slot)) {
            sink.cache_hits += 1;
        }
        match ic_hit {
            Some(true) => sink.site_ic_hits += 1,
            Some(false) => sink.site_ic_misses += 1,
            None => {}
        }
    }

    /// Lock-free `olr_free` attempt. `Some(scanned)` means the free
    /// completed without the shard mutex: the published snapshot proved
    /// a live, generation-current object at exactly `addr`, the trap
    /// sweep (when configured; `scanned` reports it ran) found every
    /// canary intact through the shared arena, and the generation-exact
    /// [`claim_free`] CAS flipped the slot `LIVE → FREED` — after which
    /// the slot went onto the owning shard's remote-free stack for the
    /// next lock holder to retire. `None` routes to the mutex, which
    /// owns every miss/detection outcome (untracked pointer, double
    /// free, UAF, corrupted canary, interior pointer).
    ///
    /// The trap sweep reads racily against writers, so a mismatched
    /// canary is only *reported* via the locked path, and only after a
    /// seqlock recheck proves the bytes were not torn by a concurrent
    /// writer window: a stable-snapshot mismatch is a real detection
    /// (the mutex rescans, counts and constructs the error), an
    /// unstable one retries from a fresh snapshot.
    ///
    /// [`claim_free`]: HeapPublisher::claim_free
    fn fast_free(&self, addr: Addr) -> Option<bool> {
        if !self.config.magazine.enabled() {
            return None;
        }
        let shard = self.shard_of(addr)?;
        let p = &self.pubs[shard];
        'retry: for _ in 0..FAST_RETRIES {
            let snap = match p.try_snapshot(addr.0) {
                SnapshotOutcome::Snap(s) => s,
                SnapshotOutcome::Untracked => return None,
                SnapshotOutcome::Unstable => {
                    std::hint::spin_loop();
                    continue;
                }
            };
            if snap.base != addr.0
                || snap.state != PUB_STATE_LIVE
                || snap.meta_gen != snap.heap_gen
            {
                return None;
            }
            let mut scanned = false;
            if self.config.check_traps_on_free {
                let plan = snap.plan_id.and_then(|id| self.registry.get(id))?;
                if plan.plan_hash().0 != snap.plan_hash {
                    return None; // defensive: ids are permanent, hashes must agree
                }
                for dummy in plan.dummies() {
                    let Some(canary) = dummy.canary else { continue };
                    let width = canary_width(dummy.size);
                    let found = p.read_uint(addr.offset(u64::from(dummy.offset)).0, width)?;
                    if found != truncate(canary, width) {
                        if p.recheck(snap.slot, snap.seq) {
                            return None; // stable mismatch: a real trap hit
                        }
                        std::hint::spin_loop();
                        continue 'retry; // torn read: retry from a fresh snapshot
                    }
                }
                if !p.recheck(snap.slot, snap.seq) {
                    std::hint::spin_loop();
                    continue 'retry;
                }
                scanned = true;
            }
            if !p.claim_free(snap.slot, snap.meta_gen) {
                return None; // lost the claim race: the mutex classifies it
            }
            self.remote_push(shard, snap.slot);
            return Some(scanned);
        }
        None
    }

    /// Raw publication probe for `addr`'s shard, exposed for the
    /// concurrency tests (torture and property suites assert snapshot
    /// self-consistency through this).
    #[doc(hidden)]
    pub fn publish_probe(&self, addr: Addr) -> Option<SnapshotOutcome> {
        Some(self.pubs[self.shard_of(addr)?].try_snapshot(addr.0))
    }

    /// Resolve a published plan id against the shared registry (test
    /// hook, paired with [`ShardedRuntime::publish_probe`]).
    #[doc(hidden)]
    pub fn registry_plan(&self, id: u32) -> Option<Arc<polar_layout::LayoutPlan>> {
        self.registry.get(id).cloned()
    }

    /// Metadata snapshot for the object at `base` (cloned out of the
    /// owning shard), if tracked.
    pub fn object_meta(&self, base: Addr) -> Option<ObjectMeta> {
        let i = self.shard_of(base)?;
        self.shard_ignore_poison(i).object_meta(base).cloned()
    }

    /// Combined statistics: the sum of every shard's
    /// [`ObjectRuntime::stats`] (each read under its lock, so per-shard
    /// numbers are internally consistent) plus one snapshot of the
    /// shared counters.
    ///
    /// Coherence contract: a [`ShardHandle`]'s counts become visible
    /// here at its [`ShardHandle::flush_stats`] or drop (and at once
    /// through its own [`ShardHandle::stats`]); this call drains every
    /// shard's remote-free stack *before* it snapshots the shared
    /// counters. Exact at quiescence; while threads are mid-operation
    /// each counter is individually exact but the cross-counter view is
    /// approximate (see [`AtomicRuntimeStats`]).
    ///
    /// `unique_plans`/`dedup_saved` sum over *all* interners (one per
    /// shard + one per handle), so they bound metadata held, not global
    /// plan distinctness.
    pub fn stats(&self) -> RuntimeStats {
        let mut total = RuntimeStats::default();
        for i in 0..self.shards.len() {
            total += self.shard_ignore_poison(i).stats();
        }
        // Snapshot the shared counters *after* visiting the shards: each
        // visit drains that shard's remote-free stack and counts
        // `remote_drained` into them — snapshotting first would report
        // the claims (`fast_frees`) without their completions.
        total += self.counters.snapshot();
        total
    }

    /// Estimated POLaR bookkeeping bytes, summed over shards, plus the
    /// publication side-tables and the shared plan registry.
    pub fn estimated_metadata_bytes(&self) -> usize {
        let shards: usize = (0..self.shards.len())
            .map(|i| self.shard_ignore_poison(i).estimated_metadata_bytes())
            .sum();
        let published: usize = self.pubs.iter().map(|p| p.metadata_bytes()).sum();
        shards + published + self.registry.metadata_bytes()
    }

    /// Heap-allocator footprint summed over shards (each read under its
    /// lock, which also completes any pending remote frees first): live
    /// and peak bytes, arena capacity, and raw alloc/free counts. The
    /// session-store workload derives its fragmentation and
    /// bytes-per-live-object figures from this.
    pub fn heap_footprint(&self) -> HeapFootprint {
        let mut f = HeapFootprint::default();
        for i in 0..self.shards.len() {
            let rt = self.shard_ignore_poison(i);
            let s = rt.heap().stats();
            f.bytes_live += s.bytes_live;
            f.bytes_peak += s.bytes_peak;
            f.arena_bytes += rt.heap().arena_len();
            f.heap_allocs += s.allocs;
            f.heap_frees += s.frees;
        }
        f
    }

    /// The shard owning `addr` for a raw heap access, or a wild-access
    /// fault when no shard window contains it.
    fn heap_shard(&self, addr: Addr, len: usize) -> Result<MutexGuard<'_, ObjectRuntime>, HeapError> {
        match self.shard_of(addr) {
            // A poisoned shard faults its raw accesses (the heap API
            // speaks `HeapError`); instrumented paths report the richer
            // `ShardPoisoned` instead.
            Some(i) => self.shard(i).map_err(|_| HeapError::Fault { addr, len }),
            None => Err(HeapError::Fault { addr, len }),
        }
    }
}

/// Heap-allocator footprint summed over a [`ShardedRuntime`]'s shards
/// (see [`ShardedRuntime::heap_footprint`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapFootprint {
    /// Bytes currently allocated (usable sizes), all shards.
    pub bytes_live: usize,
    /// Sum of each shard's high-water mark. An upper bound on the true
    /// simultaneous peak (shards peak at different times).
    pub bytes_peak: usize,
    /// Total arena capacity across shards.
    pub arena_bytes: usize,
    /// Raw allocator allocations, all shards (includes magazine
    /// reservations).
    pub heap_allocs: u64,
    /// Raw allocator frees, all shards.
    pub heap_frees: u64,
}

/// Teardown is the handle's panic-safe flush point: unconsumed magazine
/// capsules go back to the home shard and every pending counter reaches
/// the shared atomics, whether the thread returned or is unwinding.
impl Drop for ShardHandle<'_> {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Seed material for thread `t` comes from SplitMix64 stream `t` of the
/// root seed: disjoint expansion windows give every thread an
/// independent, reproducible generator no other stream index can reach.
fn thread_rng(root: u64, thread: u64) -> BufferedRng {
    let mut seeder = SplitMix64::stream(root, thread);
    let mut seed = <Xoshiro256StarStar as SeedableRng>::Seed::default();
    seeder.fill_bytes(seed.as_mut());
    BufferedRng::new(Xoshiro256StarStar::from_seed(seed))
}

/// One thread's view of a [`ShardedRuntime`]: thread-owned plan pools,
/// interner and RNG (no lock needed to draw a plan), plus a home shard
/// for allocations. Not `Sync` — create one handle per thread.
#[derive(Debug)]
pub struct ShardHandle<'rt> {
    rt: &'rt ShardedRuntime,
    home: usize,
    engine: LayoutEngine,
    interner: PlanInterner,
    pools: PlanPools,
    rng: BufferedRng,
    /// Per-class magazines of pre-reserved capsules (key =
    /// `ClassHash.0`). A handful of classes per workload makes the
    /// linear scan cheaper than hashing.
    magazines: Vec<(u64, Magazine)>,
    /// Every count this handle makes outside a shard mutex: lock-free
    /// reads and frees, magazine pops, pool and interner growth. A locked
    /// `fetch_add` is a full barrier on most hardware and costs as much
    /// as a whole optimistic read, so the handle counts into this plain
    /// sheet and [`ShardHandle::flush_stats`] (also run on drop) folds it
    /// into the runtime's shared counters. Pending counts become visible
    /// to [`ShardedRuntime::stats`] at the flush — dropping the handle
    /// before joining the thread (the natural scoped-thread shape) keeps
    /// the global counts exact.
    pending: RuntimeStats,
}

/// One class's magazine: reserved capsules awaiting their pop.
#[derive(Debug, Default)]
struct Magazine {
    caps: VecDeque<Capsule>,
}

impl ShardHandle<'_> {
    /// The runtime this handle draws on.
    pub fn runtime(&self) -> &ShardedRuntime {
        self.rt
    }

    /// Index of the shard this handle allocates from.
    pub fn home_shard(&self) -> usize {
        self.home
    }

    /// Instrumented allocation. In `PerAllocation` mode the layout plan
    /// is drawn from this thread's pool/RNG *before* the home shard's
    /// lock is taken — the critical section is just malloc + trap
    /// seeding + metadata record. Other modes (and the stateless
    /// small-class path, whose plan derives from heap identity) delegate
    /// to the shard's own deterministic state.
    ///
    /// With [`RuntimeConfig::magazine`] enabled (the default), the
    /// common case never reaches a lock at all: the allocation pops a
    /// pre-reserved capsule from this handle's per-class magazine, and
    /// only an empty magazine pays one shard-lock acquisition to
    /// reserve the next `batch` capsules. Per-thread plan streams are
    /// unchanged — a refill draws exactly the plans the next `batch`
    /// unbatched allocations would have drawn, in order.
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::olr_malloc`].
    pub fn olr_malloc(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError> {
        let per_alloc = matches!(self.rt.mode, RandomizeMode::PerAllocation { .. });
        let stateless = per_alloc && self.rt.config.stateless.applies_to(info.field_count());
        let batch = self.rt.config.magazine.batch;
        if per_alloc && batch > 0 {
            return self.magazine_malloc(info, stateless, batch);
        }
        if !per_alloc || stateless {
            return self.rt.shard(self.home)?.olr_malloc(info);
        }
        let plan = self.draw_plans(info, 1).pop().expect("one plan drawn");
        self.rt.shard(self.home)?.olr_malloc_with_plan(info, plan)
    }

    /// Magazine-served allocation: pop a pre-reserved capsule, refilling
    /// the class's magazine (one lock, `batch` reservations) when empty.
    ///
    /// Counting happens at the *pop*: the reservation paths count
    /// nothing, so `allocations` (and `stateless_allocs`) track objects
    /// programs actually received and `allocations == frees` still
    /// holds at quiescence with capsules parked in magazines. The pop
    /// that triggered a refill counts as `magazine_refills`, every
    /// other pop as a `magazine_hits` — at batch `K` the steady-state
    /// hit rate is `(K-1)/K`.
    fn magazine_malloc(
        &mut self,
        info: &Arc<ClassInfo>,
        stateless: bool,
        batch: usize,
    ) -> Result<Addr, RuntimeError> {
        let key = info.hash().0;
        let idx = match self.magazines.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.magazines.push((key, Magazine::default()));
                self.magazines.len() - 1
            }
        };
        let refilled = if self.magazines[idx].1.caps.is_empty() {
            self.refill_magazine(idx, info, stateless, batch)?;
            true
        } else {
            false
        };
        let cap = self.magazines[idx]
            .1
            .caps
            .pop_front()
            .expect("a successful refill reserves at least one capsule");
        self.pending.allocations += 1;
        if stateless {
            self.pending.stateless_allocs += 1;
        }
        if refilled {
            self.pending.magazine_refills += 1;
        } else {
            self.pending.magazine_hits += 1;
        }
        Ok(cap.base)
    }

    /// Reserve up to `batch` capsules for `info` under one home-shard
    /// lock acquisition. Pooled plans are drawn from this thread's own
    /// state *before* the lock (same stream as unbatched allocation);
    /// the critical section is the reservation loop alone. A mid-batch
    /// heap error keeps the partial magazine (the heap is near-full —
    /// hand out what was reserved); a first-reservation error
    /// propagates, leaving the magazine empty.
    fn refill_magazine(
        &mut self,
        idx: usize,
        info: &Arc<ClassInfo>,
        stateless: bool,
        batch: usize,
    ) -> Result<(), RuntimeError> {
        let plans = if stateless { Vec::new() } else { self.draw_plans(info, batch) };
        let mut shard = self.rt.shard(self.home)?;
        let caps = &mut self.magazines[idx].1.caps;
        if stateless {
            for i in 0..batch {
                match shard.reserve_stateless(info) {
                    Ok(cap) => caps.push_back(cap),
                    Err(err) if i == 0 => return Err(err),
                    Err(_) => break,
                }
            }
        } else {
            for (i, plan) in plans.into_iter().enumerate() {
                match shard.reserve_with_plan(info, plan) {
                    Ok(cap) => caps.push_back(cap),
                    Err(err) if i == 0 => return Err(err),
                    Err(_) => break,
                }
            }
        }
        Ok(())
    }

    /// Draw `n` plans for `info` from this thread's pools (or straight
    /// from the engine when pooling is off), counting the pool and
    /// interner growth into the pending sheet.
    fn draw_plans(&mut self, info: &Arc<ClassInfo>, n: usize) -> Vec<Arc<LayoutPlan>> {
        let pool = self.pools.stats();
        let (unique, dedup) = (self.interner.unique_plans(), self.interner.dedup_hits());
        let mut plans = Vec::with_capacity(n);
        if self.rt.config.pool.enabled() {
            self.pools.draw_batch(info, &self.engine, &mut self.interner, &mut self.rng, n, &mut plans);
        } else {
            for _ in 0..n {
                plans.push(self.interner.intern(self.engine.generate(info, &mut self.rng)));
            }
        }
        let after = self.pools.stats();
        self.pending.pool_hits += after.hits - pool.hits;
        self.pending.pool_refills += after.refills - pool.refills;
        self.pending.unique_plans += (self.interner.unique_plans() - unique) as u64;
        self.pending.dedup_saved += self.interner.dedup_hits() - dedup;
        plans
    }

    /// Raw (untracked) buffer allocation on the home shard.
    ///
    /// # Errors
    ///
    /// Propagates heap errors.
    pub fn malloc_raw(&mut self, size: usize) -> Result<Addr, RuntimeError> {
        self.rt.shard(self.home)?.malloc_raw(size)
    }

    /// Raw free, routed by address.
    ///
    /// # Errors
    ///
    /// Propagates heap errors; addresses outside every shard window
    /// report [`HeapError::InvalidFree`].
    pub fn free_raw(&mut self, addr: Addr) -> Result<(), RuntimeError> {
        self.rt
            .route(addr, RuntimeError::Heap(HeapError::InvalidFree(addr)))?
            .free_raw(addr)
    }

    /// [`ObjectRuntime::olr_free`], routed by address (works on any
    /// shard's objects, not just the home shard's). With magazines
    /// enabled the free first attempts the lock-free claim
    /// ([`ShardedRuntime::fast_free`]), counted into this handle's
    /// pending sheet; every condition the fast path cannot classify
    /// falls back to the owning shard's mutex.
    ///
    /// # Errors
    ///
    /// As for the single-thread call; addresses outside every shard
    /// window report [`HeapError::InvalidFree`].
    pub fn olr_free(&mut self, addr: Addr) -> Result<(), RuntimeError> {
        if let Some(scanned) = self.rt.fast_free(addr) {
            self.pending.frees += 1;
            self.pending.fast_frees += 1;
            self.pending.trap_scans += u64::from(scanned);
            return Ok(());
        }
        self.rt.route(addr, RuntimeError::Heap(HeapError::InvalidFree(addr)))?.olr_free(addr)
    }

    /// [`ObjectRuntime::olr_getptr`], routed by address and counted into
    /// this handle's pending sheet (see [`ShardHandle::flush_stats`]).
    ///
    /// # Errors
    ///
    /// As for the single-thread call; unroutable addresses report
    /// [`RuntimeError::UnknownObject`].
    #[inline]
    pub fn olr_getptr(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
    ) -> Result<Addr, RuntimeError> {
        self.getptr_in(base, expected, field, None)
    }

    /// [`ObjectRuntime::olr_getptr_ic`], routed by address. The site
    /// cache is the caller's (typically thread-local) storage.
    ///
    /// # Errors
    ///
    /// As for [`ShardHandle::olr_getptr`].
    #[inline]
    pub fn olr_getptr_ic(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        ic: &mut SiteCache,
    ) -> Result<Addr, RuntimeError> {
        self.getptr_in(base, expected, field, Some(ic))
    }

    /// The one body of `olr_getptr`/`olr_getptr_ic`: try the lock-free
    /// path, and fall back to the owning shard's mutex, which counts and
    /// classifies everything the fast path does not. Lock-free successes
    /// and fallbacks are counted into the pending sheet.
    #[inline]
    fn getptr_in(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        mut ic: Option<&mut SiteCache>,
    ) -> Result<Addr, RuntimeError> {
        let rt = self.rt;
        let Some(shard) = rt.shard_of(base) else {
            return Err(RuntimeError::UnknownObject(base));
        };
        for _ in 0..FAST_RETRIES {
            match rt.fast_attempt(shard, base, expected, field, ic.as_deref_mut()) {
                FastAttempt::Hit { addr, slot, ic_hit, warmed, .. } => {
                    rt.count_hit(&mut self.pending, shard, slot, ic_hit, warmed);
                    return Ok(addr);
                }
                FastAttempt::Fallback => break,
                FastAttempt::Contended => std::hint::spin_loop(),
            }
        }
        self.pending.lockfree_fallbacks += 1;
        let mut shard = rt.shard(shard)?;
        match ic {
            Some(ic) => shard.olr_getptr_ic(base, expected, field, ic),
            None => shard.olr_getptr(base, expected, field),
        }
    }

    /// [`ObjectRuntime::read_field`], routed by address and counted as in
    /// [`ShardHandle::olr_getptr`]: resolve, load the value from the
    /// shared arena, then re-check the slot's sequence — an unchanged
    /// sequence proves no writer window (field store, free, reuse)
    /// overlapped the byte load, so the value is never torn.
    ///
    /// # Errors
    ///
    /// As for [`ShardHandle::olr_getptr`] plus heap faults.
    #[inline]
    pub fn read_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
    ) -> Result<u64, RuntimeError> {
        let rt = self.rt;
        let Some(shard) = rt.shard_of(base) else {
            return Err(RuntimeError::UnknownObject(base));
        };
        for _ in 0..FAST_RETRIES {
            match rt.fast_attempt(shard, base, expected, field, None) {
                FastAttempt::Hit { addr, width, slot, seq, ic_hit, warmed } => {
                    let p = &rt.pubs[shard];
                    let Some(value) = p.read_uint(addr.0, width) else { break };
                    if !p.recheck(slot, seq) {
                        std::hint::spin_loop();
                        continue; // torn load: retry from a fresh snapshot
                    }
                    rt.count_hit(&mut self.pending, shard, slot, ic_hit, warmed);
                    return Ok(value);
                }
                FastAttempt::Fallback => break,
                FastAttempt::Contended => std::hint::spin_loop(),
            }
        }
        self.pending.lockfree_fallbacks += 1;
        rt.shard(shard)?.read_field(base, expected, field)
    }

    /// [`ObjectRuntime::write_field`], routed by address.
    ///
    /// # Errors
    ///
    /// As for [`ShardHandle::olr_getptr`] plus heap faults.
    pub fn write_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        value: u64,
    ) -> Result<(), RuntimeError> {
        self.rt
            .route(base, RuntimeError::UnknownObject(base))?
            .write_field(base, expected, field, value)
    }

    /// [`ObjectRuntime::olr_memcpy`] across shards: same-shard copies
    /// delegate under one lock; cross-shard copies stage the source
    /// fields on the source shard, then install the duplicate on the
    /// destination shard. Both locks are taken in shard-index order so
    /// concurrent copies in opposite directions cannot deadlock.
    ///
    /// # Errors
    ///
    /// As for the single-thread call; unroutable endpoints fault.
    pub fn olr_memcpy(
        &mut self,
        dst: Addr,
        src: Addr,
        site_class: &Arc<ClassInfo>,
    ) -> Result<(), RuntimeError> {
        let rt = self.rt;
        let len = site_class.size() as usize;
        let src_i = rt
            .shard_of(src)
            .ok_or(RuntimeError::Heap(HeapError::Fault { addr: src, len }))?;
        let dst_i = rt
            .shard_of(dst)
            .ok_or(RuntimeError::Heap(HeapError::Fault { addr: dst, len }))?;
        if src_i == dst_i {
            return rt.shard(src_i)?.olr_memcpy(dst, src, site_class);
        }
        // Index-ordered locking: every cross-shard copy acquires the
        // lower-numbered shard first.
        let (first, second) = (src_i.min(dst_i), src_i.max(dst_i));
        let first_guard = rt.shard(first)?;
        let second_guard = rt.shard(second)?;
        let (mut src_rt, mut dst_rt) = if src_i < dst_i {
            (first_guard, second_guard)
        } else {
            (second_guard, first_guard)
        };
        let (info, src_plan) = src_rt.copy_source(src, site_class)?;
        let staged = src_rt.stage_fields(src, &src_plan)?;
        dst_rt.install_copy(dst, info, &src_plan, &staged)
    }

    /// [`ObjectRuntime::check_traps`], routed by address.
    ///
    /// # Errors
    ///
    /// As for the single-thread call.
    pub fn check_traps(&mut self, base: Addr) -> Result<Vec<TrapReport>, RuntimeError> {
        self.rt.route(base, RuntimeError::UnknownObject(base))?.check_traps(base)
    }

    /// The runtime's statistics plus this handle's unflushed pending
    /// sheet: exact for everything this handle did, without a flush.
    pub fn stats(&self) -> RuntimeStats {
        let mut stats = self.rt.stats();
        stats += self.pending;
        stats
    }

    /// Fold this handle's pending sheet into the runtime's shared
    /// counters. Runs on drop (via [`ShardHandle::teardown`]); call it
    /// explicitly when [`ShardedRuntime::stats`] must observe this
    /// thread's operations while the handle stays alive.
    pub fn flush_stats(&mut self) {
        self.rt.counters.add(&std::mem::take(&mut self.pending));
    }

    /// Number of reserved-but-unallocated capsules currently parked in
    /// this handle's magazines. Each parked capsule holds a heap block
    /// that is neither live nor free until it is popped or returned —
    /// workloads use this to reconcile heap footprints against live
    /// object counts.
    pub fn parked_capsules(&self) -> usize {
        self.magazines.iter().map(|(_, m)| m.caps.len()).sum()
    }

    /// Hand every unconsumed magazine capsule back to the home shard
    /// (counted as `magazine_returns`: reserved but never allocated, so
    /// neither an allocation nor a free) and flush all pending stats.
    /// This is the drop path, so it also runs during a panic unwind —
    /// counters are never lost and capsules are never leaked by a dying
    /// thread. The one exception is a *poisoned* home shard: its
    /// capsules stay parked (returning them needs the degraded shard's
    /// runtime), which costs the shard some blocks but keeps teardown
    /// panic-free.
    pub fn teardown(&mut self) {
        let magazines = std::mem::take(&mut self.magazines);
        let parked: usize = magazines.iter().map(|(_, m)| m.caps.len()).sum();
        if parked > 0 {
            if let Ok(mut shard) = self.rt.shard(self.home) {
                for (_, mag) in magazines {
                    for cap in &mag.caps {
                        shard.retire_reserved(cap.slot);
                    }
                }
                self.pending.magazine_returns += parked as u64;
            }
        }
        self.flush_stats();
    }
}

/// One program's context on a [`ShardedRuntime`]: allocations come from
/// the handle's home shard through its magazines, and every
/// address-keyed operation routes to the shard owning the address.
/// The arena-bounded raw reads, writes and moves exist only here: a
/// threaded program has no reason to bypass the runtime, but an
/// uninstrumented one (or an attacker) does.
impl PolarRuntime for ShardHandle<'_> {
    fn config(&self) -> &RuntimeConfig {
        self.rt.config()
    }

    fn stats(&self) -> RuntimeStats {
        ShardHandle::stats(self)
    }

    /// Answered by the home shard: the static-OLR table derives from the
    /// mode's binary seed, which every shard shares.
    fn compile_time_plan(&mut self, info: &Arc<ClassInfo>) -> Arc<LayoutPlan> {
        self.rt.shard_ignore_poison(self.home).compile_time_plan(info)
    }

    fn olr_malloc(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError> {
        ShardHandle::olr_malloc(self, info)
    }

    fn olr_free(&mut self, base: Addr) -> Result<(), RuntimeError> {
        ShardHandle::olr_free(self, base)
    }

    fn olr_getptr_ic(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        ic: &mut SiteCache,
    ) -> Result<Addr, RuntimeError> {
        ShardHandle::olr_getptr_ic(self, base, expected, field, ic)
    }

    fn olr_memcpy(
        &mut self,
        dst: Addr,
        src: Addr,
        site_class: &Arc<ClassInfo>,
    ) -> Result<(), RuntimeError> {
        ShardHandle::olr_memcpy(self, dst, src, site_class)
    }

    fn read_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
    ) -> Result<u64, RuntimeError> {
        ShardHandle::read_field(self, base, expected, field)
    }

    fn write_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        value: u64,
    ) -> Result<(), RuntimeError> {
        ShardHandle::write_field(self, base, expected, field, value)
    }

    fn check_traps(&mut self, base: Addr) -> Result<Vec<TrapReport>, RuntimeError> {
        ShardHandle::check_traps(self, base)
    }

    fn plan_size(&self, base: Addr) -> Option<u32> {
        self.rt.object_meta(base).map(|meta| meta.plan.size())
    }

    fn heap_malloc(&mut self, size: usize) -> Result<Addr, HeapError> {
        self.malloc_raw(size).map_err(|err| match err {
            RuntimeError::Heap(e) => e,
            _ => HeapError::OutOfMemory { requested: size },
        })
    }

    fn heap_free(&mut self, addr: Addr) -> Result<(), HeapError> {
        self.free_raw(addr).map_err(|err| match err {
            RuntimeError::Heap(e) => e,
            _ => HeapError::InvalidFree(addr),
        })
    }

    /// Like the single-heap primitive this deliberately ignores block
    /// boundaries within a shard — it is the attack-model probe.
    fn heap_read_uint(&self, addr: Addr, width: usize) -> Result<u64, HeapError> {
        self.rt.heap_shard(addr, width)?.heap().read_uint(addr, width)
    }

    fn probe_read_uint(&mut self, addr: Addr, width: usize) -> Result<u64, RuntimeError> {
        self.rt.heap_shard(addr, width)?.probe_read_uint(addr, width)
    }

    fn heap_write_uint(&mut self, addr: Addr, value: u64, width: usize) -> Result<(), HeapError> {
        self.rt.heap_shard(addr, width)?.heap_mut().write_uint(addr, value, width)
    }

    fn heap_write(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), HeapError> {
        self.rt.heap_shard(addr, bytes.len())?.heap_mut().write(addr, bytes)
    }

    /// Same-shard moves delegate to the shard heap (overlap-safe);
    /// cross-shard moves stage through a buffer — the windows are
    /// disjoint, so there is no overlap to preserve and the two locks
    /// can be taken one at a time.
    fn heap_memmove(&mut self, dst: Addr, src: Addr, len: usize) -> Result<(), HeapError> {
        let src_i = self.rt.shard_of(src).ok_or(HeapError::Fault { addr: src, len })?;
        let dst_i = self.rt.shard_of(dst).ok_or(HeapError::Fault { addr: dst, len })?;
        if src_i == dst_i {
            return self.rt.heap_shard(src, len)?.heap_mut().memmove(dst, src, len);
        }
        let staged = self.rt.heap_shard(src, len)?.heap().read_vec(src, len)?;
        self.rt.heap_shard(dst, len)?.heap_mut().write(dst, &staged)
    }

    fn heap_check_in_block(&self, addr: Addr, len: usize) -> Result<(), HeapError> {
        self.rt.heap_shard(addr, len)?.heap().check_in_block(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObjectState;
    use polar_classinfo::{ClassDecl, FieldKind};
    use polar_layout::PlanHash;
    use polar_rng::RngExt;

    fn people() -> Arc<ClassInfo> {
        Arc::new(ClassInfo::from_decl(
            ClassDecl::builder("People")
                .field("vtable", FieldKind::VtablePtr)
                .field("age", FieldKind::I32)
                .field("height", FieldKind::I32)
                .build(),
        ))
    }

    fn record() -> Arc<ClassInfo> {
        Arc::new(ClassInfo::from_decl(
            ClassDecl::builder("Record")
                .field("id", FieldKind::I64)
                .field("score", FieldKind::I64)
                .field("flags", FieldKind::I32)
                .field("pad", FieldKind::I32)
                .build(),
        ))
    }

    fn sharded(shards: usize) -> ShardedRuntime {
        let mut config = RuntimeConfig::default();
        config.heap.capacity = 64 << 20;
        ShardedRuntime::new(RandomizeMode::per_allocation(), config, shards)
    }

    #[test]
    fn single_shard_handle_behaves_like_object_runtime() {
        let rt = sharded(1);
        let info = people();
        let mut h = rt.handle(0);
        let obj = h.olr_malloc(&info).unwrap();
        h.write_field(obj, info.hash(), 1, 30).unwrap();
        h.write_field(obj, info.hash(), 2, 170).unwrap();
        assert_eq!(h.read_field(obj, info.hash(), 1).unwrap(), 30);
        assert_eq!(h.read_field(obj, info.hash(), 2).unwrap(), 170);
        h.olr_free(obj).unwrap();
        assert!(matches!(
            h.olr_getptr(obj, info.hash(), 1).unwrap_err(),
            RuntimeError::UseAfterFree { .. }
        ));
        assert!(matches!(h.olr_free(obj).unwrap_err(), RuntimeError::DoubleFree(_)));
        // The handle's own view includes its unflushed counts...
        let stats = h.stats();
        assert_eq!(stats.allocations, 1);
        assert_eq!(stats.frees, 1);
        assert_eq!(stats.uaf_detected, 1);
        // ...which the runtime's view shows once they are flushed.
        assert_eq!(rt.stats().allocations, 0);
        h.flush_stats();
        assert_eq!(rt.stats(), stats);
    }

    #[test]
    fn addresses_route_back_to_their_shard() {
        let rt = sharded(4);
        let info = people();
        let mut freer = rt.handle(7);
        for t in 0..4u64 {
            let mut h = rt.handle(t);
            let obj = h.olr_malloc(&info).unwrap();
            assert_eq!(
                (obj.0 / rt.shard_span()) as usize,
                h.home_shard(),
                "allocation must land in the handle's home shard window"
            );
            // Any thread can free any address: routing is by address.
            freer.olr_free(obj).unwrap();
        }
        // Unroutable addresses fail cleanly instead of hitting shard 0.
        let wild = Addr(rt.shard_span() * 5);
        assert!(matches!(
            freer.olr_getptr(wild, info.hash(), 0).unwrap_err(),
            RuntimeError::UnknownObject(_)
        ));
        assert!(matches!(
            freer.olr_free(wild).unwrap_err(),
            RuntimeError::Heap(HeapError::InvalidFree(_))
        ));
        assert!(rt.object_meta(Addr::NULL).is_none());
    }

    #[test]
    fn cross_shard_memcpy_translates_fields() {
        let rt = sharded(4);
        let info = people();
        let mut h0 = rt.handle(0);
        let mut h1 = rt.handle(1);
        let src = h0.olr_malloc(&info).unwrap();
        h0.write_field(src, info.hash(), 1, 41).unwrap();
        h0.write_field(src, info.hash(), 2, 182).unwrap();
        let dst = h1.malloc_raw(128).unwrap();
        assert_ne!(
            (src.0 / rt.shard_span()) as usize,
            (dst.0 / rt.shard_span()) as usize,
            "test requires endpoints on different shards"
        );
        // Both directions, so both lock orders are exercised.
        h1.olr_memcpy(dst, src, &info).unwrap();
        assert_eq!(h1.read_field(dst, info.hash(), 1).unwrap(), 41);
        assert_eq!(h1.read_field(dst, info.hash(), 2).unwrap(), 182);
        h1.write_field(dst, info.hash(), 1, 99).unwrap();
        h0.olr_memcpy(src, dst, &info).unwrap();
        assert_eq!(h0.read_field(src, info.hash(), 1).unwrap(), 99);
        assert_eq!(rt.stats().memcpys, 2);
        // A freed cross-shard source is still UAF-detected.
        h1.olr_free(dst).unwrap();
        assert!(matches!(
            h0.olr_memcpy(src, dst, &info).unwrap_err(),
            RuntimeError::UseAfterFree { .. }
        ));
    }

    /// The multi-threaded stress test: N threads × M random
    /// malloc/getptr/free ops, each thread checking every read against
    /// its own oracle of written values.
    #[test]
    fn parallel_churn_against_per_thread_oracles() {
        const THREADS: u64 = 4;
        const OPS: usize = 4000;
        let rt = sharded(4);
        let people = people();
        let record = record();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let rt = &rt;
                let people = &people;
                let record = &record;
                scope.spawn(move || {
                    let mut h = rt.handle(t);
                    let mut driver = SplitMix64::new(0xD81E + t);
                    // (addr, class, field values) oracles for live objects.
                    let mut live: Vec<(Addr, Arc<ClassInfo>, Vec<u64>)> = Vec::new();
                    for op in 0..OPS {
                        match driver.random_range(0..4u32) {
                            0 => {
                                let info =
                                    if driver.random_range(0..2u32) == 0 { people } else { record };
                                let obj = h.olr_malloc(info).unwrap();
                                let mut vals = Vec::new();
                                for field in 0..info.field_count() {
                                    let v = driver.next_u64() & 0xFFFF_FFFF;
                                    h.write_field(obj, info.hash(), field, v).unwrap();
                                    vals.push(v);
                                }
                                live.push((obj, Arc::clone(info), vals));
                            }
                            1 if !live.is_empty() => {
                                let i = driver.random_range(0..live.len());
                                let (obj, info, vals) = &live[i];
                                let field = driver.random_range(0..info.field_count());
                                assert_eq!(
                                    h.read_field(*obj, info.hash(), field).unwrap(),
                                    vals[field],
                                    "thread {t} op {op}: oracle mismatch"
                                );
                            }
                            2 if !live.is_empty() => {
                                let i = driver.random_range(0..live.len());
                                let (obj, info, vals) = &mut live[i];
                                let field = driver.random_range(0..info.field_count());
                                let v = driver.next_u64() & 0xFFFF_FFFF;
                                h.write_field(*obj, info.hash(), field, v).unwrap();
                                vals[field] = v;
                            }
                            3 if !live.is_empty() => {
                                let (obj, _, _) = live.swap_remove(driver.random_range(0..live.len()));
                                h.olr_free(obj).unwrap();
                            }
                            _ => {}
                        }
                    }
                    for (obj, _, _) in live {
                        h.olr_free(obj).unwrap();
                    }
                });
            }
        });
        let stats = rt.stats();
        assert!(stats.allocations > 0);
        assert_eq!(
            stats.allocations, stats.frees,
            "every allocation was drained, so the quiescent snapshot must balance"
        );
        assert_eq!(stats.total_detections(), 0);
        // Small classes take the stateless default; anything else must
        // still be served by the thread-local pools. Between them every
        // PerAllocation draw avoids a fresh engine generation.
        assert!(
            stats.pool_hits + stats.stateless_allocs > stats.allocations / 2,
            "fast paths should serve most draws: {} pool + {} stateless / {} allocs",
            stats.pool_hits,
            stats.stateless_allocs,
            stats.allocations
        );
    }

    /// Seeded cross-thread determinism: with one root seed, each thread's
    /// plan sequence is identical across runs (and independent of the
    /// other threads' scheduling, because all plan state is handle-local).
    #[test]
    fn same_root_seed_gives_identical_per_thread_plan_sequences() {
        const THREADS: u64 = 3;
        const ALLOCS: usize = 60;
        let run = || -> Vec<Vec<PlanHash>> {
            let rt = sharded(THREADS as usize);
            let people = people();
            let record = record();
            let mut sequences: Vec<Vec<PlanHash>> = vec![Vec::new(); THREADS as usize];
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let rt = &rt;
                        let people = &people;
                        let record = &record;
                        scope.spawn(move || {
                            let mut h = rt.handle(t);
                            let mut seq = Vec::with_capacity(ALLOCS);
                            for i in 0..ALLOCS {
                                let info = if i % 2 == 0 { people } else { record };
                                let obj = h.olr_malloc(info).unwrap();
                                seq.push(rt.object_meta(obj).unwrap().plan.plan_hash());
                            }
                            seq
                        })
                    })
                    .collect();
                for (t, handle) in handles.into_iter().enumerate() {
                    sequences[t] = handle.join().unwrap();
                }
            });
            sequences
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "per-thread plan sequences must replay exactly");
        // Streams are disjoint, so threads must not mirror each other.
        assert_ne!(first[0], first[1]);
        assert_ne!(first[1], first[2]);
    }

    #[test]
    fn shards_draw_disjoint_placement_streams_that_replay() {
        use polar_simheap::PlacementPolicy;

        const SHARDS: usize = 4;
        let placed = || {
            let mut config = RuntimeConfig::default();
            config.heap.capacity = 64 << 20;
            config.heap.placement =
                PlacementPolicy { shuffle_depth: 8, guard_gap_bits: 4, ..Default::default() };
            ShardedRuntime::new(RandomizeMode::per_allocation(), config, SHARDS)
        };
        let rt = placed();
        // Every shard derived its own non-zero placement seed.
        let seeds: Vec<u64> = (0..SHARDS)
            .map(|i| rt.shards[i].lock().unwrap().heap().config().placement.seed)
            .collect();
        let mut distinct = seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), SHARDS, "placement seeds must be disjoint: {seeds:?}");
        assert!(seeds.iter().all(|&s| s != 0));
        // Same root seed → identical shard-local address traces.
        let trace = |rt: &ShardedRuntime| -> Vec<u64> {
            let info = people();
            let mut h = rt.handle(0);
            let mut live = Vec::new();
            let mut out = Vec::new();
            for i in 0..48usize {
                let a = h.olr_malloc(&info).unwrap();
                out.push(a.0);
                live.push(a);
                if live.len() > 4 {
                    let v = live.remove(i % live.len());
                    h.olr_free(v).unwrap();
                }
            }
            out
        };
        let a = trace(&rt);
        assert_eq!(a, trace(&placed()), "sharded placement must replay from the root seed");
        // The placement layer actually engaged: the trace diverges from
        // the deterministic (placement-off) runtime's.
        assert_ne!(a, trace(&sharded(SHARDS)), "placement should perturb the address trace");
    }

    /// Satellite regression for the staged cross-shard copy: the copy
    /// destination's booby traps must be as live as a same-shard copy's —
    /// a corrupted dummy canary on the duplicate fires `TrapTriggered` on
    /// free either way, and the new trap counters fold across shards.
    #[test]
    fn cross_shard_memcpy_preserves_trap_detection_parity() {
        fn corrupt_and_free(h: &mut ShardHandle<'_>, dst: Addr) -> bool {
            let Some(meta) = h.runtime().object_meta(dst) else {
                panic!("copy destination must be tracked after olr_memcpy");
            };
            let Some(dummy) = meta.plan.dummies().iter().find(|d| d.canary.is_some()) else {
                // This draw carried no canaried dummy; clean free, retry.
                h.olr_free(dst).unwrap();
                return false;
            };
            let slot = dst.offset(u64::from(dummy.offset));
            // Flip the canary's low byte so the scan cannot miss it.
            let cur = h.heap_read_uint(slot, 1).unwrap();
            h.heap_write_uint(slot, !cur & 0xFF, 1).unwrap();
            assert!(
                matches!(h.olr_free(dst).unwrap_err(), RuntimeError::TrapTriggered(_)),
                "corrupted duplicate dummy must trip the free-path trap scan"
            );
            true
        }

        let rt = sharded(4);
        let info = people();
        let mut h0 = rt.handle(0);
        let mut h1 = rt.handle(1);
        let src = h0.olr_malloc(&info).unwrap();
        h0.write_field(src, info.hash(), 1, 5).unwrap();
        let src_shard = (src.0 / rt.shard_span()) as usize;

        for (cross, handle) in [(false, &mut h0), (true, &mut h1)] {
            let mut proved = false;
            for _ in 0..64 {
                let dst = handle.malloc_raw(info.size() as usize + 64).unwrap();
                assert_eq!(
                    (dst.0 / rt.shard_span()) as usize != src_shard,
                    cross,
                    "destination must be {} the source shard",
                    if cross { "outside" } else { "inside" }
                );
                handle.olr_memcpy(dst, src, &info).unwrap();
                assert_eq!(handle.read_field(dst, info.hash(), 1).unwrap(), 5);
                if corrupt_and_free(handle, dst) {
                    proved = true;
                    break;
                }
            }
            assert!(
                proved,
                "{}-shard copy: no destination drew a canaried dummy in 64 draws",
                if cross { "cross" } else { "same" }
            );
        }

        drop((h0, h1));
        let stats = rt.stats();
        assert!(stats.traps_triggered >= 2, "both paths must have fired: {stats:?}");
        assert!(stats.dummy_touches >= stats.traps_triggered);
        assert!(stats.trap_scans >= 2, "free-path sweeps must be counted: {stats:?}");
    }

    #[test]
    fn in_place_memcpy_works_through_a_handle() {
        // The overlap fix holds on the sharded path too (same-shard
        // delegation uses the staged single-runtime copy).
        let rt = sharded(2);
        let info = people();
        let mut h = rt.handle(0);
        let obj = h.olr_malloc(&info).unwrap();
        h.write_field(obj, info.hash(), 1, 7).unwrap();
        h.write_field(obj, info.hash(), 2, 9).unwrap();
        h.olr_memcpy(obj, obj, &info).unwrap();
        assert_eq!(h.read_field(obj, info.hash(), 1).unwrap(), 7);
        assert_eq!(h.read_field(obj, info.hash(), 2).unwrap(), 9);
    }

    /// The lock-free read path serves plain, inline-cached and
    /// `read_field` accesses without the shard mutex, and its counters
    /// keep the locked path's semantics.
    #[test]
    fn lock_free_reads_resolve_and_count_like_the_locked_path() {
        let rt = sharded(2);
        let info = people();
        let mut h = rt.handle(0);
        let obj = h.olr_malloc(&info).unwrap();
        h.write_field(obj, info.hash(), 1, 23).unwrap();
        h.write_field(obj, info.hash(), 2, 99).unwrap();

        let before = h.stats();
        let mut ic = SiteCache::empty();
        for _ in 0..10 {
            assert_eq!(h.read_field(obj, info.hash(), 1).unwrap(), 23);
            let via_plain = h.olr_getptr(obj, info.hash(), 2).unwrap();
            let via_ic = h.olr_getptr_ic(obj, info.hash(), 2, &mut ic).unwrap();
            assert_eq!(via_plain, via_ic, "both paths must resolve the same address");
        }
        let delta = {
            let mut d = h.stats();
            d.member_accesses -= before.member_accesses;
            d.lockfree_reads -= before.lockfree_reads;
            d.cache_hits -= before.cache_hits;
            d.site_ic_hits -= before.site_ic_hits;
            d
        };
        assert_eq!(delta.member_accesses, 30, "every read is one member access");
        assert_eq!(
            delta.lockfree_reads, 30,
            "an uncontended single thread must never fall back: {delta:?}"
        );
        // First ic call misses (cold site), the remaining nine hit.
        assert_eq!(delta.site_ic_hits, 9);
        // The object was warmed by the setup writes, so every read here
        // is an offset-cache hit.
        assert_eq!(delta.cache_hits, 30);

        // Detections still work (via fallback to the locked path).
        h.olr_free(obj).unwrap();
        assert!(matches!(
            h.read_field(obj, info.hash(), 1).unwrap_err(),
            RuntimeError::UseAfterFree { .. }
        ));
        let after = h.stats();
        assert_eq!(after.uaf_detected, 1);
        assert!(after.lockfree_fallbacks > 0, "the freed read must have fallen back");
    }

    /// Torture phase 1: fixed live objects, writers churning field
    /// values whose two halves always match, readers asserting every
    /// lock-free load is untorn (halves equal) and correctly tagged.
    #[test]
    fn torture_lock_free_reads_are_never_torn() {
        const READERS: usize = 2;
        const WRITER_OPS: usize = 20_000;
        const OBJECTS: usize = 32;
        let rt = sharded(2);
        let info = record();
        let mut h = rt.handle(0);
        let objects: Vec<Addr> = (0..OBJECTS).map(|_| h.olr_malloc(&info).unwrap()).collect();
        for &obj in &objects {
            for field in 0..info.field_count() {
                h.write_field(obj, info.hash(), field, 0).unwrap();
            }
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        let attempts: u64 = std::thread::scope(|scope| {
            let (rt, info, objects, stop) = (&rt, &info, &objects, &stop);
            let writer = scope.spawn(move || {
                let mut h = rt.handle(1);
                let mut driver = SplitMix64::new(0x70C7);
                for _ in 0..WRITER_OPS {
                    let obj = objects[driver.random_range(0..OBJECTS)];
                    // 64-bit fields only (0 and 1): a value whose halves
                    // must agree, so a torn read is self-evident.
                    let field = driver.random_range(0..2usize);
                    let x = driver.next_u64() & 0xFFFF_FFFF;
                    h.write_field(obj, info.hash(), field, (x << 32) | x).unwrap();
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    scope.spawn(move || {
                        let mut h = rt.handle(2 + r as u64);
                        let mut driver = SplitMix64::new(0x4EAD + r as u64);
                        let mut n = 0u64;
                        // Floor of 1000 reads per reader: on a single
                        // core the (fast) writer can run to completion
                        // before the readers are even scheduled, and a
                        // stop-flag-only loop would then exit with zero
                        // reads taken. The post-stop tail is quiescent,
                        // which also guarantees optimistic hits.
                        while !stop.load(std::sync::atomic::Ordering::Acquire) || n < 1_000 {
                            let obj = objects[driver.random_range(0..OBJECTS)];
                            let field = driver.random_range(0..2usize);
                            let v = h.read_field(obj, info.hash(), field).unwrap();
                            assert_eq!(
                                v >> 32,
                                v & 0xFFFF_FFFF,
                                "torn lock-free read on reader {r}"
                            );
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            writer.join().unwrap();
            readers.into_iter().map(|r| r.join().unwrap()).sum()
        });
        let stats = rt.stats();
        assert_eq!(
            stats.lockfree_reads + stats.lockfree_fallbacks,
            attempts,
            "every read attempt must be counted exactly once"
        );
        assert!(
            stats.lockfree_reads > 0,
            "the optimistic path must serve reads under write churn"
        );
        assert_eq!(stats.total_detections(), 0);
    }

    /// Torture phase 2: full lifecycle churn (free / re-malloc / copy)
    /// against concurrent lock-free readers. Readers must only ever see
    /// clean outcomes (a value, or a classified detection), and raw
    /// publication snapshots must be self-consistent.
    #[test]
    fn torture_lifecycle_churn_keeps_snapshots_consistent() {
        const WRITER_OPS: usize = 8_000;
        let rt = sharded(2);
        let info = people();
        let other = record();
        let mut h = rt.handle(0);
        let seed_objs: Vec<Addr> = (0..16).map(|_| h.olr_malloc(&info).unwrap()).collect();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (rt, info, other, seed_objs, stop) = (&rt, &info, &other, &seed_objs, &stop);
            let writer = scope.spawn(move || {
                let mut h = rt.handle(0);
                let mut driver = SplitMix64::new(0xC43F);
                let mut live = seed_objs.clone();
                for _ in 0..WRITER_OPS {
                    match driver.random_range(0..3u32) {
                        0 => {
                            let class =
                                if driver.random_range(0..2u32) == 0 { info } else { other };
                            live.push(h.olr_malloc(class).unwrap());
                        }
                        1 if live.len() > 4 => {
                            let obj = live.swap_remove(driver.random_range(0..live.len()));
                            h.olr_free(obj).unwrap();
                        }
                        _ if !live.is_empty() => {
                            let obj = live[driver.random_range(0..live.len())];
                            // In-place rerandomization: the riskiest
                            // publication window (fields move).
                            if rt.object_meta(obj).is_some_and(|m| m.class.hash() == info.hash())
                            {
                                h.olr_memcpy(obj, obj, info).unwrap();
                            }
                        }
                        _ => {}
                    }
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            let reader = scope.spawn(move || {
                let mut h = rt.handle(1);
                let mut driver = SplitMix64::new(0x5EE5);
                let mut probes = 0u64;
                // Same 1000-probe floor as the torn-read torture: the
                // writer can finish before this thread is scheduled.
                while !stop.load(std::sync::atomic::Ordering::Acquire) || probes < 1_000 {
                    probes += 1;
                    let obj = seed_objs[driver.random_range(0..seed_objs.len())];
                    match h.read_field(obj, info.hash(), 1) {
                        Ok(_) => {}
                        Err(
                            RuntimeError::UseAfterFree { .. }
                            | RuntimeError::UnknownObject(_)
                            | RuntimeError::ClassMismatch { .. }
                            | RuntimeError::Heap(_),
                        ) => {}
                        Err(other) => panic!("unclassified churn outcome: {other}"),
                    }
                    // Raw snapshot self-consistency: a stable LIVE,
                    // generation-current snapshot must carry a
                    // registered plan whose hash matches.
                    if let Some(SnapshotOutcome::Snap(s)) = rt.publish_probe(obj) {
                        if s.state == PUB_STATE_LIVE && s.meta_gen == s.heap_gen {
                            if let Some(id) = s.plan_id {
                                let plan = rt
                                    .registry_plan(id)
                                    .expect("published plan ids must resolve");
                                assert_eq!(
                                    plan.plan_hash().0,
                                    s.plan_hash,
                                    "published id and hash must agree"
                                );
                            }
                        }
                    }
                }
            });
            writer.join().unwrap();
            reader.join().unwrap();
        });
        let stats = rt.stats();
        assert!(stats.lockfree_reads + stats.lockfree_fallbacks > 0);
    }

    /// Satellite: a thread dying inside one shard degrades that shard
    /// into `ShardPoisoned` errors instead of panicking the process —
    /// while already-published objects stay readable *and freeable*
    /// lock-free (neither fast path ever touches the mutex).
    #[test]
    fn poisoned_shard_degrades_instead_of_panicking() {
        let rt = sharded(2);
        let info = people();
        let mut h = rt.handle(0);
        let obj = h.olr_malloc(&info).unwrap();
        let keep = h.olr_malloc(&info).unwrap();
        h.write_field(keep, info.hash(), 1, 77).unwrap();
        let victim = (obj.0 / rt.shard_span()) as usize;

        // Poison the victim shard's mutex by panicking while holding it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = rt.shards[victim].lock().unwrap();
            panic!("simulated shard death");
        }));

        // Mutating paths on the poisoned shard report the typed error.
        assert!(matches!(
            rt.handle(victim as u64).olr_malloc(&info).unwrap_err(),
            RuntimeError::ShardPoisoned { shard } if shard == victim
        ));
        // The lock-free free path stays available on the degraded shard
        // (claim + remote push, no mutex)...
        h.olr_free(obj).unwrap();
        // ...while a free the fast path cannot classify (here: a double
        // free) falls back to the mutex and reports the degradation.
        assert!(matches!(
            h.olr_free(obj).unwrap_err(),
            RuntimeError::ShardPoisoned { shard } if shard == victim
        ));
        // The other shard keeps working.
        let alive = (victim + 1) % rt.shard_count();
        rt.handle(alive as u64).olr_malloc(&info).unwrap();
        // Observability stays available (poison ignored)...
        h.flush_stats();
        assert!(rt.stats().allocations >= 3);
        assert!(rt.stats().fast_frees >= 1);
        assert!(rt.object_meta(keep).is_some());
        assert!(rt.estimated_metadata_bytes() > 0);
        // ...and the lock-free read path never touches the mutex at all.
        assert_eq!(h.read_field(keep, info.hash(), 1).unwrap(), 77);
    }

    #[test]
    fn metadata_bytes_sum_over_shards() {
        let rt = sharded(4);
        let info = people();
        let mut handles: Vec<_> = (0..4).map(|t| rt.handle(t)).collect();
        for h in &mut handles {
            for _ in 0..10 {
                h.olr_malloc(&info).unwrap();
            }
        }
        assert!(rt.estimated_metadata_bytes() > 0);
        for h in &mut handles {
            h.flush_stats();
        }
        assert_eq!(rt.stats().allocations, 40);
    }

    /// Tentpole acceptance: in a bench-shaped malloc/free loop the
    /// magazine serves ≥ 90 % of allocations without the shard lock
    /// (steady state with batch K is (K−1)/K hits), and every free
    /// completes on the lock-free claim path.
    #[test]
    fn magazine_hit_rate_exceeds_90_percent_in_steady_state() {
        let rt = sharded(1);
        let info = record();
        let mut h = rt.handle(0);
        let mut live = std::collections::VecDeque::new();
        for _ in 0..2_048 {
            live.push_back(h.olr_malloc(&info).unwrap());
            if live.len() > 64 {
                h.olr_free(live.pop_front().unwrap()).unwrap();
            }
        }
        while let Some(obj) = live.pop_front() {
            h.olr_free(obj).unwrap();
        }
        h.flush_stats();
        let stats = rt.stats();
        assert_eq!(stats.allocations, 2_048);
        assert_eq!(stats.frees, 2_048);
        let served = stats.magazine_hits + stats.magazine_refills;
        assert_eq!(served, 2_048, "every allocation must go through the magazine");
        let hit_rate = stats.magazine_hits as f64 / served as f64;
        assert!(hit_rate >= 0.90, "magazine hit rate {hit_rate:.3} below the 90% floor");
        assert_eq!(stats.fast_frees, 2_048, "single-owner frees must all claim lock-free");
        assert_eq!(
            stats.remote_drained, stats.fast_frees,
            "at quiescence every claimed slot has been drained and retired"
        );
        assert_eq!(stats.total_detections(), 0);
    }

    /// `MagazinePolicy::disabled()` restores the pre-magazine paths:
    /// every allocation takes the shard lock, every free goes through
    /// the mutex, and the magazine/fast-free counters stay zero.
    #[test]
    fn disabled_magazines_restore_the_locked_paths() {
        let mut config = RuntimeConfig::default();
        config.heap.capacity = 64 << 20;
        config.magazine = crate::runtime::MagazinePolicy::disabled();
        let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), config, 2);
        let info = people();
        let mut h = rt.handle(0);
        let objs: Vec<Addr> = (0..20).map(|_| h.olr_malloc(&info).unwrap()).collect();
        for obj in objs {
            h.olr_free(obj).unwrap();
        }
        h.flush_stats();
        let stats = rt.stats();
        assert_eq!(stats.allocations, 20);
        assert_eq!(stats.frees, 20);
        assert_eq!(stats.magazine_hits, 0);
        assert_eq!(stats.magazine_refills, 0);
        assert_eq!(stats.magazine_returns, 0);
        assert_eq!(stats.fast_frees, 0);
        assert_eq!(stats.remote_drained, 0);
    }

    /// Satellite: dropping a handle mid-unwind (the panic-safe flush
    /// point) still folds its pending counters into the runtime and
    /// returns parked capsules to the shard, so no allocation capacity
    /// or statistics leak with the dying thread.
    #[test]
    fn handle_drop_during_unwind_flushes_stats_and_returns_capsules() {
        let rt = sharded(1);
        let info = people();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut h = rt.handle(0);
            for _ in 0..5 {
                h.olr_malloc(&info).unwrap();
            }
            panic!("simulated workload death");
        }));
        assert!(result.is_err());
        let stats = rt.stats();
        assert_eq!(
            stats.allocations, 5,
            "pending allocation counts must survive the unwind"
        );
        assert!(
            stats.magazine_returns > 0,
            "parked capsules must be retired back to the shard"
        );
        // The returned capsules really released their blocks: a fresh
        // handle can still turn the full heap over.
        let mut h2 = rt.handle(0);
        let obj = h2.olr_malloc(&info).unwrap();
        h2.write_field(obj, info.hash(), 1, 9).unwrap();
        assert_eq!(h2.read_field(obj, info.hash(), 1).unwrap(), 9);
        let footprint = rt.heap_footprint();
        assert_eq!(
            footprint.heap_allocs - footprint.heap_frees,
            // 5 popped + still-live `obj` + whatever h2's magazine parks.
            6 + h2.parked_capsules() as u64,
            "only live objects and parked capsules may hold heap blocks"
        );
    }

    /// Satellite: magazine-recycled slots bump their record generation
    /// exactly like mutex-path frees — one step per recycle, no skips,
    /// no stale revival. A tiny arena forces block reuse through the
    /// refill path itself.
    #[test]
    fn magazine_recycled_slots_bump_generations_by_one() {
        let mut config = RuntimeConfig::default();
        config.heap.capacity = 1 << 14; // ~160 blocks: reuse is forced
        config.magazine = crate::runtime::MagazinePolicy { batch: 8 };
        let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), config, 1);
        let info = people();
        let mut h = rt.handle(0);
        let mut last_gen: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut recycled = 0u64;
        for _ in 0..300 {
            let obj = h.olr_malloc(&info).unwrap();
            let meta = rt.object_meta(obj).expect("fresh allocation has a record");
            assert_eq!(meta.state, ObjectState::Live);
            match last_gen.insert(obj.0, meta.generation) {
                None => assert_eq!(meta.generation, 1, "first record of a slot starts at 1"),
                Some(prev) => {
                    recycled += 1;
                    assert_eq!(
                        meta.generation,
                        prev + 1,
                        "a recycled slot must advance exactly one generation"
                    );
                }
            }
            h.olr_free(obj).unwrap();
            // The freed record keeps its generation until the slot is
            // re-armed (object_meta drains the remote stack first, so
            // the fast-freed state is visible).
            let meta = rt.object_meta(obj).expect("freed record is retained");
            assert_eq!(meta.state, ObjectState::Freed);
            assert_eq!(meta.generation, last_gen[&obj.0]);
        }
        assert!(recycled > 0, "the tiny arena must have recycled blocks");
    }

    /// Satellite torture: cross-thread remote frees racing seqlock
    /// readers. An owner thread keeps allocating and handing addresses
    /// to freer threads (whose claims land on the owner's shard as
    /// remote frees), while readers hammer a stable set checking for
    /// torn values. Everything must stay classified and balanced.
    #[test]
    fn torture_remote_frees_mix_with_lock_free_readers() {
        const FREERS: usize = 2;
        const READERS: usize = 2;
        let churn_objs: usize = if cfg!(debug_assertions) { 6_000 } else { 40_000 };
        let rt = sharded(2);
        let info = record();
        let mut h = rt.handle(0);
        let stable: Vec<Addr> = (0..16)
            .map(|i| {
                let obj = h.olr_malloc(&info).unwrap();
                for field in 0..info.field_count() {
                    let x = 0x1000 + i as u64;
                    h.write_field(obj, info.hash(), field, (x << 32) | x).unwrap();
                }
                obj
            })
            .collect();
        drop(h);
        let (tx, rx) = std::sync::mpsc::channel::<Addr>();
        let rx = std::sync::Mutex::new(rx);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (rt, info, stable, rx, stop) = (&rt, &info, &stable, &rx, &stop);
            let owner = scope.spawn(move || {
                let mut h = rt.handle(0);
                for _ in 0..churn_objs {
                    tx.send(h.olr_malloc(info).unwrap()).unwrap();
                }
                drop(tx);
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            let freers: Vec<_> = (0..FREERS)
                .map(|f| {
                    scope.spawn(move || {
                        let mut h = rt.handle(1 + f as u64);
                        loop {
                            let next = rx.lock().unwrap().recv();
                            match next {
                                Ok(addr) => h.olr_free(addr).unwrap(),
                                Err(_) => break, // owner hung up: all freed
                            }
                        }
                    })
                })
                .collect();
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    scope.spawn(move || {
                        let mut h = rt.handle(1 + (FREERS + r) as u64);
                        let mut driver = SplitMix64::new(0x4EAD + r as u64);
                        let mut n = 0u64;
                        while !stop.load(std::sync::atomic::Ordering::Acquire) || n < 1_000 {
                            let obj = stable[driver.random_range(0..stable.len())];
                            let field = driver.random_range(0..2usize);
                            let v = h.read_field(obj, info.hash(), field).unwrap();
                            assert_eq!(v >> 32, v & 0xFFFF_FFFF, "torn read on reader {r}");
                            n += 1;
                        }
                    })
                })
                .collect();
            owner.join().unwrap();
            for f in freers {
                f.join().unwrap();
            }
            for r in readers {
                r.join().unwrap();
            }
        });
        let stats = rt.stats();
        assert_eq!(stats.allocations, churn_objs as u64 + 16);
        assert_eq!(stats.frees, churn_objs as u64);
        assert!(
            stats.fast_frees > 0,
            "cross-thread frees must exercise the remote-free path"
        );
        assert_eq!(
            stats.remote_drained, stats.fast_frees,
            "every claimed slot must be drained at quiescence"
        );
        assert_eq!(stats.total_detections(), 0);
    }
}
