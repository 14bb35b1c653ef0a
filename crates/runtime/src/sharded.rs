//! The concurrent sharded runtime: POLaR for multi-threaded programs.
//!
//! [`ObjectRuntime`] is deliberately `&mut self` — one heap, one record
//! table, one RNG. This module scales it across threads without touching
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
//! * **One counter model.** Every count is a [`RuntimeStats`] column,
//!   and every column reaches the runtime's one [`AtomicRuntimeStats`]:
//!   locked paths count into their shard's [`ObjectRuntime`], folded
//!   into the atomics as the shard's lock is released; a handle counts
//!   everything else into its plain pending sheet, folded at
//!   [`ShardHandle::flush_stats`] or when the handle drops.
//!   [`ShardedRuntime::stats`] is one snapshot of the atomics, with no
//!   lock and no drain; [`ShardHandle::stats`] adds the handle's
//!   unflushed sheet.
//! * **Lock-free classification.** Every shard's heap is *published*
//!   ([`SimHeap::new_published`](polar_simheap::SimHeap::new_published)):
//!   its per-slot object records — the one metadata record of each
//!   object, which the shard's locked paths read and write directly —
//!   are seqlocked and reachable by address through the heap's unit
//!   index, which its [`HeapPublisher`] shares, and plans live in a shared
//!   [`PlanRegistry`] resolvable by integer id. So
//!   [`ShardHandle::olr_getptr`], [`ShardHandle::olr_getptr_ic`],
//!   [`ShardHandle::read_field`], [`ShardHandle::write_field`],
//!   [`ShardHandle::olr_memcpy`], [`ShardHandle::check_traps`] and
//!   [`ShardedRuntime::object_meta`] run
//!   with **no lock at all**: snapshot the slot and hand it to the same
//!   classifier the locked paths use ([`RecordView::classify`]), which
//!   resolves the access or reports the miss or detection, counting
//!   into the handle's pending sheet. A read's result counts only if
//!   the slot's sequence is unchanged after it was computed (after the
//!   value load, for `read_field`). A write stores only inside the
//!   slot's seqlock window, opened by a CAS from exactly the snapshot's
//!   sequence: the CAS excludes every other writer, the owner's locked
//!   windows included, and proves the classification current. A copy
//!   of a live object onto a live object of its class stages the
//!   source's fields under a recheck of its sequence, then stores them,
//!   re-seeds the canaries and re-records the destination inside the
//!   destination's window, opened the same way. Otherwise the attempt's
//!   counts are taken back and it retries. Only contention past a few
//!   retries, and a copy the lock-free path does not serve, reaches the
//!   shard mutex, and a read served there holds the slot's window over
//!   its load, since the mutex no longer excludes writers.
//! * **Magazine front-end + remote frees.** With
//!   [`RuntimeConfig::magazine`] enabled (the default), each
//!   [`ShardHandle`] keeps per-size-class **magazines** of pre-reserved
//!   allocation capsules — fully armed objects (block allocated,
//!   canaries seeded, metadata recorded and published) — refilled
//!   `batch` at a time under one home-shard lock acquisition, so the
//!   common-case `olr_malloc` is a lock-free pop. The matching free
//!   fast path runs the shared free check on a stable snapshot (its
//!   canary sweep reads the shared arena), so a double free or a trap
//!   hit is reported without the lock; a live object's slot is claimed
//!   by a generation-exact flip of the record's packed life word, in a
//!   seqlock window of its own, which flags the claim pending until
//!   its drain, and pushed onto the owning shard's **MPSC remote-free
//!   stack** (a Treiber stack threaded through the slot records). The
//!   stack is drained where its blocks are wanted: by the owner's
//!   refill (and every other allocation), before raw heap operations
//!   and the other locked paths that change blocks, at handle teardown,
//!   and by a push that takes the stack past [`DRAIN_AT`] and finds the
//!   mutex free.
//!   A drain releases the blocks in push order, so the heap ends up as
//!   immediate frees would have left it. The mutex is left for the
//!   heap: refills and allocations, drains, frees it must finish
//!   (untracked pointers, refused claims), raw heap operations, and
//!   the copies, trap sweeps and contended accesses that fall back.
//!
//! Handles round-robin their **home shard** (`thread % shards`) for
//! allocations; accesses to any address still work from any thread
//! because routing is by address, not by handle.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use polar_classinfo::{ClassHash, ClassInfo};
use polar_layout::{
    CanaryKey, LayoutEngine, LayoutPlan, PlanInterner, PlanPools, PlanRegistry,
    RandomizationPolicy,
};
use polar_rng::{BufferedRng, Rng, SeedableRng, SplitMix64, Xoshiro256StarStar};
use polar_simheap::{
    Addr, HeapError, HeapPublisher, PubSnapshot, SnapshotOutcome, PUB_STATE_FREED,
};

use crate::api::PolarRuntime;
use crate::classify::{scan_traps, Access, RecordView};
use crate::error::{RuntimeError, TrapReport};
use crate::runtime::{
    canary_width, plan_source, Capsule, ObjectMeta, ObjectRuntime, PlanSource, RandomizeMode,
    RuntimeConfig, SiteCache, DEFAULT_BATCH,
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

/// Remote-free stack depth past which a push drains the stack itself:
/// an owner that keeps allocating drains at its refills, so a stack
/// this deep belongs to one that has stopped, and the pusher releases
/// the blocks rather than leave them stranded. Measured on
/// handoff-churn's cross-thread frees with push-side drains off, all
/// but 0.004 % of the producer's refills found at most 256 claims
/// (97.5 % at most 64; the deepest when a stalled producer let the
/// consumer free a whole hand-off queue of 8 × 32 objects), so pushes
/// past 256 drain a few times a run where pushes past 64 drained
/// thousands of times, on the consumer.
const DRAIN_AT: u64 = 8 * DEFAULT_BATCH as u64;

/// Head of one shard's MPSC remote-free stack, on its own cache line so
/// concurrent pushers to different shards do not false-share. The low
/// 32 bits are `slot id + 1` of the top entry (`0` = empty), the high
/// 32 bits the stack's depth; links are threaded through the slot
/// records' `remote_next` words, so the stack costs no allocation and
/// no extra table. Pushers are the lock-free free path (any thread).
/// The stack is drained under the shard's mutex by whoever wants or
/// changes its blocks (refills and other allocations, raw heap
/// operations, locked frees and copies, handle teardown,
/// [`ShardedRuntime::quiesce`]) and by a push that takes it past
/// [`DRAIN_AT`] and finds the mutex free.
#[repr(align(64))]
#[derive(Debug, Default)]
struct RemoteHead(AtomicU64);

/// Shard `i`'s runtime under its mutex. The locked paths count into the
/// shard's own [`ObjectRuntime`]; dropping the guard folds what they
/// counted while it was held into the runtime's shared counters, so
/// [`ShardedRuntime::stats`] reads them without a lock.
struct ShardGuard<'a> {
    rt: MutexGuard<'a, ObjectRuntime>,
    counters: &'a AtomicRuntimeStats,
    /// The shard's counters when the lock was taken; every column is
    /// monotone.
    at_lock: RuntimeStats,
}

impl<'a> ShardGuard<'a> {
    fn new(rt: MutexGuard<'a, ObjectRuntime>, counters: &'a AtomicRuntimeStats) -> Self {
        let at_lock = rt.stats();
        ShardGuard { rt, counters, at_lock }
    }
}

impl Deref for ShardGuard<'_> {
    type Target = ObjectRuntime;

    fn deref(&self) -> &ObjectRuntime {
        &self.rt
    }
}

impl DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut ObjectRuntime {
        &mut self.rt
    }
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        self.counters.add(&(self.rt.stats() - self.at_lock));
    }
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
    /// Each shard's lock-free reader side — unit index, shared arena,
    /// slot records (same index as `shards`) — usable without the
    /// shard's mutex.
    pubs: Vec<Arc<HeapPublisher>>,
    /// Shared plan storage of every shard and handle interner: readers
    /// resolve the small ids the slot records carry here, lock-free.
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
    /// Every count: the handles' flushed pending sheets, the shards'
    /// locked counts (folded as each shard guard drops) and the
    /// remote-free drains.
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
        // One canary key, from the root seed, for the one registry: a
        // structure's canaries do not depend on which shard interned it.
        let registry = Arc::new(PlanRegistry::shared(CanaryKey::from_seed(config.seed)));
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
                if shard_config.heap.placement.enabled && shard_config.heap.placement.seed == 0 {
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
            interner: PlanInterner::with_registry(Arc::clone(&self.registry)),
            pools: PlanPools::new(),
            rng: thread_rng(self.config.seed, thread),
            magazines: Vec::new(),
            pending: RuntimeStats::default(),
            pushed: 0,
            staged: Vec::new(),
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
    /// The shard's remote-free stack stays as it is: a locked read, write
    /// or inspection needs no block a claim still holds.
    fn lock(&self, i: usize) -> Result<ShardGuard<'_>, RuntimeError> {
        let rt = self.shards[i].lock().map_err(|_| RuntimeError::ShardPoisoned { shard: i })?;
        Ok(ShardGuard::new(rt, &self.counters))
    }

    /// [`ShardedRuntime::lock`] that first drains the shard's remote-free
    /// stack: for the paths that want or change the shard's blocks
    /// (allocations, refills, frees, copies, trap sweeps of freed
    /// objects, raw heap operations). A claimed block is still live to
    /// the heap until its drain, so these paths see every lock-free free
    /// as *completed* and act exactly as their single-threaded
    /// counterparts. A claim landing after the drain stays pending: the
    /// locked path sees the object freed, or re-records it over the
    /// claim (a racing copy), and the claim's slot stays flagged and
    /// on the stack until the next drain (see
    /// [`SlotRecords::mark_drained`]).
    ///
    /// [`SlotRecords::mark_drained`]: polar_simheap::SlotRecords::mark_drained
    fn lock_drained(&self, i: usize) -> Result<ShardGuard<'_>, RuntimeError> {
        let mut guard = self.lock(i)?;
        self.drain_remote(i, &mut guard);
        Ok(guard)
    }

    /// Lock shard `i` even if poisoned — for observability paths
    /// (metadata snapshots and footprints) that must stay readable while
    /// a shard is degraded. Counters are plain integers, so the worst a
    /// mid-panic state costs is one partially counted operation.
    fn lock_ignore_poison(&self, i: usize) -> ShardGuard<'_> {
        let rt = self.shards[i].lock().unwrap_or_else(|e| e.into_inner());
        ShardGuard::new(rt, &self.counters)
    }

    /// Push `slot` onto shard `shard`'s remote-free stack (lock-free,
    /// multi-producer). The caller must have claimed the slot via
    /// [`SlotRecords::claim_free`] — a slot is claimable again only once
    /// the drain that pops it clears its pending flag, so it is never on
    /// the stack twice and links cannot be clobbered concurrently. The
    /// release CAS publishes the link store; the consumer's acquire
    /// swap pairs with it. A push that leaves the stack deeper than
    /// [`DRAIN_AT`] drains it if the shard's mutex is free, and never
    /// waits for it.
    ///
    /// [`SlotRecords::claim_free`]: polar_simheap::SlotRecords::claim_free
    fn remote_push(&self, shard: usize, slot: u32) {
        let head = &self.remote[shard].0;
        let mut cur = head.load(Ordering::Acquire);
        loop {
            self.pubs[shard].records().set_remote_next(slot, cur as u32);
            let next = ((cur >> 32) + 1) << 32 | u64::from(slot + 1);
            match head.compare_exchange_weak(cur, next, Ordering::Release, Ordering::Acquire) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        if cur >> 32 >= DRAIN_AT {
            if let Ok(rt) = self.shards[shard].try_lock() {
                self.drain_remote(shard, &mut ShardGuard::new(rt, &self.counters));
            }
        }
    }

    /// Drain shard `i`'s remote-free stack while holding its lock:
    /// release each claimed slot's heap block (the claim already marked
    /// its record freed), in the order the slots were pushed, so the
    /// heap's free lists end up exactly as immediate frees would have
    /// left them, however late the drain. The block's free was already
    /// *counted* by the claiming thread (`fast_frees`); the drain only
    /// completes it and counts `remote_drained`.
    ///
    /// Retirement is gated on the slot record still reading `FREED`
    /// with matching generations: a slot whose block raced
    /// through another completion path (a concurrent double free the
    /// program itself issued), was recycled raw since the claim, or was
    /// re-recorded live by a racing locked copy is skipped rather than
    /// releasing a live object's block. Every popped slot's pending flag
    /// is cleared once its link has been read, so it may be claimed
    /// again.
    fn drain_remote(&self, i: usize, rt: &mut ObjectRuntime) {
        let head = &self.remote[i].0;
        if head.load(Ordering::Relaxed) == 0 {
            return;
        }
        let records = self.pubs[i].records();
        // Detach the stack and reverse its links into push order.
        let mut cur = head.swap(0, Ordering::Acquire) as u32;
        let mut fifo = 0;
        while cur != 0 {
            let next = records.remote_next(cur - 1);
            records.set_remote_next(cur - 1, fifo);
            (fifo, cur) = (cur, next);
        }
        let mut drained = 0u64;
        while fifo != 0 {
            let slot = fifo - 1;
            fifo = records.remote_next(slot);
            // Only this lock's holder writes a pending slot's lifecycle
            // word, so this view is stable.
            if records.get(slot).is_some_and(|r| r.current_state() == Some(PUB_STATE_FREED)) {
                rt.retire_reserved(slot);
            }
            records.mark_drained(slot);
            drained += 1;
        }
        self.counters.add(&RuntimeStats { remote_drained: drained, ..RuntimeStats::default() });
    }

    /// Route `addr` to its shard's lock, drained, or fail with `err`.
    fn route(&self, addr: Addr, err: RuntimeError) -> Result<ShardGuard<'_>, RuntimeError> {
        match self.shard_of(addr) {
            Some(i) => self.lock_drained(i),
            None => Err(err),
        }
    }

    // ----- the lock-free paths -----

    /// A snapshot of the record covering `base` on `shard`, through the
    /// site's slot hint when it names this base. The hint only skips the
    /// unit-index walk: a hinted snapshot of another base is discarded.
    #[inline]
    fn snapshot(&self, shard: usize, base: Addr, ic: Option<&SiteCache>) -> SnapshotOutcome {
        let p = &self.pubs[shard];
        let hinted = ic.and_then(|site| site.slot_hint(base.0));
        match hinted.map(|slot| p.records().try_snapshot_slot(slot)) {
            Some(SnapshotOutcome::Snap(s)) if s.base == base.0 => SnapshotOutcome::Snap(s),
            _ => p.try_snapshot(base.0),
        }
    }

    /// The classifier's view of `base` through a snapshot on `shard`:
    /// plans resolve through the shared registry.
    #[inline]
    fn view<'a>(
        &'a self,
        shard: usize,
        base: Addr,
        snap: Option<PubSnapshot>,
    ) -> RecordView<'a> {
        let records = self.pubs[shard].records();
        RecordView { base, snap, records, registry: &self.registry }
    }

    /// Lock-free `olr_free`, counted into `sink`. `Some` is the free's
    /// result, decided without the shard mutex: a double free or a trap
    /// hit read from a stable snapshot, or a live object whose canaries
    /// scanned intact through the shared arena and whose slot this call
    /// claimed with the generation-exact [`claim_free`], flipping it
    /// `LIVE → FREED` in a window opened at the snapshot's sequence and
    /// pushing it onto the owning shard's remote-free stack for a drain
    /// to release. `None` routes to the mutex: an untracked address (a
    /// plain `free()` needs the heap), a refused claim (a stranded
    /// record, a claim still pending), or contention past the retry
    /// budget.
    ///
    /// The sweep reads racily against writers, so every verdict waits
    /// for a seqlock recheck (the claim's window is one): a torn attempt
    /// retries from a fresh snapshot, the sheet restored to drop its
    /// counts.
    ///
    /// [`claim_free`]: polar_simheap::SlotRecords::claim_free
    fn fast_free(&self, addr: Addr, sink: &mut RuntimeStats) -> Option<Result<(), RuntimeError>> {
        if !self.config.magazine.enabled() {
            return None;
        }
        let shard = self.shard_of(addr)?;
        let p = &self.pubs[shard];
        for _ in 0..FAST_RETRIES {
            let snap = match p.try_snapshot(addr.0) {
                SnapshotOutcome::Snap(s) => s,
                SnapshotOutcome::Untracked => return None,
                SnapshotOutcome::Unstable => {
                    std::hint::spin_loop();
                    continue;
                }
            };
            let counted = *sink;
            let read = |a: Addr, w| p.read_uint(a.0, w);
            let check = self.view(shard, addr, Some(snap)).free_check(&self.config, read, sink);
            let records = p.records();
            let stable = records.recheck(snap.slot, snap.seq);
            match check {
                Err(err) if stable => return Some(Err(err)),
                Ok(Some(slot)) if stable && records.claim_free(slot, snap.seq, snap.meta_gen) => {
                    self.remote_push(shard, slot);
                    sink.frees += 1;
                    sink.fast_frees += 1;
                    return Some(Ok(()));
                }
                _ => *sink = counted,
            }
            if stable && records.recheck(snap.slot, snap.seq) {
                return None; // untracked, or a refused claim: the mutex decides
            }
            std::hint::spin_loop();
        }
        None
    }

    /// Raw slot-record probe for `addr`'s shard, exposed for the
    /// concurrency tests (torture and property suites assert snapshot
    /// self-consistency through this).
    #[doc(hidden)]
    pub fn publish_probe(&self, addr: Addr) -> Option<SnapshotOutcome> {
        Some(self.pubs[self.shard_of(addr)?].try_snapshot(addr.0))
    }

    /// Resolve a recorded plan id against the shared registry (test
    /// hook, paired with [`ShardedRuntime::publish_probe`]).
    #[doc(hidden)]
    pub fn registry_plan(&self, id: u32) -> Option<&Arc<LayoutPlan>> {
        self.registry.get(id)
    }

    /// Metadata view of the object at `base`, if tracked: a snapshot of
    /// the owning shard's slot record, its plan resolved through the
    /// shared registry, with no lock. Only contention past the retry
    /// budget reads it under the shard's mutex.
    pub fn object_meta(&self, base: Addr) -> Option<ObjectMeta> {
        let i = self.shard_of(base)?;
        let p = &self.pubs[i];
        for _ in 0..FAST_RETRIES {
            let snap = match p.try_snapshot(base.0) {
                SnapshotOutcome::Snap(s) => s,
                SnapshotOutcome::Untracked => return None,
                SnapshotOutcome::Unstable => {
                    std::hint::spin_loop();
                    continue;
                }
            };
            let meta = self.view(i, base, Some(snap)).meta();
            if p.records().recheck(snap.slot, snap.seq) {
                return meta;
            }
            std::hint::spin_loop();
        }
        self.lock_ignore_poison(i).object_meta(base)
    }

    /// Combined statistics: one snapshot of the shared counters, taken
    /// with no lock and changing nothing.
    ///
    /// Coherence contract: a shard-locked operation's counts are here
    /// once its shard lock is released; a [`ShardHandle`]'s own counts
    /// at its [`ShardHandle::flush_stats`] or drop (and at once through
    /// its own [`ShardHandle::stats`]). A lock-free free counts
    /// `fast_frees` when it claims the object and `remote_drained` when
    /// the owning shard drains the claim, which may be later: once
    /// every handle has dropped, or after [`ShardedRuntime::quiesce`],
    /// the two agree. While threads are mid-operation each counter is
    /// individually exact but the cross-counter view is approximate
    /// (see [`AtomicRuntimeStats`]).
    ///
    /// `unique_plans`/`dedup_saved` sum over *all* interners (one per
    /// shard + one per handle), so they bound metadata held, not global
    /// plan distinctness.
    pub fn stats(&self) -> RuntimeStats {
        self.counters.snapshot()
    }

    /// Drain every shard's remote-free stack, waiting for each shard's
    /// lock (a poisoned shard is drained all the same): every claimed
    /// block is released and counted in `remote_drained`. For callers
    /// that read heap footprints or counters at a quiescent point while
    /// handles are still alive; dropped handles have drained their own
    /// frees already.
    pub fn quiesce(&self) {
        for i in 0..self.shards.len() {
            if self.remote[i].0.load(Ordering::Acquire) != 0 {
                self.drain_remote(i, &mut self.lock_ignore_poison(i));
            }
        }
    }

    /// Estimated POLaR bookkeeping bytes: each shard's own (slot
    /// records, plans, pools, class table), each shard's lock-free unit
    /// index, and the shared plan registry once.
    pub fn estimated_metadata_bytes(&self) -> usize {
        let shards: usize = (0..self.shards.len())
            .map(|i| self.lock_ignore_poison(i).shard_metadata_bytes())
            .sum();
        let published: usize = self.pubs.iter().map(|p| p.metadata_bytes()).sum();
        shards + published + self.registry.metadata_bytes()
    }

    /// Heap-allocator footprint summed over shards (each read under its
    /// lock): live and peak bytes, arena capacity, and raw alloc/free
    /// counts. A block a lock-free free has claimed stays live here
    /// until its shard drains the claim (see
    /// [`ShardedRuntime::quiesce`]). The session-store workload derives
    /// its fragmentation and bytes-per-live-object figures from this.
    pub fn heap_footprint(&self) -> HeapFootprint {
        let mut f = HeapFootprint::default();
        for i in 0..self.shards.len() {
            let rt = self.lock_ignore_poison(i);
            let s = rt.heap().stats();
            f.bytes_live += s.bytes_live;
            f.bytes_peak += s.bytes_peak;
            f.arena_bytes += rt.heap().arena_len();
            f.heap_allocs += s.allocs;
            f.heap_frees += s.frees;
        }
        f
    }

    /// The shard owning `addr` for a raw heap access, drained, or a
    /// wild-access fault when no shard window contains it.
    fn heap_shard(&self, addr: Addr, len: usize) -> Result<ShardGuard<'_>, HeapError> {
        match self.shard_of(addr) {
            // A poisoned shard faults its raw accesses (the heap API
            // speaks `HeapError`); instrumented paths report the richer
            // `ShardPoisoned` instead.
            Some(i) => self.lock_drained(i).map_err(|_| HeapError::Fault { addr, len }),
            None => Err(HeapError::Fault { addr, len }),
        }
    }

    /// Lock-free [`ObjectRuntime::olr_memcpy`] of a live tracked `src`
    /// onto a live `dst` of the same class, which keeps its plan,
    /// counted into `sink`; `staged` is the caller's scratch buffer.
    /// Both records are snapshotted and classified, the source's fields
    /// are staged through the shared arena and validated by a recheck of
    /// its sequence, and the destination's window is opened at exactly
    /// its snapshot's sequence ([`SlotRecords::try_open_at`]), which
    /// proves its classification current and excludes every other
    /// writer. Inside the window the fields are stored, the plan's
    /// canaries re-seeded and the slot re-recorded
    /// ([`SlotRecords::rearm`]), as [`ObjectRuntime::olr_memcpy`] does
    /// for such a pair. A torn staging or a lost CAS retries from fresh
    /// snapshots. `None` routes to the mutex: an untracked or freed
    /// endpoint (a freed source is UAF-classified there), a class
    /// change, or contention past the retry budget.
    ///
    /// [`SlotRecords::try_open_at`]: polar_simheap::SlotRecords::try_open_at
    /// [`SlotRecords::rearm`]: polar_simheap::SlotRecords::rearm
    fn fast_copy(
        &self,
        dst: Addr,
        src: Addr,
        staged: &mut Vec<u8>,
        sink: &mut RuntimeStats,
    ) -> Option<Result<(), RuntimeError>> {
        let (si, di) = (self.shard_of(src)?, self.shard_of(dst)?);
        let (sp, dp) = (&self.pubs[si], &self.pubs[di]);
        for _ in 0..FAST_RETRIES {
            let (s, d) = match (sp.try_snapshot(src.0), dp.try_snapshot(dst.0)) {
                (SnapshotOutcome::Snap(s), SnapshotOutcome::Snap(d)) => (s, d),
                (SnapshotOutcome::Untracked, _) | (_, SnapshotOutcome::Untracked) => return None,
                _ => {
                    std::hint::spin_loop();
                    continue;
                }
            };
            let (s, src_plan) = self.view(si, src, Some(s)).tracked_plan()?;
            let (d, dst_plan) = self.view(di, dst, Some(d)).tracked_plan()?;
            if s.state == PUB_STATE_FREED || d.state == PUB_STATE_FREED || s.class_hash != d.class_hash
            {
                return None;
            }
            staged.clear();
            let read = (0..src_plan.field_count()).try_for_each(|field| {
                let from = src.0 + u64::from(src_plan.offset(field));
                sp.read_bytes(from, src_plan.field_size(field) as usize, staged)
            });
            if !sp.records().recheck(s.slot, s.seq) || !dp.records().try_open_at(d.slot, d.seq) {
                std::hint::spin_loop();
                continue;
            }
            let stored = read.and_then(|()| {
                let mut at = 0;
                for field in 0..src_plan.field_count() {
                    let size = src_plan.field_size(field) as usize;
                    let to = dst.0 + u64::from(dst_plan.offset(field));
                    dp.write_bytes(to, &staged[at..at + size])?;
                    at += size;
                }
                for dummy in dst_plan.dummies() {
                    if let Some(canary) = dummy.canary {
                        let to = dst.0 + u64::from(dummy.offset);
                        dp.write_uint(to, canary, canary_width(dummy.size))?;
                    }
                }
                dp.records().rearm(d.slot);
                Some(())
            });
            dp.records().close(d.slot, d.seq);
            sink.memcpys += 1;
            sink.lockfree_copies += 1;
            let len = dst_plan.size() as usize;
            return Some(stored.ok_or(RuntimeError::Heap(HeapError::Fault { addr: dst, len })));
        }
        None
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

/// A resolved field's value, loaded from the shared arena.
fn load_field(p: &HeapPublisher, Access { addr, width, .. }: Access) -> Result<u64, RuntimeError> {
    p.read_uint(addr.0, width).ok_or(RuntimeError::Heap(HeapError::Fault { addr, len: width }))
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
    /// Shards (bit `i % 64` for shard `i`) this handle's lock-free
    /// frees were pushed onto: teardown drains them.
    pushed: u64,
    /// Scratch buffer of the lock-free copy's staged source fields.
    staged: Vec<u8>,
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
        let source = plan_source(&self.rt.mode, self.rt.config.layout, info.field_count());
        let batch = self.rt.config.magazine.batch;
        match source {
            PlanSource::Mode => self.rt.lock_drained(self.home)?.olr_malloc(info),
            _ if batch > 0 => self.magazine_malloc(info, source, batch),
            PlanSource::Derived { .. } => self.rt.lock_drained(self.home)?.olr_malloc(info),
            _ => {
                let plan_id = self.draw_plans(info, source, 1).pop().expect("one plan drawn");
                self.rt.lock_drained(self.home)?.olr_malloc_with_plan(info, plan_id)
            }
        }
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
        source: PlanSource,
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
            self.refill_magazine(idx, info, source, batch)?;
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
        if matches!(source, PlanSource::Derived { .. }) {
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
    /// the critical section is the drain of the shard's remote frees,
    /// whose blocks the reservations may reuse, and the reservation
    /// loop. A mid-batch
    /// heap error keeps the partial magazine (the heap is near-full —
    /// hand out what was reserved); a first-reservation error
    /// propagates, leaving the magazine empty.
    fn refill_magazine(
        &mut self,
        idx: usize,
        info: &Arc<ClassInfo>,
        source: PlanSource,
        batch: usize,
    ) -> Result<(), RuntimeError> {
        let plans = match source {
            PlanSource::Derived { .. } => Vec::new(),
            _ => self.draw_plans(info, source, batch),
        };
        let mut shard = self.rt.lock_drained(self.home)?;
        let caps = &mut self.magazines[idx].1.caps;
        if let PlanSource::Derived { traps } = source {
            for i in 0..batch {
                match shard.reserve_stateless(info, traps) {
                    Ok(cap) => caps.push_back(cap),
                    Err(err) if i == 0 => return Err(err),
                    Err(_) => break,
                }
            }
        } else {
            for (i, plan_id) in plans.into_iter().enumerate() {
                match shard.reserve_with_plan(info, plan_id) {
                    Ok(cap) => caps.push_back(cap),
                    Err(err) if i == 0 => return Err(err),
                    Err(_) => break,
                }
            }
        }
        Ok(())
    }

    /// Draw `n` plans for `info` from this thread's pools (or straight
    /// from the engine for a [`PlanSource::Fresh`] source), returning
    /// their ids in the runtime's shared registry, counting the pool and
    /// interner growth into the pending sheet.
    fn draw_plans(&mut self, info: &Arc<ClassInfo>, source: PlanSource, n: usize) -> Vec<u32> {
        let pool = self.pools.stats();
        let (unique, dedup) = (self.interner.unique_plans(), self.interner.dedup_hits());
        let mut plans = Vec::with_capacity(n);
        if source == PlanSource::Pooled {
            self.pools.draw_batch(info, &self.engine, &mut self.interner, &mut self.rng, n, &mut plans);
        } else {
            for _ in 0..n {
                plans.push(self.interner.intern_id(self.engine.generate(info, &mut self.rng)));
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
        self.rt.lock_drained(self.home)?.malloc_raw(size)
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
    /// enabled the free is first checked and claimed without the lock,
    /// counted into this handle's pending sheet: a double free or trap
    /// hit is reported there, a live object is claimed for the owning
    /// shard to release. A free that needs the heap (an untracked
    /// pointer) or whose claim is refused takes the owning shard's
    /// mutex.
    ///
    /// # Errors
    ///
    /// As for the single-thread call; addresses outside every shard
    /// window report [`HeapError::InvalidFree`].
    pub fn olr_free(&mut self, addr: Addr) -> Result<(), RuntimeError> {
        if let Some(freed) = self.rt.fast_free(addr, &mut self.pending) {
            if let (Ok(()), Some(i)) = (&freed, self.rt.shard_of(addr)) {
                self.pushed |= 1 << (i % 64);
            }
            return freed;
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
        self.read_in(base, expected, field, None, false, |_, access| Ok(access.addr))
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
        self.read_in(base, expected, field, Some(ic), false, |_, access| Ok(access.addr))
    }

    /// The one body of the handle's reads: classify the access without
    /// the lock, then `load` through the resolved access (a load that
    /// reads the arena says so in `loads`). A detection, or a loaded
    /// value, counts and returns only if no writer window overlapped its
    /// snapshot; otherwise the attempt retries from a fresh snapshot,
    /// the pending sheet restored to drop its counts. Past the retry
    /// budget the owning shard's mutex serves the access.
    #[inline]
    fn read_in<T>(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        mut ic: Option<&mut SiteCache>,
        loads: bool,
        load: impl Fn(&HeapPublisher, Access) -> Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        let rt = self.rt;
        let Some(shard) = rt.shard_of(base) else {
            return Err(RuntimeError::UnknownObject(base));
        };
        let p = &rt.pubs[shard];
        for _ in 0..FAST_RETRIES {
            let snap = match rt.snapshot(shard, base, ic.as_deref()) {
                SnapshotOutcome::Snap(s) => Some(s),
                SnapshotOutcome::Untracked => None,
                SnapshotOutcome::Unstable => {
                    std::hint::spin_loop();
                    continue;
                }
            };
            let counted = self.pending;
            let view = rt.view(shard, base, snap);
            let result = view
                .classify(expected, field, ic.as_deref_mut(), &rt.config, &mut self.pending)
                .and_then(|access| load(p, access));
            // A resolved address came from a stable snapshot and stands;
            // a detection or a loaded value is rechecked. An untracked
            // address has no record to recheck: unit-index entries are
            // written once, so it stays untracked.
            let settled = result.is_ok() && !loads;
            if settled || snap.is_none_or(|s| p.records().recheck(s.slot, s.seq)) {
                self.pending.lockfree_reads += 1;
                return result;
            }
            self.pending = counted;
            std::hint::spin_loop();
        }
        self.read_locked(shard, base, expected, field, ic, load)
    }

    /// The mutex-served tail of [`ShardHandle::read_in`], counted as a
    /// fallback. The mutex does not exclude lock-free field writers, so
    /// `load` runs inside the slot's window: an 8-byte store straddling
    /// two words is never seen half done.
    #[cold]
    fn read_locked<T>(
        &mut self,
        shard: usize,
        base: Addr,
        expected: ClassHash,
        field: usize,
        ic: Option<&mut SiteCache>,
        load: impl Fn(&HeapPublisher, Access) -> Result<T, RuntimeError>,
    ) -> Result<T, RuntimeError> {
        self.pending.lockfree_fallbacks += 1;
        let p = &self.rt.pubs[shard];
        let mut guard = self.rt.lock(shard)?;
        let access = guard.access(base, expected, field, ic)?;
        let win = guard.heap().pub_open(access.slot);
        let loaded = load(p, access);
        guard.heap().pub_close(access.slot, win);
        loaded
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
        self.read_in(base, expected, field, None, true, load_field)
    }

    /// [`ObjectRuntime::write_field`], routed by address and served
    /// without the shard mutex. The access is classified on a snapshot,
    /// as a read's is; the store then opens the slot's seqlock window at
    /// exactly the snapshot's sequence ([`SlotRecords::try_open_at`]).
    /// That one CAS excludes every other writer (the owner's windows,
    /// other handles' stores) and proves the classification still
    /// holds, so the value goes straight into the shared arena and the
    /// window closes. A detection stands once the slot's sequence
    /// rechecks unchanged; an untracked address needs no recheck. A lost
    /// CAS or a failed recheck retries from a fresh snapshot, the
    /// pending sheet restored; past the retry budget the owning shard's
    /// mutex serves the write.
    ///
    /// # Errors
    ///
    /// As for [`ShardHandle::olr_getptr`] plus heap faults.
    ///
    /// [`SlotRecords::try_open_at`]: polar_simheap::SlotRecords::try_open_at
    pub fn write_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        value: u64,
    ) -> Result<(), RuntimeError> {
        let rt = self.rt;
        let Some(shard) = rt.shard_of(base) else {
            return Err(RuntimeError::UnknownObject(base));
        };
        let p = &rt.pubs[shard];
        for _ in 0..FAST_RETRIES {
            let snap = match rt.snapshot(shard, base, None) {
                SnapshotOutcome::Snap(s) => Some(s),
                SnapshotOutcome::Untracked => None,
                SnapshotOutcome::Unstable => {
                    std::hint::spin_loop();
                    continue;
                }
            };
            let counted = self.pending;
            let view = rt.view(shard, base, snap);
            let classified = view.classify(expected, field, None, &rt.config, &mut self.pending);
            let settled = match (classified, snap) {
                (Ok(Access { addr, width, .. }), Some(s))
                    if p.records().try_open_at(s.slot, s.seq) =>
                {
                    let stored = p.write_uint(addr.0, value, width);
                    p.records().close(s.slot, s.seq);
                    Some(stored.ok_or(RuntimeError::Heap(HeapError::Fault { addr, len: width })))
                }
                (Err(err), snap) if snap.is_none_or(|s| p.records().recheck(s.slot, s.seq)) => {
                    Some(Err(err))
                }
                _ => None,
            };
            if let Some(result) = settled {
                self.pending.lockfree_writes += 1;
                return result;
            }
            self.pending = counted;
            std::hint::spin_loop();
        }
        self.pending.lockfree_fallbacks += 1;
        rt.lock(shard)?.write_field(base, expected, field, value)
    }

    /// [`ObjectRuntime::olr_memcpy`], routed by address. A copy of a
    /// live tracked source onto a live destination of the same class,
    /// which keeps its plan, runs without the shard mutex (see
    /// `ShardedRuntime::fast_copy`) and counts as `lockfree_copies`.
    /// Every other copy, and one that gives up on contention, counts as
    /// a `lockfree_fallbacks` and runs under the shard locks, drained:
    /// same-shard copies delegate under one lock; cross-shard copies
    /// stage the source fields on the source shard, then install the
    /// duplicate on the destination shard. Both locks are taken in
    /// shard-index order so concurrent copies in opposite directions
    /// cannot deadlock.
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
        if let Some(copied) = rt.fast_copy(dst, src, &mut self.staged, &mut self.pending) {
            return copied;
        }
        let len = site_class.size() as usize;
        let src_i = rt
            .shard_of(src)
            .ok_or(RuntimeError::Heap(HeapError::Fault { addr: src, len }))?;
        let dst_i = rt
            .shard_of(dst)
            .ok_or(RuntimeError::Heap(HeapError::Fault { addr: dst, len }))?;
        self.pending.lockfree_fallbacks += 1;
        if src_i == dst_i {
            return rt.lock_drained(src_i)?.olr_memcpy(dst, src, site_class);
        }
        // Index-ordered locking: every cross-shard copy acquires the
        // lower-numbered shard first.
        let (first, second) = (src_i.min(dst_i), src_i.max(dst_i));
        let first_guard = rt.lock_drained(first)?;
        let second_guard = rt.lock_drained(second)?;
        let (mut src_rt, mut dst_rt) = if src_i < dst_i {
            (first_guard, second_guard)
        } else {
            (second_guard, first_guard)
        };
        let (info, src_plan) = src_rt.copy_source(src, site_class)?;
        let staged = src_rt.stage_fields(src, &src_plan)?;
        dst_rt.install_copy(dst, info, &src_plan, &staged)
    }

    /// [`ObjectRuntime::check_traps`], routed by address and run without
    /// the shard mutex: the canaries of a live object's plan are swept
    /// through the shared arena (`scan_traps`) and the report stands
    /// once the slot's sequence rechecks unchanged; a torn sweep retries,
    /// the pending sheet restored. A freed object's block may still
    /// wait on its drain, so its sweep, like contention past the retry
    /// budget, runs under the shard's mutex, drained.
    ///
    /// # Errors
    ///
    /// As for the single-thread call.
    pub fn check_traps(&mut self, base: Addr) -> Result<Vec<TrapReport>, RuntimeError> {
        let rt = self.rt;
        let Some(i) = rt.shard_of(base) else {
            return Err(RuntimeError::UnknownObject(base));
        };
        let p = &rt.pubs[i];
        for _ in 0..FAST_RETRIES {
            let snap = match p.try_snapshot(base.0) {
                SnapshotOutcome::Snap(s) => s,
                SnapshotOutcome::Untracked => return Err(RuntimeError::UnknownObject(base)),
                SnapshotOutcome::Unstable => {
                    std::hint::spin_loop();
                    continue;
                }
            };
            let Some((snap, plan)) = rt.view(i, base, Some(snap)).tracked_plan() else {
                return Err(RuntimeError::UnknownObject(base));
            };
            if snap.state == PUB_STATE_FREED {
                break;
            }
            let counted = self.pending;
            let reports = scan_traps(plan, base, |a, w| p.read_uint(a.0, w), &mut self.pending);
            if p.records().recheck(snap.slot, snap.seq) {
                return Ok(reports);
            }
            self.pending = counted;
            std::hint::spin_loop();
        }
        rt.lock_drained(i)?.check_traps(base)
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
    /// neither an allocation nor a free), drain every shard this
    /// handle's lock-free frees were pushed onto, and flush all pending
    /// stats. Once every handle has torn down, every claim has been
    /// drained: `remote_drained == fast_frees`. This is the drop path,
    /// so it also runs during a panic unwind — counters are never lost
    /// and capsules are never leaked by a dying thread. The one
    /// exception is a *poisoned* shard: its capsules stay parked and its
    /// claims undrained (both need the degraded shard's runtime), which
    /// costs the shard some blocks but keeps teardown panic-free.
    pub fn teardown(&mut self) {
        let magazines = std::mem::take(&mut self.magazines);
        let parked: usize = magazines.iter().map(|(_, m)| m.caps.len()).sum();
        if parked > 0 {
            if let Ok(mut shard) = self.rt.lock_drained(self.home) {
                for (_, mag) in magazines {
                    for cap in &mag.caps {
                        shard.retire_reserved(cap.slot);
                    }
                }
                self.pending.magazine_returns += parked as u64;
            }
        }
        for i in 0..self.rt.shards.len() {
            let pushed = self.pushed >> (i % 64) & 1 == 1;
            if pushed && self.rt.remote[i].0.load(Ordering::Acquire) != 0 {
                let _ = self.rt.lock_drained(i);
            }
        }
        self.pushed = 0;
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
        self.rt.lock_ignore_poison(self.home).compile_time_plan(info)
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
    use polar_simheap::PUB_STATE_LIVE;

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
        // The copy onto the raw buffer ran under the locks, the copy back
        // onto the live source without them, counted on h0's sheet.
        h0.flush_stats();
        let stats = rt.stats();
        assert_eq!(stats.memcpys, 2);
        assert_eq!((stats.lockfree_copies, stats.lockfree_fallbacks), (1, 0));
        h1.flush_stats();
        assert_eq!(rt.stats().lockfree_fallbacks, 1);
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

    /// A shard arms a derived object with canaries that follow from the
    /// object's layout and the runtime's root seed alone. The shared
    /// registry stores one plan per structure, so if each shard keyed
    /// canaries by its own epoch key, a structure's canaries would be
    /// those of whichever shard interned it first, and a seed would not
    /// replay exactly with two threads.
    #[test]
    fn derived_canaries_do_not_depend_on_intern_order() {
        const OBJECTS: usize = 3000;
        let mut decl = ClassDecl::builder("Seven");
        for i in 0..7 {
            let kind = if i % 3 == 0 { FieldKind::I32 } else { FieldKind::I64 };
            decl = decl.field(format!("f{i}"), kind);
        }
        let seven = Arc::new(ClassInfo::from_decl(decl.build()));
        // Shard 0's objects with, per trap, the canary its registered
        // plan names and the one seeded in the block.
        let run = |shard_one_first: bool| -> Vec<(Addr, Vec<(u64, u64)>)> {
            let rt = sharded(2);
            let (mut h0, mut h1) = (rt.handle(0), rt.handle(1));
            assert_eq!((h0.home_shard(), h1.home_shard()), (0, 1));
            if shard_one_first {
                for _ in 0..OBJECTS {
                    h1.olr_malloc(&seven).unwrap();
                }
            }
            (0..OBJECTS)
                .map(|_| {
                    let obj = h0.olr_malloc(&seven).unwrap();
                    let plan = rt.object_meta(obj).unwrap().plan;
                    let traps = plan
                        .dummies()
                        .map(|d| {
                            let at = obj.offset(u64::from(d.offset));
                            let seeded = h0.heap_read_uint(at, canary_width(d.size)).unwrap();
                            (d.canary.expect("derived traps carry canaries"), seeded)
                        })
                        .collect();
                    (obj, traps)
                })
                .collect()
        };
        let (alone, after_shard_one) = (run(false), run(true));
        let mut differ = 0;
        for (i, (a, b)) in alone.iter().zip(&after_shard_one).enumerate() {
            assert_eq!(a.0, b.0, "shard 0's object {i} lands on the same block");
            assert!(!a.1.is_empty(), "object {i} is trapped");
            for &(canary, seeded) in a.1.iter().chain(&b.1) {
                assert_eq!(seeded, canary, "object {i} is seeded with its plan's canary");
            }
            differ += usize::from(a.1 != b.1);
        }
        assert_eq!(differ, 0, "{differ} of {OBJECTS} shard-0 objects changed canaries");
    }

    #[test]
    fn shards_draw_disjoint_placement_streams_that_replay() {
        use polar_simheap::PlacementPolicy;

        const SHARDS: usize = 4;
        let placed = || {
            let mut config = RuntimeConfig::default();
            config.heap.capacity = 64 << 20;
            config.heap.placement = PlacementPolicy::on(0);
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
            let Some(dummy) = meta.plan.dummies().find(|d| d.canary.is_some()) else {
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

        // Detections are classified without the lock too.
        h.olr_free(obj).unwrap();
        let before = h.stats();
        assert!(matches!(
            h.read_field(obj, info.hash(), 1).unwrap_err(),
            RuntimeError::UseAfterFree { .. }
        ));
        let after = h.stats();
        assert_eq!(after.uaf_detected, before.uaf_detected + 1);
        assert_eq!(after.lockfree_reads, before.lockfree_reads + 1);
        assert_eq!(after.lockfree_fallbacks, before.lockfree_fallbacks, "the freed read fell back");
    }

    /// A handle's field writes, detections included, take no shard
    /// lock single-threaded: each is one `lockfree_writes`, none falls
    /// back, and the stored values read back through both paths.
    #[test]
    fn handle_writes_take_no_shard_lock() {
        let rt = sharded(2);
        let (info, other) = (people(), record());
        let mut h = rt.handle(0);
        let obj = h.olr_malloc(&info).unwrap();
        let freed = h.olr_malloc(&info).unwrap();
        h.olr_free(freed).unwrap();
        let before = h.stats();
        for v in 0..10 {
            h.write_field(obj, info.hash(), 1 + v as usize % 2, v).unwrap();
        }
        let detected = [
            h.write_field(freed, info.hash(), 1, 5),
            h.write_field(obj, other.hash(), 1, 5),
            h.write_field(obj, info.hash(), 9, 5),
            h.write_field(obj.offset(8), info.hash(), 1, 5),
        ];
        assert!(matches!(detected[0], Err(RuntimeError::UseAfterFree { .. })));
        assert!(matches!(detected[1], Err(RuntimeError::ClassMismatch { .. })));
        assert!(matches!(detected[2], Err(RuntimeError::FieldOutOfBounds { .. })));
        assert!(matches!(detected[3], Err(RuntimeError::UnknownObject(_))));
        let after = h.stats();
        assert_eq!(after.lockfree_writes - before.lockfree_writes, 14, "{after:?}");
        assert_eq!(after.lockfree_fallbacks, 0, "{after:?}");
        assert_eq!(after.member_accesses - before.member_accesses, 14);
        assert_eq!(after.uaf_detected - before.uaf_detected, 1);
        assert_eq!(after.mismatch_detected - before.mismatch_detected, 1);
        assert_eq!(h.read_field(obj, info.hash(), 1).unwrap(), 8);
        assert_eq!(h.read_field(obj, info.hash(), 2).unwrap(), 9);
        let shard = rt.shard_of(obj).unwrap();
        assert_eq!(h.read_locked(shard, obj, info.hash(), 2, None, load_field).unwrap(), 9);
    }

    /// A handle's copies of a live object onto a live object of its
    /// class take no shard lock single-threaded, same-shard, cross-shard
    /// and in place: each is one `lockfree_copies` and none falls back.
    /// A copy from a freed source, onto a raw buffer or onto another
    /// class goes to the mutex, counted as a fallback.
    #[test]
    fn handle_copies_take_no_shard_lock() {
        let rt = sharded(2);
        let (info, other) = (people(), record());
        let (mut h0, mut h1) = (rt.handle(0), rt.handle(1));
        let src = h0.olr_malloc(&info).unwrap();
        let near = h0.olr_malloc(&info).unwrap();
        let far = h1.olr_malloc(&info).unwrap();
        assert_ne!(rt.shard_of(src), rt.shard_of(far));
        h0.write_field(src, info.hash(), 1, 41).unwrap();
        h0.write_field(src, info.hash(), 2, 182).unwrap();
        let before = h0.stats();
        for dst in [near, far, src, near] {
            h0.olr_memcpy(dst, src, &info).unwrap();
            assert_eq!(h0.read_field(dst, info.hash(), 1).unwrap(), 41);
            assert_eq!(h0.read_field(dst, info.hash(), 2).unwrap(), 182);
        }
        let after = h0.stats();
        assert_eq!(after.memcpys - before.memcpys, 4);
        assert_eq!(after.lockfree_copies - before.lockfree_copies, 4, "{after:?}");
        assert_eq!(after.lockfree_fallbacks, 0, "{after:?}");
        // The copy re-armed the destination: one more record, and its
        // canaries are intact.
        assert_eq!(rt.object_meta(near).unwrap().generation, 3);
        assert!(h0.check_traps(near).unwrap().is_empty());
        assert!(h0.check_traps(far).unwrap().is_empty());

        let raw = h0.malloc_raw(256).unwrap();
        let wide = h0.olr_malloc(&other).unwrap();
        let freed = h0.olr_malloc(&info).unwrap();
        h0.olr_free(freed).unwrap();
        h0.olr_memcpy(raw, src, &info).unwrap();
        h0.olr_memcpy(wide, src, &info).unwrap();
        assert!(matches!(
            h0.olr_memcpy(near, freed, &info),
            Err(RuntimeError::UseAfterFree { .. })
        ));
        let last = h0.stats();
        assert_eq!(last.lockfree_copies, after.lockfree_copies);
        assert_eq!(last.lockfree_fallbacks, 3, "{last:?}");
        assert_eq!(rt.object_meta(wide).unwrap().class, info.hash());
    }

    /// A copy onto an object freed lock-free falls back to the mutex,
    /// which drains the claim before the copy re-records the slot, as
    /// `ObjectRuntime` re-records a freed block: the slot is never on the
    /// remote-free stack twice, and the next free of the copy drains
    /// like any other.
    #[test]
    fn a_copy_onto_a_freed_object_drains_its_claim_first() {
        let rt = sharded(1);
        let info = people();
        let mut h = rt.handle(0);
        let (src, dst) = (h.olr_malloc(&info).unwrap(), h.olr_malloc(&info).unwrap());
        h.write_field(src, info.hash(), 1, 61).unwrap();
        h.olr_free(dst).unwrap();
        h.olr_memcpy(dst, src, &info).unwrap();
        assert_eq!(h.read_field(dst, info.hash(), 1).unwrap(), 61);
        h.olr_free(dst).unwrap();
        h.flush_stats();
        rt.quiesce();
        let stats = rt.stats();
        assert_eq!((stats.fast_frees, stats.remote_drained), (2, 2), "{stats:?}");
        assert_eq!((stats.lockfree_copies, stats.lockfree_fallbacks), (0, 1));
    }

    /// A free claimed while a locked copy re-records its object (here
    /// between the copy's drain and its install, which is where a racing
    /// free lands) stays pending: the re-recorded object reads live, a
    /// second free is refused a claim, so the slot is never on the
    /// remote-free stack twice, and the mutex's drain takes the first
    /// claim off the stack before the second free releases the block.
    #[test]
    fn a_claim_under_a_locked_copy_is_pushed_once() {
        let rt = sharded(1);
        let (people, record) = (people(), record());
        let mut h = rt.handle(0);
        let (src, dst) = (h.olr_malloc(&people).unwrap(), h.olr_malloc(&record).unwrap());
        drop(h);
        let before = rt.heap_footprint();
        let mut sink = RuntimeStats::default();
        {
            let mut shard = rt.lock_drained(0).unwrap();
            assert!(matches!(rt.fast_free(dst, &mut sink), Some(Ok(()))));
            let (info, plan) = shard.copy_source(src, &people).unwrap();
            let staged = shard.stage_fields(src, &plan).unwrap();
            shard.install_copy(dst, info, &plan, &staged).unwrap();
        }
        assert_eq!(rt.object_meta(dst).unwrap().state, ObjectState::Live);
        assert!(rt.fast_free(dst, &mut sink).is_none(), "a pending slot was claimed twice");
        rt.counters.add(&sink);
        rt.handle(1).olr_free(dst).unwrap();
        assert_eq!(rt.remote[0].0.load(Ordering::Acquire), 0, "the mutex's drain left a claim");
        assert_eq!(rt.object_meta(dst).unwrap().state, ObjectState::Freed);
        let stats = rt.stats();
        assert_eq!((stats.fast_frees, stats.remote_drained, stats.frees), (1, 1, 2), "{stats:?}");
        assert_eq!(rt.heap_footprint().heap_frees - before.heap_frees, 1);
    }

    /// A drain releases claimed blocks in the order they were freed, so
    /// the heap ends up as immediate frees would have left it: with no
    /// quarantine, the next allocation of the size class takes the block
    /// freed last, however many claims the drain found.
    #[test]
    fn drains_release_blocks_in_free_order() {
        let mut config = RuntimeConfig::default();
        config.heap.capacity = 64 << 20;
        config.heap.quarantine = 0;
        // Pooled plans size their blocks by the plan, so blocks of one
        // plan size share a size class.
        config.layout = crate::runtime::LayoutSource::Pooled;
        let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), config, 1);
        let info = record();
        let mut h = rt.handle(0);
        let objs: Vec<Addr> = (0..8).map(|_| h.olr_malloc(&info).unwrap()).collect();
        let size = rt.object_meta(objs[0]).unwrap().plan.size() as usize;
        let same: Vec<Addr> = objs
            .into_iter()
            .filter(|&o| rt.object_meta(o).unwrap().plan.size() as usize == size)
            .collect();
        assert!(same.len() >= 2, "one plan size in eight draws");
        for &obj in &same {
            h.olr_free(obj).unwrap();
        }
        // The raw allocation drains the claims first.
        assert_eq!(h.malloc_raw(size).unwrap(), *same.last().unwrap());
    }

    /// `stats()`, `object_meta`, `plan_size`, `check_traps` and a copy
    /// all return while another thread holds every shard mutex, and
    /// reading stats drains nothing: claims stay pending until
    /// `quiesce`.
    #[test]
    fn inspection_and_copies_take_no_shard_lock() {
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        use std::sync::mpsc::channel;
        let rt = Arc::new(sharded(2));
        let info = people();
        let mut h = rt.handle(0);
        let objs: Vec<Addr> = (0..6).map(|_| h.olr_malloc(&info).unwrap()).collect();
        for &obj in &objs[3..] {
            h.olr_free(obj).unwrap();
        }
        h.flush_stats();
        let released = Arc::new(AtomicBool::new(false));
        let (locked_tx, locked_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let holder = {
            let (rt, released) = (Arc::clone(&rt), Arc::clone(&released));
            std::thread::spawn(move || {
                let guards: Vec<_> = rt.shards.iter().map(|m| m.lock().unwrap()).collect();
                locked_tx.send(()).unwrap();
                // Bounded, so a call that waits for the mutex fails the
                // test instead of hanging it.
                let _ = release_rx.recv_timeout(std::time::Duration::from_secs(20));
                released.store(true, SeqCst);
                drop(guards);
            })
        };
        locked_rx.recv().unwrap();
        let stats = rt.stats();
        assert_eq!((stats.fast_frees, stats.remote_drained), (3, 0), "{stats:?}");
        assert_eq!(rt.stats().remote_drained, 0, "reading stats must not drain");
        let meta = rt.object_meta(objs[0]).unwrap();
        assert_eq!(h.plan_size(objs[0]), Some(meta.plan.size()));
        assert_eq!(rt.object_meta(objs[3]).unwrap().state, ObjectState::Freed);
        assert!(h.check_traps(objs[0]).unwrap().is_empty());
        h.olr_memcpy(objs[1], objs[0], &info).unwrap();
        assert!(!released.load(SeqCst), "an inspection or a copy waited for a shard mutex");
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        rt.quiesce();
        assert_eq!(rt.stats().remote_drained, 3);
        drop(h);
        let stats = rt.stats();
        assert_eq!(stats.remote_drained, stats.fast_frees);
        // Three free-path sweeps and the explicit one.
        assert_eq!((stats.memcpys, stats.lockfree_copies, stats.trap_scans), (1, 1, 4));
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
        drop(h); // flushes the setup writes' counts
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
        let writes = (OBJECTS * info.field_count() + WRITER_OPS) as u64;
        assert_eq!(
            stats.lockfree_reads + stats.lockfree_writes + stats.lockfree_fallbacks,
            attempts + writes,
            "every read and write must be counted exactly once"
        );
        assert!(
            stats.lockfree_reads > 0,
            "the optimistic path must serve reads under write churn"
        );
        assert_eq!(stats.total_detections(), 0);
    }

    /// Torture phase 2: no false detection without the lock. On one
    /// shard a writer churns field writes, in-place rerandomization and
    /// malloc/free with slot reuse, and frees a doomed set one object at
    /// a time, raising each object's flag after its free. Readers must
    /// never see an error on the fixed live set, must see exactly
    /// `UseAfterFree` on a doomed object once its flag is up, and may see
    /// only classified outcomes on the churned set, whose addresses the
    /// writer frees and reuses. Raw snapshots must stay self-consistent.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-mode torture: cargo test --release")]
    fn torture_lock_free_detections_are_never_false() {
        use std::sync::atomic::{
            AtomicBool,
            Ordering::{Acquire, Release},
        };
        const WRITER_OPS: usize = 8_000;
        const SET: usize = 16;
        let rt = sharded(1);
        let (info, other) = (people(), record());
        // Twenty 64-bit fields: a size class no churned allocation uses,
        // so a doomed block is never reused.
        let mut decl = ClassDecl::builder("Doomed");
        for i in 0..20 {
            decl = decl.field(format!("f{i}"), FieldKind::I64);
        }
        let wide = Arc::new(ClassInfo::from_decl(decl.build()));
        let mut h = rt.handle(0);
        let live: Vec<Addr> = (0..SET).map(|_| h.olr_malloc(&other).unwrap()).collect();
        let doomed: Vec<Addr> = (0..SET).map(|_| h.olr_malloc(&wide).unwrap()).collect();
        let churned: Vec<Addr> = (0..SET).map(|_| h.olr_malloc(&info).unwrap()).collect();
        drop(h);
        let flags: Vec<AtomicBool> = doomed.iter().map(|_| AtomicBool::new(false)).collect();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (rt, info, other, wide) = (&rt, &info, &other, &wide);
            let (live, doomed, churned, flags, stop) = (&live, &doomed, &churned, &flags, &stop);
            scope.spawn(move || {
                let mut h = rt.handle(1);
                let mut driver = SplitMix64::new(0xC43F);
                let mut pool = churned.clone();
                for op in 0..WRITER_OPS {
                    if op % (WRITER_OPS / SET) == 0 {
                        let i = op / (WRITER_OPS / SET);
                        h.olr_free(doomed[i]).unwrap();
                        flags[i].store(true, Release);
                    }
                    let obj = live[driver.random_range(0..SET)];
                    match driver.random_range(0..5u32) {
                        0 => {
                            let class =
                                if driver.random_range(0..2u32) == 0 { info } else { other };
                            pool.push(h.olr_malloc(class).unwrap());
                        }
                        1 if pool.len() > 4 => {
                            h.olr_free(pool.swap_remove(driver.random_range(0..pool.len())))
                                .unwrap();
                        }
                        2 => {
                            let x = driver.next_u64() & 0xFFFF_FFFF;
                            let field = driver.random_range(0..2usize);
                            h.write_field(obj, other.hash(), field, (x << 32) | x).unwrap();
                        }
                        3 => h.olr_memcpy(obj, obj, other).unwrap(),
                        _ => {
                            let obj = pool[driver.random_range(0..pool.len())];
                            if rt.object_meta(obj).is_some_and(|m| m.class == info.hash()) {
                                h.olr_memcpy(obj, obj, info).unwrap();
                            }
                        }
                    }
                }
                stop.store(true, Release);
            });
            scope.spawn(move || {
                let mut h = rt.handle(2);
                let mut driver = SplitMix64::new(0x5EE5);
                // A floor of probes: on one core the writer can finish
                // before this thread is first scheduled.
                let mut probes = 0u64;
                while !stop.load(Acquire) || probes < 1_000 {
                    probes += 1;
                    let i = driver.random_range(0..SET);
                    let v = h.read_field(live[i], other.hash(), i % 2).unwrap();
                    assert_eq!(v >> 32, v & 0xFFFF_FFFF, "torn read of live object {i}");
                    h.olr_getptr(live[i], other.hash(), 2).unwrap();
                    let was_freed = flags[i].load(Acquire);
                    match h.read_field(doomed[i], wide.hash(), 1) {
                        Err(RuntimeError::UseAfterFree { .. }) => {}
                        Ok(_) if !was_freed => {}
                        got => panic!("doomed object {i} (freed: {was_freed}) read as {got:?}"),
                    }
                    let obj = churned[i];
                    match h.read_field(obj, info.hash(), 1) {
                        Ok(_)
                        | Err(
                            RuntimeError::UseAfterFree { .. }
                            | RuntimeError::UnknownObject(_)
                            | RuntimeError::ClassMismatch { .. }
                            | RuntimeError::Heap(_),
                        ) => {}
                        Err(other) => panic!("unclassified churn outcome: {other}"),
                    }
                    // A stable live, generation-current snapshot names a
                    // registered plan whose hash matches.
                    for obj in [live[i], obj] {
                        if let Some(SnapshotOutcome::Snap(s)) = rt.publish_probe(obj) {
                            if s.state == PUB_STATE_LIVE && s.meta_gen == s.heap_gen {
                                let id = s.plan_id.expect("a live record names its plan");
                                let plan = rt.registry_plan(id).expect("recorded ids resolve");
                                assert_eq!(plan.plan_hash().0, s.plan_hash, "id and hash disagree");
                            }
                        }
                    }
                }
            });
        });
        let stats = rt.stats();
        assert!(stats.uaf_detected > 0 && stats.lockfree_reads > 0, "{stats:?}");
        assert_eq!(stats.double_free_detected + stats.traps_triggered, 0, "{stats:?}");
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
        let raw = h.malloc_raw(64).unwrap();
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
        // (claim + remote push, no mutex), detections included...
        h.olr_free(obj).unwrap();
        assert!(matches!(h.olr_free(obj).unwrap_err(), RuntimeError::DoubleFree(_)));
        // ...while a free that needs the heap (here: an untracked
        // buffer) falls back to the mutex and reports the degradation.
        assert!(matches!(
            h.olr_free(raw).unwrap_err(),
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
        // ...and the lock-free read and write paths never touch the
        // mutex at all.
        h.write_field(keep, info.hash(), 1, 78).unwrap();
        assert_eq!(h.read_field(keep, info.hash(), 1).unwrap(), 78);
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
        // Each table once: every shard's own tables, every shard's unit
        // index, and the one registry the shards and handles share.
        let shards: usize =
            (0..4).map(|i| rt.lock_ignore_poison(i).shard_metadata_bytes()).sum();
        let units: usize = rt.pubs.iter().map(|p| p.metadata_bytes()).sum();
        assert!(rt.registry.metadata_bytes() > 0 && units > 0);
        assert_eq!(rt.estimated_metadata_bytes(), shards + units + rt.registry.metadata_bytes());
        for h in &mut handles {
            h.flush_stats();
        }
        assert_eq!(rt.stats().allocations, 40);
    }

    #[test]
    fn a_remote_free_of_a_raw_released_block_strands_the_record() {
        // A program frees a live object's block raw, then frees the
        // dangling pointer through the lock-free path: the claim
        // succeeds, but the drain finds nothing to release. The locked
        // paths keep seeing the object live, and so does the lock-free
        // classifier.
        let rt = sharded(1);
        let info = people();
        let mut h = rt.handle(0);
        let obj = h.olr_malloc(&info).unwrap();
        h.heap_free(obj).unwrap();
        h.olr_free(obj).unwrap();
        rt.quiesce();
        let meta = rt.object_meta(obj).expect("still tracked");
        assert_eq!(meta.state, ObjectState::Live);
        match rt.publish_probe(obj) {
            Some(SnapshotOutcome::Snap(s)) => {
                assert_eq!(s.state, polar_simheap::PUB_STATE_STRANDED);
            }
            other => panic!("expected a snapshot, got {other:?}"),
        }
        let before = h.stats();
        h.olr_getptr(obj, info.hash(), 1).unwrap();
        let after = h.stats();
        assert_eq!(after.lockfree_fallbacks, before.lockfree_fallbacks);
        assert_eq!(after.lockfree_reads, before.lockfree_reads + 1);
        // Freeing it again reaches the heap, which reports the raw free.
        assert!(matches!(h.olr_free(obj), Err(RuntimeError::Heap(HeapError::DoubleFree(_)))));
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
        rt.quiesce();
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

    /// Handles re-created with the same `(seed, thread)` draw the same
    /// plans, and the shared registry hands back the ids it already
    /// gave out for them: a handle per task leaves the registry flat.
    #[test]
    fn recreated_handles_leave_the_registry_flat() {
        let mut config = RuntimeConfig::default();
        config.heap.capacity = 64 << 20;
        config.layout = crate::runtime::LayoutSource::Pooled;
        let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), config, 1);
        let info = people();
        let mut lens = Vec::new();
        for _ in 0..4 {
            let mut h = rt.handle(0);
            for _ in 0..64 {
                let obj = h.olr_malloc(&info).unwrap();
                h.olr_free(obj).unwrap();
            }
            drop(h);
            lens.push(rt.registry.len());
        }
        assert!(lens[0] > 1, "the handle drew several plans: {lens:?}");
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "registry grew across handles: {lens:?}");
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
            // re-armed (the claim itself marks the record freed, drained
            // or not).
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

    /// A live object of `class` whose fields `a` and `b` satisfy
    /// `fits(plan offset of a, plan offset of b)`, drawn by allocating
    /// until one does.
    fn object_where(
        h: &mut ShardHandle<'_>,
        class: &Arc<ClassInfo>,
        (a, b): (usize, usize),
        fits: impl Fn(u32, u32) -> bool,
    ) -> Addr {
        for _ in 0..4096 {
            let obj = h.olr_malloc(class).unwrap();
            let plan = h.runtime().object_meta(obj).unwrap().plan;
            if fits(plan.offset(a), plan.offset(b)) {
                return obj;
            }
        }
        panic!("no plan of {} fits", class.name());
    }

    /// Two handles hammer two `I32` fields laid out in one arena word,
    /// each storing an increasing counter into its own field and reading
    /// it back, and watching the other's: a lost update reads back an
    /// older value of one's own field, a torn read sees the other's go
    /// backwards or past its end.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-mode torture: cargo test --release")]
    fn torture_two_fields_in_one_word_lose_no_update() {
        const ROUNDS: u64 = 100_000;
        let rt = sharded(1);
        let pair = Arc::new(ClassInfo::from_decl(
            ClassDecl::builder("Pair")
                .field("a", FieldKind::I32)
                .field("b", FieldKind::I32)
                .field("c", FieldKind::I64)
                .build(),
        ));
        let mut h = rt.handle(0);
        let obj = object_where(&mut h, &pair, (0, 1), |a, b| a / 8 == b / 8);
        drop(h);
        std::thread::scope(|scope| {
            for (t, mine) in [(1u64, 0usize), (2, 1)] {
                let (rt, pair) = (&rt, &pair);
                scope.spawn(move || {
                    let mut h = rt.handle(t);
                    let mut seen = 0;
                    for v in 1..=ROUNDS {
                        h.write_field(obj, pair.hash(), mine, v).unwrap();
                        assert_eq!(h.read_field(obj, pair.hash(), mine).unwrap(), v, "lost");
                        let theirs = h.read_field(obj, pair.hash(), 1 - mine).unwrap();
                        assert!(theirs >= seen && theirs <= ROUNDS, "torn: {theirs} after {seen}");
                        seen = theirs;
                    }
                });
            }
        });
        let mut h = rt.handle(0);
        assert_eq!(h.read_field(obj, pair.hash(), 0).unwrap(), ROUNDS);
        assert_eq!(h.read_field(obj, pair.hash(), 1).unwrap(), ROUNDS);
        h.flush_stats();
        let stats = rt.stats();
        let accesses = stats.lockfree_reads + stats.lockfree_writes + stats.lockfree_fallbacks;
        assert_eq!(accesses, 6 * ROUNDS + 2, "{stats:?}");
    }

    /// One handle stores 8-byte values into a `Bytes(16)` field at an
    /// unaligned offset, so every store straddles two arena words;
    /// another reads the field through the mutex-served fallback and
    /// copies the object with `olr_memcpy`. Every stored value has eight
    /// equal bytes, so a half-done store shows as mixed bytes.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-mode torture: cargo test --release")]
    fn torture_straddling_stores_are_never_seen_half_done() {
        const ROUNDS: usize = 20_000;
        let rt = sharded(1);
        let blob = Arc::new(ClassInfo::from_decl(
            ClassDecl::builder("Blob")
                .field("tag", FieldKind::I8)
                .field("bytes", FieldKind::Bytes(16))
                .field("len", FieldKind::I32)
                .build(),
        ));
        let hash = blob.hash();
        let whole = |v: u64| v.to_le_bytes().iter().all(|&b| b == v as u8);
        let mut h = rt.handle(0);
        let obj = object_where(&mut h, &blob, (1, 1), |at, _| at % 8 != 0);
        let copy = h.olr_malloc(&blob).unwrap();
        drop(h);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (rt, blob, stop) = (&rt, &blob, &stop);
            scope.spawn(move || {
                let mut h = rt.handle(1);
                for round in 0..ROUNDS {
                    let b = 1 + (round % 255) as u64;
                    h.write_field(obj, hash, 1, b * 0x0101_0101_0101_0101).unwrap();
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            scope.spawn(move || {
                let mut h = rt.handle(2);
                let shard = rt.shard_of(obj).unwrap();
                let mut checks = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) || checks < 1_000 {
                    let v = h.read_locked(shard, obj, hash, 1, None, load_field).unwrap();
                    assert!(whole(v), "the locked read saw a half-done store: {v:#x}");
                    h.olr_memcpy(copy, obj, blob).unwrap();
                    let v = h.read_field(copy, hash, 1).unwrap();
                    assert!(whole(v), "the copy staged a half-done store: {v:#x}");
                    checks += 1;
                }
            });
        });
    }

    /// Writes through stale pointers race frees and reuse of their
    /// slots: an owner keeps a rolling window of live objects, checking
    /// each one's canaries before its (trap-checked) free, while writers
    /// store into addresses it handed out at any time. Each write must
    /// land in the object live at its snapshot or report the free; a
    /// write classified against a freed object must never reach the
    /// successor's trap slots. Four threads on a two-core machine get
    /// writers descheduled between classification and store, which is
    /// when the owner recycles their slot.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-mode torture: cargo test --release")]
    fn torture_writes_racing_frees_and_reuse_spare_successor_canaries() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
        const OWNER_OPS: usize = 300_000;
        const WRITERS: u64 = 3;
        const WINDOW: usize = 48;
        let rt = sharded(1);
        let info = record();
        let seen: Vec<AtomicU64> = (0..WINDOW).map(|_| AtomicU64::new(0)).collect();
        /// Stops the writers when the owner ends, a failed check included.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, std::sync::atomic::Ordering::Release);
            }
        }
        let stop = AtomicBool::new(false);
        let landed: u64 = std::thread::scope(|scope| {
            let (rt, info, seen, stop) = (&rt, &info, &seen, &stop);
            scope.spawn(move || {
                let _stop = StopOnDrop(stop);
                let mut h = rt.handle(0);
                let mut live = std::collections::VecDeque::new();
                for op in 0..OWNER_OPS {
                    let obj = h.olr_malloc(info).unwrap();
                    seen[op % WINDOW].store(obj.0, Relaxed);
                    live.push_back(obj);
                    if live.len() > WINDOW / 2 {
                        let old = live.pop_front().unwrap();
                        assert!(h.check_traps(old).unwrap().is_empty(), "a canary was hit");
                        h.olr_free(old).unwrap();
                    }
                }
                for obj in live {
                    assert!(h.check_traps(obj).unwrap().is_empty(), "a canary was hit");
                    h.olr_free(obj).unwrap();
                }
            });
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    scope.spawn(move || {
                        let mut h = rt.handle(1 + w);
                        let mut driver = SplitMix64::new(0x57A1E + w);
                        let mut landed = 0u64;
                        while !stop.load(std::sync::atomic::Ordering::Acquire) {
                            let addr = Addr(seen[driver.random_range(0..WINDOW)].load(Relaxed));
                            if addr.is_null() {
                                continue;
                            }
                            let field = driver.random_range(0..info.field_count());
                            match h.write_field(addr, info.hash(), field, driver.next_u64()) {
                                Ok(()) => landed += 1,
                                Err(RuntimeError::UseAfterFree { .. }) => {}
                                Err(other) => panic!("a racing write reported {other}"),
                            }
                        }
                        landed
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let stats = rt.stats();
        assert_eq!(stats.traps_triggered + stats.double_free_detected, 0, "{stats:?}");
        assert_eq!(stats.frees, OWNER_OPS as u64);
        assert!(landed > 0 && stats.uaf_detected > 0, "{landed} writes landed: {stats:?}");
    }

    /// One handle stores 8-byte values into a `Bytes(16)` field of the
    /// source at an unaligned offset, so every store straddles two arena
    /// words; another copies the source onto a live object of its class
    /// and reads the copy. Every stored value has eight equal bytes, so
    /// a copy that staged a half-done store shows as mixed bytes.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-mode torture: cargo test --release")]
    fn torture_copies_never_stage_a_half_done_store() {
        const ROUNDS: usize = 50_000;
        let rt = sharded(1);
        let blob = Arc::new(ClassInfo::from_decl(
            ClassDecl::builder("Blob")
                .field("tag", FieldKind::I8)
                .field("bytes", FieldKind::Bytes(16))
                .field("len", FieldKind::I32)
                .build(),
        ));
        let hash = blob.hash();
        let whole = |v: u64| v.to_le_bytes().iter().all(|&b| b == v as u8);
        let mut h = rt.handle(0);
        let src = object_where(&mut h, &blob, (1, 1), |at, _| at % 8 != 0);
        let copy = h.olr_malloc(&blob).unwrap();
        drop(h);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let copies = std::thread::scope(|scope| {
            let (rt, blob, stop) = (&rt, &blob, &stop);
            scope.spawn(move || {
                let mut h = rt.handle(1);
                for round in 0..ROUNDS {
                    let b = 1 + (round % 255) as u64;
                    h.write_field(src, hash, 1, b * 0x0101_0101_0101_0101).unwrap();
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            scope
                .spawn(move || {
                    let mut h = rt.handle(2);
                    let mut copies = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Acquire) || copies < 1_000 {
                        h.olr_memcpy(copy, src, blob).unwrap();
                        let v = h.read_field(copy, hash, 1).unwrap();
                        assert!(whole(v), "the copy staged a half-done store: {v:#x}");
                        copies += 1;
                    }
                    copies
                })
                .join()
                .unwrap()
        });
        let stats = rt.stats();
        assert_eq!(stats.memcpys, copies);
        // Every write, copy and read of the copy is counted exactly once.
        let accesses = stats.lockfree_reads
            + stats.lockfree_writes
            + stats.lockfree_copies
            + stats.lockfree_fallbacks;
        assert_eq!(accesses, ROUNDS as u64 + 2 * copies, "{stats:?}");
        assert!(stats.lockfree_copies > 0, "{stats:?}");
    }

    /// Copies of a stable source race frees and reuse of their
    /// destinations: an owner keeps a rolling window of live objects,
    /// sweeping each one's canaries before its free, while copiers copy
    /// onto addresses it handed out at any time. A copy lands in the
    /// object live at its snapshot (its plan's canaries re-seeded) or
    /// falls back to the mutex; it must never leave a successor's
    /// canaries corrupted.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-mode torture: cargo test --release")]
    fn torture_copies_racing_frees_and_reuse_spare_successor_canaries() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
        const OWNER_OPS: usize = 200_000;
        const COPIERS: u64 = 3;
        const WINDOW: usize = 48;
        let rt = sharded(1);
        let info = record();
        let src = {
            let mut h = rt.handle(COPIERS + 1);
            let src = h.olr_malloc(&info).unwrap();
            for field in 0..info.field_count() {
                h.write_field(src, info.hash(), field, 0x5A5A + field as u64).unwrap();
            }
            src
        };
        let seen: Vec<AtomicU64> = (0..WINDOW).map(|_| AtomicU64::new(0)).collect();
        /// Stops the copiers when the owner ends, a failed check included.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, std::sync::atomic::Ordering::Release);
            }
        }
        let stop = AtomicBool::new(false);
        let copies: u64 = std::thread::scope(|scope| {
            let (rt, info, seen, stop) = (&rt, &info, &seen, &stop);
            scope.spawn(move || {
                let _stop = StopOnDrop(stop);
                let mut h = rt.handle(0);
                let mut live = std::collections::VecDeque::new();
                for op in 0..OWNER_OPS {
                    let obj = h.olr_malloc(info).unwrap();
                    seen[op % WINDOW].store(obj.0, Relaxed);
                    live.push_back(obj);
                    if live.len() > WINDOW / 2 {
                        let old = live.pop_front().unwrap();
                        assert!(h.check_traps(old).unwrap().is_empty(), "a canary was hit");
                        h.olr_free(old).unwrap();
                    }
                }
                for obj in live {
                    assert!(h.check_traps(obj).unwrap().is_empty(), "a canary was hit");
                    h.olr_free(obj).unwrap();
                }
            });
            let copiers: Vec<_> = (0..COPIERS)
                .map(|c| {
                    scope.spawn(move || {
                        let mut h = rt.handle(1 + c);
                        let mut driver = SplitMix64::new(0xC0B1 + c);
                        let mut copies = 0u64;
                        while !stop.load(std::sync::atomic::Ordering::Acquire) {
                            let addr = Addr(seen[driver.random_range(0..WINDOW)].load(Relaxed));
                            if addr.is_null() {
                                continue;
                            }
                            if let Err(err) = h.olr_memcpy(addr, src, info) {
                                panic!("a racing copy reported {err}");
                            }
                            copies += 1;
                        }
                        copies
                    })
                })
                .collect();
            copiers.into_iter().map(|c| c.join().unwrap()).sum()
        });
        let stats = rt.stats();
        assert_eq!(stats.traps_triggered + stats.double_free_detected, 0, "{stats:?}");
        assert_eq!(stats.memcpys, copies);
        assert!(stats.lockfree_copies > 0 && copies > 0, "{stats:?}");
        assert_eq!(stats.remote_drained, stats.fast_frees);
    }

    /// Three handles free one owner's objects concurrently while the
    /// owner allocates nothing, so only the pushes past [`DRAIN_AT`]
    /// drain the owner's stack. Every claimed slot is released exactly
    /// once: the heap frees one block per object (and per returned
    /// capsule), and `remote_drained` ends equal to the frees. Before
    /// the freeing handles tear down, at most a few thresholds' worth of
    /// claims is still pending.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-mode torture: cargo test --release")]
    fn torture_pushes_past_the_threshold_drain_each_claim_once() {
        const OBJECTS: usize = 16_384;
        const FREERS: usize = 3;
        let rt = sharded(1);
        let info = people();
        let mut h = rt.handle(0);
        let objs: Vec<Addr> = (0..OBJECTS).map(|_| h.olr_malloc(&info).unwrap()).collect();
        drop(h);
        let before = rt.heap_footprint();
        let barrier = std::sync::Barrier::new(FREERS + 1);
        let pending = std::thread::scope(|scope| {
            for f in 0..FREERS {
                let (rt, objs, barrier) = (&rt, &objs, &barrier);
                scope.spawn(move || {
                    let mut h = rt.handle(1 + f as u64);
                    for &obj in objs.iter().skip(f).step_by(FREERS) {
                        h.olr_free(obj).unwrap();
                    }
                    barrier.wait(); // every push is done
                    barrier.wait(); // the pending claims were counted
                });
            }
            barrier.wait();
            let pending = OBJECTS as u64 - rt.stats().remote_drained;
            barrier.wait();
            pending
        });
        assert!(pending <= 2 * DRAIN_AT, "{pending} claims left pending by the pushes");
        let stats = rt.stats();
        assert_eq!((stats.fast_frees, stats.remote_drained), (OBJECTS as u64, OBJECTS as u64));
        let after = rt.heap_footprint();
        assert_eq!(after.heap_frees - before.heap_frees, OBJECTS as u64);
        assert_eq!(after.bytes_live, 0, "{after:?}");
    }

    /// Locked copies race lock-free frees of their destination: copiers
    /// copy a `People` onto the `Record` objects and raw buffers an owner
    /// keeps allocating (a class change or a raw destination, so the
    /// copy takes the shard mutex) and then free them, while a freer
    /// frees the same blocks. A claim that lands
    /// while a locked copy re-records its object stays pending, so no
    /// slot is pushed twice: a doubly pushed slot links the remote-free
    /// stack into a cycle, and the next drain never returns. Every drain
    /// ends, and once every handle has dropped each claim was drained
    /// once.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-mode torture: cargo test --release")]
    fn torture_locked_copies_racing_frees_push_each_claim_once() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
        use std::sync::mpsc::RecvTimeoutError;
        const OWNER_OPS: usize = 200_000;
        const WINDOW: usize = 8;
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let rt = sharded(1);
            let (people, record) = (people(), record());
            let src = rt.handle(9).olr_malloc(&people).unwrap();
            let seen: Vec<AtomicU64> = (0..WINDOW).map(|_| AtomicU64::new(0)).collect();
            let stop = AtomicBool::new(false);
            let copies: u64 = std::thread::scope(|scope| {
                let (rt, people, record, seen, stop) = (&rt, &people, &record, &seen, &stop);
                scope.spawn(move || {
                    let mut h = rt.handle(0);
                    for op in 0..OWNER_OPS {
                        let block = match op % 4 {
                            0 => h.malloc_raw(record.size() as usize),
                            _ => h.olr_malloc(record),
                        };
                        seen[op % WINDOW].store(block.unwrap().0, Relaxed);
                    }
                    stop.store(true, std::sync::atomic::Ordering::Release);
                });
                scope.spawn(move || {
                    let mut h = rt.handle(1);
                    let mut driver = SplitMix64::new(0xF4EE);
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        let addr = Addr(seen[driver.random_range(0..WINDOW)].load(Relaxed));
                        if !addr.is_null() {
                            let _ = h.olr_free(addr);
                        }
                    }
                });
                let copiers: Vec<_> = (0..2)
                    .map(|c| {
                        scope.spawn(move || {
                            let mut h = rt.handle(2 + c);
                            let mut driver = SplitMix64::new(0xC09E + c);
                            let mut copies = 0u64;
                            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                                let addr = Addr(seen[driver.random_range(0..WINDOW)].load(Relaxed));
                                if addr.is_null() {
                                    continue;
                                }
                                h.olr_memcpy(addr, src, people).unwrap();
                                copies += 1;
                                let _ = h.olr_free(addr);
                            }
                            copies
                        })
                    })
                    .collect();
                copiers.into_iter().map(|c| c.join().unwrap()).sum()
            });
            rt.quiesce();
            // The receiver is gone only if the watchdog already fired.
            let _ = tx.send((copies, rt.stats()));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(120)) {
            Ok((copies, stats)) => {
                assert_eq!(stats.memcpys, copies);
                assert!(stats.fast_frees > 0 && stats.lockfree_fallbacks > 0, "{stats:?}");
                assert_eq!(stats.remote_drained, stats.fast_frees, "{stats:?}");
                assert_eq!(stats.traps_triggered, 0, "{stats:?}");
            }
            Err(RecvTimeoutError::Timeout) => panic!("a drain never returned"),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().unwrap_err())
            }
        }
    }
}
