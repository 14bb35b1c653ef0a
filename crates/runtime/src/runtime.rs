//! The object runtime: shadow-index metadata, offset cache, and the four
//! instrumented entry points.

use std::collections::HashMap;
use std::sync::Arc;

use polar_classinfo::{ClassHash, ClassInfo};
use polar_layout::{
    code_rank, code_space, stateless_bound, stateless_plan_from_code, EpochKey, FieldAccess,
    LayoutEngine, LayoutPlan,
    PermBlock, PermCode, PlanHash, PlanInterner, PlanPools, PlanRegistry, PoolPolicy,
    RandomizationPolicy, RoundKeys, StatelessPolicy, StaticOlrTable,
};
use polar_rng::{BufferedRng, Rng, SeedableRng, SplitMix64};
use polar_simheap::{Addr, BlockState, HeapConfig, SimHeap, Slab};

use crate::error::{RuntimeError, TrapReport};
use crate::stats::RuntimeStats;

/// Which layout discipline the runtime applies at allocation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RandomizeMode {
    /// No randomization: every object gets its natural compiler layout.
    /// Models the unhardened baseline binary.
    Native,
    /// Compile-time OLR (`randstruct`/DSLR/RFOR): one randomized layout
    /// per class, fixed by the binary seed, identical across instances
    /// and executions.
    StaticOlr {
        /// Layout policy for the per-class plans.
        policy: RandomizationPolicy,
        /// The "binary" identity; reverse engineering the binary reveals
        /// it, which is exactly the paper's hidden-binary problem.
        binary_seed: u64,
    },
    /// POLaR: an independent randomized layout for every allocation.
    PerAllocation {
        /// Layout policy for the per-allocation plans.
        policy: RandomizationPolicy,
    },
}

impl RandomizeMode {
    /// POLaR with the paper's default policy.
    pub fn per_allocation() -> Self {
        RandomizeMode::PerAllocation { policy: RandomizationPolicy::default() }
    }

    /// Compile-time OLR with permute-only policy (the DSLR analogue).
    pub fn static_olr(binary_seed: u64) -> Self {
        RandomizeMode::StaticOlr { policy: RandomizationPolicy::permute_only(), binary_seed }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            RandomizeMode::Native => "native",
            RandomizeMode::StaticOlr { .. } => "static-olr",
            RandomizeMode::PerAllocation { .. } => "polar",
        }
    }
}

/// Runtime configuration knobs (detections and optimizations; each maps
/// to a feature discussed in Sections IV–VI of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Simulated-heap configuration.
    pub heap: HeapConfig,
    /// Seed for the runtime's plan RNG (the process's secret entropy).
    pub seed: u64,
    /// Detect accesses whose expected class hash mismatches the metadata.
    pub detect_class_mismatch: bool,
    /// Detect member accesses to freed objects.
    pub detect_use_after_free: bool,
    /// Verify booby-trap canaries when an object is freed.
    pub check_traps_on_free: bool,
    /// Enable the hashtable offset-lookup cache (Section V-B).
    pub offset_cache: bool,
    /// Re-randomize object copies made through `olr_memcpy` (Section
    /// IV-A2; "could be disabled … but the current implementation
    /// considers this feature enabled by default").
    pub memcpy_rerandomize: bool,
    /// Enforce ASan-style redzones: every raw load/store/copy must stay
    /// inside its heap block. Models the redzone-based defenses of the
    /// paper's Section VII-C — which stop *inter*-object overflows but,
    /// unlike POLaR, cannot see *in-object* ones.
    pub redzone_checks: bool,
    /// Per-class plan-pool policy for the allocation fast path (§V-B):
    /// pregenerated, interned plans drawn with one buffered-RNG index
    /// per allocation. [`PoolPolicy::disabled`] restores one fresh
    /// generation per allocation. Only affects `PerAllocation` mode.
    pub pool: PoolPolicy,
    /// The stateless small-class policy: derive permutations for small
    /// classes from (block generation, slot id, epoch key) via a keyed
    /// Feistel network, SPAM-style, instead of storing engine-generated
    /// plans. **On by default** with virtual booby traps
    /// ([`StatelessPolicy::on`]): the derived plans now interleave
    /// identity-keyed trap slots, so small classes keep trap coverage
    /// while paying ~zero per-object metadata. Set
    /// [`StatelessPolicy::off`] to route every class through the pooled
    /// stateful path, or [`StatelessPolicy::permute_only`] for the
    /// original trap-free ablation. Only affects `PerAllocation` mode.
    pub stateless: StatelessPolicy,
    /// Check raw probe reads (`probe_read_uint`) against the target
    /// object's booby-trap slots: a read overlapping a canary-carrying
    /// dummy — stored (stateful plans) or derived (stateless virtual
    /// traps) — trips [`RuntimeError::TrapTriggered`] instead of leaking
    /// bytes. Models trap slots being mapped-unreadable in a real
    /// deployment (Section IV-A3's traps, extended to reads).
    pub detect_probe_traps: bool,
    /// Magazine policy for the sharded runtime's per-handle allocation
    /// front-end: each [`ShardHandle`](crate::ShardHandle) keeps a
    /// per-size-class magazine of pre-reserved allocation capsules,
    /// refilled `batch` at a time under one shard-lock acquisition, so
    /// the common-case `olr_malloc` is a lock-free pop. Fast frees on
    /// the same runtime push onto a per-shard remote-free stack drained
    /// by the owning shard at its next lock acquisition.
    /// [`MagazinePolicy::disabled`] restores one lock round-trip per
    /// allocation and per free. Plain `ObjectRuntime`s ignore this.
    pub magazine: MagazinePolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            heap: HeapConfig::default(),
            seed: 0x504f_4c61_52_u64, // "POLaR"
            detect_class_mismatch: true,
            detect_use_after_free: true,
            check_traps_on_free: true,
            offset_cache: true,
            memcpy_rerandomize: true,
            redzone_checks: false,
            pool: PoolPolicy::default(),
            stateless: StatelessPolicy::on(),
            detect_probe_traps: true,
            magazine: MagazinePolicy::default(),
        }
    }
}

/// Policy for the sharded runtime's magazine-cached allocation front-end
/// (see [`RuntimeConfig::magazine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MagazinePolicy {
    /// Capsules reserved per refill (one shard-lock acquisition amortized
    /// over this many allocations). `0` disables magazines *and* the
    /// lock-free free path: every handle malloc/free takes the shard
    /// mutex, exactly as before the front-end existed.
    pub batch: usize,
}

impl MagazinePolicy {
    /// Magazines off: one shard-lock round trip per allocation and free.
    pub fn disabled() -> Self {
        MagazinePolicy { batch: 0 }
    }

    /// Whether the front-end is active.
    pub fn enabled(&self) -> bool {
        self.batch > 0
    }
}

impl Default for MagazinePolicy {
    fn default() -> Self {
        MagazinePolicy { batch: 32 }
    }
}

/// Lifecycle state of a tracked object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectState {
    /// Allocated and usable.
    Live,
    /// Freed; metadata retained to recognize dangling accesses.
    Freed,
}

/// Per-object metadata: the paper's Figure 4 record (`base addr → class
/// hash, layout ptr`).
#[derive(Debug, Clone)]
pub struct ObjectMeta {
    /// The object's class.
    pub class: Arc<ClassInfo>,
    /// The (possibly shared, interned) layout plan.
    pub plan: Arc<LayoutPlan>,
    /// Lifecycle state.
    pub state: ObjectState,
    /// Bumped every time the base address is reassigned to a new object.
    pub generation: u64,
}

/// A pre-reserved allocation: the product of [`ObjectRuntime`]'s
/// reserve paths, held in a [`ShardHandle`](crate::ShardHandle)
/// magazine until a thread pops it as an `olr_malloc` result. The
/// object is fully armed at reserve time — block allocated, canaries
/// seeded, shadow record and publication mirror written, state `Live` —
/// so popping is pure bookkeeping and the capsule's address is
/// indistinguishable from a mutex-path allocation to every reader.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Capsule {
    /// Base address of the reserved block.
    pub base: Addr,
    /// Heap slot id of the block.
    pub slot: u32,
}

/// One entry of the shadow index: the dense, slot-addressed successor of
/// the old metadata hashtable.
///
/// `block_gen` snapshots the heap block's allocation generation at the
/// moment the record was written; every probe compares it against the
/// block's *current* generation ([`SimHeap::slot_gen`]). A record left
/// behind when the block was recycled through a path the runtime does not
/// instrument (`free_raw` + `malloc_raw`, the interpreter's `FreeBuf`)
/// therefore self-invalidates — no eager `remove` call on any mutation
/// path, and no way to serve a stale layout plan for a reused address.
#[derive(Debug, Clone)]
struct ShadowSlot {
    /// The tracked object's metadata; `None` until the slot's block first
    /// holds a randomized object. Retained after `olr_free` so dangling
    /// accesses are recognized (use-after-free detection).
    meta: Option<ObjectMeta>,
    /// Copy of `meta.class.hash()`: class validation without chasing the
    /// `Arc<ClassInfo>` pointer.
    class_hash: ClassHash,
    /// Copy of `meta.plan.plan_hash()`: inline-cache validation without
    /// chasing the `Arc<LayoutPlan>` pointer.
    plan_hash: PlanHash,
    /// Heap allocation generation this record belongs to.
    block_gen: u64,
    /// Whether the Section V-B offset cache holds this object. The cache
    /// is collapsed into the shadow slot: "warmed" means a cache entry
    /// exists, and invalidation is a flag clear (free) or a generation
    /// mismatch (reuse).
    warmed: bool,
}

impl Default for ShadowSlot {
    fn default() -> Self {
        ShadowSlot {
            meta: None,
            class_hash: ClassHash(0),
            plan_hash: PlanHash(0),
            block_gen: 0,
            warmed: false,
        }
    }
}

/// Publication plumbing for a runtime whose heap mirrors metadata to
/// lock-free readers: the process-wide plan registry (plans resolvable
/// by small integer id without a lock) plus a per-runtime cache of ids
/// already interned, so steady-state allocation does not touch the
/// registry mutex at all.
#[derive(Debug)]
struct MetaPublisher {
    registry: Arc<PlanRegistry>,
    ids: HashMap<PlanHash, u32>,
}

/// One cached derived plan: the packed permutation code it was built
/// from, the interned plan, and its published registry id (if any).
#[derive(Debug, Clone)]
struct StatelessEntry {
    code: PermCode,
    plan: Arc<LayoutPlan>,
    plan_id: Option<u32>,
}

/// Number of direct-mapped entries in one class's derived-plan cache.
/// Slot-reuse churn cycles through few generations, so a small table
/// captures the working set; conflict misses just re-derive.
const STATELESS_CACHE_WAYS: usize = 64;

/// Per-class cache of derived stateless plans, keyed by permutation
/// code. A hit turns an allocation's plan work into one array index and
/// an `Arc` clone — no Feistel walk, no plan construction, no interner
/// probe.
///
/// Classes whose whole code space fits ([`code_space`]`(n) ≤ 64`, i.e.
/// ≤4 fields) get a *perfect* cache indexed by the permutation's Lehmer
/// rank: exactly `n!` misses per class lifetime and then never again.
/// Larger classes fall back to a direct-mapped Fibonacci spread, where
/// conflicting codes evict each other (bounded memory beats a perfect
/// hit rate there — an 8-field class has 40 320 codes).
#[derive(Debug)]
struct StatelessClassCache {
    class: ClassHash,
    /// Identity-independent block size bound (traps included per
    /// config), computed once per class.
    bound: u32,
    fields: u8,
    /// Whole code space fits: index by Lehmer rank, collision-free.
    perfect: bool,
    entries: Vec<Option<StatelessEntry>>,
}

impl StatelessClassCache {
    fn new(class: ClassHash, bound: u32, fields: u8) -> Self {
        let ways = code_space(usize::from(fields)).min(STATELESS_CACHE_WAYS);
        StatelessClassCache {
            class,
            bound,
            fields,
            perfect: code_space(usize::from(fields)) <= STATELESS_CACHE_WAYS,
            entries: vec![None; ways],
        }
    }

    /// Cache slot for a code: the Lehmer rank when the class's code
    /// space fits entirely (bijective — no conflicts), else a
    /// direct-mapped Fibonacci spread of the packed permutation bits.
    #[inline]
    fn way(&self, code: PermCode) -> usize {
        if self.perfect {
            code_rank(code, usize::from(self.fields))
        } else {
            ((u64::from(code).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize)
                % STATELESS_CACHE_WAYS
        }
    }

    fn bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.entries.capacity() * std::mem::size_of::<Option<StatelessEntry>>()
    }
}

/// Everything the stateless allocation fast path owns: the interned
/// round-key schedule for the runtime's epoch key, the buffered
/// permutation-code block, and the per-class derived-plan caches.
#[derive(Debug)]
struct StatelessState {
    keys: RoundKeys,
    block: PermBlock,
    caches: Vec<StatelessClassCache>,
    /// Index of the cache the last allocation used (monomorphic hint:
    /// the common case is a run of one class, resolved by one compare).
    last: usize,
    /// Allocations served from the derived-plan cache: each is a plan
    /// record the runtime did not have to build — the stateless path's
    /// contribution to the dedup counter.
    hits: u64,
}

impl StatelessState {
    fn new(key: EpochKey) -> Self {
        StatelessState {
            keys: RoundKeys::new(key),
            block: PermBlock::empty(),
            caches: Vec::new(),
            last: 0,
            hits: 0,
        }
    }

    /// Bytes of bookkeeping the stateless path itself costs (cached
    /// plans are interner-owned and counted there).
    fn metadata_bytes(&self) -> usize {
        std::mem::size_of::<RoundKeys>()
            + std::mem::size_of::<PermBlock>()
            + self.caches.iter().map(StatelessClassCache::bytes).sum::<usize>()
    }
}

/// Source field bytes staged for an object copy: the packed contents of
/// every field, plus each field's start offset in the packed buffer.
/// Produced by [`ObjectRuntime::stage_fields`], consumed by
/// [`ObjectRuntime::install_copy`].
#[derive(Debug)]
pub(crate) struct StagedFields {
    bytes: Vec<u8>,
    starts: Vec<usize>,
}

/// Outcome of a shadow-index probe.
enum Probe {
    /// `shadow[i]` holds a generation-current record for the address.
    Hit(usize),
    /// No current record: the address was never tracked, or its block was
    /// re-allocated since the record was written (stale, self-invalidated).
    Miss,
}

/// Per-call-site inline cache for [`ObjectRuntime::olr_getptr_ic`].
///
/// The interpreter allocates one per static rewritten `getelementptr`
/// site (an AOT build would reserve a few words next to the call). The
/// cache pins the `(class, plan)` pair the site last resolved and the
/// offset that resolution produced; as long as the probed object still
/// carries exactly that pair, the access is two integer compares and an
/// add — it skips even the shadow slot's metadata record.
///
/// Monomorphic sites (the common case: one class, and plan interning
/// collapses layouts for small classes) hit almost always; polymorphic
/// sites just fall back to the shadow index.
#[derive(Debug, Clone, Copy)]
pub struct SiteCache {
    filled: bool,
    class: ClassHash,
    plan: PlanHash,
    offset: u32,
    width: u8,
    /// Last base address this site resolved (slot hint key).
    last_base: u64,
    /// Published slot id `last_base` resolved to. Purely a hint: the
    /// lock-free path re-validates the snapshot's `base` (and the rest
    /// of the seqlock-guarded metadata), so a stale hint costs one
    /// wasted slot probe and falls back to the full unit-index walk.
    last_slot: u32,
}

impl SiteCache {
    /// An empty (never-filled) site cache.
    pub const fn empty() -> Self {
        SiteCache {
            filled: false,
            class: ClassHash(0),
            plan: PlanHash(0),
            offset: 0,
            width: 8,
            last_base: 0,
            last_slot: 0,
        }
    }

    /// The published slot this site last resolved `base` to, if the
    /// hint is for exactly this base.
    #[inline]
    pub(crate) fn slot_hint(&self, base: u64) -> Option<u32> {
        (self.last_base == base).then_some(self.last_slot)
    }

    /// Remember which published slot `base` resolved to.
    #[inline]
    pub(crate) fn note_slot(&mut self, base: u64, slot: u32) {
        self.last_base = base;
        self.last_slot = slot;
    }

    /// The cached `(offset, width)` if the cache pins exactly this
    /// `(class, plan)` pair — the same predicate the locked path's
    /// inline-cache branch uses, exposed for the lock-free read path.
    #[inline]
    pub(crate) fn lookup(&self, expected: ClassHash, plan: PlanHash) -> Option<(u32, u8)> {
        (self.filled && self.class == expected && self.plan == plan)
            .then_some((self.offset, self.width))
    }

    /// Pin a resolution, as the locked path does after a full lookup.
    /// Keeps the slot hint: pin happens on plan churn, not base churn.
    #[inline]
    pub(crate) fn pin(&mut self, class: ClassHash, plan: PlanHash, offset: u32, width: u8) {
        self.filled = true;
        self.class = class;
        self.plan = plan;
        self.offset = offset;
        self.width = width;
    }
}

impl Default for SiteCache {
    fn default() -> Self {
        Self::empty()
    }
}

/// The POLaR runtime: simulated heap + shadow-index metadata + offset
/// cache.
#[derive(Debug)]
pub struct ObjectRuntime {
    heap: SimHeap,
    mode: RandomizeMode,
    engine: LayoutEngine,
    static_table: Option<StaticOlrTable>,
    interner: PlanInterner,
    /// Dense shadow of the heap's block-slot table: `shadow[slot]` holds
    /// the metadata for the block occupying heap slot `slot` (ids from
    /// [`SimHeap::slot_gen`]). Lookup is an array index — no hashing on
    /// the hot path. Chunked [`Slab`] storage: growth appends a chunk
    /// instead of copying every record, so steady-state malloc/free does
    /// no allocation of its own.
    shadow: Slab<ShadowSlot>,
    /// Slots that ever received a record (live + retained-freed); the
    /// successor of the old hashtable's `len()`.
    meta_count: usize,
    /// Per-class plan pools (the §V-B allocation fast path).
    pools: PlanPools,
    /// Key for the stateless small-class permutation derivation.
    epoch_key: EpochKey,
    /// Round-key schedule, code buffer and per-class plan caches for the
    /// stateless allocation fast path.
    stateless: StatelessState,
    rng: BufferedRng,
    stats: RuntimeStats,
    config: RuntimeConfig,
    /// `Some` when this runtime mirrors metadata for lock-free readers
    /// (a shard of a published [`ShardedRuntime`](crate::ShardedRuntime));
    /// `None` for plain single-threaded runtimes, whose behavior is
    /// byte-for-byte unchanged.
    publish: Option<MetaPublisher>,
}

/// Salt separating the heap-placement RNG stream from the plan RNG and
/// the stateless epoch key (`"PLAC"`).
pub(crate) const PLACEMENT_SALT: u64 = 0x504C_4143;

impl ObjectRuntime {
    /// Create a runtime in the given mode.
    ///
    /// When the heap's [`PlacementPolicy`](polar_simheap::PlacementPolicy)
    /// is enabled but carries no explicit seed, one is derived from the
    /// runtime seed through a salted stream — placement replay stays a
    /// pure function of `config.seed`, and knowing placed addresses
    /// reveals nothing about layout plans or the stateless key.
    pub fn new(mode: RandomizeMode, mut config: RuntimeConfig) -> Self {
        let (engine, static_table) = match mode {
            RandomizeMode::Native => (LayoutEngine::new(RandomizationPolicy::off()), None),
            RandomizeMode::StaticOlr { policy, binary_seed } => (
                LayoutEngine::new(policy),
                Some(StaticOlrTable::new(policy, binary_seed)),
            ),
            RandomizeMode::PerAllocation { policy } => (LayoutEngine::new(policy), None),
        };
        // A distinct stream from the plan RNG: knowing layouts drawn
        // from `rng` must not reveal the stateless permutation key.
        let epoch_key =
            EpochKey(SplitMix64::new(config.seed ^ 0x5350_414d /* "SPAM" */).next_u64());
        if config.heap.placement.enabled() && config.heap.placement.seed == 0 {
            config.heap.placement.seed =
                SplitMix64::new(config.seed ^ PLACEMENT_SALT).next_u64();
        }
        ObjectRuntime {
            heap: SimHeap::new(config.heap),
            mode,
            engine,
            static_table,
            interner: PlanInterner::new(),
            shadow: Slab::new(),
            meta_count: 0,
            pools: PlanPools::new(config.pool),
            epoch_key,
            stateless: StatelessState::new(epoch_key),
            rng: BufferedRng::seed_from_u64(config.seed),
            stats: RuntimeStats::default(),
            config,
            publish: None,
        }
    }

    /// A runtime over a *published* heap: block and object metadata are
    /// mirrored into seqlocked publication slots, and plans are interned
    /// into `registry` so lock-free readers can resolve them by id.
    pub(crate) fn new_published(
        mode: RandomizeMode,
        config: RuntimeConfig,
        registry: Arc<PlanRegistry>,
    ) -> Self {
        let mut rt = Self::new(mode, config);
        rt.heap = SimHeap::new_published(config.heap);
        rt.publish = Some(MetaPublisher { registry, ids: HashMap::new() });
        rt
    }

    /// The runtime's mode.
    pub fn mode(&self) -> &RandomizeMode {
        &self.mode
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Borrow the simulated heap (for raw buffer traffic).
    pub fn heap(&self) -> &SimHeap {
        &self.heap
    }

    /// Mutably borrow the simulated heap.
    pub fn heap_mut(&mut self) -> &mut SimHeap {
        &mut self.heap
    }

    /// Snapshot of the statistics counters (dedup and pool figures
    /// included).
    pub fn stats(&self) -> RuntimeStats {
        let mut s = self.stats;
        s.unique_plans = self.interner.unique_plans() as u64;
        // Derived-plan cache hits are dedup saves too: an allocation that
        // reused a cached stateless plan stored no new metadata record.
        s.dedup_saved = self.interner.dedup_hits() + self.stateless.hits;
        let pool = self.pools.stats();
        s.pool_hits = pool.hits;
        s.pool_refills = pool.refills;
        s
    }

    /// Reset the event counters (interner contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = RuntimeStats::default();
    }

    /// Probe the shadow index for a generation-current record at `base`.
    #[inline]
    fn probe(heap: &SimHeap, shadow: &Slab<ShadowSlot>, base: Addr) -> Probe {
        match heap.slot_gen(base) {
            Some((slot, gen)) => match shadow.as_slice().get(slot as usize) {
                Some(s) if s.meta.is_some() && s.block_gen == gen => Probe::Hit(slot as usize),
                _ => Probe::Miss,
            },
            None => Probe::Miss,
        }
    }

    /// Report whether the object's offset-cache entry was already warm,
    /// warming it as a side effect. On a published heap the publication
    /// slot is the single authority — shared with the lock-free read
    /// path, so both paths agree on which access is the cold one —
    /// falling back to the shadow flag for uncovered slots.
    #[inline]
    fn warm_probe(heap: &SimHeap, slot: &mut ShadowSlot, idx: usize) -> bool {
        match heap.publisher() {
            Some(p) if p.covers(idx as u32) => p.warm_probe(idx as u32),
            _ => {
                let was = slot.warmed;
                slot.warmed = true;
                was
            }
        }
    }

    /// Metadata for the object at `base`, if tracked (and not stale: a
    /// record orphaned by recycling the block through the raw path is
    /// treated as absent).
    pub fn object_meta(&self, base: Addr) -> Option<&ObjectMeta> {
        match Self::probe(&self.heap, &self.shadow, base) {
            Probe::Hit(i) => self.shadow[i].meta.as_ref(),
            Probe::Miss => None,
        }
    }

    /// Number of metadata records currently held (live + retained-freed).
    pub fn meta_records(&self) -> usize {
        self.meta_count
    }

    /// Estimated bytes of POLaR bookkeeping: the shadow-index slot table
    /// and the interned (deduplicated) plans, including each plan's dense
    /// `(offset, width)` access table. This is the memory cost Table
    /// III's dedup optimization attacks.
    pub fn estimated_metadata_bytes(&self) -> usize {
        // The shadow slab's chunked storage is what the process actually
        // pays. Each slot embeds the per-object record and the
        // (collapsed) offset-cache entry.
        let shadow_bytes = self.shadow.capacity_bytes();
        // Interned plan payload: offsets/sizes/aligns (3×u32/field), the
        // packed access table, and dummy slots.
        let plan_bytes: usize = self.interner_plans().map(|p| plan_payload_bytes(p)).sum();
        // Static-OLR's per-class table was previously uncounted (the
        // "256 B" undercount): its plans are metadata like any other.
        let static_bytes: usize = self
            .static_table
            .as_ref()
            .map_or(0, |t| t.iter().map(|p| plan_payload_bytes(p)).sum());
        // Pool bookkeeping (ring slots + class index; pooled plans are
        // interner-owned and already counted above).
        let pool_bytes = self.pools.metadata_bytes();
        // Stateless-path bookkeeping: the round-key schedule, the code
        // block, and the per-class derived-plan caches (their plans are
        // interner-owned and counted above).
        let stateless_bytes = self.stateless.metadata_bytes();
        shadow_bytes + plan_bytes + static_bytes + pool_bytes + stateless_bytes
    }

    fn interner_plans(&self) -> impl Iterator<Item = &Arc<LayoutPlan>> {
        self.interner.iter()
    }

    /// The layout a *compile-time* site bakes in for `info`: the natural
    /// layout for native and POLaR binaries (POLaR's non-instrumented
    /// leftovers keep compiler offsets), or the per-binary randomized
    /// plan under static OLR — `randstruct`-style binaries carry their
    /// permuted offsets in the code itself, with no runtime metadata.
    pub fn compile_time_plan(&mut self, info: &Arc<ClassInfo>) -> Arc<LayoutPlan> {
        match &self.mode {
            RandomizeMode::StaticOlr { .. } => self
                .static_table
                .as_mut()
                .expect("static table present in StaticOlr mode")
                .plan_for(info),
            _ => self.interner.intern(LayoutPlan::natural_for(info)),
        }
    }

    fn draw_plan(&mut self, info: &Arc<ClassInfo>) -> Arc<LayoutPlan> {
        match &self.mode {
            RandomizeMode::Native => self.interner.intern(LayoutPlan::natural_for(info)),
            RandomizeMode::StaticOlr { .. } => self
                .static_table
                .as_mut()
                .expect("static table present in StaticOlr mode")
                .plan_for(info),
            RandomizeMode::PerAllocation { .. } => {
                if self.config.pool.enabled() {
                    self.pools.draw(info, &self.engine, &mut self.interner, &mut self.rng)
                } else {
                    let plan = self.engine.generate(info, &mut self.rng);
                    self.interner.intern(plan)
                }
            }
        }
    }

    /// Whether `info` is served by the stateless small-class path.
    pub(crate) fn stateless_applicable(&self, info: &ClassInfo) -> bool {
        matches!(self.mode, RandomizeMode::PerAllocation { .. })
            && self.config.stateless.applies_to(info.field_count())
    }

    /// Instrumented allocation: draw a layout plan, allocate, seed booby
    /// traps, and record metadata.
    ///
    /// # Errors
    ///
    /// Propagates heap exhaustion as [`RuntimeError::Heap`].
    pub fn olr_malloc(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError> {
        if self.stateless_applicable(info) {
            return self.olr_malloc_stateless(info);
        }
        let plan = self.draw_plan(info);
        self.olr_malloc_with_plan(info, plan)
    }

    /// Instrumented allocation with a caller-supplied layout plan.
    ///
    /// This is how a sharded runtime's handles allocate: each thread draws the
    /// plan from its *own* pool and RNG outside the shard lock, then the
    /// shard only has to malloc, seed traps and record metadata. Callers
    /// must pass a plan generated (or interned) for `info`.
    ///
    /// # Errors
    ///
    /// Propagates heap exhaustion as [`RuntimeError::Heap`].
    pub fn olr_malloc_with_plan(
        &mut self,
        info: &Arc<ClassInfo>,
        plan: Arc<LayoutPlan>,
    ) -> Result<Addr, RuntimeError> {
        let capsule = self.reserve_with_plan(info, plan)?;
        self.stats.allocations += 1;
        Ok(capsule.base)
    }

    /// Reserve one fully-armed allocation for `info` with a
    /// caller-supplied plan, *without counting it as an allocation*.
    /// This is the body of [`olr_malloc_with_plan`] minus the stat: the
    /// magazine front-end reserves capsules in batches under the shard
    /// lock and counts `allocations` only when a thread actually pops
    /// one, so `allocations == frees` keeps holding at quiescence even
    /// with capsules parked in magazines.
    ///
    /// [`olr_malloc_with_plan`]: ObjectRuntime::olr_malloc_with_plan
    pub(crate) fn reserve_with_plan(
        &mut self,
        info: &Arc<ClassInfo>,
        plan: Arc<LayoutPlan>,
    ) -> Result<Capsule, RuntimeError> {
        let base = self.heap.malloc(plan.size().max(1) as usize)?;
        let (slot, generation) =
            self.heap.slot_gen(base).expect("base is a block the heap just returned");
        // One writer window spans canary seeding and the metadata
        // mirror: a lock-free reader either sees the slot's previous
        // record (whose meta generation no longer matches) or the
        // complete new one — never a half-recorded object.
        let win = self.heap.pub_open(slot);
        let (plan_id, plan) = Self::publish_canonical(&mut self.publish, plan);
        let seeded = self.seed_canaries(base, &plan);
        if seeded.is_ok() {
            self.record_object_at(slot, generation, Arc::clone(info), plan, plan_id);
        }
        self.heap.pub_close(slot, win);
        seeded?;
        Ok(Capsule { base, slot })
    }

    /// The SPAM-style allocation: malloc first (the size bound is
    /// identity-independent), then derive the permutation from the heap
    /// identity the malloc just produced. The derived plan — and, when
    /// traps are on, its virtual trap geometry — is re-derivable from
    /// (epoch key, generation, slot) alone, which is what makes the path
    /// "stateless": the stored `Arc` is a cache, not the source of truth.
    ///
    /// The hot path touches no key derivation (the round-key schedule is
    /// interned per runtime), batches Feistel walks through the code
    /// block on slot-reuse runs, and resolves repeated permutation codes
    /// through the per-class plan cache — an array index plus an `Arc`
    /// clone in steady state.
    fn olr_malloc_stateless(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError> {
        let capsule = self.reserve_stateless(info)?;
        self.stats.allocations += 1;
        self.stats.stateless_allocs += 1;
        Ok(capsule.base)
    }

    /// Stateless-path reservation without the allocation stats — the
    /// counterpart of [`reserve_with_plan`](ObjectRuntime::reserve_with_plan)
    /// for small classes. The magazine front-end counts `allocations`
    /// and `stateless_allocs` at pop time.
    pub(crate) fn reserve_stateless(
        &mut self,
        info: &Arc<ClassInfo>,
    ) -> Result<Capsule, RuntimeError> {
        let ci = self.stateless_cache_idx(info);
        let cache = &self.stateless.caches[ci];
        let (bound, n) = (cache.bound.max(1) as usize, usize::from(cache.fields));
        let base = self.heap.malloc(bound)?;
        let (slot, generation) =
            self.heap.slot_gen(base).expect("base is a block the heap just returned");
        let st = &mut self.stateless;
        let code = st.block.code_for(&st.keys, slot, generation, n);
        let way = st.caches[ci].way(code);
        let (plan, plan_id) = match &st.caches[ci].entries[way] {
            Some(e) if e.code == code => {
                st.hits += 1;
                (Arc::clone(&e.plan), e.plan_id)
            }
            _ => {
                let built = stateless_plan_from_code(
                    info,
                    self.epoch_key,
                    code,
                    self.config.stateless.virtual_traps,
                );
                let interned = self.interner.intern(built);
                let (plan_id, plan) = Self::publish_canonical(&mut self.publish, interned);
                self.stateless.caches[ci].entries[way] =
                    Some(StatelessEntry { code, plan: Arc::clone(&plan), plan_id });
                (plan, plan_id)
            }
        };
        // One writer window spans canary seeding (virtual traps carry
        // canaries like any stored dummy) and the metadata mirror.
        let win = self.heap.pub_open(slot);
        let seeded = self.seed_canaries(base, &plan);
        if seeded.is_ok() {
            self.record_object_at(slot, generation, Arc::clone(info), plan, plan_id);
        }
        self.heap.pub_close(slot, win);
        seeded?;
        Ok(Capsule { base, slot })
    }

    /// Index of (creating on first sight) the derived-plan cache for
    /// `info`, with a monomorphic last-class hint in front.
    #[inline]
    fn stateless_cache_idx(&mut self, info: &ClassInfo) -> usize {
        let class = info.hash();
        let st = &mut self.stateless;
        if let Some(c) = st.caches.get(st.last) {
            if c.class == class {
                return st.last;
            }
        }
        let idx = match st.caches.iter().position(|c| c.class == class) {
            Some(i) => i,
            None => {
                let bound = stateless_bound(info, self.config.stateless.virtual_traps);
                st.caches.push(StatelessClassCache::new(
                    class,
                    bound,
                    info.field_count() as u8,
                ));
                st.caches.len() - 1
            }
        };
        st.last = idx;
        idx
    }

    /// Write (or overwrite) the shadow record for the block at `base`,
    /// with the registry id already resolved (the stateless fast path
    /// caches ids next to plans, so its steady state skips even the
    /// per-runtime id map). Installing a record stamps the block's
    /// current generation and clears the offset-cache flag, so anything
    /// cached for a previous occupant of the slot is dead on arrival.
    fn record_object_with_id(
        &mut self,
        base: Addr,
        class: Arc<ClassInfo>,
        plan: Arc<LayoutPlan>,
        plan_id: Option<u32>,
    ) {
        let (slot, block_gen) =
            self.heap.slot_gen(base).expect("base is a block the heap just returned");
        self.record_object_at(slot, block_gen, class, plan, plan_id);
    }

    /// [`ObjectRuntime::record_object_with_id`] with the heap identity
    /// already resolved: allocation paths looked (slot, generation) up
    /// to derive or publish the plan, so they pass it through instead of
    /// paying a second `slot_gen`.
    fn record_object_at(
        &mut self,
        slot: u32,
        block_gen: u64,
        class: Arc<ClassInfo>,
        plan: Arc<LayoutPlan>,
        plan_id: Option<u32>,
    ) {
        let (class_hash, plan_hash) = (class.hash(), plan.plan_hash());
        let entry = self.shadow.ensure(slot as usize);
        if entry.meta.is_none() {
            self.meta_count += 1;
        }
        let generation = entry.meta.as_ref().map_or(0, |m| m.generation) + 1;
        entry.class_hash = class_hash;
        entry.plan_hash = plan_hash;
        entry.block_gen = block_gen;
        entry.warmed = false;
        entry.meta = Some(ObjectMeta { class, plan, state: ObjectState::Live, generation });
        if let Some(p) = self.heap.publisher() {
            // Callers hold the slot's writer window open across this.
            p.mirror_record(slot, class_hash.0, plan_hash.0, plan_id, block_gen);
        }
    }

    /// Registry id for `plan` on a published runtime (interning it on
    /// first sight and caching per runtime); `None` when unpublished or
    /// the registry is full — readers then fall back to the lock.
    /// Associated (not a method) so callers holding field borrows of
    /// `self` can still resolve ids.
    fn publish_id(publish: &mut Option<MetaPublisher>, plan: &Arc<LayoutPlan>) -> Option<u32> {
        let publish = publish.as_mut()?;
        if let Some(&id) = publish.ids.get(&plan.plan_hash()) {
            return Some(id);
        }
        let id = publish.registry.intern(plan)?;
        publish.ids.insert(plan.plan_hash(), id);
        Some(id)
    }

    /// Resolve `plan`'s registry id and adopt the registry's *canonical*
    /// copy for it. The plan hash deliberately excludes canary values
    /// (structurally identical plans intern together), so a locally
    /// derived twin — another shard's stateless derivation under its own
    /// epoch key, or another thread's engine draw — can carry different
    /// trap values than the copy the registry serves to lock-free
    /// readers. Seeding and recording the canonical plan keeps the armed
    /// bytes, the shadow record and the published id's resolution in
    /// exact agreement; the lock-free free path's trap sweep depends on
    /// that. Unpublished runtimes (and a full registry) keep the local
    /// plan.
    fn publish_canonical(
        publish: &mut Option<MetaPublisher>,
        plan: Arc<LayoutPlan>,
    ) -> (Option<u32>, Arc<LayoutPlan>) {
        let Some(id) = Self::publish_id(publish, &plan) else {
            return (None, plan);
        };
        let canonical = publish
            .as_ref()
            .and_then(|p| p.registry.get(id))
            .map_or(plan, Arc::clone);
        (Some(id), canonical)
    }

    fn seed_canaries(&mut self, base: Addr, plan: &LayoutPlan) -> Result<(), RuntimeError> {
        for dummy in plan.dummies() {
            if let Some(canary) = dummy.canary {
                let width = canary_width(dummy.size);
                self.heap.write_uint(base.offset(dummy.offset as u64), canary, width)?;
            }
        }
        Ok(())
    }

    /// Instrumented deallocation: verify booby traps, retire metadata,
    /// release the block.
    ///
    /// Like the paper's hooked `free()`, this accepts *any* pointer:
    /// addresses without POLaR metadata (raw buffers, native objects) are
    /// released directly.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::DoubleFree`] on repeated frees of a tracked object,
    /// [`RuntimeError::TrapTriggered`] when a canary was corrupted (the
    /// object is *not* freed in that case — the program should abort), and
    /// heap errors for invalid raw frees.
    pub fn olr_free(&mut self, base: Addr) -> Result<(), RuntimeError> {
        let idx = match Self::probe(&self.heap, &self.shadow, base) {
            Probe::Hit(i) => i,
            Probe::Miss => {
                // Untracked pointer (or a record self-invalidated by raw
                // reuse): behave like plain free().
                self.heap.free(base)?;
                return Ok(());
            }
        };
        if self.shadow[idx].meta.as_ref().expect("probe hit carries metadata").state
            == ObjectState::Freed
        {
            self.stats.double_free_detected += 1;
            return Err(RuntimeError::DoubleFree(base));
        }
        if self.config.check_traps_on_free {
            self.stats.trap_scans += 1;
            let reports = self.scan_traps_at(idx, base);
            if let Some(report) = reports.first() {
                self.stats.traps_triggered += reports.len() as u64;
                self.stats.dummy_touches += reports.len() as u64;
                return Err(RuntimeError::TrapTriggered(*report));
            }
        }
        let slot = &mut self.shadow[idx];
        slot.meta.as_mut().expect("probe hit carries metadata").state = ObjectState::Freed;
        // The offset-cache entry dies with the object.
        slot.warmed = false;
        // Mirror the state flip before releasing the block, inside its
        // own writer window: a lock-free reader sees LIVE (old record)
        // or FREED, never the torn in-between.
        let win = self.heap.pub_open(idx as u32);
        if let Some(p) = self.heap.publisher() {
            p.mirror_free(idx as u32);
        }
        self.heap.pub_close(idx as u32, win);
        self.heap.free(base)?;
        self.stats.frees += 1;
        Ok(())
    }

    /// Complete the retirement of a reserved or remote-freed slot:
    /// flip its (generation-current) shadow record to `Freed`, mirror
    /// the flip, and release the heap block. Counts **nothing** — the
    /// callers decide what event this was:
    ///
    /// * the shard draining its remote-free stack (the block's free was
    ///   already counted by the lock-free `fast_frees` claim), and
    /// * a [`ShardHandle`](crate::ShardHandle) returning unconsumed
    ///   magazine capsules at teardown (reserved but never allocated,
    ///   so neither an allocation nor a free happened).
    ///
    /// Returns whether a block was actually released; `false` means the
    /// slot's block was already freed (the free raced to completion
    /// through another path) or the release failed, both of which the
    /// caller treats as "nothing left to do".
    pub(crate) fn retire_reserved(&mut self, slot: u32) -> bool {
        let Some(block) = self.heap.block_by_slot(slot) else { return false };
        if block.state == BlockState::Freed {
            return false;
        }
        if let Some(entry) = self.shadow.get_mut(slot as usize) {
            if entry.block_gen == block.generation {
                if let Some(meta) = entry.meta.as_mut() {
                    meta.state = ObjectState::Freed;
                }
                // The offset-cache entry dies with the object.
                entry.warmed = false;
            }
        }
        // Mirror the flip inside a writer window, as `olr_free` does;
        // for a drained remote free the publication slot is already
        // FREED (the claim CAS flipped it) and the mirror is idempotent.
        let win = self.heap.pub_open(slot);
        if let Some(p) = self.heap.publisher() {
            p.mirror_free(slot);
        }
        self.heap.pub_close(slot, win);
        self.heap.free(block.base).is_ok()
    }

    /// Instrumented member access (the rewritten `getelementptr`): resolve
    /// field `field` of the object at `base`, which the access site
    /// believes to be of class `expected`.
    ///
    /// The shadow index locates the metadata in O(1); the offset-lookup
    /// cache (a warmed flag on the shadow slot) short-circuits repeat
    /// accesses; use-after-free and class mismatch are detected.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownObject`], [`RuntimeError::UseAfterFree`],
    /// [`RuntimeError::ClassMismatch`] and
    /// [`RuntimeError::FieldOutOfBounds`] per the configured detections.
    pub fn olr_getptr(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
    ) -> Result<Addr, RuntimeError> {
        self.getptr_core(base, expected, field, None).map(|(addr, _)| addr)
    }

    /// [`ObjectRuntime::olr_getptr`] with a per-call-site inline cache.
    ///
    /// Identical detection behavior and statistics semantics; `ic` lets a
    /// monomorphic site resolve without touching the metadata record at
    /// all. The cache only serves live, generation-current objects whose
    /// `(class, plan)` pair matches what the site last saw, so every
    /// detection path (UAF, mismatch, stale address) still goes through
    /// the full lookup.
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::olr_getptr`].
    pub fn olr_getptr_ic(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        ic: &mut SiteCache,
    ) -> Result<Addr, RuntimeError> {
        self.getptr_core(base, expected, field, Some(ic)).map(|(addr, _)| addr)
    }

    /// Shared body of the getptr family; returns the resolved address and
    /// the field's access width so `read_field`/`write_field` need no
    /// second metadata lookup.
    fn getptr_core(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        mut ic: Option<&mut SiteCache>,
    ) -> Result<(Addr, usize), RuntimeError> {
        self.stats.member_accesses += 1;
        let idx = match Self::probe(&self.heap, &self.shadow, base) {
            Probe::Hit(i) => {
                self.stats.shadow_hits += 1;
                i
            }
            Probe::Miss => {
                self.stats.shadow_misses += 1;
                if ic.is_some() {
                    self.stats.site_ic_misses += 1;
                }
                return Err(RuntimeError::UnknownObject(base));
            }
        };
        let slot = &mut self.shadow.as_mut_slice()[idx];
        let state = slot.meta.as_ref().expect("probe hit carries metadata").state;

        if self.config.offset_cache && state == ObjectState::Live {
            if let Some(site) = ic.as_deref_mut() {
                if site.filled
                    && slot.plan_hash == site.plan
                    && slot.class_hash == site.class
                    && site.class == expected
                {
                    self.stats.site_ic_hits += 1;
                    // Keep the Section V-B counter's semantics: the first
                    // access warms the per-object entry, later ones hit.
                    if Self::warm_probe(&self.heap, slot, idx) {
                        self.stats.cache_hits += 1;
                    }
                    return Ok((base.offset(site.offset as u64), site.width as usize));
                }
            }
        }
        if ic.is_some() {
            self.stats.site_ic_misses += 1;
        }

        if state == ObjectState::Freed && self.config.detect_use_after_free {
            self.stats.uaf_detected += 1;
            return Err(RuntimeError::UseAfterFree { addr: base });
        }
        // With UAF detection disabled a freed object's access falls
        // through to the retained plan, exactly like an uninstrumented
        // dangling dereference.
        if self.config.offset_cache && state == ObjectState::Live
            && Self::warm_probe(&self.heap, slot, idx)
        {
            self.stats.cache_hits += 1;
        }
        let actual = slot.class_hash;
        let plan_hash = slot.plan_hash;

        let slot = &self.shadow.as_slice()[idx];
        let meta = slot.meta.as_ref().expect("probe hit carries metadata");
        let (addr, access) =
            Self::resolve(&self.config, &mut self.stats, base, actual, &meta.plan, expected, field)?;
        if let Some(site) = ic {
            if self.config.offset_cache && state == ObjectState::Live && actual == expected {
                site.pin(expected, plan_hash, access.offset, access.width);
            }
        }
        Ok((addr, access.width as usize))
    }

    fn resolve(
        config: &RuntimeConfig,
        stats: &mut RuntimeStats,
        base: Addr,
        actual: ClassHash,
        plan: &LayoutPlan,
        expected: ClassHash,
        field: usize,
    ) -> Result<(Addr, FieldAccess), RuntimeError> {
        if actual != expected {
            stats.mismatch_detected += 1;
            if config.detect_class_mismatch {
                return Err(RuntimeError::ClassMismatch { addr: base, expected, actual });
            }
            // Detection disabled: resolve through the *actual* object's
            // randomized plan — the confused access lands on an
            // unpredictable member, which is POLaR's probabilistic defense.
        }
        let access = plan
            .access(field)
            .ok_or(RuntimeError::FieldOutOfBounds { class: actual, field })?;
        Ok((base.offset(access.offset as u64), access))
    }

    /// Instrumented object copy (`memcpy`/`memmove` on objects): copies
    /// `src`'s fields into `dst` and — by default — gives the duplicate
    /// its own fresh randomized layout and metadata (Section IV-A2).
    ///
    /// `dst` must be the base of a heap block large enough for the copy's
    /// plan; if the randomized plan does not fit after a few draws the
    /// runtime falls back to a dummy-free permutation.
    ///
    /// When `src` carries no metadata (deserialized bytes, a native
    /// object), it is interpreted through `site_class`'s natural layout —
    /// the copy site's compile-time type, which the instrumentation pass
    /// knows.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UseAfterFree`] for a freed `src`;
    /// [`RuntimeError::Heap`] when `dst` cannot hold the object.
    pub fn olr_memcpy(
        &mut self,
        dst: Addr,
        src: Addr,
        site_class: &Arc<ClassInfo>,
    ) -> Result<(), RuntimeError> {
        let (info, src_plan) = self.copy_source(src, site_class)?;
        let staged = self.stage_fields(src, &src_plan)?;
        self.install_copy(dst, info, &src_plan, &staged)
    }

    /// Resolve the class and source-side layout for an object copy from
    /// `src` (UAF-checked), counting the attempt. Split out of
    /// [`ObjectRuntime::olr_memcpy`] so a sharded runtime's handles can run the
    /// source half on one shard and [`ObjectRuntime::install_copy`] on
    /// another.
    pub(crate) fn copy_source(
        &mut self,
        src: Addr,
        site_class: &Arc<ClassInfo>,
    ) -> Result<(Arc<ClassInfo>, Arc<LayoutPlan>), RuntimeError> {
        self.stats.memcpys += 1;
        match Self::probe(&self.heap, &self.shadow, src) {
            Probe::Hit(i) => {
                let src_meta =
                    self.shadow[i].meta.as_ref().expect("probe hit carries metadata");
                if src_meta.state == ObjectState::Freed && self.config.detect_use_after_free {
                    self.stats.uaf_detected += 1;
                    return Err(RuntimeError::UseAfterFree { addr: src });
                }
                Ok((Arc::clone(&src_meta.class), Arc::clone(&src_meta.plan)))
            }
            Probe::Miss => Ok((
                Arc::clone(site_class),
                self.interner.intern(LayoutPlan::natural_for(site_class)),
            )),
        }
    }

    /// Read every source field (laid out by `src_plan`) into one packed
    /// scratch buffer.
    ///
    /// Staging is what makes overlapping copies safe: every source byte
    /// is read before [`ObjectRuntime::install_copy`] writes a single
    /// destination byte, so a rerandomized dst plan that moves field k
    /// onto the source bytes of field k+1 can no longer clobber them
    /// mid-copy (the in-place `olr_memcpy(p, p, …)` rerandomization case,
    /// and partial overlaps through interior source pointers).
    pub(crate) fn stage_fields(
        &self,
        src: Addr,
        src_plan: &LayoutPlan,
    ) -> Result<StagedFields, RuntimeError> {
        let mut bytes = Vec::with_capacity(src_plan.size() as usize);
        let mut starts = Vec::with_capacity(src_plan.field_count());
        for field in 0..src_plan.field_count() {
            let size = src_plan.field_size(field) as usize;
            let from = src.offset(src_plan.offset(field) as u64);
            starts.push(bytes.len());
            self.heap.read_into(from, size, &mut bytes)?;
        }
        Ok(StagedFields { bytes, starts })
    }

    /// Destination half of an object copy: pick the duplicate's plan,
    /// write the staged field bytes at that plan's offsets, seed traps
    /// and record metadata. `staged` must come from
    /// [`ObjectRuntime::stage_fields`] over `src_plan`.
    pub(crate) fn install_copy(
        &mut self,
        dst: Addr,
        info: Arc<ClassInfo>,
        src_plan: &Arc<LayoutPlan>,
        staged: &StagedFields,
    ) -> Result<(), RuntimeError> {
        let dst_limit = self
            .heap
            .block_at(dst)
            .ok_or(RuntimeError::Heap(polar_simheap::HeapError::Fault {
                addr: dst,
                len: src_plan.size() as usize,
            }))?
            .size;

        let dst_plan = if self.config.memcpy_rerandomize {
            // Reuse live same-class metadata at dst when present (and
            // generation-current — a stale record never donates a plan);
            // otherwise mint a fresh randomized plan for the duplicate.
            let reusable = match Self::probe(&self.heap, &self.shadow, dst) {
                Probe::Hit(i) => {
                    let m = self.shadow[i].meta.as_ref().expect("probe hit carries metadata");
                    (m.state == ObjectState::Live && m.class.hash() == info.hash())
                        .then(|| Arc::clone(&m.plan))
                }
                Probe::Miss => None,
            };
            match reusable {
                Some(plan) => plan,
                None => self.plan_fitting(&info, dst_limit)?,
            }
        } else {
            Arc::clone(src_plan)
        };

        // Field-by-field translation between the two plans, all reads
        // already behind us in the scratch buffer. One writer window
        // spans the field stores, canaries and the metadata mirror, so
        // a lock-free reader never observes a half-installed copy.
        let dst_slot = self.heap.slot_gen(dst).map(|(s, _)| s);
        let win = dst_slot.and_then(|s| self.heap.pub_open(s));
        let installed = (|| {
            for field in 0..src_plan.field_count() {
                let size = src_plan.field_size(field) as usize;
                let to = dst.offset(dst_plan.offset(field) as u64);
                self.heap.write(to, &staged.bytes[staged.starts[field]..][..size])?;
            }
            let (dst_id, dst_plan) = Self::publish_canonical(&mut self.publish, dst_plan);
            self.seed_canaries(dst, &dst_plan)?;
            self.record_object_with_id(dst, info, dst_plan, dst_id);
            Ok(())
        })();
        if let Some(slot) = dst_slot {
            self.heap.pub_close(slot, win);
        }
        installed
    }

    fn plan_fitting(
        &mut self,
        info: &Arc<ClassInfo>,
        limit: usize,
    ) -> Result<Arc<LayoutPlan>, RuntimeError> {
        for _ in 0..8 {
            let plan = self.draw_plan(info);
            if plan.size() as usize <= limit {
                return Ok(plan);
            }
        }
        let fallback = LayoutEngine::new(RandomizationPolicy::permute_only())
            .generate(info, &mut self.rng);
        if fallback.size() as usize <= limit {
            return Ok(self.interner.intern(fallback));
        }
        Err(RuntimeError::Heap(polar_simheap::HeapError::Fault {
            addr: Addr::NULL,
            len: info.size() as usize,
        }))
    }

    /// Read the member's value (`olr_getptr` + load). For byte-array
    /// members wider than 8 bytes the first 8 bytes are returned.
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::olr_getptr`] plus heap faults.
    pub fn read_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
    ) -> Result<u64, RuntimeError> {
        let (addr, width) = self.getptr_core(base, expected, field, None)?;
        Ok(self.heap.read_uint(addr, width)?)
    }

    /// Write the member's value (`olr_getptr` + store).
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::olr_getptr`] plus heap faults.
    pub fn write_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        value: u64,
    ) -> Result<(), RuntimeError> {
        let (addr, width) = self.getptr_core(base, expected, field, None)?;
        // Bump the object's seqlock around the store so a concurrent
        // lock-free `read_field` retries instead of returning a torn
        // mix of old and new bytes.
        let slot = self.heap.slot_gen(base).map(|(s, _)| s);
        let win = slot.and_then(|s| self.heap.pub_open(s));
        let wrote = self.heap.write_uint(addr, value, width);
        if let Some(slot) = slot {
            self.heap.pub_close(slot, win);
        }
        Ok(wrote?)
    }

    /// Sweep the object's booby traps, returning every corrupted canary
    /// and counting them in the statistics.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownObject`] for untracked addresses.
    pub fn check_traps(&mut self, base: Addr) -> Result<Vec<TrapReport>, RuntimeError> {
        let reports = self.scan_traps(base)?;
        self.stats.trap_scans += 1;
        self.stats.traps_triggered += reports.len() as u64;
        self.stats.dummy_touches += reports.len() as u64;
        Ok(reports)
    }

    fn scan_traps(&self, base: Addr) -> Result<Vec<TrapReport>, RuntimeError> {
        let idx = match Self::probe(&self.heap, &self.shadow, base) {
            Probe::Hit(i) => i,
            Probe::Miss => return Err(RuntimeError::UnknownObject(base)),
        };
        Ok(self.scan_traps_at(idx, base))
    }

    /// [`ObjectRuntime::scan_traps`] for an already-probed shadow index
    /// (the free path resolved it moments earlier — no second probe).
    fn scan_traps_at(&self, idx: usize, base: Addr) -> Vec<TrapReport> {
        let meta = self.shadow[idx].meta.as_ref().expect("probe hit carries metadata");
        let mut reports = Vec::new();
        for dummy in meta.plan.dummies() {
            if let Some(expected) = dummy.canary {
                let width = canary_width(dummy.size);
                let found = self
                    .heap
                    .read_uint(base.offset(dummy.offset as u64), width)
                    .unwrap_or(0);
                let expected_trunc = truncate(expected, width);
                if found != expected_trunc {
                    reports.push(TrapReport {
                        base,
                        offset: dummy.offset,
                        expected: expected_trunc,
                        found,
                    });
                }
            }
        }
        reports
    }

    /// A raw *probe* read: `heap_read_uint` plus booby-trap screening.
    ///
    /// Attack probes read heap bytes at attacker-chosen (often
    /// misaligned) offsets. When `detect_probe_traps` is on and the read
    /// lands inside a tracked live object, the accessed byte range is
    /// checked against the object's plan: overlapping a canary-carrying
    /// dummy — a stored trap slot, or a stateless plan's *virtual* trap
    /// rederivable from the allocation identity — raises
    /// [`RuntimeError::TrapTriggered`] instead of returning the bytes,
    /// modeling traps that fault on access. Reads outside tracked
    /// objects, or with detection off, behave exactly like
    /// [`SimHeap::read_uint`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::TrapTriggered`] on trap overlap; heap faults
    /// propagate as [`RuntimeError::Heap`].
    pub fn probe_read_uint(&mut self, addr: Addr, width: usize) -> Result<u64, RuntimeError> {
        if self.config.detect_probe_traps {
            if let Some(report) = self.probe_trap_overlap(addr, width) {
                self.stats.probe_traps += 1;
                self.stats.traps_triggered += 1;
                self.stats.dummy_touches += 1;
                return Err(RuntimeError::TrapTriggered(report));
            }
        }
        Ok(self.heap.read_uint(addr, width)?)
    }

    /// The trap report for a probe of `[addr, addr+width)` overlapping a
    /// live tracked object's canary-carrying dummy, if any.
    fn probe_trap_overlap(&self, addr: Addr, width: usize) -> Option<TrapReport> {
        let block = self.heap.block_containing(addr)?;
        let idx = match Self::probe(&self.heap, &self.shadow, block.base) {
            Probe::Hit(i) => i,
            Probe::Miss => return None,
        };
        let meta = self.shadow[idx].meta.as_ref().expect("probe hit carries metadata");
        if meta.state != ObjectState::Live {
            return None;
        }
        let rel = addr.0 - block.base.0;
        let end = rel + width as u64;
        for dummy in meta.plan.dummies() {
            let Some(canary) = dummy.canary else { continue };
            let (lo, hi) = (u64::from(dummy.offset), u64::from(dummy.offset + dummy.size));
            if rel < hi && lo < end {
                let cw = canary_width(dummy.size);
                return Some(TrapReport {
                    base: block.base,
                    offset: dummy.offset,
                    expected: truncate(canary, cw),
                    found: self.heap.read_uint(addr, width).unwrap_or(0),
                });
            }
        }
        None
    }

    /// Allocate a raw (non-object) buffer: not randomized, not tracked.
    ///
    /// # Errors
    ///
    /// Propagates heap errors.
    pub fn malloc_raw(&mut self, size: usize) -> Result<Addr, RuntimeError> {
        Ok(self.heap.malloc(size)?)
    }

    /// Free a raw buffer allocated with [`ObjectRuntime::malloc_raw`].
    ///
    /// # Errors
    ///
    /// Propagates heap errors.
    pub fn free_raw(&mut self, addr: Addr) -> Result<(), RuntimeError> {
        Ok(self.heap.free(addr)?)
    }
}

/// Bytes one interned plan costs: offsets/sizes/aligns (3×u32/field),
/// the packed access table, dummy slots, and fixed header overhead.
fn plan_payload_bytes(p: &LayoutPlan) -> usize {
    3 * 4 * p.field_count()
        + std::mem::size_of::<FieldAccess>() * p.field_count()
        + 24 * p.dummies().len()
        + 32
}

/// Stored width of a dummy slot's canary. `pub(crate)` so the sharded
/// runtime's lock-free free path scans traps with byte-identical
/// semantics to [`ObjectRuntime::olr_free`]'s locked sweep.
pub(crate) fn canary_width(size: u32) -> usize {
    match size {
        1 | 2 | 4 | 8 => size as usize,
        s if s >= 8 => 8,
        _ => 1,
    }
}

/// Truncate an expected canary to its stored width (see
/// [`canary_width`]).
pub(crate) fn truncate(value: u64, width: usize) -> u64 {
    if width >= 8 {
        value
    } else {
        value & ((1u64 << (width * 8)) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_classinfo::{ClassDecl, FieldKind};
    use std::collections::HashSet;

    fn people() -> Arc<ClassInfo> {
        Arc::new(ClassInfo::from_decl(
            ClassDecl::builder("People")
                .field("vtable", FieldKind::VtablePtr)
                .field("age", FieldKind::I32)
                .field("height", FieldKind::I32)
                .build(),
        ))
    }

    fn confusable() -> (Arc<ClassInfo>, Arc<ClassInfo>) {
        let a = Arc::new(ClassInfo::from_decl(
            ClassDecl::builder("A")
                .field("x", FieldKind::I64)
                .field("y", FieldKind::I64)
                .field("fp", FieldKind::FnPtr)
                .build(),
        ));
        let b = Arc::new(ClassInfo::from_decl(
            ClassDecl::builder("B")
                .field("x", FieldKind::I64)
                .field("y", FieldKind::I64)
                .field("user_id", FieldKind::I64)
                .build(),
        ));
        (a, b)
    }

    fn polar_rt() -> ObjectRuntime {
        ObjectRuntime::new(RandomizeMode::per_allocation(), RuntimeConfig::default())
    }

    #[test]
    fn field_roundtrip_under_randomization() {
        let mut rt = polar_rt();
        let info = people();
        for _ in 0..20 {
            let obj = rt.olr_malloc(&info).unwrap();
            rt.write_field(obj, info.hash(), 1, 30).unwrap();
            rt.write_field(obj, info.hash(), 2, 170).unwrap();
            assert_eq!(rt.read_field(obj, info.hash(), 1).unwrap(), 30);
            assert_eq!(rt.read_field(obj, info.hash(), 2).unwrap(), 170);
            rt.olr_free(obj).unwrap();
        }
    }

    #[test]
    fn same_type_instances_get_diverse_layouts() {
        let mut rt = polar_rt();
        let info = people();
        let mut offsets = HashSet::new();
        let mut objs = Vec::new();
        for _ in 0..40 {
            let obj = rt.olr_malloc(&info).unwrap();
            let height = rt.olr_getptr(obj, info.hash(), 2).unwrap();
            offsets.insert(height.0 - obj.0);
            objs.push(obj);
        }
        assert!(offsets.len() > 1, "per-allocation randomization produced one layout");
    }

    #[test]
    fn static_olr_shares_one_layout_per_class() {
        let mut rt = ObjectRuntime::new(RandomizeMode::static_olr(9), RuntimeConfig::default());
        let info = people();
        let mut offsets = HashSet::new();
        for _ in 0..20 {
            let obj = rt.olr_malloc(&info).unwrap();
            offsets.insert(rt.olr_getptr(obj, info.hash(), 2).unwrap().0 - obj.0);
        }
        assert_eq!(offsets.len(), 1, "static OLR must be deterministic per class");
    }

    #[test]
    fn native_mode_uses_natural_offsets() {
        let mut rt = ObjectRuntime::new(RandomizeMode::Native, RuntimeConfig::default());
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        assert_eq!(rt.olr_getptr(obj, info.hash(), 2).unwrap().0 - obj.0, 12);
    }

    #[test]
    fn use_after_free_is_detected() {
        let mut rt = polar_rt();
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        rt.olr_free(obj).unwrap();
        let err = rt.olr_getptr(obj, info.hash(), 1).unwrap_err();
        assert!(matches!(err, RuntimeError::UseAfterFree { .. }));
        assert_eq!(rt.stats().uaf_detected, 1);
    }

    #[test]
    fn cache_does_not_mask_use_after_free() {
        let mut rt = polar_rt();
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        // Warm the cache, then free: the entry must be invalidated.
        rt.olr_getptr(obj, info.hash(), 1).unwrap();
        rt.olr_getptr(obj, info.hash(), 1).unwrap();
        assert!(rt.stats().cache_hits >= 1);
        rt.olr_free(obj).unwrap();
        assert!(matches!(
            rt.olr_getptr(obj, info.hash(), 1).unwrap_err(),
            RuntimeError::UseAfterFree { .. }
        ));
    }

    #[test]
    fn double_free_is_detected() {
        let mut rt = polar_rt();
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        rt.olr_free(obj).unwrap();
        assert!(matches!(rt.olr_free(obj).unwrap_err(), RuntimeError::DoubleFree(_)));
    }

    #[test]
    fn type_confusion_is_detected_when_enabled() {
        let mut rt = polar_rt();
        let (a, b) = confusable();
        let obj_b = rt.olr_malloc(&b).unwrap();
        // The site believes obj_b is an A (the paper's Section III-A1
        // scenario) and reaches for the function pointer member.
        let err = rt.olr_getptr(obj_b, a.hash(), 2).unwrap_err();
        assert!(matches!(err, RuntimeError::ClassMismatch { .. }));
        assert_eq!(rt.stats().mismatch_detected, 1);
    }

    #[test]
    fn type_confusion_without_detection_resolves_through_actual_plan() {
        let mut config = RuntimeConfig::default();
        config.detect_class_mismatch = false;
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
        let (a, b) = confusable();
        let obj_b = rt.olr_malloc(&b).unwrap();
        let addr = rt.olr_getptr(obj_b, a.hash(), 2).unwrap();
        // Resolution lands inside the B object's (randomized) extent.
        let plan_size = rt.object_meta(obj_b).unwrap().plan.size() as u64;
        assert!(addr.0 >= obj_b.0 && addr.0 < obj_b.0 + plan_size);
        assert_eq!(rt.stats().mismatch_detected, 1);
    }

    #[test]
    fn booby_trap_fires_on_overflow_at_free() {
        let mut rt = polar_rt();
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        // Simulate a buffer overflow smashing the whole object.
        let size = rt.object_meta(obj).unwrap().plan.size() as usize;
        rt.heap_mut().memset(obj, 0x41, size).unwrap();
        let err = rt.olr_free(obj).unwrap_err();
        assert!(matches!(err, RuntimeError::TrapTriggered(_)));
    }

    #[test]
    fn check_traps_reports_and_counts() {
        let mut rt = polar_rt();
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        assert!(rt.check_traps(obj).unwrap().is_empty());
        let dummy = rt.object_meta(obj).unwrap().plan.dummies()[0];
        rt.heap_mut()
            .write_u64(obj.offset(dummy.offset as u64), 0x4242_4242)
            .unwrap();
        let reports = rt.check_traps(obj).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].offset, dummy.offset);
        assert_eq!(rt.stats().traps_triggered, 1);
    }

    #[test]
    fn memcpy_rerandomizes_the_duplicate() {
        let mut rt = polar_rt();
        let info = people();
        let src = rt.olr_malloc(&info).unwrap();
        rt.write_field(src, info.hash(), 1, 30).unwrap();
        rt.write_field(src, info.hash(), 2, 170).unwrap();
        // Raw destination buffer: no object metadata yet.
        let dst = rt.malloc_raw(128).unwrap();
        rt.olr_memcpy(dst, src, &info).unwrap();
        // The duplicate has metadata and field values survive the
        // plan-to-plan translation.
        assert!(rt.object_meta(dst).is_some());
        assert_eq!(rt.read_field(dst, info.hash(), 1).unwrap(), 30);
        assert_eq!(rt.read_field(dst, info.hash(), 2).unwrap(), 170);
        assert_eq!(rt.stats().memcpys, 1);
    }

    #[test]
    fn memcpy_without_rerandomization_shares_the_plan() {
        let mut config = RuntimeConfig::default();
        config.memcpy_rerandomize = false;
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
        let info = people();
        let src = rt.olr_malloc(&info).unwrap();
        let dst = rt.malloc_raw(128).unwrap();
        rt.olr_memcpy(dst, src, &info).unwrap();
        let src_plan = rt.object_meta(src).unwrap().plan.plan_hash();
        let dst_plan = rt.object_meta(dst).unwrap().plan.plan_hash();
        assert_eq!(src_plan, dst_plan);
    }

    #[test]
    fn memcpy_in_place_rerandomization_preserves_fields() {
        // Regression test for the overlapping-copy bug: `olr_memcpy(p, p,
        // …)` rerandomizes a buffer in place (deserialized natural-layout
        // bytes get a fresh randomized plan at the same address). The old
        // per-field memmove loop wrote each field to its dst offset
        // before reading the next, so any dst plan that moved an early
        // field onto a later field's source bytes corrupted the object.
        let mut rt = polar_rt();
        let info = people();
        let natural = LayoutPlan::natural_for(&info);
        for round in 0..20u64 {
            let buf = rt.malloc_raw(128).unwrap();
            // Seed natural-layout field values, as a deserializer would.
            for field in 0..natural.field_count() {
                rt.heap_mut()
                    .write_uint(
                        buf.offset(natural.offset(field) as u64),
                        1000 + round * 10 + field as u64,
                        natural.field_size(field).min(8) as usize,
                    )
                    .unwrap();
            }
            rt.olr_memcpy(buf, buf, &info).unwrap();
            for field in 0..natural.field_count() {
                assert_eq!(
                    rt.read_field(buf, info.hash(), field).unwrap(),
                    1000 + round * 10 + field as u64,
                    "round {round}: field {field} corrupted by in-place rerandomization"
                );
            }
            rt.olr_free(buf).unwrap();
        }
    }

    #[test]
    fn memcpy_with_partial_overlap_preserves_fields() {
        // Same bug, other shape: the source is an interior pointer into
        // the destination block, so the two field ranges overlap without
        // being identical.
        let mut rt = polar_rt();
        let info = people();
        let natural = LayoutPlan::natural_for(&info);
        for round in 0..20u64 {
            let buf = rt.malloc_raw(128).unwrap();
            let src = buf.offset(16);
            for field in 0..natural.field_count() {
                rt.heap_mut()
                    .write_uint(
                        src.offset(natural.offset(field) as u64),
                        2000 + round * 10 + field as u64,
                        natural.field_size(field).min(8) as usize,
                    )
                    .unwrap();
            }
            rt.olr_memcpy(buf, src, &info).unwrap();
            for field in 0..natural.field_count() {
                assert_eq!(
                    rt.read_field(buf, info.hash(), field).unwrap(),
                    2000 + round * 10 + field as u64,
                    "round {round}: field {field} corrupted by overlapping copy"
                );
            }
            rt.olr_free(buf).unwrap();
        }
    }

    #[test]
    fn memcpy_from_freed_source_is_detected() {
        let mut rt = polar_rt();
        let info = people();
        let src = rt.olr_malloc(&info).unwrap();
        let dst = rt.malloc_raw(128).unwrap();
        rt.olr_free(src).unwrap();
        assert!(matches!(
            rt.olr_memcpy(dst, src, &info).unwrap_err(),
            RuntimeError::UseAfterFree { .. }
        ));
    }

    #[test]
    fn cache_hits_accumulate() {
        let mut rt = polar_rt();
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        for _ in 0..100 {
            rt.read_field(obj, info.hash(), 1).unwrap();
        }
        let stats = rt.stats();
        assert_eq!(stats.member_accesses, 100);
        assert_eq!(stats.cache_hits, 99);
    }

    #[test]
    fn disabling_the_cache_forces_metadata_lookups() {
        let mut config = RuntimeConfig::default();
        config.offset_cache = false;
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        for _ in 0..10 {
            rt.read_field(obj, info.hash(), 1).unwrap();
        }
        assert_eq!(rt.stats().cache_hits, 0);
    }

    #[test]
    fn field_out_of_bounds_is_rejected() {
        let mut rt = polar_rt();
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        assert!(matches!(
            rt.olr_getptr(obj, info.hash(), 99).unwrap_err(),
            RuntimeError::FieldOutOfBounds { .. }
        ));
    }

    #[test]
    fn unknown_object_is_rejected() {
        let mut rt = polar_rt();
        let info = people();
        assert!(matches!(
            rt.olr_getptr(Addr(0x9999), info.hash(), 0).unwrap_err(),
            RuntimeError::UnknownObject(_)
        ));
    }

    #[test]
    fn plan_dedup_shows_up_in_stats() {
        let mut rt = polar_rt();
        // A one-field class has very few distinct plans; allocate a lot.
        let tiny = Arc::new(ClassInfo::from_decl(
            ClassDecl::builder("Tiny").field("x", FieldKind::I64).build(),
        ));
        for _ in 0..100 {
            rt.olr_malloc(&tiny).unwrap();
        }
        let stats = rt.stats();
        assert_eq!(stats.allocations, 100);
        assert!(stats.unique_plans < 100, "dedup had no effect");
        assert!(stats.dedup_saved > 0);
    }

    #[test]
    fn slot_reuse_replaces_metadata_with_new_generation() {
        let mut rt = polar_rt();
        let info = people();
        let a = rt.olr_malloc(&info).unwrap();
        let gen1 = rt.object_meta(a).unwrap().generation;
        rt.olr_free(a).unwrap();
        let b = rt.olr_malloc(&info).unwrap();
        assert_eq!(a, b, "allocator should reuse the slot");
        let meta = rt.object_meta(b).unwrap();
        assert_eq!(meta.state, ObjectState::Live);
        assert!(meta.generation > gen1);
        // The dangling pointer now resolves against the NEW object's
        // random layout — no detection, but no determinism either.
        assert!(rt.olr_getptr(a, info.hash(), 2).is_ok());
    }

    #[test]
    fn raw_allocations_are_untracked() {
        let mut rt = polar_rt();
        let buf = rt.malloc_raw(64).unwrap();
        assert!(rt.object_meta(buf).is_none());
        rt.free_raw(buf).unwrap();
        assert_eq!(rt.stats().allocations, 0);
    }

    #[test]
    fn compile_time_plans_follow_the_mode() {
        let info = people();
        // Native & POLaR binaries bake natural offsets into leftover
        // (non-instrumented) sites.
        let mut rt = ObjectRuntime::new(RandomizeMode::Native, RuntimeConfig::default());
        assert!(rt.compile_time_plan(&info).is_natural());
        let mut rt =
            ObjectRuntime::new(RandomizeMode::per_allocation(), RuntimeConfig::default());
        assert!(rt.compile_time_plan(&info).is_natural());
        // Static-OLR binaries bake the per-binary permutation — stable
        // across calls within one "binary".
        let mut rt = ObjectRuntime::new(RandomizeMode::static_olr(5), RuntimeConfig::default());
        let a = rt.compile_time_plan(&info).plan_hash();
        let b = rt.compile_time_plan(&info).plan_hash();
        assert_eq!(a, b);
    }

    #[test]
    fn memcpy_from_untracked_source_uses_the_site_class() {
        // Deserialized bytes: the source is a raw buffer laid out
        // naturally; the copy site's compile-time class interprets it.
        let mut rt = polar_rt();
        let info = people();
        let src = rt.malloc_raw(64).unwrap();
        // Write field values at their natural offsets.
        rt.heap_mut().write_uint(src.offset(8), 33, 4).unwrap(); // age
        rt.heap_mut().write_uint(src.offset(12), 180, 4).unwrap(); // height
        let dst = rt.malloc_raw(128).unwrap();
        rt.olr_memcpy(dst, src, &info).unwrap();
        assert_eq!(rt.read_field(dst, info.hash(), 1).unwrap(), 33);
        assert_eq!(rt.read_field(dst, info.hash(), 2).unwrap(), 180);
        // The duplicate is tracked and randomized.
        assert!(rt.object_meta(dst).is_some());
    }

    #[test]
    fn metadata_accounting_is_populated() {
        let mut rt = polar_rt();
        let info = people();
        for _ in 0..10 {
            rt.olr_malloc(&info).unwrap();
        }
        assert_eq!(rt.meta_records(), 10);
        let bytes = rt.estimated_metadata_bytes();
        assert!(bytes > 0);
        // More allocations → no fewer bookkeeping bytes.
        for _ in 0..10 {
            rt.olr_malloc(&info).unwrap();
        }
        assert!(rt.estimated_metadata_bytes() >= bytes);
        assert_eq!(rt.meta_records(), 20);
    }

    #[test]
    fn raw_reuse_invalidates_stale_metadata() {
        // An object's block recycled through the *raw* path (free_raw +
        // malloc_raw — paths the instrumentation does not see) must not
        // leave metadata that resolves the old randomized plan for the
        // new occupant: the generation stamp self-invalidates the record.
        let mut rt = polar_rt();
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        // Re-request the block's own size: the stateless path mallocs
        // the identity-independent bound, which can exceed plan.size().
        let size = rt.heap().block_at(obj).unwrap().requested;
        rt.free_raw(obj).unwrap();
        let buf = rt.malloc_raw(size).unwrap();
        assert_eq!(obj, buf, "allocator should reuse the slot");
        assert!(rt.object_meta(buf).is_none(), "stale record must not be visible");
        assert!(matches!(
            rt.olr_getptr(obj, info.hash(), 1).unwrap_err(),
            RuntimeError::UnknownObject(_)
        ));
        // And olr_free on the raw occupant behaves like plain free().
        rt.olr_free(buf).unwrap();
        assert_eq!(rt.stats().frees, 0, "raw frees are not counted as object frees");
    }

    #[test]
    fn shadow_counters_track_probe_outcomes() {
        let mut rt = polar_rt();
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        for _ in 0..3 {
            rt.olr_getptr(obj, info.hash(), 1).unwrap();
        }
        assert!(rt.olr_getptr(Addr(0x9999), info.hash(), 0).is_err());
        let stats = rt.stats();
        assert_eq!(stats.shadow_hits, 3);
        assert_eq!(stats.shadow_misses, 1);
        assert_eq!(stats.member_accesses, 4);
    }

    #[test]
    fn site_inline_cache_hits_after_first_access() {
        let mut rt = polar_rt();
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        let truth = obj.offset(rt.object_meta(obj).unwrap().plan.offset(2) as u64);
        let mut ic = SiteCache::empty();
        for _ in 0..10 {
            assert_eq!(rt.olr_getptr_ic(obj, info.hash(), 2, &mut ic).unwrap(), truth);
        }
        let stats = rt.stats();
        assert_eq!(stats.site_ic_misses, 1, "only the install access misses");
        assert_eq!(stats.site_ic_hits, 9);
        // Section V-B cache counters keep exactly the non-IC semantics.
        assert_eq!(stats.member_accesses, 10);
        assert_eq!(stats.cache_hits, 9);
    }

    #[test]
    fn site_inline_cache_respects_disabled_offset_cache() {
        let mut config = RuntimeConfig::default();
        config.offset_cache = false;
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        let mut ic = SiteCache::empty();
        for _ in 0..5 {
            rt.olr_getptr_ic(obj, info.hash(), 1, &mut ic).unwrap();
        }
        let stats = rt.stats();
        assert_eq!(stats.site_ic_hits, 0);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn site_inline_cache_does_not_mask_use_after_free() {
        let mut rt = polar_rt();
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        let mut ic = SiteCache::empty();
        rt.olr_getptr_ic(obj, info.hash(), 1, &mut ic).unwrap();
        rt.olr_getptr_ic(obj, info.hash(), 1, &mut ic).unwrap();
        assert!(rt.stats().site_ic_hits >= 1, "cache must be warm before the free");
        rt.olr_free(obj).unwrap();
        assert!(matches!(
            rt.olr_getptr_ic(obj, info.hash(), 1, &mut ic).unwrap_err(),
            RuntimeError::UseAfterFree { .. }
        ));
        assert_eq!(rt.stats().uaf_detected, 1);
    }

    #[test]
    fn site_inline_cache_follows_plan_changes() {
        // One static site iterating over many objects of the same class:
        // whenever the cached plan differs from the probed object's plan,
        // the IC must fall back and resolve the object's own layout.
        let mut rt = polar_rt();
        let info = people();
        let objs: Vec<Addr> = (0..16).map(|_| rt.olr_malloc(&info).unwrap()).collect();
        let mut ic = SiteCache::empty();
        for &obj in &objs {
            let via_ic = rt.olr_getptr_ic(obj, info.hash(), 2, &mut ic).unwrap();
            let truth = rt.object_meta(obj).unwrap().plan.offset(2) as u64;
            assert_eq!(via_ic.0 - obj.0, truth);
        }
    }

    #[test]
    fn site_inline_cache_invalidated_by_slot_reuse() {
        // free + remalloc at the same base gives the slot a new plan; an
        // IC warmed on the old object must miss (plan hash changed) and
        // resolve through the new object's layout.
        let mut rt = polar_rt();
        let info = people();
        let a = rt.olr_malloc(&info).unwrap();
        let mut ic = SiteCache::empty();
        rt.olr_getptr_ic(a, info.hash(), 2, &mut ic).unwrap();
        rt.olr_free(a).unwrap();
        let b = rt.olr_malloc(&info).unwrap();
        assert_eq!(a, b, "allocator should reuse the slot");
        let via_ic = rt.olr_getptr_ic(b, info.hash(), 2, &mut ic).unwrap();
        let truth = rt.object_meta(b).unwrap().plan.offset(2) as u64;
        assert_eq!(via_ic.0 - b.0, truth);
    }

    #[test]
    fn access_width_matches_plan_table() {
        // read_field/write_field width comes from the packed access
        // table; round-trip a narrow field to confirm no widening writes.
        let mut rt = polar_rt();
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        rt.write_field(obj, info.hash(), 1, u64::MAX).unwrap();
        // age is an i32 field: the stored value must be truncated to 4
        // bytes, not clobber 8.
        assert_eq!(rt.read_field(obj, info.hash(), 1).unwrap(), u64::from(u32::MAX));
    }

    #[test]
    fn mode_labels() {
        assert_eq!(RandomizeMode::Native.label(), "native");
        assert_eq!(RandomizeMode::static_olr(1).label(), "static-olr");
        assert_eq!(RandomizeMode::per_allocation().label(), "polar");
    }

    #[test]
    fn pool_counters_populate_under_the_default_policy() {
        // The pooled path now serves classes the stateless default does
        // not claim; route the small test class to it explicitly.
        let mut config = RuntimeConfig::default();
        config.stateless = StatelessPolicy::off();
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
        let info = people();
        for _ in 0..200 {
            let obj = rt.olr_malloc(&info).unwrap();
            rt.olr_free(obj).unwrap();
        }
        let stats = rt.stats();
        // Steady state: most draws are pool hits, refills stay rare.
        assert!(stats.pool_hits > 150, "pool_hits {}", stats.pool_hits);
        assert!(stats.pool_refills > 0);
        assert!(stats.pool_refills < 30, "pool_refills {}", stats.pool_refills);
    }

    #[test]
    fn disabling_the_pool_restores_per_allocation_generation() {
        let mut config = RuntimeConfig::default();
        config.pool = PoolPolicy::disabled();
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
        let info = people();
        let mut offsets = HashSet::new();
        for _ in 0..40 {
            let obj = rt.olr_malloc(&info).unwrap();
            offsets.insert(rt.olr_getptr(obj, info.hash(), 2).unwrap().0 - obj.0);
        }
        assert!(offsets.len() > 1);
        let stats = rt.stats();
        assert_eq!(stats.pool_hits, 0);
        assert_eq!(stats.pool_refills, 0);
    }

    #[test]
    fn pool_does_not_affect_static_or_native_modes() {
        for mode in [RandomizeMode::Native, RandomizeMode::static_olr(9)] {
            let mut rt = ObjectRuntime::new(mode, RuntimeConfig::default());
            let info = people();
            let obj = rt.olr_malloc(&info).unwrap();
            rt.olr_free(obj).unwrap();
            assert_eq!(rt.stats().pool_hits, 0);
            assert_eq!(rt.stats().pool_refills, 0);
        }
    }

    #[test]
    fn stateless_path_roundtrips_and_rederives() {
        // Stateless is the default for small classes now.
        let mut rt = polar_rt();
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        assert_eq!(rt.stats().stateless_allocs, 1);
        rt.write_field(obj, info.hash(), 1, 28).unwrap();
        rt.write_field(obj, info.hash(), 2, 175).unwrap();
        assert_eq!(rt.read_field(obj, info.hash(), 1).unwrap(), 28);
        assert_eq!(rt.read_field(obj, info.hash(), 2).unwrap(), 175);
        // The stored plan is a cache over a pure derivation: recomputing
        // from (epoch key, generation, slot) reproduces it exactly —
        // virtual trap geometry included.
        let (slot, generation) = rt.heap().slot_gen(obj).unwrap();
        let meta = rt.object_meta(obj).unwrap();
        let traps = meta.plan.dummies().len();
        assert!((1..=3).contains(&traps), "virtual traps derived: {traps}");
        let rederived = polar_layout::stateless_trapped_plan(&info, rt.epoch_key, generation, slot);
        assert_eq!(meta.plan.plan_hash(), rederived.plan_hash());
        // And with traps off, the permute-only reference matches.
        let mut config = RuntimeConfig::default();
        config.stateless = StatelessPolicy::permute_only();
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
        let obj = rt.olr_malloc(&info).unwrap();
        let (slot, generation) = rt.heap().slot_gen(obj).unwrap();
        let meta = rt.object_meta(obj).unwrap();
        assert_eq!(meta.plan.dummies().len(), 0, "permute-only ablation has no traps");
        let rederived = polar_layout::stateless_plan(&info, rt.epoch_key, generation, slot);
        assert_eq!(meta.plan.plan_hash(), rederived.plan_hash());
    }

    #[test]
    fn stateless_probe_trap_detects_overlap() {
        let mut rt = polar_rt();
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        let plan = Arc::clone(&rt.object_meta(obj).unwrap().plan);
        // A probe overlapping a virtual trap slot trips detection...
        let dummy = plan.dummies()[0];
        let err = rt.probe_read_uint(obj.offset(u64::from(dummy.offset)), 8).unwrap_err();
        assert!(matches!(err, RuntimeError::TrapTriggered(_)), "got {err:?}");
        assert_eq!(rt.stats().probe_traps, 1);
        // ...while probing a real field's exact bytes does not.
        rt.write_field(obj, info.hash(), 1, 77).unwrap();
        let off = u64::from(plan.offset(1));
        let w = plan.field_size(1) as usize;
        assert_eq!(rt.probe_read_uint(obj.offset(off), w).unwrap(), 77);
        // With detection off the same probe reads the canary bytes raw.
        let mut config = RuntimeConfig::default();
        config.detect_probe_traps = false;
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
        let obj = rt.olr_malloc(&info).unwrap();
        let plan = Arc::clone(&rt.object_meta(obj).unwrap().plan);
        let dummy = plan.dummies()[0];
        assert!(rt.probe_read_uint(obj.offset(u64::from(dummy.offset)), 8).is_ok());
        assert_eq!(rt.stats().probe_traps, 0);
    }

    #[test]
    fn stateless_slot_reuse_rerandomizes_via_generation() {
        let mut rt = polar_rt();
        let info = people();
        // free + remalloc reuses the slot with a bumped generation, so
        // the derived permutation changes without any stored state.
        let mut hashes = HashSet::new();
        let mut obj = rt.olr_malloc(&info).unwrap();
        for _ in 0..12 {
            hashes.insert(rt.object_meta(obj).unwrap().plan.plan_hash());
            rt.olr_free(obj).unwrap();
            let next = rt.olr_malloc(&info).unwrap();
            assert_eq!(obj, next, "allocator should reuse the slot");
            obj = next;
        }
        assert!(hashes.len() > 1, "generation bump must re-randomize");
    }

    #[test]
    fn stateless_path_skips_large_classes() {
        let mut rt = polar_rt();
        let mut b = ClassDecl::builder("Big");
        for i in 0..12 {
            b = b.field(format!("f{i}"), FieldKind::I64);
        }
        let big = Arc::new(ClassInfo::from_decl(b.build()));
        let obj = rt.olr_malloc(&big).unwrap();
        // Large classes keep the engine path: dummies (and their traps)
        // are still woven in under the default policy.
        assert!(!rt.object_meta(obj).unwrap().plan.dummies().is_empty());
    }

    #[test]
    fn metadata_accounting_counts_static_table_and_pools() {
        // The old accounting ignored the static-OLR table entirely (the
        // "256 B" undercount) and knew nothing of pools.
        let info = people();
        let mut st = ObjectRuntime::new(RandomizeMode::static_olr(3), RuntimeConfig::default());
        let baseline = st.estimated_metadata_bytes();
        st.olr_malloc(&info).unwrap();
        let with_plan = st.estimated_metadata_bytes();
        assert!(
            with_plan > baseline + plan_payload_bytes(&st.compile_time_plan(&info)) - 1,
            "static table plans must be counted: {baseline} -> {with_plan}"
        );
        let mut config = RuntimeConfig::default();
        config.stateless = StatelessPolicy::off();
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
        rt.olr_malloc(&info).unwrap();
        assert!(rt.pools.metadata_bytes() > 0);
        assert!(rt.estimated_metadata_bytes() > rt.pools.metadata_bytes());
        // The stateless default's own bookkeeping is counted too.
        let mut rt = polar_rt();
        let before = rt.estimated_metadata_bytes();
        rt.olr_malloc(&info).unwrap();
        assert!(rt.stateless.metadata_bytes() > 0);
        assert!(rt.estimated_metadata_bytes() > before);
    }

    #[test]
    fn placement_seed_derives_from_the_runtime_seed() {
        use polar_simheap::PlacementPolicy;

        let mut config = RuntimeConfig::default();
        config.heap.placement =
            PlacementPolicy { shuffle_depth: 8, guard_gap_bits: 4, ..Default::default() };
        let seeded = |seed: u64| {
            let mut c = config;
            c.seed = seed;
            ObjectRuntime::new(RandomizeMode::per_allocation(), c)
        };
        let a = seeded(1);
        assert_ne!(a.heap().config().placement.seed, 0, "a placement seed must be derived");
        // Same runtime seed → same placement stream → same addresses.
        let trace = |mut rt: ObjectRuntime| -> Vec<u64> {
            let info = people();
            let mut out = Vec::new();
            for _ in 0..32 {
                let a = rt.olr_malloc(&info).unwrap();
                out.push(a.0);
                rt.olr_free(a).unwrap();
            }
            out
        };
        assert_eq!(trace(a), trace(seeded(1)), "placement replay must follow the seed");
        assert_ne!(trace(seeded(1)), trace(seeded(2)), "distinct seeds must diverge");
        // An explicit placement seed is left untouched.
        let mut c = config;
        c.heap.placement.seed = 77;
        let rt = ObjectRuntime::new(RandomizeMode::per_allocation(), c);
        assert_eq!(rt.heap().config().placement.seed, 77);
    }
}
