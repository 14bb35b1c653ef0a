//! The object runtime: per-slot object records, offset cache, and the
//! four instrumented entry points.
//!
//! An object's metadata is one record: the heap slot record of its block
//! ([`polar_simheap::SlotRecords`]), holding class hash, plan hash, plan
//! registry id, lifecycle state, the offset-cache warm flag and the
//! record generation next to the block's own identity. The locked paths
//! here write that record directly and, like a sharded runtime's
//! lock-free readers, read it as a seqlock snapshot that the one access
//! classifier ([`crate::classify`]) decides every access on. Plans are
//! named by their id in the runtime's [`PlanRegistry`], the one owner of
//! every plan: a standalone runtime's interner owns a private registry,
//! the shards of a sharded runtime share one. Every path resolves a
//! record's id in that registry — a standalone runtime's locked paths, a
//! shard's, and a sharded runtime's lock-free readers alike; the plan
//! sources (interner, pooled rings, static table) hand out ids too.

use std::sync::Arc;

use polar_classinfo::{ClassHash, ClassInfo};
use polar_layout::{
    code_rank, code_space, stateless_bound, CanaryKey, DerivedLayout, DummySlot, EpochKey,
    FieldAccess, LayoutEngine, LayoutPlan, PermBlock, PlanHash, PlanInterner, PlanPools,
    PlanRegistry, RandomizationPolicy, RoundKeys, StaticOlrTable, STATELESS_MAX_FIELDS,
    TRAP_SLOT_BYTES,
};
use polar_rng::{BufferedRng, Rng, SeedableRng, SplitMix64};
use polar_simheap::{Addr, BlockState, HeapConfig, SimHeap, PUB_STATE_FREED};

use crate::classify::{scan_traps, Access, RecordView};
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

/// Where `PerAllocation` layouts come from: the allocation fast paths
/// of Section V-B. Each variant is one combination of plan sources the
/// runtime is run with; per class, one function picks the source that
/// serves an allocation, on every runtime surface. Other modes ignore
/// it: their layouts are fixed by the mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutSource {
    /// The default. Classes of at most [`STATELESS_MAX_FIELDS`] fields
    /// derive their layout from heap identity (slot, generation, epoch
    /// key) through a keyed Feistel network, SPAM-style, with virtual
    /// booby traps, so they keep trap coverage at ~zero per-object
    /// metadata. Wider classes draw from the pooled ring.
    #[default]
    Derived,
    /// As [`LayoutSource::Derived`] without virtual traps: the original
    /// permute-only space/detection trade, kept as a measured ablation.
    DerivedUntrapped,
    /// Every class draws from its ring of
    /// [`POOL_SIZE`](polar_layout::POOL_SIZE) pregenerated, interned
    /// plans (one buffered-RNG index per allocation, one entry
    /// regenerated every [`POOL_CHURN`](polar_layout::POOL_CHURN)
    /// draws). The stateful rows of the security scorecard run here.
    Pooled,
    /// Every allocation generates a fresh plan: no pools, no derivation.
    Fresh,
}

/// The source that serves one allocation, as [`plan_source`] decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanSource {
    /// The mode fixes the layout: natural (native) or the binary's
    /// per-class plan (static OLR).
    Mode,
    /// Derived from heap identity, with or without virtual traps.
    Derived {
        /// Whether the derived plan interleaves virtual trap slots.
        traps: bool,
    },
    /// Drawn from the class's pooled ring.
    Pooled,
    /// Generated for this allocation alone.
    Fresh,
}

/// Which source serves an allocation of a `fields`-field class under
/// `mode` and `layout`: the one decision both runtime surfaces
/// ([`ObjectRuntime`] and [`ShardHandle`](crate::ShardHandle)) make.
#[inline]
pub(crate) fn plan_source(mode: &RandomizeMode, layout: LayoutSource, fields: usize) -> PlanSource {
    if !matches!(mode, RandomizeMode::PerAllocation { .. }) {
        return PlanSource::Mode;
    }
    let small = fields <= STATELESS_MAX_FIELDS;
    match layout {
        LayoutSource::Derived if small => PlanSource::Derived { traps: true },
        LayoutSource::DerivedUntrapped if small => PlanSource::Derived { traps: false },
        LayoutSource::Fresh => PlanSource::Fresh,
        _ => PlanSource::Pooled,
    }
}

/// Runtime configuration: the detections, plan sources and fast paths
/// of Sections IV–VI of the paper. DESIGN.md's knob table lists every
/// value and who sets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Simulated-heap configuration. A non-zero `heap.redzone` also arms
    /// the redzone checks ([`RuntimeConfig::redzone_checks`]).
    pub heap: HeapConfig,
    /// Seed for the runtime's plan RNG (the process's secret entropy).
    pub seed: u64,
    /// Arm the runtime's detections: class-mismatch and use-after-free
    /// checks on member accesses, booby-trap canary checks on free, and
    /// trap checks on raw probe reads (`probe_read_uint`: a read
    /// overlapping a canary-carrying dummy, stored or derived, trips
    /// [`RuntimeError::TrapTriggered`] instead of leaking bytes, modeling
    /// trap slots mapped unreadable). Off isolates the purely
    /// probabilistic layout defense: a confused or dangling access
    /// resolves through the object's actual plan.
    pub detect: bool,
    /// Enable the hashtable offset-lookup cache (Section V-B).
    pub offset_cache: bool,
    /// Where per-allocation layouts come from; see [`LayoutSource`].
    /// Only affects `PerAllocation` mode.
    pub layout: LayoutSource,
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

impl RuntimeConfig {
    /// Whether ASan-style redzone checks are enforced: every raw
    /// load/store/copy must stay inside its heap block. On exactly when
    /// the heap leaves redzones between blocks. Models the redzone-based
    /// defenses of the paper's Section VII-C, which stop *inter*-object
    /// overflows but, unlike POLaR, cannot see *in-object* ones.
    pub fn redzone_checks(&self) -> bool {
        self.heap.redzone > 0
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            heap: HeapConfig::default(),
            seed: 0x504f_4c61_52_u64, // "POLaR"
            detect: true,
            offset_cache: true,
            layout: LayoutSource::Derived,
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

/// Capsules per refill of the default [`MagazinePolicy`].
pub(crate) const DEFAULT_BATCH: usize = 32;

impl Default for MagazinePolicy {
    fn default() -> Self {
        MagazinePolicy { batch: DEFAULT_BATCH }
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

/// A by-value view of one object's metadata: the paper's Figure 4
/// record (`base addr → class hash, layout ptr`), read from the object's
/// slot record with its plan resolved by registry id.
#[derive(Debug, Clone)]
pub struct ObjectMeta {
    /// The object's class.
    pub class: ClassHash,
    /// The (possibly shared, interned) layout plan.
    pub plan: Arc<LayoutPlan>,
    /// Lifecycle state.
    pub state: ObjectState,
    /// Bumped every time an object is recorded at the base address.
    pub generation: u64,
}

/// A pre-reserved allocation: the product of [`ObjectRuntime`]'s
/// reserve paths, held in a [`ShardHandle`](crate::ShardHandle)
/// magazine until a thread pops it as an `olr_malloc` result. The
/// object is fully armed at reserve time — block allocated, canaries
/// seeded, slot record written, state `Live` — so popping is pure
/// bookkeeping and the capsule's address is indistinguishable from a
/// mutex-path allocation to every reader.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Capsule {
    /// Base address of the reserved block.
    pub base: Addr,
    /// Heap slot id of the block.
    pub slot: u32,
}

/// One entry of the runtime's class table: the class itself (object
/// copies read a source's class from here, by the hash its record
/// carries), its live object count and, for classes on the stateless
/// path, their derived-layout cache.
#[derive(Debug)]
struct ClassEntry {
    info: Arc<ClassInfo>,
    /// Records of this class installed and not yet retired on this
    /// runtime. It sizes the class's layout memo, nothing else; a raw
    /// free of a tracked block retires no record, so it may read high.
    live: u32,
    stateless: Option<StatelessClassCache>,
}

/// Per-class state of the stateless path: the block size bound and,
/// once the class has as many live objects as permutation codes, a
/// memo of its derived layouts.
///
/// The memo has one [`MemoEntry`] per code ([`code_space`]`(n)` = `n!`),
/// indexed by the permutation's Lehmer rank ([`code_rank`]). A hit arms
/// the object from the entry alone; a miss lays the code out on the
/// stack, hashes it, probes the interner (building a plan only for a
/// layout never interned) and fills the entry. It is built when a
/// reservation finds `n!` live objects of the class, so it never costs
/// more than 16 B per live object, or at the class's first reservation
/// when it has at most [`UNGATED_CODES`] codes; once built it stays.
/// Below the gate every reservation takes the miss path without a memo.
#[derive(Debug)]
struct StatelessClassCache {
    /// Identity-independent block size bound (traps included per
    /// config), computed once per class.
    bound: u32,
    fields: u8,
    /// Memoized layouts by Lehmer rank; empty below the live gate.
    memo: Box<[MemoEntry]>,
}

/// Code spaces small enough to memoize from a class's first
/// reservation: `4! = 24` codes, a 384 B memo, which a class of at most
/// 4 fields churning a single object repays at once.
const UNGATED_CODES: usize = 24;

impl StatelessClassCache {
    fn new(bound: u32, fields: u8) -> Self {
        StatelessClassCache { bound, fields, memo: Box::new([]) }
    }
}

/// One memoized derived layout: what arming an object of it takes, so
/// a hit derives, hashes, probes and reads no plan.
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    /// The layout's content hash: the record's plan hash and the key of
    /// its trap canaries ([`CanaryKey::canary`]).
    hash: PlanHash,
    /// The registry id of the plan interned under `hash`; `u32::MAX`,
    /// which the registry never mints, marks a vacant entry.
    plan_id: u32,
    /// The trap count, then each trap's offset in 8-byte slots, in
    /// memory order.
    traps: [u8; 4],
}

const _: () = assert!(std::mem::size_of::<MemoEntry>() == 16);

impl MemoEntry {
    const VACANT: MemoEntry = MemoEntry { hash: PlanHash(0), plan_id: u32::MAX, traps: [0; 4] };

    /// The entry of `shape`, interned as `plan_id`, if its trap geometry
    /// fits: every trap (an 8-byte slot, 8-byte aligned) at an offset
    /// below 2 KiB. A wide `Bytes` field ahead of a trap can push it past
    /// that; such a layout is left vacant and always derived.
    fn of(shape: &DerivedLayout, plan_id: u32) -> Option<Self> {
        let mut traps = [shape.traps().len() as u8, 0, 0, 0];
        for (at, trap) in traps[1..].iter_mut().zip(shape.traps()) {
            debug_assert_eq!((trap.size, trap.offset % TRAP_SLOT_BYTES), (TRAP_SLOT_BYTES, 0));
            *at = u8::try_from(trap.offset / TRAP_SLOT_BYTES).ok()?;
        }
        Some(MemoEntry { hash: shape.plan_hash(), plan_id, traps })
    }

    /// The entry, unless vacant.
    #[inline]
    fn filled(self) -> Option<Self> {
        (self.plan_id != u32::MAX).then_some(self)
    }

    /// The trap slots of the layout with their canaries under
    /// `canaries`: the dummies [`DerivedLayout::traps`] gives it.
    #[inline]
    fn traps(self, canaries: CanaryKey) -> impl Iterator<Item = DummySlot> {
        let count = usize::from(self.traps[0]);
        self.traps.into_iter().skip(1).take(count).enumerate().map(move |(j, at)| DummySlot {
            offset: u32::from(at) * TRAP_SLOT_BYTES,
            size: TRAP_SLOT_BYTES,
            canary: Some(canaries.canary(self.hash, j)),
        })
    }
}

/// Everything the stateless allocation fast path owns besides its
/// per-class caches: the interned round-key schedule for the runtime's
/// epoch key, its registry's canary key and the buffered
/// permutation-code block.
#[derive(Debug)]
struct StatelessState {
    keys: RoundKeys,
    /// The canary key of the registry the runtime's plans live in, so a
    /// derived layout carries the canaries of the plan registered for
    /// its structure.
    canaries: CanaryKey,
    block: PermBlock,
    /// Allocations armed from a class's layout memo: each is a plan the
    /// runtime did not have to build — the stateless path's contribution
    /// to the dedup counter (its hash probes count as the interner's
    /// hits).
    hits: u64,
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

/// Per-call-site inline cache for [`ObjectRuntime::olr_getptr_ic`].
///
/// The interpreter allocates one per static rewritten `getelementptr`
/// site (an AOT build would reserve a few words next to the call). The
/// cache pins the `(class, plan)` pair the site last resolved and the
/// offset that resolution produced; as long as the probed object still
/// carries exactly that pair, the access is two integer compares and an
/// add — it skips even the plan lookup.
///
/// Monomorphic sites (the common case: one class, and plan interning
/// collapses layouts for small classes) hit almost always; polymorphic
/// sites just fall back to the full record lookup.
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
    /// `(class, plan)` pair.
    #[inline]
    pub(crate) fn lookup(&self, expected: ClassHash, plan: PlanHash) -> Option<(u32, u8)> {
        (self.filled && self.class == expected && self.plan == plan)
            .then_some((self.offset, self.width))
    }

    /// Pin a resolution made by a full lookup. Keeps the slot hint: pin
    /// happens on plan churn, not base churn.
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

/// The POLaR runtime: simulated heap (whose slot records carry the
/// object metadata) + plan sources + offset cache.
#[derive(Debug)]
pub struct ObjectRuntime {
    heap: SimHeap,
    mode: RandomizeMode,
    engine: LayoutEngine,
    static_table: Option<StaticOlrTable>,
    /// Interned plan ids; the plans live in the plan registry whose ids
    /// the slot records carry (private to this runtime, or shared by the
    /// shards of a sharded runtime), where every path resolves them.
    interner: PlanInterner,
    /// Slots that ever received a record (live + retained-freed); the
    /// successor of the old hashtable's `len()`.
    meta_count: usize,
    /// Per-class plan pools (the §V-B allocation fast path).
    pools: PlanPools,
    /// Key for the stateless small-class permutation derivation.
    epoch_key: EpochKey,
    /// Round-key schedule and code buffer for the stateless allocation
    /// fast path.
    stateless: StatelessState,
    /// Every class this runtime recorded an object of, with its live
    /// count and stateless layout cache.
    classes: Vec<ClassEntry>,
    /// Index of the class the last allocation used (monomorphic hint:
    /// the common case is a run of one class, resolved by one compare).
    last_class: usize,
    rng: BufferedRng,
    stats: RuntimeStats,
    config: RuntimeConfig,
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
    pub fn new(mode: RandomizeMode, config: RuntimeConfig) -> Self {
        let registry = PlanRegistry::new(CanaryKey::from_seed(config.seed));
        Self::build(mode, config, false, Arc::new(registry))
    }

    /// A runtime over a *published* heap (lock-free readers on other
    /// threads read its slot records) whose plans live in the shared
    /// `registry`, so those readers can resolve them by id.
    pub(crate) fn new_published(
        mode: RandomizeMode,
        config: RuntimeConfig,
        registry: Arc<PlanRegistry>,
    ) -> Self {
        Self::build(mode, config, true, registry)
    }

    fn build(
        mode: RandomizeMode,
        mut config: RuntimeConfig,
        published: bool,
        registry: Arc<PlanRegistry>,
    ) -> Self {
        let (engine, static_table) = match mode {
            RandomizeMode::Native => (LayoutEngine::new(RandomizationPolicy::off()), None),
            RandomizeMode::StaticOlr { policy, binary_seed } => (
                LayoutEngine::new(policy),
                Some(StaticOlrTable::with_registry(policy, binary_seed, Arc::clone(&registry))),
            ),
            RandomizeMode::PerAllocation { policy } => (LayoutEngine::new(policy), None),
        };
        // A distinct stream from the plan RNG: knowing layouts drawn
        // from `rng` must not reveal the stateless permutation key.
        let epoch_key =
            EpochKey(SplitMix64::new(config.seed ^ 0x5350_414d /* "SPAM" */).next_u64());
        if config.heap.placement.enabled && config.heap.placement.seed == 0 {
            config.heap.placement.seed =
                SplitMix64::new(config.seed ^ PLACEMENT_SALT).next_u64();
        }
        let canaries = registry.canary_key();
        ObjectRuntime {
            heap: if published {
                SimHeap::new_published(config.heap)
            } else {
                SimHeap::new(config.heap)
            },
            mode,
            engine,
            static_table,
            interner: PlanInterner::with_registry(registry),
            meta_count: 0,
            pools: PlanPools::new(),
            epoch_key,
            stateless: StatelessState {
                keys: RoundKeys::new(epoch_key),
                canaries,
                block: PermBlock::empty(),
                hits: 0,
            },
            classes: Vec::new(),
            last_class: 0,
            rng: BufferedRng::seed_from_u64(config.seed),
            stats: RuntimeStats::default(),
            config,
        }
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
        // Layout-memo hits are dedup saves too: an allocation armed from
        // a memoized stateless layout stored no new metadata record.
        s.dedup_saved = self.interner.dedup_hits() + self.stateless.hits;
        let pool = self.pools.stats();
        s.pool_hits = pool.hits;
        s.pool_refills = pool.refills;
        s
    }

    /// Metadata for the object at `base`, if tracked (and not stale: a
    /// record orphaned by recycling the block through the raw path is
    /// treated as absent).
    pub fn object_meta(&self, base: Addr) -> Option<ObjectMeta> {
        Self::view(&self.heap, self.interner.registry(), base).meta()
    }

    /// Number of metadata records currently held (live + retained-freed).
    pub fn meta_records(&self) -> usize {
        self.meta_count
    }

    /// Estimated bytes of POLaR bookkeeping: the slot records, the plan
    /// registry and the interned (deduplicated) plans, including each
    /// plan's dense `(offset, width)` access table. This is the memory cost Table
    /// III's dedup optimization attacks.
    pub fn estimated_metadata_bytes(&self) -> usize {
        self.shard_metadata_bytes() + self.interner.registry().metadata_bytes()
    }

    /// [`ObjectRuntime::estimated_metadata_bytes`] without the plan
    /// registry, which the shards of a sharded runtime share and which
    /// that runtime counts once.
    pub(crate) fn shard_metadata_bytes(&self) -> usize {
        // One cache-line record per slot, in committed segments: the
        // object metadata and the (collapsed) offset-cache entry.
        let record_bytes = self.heap.records().metadata_bytes();
        // Interned plan payload: offsets/sizes/aligns (3×u32/field), the
        // packed access table, and dummy slots; the registry owns the
        // plans, the interner names them.
        let registry = self.interner.registry();
        let payload = |id| plan_payload_bytes(resolve(registry, id));
        let plan_bytes: usize = self.interner.ids().map(payload).sum();
        // Static-OLR's per-class table was previously uncounted (the
        // "256 B" undercount): its plans are metadata like any other.
        let static_bytes: usize =
            self.static_table.as_ref().map_or(0, |t| t.ids().map(payload).sum());
        // Pool bookkeeping (ring slots + class index; pooled plans are
        // interned and already counted above).
        let pool_bytes = self.pools.metadata_bytes();
        // The class table with its layout memos, plus the stateless
        // path's round-key schedule and code block.
        let class_bytes = self.classes.capacity() * std::mem::size_of::<ClassEntry>()
            + self
                .classes
                .iter()
                .filter_map(|c| c.stateless.as_ref())
                .map(|s| std::mem::size_of_val(&*s.memo))
                .sum::<usize>()
            + std::mem::size_of::<RoundKeys>()
            + std::mem::size_of::<PermBlock>();
        record_bytes + plan_bytes + static_bytes + pool_bytes + class_bytes
    }

    /// The layout a *compile-time* site bakes in for `info`: the natural
    /// layout for native and POLaR binaries (POLaR's non-instrumented
    /// leftovers keep compiler offsets), or the per-binary randomized
    /// plan under static OLR — `randstruct`-style binaries carry their
    /// permuted offsets in the code itself, with no runtime metadata.
    pub fn compile_time_plan(&mut self, info: &Arc<ClassInfo>) -> Arc<LayoutPlan> {
        match self.static_table.as_mut() {
            Some(table) => table.plan_for(info),
            None => self.natural_plan(info),
        }
    }

    /// The natural layout of `info`, interned.
    fn natural_plan(&mut self, info: &ClassInfo) -> Arc<LayoutPlan> {
        let id = self.interner.intern_id(LayoutPlan::natural_for(info));
        self.interner.registry().get(id).cloned().expect("an interned plan id resolves")
    }

    /// The registry id of a stored plan for a new object of class `info`
    /// from `source`. A derived source stores nothing of its own: its
    /// stored plans (a copy's destination plan) come from the pooled
    /// ring, like its wide classes'.
    fn draw_plan(&mut self, info: &Arc<ClassInfo>, source: PlanSource) -> u32 {
        match (source, self.static_table.as_mut()) {
            (PlanSource::Mode, Some(table)) => table.plan_id_for(info),
            (PlanSource::Mode, None) => self.interner.intern_id(LayoutPlan::natural_for(info)),
            (PlanSource::Pooled | PlanSource::Derived { .. }, _) => {
                self.pools.draw(info, &self.engine, &mut self.interner, &mut self.rng)
            }
            (PlanSource::Fresh, _) => {
                let plan = self.engine.generate(info, &mut self.rng);
                self.interner.intern_id(plan)
            }
        }
    }

    /// Instrumented allocation: draw a layout plan, allocate, seed booby
    /// traps, and record metadata.
    ///
    /// # Errors
    ///
    /// Propagates heap exhaustion as [`RuntimeError::Heap`].
    pub fn olr_malloc(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError> {
        match plan_source(&self.mode, self.config.layout, info.field_count()) {
            PlanSource::Derived { traps } => self.olr_malloc_stateless(info, traps),
            source => {
                let plan_id = self.draw_plan(info, source);
                self.olr_malloc_with_plan(info, plan_id)
            }
        }
    }

    /// Instrumented allocation with a caller-supplied layout plan, named
    /// by its registry id.
    ///
    /// This is how a sharded runtime's handles allocate: each thread draws the
    /// plan id from its *own* pool and RNG outside the shard lock, then the
    /// shard only has to malloc, seed traps and record metadata. Callers
    /// must pass the id of a plan generated (or interned) for `info`.
    ///
    /// # Errors
    ///
    /// Propagates heap exhaustion as [`RuntimeError::Heap`].
    pub(crate) fn olr_malloc_with_plan(
        &mut self,
        info: &Arc<ClassInfo>,
        plan_id: u32,
    ) -> Result<Addr, RuntimeError> {
        let capsule = self.reserve_with_plan(info, plan_id)?;
        self.stats.allocations += 1;
        Ok(capsule.base)
    }

    /// Reserve one fully-armed allocation for `info` with the
    /// caller-supplied plan id, *without counting it as an allocation*.
    /// The plan is resolved once, in the registry: it sizes the block
    /// and arms the object.
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
        plan_id: u32,
    ) -> Result<Capsule, RuntimeError> {
        let ci = self.class_idx(info);
        let plan = resolve(self.interner.registry(), plan_id);
        let meta_count = &mut self.meta_count;
        let size = plan.size().max(1) as usize;
        let cap = self.heap.malloc_with(size, |heap, base, slot, generation| {
            let cap = Capsule { base, slot };
            Self::arm(heap, meta_count, cap, generation, info.hash(), (plan_id, plan))?;
            Ok::<_, RuntimeError>(cap)
        })??;
        self.classes[ci].live += 1;
        Ok(cap)
    }

    /// Seed the canaries of `plan`, registered under `plan_id`, in the
    /// block of `cap` and record the object on its slot under heap
    /// generation `generation`. The plan is the registered one, not a
    /// caller's copy: the registry stores every plan with the canaries
    /// its key gives the plan's structure, which a copy drawn before
    /// interning does not carry.
    fn arm(
        heap: &mut SimHeap,
        meta_count: &mut usize,
        cap: Capsule,
        generation: u64,
        class: ClassHash,
        (plan_id, plan): (u32, &LayoutPlan),
    ) -> Result<(), RuntimeError> {
        let record = (class, plan.plan_hash(), plan_id);
        Self::install(heap, meta_count, cap, generation, record, plan.dummies())
    }

    /// Seed the canaries of `dummies` in the block of `cap` and record
    /// the object on its slot as `(class, plan hash, plan id)` under heap
    /// generation `generation`: the arming of [`arm`](Self::arm), with
    /// the plan's hash and dummies supplied by the caller (a derived
    /// reservation takes them from its stack layout). Callers hold the
    /// slot's writer window open across this ([`SimHeap::malloc_with`]
    /// does for a new block), so a lock-free reader never sees a
    /// half-armed object.
    fn install(
        heap: &mut SimHeap,
        meta_count: &mut usize,
        Capsule { base, slot }: Capsule,
        generation: u64,
        (class, hash, plan_id): (ClassHash, PlanHash, u32),
        dummies: impl IntoIterator<Item = DummySlot>,
    ) -> Result<(), RuntimeError> {
        for dummy in dummies {
            if let Some(canary) = dummy.canary {
                let width = canary_width(dummy.size);
                heap.write_uint(base.offset(dummy.offset as u64), canary, width)?;
            }
        }
        // Installing a record stamps the block's current generation and
        // clears the offset-cache flag, so anything cached for a
        // previous occupant of the slot is dead on arrival.
        if heap.records().record(slot, class.0, hash.0, plan_id, generation) == 1 {
            *meta_count += 1;
        }
        Ok(())
    }

    /// The SPAM-style allocation: malloc first (the size bound is
    /// identity-independent), then derive the permutation from the heap
    /// identity the malloc just produced. The derived plan — and, when
    /// traps are on, its virtual trap geometry — is re-derivable from
    /// (epoch key, generation, slot) alone, which is what makes the path
    /// "stateless": the registered plan is a cache, not the source of
    /// truth.
    ///
    /// The hot path touches no key derivation (the round-key schedule is
    /// interned per runtime) and batches Feistel walks through the code
    /// block on slot-reuse runs. The interned plan is never read: a
    /// layout's canaries are the registry's for its structure, so the
    /// object is armed from the layout itself. How the layout is found is
    /// [`reserve_stateless`](ObjectRuntime::reserve_stateless)'s.
    fn olr_malloc_stateless(
        &mut self,
        info: &Arc<ClassInfo>,
        traps: bool,
    ) -> Result<Addr, RuntimeError> {
        let capsule = self.reserve_stateless(info, traps)?;
        self.stats.allocations += 1;
        self.stats.stateless_allocs += 1;
        Ok(capsule.base)
    }

    /// Stateless-path reservation without the allocation stats — the
    /// counterpart of [`reserve_with_plan`](ObjectRuntime::reserve_with_plan)
    /// for small classes, with virtual traps when `traps`. The magazine
    /// front-end counts `allocations` and `stateless_allocs` at pop time.
    /// A reused slot's generation bump, its canaries and its record
    /// share one writer window.
    ///
    /// Once the class has a layout memo ([`StatelessClassCache`]), the
    /// code's Lehmer rank indexes it, and a filled entry arms the object
    /// directly: the record from its plan hash and id, the trap canaries
    /// from `CanaryKey::canary(hash, j)` at its offsets. Otherwise the
    /// code is laid out on the stack, hashed and probed for, a plan is
    /// built only for a layout never interned, and the object is armed
    /// from the stack layout; with a memo, the miss fills its entry.
    pub(crate) fn reserve_stateless(
        &mut self,
        info: &Arc<ClassInfo>,
        traps: bool,
    ) -> Result<Capsule, RuntimeError> {
        let ci = self.class_idx(info);
        let class = &mut self.classes[ci];
        let cache = class.stateless.get_or_insert_with(|| {
            StatelessClassCache::new(stateless_bound(info, traps), info.field_count() as u8)
        });
        let (bound, n) = (cache.bound.max(1) as usize, usize::from(cache.fields));
        let codes = code_space(n);
        if cache.memo.is_empty() && (codes <= UNGATED_CODES || class.live as usize >= codes) {
            cache.memo = vec![MemoEntry::VACANT; codes].into();
        }
        let (st, interner, key) = (&mut self.stateless, &mut self.interner, self.epoch_key);
        let meta_count = &mut self.meta_count;
        let canaries = traps.then_some(st.canaries);
        let cap = self.heap.malloc_with(bound, |heap, base, slot, generation| {
            let code = st.block.code_for(&st.keys, slot, generation, n);
            let rank = (!cache.memo.is_empty()).then(|| code_rank(code, n));
            let cap = Capsule { base, slot };
            if let Some(hit) = rank.and_then(|r| cache.memo[r].filled()) {
                st.hits += 1;
                let record = (info.hash(), hit.hash, hit.plan_id);
                Self::install(heap, meta_count, cap, generation, record, hit.traps(st.canaries))?;
                return Ok(cap);
            }
            // One hash of the stack layout keys its canaries and finds
            // the interned plan; the virtual traps are seeded from the
            // layout, whose canaries equal the registered plan's.
            let shape = DerivedLayout::derive(info, key, code, canaries);
            let plan_id = match interner.probe(shape.plan_hash()) {
                Some(plan_id) => plan_id,
                None => interner.intern_id(shape.into_plan(info)),
            };
            if let Some((r, entry)) = rank.zip(MemoEntry::of(&shape, plan_id)) {
                cache.memo[r] = entry;
            }
            let record = (info.hash(), shape.plan_hash(), plan_id);
            Self::install(heap, meta_count, cap, generation, record, shape.traps().iter().copied())?;
            Ok::<_, RuntimeError>(cap)
        })??;
        class.live += 1;
        Ok(cap)
    }

    /// Index of `info` in the class table, adding it on first sight.
    #[inline]
    fn class_idx(&mut self, info: &Arc<ClassInfo>) -> usize {
        self.last_class = match self.class_position(info.hash().0) {
            Some(i) => i,
            None => {
                let entry = ClassEntry { info: Arc::clone(info), live: 0, stateless: None };
                self.classes.push(entry);
                self.classes.len() - 1
            }
        };
        self.last_class
    }

    /// Index of the class hashed `class` in the class table, with a
    /// monomorphic last-class hint in front.
    #[inline]
    fn class_position(&self, class: u64) -> Option<usize> {
        if self.classes.get(self.last_class).is_some_and(|c| c.info.hash().0 == class) {
            return Some(self.last_class);
        }
        self.classes.iter().position(|c| c.info.hash().0 == class)
    }

    /// Count a retired record of the class hashed `class`: one live
    /// object fewer.
    fn note_retired(&mut self, class: u64) {
        if let Some(i) = self.class_position(class) {
            let live = &mut self.classes[i].live;
            *live = live.saturating_sub(1);
        }
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
        let heap = &self.heap;
        let read = |a, w| heap.read_uint(a, w).ok();
        let view = Self::view(heap, self.interner.registry(), base);
        let checked = view.free_check(&self.config, read, &mut self.stats);
        let class = view.snap.map_or(0, |s| s.class_hash);
        let Some(slot) = checked? else {
            // Untracked pointer (or a record self-invalidated by raw
            // reuse): behave like plain free().
            return Ok(self.heap.free(base)?);
        };
        // Retire the record (the offset-cache entry dies with it) in the
        // writer window that frees the block: a lock-free reader sees
        // LIVE or FREED, never the torn in-between.
        self.heap.free_object(slot)?;
        self.note_retired(class);
        self.stats.frees += 1;
        Ok(())
    }

    /// Complete the retirement of a reserved or remote-freed slot: mark
    /// its record freed and release the heap block. Counts **nothing** —
    /// the callers decide what event this was:
    ///
    /// * the shard draining its remote-free stack (the block's free was
    ///   already counted by the lock-free `fast_frees` claim, which also
    ///   already marked the record freed), and
    /// * a [`ShardHandle`](crate::ShardHandle) returning unconsumed
    ///   magazine capsules at teardown (reserved but never allocated,
    ///   so neither an allocation nor a free happened).
    ///
    /// Returns whether a block was actually released; `false` means the
    /// slot's block was already freed (the free raced to completion
    /// through another path) or the release failed, both of which the
    /// caller treats as "nothing left to do". A drained claim whose
    /// block the raw heap path had already released strands its record
    /// ([`PUB_STATE_STRANDED`](polar_simheap::PUB_STATE_STRANDED)): the
    /// object stays live to every classification, since nothing was
    /// freed.
    pub(crate) fn retire_reserved(&mut self, slot: u32) -> bool {
        let Some(block) = self.heap.block_by_slot(slot) else { return false };
        if block.state == BlockState::Freed {
            let win = self.heap.pub_open(slot);
            self.heap.records().strand(slot);
            self.heap.pub_close(slot, win);
            return false;
        }
        let class = self.heap.records().get(slot).map_or(0, |r| r.class_hash());
        let freed = self.heap.free_object(slot).is_ok();
        if freed {
            self.note_retired(class);
        }
        freed
    }

    /// Instrumented member access (the rewritten `getelementptr`): resolve
    /// field `field` of the object at `base`, which the access site
    /// believes to be of class `expected`.
    ///
    /// The slot record locates the metadata in O(1); the offset-lookup
    /// cache (a warm flag on the record) short-circuits repeat accesses;
    /// use-after-free and class mismatch are detected.
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
        self.access(base, expected, field, None).map(|a| a.addr)
    }

    /// [`ObjectRuntime::olr_getptr`] with a per-call-site inline cache.
    ///
    /// Identical detection behavior and statistics semantics; `ic` lets a
    /// monomorphic site resolve without touching the plan at all. The
    /// cache only serves live, generation-current objects whose
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
        self.access(base, expected, field, Some(ic)).map(|a| a.addr)
    }

    /// The classifier's view of `base`: the owner's snapshot of the
    /// record at that block base, resolved in `registry`. The lock-free
    /// writers that run beside the owner change no record word but the
    /// `life` word (read once) and the record count, so the copy needs
    /// no validation.
    /// Associated, so callers can count into `self.stats` while the view
    /// borrows the heap.
    #[inline]
    fn view<'a>(heap: &'a SimHeap, registry: &'a PlanRegistry, base: Addr) -> RecordView<'a> {
        let snap = heap.record_at(base).map(|(slot, rec)| rec.snapshot(slot));
        RecordView { base, snap, records: heap.records(), registry }
    }

    /// Shared body of the getptr family and the field accessors: the
    /// classified access, with the field's width and the object's slot,
    /// so `read_field`/`write_field` need no second metadata lookup.
    #[inline]
    pub(crate) fn access(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        ic: Option<&mut SiteCache>,
    ) -> Result<Access, RuntimeError> {
        let view = Self::view(&self.heap, self.interner.registry(), base);
        view.classify(expected, field, ic, &self.config, &mut self.stats)
    }

    /// Instrumented object copy (`memcpy`/`memmove` on objects): copies
    /// `src`'s fields into `dst` and gives the duplicate its own fresh
    /// randomized layout and metadata (Section IV-A2).
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
    /// another. A tracked source's class comes from the class table, by
    /// the hash its record carries.
    pub(crate) fn copy_source(
        &mut self,
        src: Addr,
        site_class: &Arc<ClassInfo>,
    ) -> Result<(Arc<ClassInfo>, Arc<LayoutPlan>), RuntimeError> {
        self.stats.memcpys += 1;
        let view = Self::view(&self.heap, self.interner.registry(), src);
        let Some((snap, plan)) = view.tracked_plan() else {
            return Ok((Arc::clone(site_class), self.natural_plan(site_class)));
        };
        if snap.state == PUB_STATE_FREED && self.config.detect {
            self.stats.uaf_detected += 1;
            return Err(RuntimeError::UseAfterFree { addr: src });
        }
        let class = self.classes.iter().find(|c| c.info.hash().0 == snap.class_hash);
        let info = class.ok_or(RuntimeError::UnknownObject(src))?;
        Ok((Arc::clone(&info.info), Arc::clone(plan)))
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
    ///
    /// On a published heap the source block's seqlock window is held
    /// over the reads: the shard lock does not exclude a handle's
    /// lock-free field store, and a field store straddling two words
    /// must not be staged half done.
    pub(crate) fn stage_fields(
        &self,
        src: Addr,
        src_plan: &LayoutPlan,
    ) -> Result<StagedFields, RuntimeError> {
        let mut bytes = Vec::with_capacity(src_plan.size() as usize);
        let mut starts = Vec::with_capacity(src_plan.field_count());
        let slot = self.heap.record_at(src).map(|(slot, _)| slot);
        let win = slot.and_then(|slot| self.heap.pub_open(slot));
        let staged = (0..src_plan.field_count()).try_for_each(|field| {
            let size = src_plan.field_size(field) as usize;
            let from = src.offset(src_plan.offset(field) as u64);
            starts.push(bytes.len());
            self.heap.read_into(from, size, &mut bytes)
        });
        if let Some(slot) = slot {
            self.heap.pub_close(slot, win);
        }
        staged?;
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
        src_plan: &LayoutPlan,
        staged: &StagedFields,
    ) -> Result<(), RuntimeError> {
        let fault = RuntimeError::Heap(polar_simheap::HeapError::Fault {
            addr: dst,
            len: src_plan.size() as usize,
        });
        let (slot, generation) = self.heap.slot_gen(dst).ok_or(fault)?;
        let dst_limit = self.heap.block_by_slot(slot).map_or(0, |b| b.size);
        // Reuse live same-class metadata at dst when present (and
        // generation-current — a stale record never donates a plan);
        // otherwise mint a fresh randomized plan for the duplicate.
        let replaced = Self::view(&self.heap, self.interner.registry(), dst)
            .tracked_plan()
            .filter(|(snap, _)| snap.state != PUB_STATE_FREED)
            .map(|(snap, _)| (snap.class_hash, snap.plan_id));
        let same_class = replaced.is_some_and(|(class, _)| class == info.hash().0);
        let plan_id = match replaced.filter(|_| same_class).and_then(|(_, id)| id) {
            Some(reused) => reused,
            None => self.plan_fitting(&info, dst_limit)?,
        };
        let ci = self.class_idx(&info);
        let dst_plan = resolve(self.interner.registry(), plan_id);

        // Field-by-field translation between the two plans, all reads
        // already behind us in the scratch buffer. One writer window
        // spans the field stores, canaries and the record, so a
        // lock-free reader never observes a half-installed copy.
        let win = self.heap.pub_open(slot);
        let installed = (|| {
            for field in 0..src_plan.field_count() {
                let size = src_plan.field_size(field) as usize;
                let to = dst.offset(dst_plan.offset(field) as u64);
                self.heap.write(to, &staged.bytes[staged.starts[field]..][..size])?;
            }
            let cap = Capsule { base: dst, slot };
            let plan = (plan_id, dst_plan);
            Self::arm(&mut self.heap, &mut self.meta_count, cap, generation, info.hash(), plan)
        })();
        self.heap.pub_close(slot, win);
        installed?;
        // A copy over a live object of another class retires that one.
        if !same_class {
            if let Some((class, _)) = replaced {
                self.note_retired(class);
            }
            self.classes[ci].live += 1;
        }
        Ok(())
    }

    /// The registry id of a plan for a copy of class `info` into a
    /// block of `limit` bytes: up to eight draws from the class's
    /// source, then a dummy-free permutation.
    fn plan_fitting(&mut self, info: &Arc<ClassInfo>, limit: usize) -> Result<u32, RuntimeError> {
        let source = plan_source(&self.mode, self.config.layout, info.field_count());
        for _ in 0..8 {
            let plan_id = self.draw_plan(info, source);
            if resolve(self.interner.registry(), plan_id).size() as usize <= limit {
                return Ok(plan_id);
            }
        }
        let fallback = LayoutEngine::new(RandomizationPolicy::permute_only())
            .generate(info, &mut self.rng);
        if fallback.size() as usize <= limit {
            return Ok(self.interner.intern_id(fallback));
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
        let access = self.access(base, expected, field, None)?;
        Ok(self.heap.read_uint(access.addr, access.width)?)
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
        let Access { addr, width, slot } = self.access(base, expected, field, None)?;
        // Store inside the object's seqlock window: a concurrent
        // lock-free `read_field` retries instead of returning a torn mix
        // of old and new bytes, and a handle's lock-free store waits.
        let win = self.heap.pub_open(slot);
        let wrote = self.heap.write_uint(addr, value, width);
        self.heap.pub_close(slot, win);
        Ok(wrote?)
    }

    /// Sweep the object's booby traps, returning every corrupted canary
    /// and counting them in the statistics.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownObject`] for untracked addresses.
    pub fn check_traps(&mut self, base: Addr) -> Result<Vec<TrapReport>, RuntimeError> {
        let view = Self::view(&self.heap, self.interner.registry(), base);
        let Some((_, plan)) = view.tracked_plan() else {
            return Err(RuntimeError::UnknownObject(base));
        };
        let heap = &self.heap;
        Ok(scan_traps(plan, base, |a, w| heap.read_uint(a, w).ok(), &mut self.stats))
    }

    /// A raw *probe* read: `heap_read_uint` plus booby-trap screening.
    ///
    /// Attack probes read heap bytes at attacker-chosen (often
    /// misaligned) offsets. When detections are armed and the read
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
        if self.config.detect {
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
        let view = Self::view(&self.heap, self.interner.registry(), block.base);
        let (snap, plan) = view.tracked_plan()?;
        if snap.state == PUB_STATE_FREED {
            return None;
        }
        let rel = addr.0 - block.base.0;
        let end = rel + width as u64;
        for dummy in plan.dummies() {
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

/// The plan registered under `plan_id`: ids come from an interner or
/// the static table over `registry`, so every id a caller holds resolves.
#[inline]
fn resolve(registry: &PlanRegistry, plan_id: u32) -> &LayoutPlan {
    registry.get(plan_id).expect("an interned plan id resolves")
}

/// Bytes one interned plan costs: offsets/sizes/aligns (3×u32/field),
/// the packed access table, dummy slots, and fixed header overhead.
fn plan_payload_bytes(p: &LayoutPlan) -> usize {
    3 * 4 * p.field_count()
        + std::mem::size_of::<FieldAccess>() * p.field_count()
        + 24 * p.dummies().len()
        + 32
}

/// Stored width of a dummy slot's canary.
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
    use crate::PolarRuntime;
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
        config.detect = false;
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
        let dummy = rt.object_meta(obj).unwrap().plan.dummies().next().unwrap();
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
        // Re-request the block's own class size: the stateless path
        // mallocs the identity-independent bound, which can exceed
        // plan.size().
        let size = rt.heap().block_at(obj).unwrap().size;
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
        config.layout = LayoutSource::Pooled;
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
        config.layout = LayoutSource::Fresh;
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
    fn plan_source_selects_by_mode_source_and_field_count() {
        let polar = RandomizeMode::per_allocation();
        let (small, wide) = (STATELESS_MAX_FIELDS, STATELESS_MAX_FIELDS + 1);
        let derived = PlanSource::Derived { traps: true };
        assert_eq!(plan_source(&polar, LayoutSource::Derived, 1), derived);
        assert_eq!(plan_source(&polar, LayoutSource::Derived, small), derived);
        assert_eq!(plan_source(&polar, LayoutSource::Derived, wide), PlanSource::Pooled);
        let untrapped = PlanSource::Derived { traps: false };
        assert_eq!(plan_source(&polar, LayoutSource::DerivedUntrapped, 4), untrapped);
        assert_eq!(plan_source(&polar, LayoutSource::DerivedUntrapped, wide), PlanSource::Pooled);
        for fields in [1, small, wide] {
            assert_eq!(plan_source(&polar, LayoutSource::Pooled, fields), PlanSource::Pooled);
            assert_eq!(plan_source(&polar, LayoutSource::Fresh, fields), PlanSource::Fresh);
            for mode in [RandomizeMode::Native, RandomizeMode::static_olr(1)] {
                assert_eq!(plan_source(&mode, LayoutSource::Derived, fields), PlanSource::Mode);
            }
        }
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
        let canaries = rt.stateless.canaries;
        let rederived =
            polar_layout::stateless_trapped_plan(&info, rt.epoch_key, generation, slot, canaries);
        assert_eq!(*meta.plan, rederived, "canaries included");
        // And with traps off, the permute-only reference matches.
        let mut config = RuntimeConfig::default();
        config.layout = LayoutSource::DerivedUntrapped;
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
        let dummy = plan.dummies().next().unwrap();
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
        config.detect = false;
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
        let obj = rt.olr_malloc(&info).unwrap();
        let plan = Arc::clone(&rt.object_meta(obj).unwrap().plan);
        let dummy = plan.dummies().next().unwrap();
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
    fn a_derived_layout_on_a_pooled_structure_is_armed_with_its_canaries() {
        // A derived runtime draws copy destinations from the pooled ring,
        // into the interner its derived layouts probe. A pooled plan of
        // a small class can have a derived layout's structure; interned
        // first, it is the plan the probe finds. The registry keys the
        // canaries of every plan it stores by structure, so the canaries
        // armed from the stack layout are that plan's, and no free or
        // sweep reports a trap.
        let mut rt = polar_rt();
        let decl = ClassDecl::builder("Pair").field("a", FieldKind::I64).field("b", FieldKind::I64);
        let info = Arc::new(ClassInfo::from_decl(decl.build()));
        let mut pooled = HashSet::new();
        for _ in 0..64 {
            let id = rt.draw_plan(&info, PlanSource::Derived { traps: true });
            pooled.insert(resolve(rt.interner.registry(), id).plan_hash());
        }
        let mut on_pooled = 0;
        for i in 0..64 {
            let obj = rt.olr_malloc(&info).unwrap();
            let hash = rt.object_meta(obj).unwrap().plan.plan_hash();
            on_pooled += usize::from(pooled.contains(&hash));
            assert_eq!(rt.check_traps(obj).unwrap(), Vec::new(), "allocation {i}");
            rt.olr_free(obj).unwrap();
        }
        assert_eq!(rt.stats().stateless_allocs, 64);
        assert!(on_pooled > 0, "no derived layout had a pooled structure");
    }

    /// A stateless reservation the way it was made before derived
    /// layouts were looked up by hash: build the plan of the slot's
    /// code, intern it (in steady state the interner already holds it)
    /// and arm the object from the registered plan.
    fn reserve_built(rt: &mut ObjectRuntime, info: &Arc<ClassInfo>, traps: bool) -> Addr {
        rt.class_idx(info);
        let (base, slot, generation) =
            rt.heap.malloc_slot(stateless_bound(info, traps) as usize).unwrap();
        let st = &mut rt.stateless;
        let code = st.block.code_for(&st.keys, slot, generation, info.field_count());
        let canaries = traps.then_some(st.canaries);
        let built = polar_layout::stateless_plan_from_code(info, rt.epoch_key, code, canaries);
        let plan_id = rt.interner.intern_id(built);
        let plan = (plan_id, resolve(rt.interner.registry(), plan_id));
        let cap = Capsule { base, slot };
        ObjectRuntime::arm(&mut rt.heap, &mut rt.meta_count, cap, generation, info.hash(), plan)
            .unwrap();
        base
    }

    #[test]
    fn hash_probe_reservations_match_build_then_intern() {
        // 20,000 reservations of 5-, 7- and 8-field classes, with frees
        // in between so slots come back under new generations: the
        // probe path and the build-then-intern path hand out the same
        // block, plan id, plan hash and canary bytes, and count the same
        // plans and dedup saves.
        let classes: Vec<Arc<ClassInfo>> = [5, 7, 8]
            .iter()
            .map(|&n| {
                let mut b = ClassDecl::builder(format!("Probe{n}"));
                let kinds = [FieldKind::Ptr, FieldKind::I32, FieldKind::I16, FieldKind::I64];
                for i in 0..n {
                    b = b.field(format!("f{i}"), kinds[i % 4]);
                }
                Arc::new(ClassInfo::from_decl(b.build()))
            })
            .collect();
        for layout in [LayoutSource::Derived, LayoutSource::DerivedUntrapped] {
            let traps = layout == LayoutSource::Derived;
            let config = RuntimeConfig { layout, ..RuntimeConfig::default() };
            let mut probe = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
            let mut built = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
            let mut rng = SplitMix64::new(0x9B0B_E5E5);
            let mut live = Vec::new();
            for i in 0..20_000 {
                let info = &classes[i % classes.len()];
                let base = probe.olr_malloc(info).unwrap();
                assert_eq!(reserve_built(&mut built, info, traps), base, "allocation {i}");
                let (_, got) = probe.heap().record_at(base).unwrap();
                let (_, want) = built.heap().record_at(base).unwrap();
                assert_eq!(got.plan_id(), want.plan_id(), "plan id of allocation {i}");
                assert_eq!(got.plan_hash(), want.plan_hash(), "plan hash of allocation {i}");
                let plan = built.object_meta(base).unwrap().plan;
                assert_eq!(plan.dummies().len() == 0, !traps);
                for d in plan.dummies() {
                    let (at, width) = (base.offset(u64::from(d.offset)), canary_width(d.size));
                    let seeded = probe.heap().read_uint(at, width).unwrap();
                    assert_eq!(seeded, built.heap().read_uint(at, width).unwrap());
                    assert_eq!(seeded, truncate(d.canary.unwrap(), width), "allocation {i}");
                }
                live.push(base);
                if rng.next_u64() & 1 == 0 {
                    let doomed = live.swap_remove((rng.next_u64() % live.len() as u64) as usize);
                    probe.olr_free(doomed).unwrap();
                    built.olr_free(doomed).unwrap();
                }
            }
            let (got, want) = (probe.stats(), built.stats());
            assert_eq!(got.unique_plans, want.unique_plans);
            assert_eq!(got.dedup_saved, want.dedup_saved);
            assert!(got.dedup_saved > 10_000, "steady state probes hit: {}", got.dedup_saved);
        }
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
        assert!(rt.object_meta(obj).unwrap().plan.dummies().len() > 0);
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
        config.layout = LayoutSource::Pooled;
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
        rt.olr_malloc(&info).unwrap();
        assert!(rt.pools.metadata_bytes() > 0);
        assert!(rt.estimated_metadata_bytes() > rt.pools.metadata_bytes());
        // The stateless default's own bookkeeping is counted too.
        let mut rt = polar_rt();
        let before = rt.estimated_metadata_bytes();
        rt.olr_malloc(&info).unwrap();
        assert!(rt.classes.iter().any(|c| c.stateless.is_some()));
        assert!(rt.estimated_metadata_bytes() > before);
    }

    #[test]
    fn metadata_accounting_counts_each_table_once() {
        let mut rt = polar_rt();
        let empty = rt.estimated_metadata_bytes();
        let info = people();
        let objs: Vec<Addr> = (0..40).map(|_| rt.olr_malloc(&info).unwrap()).collect();
        // The standalone runtime adds its private registry to its own
        // tables; the records hold one cache line per slot.
        let registry = rt.interner.registry().metadata_bytes();
        assert!(registry > 0);
        assert_eq!(rt.estimated_metadata_bytes(), rt.shard_metadata_bytes() + registry);
        assert!(rt.heap().records().metadata_bytes() >= 64 * objs.len());
        assert!(rt.estimated_metadata_bytes() > empty);
        // The class table lets a copy recover the source's class by hash.
        let dst = rt.malloc_raw(256).unwrap();
        let other = Arc::new(ClassInfo::from_decl(
            ClassDecl::builder("Other").field("x", FieldKind::I64).build(),
        ));
        rt.olr_memcpy(dst, objs[0], &other).unwrap();
        assert_eq!(rt.object_meta(dst).unwrap().class, info.hash());
    }

    #[test]
    fn the_registry_is_the_only_owner_of_every_plan() {
        // Interners, pooled rings and the static table name plans by
        // registry id: once the plans handed to callers (metadata views,
        // compile-time plans) are dropped, the registry holds the only
        // reference to each.
        let churn = |rt: &mut dyn PolarRuntime, classes: &[Arc<ClassInfo>]| {
            let mut live = Vec::new();
            for i in 0..96 {
                let (c, info) = (i % classes.len(), &classes[i % classes.len()]);
                let obj = rt.olr_malloc(info).unwrap();
                drop(rt.compile_time_plan(info));
                assert!(rt.plan_size(obj).is_some() && rt.check_traps(obj).unwrap().is_empty());
                let raw = rt.heap_malloc(256).unwrap();
                rt.olr_memcpy(raw, obj, info).unwrap();
                if let Some(&(peer, _)) = live.iter().rev().find(|l: &&(Addr, usize)| l.1 == c) {
                    rt.olr_memcpy(peer, obj, info).unwrap();
                }
                live.extend([(obj, c), (raw, c)]);
                if i % 3 == 0 {
                    rt.olr_free(live.swap_remove(i % live.len()).0).unwrap();
                }
            }
        };
        let owners = |plans: &mut dyn Iterator<Item = &Arc<LayoutPlan>>| -> Vec<usize> {
            plans.map(Arc::strong_count).collect()
        };
        let mut b = ClassDecl::builder("Envelope");
        for i in 0..12 {
            b = b.field(format!("f{i}"), [FieldKind::I64, FieldKind::I32, FieldKind::Ptr][i % 3]);
        }
        let twelve = Arc::new(ClassInfo::from_decl(b.build()));
        let polar = RandomizeMode::per_allocation();
        let modes = [polar, polar, RandomizeMode::static_olr(5)];
        let sources = [LayoutSource::Derived, LayoutSource::Pooled, LayoutSource::Derived];
        for (mode, layout) in modes.into_iter().zip(sources) {
            let mut rt = ObjectRuntime::new(mode, RuntimeConfig { layout, ..Default::default() });
            churn(&mut rt, &[people(), Arc::clone(&twelve)]);
            let registry = rt.interner.registry();
            let n = owners(&mut (0..registry.len() as u32).map(|id| registry.get(id).unwrap()));
            assert!(n.len() > 1 && n.iter().all(|&n| n == 1), "{} {layout:?}: {n:?}", mode.label());
        }
        let config = RuntimeConfig { layout: LayoutSource::Pooled, ..Default::default() };
        let rt = crate::ShardedRuntime::new(polar, config, 2);
        churn(&mut rt.handle(0), &[Arc::clone(&twelve)]);
        churn(&mut rt.handle(1), &[twelve]);
        let n = owners(&mut (0..).map_while(|id| rt.registry_plan(id)));
        assert!(n.len() > 1 && n.iter().all(|&n| n == 1), "sharded: {n:?}");
    }

    #[test]
    fn placement_seed_derives_from_the_runtime_seed() {
        use polar_simheap::PlacementPolicy;

        let mut config = RuntimeConfig::default();
        config.heap.placement = PlacementPolicy::on(0);
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

    /// The runtime whose class memos and records a memo tape inspects:
    /// an owner, or the one shard under a handle, with the count of
    /// capsules the handle holds (`None` on the owner).
    trait MemoSurface {
        fn malloc(&mut self, info: &Arc<ClassInfo>) -> Addr;
        fn free(&mut self, base: Addr);
        fn parked(&self) -> Option<usize>;
        fn inspect<R>(&mut self, f: impl FnOnce(&mut ObjectRuntime) -> R) -> R;
    }

    impl MemoSurface for ObjectRuntime {
        fn malloc(&mut self, info: &Arc<ClassInfo>) -> Addr {
            self.olr_malloc(info).unwrap()
        }
        fn free(&mut self, base: Addr) {
            self.olr_free(base).unwrap()
        }
        fn parked(&self) -> Option<usize> {
            None
        }
        fn inspect<R>(&mut self, f: impl FnOnce(&mut ObjectRuntime) -> R) -> R {
            f(self)
        }
    }

    impl MemoSurface for (&crate::ShardedRuntime, crate::ShardHandle<'_>) {
        fn malloc(&mut self, info: &Arc<ClassInfo>) -> Addr {
            self.1.olr_malloc(info).unwrap()
        }
        fn free(&mut self, base: Addr) {
            self.1.olr_free(base).unwrap()
        }
        fn parked(&self) -> Option<usize> {
            Some(self.1.parked_capsules())
        }
        fn inspect<R>(&mut self, f: impl FnOnce(&mut ObjectRuntime) -> R) -> R {
            self.0.with_shard(0, f)
        }
    }

    /// The stateless cache of `info`'s class on `rt`.
    fn cache_of<'a>(rt: &'a mut ObjectRuntime, info: &ClassInfo) -> &'a mut StatelessClassCache {
        let class = rt.classes.iter_mut().find(|c| c.info.hash() == info.hash());
        class.and_then(|c| c.stateless.as_mut()).expect("a stateless class")
    }

    /// Check the object at `base` against its twin armed by derive and
    /// probe: the layout its (slot, generation) derives, hashed, with
    /// the id the interner holds for that hash. Returns whether the
    /// layout fits a memo entry.
    fn check_derived_twin(
        rt: &mut ObjectRuntime,
        info: &Arc<ClassInfo>,
        traps: bool,
        base: Addr,
    ) -> Result<bool, String> {
        let (slot, generation) = rt.heap.slot_gen(base).ok_or("no block")?;
        let n = info.field_count();
        let code = RoundKeys::new(rt.epoch_key).perm_code(generation, slot, n);
        let canaries = traps.then_some(rt.stateless.canaries);
        let shape = DerivedLayout::derive(info, rt.epoch_key, code, canaries);
        // The probe counts a dedup hit; no memo tape reads that counter.
        let plan_id = rt.interner.probe(shape.plan_hash()).ok_or("layout not interned")?;
        let rec = rt.heap.records().get(slot).ok_or("no record")?;
        let got = (rec.class_hash(), rec.plan_hash(), rec.plan_id(), rec.snapshot(slot).meta_gen);
        let want = (info.hash().0, shape.plan_hash().0, plan_id, generation);
        if got != want {
            return Err(format!("record {got:x?} != twin {want:x?} at {base:?}"));
        }
        for trap in shape.traps() {
            let seeded = rt.heap.read_uint(base.offset(u64::from(trap.offset)), 8).unwrap();
            if Some(seeded) != trap.canary {
                return Err(format!("canary at +{} of {base:?}: {seeded:x}", trap.offset));
            }
        }
        let fits = MemoEntry::of(&shape, plan_id).is_some();
        let memo = &cache_of(rt, info).memo;
        if !fits && !memo.is_empty() && memo[code_rank(code, n)].filled().is_some() {
            return Err(format!("a layout whose traps do not fit is memoized: {base:?}"));
        }
        Ok(fits)
    }

    /// A memo tape's model: the objects it holds, the reservations and
    /// frees so far, whether the memo is due and how many layouts fit.
    #[derive(Default)]
    struct MemoModel {
        live: Vec<Addr>,
        reserved: usize,
        freed: usize,
        memo_due: bool,
        fitting: usize,
    }

    impl MemoModel {
        /// Allocate one object, check it against its twin and the memo's
        /// presence against the live count its reservation saw: every
        /// reservation so far less the frees retired by then (a refill
        /// drains them all first).
        fn alloc(
            &mut self,
            surface: &mut impl MemoSurface,
            info: &Arc<ClassInfo>,
            traps: bool,
        ) -> Result<(), String> {
            let codes = code_space(info.field_count());
            let gate = if codes <= UNGATED_CODES { 0 } else { codes };
            match surface.parked() {
                Some(0) => {
                    self.memo_due |= self.reserved - self.freed + DEFAULT_BATCH > gate;
                    self.reserved += DEFAULT_BATCH;
                }
                Some(_) => {}
                None => {
                    self.memo_due |= self.reserved - self.freed >= gate;
                    self.reserved += 1;
                }
            }
            let base = surface.malloc(info);
            self.live.push(base);
            let (fits, built) = surface.inspect(|rt| {
                let fits = check_derived_twin(rt, info, traps, base)?;
                Ok::<_, String>((fits, !cache_of(rt, info).memo.is_empty()))
            })?;
            self.fitting += usize::from(fits);
            match (built, self.memo_due) {
                (built, due) if built == due => Ok(()),
                (built, due) => Err(format!("memo built {built}, due {due}, at {base:?}")),
            }
        }

        /// Free one held object, drawn by `rng`.
        fn free(&mut self, surface: &mut impl MemoSurface, rng: &mut SplitMix64) {
            let doomed = self.live.swap_remove((rng.next_u64() % self.live.len() as u64) as usize);
            surface.free(doomed);
            self.freed += 1;
        }
    }

    /// One memo tape on `surface`: allocate past `n!` live objects,
    /// churn past it, free back below it and allocate again, checking
    /// every object against its derive-and-probe twin, the memo's
    /// presence against the live count, and that the memo is counted in
    /// the metadata estimate.
    fn memo_tape(
        surface: &mut impl MemoSurface,
        info: &Arc<ClassInfo>,
        traps: bool,
        seed: u64,
    ) -> Result<(), String> {
        let codes = code_space(info.field_count());
        let mut rng = SplitMix64::new(seed);
        let mut model = MemoModel::default();
        // Up to three quarters of n! and half of that freed, so a
        // retirement the live count misses builds the memo early.
        for _ in 0..codes * 3 / 4 {
            model.alloc(surface, info, traps)?;
        }
        for _ in 0..codes * 3 / 8 {
            model.free(surface, &mut rng);
        }
        while model.live.len() <= codes + (rng.next_u64() % 64) as usize {
            model.alloc(surface, info, traps)?;
        }
        let hits = surface.inspect(|rt| rt.stateless.hits);
        for _ in 0..codes.max(256) {
            model.free(surface, &mut rng);
            model.alloc(surface, info, traps)?;
        }
        if surface.inspect(|rt| rt.stateless.hits) == hits && model.fitting > 0 {
            return Err("no reservation was armed from the memo".into());
        }
        // The memo's bytes are in the estimate: taking it out removes
        // exactly its capacity in entries.
        surface.inspect(|rt| {
            let with = rt.shard_metadata_bytes();
            let memo = std::mem::take(&mut cache_of(rt, info).memo);
            let without = rt.shard_metadata_bytes();
            let bytes = std::mem::size_of_val(&*memo);
            cache_of(rt, info).memo = memo;
            match with - without {
                d if d == bytes && bytes == codes * 16 => Ok(()),
                d => Err(format!("memo of {bytes} B counted as {d} B")),
            }
        })?;
        while model.live.len() >= codes / 2 {
            model.free(surface, &mut rng);
        }
        for _ in 0..64 {
            model.alloc(surface, info, traps)?;
        }
        for base in std::mem::take(&mut model.live) {
            surface.free(base);
        }
        Ok(())
    }

    /// Memo equivalence: over classes of 3–8 fields (one with a `Bytes`
    /// field wide enough to push traps past a memo entry's reach), with
    /// and without traps, on an owner and on a one-shard handle, an
    /// object armed from its class's memo carries the record and canary
    /// bytes of its derive-and-probe twin; the memo exists exactly once a
    /// reservation met `n!` live objects of the class (from the first
    /// reservation for a class of at most 4 fields), is counted in the
    /// metadata estimate, and serves on after the live count falls below
    /// the gate. `POLAR_MEMO_CASES` sets the case count (12 by default).
    #[test]
    fn memo_arms_as_derive_and_probe() {
        use polar_check::any;
        let cases = std::env::var("POLAR_MEMO_CASES").ok().and_then(|v| v.parse().ok());
        let config = polar_check::Config::default().cases(cases.unwrap_or(12)).seed(0x3E30_5EED);
        let case = (3usize..9, any::<bool>(), any::<bool>(), any::<bool>(), any::<u64>());
        polar_check::check_with(config, "memo_arms_as_derive_and_probe", &case, |c| {
            let &(n, traps, handle, wide, seed) = c;
            use FieldKind::{Ptr, F64, I16, I32, I64, I8};
            const KINDS: [FieldKind; 6] = [Ptr, I32, I16, I64, I8, F64];
            let mut decl = ClassDecl::builder(format!("Memo{n}"));
            for i in 0..n {
                // A wide field only on classes of at most 6 fields, whose
                // n! live objects stay a few megabytes.
                let kind = if wide && n <= 6 && i == 0 {
                    FieldKind::Bytes(2100)
                } else {
                    KINDS[(seed >> (3 * i)) as usize % KINDS.len()]
                };
                decl = decl.field(format!("f{i}"), kind);
            }
            let info = Arc::new(ClassInfo::from_decl(decl.build()));
            let layout = if traps { LayoutSource::Derived } else { LayoutSource::DerivedUntrapped };
            let config = RuntimeConfig { layout, ..RuntimeConfig::default() };
            if handle {
                let rt = crate::ShardedRuntime::new(RandomizeMode::per_allocation(), config, 1);
                let mut surface = (&rt, rt.handle(0));
                let result = memo_tape(&mut surface, &info, traps, seed);
                drop(surface);
                result
            } else {
                let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
                memo_tape(&mut rt, &info, traps, seed)
            }
        });
    }
}
