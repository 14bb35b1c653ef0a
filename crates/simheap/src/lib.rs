//! Simulated process heap for the POLaR reproduction.
//!
//! POLaR's security story is about what happens *inside* heap memory: stale
//! pointers dangling into reused chunks, overflows running off the end of a
//! buffer into a neighbouring object, fake objects sprayed into freed slots.
//! Reproducing that in safe Rust requires a heap we fully own. This crate
//! provides one: a byte arena addressed by plain [`Addr`] offsets, carved
//! into blocks by a segregated-freelist allocator with glibc-like
//! **immediate address reuse** — the property every use-after-free exploit
//! in the paper's threat model depends on.
//!
//! Raw [`SimHeap::read`]/[`SimHeap::write`] accesses are bounds-checked
//! against the *arena*, not against block boundaries, exactly like real
//! machine loads and stores: out-of-bounds accesses that stay inside the
//! heap succeed silently and corrupt neighbours. Checked variants
//! ([`SimHeap::read_in_block`], [`SimHeap::write_in_block`]) are available
//! for tooling that wants ASan-like precision.
//!
//! Block metadata lives outside the arena, in two tables and nothing
//! else: one cache-line [`SlotRecord`] per block (base, span, state and
//! allocation generation, beside the POLaR runtime's object record) and
//! one unit index from every 16-byte arena unit to the block
//! covering it. A 256 B block thus costs 128 B of heap metadata, on a
//! published heap ([`SimHeap::new_published`]) as on a standalone one:
//! the publisher shares the heap's index instead of keeping its own.
//!
//! # Example
//!
//! ```
//! use polar_simheap::{HeapConfig, SimHeap};
//!
//! let mut heap = SimHeap::new(HeapConfig::default());
//! let a = heap.malloc(32)?;
//! heap.write_u64(a, 0xdead_beef)?;
//! assert_eq!(heap.read_u64(a)?, 0xdead_beef);
//! heap.free(a)?;
//! // Immediate reuse: the next same-sized allocation lands on the freed
//! // slot — the address a dangling pointer still refers to.
//! let b = heap.malloc(32)?;
//! assert_eq!(a, b);
//! # Ok::<(), polar_simheap::HeapError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use polar_rng::{Rng, SplitMix64};

mod publish;
mod record;
mod shared;

use publish::UnitIndex;
use record::MAX_SPAN_UNITS;
use shared::SharedArena;

pub use publish::HeapPublisher;
pub use record::{
    PubSnapshot, SlotRecord, SlotRecords, SnapshotOutcome, PUB_STATE_FREED, PUB_STATE_LIVE,
    PUB_STATE_NONE, PUB_STATE_STRANDED,
};

/// A heap address: a byte offset into the arena. `0` is reserved as null.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The null address.
    pub const NULL: Addr = Addr(0);

    /// Whether this is the null address.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Address `offset` bytes past `self`.
    ///
    /// ```
    /// use polar_simheap::Addr;
    /// assert_eq!(Addr(0x100).offset(8), Addr(0x108));
    /// ```
    pub fn offset(self, offset: u64) -> Addr {
        Addr(self.0 + offset)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Errors returned by heap operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// The arena capacity would be exceeded.
    OutOfMemory {
        /// Requested allocation size in bytes.
        requested: usize,
    },
    /// `free` was called on an address that is not a live block base.
    InvalidFree(Addr),
    /// `free` was called twice on the same block.
    DoubleFree(Addr),
    /// A read or write fell outside the arena entirely (a wild access —
    /// the analogue of a segmentation fault).
    Fault {
        /// Faulting address.
        addr: Addr,
        /// Access length in bytes.
        len: usize,
    },
    /// A checked access crossed the boundary of its block.
    OutOfBlock {
        /// Accessed address.
        addr: Addr,
        /// Access length in bytes.
        len: usize,
    },
    /// Zero-byte allocation request.
    ZeroSize,
    /// The allocator's internal unit index lost track of a block it was
    /// about to recycle (a quarantined address with no owning slot).
    /// Surfaced as a structured error instead of a panic so callers can
    /// degrade — mirroring the sharded runtime's `ShardPoisoned`
    /// recovery — while the offending entry is dropped from the
    /// quarantine rather than recycled blind.
    IndexCorrupt(Addr),
    /// An integer access of a width other than 1, 2, 4 or 8 bytes.
    InvalidWidth {
        /// Accessed address.
        addr: Addr,
        /// Requested width in bytes.
        width: usize,
    },
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::OutOfMemory { requested } => {
                write!(f, "out of memory allocating {requested} bytes")
            }
            HeapError::InvalidFree(a) => write!(f, "invalid free of {a}"),
            HeapError::DoubleFree(a) => write!(f, "double free of {a}"),
            HeapError::Fault { addr, len } => {
                write!(f, "memory fault accessing {len} bytes at {addr}")
            }
            HeapError::OutOfBlock { addr, len } => {
                write!(f, "access of {len} bytes at {addr} crosses its block boundary")
            }
            HeapError::ZeroSize => write!(f, "zero-size allocation"),
            HeapError::IndexCorrupt(a) => {
                write!(f, "allocator index lost track of quarantined block {a}")
            }
            HeapError::InvalidWidth { addr, width } => {
                write!(f, "integer access of invalid width {width} at {addr}")
            }
        }
    }
}

impl std::error::Error for HeapError {}

/// Lifecycle state of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// The block is allocated.
    Live,
    /// The block has been freed (and possibly sits in quarantine).
    Freed,
}

/// The allocator's view of one block, read from its [`SlotRecord`]
/// (outside the arena, so exploits target object data rather than
/// allocator metadata).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Base address of the usable block.
    pub base: Addr,
    /// Usable size in bytes (the rounded size-class size).
    pub size: usize,
    /// Current lifecycle state.
    pub state: BlockState,
    /// Monotonic allocation generation; bumped each time the slot is
    /// handed out again. Lets tooling tell "same address, new object".
    pub generation: u64,
}

/// The fixed geometry of placement randomization: how much address
/// entropy each mechanism adds when [`PlacementPolicy::enabled`] is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementGeometry {
    /// Capacity of the per-size-class shuffle buffer sitting in front of
    /// each free list (shuffling-allocator style). Frees insert into the
    /// buffer and evict a random held-back block; allocations swap the
    /// popped block with a random buffered one.
    pub shuffle_depth: usize,
    /// Entropy bits of the one-time arena slide: the first block's base
    /// is offset by `uniform(0 .. 2^bits)` alignment units, an
    /// ASLR-style displacement of the whole address sequence.
    pub offset_entropy_bits: u32,
    /// Entropy bits of the per-block guard gap: `grow` skips
    /// `uniform(0 .. 2^bits)` unowned alignment units before each carved
    /// block, so inter-object deltas vary block to block.
    pub guard_gap_bits: u32,
}

impl PlacementGeometry {
    /// Total placement entropy in bits for one allocation, in the ASLR
    /// accounting style: log2 of the number of equally-likely choices
    /// each mechanism contributes (buffer pick, arena slide, guard gap).
    pub fn entropy_bits(&self) -> f64 {
        (self.shuffle_depth as f64).log2()
            + f64::from(self.offset_entropy_bits)
            + f64::from(self.guard_gap_bits)
    }
}

/// The placement geometry every placement-randomized heap uses: a
/// 16-deep shuffle buffer, an 8-bit arena slide and 6-bit guard gaps.
pub const PLACEMENT_GEOMETRY: PlacementGeometry =
    PlacementGeometry { shuffle_depth: 16, offset_entropy_bits: 8, guard_gap_bits: 6 };

/// Placement-randomization policy: address-space entropy layered on the
/// allocator, complementing POLaR's intra-object layout entropy, with
/// the geometry of [`PLACEMENT_GEOMETRY`].
///
/// The default (off) disables the layer entirely and keeps the heap's
/// address sequence bit-for-bit identical to the historical
/// deterministic allocator — LIFO free lists, sequential `grow`, FIFO
/// quarantine — which many tests and the exploit scenarios rely on.
///
/// When on, the heap draws from its own seeded SplitMix64 stream
/// (`seed`), so placement stays a pure function of the configuration:
/// same seed, same op sequence, same addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlacementPolicy {
    /// Whether placement randomization is active.
    pub enabled: bool,
    /// Seed of the heap's placement RNG stream. Callers that want
    /// replayable placement derive this from their process seed (the
    /// runtime derives one per heap/shard from its own seed when this
    /// is 0).
    pub seed: u64,
}

impl PlacementPolicy {
    /// Placement randomization on, drawing from `seed`.
    pub fn on(seed: u64) -> Self {
        PlacementPolicy { enabled: true, seed }
    }
}

/// Allocator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapConfig {
    /// Maximum arena size in bytes.
    pub capacity: usize,
    /// Number of freed blocks to hold back before reuse (0 = immediate
    /// reuse, the default and the exploit-friendly glibc-like behaviour;
    /// larger values model ASan-style quarantine).
    pub quarantine: usize,
    /// Byte written over freed blocks (`None` leaves stale data in place,
    /// which is what makes use-after-free *reads* informative).
    pub poison: Option<u8>,
    /// Redzone gap in bytes left unowned after every block (0 = packed,
    /// the default; ASan-style defenses set this so linear overflows walk
    /// into no-man's-land before reaching the neighbour).
    pub redzone: usize,
    /// First address of this heap's arena (0 = the default, standalone
    /// heap). A sharded runtime gives each shard a disjoint
    /// `[arena_base, arena_base + capacity)` window so any address names
    /// its owning shard by simple division; accesses below `arena_base`
    /// fault just like accesses past the arena end.
    pub arena_base: u64,
    /// Placement randomization (shuffle buffers, arena slide, guard
    /// gaps). Disabled by default: addresses stay deterministic.
    pub placement: PlacementPolicy,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            capacity: 64 << 20,
            quarantine: 0,
            poison: None,
            redzone: 0,
            arena_base: 0,
            placement: PlacementPolicy::default(),
        }
    }
}

/// Running allocator statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapStats {
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of successful frees.
    pub frees: u64,
    /// Allocations satisfied by reusing a freed slot.
    pub reuses: u64,
    /// Bytes currently allocated (usable sizes).
    pub bytes_live: usize,
    /// High-water mark of `bytes_live`.
    pub bytes_peak: usize,
}

pub(crate) const ALIGN: usize = 16;
const SIZE_CLASSES: [usize; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Backing storage for the arena bytes: a plain `Vec<u8>` for ordinary
/// single-threaded heaps (zero overhead on the existing hot paths), or
/// a [`SharedArena`] of atomic words for published heaps whose bytes
/// lock-free readers may load concurrently.
#[derive(Debug, Clone)]
enum ArenaStore {
    Local(Vec<u8>),
    Shared(Arc<SharedArena>),
}

impl ArenaStore {
    #[inline]
    fn len(&self) -> usize {
        match self {
            ArenaStore::Local(v) => v.len(),
            ArenaStore::Shared(a) => a.len(),
        }
    }

    fn grow_to(&mut self, new_len: usize) {
        match self {
            ArenaStore::Local(v) => v.resize(new_len, 0),
            ArenaStore::Shared(a) => a.grow_to(new_len),
        }
    }

    fn fill(&mut self, start: usize, len: usize, value: u8) {
        match self {
            ArenaStore::Local(v) => v[start..start + len].fill(value),
            ArenaStore::Shared(a) => a.fill(start, len, value),
        }
    }

    fn write(&mut self, start: usize, bytes: &[u8]) {
        match self {
            ArenaStore::Local(v) => v[start..start + bytes.len()].copy_from_slice(bytes),
            ArenaStore::Shared(a) => a.write(start, bytes),
        }
    }

    fn read_into(&self, start: usize, len: usize, out: &mut Vec<u8>) {
        match self {
            ArenaStore::Local(v) => out.extend_from_slice(&v[start..start + len]),
            ArenaStore::Shared(a) => a.read_into(start, len, out),
        }
    }

    /// `None` when the range is not committed.
    #[inline]
    fn read_uint(&self, start: usize, width: usize) -> Option<u64> {
        match self {
            ArenaStore::Local(v) => {
                let mut buf = [0u8; 8];
                buf[..width].copy_from_slice(v.get(start..start + width)?);
                Some(u64::from_le_bytes(buf))
            }
            ArenaStore::Shared(a) => a.read_uint(start, width),
        }
    }

    fn copy_within(&mut self, src: usize, dst: usize, len: usize) {
        match self {
            ArenaStore::Local(v) => v.copy_within(src..src + len, dst),
            ArenaStore::Shared(a) => a.copy_within(src, dst, len),
        }
    }

    /// A borrowed byte slice — only the local store can hand one out.
    #[inline]
    fn local_slice(&self, start: usize, end: usize) -> Option<&[u8]> {
        match self {
            ArenaStore::Local(v) => Some(&v[start..end]),
            ArenaStore::Shared(_) => None,
        }
    }
}

fn size_class(size: usize) -> Option<usize> {
    SIZE_CLASSES.iter().position(|&c| size <= c)
}

/// Largest size class whose blocks a span of `size` bytes can serve, for
/// routing *released* spans back to a pool. Inverse-ish of
/// [`size_class`]: an exact class size maps to its own class, a
/// class-aligned-but-not-exact span (e.g. a best-fit remnant) maps to
/// the largest class it still covers instead of leaking to `large_free`.
fn release_class(size: usize) -> Option<usize> {
    if size > SIZE_CLASSES[SIZE_CLASSES.len() - 1] {
        return None;
    }
    SIZE_CLASSES.iter().rposition(|&c| c <= size)
}

fn placement_mask(bits: u32) -> u64 {
    (1u64 << bits) - 1
}

/// The simulated heap: arena + segregated freelists + slot records.
///
/// Block metadata lives in two dense tables instead of a hashtable:
/// every distinct base address the allocator has ever handed out gets a
/// stable **slot id** and one [`SlotRecord`] — block base, span, state
/// and generation beside the POLaR runtime's object record — and a unit
/// index maps every 16-byte arena unit to the slot covering it.
/// Every metadata lookup, base-exact or interior, is therefore a
/// constant-time table read, and a freed block keeps its record.
#[derive(Debug)]
pub struct SimHeap {
    store: ArenaStore,
    config: HeapConfig,
    /// Per-class free lists of slot ids: a reused block is found through
    /// its record, with no unit-index walk.
    free_lists: [Vec<u32>; SIZE_CLASSES.len()],
    /// Freed oversize spans as `(slot id, span)`.
    large_free: Vec<(u32, usize)>,
    quarantine: VecDeque<Addr>,
    /// Slot ids handed out so far (the next fresh block's id).
    slot_count: u32,
    /// The one `address → slot` map; shared with the publisher on a
    /// published heap.
    units: UnitIndex,
    /// Per-size-class shuffle buffers: freed blocks held back from their
    /// free list and released in random order
    /// ([`PlacementGeometry::shuffle_depth`]). Blocks in here are `Freed`,
    /// exactly like free-list entries; empty when shuffling is off.
    shuffle: [Vec<u32>; SIZE_CLASSES.len()],
    /// Seeded stream every placement decision draws from; never advanced
    /// when placement is off.
    placement_rng: SplitMix64,
    stats: HeapStats,
    /// One record per slot: the block plus the runtime's object
    /// metadata. Shared with the publisher on a published heap.
    records: Arc<SlotRecords>,
    /// Lock-free reader access (shared arena, unit index, records);
    /// `None` for ordinary (local, single-threaded) heaps.
    publisher: Option<Arc<HeapPublisher>>,
}

impl SimHeap {
    /// Create a heap with the given configuration. Address `0` is never
    /// handed out; the arena starts with one reserved alignment unit
    /// (plus the one-time placement slide when placement is on).
    pub fn new(config: HeapConfig) -> Self {
        Self::build(config, false)
    }

    /// A heap whose arena starts with one reserved alignment unit, slid
    /// by `uniform(0 .. 2^offset_entropy_bits)` units when placement is
    /// on (never past half the capacity); published when `published`.
    fn build(config: HeapConfig, published: bool) -> Self {
        let mut rng = SplitMix64::new(config.placement.seed);
        let mut extent = ALIGN;
        if config.placement.enabled {
            let units = rng.next_u64() & placement_mask(PLACEMENT_GEOMETRY.offset_entropy_bits);
            extent = (ALIGN + units as usize * ALIGN).min((config.capacity / 2).max(ALIGN));
        }
        let records = Arc::new(SlotRecords::default());
        let units = UnitIndex::new(config.capacity, config.arena_base);
        let (mut store, publisher) = if published {
            let arena = Arc::new(SharedArena::new(config.capacity));
            let (units, records) = (units.clone(), Arc::clone(&records));
            let p = HeapPublisher { arena: Arc::clone(&arena), units, records };
            (ArenaStore::Shared(arena), Some(Arc::new(p)))
        } else {
            (ArenaStore::Local(Vec::new()), None)
        };
        store.grow_to(extent);
        SimHeap {
            store,
            config,
            free_lists: Default::default(),
            large_free: Vec::new(),
            quarantine: VecDeque::new(),
            slot_count: 0,
            units,
            shuffle: Default::default(),
            placement_rng: rng,
            stats: HeapStats::default(),
            records,
            publisher,
        }
    }

    /// Create a **published** heap: arena bytes live in a shared atomic
    /// store, and a [`HeapPublisher`] shares them and the unit index that
    /// leads any address to its seqlocked slot record, so other threads
    /// can read fields and snapshots without this heap's owner lock.
    /// Mutation still requires `&mut self` (the owner serializes
    /// writers); the record seqlocks order the racing readers.
    ///
    /// Borrowing reads ([`SimHeap::read`], [`SimHeap::read_in_block`])
    /// panic on a published heap — use [`SimHeap::read_vec`],
    /// [`SimHeap::read_into`], [`SimHeap::read_uint`] and
    /// [`SimHeap::check_in_block`] instead.
    pub fn new_published(config: HeapConfig) -> Self {
        Self::build(config, true)
    }

    /// The lock-free reader side, when this heap is published.
    pub fn publisher(&self) -> Option<&Arc<HeapPublisher>> {
        self.publisher.as_ref()
    }

    /// The per-slot record table (every heap has one).
    #[inline]
    pub fn records(&self) -> &SlotRecords {
        &self.records
    }

    /// Open a seqlock writer window on `slot`; `None` on an unpublished
    /// heap, which has no concurrent readers to fence. Callers
    /// bracketing their own multi-store record mutations pass the token
    /// back to [`SimHeap::pub_close`].
    #[inline]
    pub fn pub_open(&self, slot: u32) -> Option<u64> {
        self.publisher.as_ref().map(|_| self.records.open(slot))
    }

    /// Close a window opened by [`SimHeap::pub_open`].
    #[inline]
    pub fn pub_close(&self, slot: u32, token: Option<u64>) {
        if let Some(token) = token {
            self.records.close(slot, token);
        }
    }

    /// The configuration this heap was built with.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Current statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Current arena extent in bytes (grows on demand up to capacity).
    /// This is the *local* extent: the heap owns addresses
    /// `[arena_base, arena_base + arena_len)`.
    pub fn arena_len(&self) -> usize {
        self.store.len()
    }

    /// Local arena offset of a global address; `None` below `arena_base`.
    #[inline]
    fn local(&self, addr: Addr) -> Option<u64> {
        addr.0.checked_sub(self.config.arena_base)
    }

    /// Allocate `size` bytes, rounded up to a size class.
    ///
    /// Freed slots of the same class are reused in LIFO order, matching
    /// the immediate-reuse behaviour exploits rely on — unless placement
    /// randomization is on ([`PlacementPolicy`]), in which case
    /// the reused slot is swapped with a random held-back block first.
    /// Oversize requests best-fit the `large_free` pool: the smallest
    /// span that covers the request is reused whole.
    ///
    /// # Errors
    ///
    /// [`HeapError::ZeroSize`] for `size == 0`;
    /// [`HeapError::OutOfMemory`] when the arena capacity is exhausted or
    /// the span exceeds what a slot record holds (`2^31 - 1` units).
    pub fn malloc(&mut self, size: usize) -> Result<Addr, HeapError> {
        self.malloc_slot(size).map(|(addr, _, _)| addr)
    }

    /// [`SimHeap::malloc`] that also returns the block's slot id and its
    /// new allocation generation (what [`SimHeap::slot_gen`] would
    /// report), so callers recording the block need no second lookup.
    ///
    /// # Errors
    ///
    /// As for [`SimHeap::malloc`].
    #[inline]
    pub fn malloc_slot(&mut self, size: usize) -> Result<(Addr, u32, u64), HeapError> {
        self.malloc_with(size, |_, addr, slot, generation| (addr, slot, generation))
    }

    /// [`SimHeap::malloc_slot`] that runs `init(heap, base, slot,
    /// generation)` on the new block before any lock-free reader can see
    /// it: the caller's first writes to the block (its object record and
    /// canaries) land in the same seqlock writer window as a reused
    /// slot's generation bump, and ahead of the unit-index publication
    /// of a fresh block. A reader sees the slot's previous occupant or
    /// the block with `init`'s writes, never the bump alone. `init` must
    /// not open a window on the slot itself.
    ///
    /// # Errors
    ///
    /// As for [`SimHeap::malloc`]; `init` does not run on an error.
    pub fn malloc_with<R>(
        &mut self,
        size: usize,
        init: impl FnOnce(&mut SimHeap, Addr, u32, u64) -> R,
    ) -> Result<R, HeapError> {
        if size == 0 {
            return Err(HeapError::ZeroSize);
        }
        let (reused, usable) = match size_class(size) {
            Some(class) => {
                let popped = self.free_lists[class].pop();
                let reused = if !self.shuffle[class].is_empty() {
                    // Shuffle swap: the block actually handed out comes
                    // from a random buffer slot; the freshly popped one
                    // (if any) takes its place for a later allocation.
                    let pick = (self.placement_rng.next_u64()
                        % self.shuffle[class].len() as u64)
                        as usize;
                    Some(match popped {
                        Some(slot) => std::mem::replace(&mut self.shuffle[class][pick], slot),
                        None => self.shuffle[class].swap_remove(pick),
                    })
                } else {
                    popped
                };
                (reused, SIZE_CLASSES[class])
            }
            None => {
                let units = size.div_ceil(ALIGN);
                if units > MAX_SPAN_UNITS {
                    return Err(HeapError::OutOfMemory { requested: size });
                }
                let usable = units * ALIGN;
                // Best fit: the smallest free span that covers the
                // request, so a 4 KB ask can no longer absorb a 64 KB
                // block that a later large request would then miss.
                let fit = self
                    .large_free
                    .iter()
                    .enumerate()
                    .filter(|&(_, &(_, free_size))| free_size >= usable)
                    .min_by_key(|&(_, &(_, free_size))| free_size)
                    .map(|(pos, _)| pos);
                (fit.map(|pos| self.large_free.swap_remove(pos).0), usable)
            }
        };
        match reused {
            Some(slot) => {
                // Reused slot: same base, same span — bump the generation.
                // The bump, the zero-fill and `init` race concurrent
                // readers of a published heap, so all sit inside one
                // seqlock window; the bump also orphans any object record
                // on the slot (its meta_gen falls behind heap_gen) until
                // `init` records a new one. The recorded span is
                // authoritative — it can exceed the class size when a
                // best-fit or re-pooled span serves a smaller request.
                let rec = self.records.get(slot).expect("a pooled slot has a record");
                let old = rec.block_info();
                let block =
                    BlockInfo { state: BlockState::Live, generation: old.generation + 1, ..old };
                let win = self.pub_open(slot);
                rec.set_block(block);
                self.stats.reuses += 1;
                self.note_alloc(block.size);
                let out = init(self, block.base, slot, block.generation);
                self.pub_close(slot, win);
                Ok(out)
            }
            None => {
                let addr = Addr(self.grow(usable)?);
                let start = (addr.0 - self.config.arena_base) as usize;
                let slot = self.slot_count;
                self.slot_count += 1;
                // Fresh block: initialize the record and run `init`
                // *before* the unit index points at the slot — no reader
                // can observe it until the Release unit stores land, so
                // no window is needed.
                let block =
                    BlockInfo { base: addr, size: usable, state: BlockState::Live, generation: 1 };
                self.records.ensure(slot).set_block(block);
                self.note_alloc(usable);
                let out = init(self, addr, slot, 1);
                self.units.publish(start / ALIGN, (start + usable) / ALIGN, slot);
                Ok(out)
            }
        }
    }

    /// Count an allocation of a `span`-byte block.
    #[inline]
    fn note_alloc(&mut self, span: usize) {
        self.stats.allocs += 1;
        self.stats.bytes_live += span;
        self.stats.bytes_peak = self.stats.bytes_peak.max(self.stats.bytes_live);
    }

    fn grow(&mut self, usable: usize) -> Result<u64, HeapError> {
        let mut base = self.store.len();
        if self.config.placement.enabled {
            // Randomized guard gap: unowned alignment units between this
            // block and its predecessor. Like a redzone the units keep
            // index entry 0, so checked accesses into the gap report
            // OutOfBlock; unlike the fixed redzone the inter-block
            // distance now varies per block.
            let units = self.placement_rng.next_u64()
                & placement_mask(PLACEMENT_GEOMETRY.guard_gap_bits);
            base += units as usize * ALIGN;
        }
        let new_len = base + usable + self.config.redzone.next_multiple_of(ALIGN);
        if new_len > self.config.capacity {
            return Err(HeapError::OutOfMemory { requested: usable });
        }
        self.store.grow_to(new_len);
        Ok(self.config.arena_base + base as u64)
    }

    /// Free a block previously returned by [`SimHeap::malloc`].
    ///
    /// With `quarantine == 0` the slot becomes immediately reusable.
    /// When placement randomization is on, quarantine eviction picks a
    /// random entry instead of the FIFO head, so the release order leaks
    /// nothing about the free order.
    ///
    /// # Errors
    ///
    /// [`HeapError::DoubleFree`] when the block is already freed;
    /// [`HeapError::InvalidFree`] for any address that is not a live block
    /// base; [`HeapError::IndexCorrupt`] when a quarantined block about
    /// to be recycled no longer has an owning slot (the block itself was
    /// freed successfully; the corrupt entry is dropped, not recycled).
    pub fn free(&mut self, addr: Addr) -> Result<(), HeapError> {
        let Some((slot, _)) = self.record_at(addr) else {
            return Err(HeapError::InvalidFree(addr));
        };
        self.free_slot(slot, false)
    }

    /// Free the block of `slot` and retire its object record
    /// ([`SlotRecords::retire`]) in the same writer window as the
    /// block's Freed flip: a lock-free reader sees the live object or
    /// the freed one, never a retired record on a live block. Found by
    /// slot id, so no unit-index lookup.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidFree`] for a slot id never handed out;
    /// [`HeapError::DoubleFree`] when the block is already freed (the
    /// record is retired all the same); [`HeapError::IndexCorrupt`] as
    /// for [`SimHeap::free`].
    pub fn free_object(&mut self, slot: u32) -> Result<(), HeapError> {
        self.free_slot(slot, true)
    }

    /// The body of [`SimHeap::free`] and [`SimHeap::free_object`].
    fn free_slot(&mut self, slot: u32, retire: bool) -> Result<(), HeapError> {
        let Some(rec) = self.records.get(slot).filter(|_| slot < self.slot_count) else {
            return Err(HeapError::InvalidFree(Addr::NULL));
        };
        let block = rec.block_info();
        let addr = block.base;
        // The record's retirement, the state flip and the poison fill
        // are one atomic event to a racing lock-free reader: window
        // them together.
        let freed = block.state == BlockState::Freed;
        if freed && !retire {
            return Err(HeapError::DoubleFree(addr));
        }
        let win = self.pub_open(slot);
        if retire {
            self.records.retire(slot);
        }
        if !freed {
            rec.set_block(BlockInfo { state: BlockState::Freed, ..block });
            if let Some(poison) = self.config.poison {
                let start = (addr.0 - self.config.arena_base) as usize;
                self.store.fill(start, block.size, poison);
            }
        }
        self.pub_close(slot, win);
        if freed {
            return Err(HeapError::DoubleFree(addr));
        }
        self.stats.frees += 1;
        self.stats.bytes_live -= block.size;
        if self.config.quarantine == 0 {
            // Immediate reuse (the default): the block just freed is the
            // one released — skip the deque round-trip and the second
            // slot lookup it would cost on every free.
            self.release_to_free_list(slot, block.size);
            return Ok(());
        }
        self.quarantine.push_back(addr);
        while self.quarantine.len() > self.config.quarantine {
            let pick = if self.config.placement.enabled && self.quarantine.len() > 1 {
                (self.placement_rng.next_u64() % self.quarantine.len() as u64) as usize
            } else {
                0
            };
            let released = self.quarantine.remove(pick).expect("non-empty");
            // The unit index no longer maps this base to a slot:
            // metadata corruption. Drop the entry (recycling it blind
            // could alias a live block) and surface the error instead of
            // panicking.
            let Some((slot, evicted)) = self.record_at(released) else {
                return Err(HeapError::IndexCorrupt(released));
            };
            let size = evicted.block_info().size;
            self.release_to_free_list(slot, size);
        }
        Ok(())
    }

    /// Hand a (no longer quarantined) block back to its free list — or,
    /// when a shuffle buffer is configured, hold it back and release a
    /// random previously-buffered block in its place.
    #[inline]
    fn release_to_free_list(&mut self, released: u32, released_size: usize) {
        match release_class(released_size) {
            Some(class) => {
                if self.config.placement.enabled {
                    let depth = PLACEMENT_GEOMETRY.shuffle_depth;
                    if self.shuffle[class].len() < depth {
                        // Buffer not yet full: hold the block back; it
                        // only becomes reusable via a random swap.
                        self.shuffle[class].push(released);
                        return;
                    }
                    let pick =
                        (self.placement_rng.next_u64() % depth as u64) as usize;
                    let evicted =
                        std::mem::replace(&mut self.shuffle[class][pick], released);
                    self.free_lists[class].push(evicted);
                } else {
                    self.free_lists[class].push(released);
                }
            }
            None => self.large_free.push((released, released_size)),
        }
    }

    /// Snapshot of the reuse pools — per-class free lists, the
    /// `large_free` spans, and the shuffle-buffer contents — for
    /// invariant checks (property tests assert the pools are disjoint
    /// and only ever hold freed blocks). Not a stable API.
    #[doc(hidden)]
    pub fn free_pool_snapshot(&self) -> (Vec<Vec<u64>>, Vec<(u64, usize)>, Vec<u64>) {
        let base = |&slot: &u32| self.records.get(slot).map_or(0, SlotRecord::base);
        (
            self.free_lists.iter().map(|list| list.iter().map(base).collect()).collect(),
            self.large_free.iter().map(|(slot, size)| (base(slot), *size)).collect(),
            self.shuffle.iter().flatten().map(base).collect(),
        )
    }

    /// The slot record of the block based exactly at `addr`, with its
    /// slot id. O(1) through the arena-unit index; the record's own base
    /// decides whether `addr` is a base.
    #[inline]
    pub fn record_at(&self, addr: Addr) -> Option<(u32, &SlotRecord)> {
        let slot = self.units.slot_of(addr.0)?;
        let rec = self.records.get(slot)?;
        (rec.base() == addr.0).then_some((slot, rec))
    }

    /// Stable dense slot id and current allocation generation for a block
    /// base address. O(1); `None` when `addr` is not a block base.
    ///
    /// A base address keeps one slot id for the heap's whole lifetime
    /// (slots are never merged or split), and the generation increments
    /// on every reallocation of the slot — together they let the slot
    /// records self-invalidate stale object metadata by generation
    /// instead of explicitly removing it.
    #[inline]
    pub fn slot_gen(&self, addr: Addr) -> Option<(u32, u64)> {
        self.record_at(addr).map(|(slot, rec)| (slot, rec.block_info().generation))
    }

    /// Number of distinct block slots ever created (freed slots included).
    pub fn slot_count(&self) -> usize {
        self.slot_count as usize
    }

    /// Bytes of heap metadata: the slot records, the unit index (one
    /// table, shared with the publisher on a published heap) and the
    /// shuffle buffers.
    pub fn metadata_bytes(&self) -> usize {
        self.records.metadata_bytes()
            + self.units.metadata_bytes()
            + self.shuffle.iter().map(|b| b.capacity() * std::mem::size_of::<u32>()).sum::<usize>()
    }

    /// Block metadata for the block *containing* `addr`, if any. O(1)
    /// through the arena-unit index.
    ///
    /// This is a diagnostic/tooling interface (the runtime and sanitizers
    /// use it); ordinary program accesses never consult it.
    pub fn block_containing(&self, addr: Addr) -> Option<BlockInfo> {
        self.block_by_slot(self.units.slot_of(addr.0)?)
    }

    /// Block metadata when `addr` is exactly a block base. O(1).
    pub fn block_at(&self, addr: Addr) -> Option<BlockInfo> {
        self.record_at(addr).map(|(_, rec)| rec.block_info())
    }

    /// Block metadata by dense slot id (the id [`SimHeap::slot_gen`]
    /// returns and the slot records are indexed by). O(1); `None` for
    /// ids never handed out. Remote-free intake uses this to map a
    /// drained slot index back to its block base.
    pub fn block_by_slot(&self, slot: u32) -> Option<BlockInfo> {
        let rec = self.records.get(slot).filter(|_| slot < self.slot_count)?;
        Some(rec.block_info())
    }

    fn check_range(&self, addr: Addr, len: usize) -> Result<(usize, usize), HeapError> {
        let start = self.local(addr).ok_or(HeapError::Fault { addr, len })? as usize;
        let end = start.checked_add(len).ok_or(HeapError::Fault { addr, len })?;
        if addr.is_null() || end > self.store.len() || len == 0 {
            return Err(HeapError::Fault { addr, len });
        }
        Ok((start, end))
    }

    /// Read `len` bytes at `addr`. Bounds-checked against the arena only —
    /// reads that stray out of their block but stay inside the heap
    /// succeed, exactly like real out-of-bounds reads.
    ///
    /// # Errors
    ///
    /// [`HeapError::Fault`] when the range leaves the arena or `addr` is
    /// null.
    ///
    /// # Panics
    ///
    /// Panics on a published heap, whose atomic arena cannot hand out
    /// byte borrows — use [`SimHeap::read_vec`], [`SimHeap::read_into`]
    /// or [`SimHeap::read_uint`] there.
    pub fn read(&self, addr: Addr, len: usize) -> Result<&[u8], HeapError> {
        let (start, end) = self.check_range(addr, len)?;
        match self.store.local_slice(start, end) {
            Some(slice) => Ok(slice),
            None => panic!(
                "SimHeap::read borrows the local arena; published heaps must use \
                 read_vec/read_into/read_uint"
            ),
        }
    }

    /// Read `len` bytes at `addr` into a fresh buffer (works on both
    /// local and published heaps; same bounds policy as
    /// [`SimHeap::read`]).
    ///
    /// # Errors
    ///
    /// [`HeapError::Fault`] as for [`SimHeap::read`].
    pub fn read_vec(&self, addr: Addr, len: usize) -> Result<Vec<u8>, HeapError> {
        let mut out = Vec::with_capacity(len);
        self.read_into(addr, len, &mut out)?;
        Ok(out)
    }

    /// Append `len` bytes at `addr` to `out` (works on both local and
    /// published heaps; same bounds policy as [`SimHeap::read`]).
    ///
    /// # Errors
    ///
    /// [`HeapError::Fault`] as for [`SimHeap::read`].
    pub fn read_into(&self, addr: Addr, len: usize, out: &mut Vec<u8>) -> Result<(), HeapError> {
        let (start, _) = self.check_range(addr, len)?;
        self.store.read_into(start, len, out);
        Ok(())
    }

    /// Write `bytes` at `addr` with the same (arena-only) bounds policy as
    /// [`SimHeap::read`].
    ///
    /// # Errors
    ///
    /// [`HeapError::Fault`] when the range leaves the arena or `addr` is
    /// null.
    pub fn write(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), HeapError> {
        let (start, _) = self.check_range(addr, bytes.len())?;
        self.store.write(start, bytes);
        Ok(())
    }

    /// The arena range of a `width`-byte integer access at `addr`.
    fn check_uint(&self, addr: Addr, width: usize) -> Result<usize, HeapError> {
        match width {
            1 | 2 | 4 | 8 => self.check_range(addr, width).map(|(start, _)| start),
            _ => Err(HeapError::InvalidWidth { addr, width }),
        }
    }

    /// Read an unsigned little-endian integer of `width` ∈ {1,2,4,8} bytes.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidWidth`] for any other width;
    /// [`HeapError::Fault`] as for [`SimHeap::read`].
    pub fn read_uint(&self, addr: Addr, width: usize) -> Result<u64, HeapError> {
        let start = self.check_uint(addr, width)?;
        self.store.read_uint(start, width).ok_or(HeapError::Fault { addr, len: width })
    }

    /// Write the low `width` bytes of `value` little-endian at `addr`.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidWidth`] for a width other than 1, 2, 4 or 8;
    /// [`HeapError::Fault`] as for [`SimHeap::write`].
    pub fn write_uint(&mut self, addr: Addr, value: u64, width: usize) -> Result<(), HeapError> {
        let start = self.check_uint(addr, width)?;
        self.store.write(start, &value.to_le_bytes()[..width]);
        Ok(())
    }

    /// Convenience: read a full 8-byte word.
    ///
    /// # Errors
    ///
    /// [`HeapError::Fault`] as for [`SimHeap::read`].
    pub fn read_u64(&self, addr: Addr) -> Result<u64, HeapError> {
        self.read_uint(addr, 8)
    }

    /// Convenience: write a full 8-byte word.
    ///
    /// # Errors
    ///
    /// [`HeapError::Fault`] as for [`SimHeap::write`].
    pub fn write_u64(&mut self, addr: Addr, value: u64) -> Result<(), HeapError> {
        self.write_uint(addr, value, 8)
    }

    /// The block-boundary check behind [`SimHeap::read_in_block`] /
    /// [`SimHeap::write_in_block`], usable on its own (and on published
    /// heaps, which cannot hand out the borrowing read): the access
    /// must land in a live block and stay inside it.
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfBlock`] when the access crosses its block, is
    /// in no block, or the block is freed; [`HeapError::Fault`] when
    /// the range leaves the arena.
    pub fn check_in_block(&self, addr: Addr, len: usize) -> Result<(), HeapError> {
        let block = self.block_containing(addr).ok_or(
            // Inside the arena but in no block: a redzone/quarantine hit.
            if self.local(addr).is_some_and(|l| (l as usize) < self.store.len())
                && !addr.is_null()
            {
                HeapError::OutOfBlock { addr, len }
            } else {
                HeapError::Fault { addr, len }
            },
        )?;
        if block.state == BlockState::Freed {
            // Sanitizer semantics: freed memory is poisoned.
            return Err(HeapError::OutOfBlock { addr, len });
        }
        if addr.0 + len as u64 > block.base.0 + block.size as u64 {
            return Err(HeapError::OutOfBlock { addr, len });
        }
        self.check_range(addr, len).map(|_| ())
    }

    /// Checked read that must stay inside the block containing `addr`
    /// (ASan-like precision, used by sanitizer tooling and tests).
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfBlock`] when the access crosses its block, plus
    /// the [`HeapError::Fault`] cases of [`SimHeap::read`].
    ///
    /// # Panics
    ///
    /// Panics on a published heap (see [`SimHeap::read`]); use
    /// [`SimHeap::check_in_block`] + [`SimHeap::read_vec`] there.
    pub fn read_in_block(&self, addr: Addr, len: usize) -> Result<&[u8], HeapError> {
        self.check_in_block(addr, len)?;
        self.read(addr, len)
    }

    /// Checked write equivalent of [`SimHeap::read_in_block`].
    ///
    /// # Errors
    ///
    /// As for [`SimHeap::read_in_block`].
    pub fn write_in_block(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), HeapError> {
        self.check_in_block(addr, bytes.len())?;
        self.write(addr, bytes)
    }

    /// Copy `len` bytes from `src` to `dst` (memmove semantics: overlap is
    /// handled correctly).
    ///
    /// # Errors
    ///
    /// [`HeapError::Fault`] when either range leaves the arena.
    pub fn memmove(&mut self, dst: Addr, src: Addr, len: usize) -> Result<(), HeapError> {
        let (s_start, _) = self.check_range(src, len)?;
        let (d_start, _) = self.check_range(dst, len)?;
        self.store.copy_within(s_start, d_start, len);
        Ok(())
    }

    /// Fill `len` bytes at `addr` with `value` (memset semantics).
    ///
    /// # Errors
    ///
    /// [`HeapError::Fault`] when the range leaves the arena.
    pub fn memset(&mut self, addr: Addr, value: u8, len: usize) -> Result<(), HeapError> {
        let (start, _) = self.check_range(addr, len)?;
        self.store.fill(start, len, value);
        Ok(())
    }

    /// Iterate over all blocks the allocator knows about (live and freed).
    pub fn blocks(&self) -> impl Iterator<Item = BlockInfo> + '_ {
        (0..self.slot_count).filter_map(|slot| self.block_by_slot(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> SimHeap {
        SimHeap::new(HeapConfig::default())
    }

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let mut h = heap();
        let mut spans = Vec::new();
        for size in [1, 16, 17, 100, 4096, 5000] {
            let a = h.malloc(size).unwrap();
            assert_eq!(a.0 % ALIGN as u64, 0, "misaligned at {a}");
            let b = h.block_at(a).unwrap();
            spans.push((a.0, a.0 + b.size as u64));
        }
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "blocks overlap: {w:?}");
        }
    }

    #[test]
    fn null_is_never_returned() {
        let mut h = heap();
        let a = h.malloc(8).unwrap();
        assert!(!a.is_null());
    }

    #[test]
    fn lifo_reuse_of_freed_slot() {
        let mut h = heap();
        let a = h.malloc(48).unwrap();
        let _keep = h.malloc(48).unwrap();
        h.free(a).unwrap();
        let b = h.malloc(40).unwrap(); // same size class (64)
        assert_eq!(a, b, "freed slot should be reused immediately");
        assert_eq!(h.stats().reuses, 1);
        assert_eq!(h.block_at(b).unwrap().generation, 2);
    }

    #[test]
    fn quarantine_delays_reuse() {
        let mut h = SimHeap::new(HeapConfig { quarantine: 2, ..HeapConfig::default() });
        let a = h.malloc(32).unwrap();
        h.free(a).unwrap();
        let b = h.malloc(32).unwrap();
        assert_ne!(a, b, "quarantined slot must not be reused yet");
        // Push two more frees through to evict `a` from quarantine.
        let c = h.malloc(32).unwrap();
        h.free(b).unwrap();
        h.free(c).unwrap();
        let d = h.malloc(32).unwrap();
        assert_eq!(d, a, "evicted slot becomes reusable");
    }

    #[test]
    fn double_free_and_invalid_free_are_detected() {
        let mut h = heap();
        let a = h.malloc(8).unwrap();
        h.free(a).unwrap();
        assert_eq!(h.free(a), Err(HeapError::DoubleFree(a)));
        assert_eq!(h.free(Addr(12345)), Err(HeapError::InvalidFree(Addr(12345))));
    }

    #[test]
    fn zero_size_is_rejected() {
        assert_eq!(heap().malloc(0), Err(HeapError::ZeroSize));
    }

    #[test]
    fn stale_data_survives_free_by_default() {
        let mut h = heap();
        let a = h.malloc(16).unwrap();
        h.write_u64(a, 0x4141_4141).unwrap();
        h.free(a).unwrap();
        // The UAF read still sees the old contents.
        assert_eq!(h.read_u64(a).unwrap(), 0x4141_4141);
    }

    #[test]
    fn poison_overwrites_freed_data() {
        let mut h = SimHeap::new(HeapConfig { poison: Some(0xDD), ..HeapConfig::default() });
        let a = h.malloc(16).unwrap();
        h.write_u64(a, 0x4141_4141).unwrap();
        h.free(a).unwrap();
        assert_eq!(h.read(a, 2).unwrap(), &[0xDD, 0xDD]);
    }

    #[test]
    fn out_of_bounds_write_corrupts_neighbour() {
        let mut h = heap();
        let a = h.malloc(16).unwrap();
        let b = h.malloc(16).unwrap();
        h.write_u64(b, 7).unwrap();
        // Overflow from `a`: crosses into `b` silently.
        let delta = b.0 - a.0;
        h.write(a, &vec![0x41; (delta + 8) as usize]).unwrap();
        assert_eq!(h.read_u64(b).unwrap(), 0x4141_4141_4141_4141);
    }

    #[test]
    fn wild_access_faults() {
        let h = heap();
        let err = h.read(Addr(1 << 40), 8).unwrap_err();
        assert!(matches!(err, HeapError::Fault { .. }));
        assert!(matches!(h.read(Addr::NULL, 8).unwrap_err(), HeapError::Fault { .. }));
    }

    #[test]
    fn checked_access_detects_overflow() {
        let mut h = heap();
        let a = h.malloc(16).unwrap();
        let _b = h.malloc(16).unwrap();
        assert!(h.read_in_block(a, 16).is_ok());
        assert!(matches!(
            h.read_in_block(a, 17).unwrap_err(),
            HeapError::OutOfBlock { .. }
        ));
        assert!(matches!(
            h.write_in_block(a.offset(10), &[0; 8]).unwrap_err(),
            HeapError::OutOfBlock { .. }
        ));
    }

    #[test]
    fn uint_roundtrip_all_widths() {
        let mut h = heap();
        let a = h.malloc(32).unwrap();
        for (width, value) in [(1usize, 0xABu64), (2, 0xBEEF), (4, 0xDEAD_BEEF), (8, u64::MAX - 3)]
        {
            h.write_uint(a, value, width).unwrap();
            assert_eq!(h.read_uint(a, width).unwrap(), value);
        }
    }

    #[test]
    fn stores_report_uncommitted_integer_loads() {
        let shared = ArenaStore::Shared(Arc::new(SharedArena::new(64)));
        for store in [ArenaStore::Local(vec![0; 16]), shared] {
            assert_eq!(store.read_uint(12, 8), None, "{store:?}");
        }
    }

    #[test]
    fn memmove_handles_overlap() {
        let mut h = heap();
        let a = h.malloc(32).unwrap();
        h.write(a, b"abcdefgh").unwrap();
        h.memmove(a.offset(4), a, 8).unwrap();
        assert_eq!(h.read(a, 12).unwrap(), b"abcdabcdefgh");
    }

    #[test]
    fn memset_fills() {
        let mut h = heap();
        let a = h.malloc(16).unwrap();
        h.memset(a, 0x5A, 16).unwrap();
        assert!(h.read(a, 16).unwrap().iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn oom_at_capacity() {
        let mut h = SimHeap::new(HeapConfig { capacity: 1024, ..HeapConfig::default() });
        let mut last = Ok(Addr::NULL);
        for _ in 0..200 {
            last = h.malloc(64);
            if last.is_err() {
                break;
            }
        }
        assert!(matches!(last, Err(HeapError::OutOfMemory { .. })));
    }

    #[test]
    fn large_allocations_use_best_fit_reuse() {
        let mut h = heap();
        let a = h.malloc(10_000).unwrap();
        h.free(a).unwrap();
        let b = h.malloc(9_000).unwrap();
        assert_eq!(a, b, "large freed block should satisfy a smaller large request");
    }

    #[test]
    fn best_fit_picks_the_smallest_covering_span() {
        // Regression: first-fit used to hand a 5 KB request whatever
        // large block it met first, so a 64 KB span could be absorbed
        // by a request an 8 KB span would have covered.
        let mut h = heap();
        let big = h.malloc(64 * 1024).unwrap();
        let small = h.malloc(8 * 1024).unwrap();
        h.free(big).unwrap();
        h.free(small).unwrap();
        let c = h.malloc(5 * 1024).unwrap();
        assert_eq!(c, small, "best fit must prefer the 8 KB span over the 64 KB one");
        assert_eq!(h.block_at(c).unwrap().size, 8 * 1024, "span is reused whole");
        assert_eq!(h.stats().bytes_live, 8 * 1024, "accounting follows the real span");
        // The big span stays available for a request its size.
        let d = h.malloc(60 * 1024).unwrap();
        assert_eq!(d, big);
    }

    #[test]
    fn corrupt_quarantine_index_surfaces_an_error_not_a_panic() {
        // Fault injection: point the unit index of a quarantined block at
        // another slot, then force its eviction. The old code panicked
        // via `expect("quarantined block has a slot")`.
        let mut h = SimHeap::new(HeapConfig { quarantine: 1, ..HeapConfig::default() });
        let a = h.malloc(32).unwrap();
        let (b, slot_b, _) = h.malloc_slot(32).unwrap();
        h.free(a).unwrap(); // `a` sits in quarantine
        let unit = (a.0 as usize) / ALIGN;
        h.units.publish(unit, unit + 1, slot_b); // simulate index corruption
        let err = h.free(b).unwrap_err();
        assert_eq!(err, HeapError::IndexCorrupt(a));
        // The corrupt entry was dropped, not recycled: the heap keeps
        // working and never hands `a` out from a free list.
        let c = h.malloc(32).unwrap();
        assert_ne!(c, a, "corrupt block must not be recycled");
    }

    #[test]
    fn release_class_unifies_the_pool_predicate() {
        // Class-exact spans route to their own class…
        for (class, &size) in SIZE_CLASSES.iter().enumerate() {
            assert_eq!(release_class(size), Some(class));
        }
        // …class-aligned-but-not-exact spans route to the largest class
        // they can still serve (they used to leak onto large_free)…
        assert_eq!(release_class(48), Some(1));
        assert_eq!(release_class(3 * 1024), Some(7));
        // …and spans beyond the largest class stay large.
        assert_eq!(release_class(4096 + 16), None);
        assert_eq!(release_class(64 * 1024), None);
    }

    fn placed(seed: u64) -> HeapConfig {
        HeapConfig { placement: PlacementPolicy::on(seed), ..HeapConfig::default() }
    }

    /// Address trace of a fixed malloc/free workload.
    fn trace(config: HeapConfig) -> Vec<u64> {
        let mut h = SimHeap::new(config);
        let mut live = Vec::new();
        let mut out = Vec::new();
        for i in 0..64usize {
            let a = h.malloc(16 + (i * 13) % 100).unwrap();
            out.push(a.0);
            live.push(a);
            if i % 3 == 2 {
                let v = live.remove(i % live.len());
                h.free(v).unwrap();
            }
        }
        out
    }

    #[test]
    fn placement_off_is_bit_identical_to_the_deterministic_heap() {
        // A non-zero seed with placement off must not change a thing.
        let off = PlacementPolicy { enabled: false, seed: 0xDEAD_BEEF };
        assert_eq!(
            trace(HeapConfig::default()),
            trace(HeapConfig { placement: off, ..HeapConfig::default() })
        );
    }

    #[test]
    fn placement_replay_is_a_pure_function_of_the_seed() {
        let a = trace(placed(42));
        let b = trace(placed(42));
        assert_eq!(a, b, "same seed, same ops, same addresses");
        let c = trace(placed(43));
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn shuffle_buffer_breaks_lifo_reuse_order() {
        // Twice the buffer depth: half the frees are held back, half
        // released in random order.
        let n = 2 * PLACEMENT_GEOMETRY.shuffle_depth;
        let mut h = SimHeap::new(placed(7));
        let addrs: Vec<Addr> = (0..n).map(|_| h.malloc(32).unwrap()).collect();
        for &a in &addrs {
            h.free(a).unwrap();
        }
        let reused: Vec<Addr> = (0..n).map(|_| h.malloc(32).unwrap()).collect();
        let lifo: Vec<Addr> = addrs.iter().rev().copied().collect();
        assert_ne!(reused, lifo, "shuffling must not reproduce the LIFO order");
        // Every handed-out block is live, distinct and class-spanned.
        let set: std::collections::HashSet<u64> = reused.iter().map(|a| a.0).collect();
        assert_eq!(set.len(), reused.len());
        for &a in &reused {
            assert_eq!(h.block_at(a).unwrap().state, BlockState::Live);
        }
    }

    #[test]
    fn shuffle_holds_back_at_most_depth_blocks() {
        let depth = PLACEMENT_GEOMETRY.shuffle_depth;
        let mut h = SimHeap::new(placed(9));
        let addrs: Vec<Addr> = (0..2 * depth).map(|_| h.malloc(64).unwrap()).collect();
        for &a in &addrs {
            h.free(a).unwrap();
        }
        let (free_lists, large, buffered) = h.free_pool_snapshot();
        assert_eq!(buffered.len(), depth, "buffer holds exactly depth blocks");
        assert_eq!(free_lists.iter().map(Vec::len).sum::<usize>(), depth);
        assert!(large.is_empty());
        // Held-back blocks are still freed blocks — and stay reachable:
        // allocating everything back gets every address.
        let reused: std::collections::HashSet<u64> =
            (0..2 * depth).map(|_| h.malloc(64).unwrap().0).collect();
        assert_eq!(reused, addrs.iter().map(|a| a.0).collect());
    }

    #[test]
    fn guard_gaps_vary_inter_block_distance() {
        let mut h = SimHeap::new(placed(11));
        let addrs: Vec<u64> = (0..16).map(|_| h.malloc(32).unwrap().0).collect();
        let deltas: std::collections::HashSet<u64> =
            addrs.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas.len() > 1, "gap entropy must vary spacing: {deltas:?}");
        // Gap units belong to no block and are caught by checked access.
        for w in addrs.windows(2) {
            let block = h.block_at(Addr(w[0])).unwrap();
            let gap_start = w[0] + block.size as u64;
            for probe in (gap_start..w[1]).step_by(ALIGN) {
                assert!(h.block_containing(Addr(probe)).is_none(), "gap unit owned at {probe:#x}");
            }
        }
    }

    #[test]
    fn offset_entropy_slides_the_whole_arena() {
        let first = |seed: u64| SimHeap::new(placed(seed)).store.len();
        let a = first(1);
        let b = first(2);
        let c = first(1);
        assert_eq!(a, c, "slide is a pure function of the seed");
        assert_ne!(a, b, "different seeds should slide differently");
        let mut h = SimHeap::new(placed(1));
        let addr = h.malloc(32).unwrap();
        assert_eq!(addr.0 % ALIGN as u64, 0);
        assert_eq!(h.read_u64(addr).unwrap(), 0);
    }

    #[test]
    fn randomized_quarantine_eviction_preserves_the_quarantine_contract() {
        let mut cfg = placed(5);
        cfg.quarantine = 4;
        let mut h = SimHeap::new(cfg);
        // Freed blocks must sit out at least one allocation while the
        // quarantine is below capacity, whatever the eviction order.
        let a = h.malloc(32).unwrap();
        h.free(a).unwrap();
        let b = h.malloc(32).unwrap();
        assert_ne!(a, b, "quarantined block reused immediately");
        // Churn: every op keeps succeeding and stats stay consistent.
        let mut live = vec![b];
        for i in 0..200usize {
            let x = h.malloc(16 + (i % 64)).unwrap();
            live.push(x);
            if live.len() > 6 {
                let v = live.remove(i % live.len());
                h.free(v).unwrap();
            }
        }
        let expect: usize = live.iter().map(|a| h.block_at(*a).unwrap().size).sum();
        assert_eq!(h.stats().bytes_live, expect);
    }

    #[test]
    fn stats_track_live_bytes_and_peak() {
        let mut h = heap();
        let a = h.malloc(100).unwrap(); // class 128
        let b = h.malloc(100).unwrap();
        assert_eq!(h.stats().bytes_live, 256);
        assert_eq!(h.stats().bytes_peak, 256);
        h.free(a).unwrap();
        h.free(b).unwrap();
        assert_eq!(h.stats().bytes_live, 0);
        assert_eq!(h.stats().bytes_peak, 256);
        assert_eq!(h.stats().allocs, 2);
        assert_eq!(h.stats().frees, 2);
    }

    #[test]
    fn redzone_gaps_separate_blocks() {
        let mut h = SimHeap::new(HeapConfig { redzone: 16, ..HeapConfig::default() });
        let a = h.malloc(32).unwrap();
        let b = h.malloc(32).unwrap();
        // The gap between the blocks belongs to no block…
        let gap = Addr(a.0 + 32);
        assert!(h.block_containing(gap).is_none());
        assert!(b.0 >= a.0 + 48, "blocks must be separated by the gap");
        // …and checked access into it reports OutOfBlock, not a wild fault.
        assert!(matches!(
            h.read_in_block(gap, 1).unwrap_err(),
            HeapError::OutOfBlock { .. }
        ));
    }

    #[test]
    fn checked_access_to_freed_blocks_is_poisoned() {
        // Sanitizer semantics: quarantined/freed memory is untouchable
        // through the checked interface.
        let mut h = SimHeap::new(HeapConfig { quarantine: 8, ..HeapConfig::default() });
        let a = h.malloc(32).unwrap();
        h.free(a).unwrap();
        assert!(matches!(
            h.read_in_block(a, 8).unwrap_err(),
            HeapError::OutOfBlock { .. }
        ));
        assert!(matches!(
            h.write_in_block(a, &[1, 2]).unwrap_err(),
            HeapError::OutOfBlock { .. }
        ));
    }

    #[test]
    fn slot_ids_are_stable_and_generations_advance() {
        let mut h = heap();
        let a = h.malloc(32).unwrap();
        let (slot_a, gen1) = h.slot_gen(a).unwrap();
        assert_eq!(gen1, 1);
        h.free(a).unwrap();
        // Freed blocks keep their slot and generation.
        assert_eq!(h.slot_gen(a), Some((slot_a, 1)));
        let b = h.malloc(32).unwrap();
        assert_eq!(a, b, "immediate reuse expected");
        // Same slot, next generation: object records written under gen 1
        // are now self-invalidated.
        assert_eq!(h.slot_gen(b), Some((slot_a, 2)));
        let c = h.malloc(32).unwrap();
        let (slot_c, _) = h.slot_gen(c).unwrap();
        assert_ne!(slot_a, slot_c);
        assert_eq!(h.slot_count(), 2);
    }

    #[test]
    fn slot_gen_requires_exact_base() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        assert!(h.slot_gen(a).is_some());
        assert!(h.slot_gen(a.offset(16)).is_none(), "interior pointer is not a base");
        assert!(h.slot_gen(Addr(1 << 40)).is_none());
        assert!(h.slot_gen(Addr::NULL).is_none());
    }

    #[test]
    fn based_arena_owns_a_shifted_window() {
        const BASE: u64 = 1 << 32;
        let mut h = SimHeap::new(HeapConfig { arena_base: BASE, ..HeapConfig::default() });
        let a = h.malloc(32).unwrap();
        assert!(a.0 >= BASE + ALIGN as u64, "addresses start past the shifted reserved unit");
        h.write_u64(a, 0xFEED).unwrap();
        assert_eq!(h.read_u64(a).unwrap(), 0xFEED);
        assert_eq!(h.block_at(a).unwrap().base, a);
        assert!(h.slot_gen(a).is_some());
        h.free(a).unwrap();
        let b = h.malloc(32).unwrap();
        assert_eq!(a, b, "immediate reuse works in a based arena");
    }

    #[test]
    fn accesses_below_the_base_fault() {
        const BASE: u64 = 1 << 32;
        let mut h = SimHeap::new(HeapConfig { arena_base: BASE, ..HeapConfig::default() });
        let _a = h.malloc(32).unwrap();
        // Addresses in another shard's window (below this base) are wild.
        let foreign = Addr(4096);
        assert!(matches!(h.read(foreign, 8).unwrap_err(), HeapError::Fault { .. }));
        assert_eq!(h.free(foreign), Err(HeapError::InvalidFree(foreign)));
        assert!(h.slot_gen(foreign).is_none());
        assert!(h.block_containing(foreign).is_none());
        assert!(matches!(
            h.read_in_block(foreign, 1).unwrap_err(),
            HeapError::Fault { .. }
        ));
    }

    #[test]
    fn disjoint_bases_give_disjoint_address_windows() {
        let span = 1u64 << 20;
        let mut shards: Vec<SimHeap> = (0..4)
            .map(|i| {
                SimHeap::new(HeapConfig {
                    capacity: span as usize,
                    arena_base: i * span,
                    ..HeapConfig::default()
                })
            })
            .collect();
        for (i, shard) in shards.iter_mut().enumerate() {
            for _ in 0..16 {
                let a = shard.malloc(64).unwrap();
                assert_eq!(
                    (a.0 / span) as usize,
                    i,
                    "address {a} must route back to shard {i} by division"
                );
            }
        }
    }

    #[test]
    fn published_heap_exposes_slot_records_to_lock_free_readers() {
        let mut h = SimHeap::new_published(HeapConfig::default());
        let (a, slot, generation) = h.malloc_slot(32).unwrap();
        assert_eq!(h.slot_gen(a), Some((slot, generation)));
        h.write_u64(a, 0xFACE_FEED).unwrap();
        assert_eq!(h.read_u64(a).unwrap(), 0xFACE_FEED);
        assert_eq!(h.read_vec(a, 8).unwrap(), 0xFACE_FEEDu64.to_le_bytes());
        let p = Arc::clone(h.publisher().unwrap());
        let snap = match p.try_snapshot(a.0) {
            SnapshotOutcome::Snap(s) => s,
            other => panic!("expected snapshot, got {other:?}"),
        };
        assert_eq!((snap.base, snap.heap_gen), (a.0, 1));
        assert_eq!(snap.state, PUB_STATE_NONE, "no runtime metadata recorded yet");
        assert_eq!(p.read_uint(a.0, 8), Some(0xFACE_FEED));
        assert!(p.records().recheck(snap.slot, snap.seq));
        // Reuse bumps the recorded generation and invalidates rechecks.
        h.free(a).unwrap();
        let (b, _, generation) = h.malloc_slot(32).unwrap();
        assert_eq!((a, generation), (b, 2), "immediate reuse expected");
        match p.try_snapshot(a.0) {
            SnapshotOutcome::Snap(s) => assert_eq!(s.heap_gen, 2),
            other => panic!("expected snapshot, got {other:?}"),
        }
        assert!(!p.records().recheck(snap.slot, snap.seq), "reuse must invalidate old snapshots");
        assert!(h.check_in_block(b, 32).is_ok());
        assert!(matches!(
            h.check_in_block(b, 33).unwrap_err(),
            HeapError::OutOfBlock { .. }
        ));
    }

    #[test]
    fn malloc_with_runs_init_before_readers_can_see_the_block() {
        let mut h = SimHeap::new_published(HeapConfig::default());
        let p = Arc::clone(h.publisher().unwrap());
        // A fresh block: `init` runs before the unit index leads to it.
        let (a, slot) = h
            .malloc_with(32, |heap, base, slot, generation| {
                assert_eq!(generation, 1);
                assert!(heap.record_at(base).is_none(), "published before init ran");
                heap.records().record(slot, 7, 9, 0, generation);
                (base, slot)
            })
            .unwrap();
        let snap = p.try_snapshot(a.0);
        let live = matches!(snap, SnapshotOutcome::Snap(s) if s.state == PUB_STATE_LIVE);
        assert!(live, "init's record is visible once the block is published");
        // A reused block: the generation bump and `init` share one window.
        h.free(a).unwrap();
        let seq = match p.records().try_snapshot_slot(slot) {
            SnapshotOutcome::Snap(s) => s.seq,
            other => panic!("expected snapshot, got {other:?}"),
        };
        h.malloc_with(32, |heap, base, slot, generation| {
            assert_eq!((base, generation), (a, 2));
            assert!(matches!(heap.records().try_snapshot_slot(slot), SnapshotOutcome::Unstable));
            heap.records().record(slot, 7, 9, 0, generation);
        })
        .unwrap();
        match p.records().try_snapshot_slot(slot) {
            SnapshotOutcome::Snap(s) => {
                assert_eq!(s.seq, seq + 2, "one window for the bump and the record");
                assert_eq!((s.heap_gen, s.meta_gen, s.state), (2, 2, PUB_STATE_LIVE));
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
    }

    #[test]
    fn free_object_retires_the_record_in_the_free_window() {
        let mut h = SimHeap::new_published(HeapConfig::default());
        let p = Arc::clone(h.publisher().unwrap());
        let (a, slot) = h
            .malloc_with(32, |heap, base, slot, generation| {
                heap.records().record(slot, 7, 9, 0, generation);
                (base, slot)
            })
            .unwrap();
        let seq = p.records().get(slot).unwrap().snapshot(slot).seq;
        h.free_object(slot).unwrap();
        let snap = p.records().get(slot).unwrap().snapshot(slot);
        assert_eq!(snap.seq, seq + 2, "one window for the retirement and the free");
        assert_eq!(snap.state, PUB_STATE_FREED);
        assert_eq!(h.block_at(a).unwrap().state, BlockState::Freed);
        assert!(matches!(h.free_object(slot), Err(HeapError::DoubleFree(b)) if b == a));
        assert!(matches!(h.free_object(slot + 1), Err(HeapError::InvalidFree(_))));
        assert_eq!(h.stats().frees, 1);
    }

    #[test]
    fn every_heap_keeps_slot_records() {
        let mut h = heap();
        assert!(h.publisher().is_none());
        let (a, slot, _) = h.malloc_slot(48).unwrap();
        let rec = h.records().get(slot).unwrap();
        assert_eq!(rec.current_state(), None, "no object recorded yet");
        h.records().record(slot, 1, 2, 0, 1);
        assert_eq!(h.records().get(slot).unwrap().current_state(), Some(PUB_STATE_LIVE));
        h.free(a).unwrap();
        assert_eq!(h.malloc(48).unwrap(), a, "immediate reuse expected");
        let rec = h.records().get(slot).unwrap();
        assert_eq!(rec.current_state(), None, "reuse orphans the record");
        assert!(h.metadata_bytes() >= h.records().metadata_bytes());
    }

    #[test]
    fn published_heap_matches_local_semantics() {
        // The same op sequence on a local and a published heap must
        // produce identical addresses, stats and visible bytes.
        let cfg = HeapConfig { poison: Some(0xDD), ..HeapConfig::default() };
        let mut local = SimHeap::new(cfg);
        let mut published = SimHeap::new_published(cfg);
        for h in [&mut local, &mut published] {
            let a = h.malloc(40).unwrap();
            h.write_uint(a.offset(3), 0xAABB_CCDD, 4).unwrap();
            let b = h.malloc(100).unwrap();
            h.memset(b, 0x11, 64).unwrap();
            h.memmove(b.offset(8), b, 16).unwrap();
            h.free(a).unwrap();
            let c = h.malloc(50).unwrap(); // same size class as `a`
            assert_eq!(a, c);
        }
        assert_eq!(local.stats(), published.stats());
        let probe = Addr(local.config().arena_base + ALIGN as u64);
        let len = local.arena_len() - ALIGN;
        assert_eq!(local.arena_len(), published.arena_len());
        assert_eq!(
            local.read_vec(probe, len).unwrap(),
            published.read_vec(probe, len).unwrap()
        );
    }

    #[test]
    fn block_containing_finds_interior_pointers() {
        let mut h = heap();
        let a = h.malloc(64).unwrap();
        let info = h.block_containing(a.offset(10)).unwrap();
        assert_eq!(info.base, a);
        assert!(h.block_containing(Addr(1)).is_none());
    }
}
