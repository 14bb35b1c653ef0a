//! The per-slot object record: the one metadata record of every heap
//! block, written by the heap and by the object runtime, and readable
//! without a lock.
//!
//! Every [`SimHeap`](crate::SimHeap) owns a [`SlotRecords`] table with
//! one cache-line [`SlotRecord`] per block slot. The heap keeps the
//! whole block in it (base address, span, heap-level state, allocation
//! generation): there is no separate block table. The runtime keeps the
//! paper's Figure 4 record in it (class hash, plan registry id,
//! lifecycle state) plus its offset-cache warm flag and the remote-free
//! link. Nothing else mirrors it: the locked paths and the lock-free
//! readers read the same words.
//!
//! Each record carries its own **seqlock** word. On a published heap
//! ([`SimHeap::new_published`](crate::SimHeap::new_published)) other
//! threads read records, and store into the payloads of the objects
//! they record, while the owner writes them:
//!
//! * A writer brackets every mutation of a record, or of the payload
//!   behind it, in a window: it takes
//!   the sequence from even to odd by CAS, with a `Release` fence
//!   after it, and [`SlotRecords::close`] adds one back to even with
//!   `Release`. Data stores inside the window are relaxed. There are two
//!   kinds of writer, and the CAS makes them exclude each other:
//!   - the owner, serialized by its lock, opens with
//!     [`SlotRecords::open`], which waits for an even sequence (a
//!     lock-free writer's window is a few stores; past a bounded spin
//!     it yields, since that writer may be descheduled);
//!   - a lock-free writer opens with [`SlotRecords::try_open_at`] only
//!     at the exact even sequence its snapshot was taken at, so a won
//!     CAS also proves the classification it made on that snapshot is
//!     still current. A field store or copy writes payload bytes (and a
//!     copy re-records the object, [`SlotRecords::rearm`]); a free
//!     claim ([`SlotRecords::claim_free`]) flips the lifecycle word. A
//!     lost CAS opens nothing; the writer retries.
//! * A reader ([`SlotRecords::try_snapshot_slot`]) loads the sequence
//!   with `Acquire`, rejects odd values, copies the data words relaxed,
//!   issues an `Acquire` fence and re-loads the sequence: an unchanged
//!   even value proves no writer window overlapped the copy, so the
//!   snapshot is a consistent point-in-time view. Anything else is
//!   [`SnapshotOutcome::Unstable`] and the caller retries or falls back
//!   to the owner's lock.
//!
//! Object payload bytes are also read outside any window (a lock-free
//! field load); those loads are validated by re-checking the record's
//! sequence *after* the byte load ([`SlotRecords::recheck`]), so a torn
//! value is never returned. The one record mutation outside any window
//! is the owner's drain clearing a claim's pending flag
//! ([`SlotRecords::mark_drained`]), which only clears one bit no other
//! writer sets while it is set. An unpublished heap has no concurrent
//! readers, and its owner skips the windows.
//!
//! A claimed slot carries the pending flag from its claim until the
//! drain that takes it off the owner's remote-free stack: a claim needs
//! a live record *without* the flag, and every owner write of the
//! lifecycle word keeps it. So a slot is on the stack at most once,
//! even when the owner re-records a claimed object before its drain (a
//! racing copy onto it).
//!
//! The table grows in [`Segments`], so a record's address is stable and
//! every slot id the heap hands out has a record: none is ever dropped.

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{fence, AtomicU32, AtomicU64};
use std::thread::yield_now;

use polar_rng::Segments;

use crate::{Addr, BlockInfo, BlockState, ALIGN};

/// Record state: nothing recorded for this slot yet.
pub const PUB_STATE_NONE: u32 = 0;
/// Record state: a live tracked object.
pub const PUB_STATE_LIVE: u32 = 1;
/// Record state: the tracked object was freed.
pub const PUB_STATE_FREED: u32 = 2;
/// Record state: a lock-free free claimed the object, but when the owner
/// drained the claim the block had already been released through the
/// raw heap path, so nothing was freed. Readers classify the object as
/// live; only a lock-free free claim, which needs [`PUB_STATE_LIVE`],
/// is refused and left to the owner.
pub const PUB_STATE_STRANDED: u32 = 3;

/// Shift of the metadata generation inside a packed `life` word.
const LIFE_GEN_SHIFT: u32 = 3;
/// Mask of the lifecycle state inside a packed `life` word.
const LIFE_STATE_MASK: u64 = 0b11;
/// Pending-drain flag of a packed `life` word: set by a free claim,
/// cleared by the drain that takes the slot off the remote-free stack.
const LIFE_PENDING: u64 = 0b100;
/// Offset-cache warm flag: the top bit of the `record_gen` word.
const WARM: u32 = 1 << 31;
/// Heap-level Freed flag: bit 0 of the `block` word.
const BLOCK_FREED: u32 = 1;
/// Largest block span, in `ALIGN` units, the `block` word can hold.
pub(crate) const MAX_SPAN_UNITS: usize = (u32::MAX >> 1) as usize;
/// Spins an owner's [`SlotRecords::open`] waits on a lock-free writer's
/// window before it starts yielding the CPU.
const OPEN_SPINS: u32 = 64;

/// Pack a metadata generation and a `PUB_STATE_*` state into one `life`
/// word, its pending flag clear. Keeping both in a single atomic is what
/// makes the lock-free free claim ([`SlotRecords::claim_free`])
/// ABA-safe: it can only succeed against the exact `(generation, Live)`
/// pair the caller validated, and generations are strictly monotonic per slot, so a
/// recycled slot can never satisfy a stale claim.
#[inline]
fn pack_life(meta_gen: u64, state: u32) -> u64 {
    (meta_gen << LIFE_GEN_SHIFT) | u64::from(state)
}

/// One slot's record, packed into a single cache line behind its own
/// seqlock.
#[repr(align(64))]
#[derive(Debug, Default)]
pub struct SlotRecord {
    /// Seqlock word: odd while a writer window is open.
    seq: AtomicU64,
    /// Block base address (global).
    base: AtomicU64,
    /// Heap allocation generation: bumped each time the heap hands the
    /// block out again.
    heap_gen: AtomicU64,
    /// Packed lifecycle word: `meta_gen << 3 | pending << 2 | state`
    /// (see [`pack_life`] and [`LIFE_PENDING`]). `meta_gen` is the heap
    /// generation the object was recorded under: a current record
    /// requires `meta_gen == heap_gen`, so recycling the block through
    /// the raw heap path (which bumps `heap_gen` only) orphans the record
    /// without touching it.
    life: AtomicU64,
    /// Class hash of the recorded object.
    class_hash: AtomicU64,
    /// Layout plan hash (for inline-cache comparisons).
    plan_hash: AtomicU64,
    /// The plan's id in the owner's plan registry.
    plan_id: AtomicU32,
    /// Records ever written on this slot (the object generation a
    /// runtime reports; 0 = never recorded) in the low 31 bits, and the
    /// offset-cache warm flag in [`WARM`]: the first access to a
    /// recorded object is a cold metadata touch, later ones count as
    /// cache hits.
    record_gen: AtomicU32,
    /// Heap-owned block word: the span in `ALIGN` units above the
    /// [`BLOCK_FREED`] bit. Written only by the heap owner; lock-free
    /// readers never load it.
    block: AtomicU32,
    /// Intrusive link for the owning shard's remote-free Treiber stack:
    /// the next remote-freed slot id + 1 (0 = end of list). Only
    /// meaningful between a successful [`SlotRecords::claim_free`] and
    /// the owner's drain; plain relaxed accesses, ordered by the stack
    /// head's release/acquire CAS pair.
    remote_next: AtomicU32,
}

impl SlotRecord {
    /// The record's state (`PUB_STATE_*`) if an object is recorded
    /// under the block's current allocation generation; `None` when
    /// nothing was ever recorded or the record is stale. The owner reads
    /// it while holding its lock, which serializes every other writer
    /// of the words it reads but a lock-free claim, and a claim changes
    /// the one `life` word.
    #[inline]
    pub fn current_state(&self) -> Option<u32> {
        let life = self.life.load(Relaxed);
        let state = (life & LIFE_STATE_MASK) as u32;
        (state != PUB_STATE_NONE && life >> LIFE_GEN_SHIFT == self.heap_gen.load(Relaxed))
            .then_some(state)
    }

    /// Base address of the slot's block.
    #[inline]
    pub(crate) fn base(&self) -> u64 {
        self.base.load(Relaxed)
    }

    /// Recorded class hash.
    #[inline]
    pub fn class_hash(&self) -> u64 {
        self.class_hash.load(Relaxed)
    }

    /// Recorded plan hash.
    #[inline]
    pub fn plan_hash(&self) -> u64 {
        self.plan_hash.load(Relaxed)
    }

    /// Recorded plan registry id.
    #[inline]
    pub fn plan_id(&self) -> u32 {
        self.plan_id.load(Relaxed)
    }

    /// Records ever written on the slot.
    #[inline]
    pub fn record_gen(&self) -> u32 {
        self.record_gen.load(Relaxed) & !WARM
    }

    /// Warm-flag probe: returns whether the record was already warm, and
    /// warms it if not. Relaxed — the flag is a statistic, not a guard.
    #[inline]
    pub fn warm_probe(&self) -> bool {
        self.record_gen.load(Relaxed) & WARM != 0
            || self.record_gen.fetch_or(WARM, Relaxed) & WARM != 0
    }

    /// The heap's view of the block (owner only).
    #[inline]
    pub(crate) fn block_info(&self) -> BlockInfo {
        let block = self.block.load(Relaxed);
        BlockInfo {
            base: Addr(self.base()),
            size: (block >> 1) as usize * ALIGN,
            state: if block & BLOCK_FREED == 0 { BlockState::Live } else { BlockState::Freed },
            generation: self.heap_gen.load(Relaxed),
        }
    }

    /// Store the heap's view of the block, whose span is at most
    /// [`MAX_SPAN_UNITS`] `ALIGN` units. A fresh slot needs no window on
    /// a published heap (the unit index does not point at it yet); a
    /// reused or freed one is window-required.
    #[inline]
    pub(crate) fn set_block(&self, block: BlockInfo) {
        let units = block.size / ALIGN;
        debug_assert!(units <= MAX_SPAN_UNITS, "span checked by the allocator");
        self.base.store(block.base.0, Relaxed);
        self.heap_gen.store(block.generation, Relaxed);
        let freed = u32::from(block.state == BlockState::Freed);
        self.block.store((units as u32) << 1 | freed, Relaxed);
    }

    /// A copy of the record, as slot `slot`, without seqlock validation:
    /// the owner's view, for the reason [`SlotRecord::current_state`]
    /// gives (the lifecycle pair is one word, read once). Other readers
    /// go through [`SlotRecords::try_snapshot_slot`].
    #[inline]
    pub fn snapshot(&self, slot: u32) -> PubSnapshot {
        self.copy(slot, self.seq.load(Relaxed))
    }

    #[inline]
    fn copy(&self, slot: u32, seq: u64) -> PubSnapshot {
        let life = self.life.load(Relaxed);
        let state = (life & LIFE_STATE_MASK) as u32;
        PubSnapshot {
            slot,
            seq,
            base: self.base.load(Relaxed),
            heap_gen: self.heap_gen.load(Relaxed),
            meta_gen: life >> LIFE_GEN_SHIFT,
            class_hash: self.class_hash.load(Relaxed),
            plan_hash: self.plan_hash.load(Relaxed),
            plan_id: (state != PUB_STATE_NONE).then(|| self.plan_id.load(Relaxed)),
            state,
            warmed: self.record_gen.load(Relaxed) & WARM != 0,
        }
    }
}

/// A point-in-time copy of one [`SlotRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PubSnapshot {
    /// Heap slot id.
    pub slot: u32,
    /// The (even) sequence the snapshot was taken at; feed it back to
    /// [`SlotRecords::recheck`] to validate later arena loads, or to
    /// [`SlotRecords::try_open_at`] to store on the snapshot's terms.
    pub seq: u64,
    /// Block base address (global).
    pub base: u64,
    /// Heap allocation generation.
    pub heap_gen: u64,
    /// Heap generation the object was recorded under.
    pub meta_gen: u64,
    /// Recorded class hash.
    pub class_hash: u64,
    /// Recorded plan hash.
    pub plan_hash: u64,
    /// Recorded plan registry id; `None` while nothing was ever
    /// recorded on the slot.
    pub plan_id: Option<u32>,
    /// Lifecycle state (`PUB_STATE_*`).
    pub state: u32,
    /// Whether the warm flag was already set: `true` lets readers skip
    /// the [`SlotRecord::warm_probe`] probe-and-set in steady state.
    pub warmed: bool,
}

/// Result of a lock-free snapshot attempt.
#[derive(Debug, Clone, Copy)]
pub enum SnapshotOutcome {
    /// A consistent snapshot.
    Snap(PubSnapshot),
    /// The address maps to no record (never allocated, or a redzone
    /// gap): take the lock.
    Untracked,
    /// A writer window overlapped the read: retry or take the lock.
    Unstable,
}

/// The record table of one heap. Writer methods (`open`/`record`/
/// `retire`/`strand`, and the heap's own `set_block`) must only be
/// called by the heap's owner, under whatever lock serializes heap
/// mutation; [`SlotRecords::try_open_at`] is the lock-free writers'
/// way in, and either kind of window ends at [`SlotRecords::close`].
#[derive(Debug, Default)]
pub struct SlotRecords {
    records: Segments<SlotRecord>,
}

impl SlotRecords {
    /// `slot`'s record, if its segment is committed. Lock-free.
    #[inline]
    pub fn get(&self, slot: u32) -> Option<&SlotRecord> {
        self.records.get(slot)
    }

    // ----- writer half (call under the heap owner's lock) -----

    /// Open the owner's writer window on `slot`: wait until no other
    /// window is open, then take the sequence from even to odd by CAS;
    /// the `Release` fence orders the bump before the window's data
    /// stores. Returns the token for [`SlotRecords::close`]. Must not
    /// be nested on one slot.
    #[must_use]
    pub fn open(&self, slot: u32) -> u64 {
        let seq = &self.records.ensure(slot).seq;
        let mut spins = 0;
        loop {
            // A CAS, not an add: an odd sequence is a lock-free writer's
            // window, which this must wait out rather than share.
            let cur = seq.load(Relaxed);
            if cur & 1 == 0 && seq.compare_exchange_weak(cur, cur + 1, Acquire, Relaxed).is_ok() {
                fence(Release);
                return cur;
            }
            if spins < OPEN_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                yield_now();
            }
        }
    }

    /// Open a lock-free writer's window on `slot` only if its sequence
    /// is still `seq`, the even value a snapshot was taken at: one CAS
    /// to `seq + 1`. `true` means the window is open (close it with
    /// token `seq`), no other writer holds one, and nothing changed the
    /// record since the snapshot, so a decision made on it still holds.
    /// `false` opens nothing.
    #[inline]
    pub fn try_open_at(&self, slot: u32, seq: u64) -> bool {
        debug_assert!(seq & 1 == 0, "snapshots are taken at even sequences");
        let Some(r) = self.get(slot) else { return false };
        if r.seq.compare_exchange(seq, seq + 1, Acquire, Relaxed).is_err() {
            return false;
        }
        fence(Release);
        true
    }

    /// Close a writer window opened with the returned token.
    pub fn close(&self, slot: u32, token: u64) {
        let prev = self.records.ensure(slot).seq.fetch_add(1, Release);
        debug_assert!(prev & 1 == 1 && prev > token, "close pairs with an open");
    }

    /// `slot`'s record, committing its segment first (the heap owner
    /// only, for a slot it is about to hand out).
    pub(crate) fn ensure(&self, slot: u32) -> &SlotRecord {
        self.records.ensure(slot)
    }

    /// Record a live object on `slot` under heap generation `meta_gen`,
    /// clearing its warm flag and keeping a pending claim's flag (the
    /// slot stays on the remote-free stack until drained). Returns the
    /// slot's new record generation. Window-required.
    pub fn record(
        &self,
        slot: u32,
        class_hash: u64,
        plan_hash: u64,
        plan_id: u32,
        meta_gen: u64,
    ) -> u32 {
        let r = self.records.ensure(slot);
        r.class_hash.store(class_hash, Relaxed);
        r.plan_hash.store(plan_hash, Relaxed);
        r.plan_id.store(plan_id, Relaxed);
        let pending = r.life.load(Relaxed) & LIFE_PENDING;
        r.life.store(pack_life(meta_gen, PUB_STATE_LIVE) | pending, Relaxed);
        // Count one more record and clear the warm flag in one store.
        let record_gen = r.record_gen.load(Relaxed).wrapping_add(1) & !WARM;
        r.record_gen.store(record_gen, Relaxed);
        record_gen
    }

    /// Record once more the object already recorded on `slot`, keeping
    /// its class and plan: what [`SlotRecords::record`] does when it
    /// writes the words the record already holds. It counts one more
    /// record, clears the warm flag, and turns a [`PUB_STATE_STRANDED`]
    /// record live. Returns the slot's new record generation.
    /// Window-required; a lock-free writer may call it in the window it
    /// opened with [`SlotRecords::try_open_at`].
    pub fn rearm(&self, slot: u32) -> u32 {
        let r = self.records.ensure(slot);
        let life = r.life.load(Relaxed);
        if life & LIFE_STATE_MASK == u64::from(PUB_STATE_STRANDED) {
            // A CAS, not a store: a lock-free writer's window does not
            // exclude the owner's drain, which may clear the pending
            // flag meanwhile (the record then stays stranded, which
            // classifies as live all the same).
            let live = (life & !LIFE_STATE_MASK) | u64::from(PUB_STATE_LIVE);
            let _ = r.life.compare_exchange(life, live, Relaxed, Relaxed);
        }
        // A record generation is the owner's or the window holder's;
        // the warm flag is the only bit a reader sets meanwhile.
        let record_gen = r.record_gen.load(Relaxed).wrapping_add(1) & !WARM;
        r.record_gen.store(record_gen, Relaxed);
        record_gen
    }

    /// Mark a drained claim whose block was already released as
    /// [`PUB_STATE_STRANDED`]. Window-required.
    pub fn strand(&self, slot: u32) {
        let r = self.records.ensure(slot);
        let life = r.life.load(Relaxed);
        if life & LIFE_STATE_MASK == u64::from(PUB_STATE_FREED) {
            r.life.store(life | LIFE_STATE_MASK, Relaxed);
        }
    }

    /// Mark the slot's object freed, keeping its metadata generation
    /// (so a stale snapshot can still be diagnosed by generation) and
    /// clearing its warm flag. Window-required.
    pub fn retire(&self, slot: u32) {
        let r = self.records.ensure(slot);
        let life = r.life.load(Relaxed);
        r.life.store((life & !LIFE_STATE_MASK) | u64::from(PUB_STATE_FREED), Relaxed);
        r.record_gen.fetch_and(!WARM, Relaxed);
    }

    /// Lock-free free claim, without the owner's lock: retire
    /// `(meta_gen, Live)` to `(meta_gen, Freed)`, flagged pending, in a
    /// window opened at `seq`, the even sequence of the snapshot the
    /// free was checked on ([`SlotRecords::try_open_at`]). The window
    /// excludes every other writer, so no owner write of the record can
    /// overwrite the claim, and it makes optimistic readers retry and
    /// re-classify the object. The generation in the compare makes the
    /// claim ABA-safe: a slot freed and re-recorded since carries a
    /// higher generation. Returns `true` when this caller won the claim
    /// and must push the slot onto the owner's remote-free stack.
    /// `false` with the sequence still at `seq` means the record is not
    /// a live object at `meta_gen` or its previous claim is still
    /// pending, which the owner's locked path diagnoses; otherwise the
    /// record changed since the snapshot.
    ///
    /// A successful claim only marks the object logically dead. The
    /// heap-side release (poisoning, quarantine, free-list push) still
    /// happens under the owner's lock when the remote-free stack is
    /// drained, so the block's storage stays intact until then.
    #[inline]
    pub fn claim_free(&self, slot: u32, seq: u64, meta_gen: u64) -> bool {
        let Some(r) = self.get(slot) else { return false };
        if r.life.load(Relaxed) != pack_life(meta_gen, PUB_STATE_LIVE)
            || !self.try_open_at(slot, seq)
        {
            return false;
        }
        // Unchanged since the snapshot: only windows write this word,
        // and the drain only clears a pending flag this one lacked.
        r.life.store(pack_life(meta_gen, PUB_STATE_FREED) | LIFE_PENDING, Relaxed);
        r.record_gen.fetch_and(!WARM, Relaxed);
        self.close(slot, seq);
        true
    }

    /// Clear `slot`'s pending-claim flag: the owner's drain calls this
    /// once it has taken the slot off the remote-free stack and read its
    /// link, so a later claim may push it again. Owner-only, under its
    /// lock; needs no window (see the module docs).
    pub fn mark_drained(&self, slot: u32) {
        if let Some(r) = self.get(slot) {
            // A load and a store, not a read-modify-write: no claim
            // writes the word while the flag is set, and the one other
            // writer outside the lock, a lock-free copy's `rearm`, only
            // turns a stranded record live, which this store may undo;
            // a stranded record classifies as live all the same.
            let life = r.life.load(Relaxed);
            r.life.store(life & !LIFE_PENDING, Relaxed);
        }
    }

    /// Set the remote-free stack link of `slot`: `next_plus1` is the
    /// next slot id + 1, 0 terminates. Only the claimant that just won
    /// [`SlotRecords::claim_free`] may write this.
    #[inline]
    pub fn set_remote_next(&self, slot: u32, next_plus1: u32) {
        if let Some(r) = self.get(slot) {
            r.remote_next.store(next_plus1, Relaxed);
        }
    }

    /// Read the remote-free stack link of `slot`. Only the draining
    /// owner (after acquiring the detached stack head) may read this.
    #[inline]
    pub fn remote_next(&self, slot: u32) -> u32 {
        self.get(slot).map_or(0, |r| r.remote_next.load(Relaxed))
    }

    // ----- reader half (lock-free) -----

    /// Attempt a consistent snapshot of `slot`'s record. A reader that
    /// found the slot through a hint must validate the snapshot's
    /// `base` against the address it believes the slot belongs to.
    #[inline]
    pub fn try_snapshot_slot(&self, slot: u32) -> SnapshotOutcome {
        let Some(r) = self.get(slot) else {
            return SnapshotOutcome::Untracked;
        };
        let s1 = r.seq.load(Acquire);
        if s1 & 1 == 1 {
            return SnapshotOutcome::Unstable;
        }
        let snap = r.copy(slot, s1);
        fence(Acquire);
        if r.seq.load(Relaxed) != s1 {
            return SnapshotOutcome::Unstable;
        }
        SnapshotOutcome::Snap(snap)
    }

    /// Validate that `slot`'s sequence still equals `seq` (an arena byte
    /// load issued since the snapshot is then not torn by any writer
    /// window on the slot).
    #[inline]
    pub fn recheck(&self, slot: u32, seq: u64) -> bool {
        fence(Acquire);
        matches!(self.get(slot), Some(r) if r.seq.load(Relaxed) == seq)
    }

    /// Bytes of the committed record segments.
    pub fn metadata_bytes(&self) -> usize {
        self.records.committed_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh one-unit block at `base`.
    fn fresh(base: u64) -> BlockInfo {
        BlockInfo { base: Addr(base), size: ALIGN, state: BlockState::Live, generation: 1 }
    }

    fn snap(t: &SlotRecords, slot: u32) -> PubSnapshot {
        match t.try_snapshot_slot(slot) {
            SnapshotOutcome::Snap(s) => s,
            other => panic!("expected a snapshot, got {other:?}"),
        }
    }

    #[test]
    fn record_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<SlotRecord>(), 64);
        assert_eq!(std::mem::align_of::<SlotRecord>(), 64);
    }

    #[test]
    fn snapshot_sees_the_recorded_object() {
        let t = SlotRecords::default();
        t.ensure(0).set_block(fresh(16));
        let win = t.open(0);
        assert_eq!(t.record(0, 0xC1A55, 0x91A4, 7, 1), 1);
        t.close(0, win);
        let s = snap(&t, 0);
        assert_eq!((s.base, s.heap_gen, s.meta_gen), (16, 1, 1));
        assert_eq!((s.class_hash, s.plan_hash, s.plan_id), (0xC1A55, 0x91A4, Some(7)));
        assert_eq!(s.state, PUB_STATE_LIVE);
        assert!(t.recheck(0, s.seq));
        let r = t.get(0).unwrap();
        assert_eq!(r.snapshot(0), s, "the owner's copy equals a validated snapshot");
        assert_eq!(r.current_state(), Some(PUB_STATE_LIVE));
        let fields = (r.class_hash(), r.plan_hash(), r.plan_id(), r.record_gen());
        assert_eq!(fields, (0xC1A55, 0x91A4, 7, 1));
        assert!(matches!(t.try_snapshot_slot(1 << 20), SnapshotOutcome::Untracked));
    }

    #[test]
    fn open_windows_are_unstable_and_invalidate_rechecks() {
        let t = SlotRecords::default();
        t.ensure(0).set_block(fresh(16));
        let s = snap(&t, 0);
        let win = t.open(0);
        assert!(matches!(t.try_snapshot_slot(0), SnapshotOutcome::Unstable));
        assert!(!t.recheck(0, s.seq), "open window must fail recheck");
        t.close(0, win);
        assert!(!t.recheck(0, s.seq), "closed window bumped the sequence");
        snap(&t, 0);
    }

    #[test]
    fn try_open_at_needs_the_snapshot_sequence_and_excludes_other_writers() {
        let t = SlotRecords::default();
        t.ensure(0).set_block(fresh(16));
        let s = snap(&t, 0);
        assert!(t.try_open_at(0, s.seq), "an unchanged sequence opens");
        assert!(!t.try_open_at(0, s.seq), "a second writer is refused");
        assert!(matches!(t.try_snapshot_slot(0), SnapshotOutcome::Unstable));
        t.close(0, s.seq);
        assert!(!t.try_open_at(0, s.seq), "a stale snapshot is refused");
        assert!(t.try_open_at(0, snap(&t, 0).seq));
        // A claim is a window too: refused while another writer holds
        // one, and a whole window (+2) once it lands.
        t.record(0, 1, 2, 0, 1);
        assert!(!t.claim_free(0, s.seq + 2, 1), "no claim inside an open window");
        t.close(0, s.seq + 2);
        let s = snap(&t, 0);
        assert!(t.claim_free(0, s.seq, 1));
        let after = snap(&t, 0);
        assert_eq!((after.state, after.seq), (PUB_STATE_FREED, s.seq + 2));
        assert!(!t.try_open_at(1 << 20, 0), "an uncommitted slot opens nothing");
    }

    #[test]
    fn an_owner_window_waits_for_a_lock_free_writer() {
        use std::sync::atomic::AtomicBool;
        let t = SlotRecords::default();
        t.ensure(0).set_block(fresh(16));
        let s = snap(&t, 0);
        assert!(t.try_open_at(0, s.seq));
        let closed = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let win = t.open(0);
                assert!(closed.load(Acquire), "the owner's window opened inside the writer's");
                assert_eq!(win, s.seq + 2);
                t.close(0, win);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            closed.store(true, Release);
            t.close(0, s.seq);
        });
        assert_eq!(snap(&t, 0).seq, s.seq + 4);
    }

    #[test]
    fn raw_reuse_orphans_the_record() {
        let t = SlotRecords::default();
        t.ensure(0).set_block(fresh(16));
        t.record(0, 1, 2, 0, 1);
        t.ensure(0).set_block(BlockInfo { generation: 2, ..fresh(16) });
        let s = snap(&t, 0);
        assert_eq!(s.state, PUB_STATE_LIVE);
        assert_eq!((s.meta_gen, s.heap_gen), (1, 2), "a record behind the block generation");
        assert_eq!(t.get(0).unwrap().current_state(), None);
        // Re-recording continues the slot's record count.
        assert_eq!(t.record(0, 1, 3, 1, 2), 2);
        assert_eq!(t.get(0).unwrap().current_state(), Some(PUB_STATE_LIVE));
    }

    #[test]
    fn claim_free_is_generation_exact_and_single_shot() {
        let t = SlotRecords::default();
        t.ensure(0).set_block(fresh(16));
        t.record(0, 1, 2, 0, 3);
        let seq = snap(&t, 0).seq;
        assert!(!t.claim_free(0, seq, 2), "stale generation must not claim");
        assert!(!t.claim_free(0, seq, 4), "future generation must not claim");
        assert!(!t.claim_free(0, seq + 2, 3), "another snapshot's sequence must not claim");
        assert!(t.claim_free(0, seq, 3), "exact live generation claims");
        assert!(!t.claim_free(0, seq + 2, 3), "double claim must lose");
        let s = snap(&t, 0);
        assert_eq!((s.state, s.meta_gen), (PUB_STATE_FREED, 3), "claim keeps the generation");
        // The owner's writes keep the claim pending until its drain, so
        // a re-recorded claimed slot is not claimed (and pushed) twice.
        t.record(0, 1, 2, 0, 3);
        assert_eq!(snap(&t, 0).state, PUB_STATE_LIVE);
        assert!(!t.claim_free(0, snap(&t, 0).seq, 3), "a pending slot must not claim");
        t.retire(0);
        t.record(0, 1, 2, 0, 3);
        assert!(!t.claim_free(0, snap(&t, 0).seq, 3), "owner writes keep the flag");
        t.mark_drained(0);
        assert!(t.claim_free(0, snap(&t, 0).seq, 3), "a drained slot claims again");
        t.mark_drained(0);
        // Re-recording under a new generation revives the slot and the
        // old claim key stays dead.
        t.record(0, 1, 2, 0, 4);
        assert!(!t.claim_free(0, snap(&t, 0).seq, 3), "recycled slot must reject the stale claim");
        assert!(t.claim_free(0, snap(&t, 0).seq, 4));
    }

    #[test]
    fn remote_links_round_trip() {
        let t = SlotRecords::default();
        t.ensure(0).set_block(fresh(16));
        t.ensure(1).set_block(fresh(32));
        assert_eq!(t.remote_next(0), 0, "links start clear");
        t.set_remote_next(0, 2);
        t.set_remote_next(1, 0);
        assert_eq!((t.remote_next(0), t.remote_next(1)), (2, 0));
    }

    #[test]
    fn warm_probe_reports_prior_state_and_record_and_retire_reset_it() {
        let t = SlotRecords::default();
        t.ensure(0).set_block(fresh(16));
        let r = t.get(0).unwrap();
        assert!(!r.warm_probe(), "first probe is cold");
        assert!(r.warm_probe(), "second probe is warm");
        t.record(0, 1, 2, 0, 1);
        assert!(!r.warm_probe(), "re-record resets warmth");
        assert!(r.warm_probe());
        assert_eq!(r.record_gen(), 1, "the warm flag is not part of the count");
        t.retire(0);
        assert!(!r.warm_probe(), "retire resets warmth");
    }

    #[test]
    fn rearm_counts_a_record_and_never_revives_a_claimed_object() {
        let t = SlotRecords::default();
        t.ensure(0).set_block(fresh(64));
        let win = t.open(0);
        t.record(0, 0xC1A55, 0x91A4, 7, 1);
        t.close(0, win);
        t.get(0).unwrap().warm_probe();
        let before = snap(&t, 0);
        assert!(before.warmed);
        let win = t.open(0);
        assert_eq!(t.rearm(0), 2);
        t.close(0, win);
        let after = snap(&t, 0);
        let kept = (after.state, after.class_hash, after.plan_id);
        assert_eq!(kept, (PUB_STATE_LIVE, 0xC1A55, Some(7)));
        assert!(!after.warmed, "a rearmed record is cold");
        assert_eq!(after.seq, before.seq + 2);
        // No claim lands inside the window; a claimed record stays freed.
        let s = snap(&t, 0);
        let win = t.open(0);
        assert!(!t.claim_free(0, s.seq, 1), "no claim inside an open window");
        t.close(0, win);
        assert!(t.claim_free(0, snap(&t, 0).seq, 1));
        let win = t.open(0);
        assert_eq!(t.rearm(0), 3);
        t.close(0, win);
        assert_eq!(snap(&t, 0).state, PUB_STATE_FREED);
        // A stranded record reads live again.
        let win = t.open(0);
        t.strand(0);
        assert_eq!(t.rearm(0), 4);
        t.close(0, win);
        assert_eq!(snap(&t, 0).state, PUB_STATE_LIVE);
    }

    #[test]
    fn only_a_freed_record_strands() {
        let t = SlotRecords::default();
        t.ensure(0).set_block(fresh(16));
        t.record(0, 1, 2, 0, 1);
        t.strand(0);
        assert_eq!(snap(&t, 0).state, PUB_STATE_LIVE, "a live record is left alone");
        assert!(t.claim_free(0, snap(&t, 0).seq, 1));
        t.strand(0);
        t.mark_drained(0);
        let s = snap(&t, 0);
        assert_eq!((s.state, s.meta_gen), (PUB_STATE_STRANDED, 1));
        assert_eq!(t.get(0).unwrap().current_state(), Some(PUB_STATE_STRANDED));
        assert!(!t.claim_free(0, s.seq, 1), "a stranded record is not claimable");
    }
}
