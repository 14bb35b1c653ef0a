//! The `address → slot` unit index of every heap, and lock-free access to
//! a published heap through it.
//!
//! Every [`SimHeap`](crate::SimHeap) maps each [`ALIGN`]-sized arena unit
//! a block covers to the block's slot in a [`UnitIndex`]: the one map
//! from an address, base or interior, to the slot's [`SlotRecords`]
//! entry. Its chunks are committed on first write and never move, so the
//! owner's lookups and other threads' lock-free lookups read the same
//! table.
//!
//! A published heap ([`SimHeap::new_published`](crate::SimHeap::new_published))
//! also keeps its arena in a [`SharedArena`] of atomic words, and its
//! [`HeapPublisher`] shares the arena, the unit index and the record
//! table with readers on other threads. The records themselves — and
//! their seqlock protocol — live in [`crate::record`].
//!
//! Unit-index entries are written once per unit (blocks are never split
//! or merged) with `Release`, after the slot's record is initialized, so
//! a reader that finds an entry also finds the initialized record.

use std::sync::atomic::AtomicU32;
use std::sync::atomic::Ordering::{Acquire, Release};
use std::sync::{Arc, OnceLock};

use crate::record::{SlotRecords, SnapshotOutcome};
use crate::shared::SharedArena;
use crate::ALIGN;

/// Arena units (`ALIGN` bytes each) per unit-index chunk.
const UNITS_PER_CHUNK: usize = 16384;

/// One unit-index chunk, committed on first write.
type Chunk = OnceLock<Box<[AtomicU32; UNITS_PER_CHUNK]>>;

/// One heap's `addr / ALIGN → slot id + 1` map (`0` = unowned: never
/// allocated, or a redzone or guard gap), in chunks committed on first
/// write. Clones share the chunks: the heap and its publisher hold one
/// each, and a lookup is one chunk-directory load away from its entry.
#[derive(Clone, Debug)]
pub(crate) struct UnitIndex {
    arena_base: u64,
    chunks: Arc<[Chunk]>,
}

impl UnitIndex {
    /// An index able to cover a heap of `capacity` bytes based at
    /// `arena_base`.
    pub(crate) fn new(capacity: usize, arena_base: u64) -> Self {
        let chunks = (capacity / ALIGN).max(1).div_ceil(UNITS_PER_CHUNK);
        UnitIndex { arena_base, chunks: (0..chunks).map(|_| Chunk::new()).collect() }
    }

    /// Point local arena units `[first, last)` at `slot` (heap owner
    /// only). Write-once per unit; the `Release` store makes the slot's
    /// record initialization visible to any reader that observes the
    /// entry.
    pub(crate) fn publish(&self, first: usize, last: usize, slot: u32) {
        for unit in first..last {
            let Some(chunk) = self.chunks.get(unit / UNITS_PER_CHUNK) else { return };
            let entries = chunk.get_or_init(|| {
                let entries: Box<[AtomicU32]> = (0..UNITS_PER_CHUNK).map(|_| 0.into()).collect();
                entries.try_into().expect("UNITS_PER_CHUNK entries")
            });
            entries[unit % UNITS_PER_CHUNK].store(slot + 1, Release);
        }
    }

    /// Slot id of the block covering global address `addr` (any interior
    /// byte), if a block owns it.
    #[inline]
    pub(crate) fn slot_of(&self, addr: u64) -> Option<u32> {
        let unit = addr.checked_sub(self.arena_base)? as usize / ALIGN;
        let chunk = self.chunks.get(unit / UNITS_PER_CHUNK)?.get()?;
        chunk[unit % UNITS_PER_CHUNK].load(Acquire).checked_sub(1)
    }

    /// Bytes of the committed chunks plus the chunk directory.
    pub(crate) fn metadata_bytes(&self) -> usize {
        let committed = self.chunks.iter().filter(|c| c.get().is_some()).count();
        committed * UNITS_PER_CHUNK * std::mem::size_of::<AtomicU32>()
            + std::mem::size_of_val(self.chunks.as_ref())
    }
}

/// The reader side of one published [`SimHeap`]: the shared arena, the
/// heap's unit index, and the heap's record table.
///
/// [`SimHeap`]: crate::SimHeap
#[derive(Debug)]
pub struct HeapPublisher {
    pub(crate) arena: Arc<SharedArena>,
    pub(crate) units: UnitIndex,
    pub(crate) records: Arc<SlotRecords>,
}

impl HeapPublisher {
    /// The heap's record table.
    #[inline]
    pub fn records(&self) -> &SlotRecords {
        &self.records
    }

    /// Attempt a consistent snapshot of the record of the block covering
    /// `addr` (any interior byte).
    #[inline]
    pub fn try_snapshot(&self, addr: u64) -> SnapshotOutcome {
        match self.units.slot_of(addr) {
            Some(slot) => self.records.try_snapshot_slot(slot),
            None => SnapshotOutcome::Untracked,
        }
    }

    /// Lock-free little-endian load of `width` ∈ {1,2,4,8} bytes from
    /// the shared arena; `None` when the range is uncommitted. Validate
    /// with [`SlotRecords::recheck`] before trusting the value.
    #[inline]
    pub fn read_uint(&self, addr: u64, width: usize) -> Option<u64> {
        let local = addr.checked_sub(self.units.arena_base)?;
        self.arena.read_uint(local as usize, width)
    }

    /// Lock-free little-endian store of the low `width` ∈ {1,2,4,8}
    /// bytes of `value` into the shared arena; `None`, storing nothing,
    /// when the range is uncommitted. The caller must hold the covering
    /// slot's writer window ([`SlotRecords::try_open_at`]), so no reader
    /// validates a load across the store and no other writer touches
    /// the object meanwhile.
    #[inline]
    pub fn write_uint(&self, addr: u64, value: u64, width: usize) -> Option<()> {
        let local = addr.checked_sub(self.units.arena_base)?;
        self.arena.write_uint(local as usize, width, value)
    }

    /// Lock-free load of bytes `[addr, addr + len)` from the shared
    /// arena, appended to `out`; `None`, appending nothing, when the
    /// range is uncommitted. Validate with [`SlotRecords::recheck`]
    /// before trusting the bytes.
    #[inline]
    pub fn read_bytes(&self, addr: u64, len: usize, out: &mut Vec<u8>) -> Option<()> {
        let local = addr.checked_sub(self.units.arena_base)?;
        self.arena.read_checked(local as usize, len, out)
    }

    /// Lock-free store of `bytes` at `addr` in the shared arena; `None`,
    /// storing nothing, when the range is uncommitted. The caller holds
    /// the covering slot's writer window, as for
    /// [`HeapPublisher::write_uint`].
    #[inline]
    pub fn write_bytes(&self, addr: u64, bytes: &[u8]) -> Option<()> {
        let local = addr.checked_sub(self.units.arena_base)?;
        self.arena.write_checked(local as usize, bytes)
    }

    /// Bytes held by the heap's unit index (committed chunks plus the
    /// chunk directory). Records are counted with their table; arena
    /// bytes are program data, not metadata.
    pub fn metadata_bytes(&self) -> usize {
        self.units.metadata_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PUB_STATE_LIVE;
    use crate::{Addr, BlockInfo, BlockState};

    #[test]
    fn snapshot_resolves_interior_pointers_through_the_unit_index() {
        let (records, units) = (SlotRecords::default(), UnitIndex::new(1 << 20, 0));
        let block = BlockInfo { base: Addr(16), size: 32, state: BlockState::Live, generation: 1 };
        records.ensure(0).set_block(block);
        units.publish(1, 3, 0);
        let win = records.open(0);
        records.record(0, 0xC1A55, 0x91A4, 7, 1);
        records.close(0, win);
        let arena = Arc::new(SharedArena::new(1 << 20));
        let p = HeapPublisher { arena, units, records: Arc::new(records) };
        match (p.try_snapshot(16), p.try_snapshot(40)) {
            (SnapshotOutcome::Snap(a), SnapshotOutcome::Snap(b)) => {
                assert_eq!(a, b, "interior pointers resolve to the same slot");
                assert_eq!((a.base, a.state, a.plan_id), (16, PUB_STATE_LIVE, Some(7)));
            }
            other => panic!("expected snapshots, got {other:?}"),
        }
        assert!(matches!(p.try_snapshot(4096), SnapshotOutcome::Untracked));
        assert!(p.metadata_bytes() > 0);
    }
}
