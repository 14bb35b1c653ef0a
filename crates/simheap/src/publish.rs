//! Lock-free access to a published heap: the shared arena bytes and the
//! `address → slot` unit index in front of the heap's record table.
//!
//! A published heap ([`SimHeap::new_published`](crate::SimHeap::new_published))
//! keeps its arena in a [`SharedArena`] of atomic words and maps every
//! [`ALIGN`]-sized arena unit to the slot covering it, so another thread
//! can go from any address to the slot's [`SlotRecords`] entry without
//! the heap owner's lock. The records themselves — and their seqlock
//! protocol — live in [`crate::record`]; this type adds only the two
//! things a reader needs beyond them.
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

/// The reader side of one published [`SimHeap`]: the shared arena, the
/// unit index, and the heap's record table.
///
/// [`SimHeap`]: crate::SimHeap
pub struct HeapPublisher {
    arena: Arc<SharedArena>,
    arena_base: u64,
    records: Arc<SlotRecords>,
    unit_chunks: Box<[OnceLock<Box<[AtomicU32]>>]>,
}

impl std::fmt::Debug for HeapPublisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapPublisher")
            .field("arena", &self.arena)
            .field("arena_base", &self.arena_base)
            .finish()
    }
}

impl HeapPublisher {
    /// A publisher for a heap of `capacity` bytes based at `arena_base`
    /// whose records live in `records`.
    pub(crate) fn new(capacity: usize, arena_base: u64, records: Arc<SlotRecords>) -> Self {
        let max_units = (capacity / ALIGN).max(1);
        HeapPublisher {
            arena: Arc::new(SharedArena::new(capacity)),
            arena_base,
            records,
            unit_chunks: (0..max_units.div_ceil(UNITS_PER_CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    pub(crate) fn arena_handle(&self) -> Arc<SharedArena> {
        Arc::clone(&self.arena)
    }

    /// The heap's record table.
    #[inline]
    pub fn records(&self) -> &SlotRecords {
        &self.records
    }

    /// Point arena units `[first, last)` at `slot` (heap owner only).
    /// Write-once per unit; the `Release` store makes the slot's record
    /// initialization visible to any reader that observes the entry.
    pub(crate) fn publish_units(&self, first: usize, last: usize, slot: u32) {
        for unit in first..last {
            let (chunk, i) = (unit / UNITS_PER_CHUNK, unit % UNITS_PER_CHUNK);
            let Some(chunk) = self.unit_chunks.get(chunk) else { return };
            chunk.get_or_init(|| (0..UNITS_PER_CHUNK).map(|_| AtomicU32::new(0)).collect())[i]
                .store(slot + 1, Release);
        }
    }

    /// Attempt a consistent snapshot of the record of the block covering
    /// `addr` (any interior byte).
    #[inline]
    pub fn try_snapshot(&self, addr: u64) -> SnapshotOutcome {
        let Some(local) = addr.checked_sub(self.arena_base) else {
            return SnapshotOutcome::Untracked;
        };
        let unit = local as usize / ALIGN;
        let (chunk, i) = (unit / UNITS_PER_CHUNK, unit % UNITS_PER_CHUNK);
        let slot_plus1 = match self.unit_chunks.get(chunk).and_then(|c| c.get()) {
            Some(units) => units[i].load(Acquire),
            None => 0,
        };
        if slot_plus1 == 0 {
            return SnapshotOutcome::Untracked;
        }
        self.records.try_snapshot_slot(slot_plus1 - 1)
    }

    /// Lock-free little-endian load of `width` ∈ {1,2,4,8} bytes from
    /// the shared arena; `None` when the range is uncommitted. Validate
    /// with [`SlotRecords::recheck`] before trusting the value.
    #[inline]
    pub fn read_uint(&self, addr: u64, width: usize) -> Option<u64> {
        let local = addr.checked_sub(self.arena_base)?;
        self.arena.read_uint(local as usize, width)
    }

    /// Bytes held by the unit index (committed chunks plus the chunk
    /// directory). Records are counted with their table; arena bytes are
    /// program data, not metadata.
    pub fn metadata_bytes(&self) -> usize {
        let committed = self.unit_chunks.iter().filter(|c| c.get().is_some()).count();
        committed * UNITS_PER_CHUNK * std::mem::size_of::<AtomicU32>()
            + std::mem::size_of_val(self.unit_chunks.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PUB_STATE_LIVE;

    #[test]
    fn snapshot_resolves_interior_pointers_through_the_unit_index() {
        let records = Arc::new(SlotRecords::default());
        let p = HeapPublisher::new(1 << 20, 0, Arc::clone(&records));
        records.init(0, 16);
        p.publish_units(1, 3, 0);
        let win = records.open(0);
        records.record(0, 0xC1A55, 0x91A4, 7, 1);
        records.close(0, win);
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
