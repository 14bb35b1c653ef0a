//! The heap's block metadata is its slot records plus one unit index, on
//! published and unpublished heaps alike, and every lookup and request
//! at the edges of those tables ends in a block or a structured error.
//!
//! `POLAR_FOOTPRINT_BLOCKS` sets the block count of the footprint pin (a
//! power of two ≥ 64; default 4096). `scripts/check.sh` runs it at
//! session scale, 131,072 blocks per heap.

use std::sync::atomic::AtomicU32;
use std::sync::OnceLock;

use polar_simheap::{Addr, HeapConfig, HeapError, SimHeap, SnapshotOutcome};

/// Arena bytes per unit-index entry.
const ALIGN: usize = 16;
/// Unit-index entries per committed chunk.
const UNITS_PER_CHUNK: usize = 16384;
/// Bytes of one slot record.
const RECORD: usize = 64;

fn both(config: HeapConfig) -> [SimHeap; 2] {
    [SimHeap::new(config), SimHeap::new_published(config)]
}

#[test]
fn n_blocks_cost_their_records_plus_one_unit_index() {
    let n: usize = std::env::var("POLAR_FOOTPRINT_BLOCKS").map_or(4096, |v| v.parse().unwrap());
    assert!(n.is_power_of_two() && n >= 64, "record segments end at powers of two ≥ 64");
    let capacity = n * 256 + 4096;
    let directory = (capacity / ALIGN).div_ceil(UNITS_PER_CHUNK)
        * std::mem::size_of::<OnceLock<Box<[AtomicU32; UNITS_PER_CHUNK]>>>();
    // The reserved first unit, then 16 units per 256 B block.
    let unit_bytes = (1 + n * 256 / ALIGN).div_ceil(UNITS_PER_CHUNK) * UNITS_PER_CHUNK * 4;
    for mut h in both(HeapConfig { capacity, ..HeapConfig::default() }) {
        let blocks: Vec<Addr> = (0..n).map(|_| h.malloc(200).unwrap()).collect();
        assert_eq!(h.records().metadata_bytes(), n * RECORD);
        assert_eq!(h.metadata_bytes(), n * RECORD + unit_bytes + directory);
        // 64 B of record and 64 B of unit index per block, up to one
        // partly used chunk.
        assert!(h.metadata_bytes() - directory <= n * 128 + UNITS_PER_CHUNK * 4);
        if let Some(p) = h.publisher() {
            assert_eq!(
                p.metadata_bytes(),
                unit_bytes + directory,
                "the publisher shares the index"
            );
        }
        // Churn reuses slots and adds no metadata.
        for &a in &blocks {
            h.free(a).unwrap();
        }
        for _ in 0..n {
            h.malloc(256).unwrap();
        }
        assert_eq!(h.metadata_bytes(), n * RECORD + unit_bytes + directory);
    }
}

#[test]
fn interior_lookups_cross_a_unit_index_chunk_boundary() {
    let config = HeapConfig { arena_base: 1 << 32, ..HeapConfig::default() };
    let unit = |u: u64| Addr(config.arena_base + u * ALIGN as u64);
    for mut h in both(config) {
        // 256 B blocks from unit 1: block 1023 covers units 16,369 to
        // 16,384, the last unit of chunk 0 and the first of chunk 1.
        let blocks: Vec<Addr> = (0..1100).map(|_| h.malloc(256).unwrap()).collect();
        let straddler = blocks[1023];
        for addr in [unit(16_383), unit(16_384), unit(16_384).offset(15)] {
            assert_eq!(h.block_containing(addr).map(|b| b.base), Some(straddler), "at {addr}");
            assert!(h.record_at(addr).is_none(), "{addr} is interior");
            if let Some(p) = h.publisher() {
                match p.try_snapshot(addr.0) {
                    SnapshotOutcome::Snap(s) => assert_eq!(s.base, straddler.0),
                    other => panic!("expected a snapshot at {addr}, got {other:?}"),
                }
            }
        }
        assert_eq!(h.block_containing(unit(16_385)).map(|b| b.base), Some(blocks[1024]));
        assert!(h.slot_gen(straddler).is_some());
    }
}

#[test]
fn a_span_beyond_the_record_word_is_out_of_memory() {
    // A 64 GiB capacity (the arena grows on demand) admits a 32 GiB
    // request; the record's span word, 2^31 - 1 units, must refuse it
    // before anything is carved.
    for mut h in both(HeapConfig { capacity: 1 << 36, ..HeapConfig::default() }) {
        for size in [1usize << 35, usize::MAX] {
            assert_eq!(h.malloc(size), Err(HeapError::OutOfMemory { requested: size }));
        }
        assert_eq!((h.arena_len(), h.slot_count()), (ALIGN, 0), "nothing was carved");
        let a = h.malloc(64).unwrap();
        assert_eq!(h.block_at(a).map(|b| b.size), Some(64));
    }
}

#[test]
fn integer_accesses_of_invalid_width_are_errors() {
    for mut h in both(HeapConfig::default()) {
        let a = h.malloc(32).unwrap();
        for width in [0, 3, 5, 7, 9, 16] {
            let err = HeapError::InvalidWidth { addr: a, width };
            assert_eq!(h.read_uint(a, width), Err(err));
            assert_eq!(h.write_uint(a, 1, width), Err(err));
        }
        h.write_uint(a, 7, 8).unwrap();
        assert_eq!(h.read_uint(a, 8), Ok(7), "valid widths still work");
    }
}
