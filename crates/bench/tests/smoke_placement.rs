//! Placement randomization smoke (`scripts/check.sh`).
//!
//! Boots the sim heap and the runtime with placement on, as the
//! `polar+placement` security column runs (the fixed geometry: shuffle
//! depth 16, 8 offset bits, 6 guard-gap bits) and checks the three
//! things the layer promises:
//!
//! 1. Allocator invariants survive randomized placement: live blocks
//!    never overlap, every aligned unit of a live block resolves back to
//!    its owning block, guard gaps stay unowned, and the free pools
//!    (class free lists + shuffle buffers vs `large_free`) are disjoint.
//! 2. Placement is replayable: the same placement seed and op sequence
//!    yields a byte-identical address trace; a different seed does not.
//! 3. Placement actually moves addresses: the placement-on trace differs
//!    from the deterministic placement-off trace, and the runtime's
//!    derived placement stream replays under one process seed.
//!
//! Debug builds skip it: run it with
//! `cargo test --release -p polar-bench --test smoke_placement`.

use std::collections::HashSet;
use std::sync::Arc;

use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_rng::{Rng, SplitMix64};
use polar_runtime::{ObjectRuntime, RandomizeMode, RuntimeConfig};
use polar_simheap::{Addr, BlockState, HeapConfig, PlacementPolicy, SimHeap, PLACEMENT_GEOMETRY};

/// The allocator's alignment quantum (every block base is a multiple).
const ALIGN: u64 = 16;

/// Deterministic churn workload on a bare heap: mixed-size allocs with
/// periodic frees, driven by a seeded RNG disjoint from the heap's own
/// placement stream. Returns the address trace of every allocation.
fn churn(heap: &mut SimHeap, op_seed: u64, ops: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(op_seed);
    let mut live: Vec<(Addr, usize)> = Vec::new();
    let mut trace = Vec::new();
    for _ in 0..ops {
        let roll = rng.next_u64();
        if !roll.is_multiple_of(3) || live.is_empty() {
            // Sizes spanning small classes and the oversize path.
            let size = match roll % 7 {
                0 => 16,
                1 => 24,
                2 => 64,
                3 => 200,
                4 => 1024,
                5 => 4096,
                _ => 5000,
            };
            let a = heap.malloc(size).expect("alloc");
            assert_eq!(a.0 % ALIGN, 0, "block base must stay aligned");
            trace.push(a.0);
            live.push((a, size));
        } else {
            let idx = (roll as usize / 3) % live.len();
            let (a, _) = live.swap_remove(idx);
            heap.free(a).expect("free");
        }
    }
    trace
}

/// Check the allocator invariants the placement layer must preserve.
fn check_invariants(heap: &SimHeap) {
    // 1a: live blocks are disjoint.
    let mut spans: Vec<(u64, u64)> = heap
        .blocks()
        .filter(|b| b.state == BlockState::Live)
        .map(|b| (b.base.0, b.base.0 + b.size as u64))
        .collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        assert!(w[0].1 <= w[1].0, "live blocks overlap: {:?} vs {:?}", w[0], w[1]);
    }
    // 1b: every aligned unit inside a live block resolves to that block;
    // the unit just *before* each block (a guard gap or foreign block)
    // never resolves into it.
    for b in heap.blocks().filter(|b| b.state == BlockState::Live) {
        let mut u = b.base.0;
        while u < b.base.0 + b.size as u64 {
            let owner = heap.block_containing(Addr(u)).expect("unit owned");
            assert_eq!(owner.base, b.base, "index unit {u:#x} maps to the wrong block");
            u += ALIGN;
        }
        if b.base.0 >= ALIGN {
            if let Some(before) = heap.block_containing(Addr(b.base.0 - ALIGN)) {
                assert_ne!(before.base, b.base, "unit before base leaked into the block");
            }
        }
    }
    // 1c: free pools are disjoint — no address is simultaneously in a
    // class free list / shuffle buffer and in `large_free`.
    let (free_lists, large_free, shuffled) = heap.free_pool_snapshot();
    let mut classed: HashSet<u64> = HashSet::new();
    for list in free_lists.iter() {
        for &a in list {
            assert!(classed.insert(a), "address {a:#x} pooled twice");
        }
    }
    for &a in &shuffled {
        assert!(classed.insert(a), "address {a:#x} in free list and shuffle buffer");
    }
    for &(a, _) in &large_free {
        assert!(!classed.contains(&a), "address {a:#x} in both class pool and large_free");
    }
}

fn probe_class() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("PlacementProbe")
            .field("vtable", FieldKind::VtablePtr)
            .field("a", FieldKind::I64)
            .field("b", FieldKind::I32)
            .field("c", FieldKind::I32)
            .build(),
    ))
}

/// Address trace of a seeded runtime run with placement armed (seed 0 →
/// the runtime derives the placement stream from its process seed).
fn runtime_trace(process_seed: u64) -> Vec<u64> {
    let info = probe_class();
    let mut config = RuntimeConfig::default();
    config.seed = process_seed;
    config.heap.capacity = 64 << 20;
    config.heap.placement = PlacementPolicy::on(0);
    let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
    let mut live = Vec::new();
    let mut trace = Vec::new();
    for i in 0..256usize {
        let obj = rt.olr_malloc(&info).expect("alloc");
        trace.push(obj.0);
        live.push(obj);
        if live.len() > 6 {
            let victim = live.swap_remove((i * 5) % live.len());
            rt.olr_free(victim).expect("free");
        }
    }
    trace
}

/// Address trace of the churn workload on a bare heap placed with
/// `placement_seed`.
fn heap_trace(placement_seed: u64) -> Vec<u64> {
    let mut c = HeapConfig::default();
    c.placement = PlacementPolicy::on(placement_seed);
    let mut h = SimHeap::new(c);
    churn(&mut h, 0x0D75, 2000)
}

/// 1: invariants under randomized placement (with quarantine in the mix
/// so the randomized eviction order is exercised too).
#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode smoke; see the module docs")]
fn placement_keeps_allocator_invariants_under_churn() {
    let mut config = HeapConfig::default();
    config.placement = PlacementPolicy::on(0x9_1ACE);
    config.quarantine = 8;
    let mut heap = SimHeap::new(config);
    churn(&mut heap, 0x0D75, 4000);
    check_invariants(&heap);
    println!(
        "ok: invariants {} allocs / {} frees with {:.1} placement bits",
        heap.stats().allocs,
        heap.stats().frees,
        PLACEMENT_GEOMETRY.entropy_bits()
    );
}

/// 2: placement replays as a pure function of its seed. 3: it differs
/// from the deterministic heap, and the runtime's derived placement
/// stream replays under one process seed.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode smoke; see the module docs")]
fn placement_replays_per_seed_and_moves_addresses() {
    let a = heap_trace(41);
    assert_eq!(a, heap_trace(41), "same placement seed must replay addresses exactly");
    assert_ne!(a, heap_trace(42), "different placement seed must move addresses");

    let mut h_off = SimHeap::new(HeapConfig::default());
    let off = churn(&mut h_off, 0x0D75, 2000);
    assert_ne!(a, off, "placement must perturb the deterministic address sequence");
    let t = runtime_trace(0xCAFE);
    assert_eq!(t, runtime_trace(0xCAFE), "runtime placement must replay per process seed");
    assert_ne!(t, runtime_trace(0xCAFF), "runtime placement must vary across process seeds");
    println!("ok: replay     {} placed allocations replay byte-exact under one seed", t.len());
}
