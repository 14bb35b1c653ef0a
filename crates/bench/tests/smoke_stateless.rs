//! Stateless small-class default smoke (`scripts/check.sh`).
//!
//! Boots the runtime with the stock config — no overrides — and checks
//! the three things the default flip promises:
//!
//! 1. Small classes (≤8 fields) are served by the derived stateless
//!    path, with virtual traps armed; large classes keep the stored
//!    pooled path. The split is exact, per the runtime's own counters.
//! 2. Selection is per class size, not per runtime: one runtime serves
//!    both modes side by side.
//! 3. A mixed-mode allocation/free run replays exactly under the same
//!    seed: same addresses, same plan hashes, same field offsets.
//!
//! Debug builds skip it: run it with
//! `cargo test --release -p polar-bench --test smoke_stateless`.

use std::sync::Arc;

use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_layout::STATELESS_MAX_FIELDS;
use polar_runtime::{LayoutSource, ObjectRuntime, RandomizeMode, RuntimeConfig};

fn small_class() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("SmokeSmall")
            .field("vtable", FieldKind::VtablePtr)
            .field("a", FieldKind::I64)
            .field("b", FieldKind::I32)
            .field("c", FieldKind::I32)
            .build(),
    ))
}

fn large_class() -> Arc<ClassInfo> {
    let mut b = ClassDecl::builder("SmokeLarge");
    b = b.field("vtable", FieldKind::VtablePtr);
    for i in 0..9 {
        b = b.field(format!("f{i}"), FieldKind::I64);
    }
    Arc::new(ClassInfo::from_decl(b.build()))
}

/// One deterministic mixed-mode run: interleaved small/large allocs
/// with periodic frees. Returns the observable trace — (base address,
/// plan hash, every field offset) per surviving allocation.
fn mixed_run(seed: u64) -> (Vec<(u64, u64, Vec<u32>)>, polar_runtime::RuntimeStats) {
    let small = small_class();
    let large = large_class();
    let mut config = RuntimeConfig::default();
    config.seed = seed;
    config.heap.capacity = 64 << 20;
    let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
    let mut trace = Vec::new();
    let mut live = Vec::new();
    for i in 0..512u32 {
        let info = if i % 3 == 0 { &large } else { &small };
        let obj = rt.olr_malloc(info).expect("alloc");
        let meta = rt.object_meta(obj).expect("meta");
        let offsets: Vec<u32> =
            (0..info.field_count()).map(|idx| meta.plan.offset(idx)).collect();
        trace.push((obj.0, meta.plan.plan_hash().0, offsets));
        live.push(obj);
        // Churn: free every third object to force slot reuse (fresh
        // generations → fresh derived layouts on the stateless side).
        if i % 3 == 2 {
            let victim = live.swap_remove((i as usize * 7) % live.len());
            rt.olr_free(victim).expect("free");
        }
    }
    (trace, rt.stats())
}

/// 1+2: per-class-size selection inside one default-config runtime.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode smoke; see the module docs")]
fn default_config_selects_the_path_per_class_size() {
    let small = small_class();
    let large = large_class();
    let mut config = RuntimeConfig::default();
    assert_eq!(
        config.layout,
        LayoutSource::Derived,
        "the default config must derive small classes' layouts, with traps"
    );
    assert!(
        small.field_count() <= STATELESS_MAX_FIELDS && large.field_count() > STATELESS_MAX_FIELDS,
        "the two classes must straddle the 8-field selection boundary"
    );
    config.heap.capacity = 64 << 20;
    let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
    const N: u64 = 200;
    for _ in 0..N {
        let s = rt.olr_malloc(&small).expect("alloc small");
        let meta = rt.object_meta(s).expect("meta");
        assert!(
            meta.plan.dummies().iter().any(|d| d.canary.is_some()),
            "stateless default must arm virtual traps on small classes"
        );
        let l = rt.olr_malloc(&large).expect("alloc large");
        assert!(rt.object_meta(l).is_some(), "large object must carry stored metadata");
    }
    let stats = rt.stats();
    assert_eq!(stats.allocations, 2 * N, "every allocation counted");
    assert_eq!(
        stats.stateless_allocs, N,
        "exactly the small-class allocations take the stateless path"
    );
    println!(
        "ok: selection  {} allocs = {} stateless (small) + {} stored (large)",
        stats.allocations,
        stats.stateless_allocs,
        stats.allocations - stats.stateless_allocs
    );
}

/// 3: exact seeded replay of a mixed-mode run.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode smoke; see the module docs")]
fn mixed_mode_run_replays_exactly_under_one_seed() {
    let (run1, stats1) = mixed_run(0x5EED_CAFE);
    let (run2, _) = mixed_run(0x5EED_CAFE);
    assert_eq!(run1, run2, "same seed must replay addresses, plans, and offsets exactly");
    assert!(stats1.stateless_allocs > 0, "mixed run exercised the stateless path");
    assert!(
        stats1.stateless_allocs < stats1.allocations,
        "mixed run exercised the stored path too"
    );
    let (run3, _) = mixed_run(0x0DD5_EED5);
    assert_ne!(
        run1, run3,
        "a different seed must not reproduce the same layouts (entropy smoke)"
    );
    println!(
        "ok: replay     {} allocations ({} stateless) replay byte-exact under one seed",
        stats1.allocations, stats1.stateless_allocs
    );
}
