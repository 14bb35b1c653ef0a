//! Micro-benchmarks of the POLaR runtime's four entry points against
//! their unhardened equivalents — where the Figure 6 overhead actually
//! comes from.

use std::hint::black_box;
use std::sync::Arc;

use polar_bench::micro::Criterion;
use polar_bench::{bench_group, bench_main};
use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_runtime::{ObjectRuntime, RandomizeMode, RuntimeConfig};
use polar_simheap::{Addr, HeapConfig, SimHeap};

fn probe() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("Probe")
            .field("vtable", FieldKind::VtablePtr)
            .field("a", FieldKind::I64)
            .field("b", FieldKind::I32)
            .field("c", FieldKind::I32)
            .build(),
    ))
}

fn big_config() -> RuntimeConfig {
    let mut c = RuntimeConfig::default();
    c.heap.capacity = 1 << 30;
    c
}

fn bench_alloc_free(c: &mut Criterion) {
    let info = probe();
    let mut group = c.benchmark_group("alloc_free");
    group.bench_function("raw_malloc_free", |b| {
        let mut rt = ObjectRuntime::new(RandomizeMode::Native, big_config());
        b.iter(|| {
            let a = rt.malloc_raw(32).expect("alloc");
            rt.free_raw(a).expect("free");
        });
    });
    group.bench_function("olr_malloc_free", |b| {
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), big_config());
        b.iter(|| {
            let a = rt.olr_malloc(&info).expect("alloc");
            rt.olr_free(a).expect("free");
        });
    });
    group.bench_function("olr_malloc_free_static", |b| {
        let mut rt = ObjectRuntime::new(RandomizeMode::static_olr(7), big_config());
        b.iter(|| {
            let a = rt.olr_malloc(&info).expect("alloc");
            rt.olr_free(a).expect("free");
        });
    });
    group.finish();
}

fn bench_getptr(c: &mut Criterion) {
    let info = probe();
    let mut group = c.benchmark_group("member_access");
    group.bench_function("olr_getptr_cached", |b| {
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), big_config());
        let obj = rt.olr_malloc(&info).expect("alloc");
        rt.olr_getptr(obj, info.hash(), 1).expect("warm");
        b.iter(|| rt.olr_getptr(obj, info.hash(), 1).expect("access"));
    });
    group.bench_function("olr_getptr_cold", |b| {
        let mut config = big_config();
        config.offset_cache = false;
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
        let obj = rt.olr_malloc(&info).expect("alloc");
        b.iter(|| rt.olr_getptr(obj, info.hash(), 1).expect("access"));
    });
    group.finish();
}

fn bench_memcpy(c: &mut Criterion) {
    let info = probe();
    let mut group = c.benchmark_group("object_copy");
    group.bench_function("olr_memcpy", |b| {
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), big_config());
        let src = rt.olr_malloc(&info).expect("alloc");
        let dst = rt.malloc_raw(128).expect("alloc");
        b.iter(|| rt.olr_memcpy(dst, src, &info).expect("copy"));
    });
    group.bench_function("raw_memmove", |b| {
        let mut rt = ObjectRuntime::new(RandomizeMode::Native, big_config());
        let src = rt.malloc_raw(32).expect("alloc");
        let dst = rt.malloc_raw(32).expect("alloc");
        b.iter(|| rt.heap_mut().memmove(dst, src, 24).expect("copy"));
    });
    group.finish();
}

/// The heap's address → block hops: the unit index, then the slot
/// record. Slot ids below 64 sit in the record table's first segments,
/// ids from 2^17 in a later, larger one.
fn bench_heap_locate(c: &mut Criterion) {
    let mut heap = SimHeap::new(HeapConfig { capacity: 1 << 30, ..HeapConfig::default() });
    let blocks: Vec<Addr> = (0..=1usize << 17).map(|_| heap.malloc(256).expect("alloc")).collect();
    let (low, high) = (blocks[7], blocks[1 << 17]);
    let mut group = c.benchmark_group("heap_locate");
    group.bench_function("slot_gen_slot_lt_64", |b| b.iter(|| heap.slot_gen(black_box(low))));
    group.bench_function("slot_gen_slot_ge_2e17", |b| b.iter(|| heap.slot_gen(black_box(high))));
    group.bench_function("block_containing_interior", |b| {
        b.iter(|| heap.block_containing(black_box(high.offset(200))))
    });
    group.finish();
}

bench_group!(benches, bench_alloc_free, bench_getptr, bench_memcpy, bench_heap_locate);
bench_main!(benches);
