//! Micro-benchmarks of the POLaR runtime's four entry points against
//! their unhardened equivalents — where the Figure 6 overhead actually
//! comes from.

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use polar_bench::micro::Criterion;
use polar_bench::{bench_group, bench_main};
use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_layout::{
    pack_perm, stateless_bound, stateless_perm, stateless_plan_from_code, CanaryKey,
    DerivedLayout, EpochKey, LayoutEngine, PlanInterner, RandomizationPolicy, RoundKeys,
};
use polar_rng::{rngs::StdRng, RngExt, SeedableRng};
use polar_runtime::{ObjectRuntime, RandomizeMode, RuntimeConfig, ShardedRuntime};
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
    // A handle's field store and load on one cache-resident object of a
    // one-shard runtime: the stage rows of the sharded access path, both
    // served without the shard lock.
    let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), big_config(), 1);
    let mut h = rt.handle(0);
    let obj = h.olr_malloc(&info).expect("alloc");
    h.write_field(obj, info.hash(), 1, 1).expect("warm");
    group.bench_function("handle_write_field", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            h.write_field(obj, info.hash(), 1, black_box(v)).expect("write");
        });
    });
    group.bench_function("handle_read_field", |b| {
        b.iter(|| h.read_field(obj, info.hash(), 1).expect("read"));
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
    // A handle's copy of one live object onto another of its class, both
    // cache-resident on a one-shard runtime: the consumer's copy in
    // handoff-churn, served without the shard lock.
    let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), big_config(), 1);
    for n in [4usize, 7, 12] {
        let info = Arc::new(wide(n));
        let mut h = rt.handle(0);
        let (src, dst) = (h.olr_malloc(&info).expect("alloc"), h.olr_malloc(&info).expect("alloc"));
        group.bench_function(format!("handle_memcpy_{n}f"), |b| {
            b.iter(|| h.olr_memcpy(dst, src, &info).expect("copy"))
        });
    }
    group.finish();
}

/// The remote-free stages on a one-shard runtime whose owner handle
/// allocates and a second handle frees: `push` is the freeing side of
/// one lock-free free (the free check, the claim and the push onto the
/// owner's stack), `drain_32` one drain of a stack of 32 such frees
/// (the shard lock, the walk in push order and the heap release of 32
/// blocks). The allocations the stages consume are made untimed.
fn bench_remote(c: &mut Criterion) {
    const BATCH: usize = 32;
    let info = probe();
    let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), big_config(), 1);
    let (mut owner, mut freer) = (rt.handle(0), rt.handle(1));
    let mut group = c.benchmark_group("remote");
    group.bench_function("push", |b| {
        b.iter_batched(
            || owner.olr_malloc(&info).expect("alloc"),
            |obj| freer.olr_free(obj).expect("free"),
        )
    });
    // All 32 allocations come before the frees, so a refill they cause
    // drains nothing of this batch.
    let mut objs = Vec::with_capacity(BATCH);
    group.bench_function("drain_32", |b| {
        b.iter_batched(
            || {
                objs.extend((0..BATCH).map(|_| owner.olr_malloc(&info).expect("alloc")));
                for obj in objs.drain(..) {
                    freer.olr_free(obj).expect("free");
                }
            },
            |()| rt.quiesce(),
        )
    });
    group.finish();
}

/// One read of the runtime's counters on a 4-shard runtime, as a
/// service's scraper takes it: no lock and no drain.
fn bench_stats(c: &mut Criterion) {
    let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), big_config(), 4);
    let mut group = c.benchmark_group("stats");
    group.bench_function("fold", |b| b.iter(|| rt.stats()));
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

/// An `n`-field class of mixed widths.
fn wide(n: usize) -> ClassInfo {
    let mut decl = ClassDecl::builder(format!("Wide{n}")).field("vtable", FieldKind::VtablePtr);
    for i in 1..n {
        let kind = if i % 2 == 0 { FieldKind::I64 } else { FieldKind::I32 };
        decl = decl.field(format!("f{i}"), kind);
    }
    ClassInfo::from_decl(decl.build())
}

/// What a read would pay to derive its object's layout on every access
/// instead of resolving the interned plan its record names (one field
/// offset either way), cycling over 64 layouts. A 7-field derivation is
/// the runtime's own `stateless_plan_from_code` (with traps), from an
/// already derived code. A 12-field class exceeds the 8 positions a
/// permutation code packs, so its row prices only the permuted position
/// of the one field read: the 16-point Feistel mapping of the hot path
/// (`RoundKeys::mapping`) and a cycle walk into `[0, 12)` — a lower
/// bound on any derivation over the full 16-point domain.
fn bench_plan_resolve(c: &mut Criterion) {
    const LAYOUTS: usize = 64;
    let key = EpochKey(0x5EED);
    let traps = Some(CanaryKey::from_seed(0x5EED));
    let (seven, twelve) = (wide(7), wide(12));
    let codes: Vec<u32> =
        (0..LAYOUTS as u64).map(|g| pack_perm(&stateless_perm(key, g, 3, 7))).collect();
    let mut interner = PlanInterner::new(CanaryKey::from_seed(0x5EED));
    let ids7: Vec<u32> = codes
        .iter()
        .map(|&code| interner.intern_id(stateless_plan_from_code(&seven, key, code, traps)).0)
        .collect();
    let engine = LayoutEngine::new(RandomizationPolicy::default());
    let mut rng = StdRng::seed_from_u64(12);
    let ids12: Vec<u32> = (0..LAYOUTS)
        .map(|_| interner.intern_id(engine.generate(&twelve, &mut rng)).0)
        .collect();
    let registry = interner.registry();
    let mut group = c.benchmark_group("plan_resolve");
    let mut i = 0usize;
    group.bench_function("derive_from_code_7f", |b| {
        b.iter(|| {
            i = (i + 1) % LAYOUTS;
            stateless_plan_from_code(&seven, key, black_box(codes[i]), traps).access(3)
        })
    });
    group.bench_function("resolve_interned_id_7f", |b| {
        b.iter(|| {
            i = (i + 1) % LAYOUTS;
            registry.get(black_box(ids7[i])).and_then(|p| p.access(3))
        })
    });
    let keys = RoundKeys::new(key);
    group.bench_function("derive_position_12f", |b| {
        b.iter(|| {
            i = (i + 1) % LAYOUTS;
            let map = keys.mapping(black_box(i as u64), 3);
            let mut at = map[3];
            while at >= 12 {
                at = map[usize::from(at)];
            }
            at
        })
    });
    group.bench_function("resolve_interned_id_12f", |b| {
        b.iter(|| {
            i = (i + 1) % LAYOUTS;
            registry.get(black_box(ids12[i])).and_then(|p| p.access(3))
        })
    });
    group.finish();
}

/// The plan-source layer as a busy service meets it: a field access
/// resolves its object's plan id through the registry to a field's
/// `(offset, width)` when neither the plan nor its cells are cached.
///
/// `cold_7f` resolves `(id, field)` pairs in a random order over 10,080
/// interned 7-field plans with traps — the `layout.unique_plans` of a
/// traced session-zipf run — so the registry entries, the plans and
/// their cells are spread over a few megabytes and the order defeats
/// the prefetcher. `plan_build_12f` builds and interns a pooled plan of
/// handoff-churn's 12-field `Envelope` class (default policy), the
/// plan source of that workload's refills; its interner is replaced,
/// untimed, every 4,096 builds, so memory stays bounded.
fn bench_plan_layer(c: &mut Criterion) {
    const PLANS: usize = 10_080;
    const PAIRS: usize = 1 << 16;
    let seven = wide(7);
    let canaries = CanaryKey::from_seed(0x5EED);
    let mut interner = PlanInterner::new(canaries);
    let mut g = 0u64;
    while interner.unique_plans() < PLANS {
        let key = EpochKey(g / 64);
        let code = pack_perm(&stateless_perm(key, g, 3, 7));
        interner.intern_id(stateless_plan_from_code(&seven, key, code, Some(canaries)));
        g += 1;
    }
    let mut rng = StdRng::seed_from_u64(0xC01D);
    let pairs: Vec<(u32, usize)> = (0..PAIRS)
        .map(|_| (rng.random_range(0..PLANS as u32), rng.random_range(0..7usize)))
        .collect();
    let registry = interner.registry();
    let mut i = 0usize;
    let mut group = c.benchmark_group("plan_resolve");
    // Each lookup's index waits on the offset the previous one resolved
    // (offsets are below 2^31, so the step is always 1): the row prices
    // the latency of the chain, which the access that follows a lookup
    // waits on, not lookups overlapped by out-of-order execution.
    let mut offset = 0u32;
    group.bench_function("cold_7f", |b| {
        b.iter(|| {
            i = (i + 1 + (offset >> 31) as usize) % PAIRS;
            let (id, field) = pairs[i];
            let access = registry.get(id).and_then(|p| p.access(field));
            offset = access.map_or(0, |a| a.offset);
            access
        })
    });
    group.finish();

    use FieldKind::{Ptr, VtablePtr, I32, I64};
    let kinds = [VtablePtr, I64, I64, I64, I64, I32, I32, I32, I32, Ptr, Ptr, I64];
    let mut decl = ClassDecl::builder("Envelope");
    for (i, kind) in kinds.into_iter().enumerate() {
        decl = decl.field(format!("f{i}"), kind);
    }
    let envelope = ClassInfo::from_decl(decl.build());
    let engine = LayoutEngine::new(RandomizationPolicy::default());
    let interner = RefCell::new(PlanInterner::new(canaries));
    let mut built = 0usize;
    c.bench_function("plan_build_12f", |b| {
        b.iter_batched(
            || {
                built += 1;
                if built % 4096 == 0 {
                    *interner.borrow_mut() = PlanInterner::new(canaries);
                }
            },
            |()| interner.borrow_mut().intern_id(engine.generate(&envelope, &mut rng)).0,
        )
    });
}

/// How a stateless reservation of a 7-field class finds the interned
/// plan of a derived code, over 1,024 codes that are all interned
/// already (the steady state): lay the code out on the stack, hash it
/// and probe the interner, against building the plan from the code and
/// interning it, which finds the plan present and drops the one built.
fn bench_stateless_resolve(c: &mut Criterion) {
    const CODES: usize = 1024;
    let key = EpochKey(0x5EED);
    let traps = Some(CanaryKey::from_seed(0x5EED));
    let seven = wide(7);
    let codes: Vec<u32> =
        (0..CODES as u64).map(|g| pack_perm(&stateless_perm(key, g, 3, 7))).collect();
    let mut interner = PlanInterner::new(CanaryKey::from_seed(0x5EED));
    for &code in &codes {
        interner.intern_id(stateless_plan_from_code(&seven, key, code, traps));
    }
    let mut group = c.benchmark_group("stateless_resolve_7f");
    let mut i = 0usize;
    group.bench_function("probe", |b| {
        b.iter(|| {
            i = (i + 1) % CODES;
            let shape = DerivedLayout::derive(&seven, key, black_box(codes[i]), traps);
            interner.probe(shape.plan_hash())
        })
    });
    group.bench_function("build_and_intern", |b| {
        b.iter(|| {
            i = (i + 1) % CODES;
            let plan = stateless_plan_from_code(&seven, key, black_box(codes[i]), traps);
            interner.intern_id(plan).0
        })
    });
    group.finish();
}

/// What a fresh runtime pays once per stateless class, before the
/// class's first reservation: the exact size of its widest derived
/// layout with traps, which sizes every block of the class.
/// spec-interp builds a runtime per program run, so this is paid per
/// class per run.
fn bench_stateless_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("stateless_bound");
    for n in [4usize, 7, 8] {
        let info = wide(n);
        group.bench_function(format!("{n}f"), |b| {
            b.iter(|| stateless_bound(black_box(&info), true))
        });
    }
    group.finish();
}

/// One magazine refill of 32 capsules plus the drain of the 32 frees
/// before it, per iteration, on a one-shard runtime: the handle pops and
/// frees 32 objects (lock-free claims onto the shard's remote-free
/// stack), and the next iteration's first pop finds the magazine empty,
/// takes the shard lock, drains those frees and reserves 32 capsules.
/// The 4- and 7-field classes derive their layouts (the ranked plan
/// cache and the hash probe), the 12-field class draws from the pooled
/// ring. Each row is warmed until a 7-field class has met all of its
/// 5,040 codes, as a long-running service has.
fn bench_magazine_refill(c: &mut Criterion) {
    const BATCH: usize = 32;
    let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), big_config(), 1);
    let mut group = c.benchmark_group("magazine_refill");
    for n in [4usize, 7, 12] {
        let info = Arc::new(wide(n));
        let mut h = rt.handle(0);
        let mut objs = Vec::with_capacity(BATCH);
        let mut cycle = move || {
            for _ in 0..BATCH {
                objs.push(h.olr_malloc(&info).expect("alloc"));
            }
            for obj in objs.drain(..) {
                h.olr_free(obj).expect("free");
            }
        };
        for _ in 0..2048 {
            cycle();
        }
        group.bench_function(format!("magazine_refill_{n}f"), |b| b.iter(&mut cycle));
    }
    // The same refill split in two: `drain_{n}f` is `quiesce()` draining
    // the 32 frees, `reserve_{n}f` the pop that then finds the magazine
    // empty and refills with nothing left to drain (the shard lock and
    // 32 reservations). The two stages alternate in every cycle, so a
    // change to either reads against the other in the same host state.
    for n in [4usize, 7, 12] {
        let info = Arc::new(wide(n));
        let rt = &rt;
        let mut h = rt.handle(0);
        let mut objs = Vec::with_capacity(BATCH);
        let mut cycle = move |iters: u64| {
            let mut took = [Duration::ZERO; 2];
            for _ in 0..iters {
                while h.parked_capsules() > 0 {
                    objs.push(h.olr_malloc(&info).expect("alloc"));
                }
                for obj in objs.drain(..) {
                    h.olr_free(obj).expect("free");
                }
                let t0 = Instant::now();
                rt.quiesce();
                let t1 = Instant::now();
                objs.push(h.olr_malloc(&info).expect("alloc"));
                let t2 = Instant::now();
                took[0] += t1 - t0;
                took[1] += t2 - t1;
            }
            took
        };
        cycle(2048);
        group.bench_stages([format!("drain_{n}f"), format!("reserve_{n}f")], &mut cycle);
    }
    group.finish();
}

bench_group!(
    benches,
    bench_alloc_free,
    bench_getptr,
    bench_memcpy,
    bench_remote,
    bench_stats,
    bench_heap_locate,
    bench_plan_resolve,
    bench_plan_layer,
    bench_stateless_resolve,
    bench_stateless_bound,
    bench_magazine_refill
);
bench_main!(benches);
