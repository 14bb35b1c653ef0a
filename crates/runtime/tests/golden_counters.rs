//! Golden counter test: one fixed-seed, single-thread op tape replayed
//! through every runtime surface.
//!
//! The tape mixes stateless (≤ 8-field) and pooled (12-field)
//! allocations, field writes and reads, plain and inline-cached member
//! accesses (hits, cold-site misses and interior-pointer misses),
//! object copies, frees, double frees, use-after-free accesses and
//! class-mismatch reads. It runs through four paths:
//!
//! * a plain [`ObjectRuntime`];
//! * a [`ShardHandle`] on a one-shard [`ShardedRuntime`] with magazines
//!   on;
//! * a handle with magazines off;
//! * two handles on a two-shard runtime (allocations alternate between
//!   them, and copy destinations come from the other one, so copies
//!   cross shards).
//!
//! Two things are asserted. Every op's value or error variant agrees
//! with the plain runtime's. Every path's final [`RuntimeStats`] equals
//! a literal recorded from a known-good build, so a refactor of the
//! counting paths that moves any counter by one shows up here.
//!
//! The heap holds freed blocks in a quarantine longer than the tape, so
//! no dangling address is ever re-armed: magazine refills reserve blocks
//! at different times than the mutex path, and address reuse would make
//! a use-after-free outcome depend on the path.

use std::sync::Arc;

use polar_classinfo::{ClassDecl, ClassHash, ClassInfo, FieldKind};
use polar_rng::{Rng, RngExt, SplitMix64};
use polar_runtime::{
    Addr, MagazinePolicy, ObjectRuntime, RandomizeMode, RuntimeConfig, RuntimeError,
    RuntimeStats, ShardHandle, ShardedRuntime, SiteCache,
};

const TAPE_SEED: u64 = 0x60_1DE7;
const TAPE_LEN: usize = 600;
const SITES: usize = 4;

/// One tape op. Object and field indices are reduced modulo the
/// object list and the class's field count at execution time, so the
/// same tape stays executable on every path.
#[derive(Debug, Clone, Copy)]
enum Op {
    Malloc { pooled: bool },
    Write { obj: usize, field: usize, value: u64 },
    Read { obj: usize, field: usize },
    Getptr { obj: usize, field: usize, interior: bool },
    /// An inline-cached access. Like a real call site, each site always
    /// names the same field.
    GetptrIc { obj: usize, site: usize, interior: bool },
    Memcpy { obj: usize },
    Free { obj: usize },
    MismatchRead { obj: usize, field: usize },
}

/// What one op returned, with addresses abstracted away (layouts and
/// placement differ per path; values and error classes must not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Skipped,
    Done,
    Value(u64),
    Err(&'static str),
}

fn err_class(err: &RuntimeError) -> &'static str {
    match err {
        RuntimeError::UseAfterFree { .. } => "UseAfterFree",
        RuntimeError::ClassMismatch { .. } => "ClassMismatch",
        RuntimeError::UnknownObject(_) => "UnknownObject",
        RuntimeError::FieldOutOfBounds { .. } => "FieldOutOfBounds",
        RuntimeError::TrapTriggered(_) => "TrapTriggered",
        RuntimeError::DoubleFree(_) => "DoubleFree",
        RuntimeError::Heap(_) => "Heap",
        RuntimeError::ShardPoisoned { .. } => "ShardPoisoned",
    }
}

fn outcome<T>(result: Result<T, RuntimeError>, value: impl FnOnce(T) -> Outcome) -> Outcome {
    match result {
        Ok(v) => value(v),
        Err(err) => Outcome::Err(err_class(&err)),
    }
}

/// A 5-field class: takes the stateless small-class path.
fn small() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("Node")
            .field("vtable", FieldKind::VtablePtr)
            .field("key", FieldKind::I64)
            .field("count", FieldKind::I32)
            .field("flags", FieldKind::I32)
            .field("next", FieldKind::Ptr)
            .build(),
    ))
}

/// A 12-field class: too wide for the stateless path, so its plans come
/// from the plan pools.
fn pooled() -> Arc<ClassInfo> {
    let mut decl = ClassDecl::builder("Wide").field("vtable", FieldKind::VtablePtr);
    for i in 0..11 {
        let kind = if i % 2 == 0 { FieldKind::I64 } else { FieldKind::I32 };
        decl = decl.field(format!("f{i}"), kind);
    }
    Arc::new(ClassInfo::from_decl(decl.build()))
}

fn config(magazines: bool) -> RuntimeConfig {
    let mut config = RuntimeConfig::default();
    config.heap.capacity = 16 << 20;
    config.heap.quarantine = 1 << 20;
    config.seed = 0x601D_C0DE;
    if !magazines {
        config.magazine = MagazinePolicy::disabled();
    }
    config
}

fn tape() -> Vec<Op> {
    let mut rng = SplitMix64::new(TAPE_SEED);
    let mut tape = Vec::with_capacity(TAPE_LEN);
    // Start with a few objects of each class so early accesses land.
    for i in 0..6 {
        tape.push(Op::Malloc { pooled: i % 2 == 1 });
    }
    while tape.len() < TAPE_LEN {
        let obj = rng.next_u64() as usize;
        let field = rng.random_range(0..16usize);
        let interior = rng.random_range(0..8u32) == 0;
        let op = match rng.random_range(0..100u32) {
            0..=13 => Op::Malloc { pooled: rng.random_range(0..2u32) == 0 },
            14..=35 => Op::Write { obj, field, value: rng.next_u64() & 0x7FFF_FFFF },
            36..=57 => Op::Read { obj, field },
            58..=67 => Op::Getptr { obj, field, interior },
            68..=79 => {
                let site = rng.random_range(0..SITES);
                // Half the time a site revisits "its" object, so the
                // inline cache also sees repeat hits.
                let obj = if rng.random_range(0..2u32) == 0 { site } else { obj };
                Op::GetptrIc { obj, site, interior }
            }
            80..=84 => Op::Memcpy { obj },
            85..=93 => Op::Free { obj },
            _ => Op::MismatchRead { obj, field },
        };
        tape.push(op);
    }
    tape
}

/// The op surface the tape drives. `nth` counts allocations so the
/// two-handle path can spread objects across its shards.
trait Surface {
    fn malloc(&mut self, info: &Arc<ClassInfo>, nth: usize) -> Result<Addr, RuntimeError>;
    fn malloc_raw(&mut self, size: usize, nth: usize) -> Result<Addr, RuntimeError>;
    fn write(&mut self, base: Addr, class: ClassHash, field: usize, value: u64)
        -> Result<(), RuntimeError>;
    fn read(&mut self, base: Addr, class: ClassHash, field: usize) -> Result<u64, RuntimeError>;
    fn getptr(&mut self, base: Addr, class: ClassHash, field: usize) -> Result<Addr, RuntimeError>;
    fn getptr_ic(
        &mut self,
        base: Addr,
        class: ClassHash,
        field: usize,
        ic: &mut SiteCache,
    ) -> Result<Addr, RuntimeError>;
    fn memcpy(&mut self, dst: Addr, src: Addr, info: &Arc<ClassInfo>) -> Result<(), RuntimeError>;
    fn free(&mut self, base: Addr) -> Result<(), RuntimeError>;
}

impl Surface for ObjectRuntime {
    fn malloc(&mut self, info: &Arc<ClassInfo>, _: usize) -> Result<Addr, RuntimeError> {
        self.olr_malloc(info)
    }
    fn malloc_raw(&mut self, size: usize, _: usize) -> Result<Addr, RuntimeError> {
        ObjectRuntime::malloc_raw(self, size)
    }
    fn write(&mut self, b: Addr, c: ClassHash, f: usize, v: u64) -> Result<(), RuntimeError> {
        self.write_field(b, c, f, v)
    }
    fn read(&mut self, b: Addr, c: ClassHash, f: usize) -> Result<u64, RuntimeError> {
        self.read_field(b, c, f)
    }
    fn getptr(&mut self, b: Addr, c: ClassHash, f: usize) -> Result<Addr, RuntimeError> {
        self.olr_getptr(b, c, f)
    }
    fn getptr_ic(
        &mut self,
        b: Addr,
        c: ClassHash,
        f: usize,
        ic: &mut SiteCache,
    ) -> Result<Addr, RuntimeError> {
        self.olr_getptr_ic(b, c, f, ic)
    }
    fn memcpy(&mut self, d: Addr, s: Addr, info: &Arc<ClassInfo>) -> Result<(), RuntimeError> {
        self.olr_memcpy(d, s, info)
    }
    fn free(&mut self, b: Addr) -> Result<(), RuntimeError> {
        self.olr_free(b)
    }
}

impl Surface for ShardHandle<'_> {
    fn malloc(&mut self, info: &Arc<ClassInfo>, _: usize) -> Result<Addr, RuntimeError> {
        self.olr_malloc(info)
    }
    fn malloc_raw(&mut self, size: usize, _: usize) -> Result<Addr, RuntimeError> {
        ShardHandle::malloc_raw(self, size)
    }
    fn write(&mut self, b: Addr, c: ClassHash, f: usize, v: u64) -> Result<(), RuntimeError> {
        self.write_field(b, c, f, v)
    }
    fn read(&mut self, b: Addr, c: ClassHash, f: usize) -> Result<u64, RuntimeError> {
        self.read_field(b, c, f)
    }
    fn getptr(&mut self, b: Addr, c: ClassHash, f: usize) -> Result<Addr, RuntimeError> {
        self.olr_getptr(b, c, f)
    }
    fn getptr_ic(
        &mut self,
        b: Addr,
        c: ClassHash,
        f: usize,
        ic: &mut SiteCache,
    ) -> Result<Addr, RuntimeError> {
        self.olr_getptr_ic(b, c, f, ic)
    }
    fn memcpy(&mut self, d: Addr, s: Addr, info: &Arc<ClassInfo>) -> Result<(), RuntimeError> {
        self.olr_memcpy(d, s, info)
    }
    fn free(&mut self, b: Addr) -> Result<(), RuntimeError> {
        self.olr_free(b)
    }
}

/// Two handles on a two-shard runtime driven as one context: the
/// `nth` allocation comes from handle `nth % 2`, a copy destination
/// from the other handle, and every other op goes through handle 0, so
/// its frees of handle 1's objects are remote frees.
struct Pair<'a>([ShardHandle<'a>; 2]);

impl Surface for Pair<'_> {
    fn malloc(&mut self, info: &Arc<ClassInfo>, nth: usize) -> Result<Addr, RuntimeError> {
        self.0[nth % 2].olr_malloc(info)
    }
    fn malloc_raw(&mut self, size: usize, nth: usize) -> Result<Addr, RuntimeError> {
        self.0[(nth + 1) % 2].malloc_raw(size)
    }
    fn write(&mut self, b: Addr, c: ClassHash, f: usize, v: u64) -> Result<(), RuntimeError> {
        self.0[0].write_field(b, c, f, v)
    }
    fn read(&mut self, b: Addr, c: ClassHash, f: usize) -> Result<u64, RuntimeError> {
        self.0[0].read_field(b, c, f)
    }
    fn getptr(&mut self, b: Addr, c: ClassHash, f: usize) -> Result<Addr, RuntimeError> {
        self.0[0].olr_getptr(b, c, f)
    }
    fn getptr_ic(
        &mut self,
        b: Addr,
        c: ClassHash,
        f: usize,
        ic: &mut SiteCache,
    ) -> Result<Addr, RuntimeError> {
        self.0[0].olr_getptr_ic(b, c, f, ic)
    }
    fn memcpy(&mut self, d: Addr, s: Addr, info: &Arc<ClassInfo>) -> Result<(), RuntimeError> {
        self.0[0].olr_memcpy(d, s, info)
    }
    fn free(&mut self, b: Addr) -> Result<(), RuntimeError> {
        self.0[0].olr_free(b)
    }
}

/// Replay `tape` on `s`, returning one outcome per op.
fn replay<S: Surface>(s: &mut S, tape: &[Op]) -> Vec<Outcome> {
    let classes = [small(), pooled()];
    let mut objects: Vec<(Addr, usize)> = Vec::new();
    let mut sites: Vec<SiteCache> = (0..SITES).map(|_| SiteCache::empty()).collect();
    let mut nth = 0usize;
    let mut out = Vec::with_capacity(tape.len());
    for &op in tape {
        let pick = |obj: usize| objects.get(obj % objects.len().max(1)).copied();
        let result = match op {
            Op::Malloc { pooled } => {
                let class = usize::from(pooled);
                nth += 1;
                outcome(s.malloc(&classes[class], nth), |addr| {
                    objects.push((addr, class));
                    Outcome::Done
                })
            }
            Op::Memcpy { obj } => match pick(obj) {
                None => Outcome::Skipped,
                Some((src, class)) => {
                    let info = &classes[class];
                    nth += 1;
                    let dst = s.malloc_raw(info.size() as usize + 64, nth).expect("raw buffer");
                    outcome(s.memcpy(dst, src, info), |()| {
                        objects.push((dst, class));
                        Outcome::Done
                    })
                }
            },
            _ => {
                let obj = match op {
                    Op::Write { obj, .. }
                    | Op::Read { obj, .. }
                    | Op::Getptr { obj, .. }
                    | Op::GetptrIc { obj, .. }
                    | Op::Free { obj }
                    | Op::MismatchRead { obj, .. } => obj,
                    Op::Malloc { .. } | Op::Memcpy { .. } => unreachable!(),
                };
                match pick(obj) {
                    None => Outcome::Skipped,
                    Some((base, class)) => {
                        let info = &classes[class];
                        let hash = info.hash();
                        let nf = info.field_count();
                        match op {
                            Op::Write { field, value, .. } => {
                                outcome(s.write(base, hash, field % nf, value), |()| Outcome::Done)
                            }
                            Op::Read { field, .. } => {
                                outcome(s.read(base, hash, field % nf), Outcome::Value)
                            }
                            Op::Getptr { field, interior, .. } => {
                                let at = if interior { base.offset(8) } else { base };
                                outcome(s.getptr(at, hash, field % nf), |_| Outcome::Done)
                            }
                            Op::GetptrIc { site, interior, .. } => {
                                let at = if interior { base.offset(8) } else { base };
                                let ic = &mut sites[site];
                                outcome(s.getptr_ic(at, hash, site + 1, ic), |_| Outcome::Done)
                            }
                            Op::Free { .. } => outcome(s.free(base), |()| Outcome::Done),
                            Op::MismatchRead { field, .. } => {
                                let other = classes[1 - class].hash();
                                outcome(s.read(base, other, field % nf), Outcome::Value)
                            }
                            Op::Malloc { .. } | Op::Memcpy { .. } => unreachable!(),
                        }
                    }
                }
            }
        };
        out.push(result);
    }
    out
}

fn mode() -> RandomizeMode {
    RandomizeMode::per_allocation()
}

/// The plain runtime's outcomes: the reference every path must match.
fn reference() -> (Vec<Outcome>, RuntimeStats) {
    let mut rt = ObjectRuntime::new(mode(), config(true));
    let out = replay(&mut rt, &tape());
    (out, rt.stats())
}

fn handle(magazines: bool) -> (Vec<Outcome>, RuntimeStats) {
    let rt = ShardedRuntime::new(mode(), config(magazines), 1);
    let out = {
        let mut h = rt.handle(0);
        replay(&mut h, &tape())
        // Dropping the handle returns parked capsules and flushes its
        // pending counters.
    };
    (out, rt.stats())
}

fn two_handles() -> (Vec<Outcome>, RuntimeStats) {
    let rt = ShardedRuntime::new(mode(), config(true), 2);
    let out = replay(&mut Pair([rt.handle(0), rt.handle(1)]), &tape());
    (out, rt.stats())
}

fn assert_agrees(path: &str, got: &[Outcome]) {
    let (want, _) = reference();
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{path}: op {i} ({:?}) disagrees with the plain runtime", tape()[i]);
    }
}

#[test]
fn tape_covers_every_outcome_class() {
    let (out, stats) = reference();
    for class in ["UseAfterFree", "DoubleFree", "ClassMismatch", "UnknownObject"] {
        assert!(out.contains(&Outcome::Err(class)), "tape never produced {class}");
    }
    assert!(out.iter().any(|o| matches!(o, Outcome::Value(v) if *v != 0)));
    assert!(stats.stateless_allocs > 0 && stats.pool_hits > 0, "{stats:?}");
    assert!(stats.site_ic_hits > 0 && stats.site_ic_misses > 0, "{stats:?}");
    assert!(stats.memcpys > 0 && stats.cache_hits > 0, "{stats:?}");
}

#[test]
fn golden_counters_object_runtime() {
    let (_, stats) = reference();
    assert_eq!(stats, GOLDEN_OBJECT_RUNTIME);
}

#[test]
fn golden_counters_handle_with_magazines() {
    let (out, stats) = handle(true);
    assert_agrees("handle/magazines", &out);
    assert_eq!(stats, GOLDEN_HANDLE_MAGAZINES);
}

#[test]
fn golden_counters_handle_without_magazines() {
    let (out, stats) = handle(false);
    assert_agrees("handle/mutex", &out);
    assert_eq!(stats, GOLDEN_HANDLE_MUTEX);
}

#[test]
fn golden_counters_two_handles_two_shards() {
    let (out, stats) = two_handles();
    assert_agrees("two-handles/2", &out);
    assert_eq!(stats, GOLDEN_TWO_HANDLES);
}

#[test]
#[ignore = "prints the counter literals for re-recording"]
fn print_golden_counters() {
    println!("OBJECT_RUNTIME {:?}", reference().1);
    println!("HANDLE_MAGAZINES {:?}", handle(true).1);
    println!("HANDLE_MUTEX {:?}", handle(false).1);
    println!("TWO_HANDLES {:?}", two_handles().1);
}

const GOLDEN_OBJECT_RUNTIME: RuntimeStats = RuntimeStats {
    allocations: 104,
    frees: 34,
    memcpys: 29,
    member_accesses: 424,
    cache_hits: 223,
    uaf_detected: 98,
    mismatch_detected: 28,
    traps_triggered: 0,
    trap_scans: 34,
    dummy_touches: 0,
    double_free_detected: 9,
    unique_plans: 107,
    dedup_saved: 15,
    shadow_hits: 408,
    shadow_misses: 16,
    site_ic_hits: 6,
    site_ic_misses: 58,
    stateless_allocs: 55,
    probe_traps: 0,
    pool_hits: 63,
    pool_refills: 7,
    lockfree_reads: 0,
    lockfree_fallbacks: 0,
    magazine_hits: 0,
    magazine_refills: 0,
    magazine_returns: 0,
    fast_frees: 0,
    remote_drained: 0,
};

const GOLDEN_HANDLE_MAGAZINES: RuntimeStats = RuntimeStats {
    allocations: 104,
    frees: 34,
    memcpys: 29,
    member_accesses: 424,
    cache_hits: 223,
    uaf_detected: 98,
    mismatch_detected: 28,
    traps_triggered: 0,
    trap_scans: 34,
    dummy_touches: 0,
    double_free_detected: 9,
    unique_plans: 146,
    dedup_saved: 17,
    shadow_hits: 408,
    shadow_misses: 16,
    site_ic_hits: 6,
    site_ic_misses: 58,
    stateless_allocs: 55,
    probe_traps: 0,
    pool_hits: 76,
    pool_refills: 9,
    lockfree_reads: 188,
    lockfree_fallbacks: 110,
    magazine_hits: 100,
    magazine_refills: 4,
    magazine_returns: 24,
    fast_frees: 34,
    remote_drained: 34,
};

const GOLDEN_HANDLE_MUTEX: RuntimeStats = RuntimeStats {
    allocations: 104,
    frees: 34,
    memcpys: 29,
    member_accesses: 424,
    cache_hits: 223,
    uaf_detected: 98,
    mismatch_detected: 28,
    traps_triggered: 0,
    trap_scans: 34,
    dummy_touches: 0,
    double_free_detected: 9,
    unique_plans: 140,
    dedup_saved: 14,
    shadow_hits: 408,
    shadow_misses: 16,
    site_ic_hits: 6,
    site_ic_misses: 58,
    stateless_allocs: 55,
    probe_traps: 0,
    pool_hits: 61,
    pool_refills: 9,
    lockfree_reads: 188,
    lockfree_fallbacks: 110,
    magazine_hits: 0,
    magazine_refills: 0,
    magazine_returns: 0,
    fast_frees: 0,
    remote_drained: 0,
};

const GOLDEN_TWO_HANDLES: RuntimeStats = RuntimeStats {
    allocations: 104,
    frees: 34,
    memcpys: 29,
    member_accesses: 424,
    cache_hits: 223,
    uaf_detected: 98,
    mismatch_detected: 28,
    traps_triggered: 0,
    trap_scans: 34,
    dummy_touches: 0,
    double_free_detected: 9,
    unique_plans: 265,
    dedup_saved: 25,
    shadow_hits: 408,
    shadow_misses: 16,
    site_ic_hits: 6,
    site_ic_misses: 58,
    stateless_allocs: 55,
    probe_traps: 0,
    pool_hits: 71,
    pool_refills: 14,
    lockfree_reads: 188,
    lockfree_fallbacks: 110,
    magazine_hits: 99,
    magazine_refills: 5,
    magazine_returns: 56,
    fast_frees: 34,
    remote_drained: 34,
};
