//! Golden counter test: one fixed-seed, single-thread op tape replayed
//! through every runtime surface.
//!
//! The tapes run the default configuration: `LayoutSource::Derived`
//! (small classes derived with virtual traps, wide classes from the
//! pooled ring) with `detect` on; only the heap size, quarantine, seed
//! and magazines are set here. The other layout sources and detections
//! off are covered by the differential property in `classify_props.rs`,
//! which checks that every surface agrees rather than pinning literals.
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
//!
//! A second tape covers exactly that reuse, at quarantine 0: objects
//! freed and reallocated at the same address, blocks recycled raw
//! through `heap_free`/`heap_malloc` (whose stale record must read as
//! untracked), and copies onto live same-class destinations. Since
//! reuse makes outcomes path-dependent, each path pins its own digest
//! of outcomes and `object_meta` views (state, generation, plan hash)
//! next to its [`RuntimeStats`] literal.
//!
//! A third, short tape frees nothing and copies only live objects onto
//! live objects of the same class, through all four paths: every handle
//! copy runs without the shard lock, so its literals pin
//! `lockfree_copies == memcpys` with no fallback.

use std::sync::Arc;

use polar_classinfo::{ClassDecl, ClassHash, ClassInfo, FieldKind};
use polar_rng::{Rng, RngExt, SplitMix64};
use polar_runtime::{
    Addr, MagazinePolicy, ObjectRuntime, ObjectState, PolarRuntime, RandomizeMode,
    RuntimeConfig, RuntimeError, RuntimeStats, ShardHandle, ShardedRuntime, SiteCache,
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
    lockfree_writes: 0,
    lockfree_copies: 0,
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
    lockfree_reads: 298,
    lockfree_writes: 126,
    lockfree_copies: 0,
    lockfree_fallbacks: 29,
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
    lockfree_reads: 298,
    lockfree_writes: 126,
    lockfree_copies: 0,
    lockfree_fallbacks: 29,
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
    lockfree_reads: 298,
    lockfree_writes: 126,
    lockfree_copies: 0,
    lockfree_fallbacks: 29,
    magazine_hits: 99,
    magazine_refills: 5,
    magazine_returns: 56,
    fast_frees: 34,
    remote_drained: 34,
};

// ----- the reuse tape -----

const REUSE_SEED: u64 = 0x0005_EC0D;
const REUSE_LEN: usize = 500;

/// One reuse-tape op; indices are reduced at execution time as above.
#[derive(Debug, Clone, Copy)]
enum ReuseOp {
    Malloc { pooled: bool },
    /// `olr_free` followed at once by an allocation of the same class,
    /// which at quarantine 0 lands on the freed block.
    FreeRealloc { obj: usize },
    Free { obj: usize },
    /// `heap_free` of an object's block, then `heap_malloc` of the
    /// block's size: the raw buffer takes the block back.
    RawReuse { obj: usize },
    /// `olr_memcpy` from `src` onto a live object of the same class.
    CopyOnto { src: usize, dst: usize },
    Write { obj: usize, field: usize, value: u64 },
    Read { obj: usize, field: usize },
    GetptrIc { obj: usize, site: usize },
}

fn reuse_config(magazines: bool) -> RuntimeConfig {
    let mut config = config(magazines);
    config.heap.quarantine = 0;
    config
}

fn reuse_tape() -> Vec<ReuseOp> {
    let mut rng = SplitMix64::new(REUSE_SEED);
    let mut tape = Vec::with_capacity(REUSE_LEN);
    for i in 0..6 {
        tape.push(ReuseOp::Malloc { pooled: i % 2 == 1 });
    }
    while tape.len() < REUSE_LEN {
        let obj = rng.next_u64() as usize;
        let field = rng.random_range(0..16usize);
        let op = match rng.random_range(0..100u32) {
            0..=11 => ReuseOp::Malloc { pooled: rng.random_range(0..2u32) == 0 },
            12..=21 => ReuseOp::FreeRealloc { obj },
            22..=27 => ReuseOp::Free { obj },
            28..=35 => ReuseOp::RawReuse { obj },
            36..=45 => ReuseOp::CopyOnto { src: obj, dst: rng.next_u64() as usize },
            46..=65 => ReuseOp::Write { obj, field, value: rng.next_u64() & 0x7FFF_FFFF },
            66..=85 => ReuseOp::Read { obj, field },
            _ => ReuseOp::GetptrIc { obj, site: rng.random_range(0..SITES) },
        };
        tape.push(op);
    }
    tape
}

/// FNV-1a over 64-bit words: a digest that is stable across builds.
fn mix(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0100_0000_01b3);
    }
}

fn mix_outcome(digest: &mut u64, o: Outcome) {
    match o {
        Outcome::Skipped => mix(digest, 0),
        Outcome::Done => mix(digest, 1),
        Outcome::Value(v) => {
            mix(digest, 2);
            mix(digest, v);
        }
        Outcome::Err(class) => {
            mix(digest, 3);
            class.bytes().for_each(|b| mix(digest, u64::from(b)));
        }
    }
}

/// What `object_meta` says about `base`: state, generation and plan
/// hash, or `None` when the address is untracked.
type MetaView = Option<(ObjectState, u64, u64)>;

fn mix_meta(digest: &mut u64, view: MetaView) {
    match view {
        None => mix(digest, 0),
        Some((state, generation, plan)) => {
            mix(digest, 1 + u64::from(state == ObjectState::Freed));
            mix(digest, generation);
            mix(digest, plan);
        }
    }
}

/// Largest size class the live block at `base` spans, probed through
/// the trait's checked-access primitive (16 when the block is freed).
fn block_size<R: PolarRuntime>(rt: &R, base: Addr) -> usize {
    (4..=12)
        .rev()
        .map(|k| 1usize << k)
        .find(|&n| rt.heap_check_in_block(base, n).is_ok())
        .unwrap_or(16)
}

/// What one reuse-tape replay saw.
#[derive(Debug, Default)]
struct ReuseReport {
    digest: u64,
    /// Allocations that landed on the block an `olr_free` just released.
    realloc_hits: usize,
    /// Raw reallocations that took back the object's block.
    raw_hits: usize,
    /// Copies onto a live same-class destination that succeeded.
    copies_onto_live: usize,
}

/// Replay the reuse tape through the trait surface; `meta` reads the
/// path's `object_meta` view.
fn replay_reuse<R: PolarRuntime>(rt: &mut R, meta: impl Fn(&R, Addr) -> MetaView) -> ReuseReport {
    let classes = [small(), pooled()];
    let mut objects: Vec<(Addr, usize)> = Vec::new();
    let mut sites: Vec<SiteCache> = (0..SITES).map(|_| SiteCache::empty()).collect();
    let mut report = ReuseReport { digest: 0xcbf2_9ce4_8422_2325, ..ReuseReport::default() };
    for op in reuse_tape() {
        let n = objects.len().max(1);
        let d = &mut report.digest;
        match op {
            ReuseOp::Malloc { pooled } => {
                let class = usize::from(pooled);
                let got = rt.olr_malloc(&classes[class]);
                if let Ok(addr) = got {
                    objects.push((addr, class));
                    mix_meta(d, meta(rt, addr));
                }
                mix_outcome(d, outcome(got, |_| Outcome::Done));
            }
            ReuseOp::FreeRealloc { obj } | ReuseOp::Free { obj } if !objects.is_empty() => {
                let (base, class) = objects[obj % n];
                mix_outcome(d, outcome(rt.olr_free(base), |()| Outcome::Done));
                mix_meta(d, meta(rt, base));
                if let ReuseOp::FreeRealloc { .. } = op {
                    let got = rt.olr_malloc(&classes[class]);
                    if let Ok(addr) = got {
                        report.realloc_hits += usize::from(addr == base);
                        objects.push((addr, class));
                        mix_meta(d, meta(rt, addr));
                    }
                    mix_outcome(d, outcome(got, |_| Outcome::Done));
                }
            }
            ReuseOp::RawReuse { obj } if !objects.is_empty() => {
                let (base, _) = objects[obj % n];
                let size = block_size(rt, base);
                let freed = rt.heap_free(base);
                mix(d, u64::from(freed.is_ok()));
                let raw = rt.heap_malloc(size).expect("raw buffer");
                if freed.is_ok() && raw == base {
                    report.raw_hits += 1;
                    let stale = meta(rt, raw);
                    assert_eq!(stale, None, "a raw-recycled block's record must read as untracked");
                }
                mix_meta(d, meta(rt, raw));
                let mut ic = SiteCache::empty();
                let hash = classes[0].hash();
                let access = rt.olr_getptr_ic(base, hash, 1, &mut ic);
                mix_outcome(d, outcome(access, |_| Outcome::Done));
            }
            ReuseOp::CopyOnto { src, dst } if !objects.is_empty() => {
                let (src, class) = objects[src % n];
                let same: Vec<Addr> = objects
                    .iter()
                    .filter(|&&(a, c)| c == class && a != src)
                    .map(|&(a, _)| a)
                    .collect();
                if let Some(&dst) = same.get(dst % same.len().max(1)) {
                    let was_live = matches!(meta(rt, dst), Some((ObjectState::Live, _, _)));
                    let copied = rt.olr_memcpy(dst, src, &classes[class]);
                    report.copies_onto_live += usize::from(was_live && copied.is_ok());
                    mix_outcome(d, outcome(copied, |()| Outcome::Done));
                    mix_meta(d, meta(rt, dst));
                } else {
                    mix_outcome(d, Outcome::Skipped);
                }
            }
            ReuseOp::Write { obj, field, value } if !objects.is_empty() => {
                let (base, class) = objects[obj % n];
                let info = &classes[class];
                let nf = info.field_count();
                let wrote = rt.write_field(base, info.hash(), field % nf, value);
                mix_outcome(d, outcome(wrote, |()| Outcome::Done));
            }
            ReuseOp::Read { obj, field } if !objects.is_empty() => {
                let (base, class) = objects[obj % n];
                let info = &classes[class];
                let nf = info.field_count();
                let read = rt.read_field(base, info.hash(), field % nf);
                mix_outcome(d, outcome(read, Outcome::Value));
            }
            ReuseOp::GetptrIc { obj, site } if !objects.is_empty() => {
                let (base, class) = objects[obj % n];
                let info = &classes[class];
                let ic = &mut sites[site];
                let access = rt.olr_getptr_ic(base, info.hash(), site + 1, ic);
                mix_outcome(d, outcome(access, |_| Outcome::Done));
            }
            _ => mix_outcome(d, Outcome::Skipped),
        }
    }
    report
}

fn reuse_object_runtime() -> (ReuseReport, RuntimeStats) {
    let mut rt = ObjectRuntime::new(mode(), reuse_config(true));
    let report = replay_reuse(&mut rt, |rt, a| {
        rt.object_meta(a).map(|m| (m.state, m.generation, m.plan.plan_hash().0))
    });
    (report, PolarRuntime::stats(&rt))
}

fn reuse_handle(magazines: bool) -> (ReuseReport, RuntimeStats) {
    let rt = ShardedRuntime::new(mode(), reuse_config(magazines), 1);
    let report = {
        let mut h = rt.handle(0);
        // The view after the owner has drained every claim: a stranded
        // record (a claimed object whose block was already released
        // raw) reads live only once its claim is drained.
        replay_reuse(&mut h, |h, a| {
            h.runtime().quiesce();
            h.runtime().object_meta(a).map(|m| (m.state, m.generation, m.plan.plan_hash().0))
        })
    };
    (report, rt.stats())
}

#[test]
fn reuse_tape_covers_every_reuse_kind() {
    let (report, _) = reuse_object_runtime();
    assert!(report.realloc_hits > 0, "{report:?}");
    assert!(report.raw_hits > 0, "{report:?}");
    assert!(report.copies_onto_live > 0, "{report:?}");
    for magazines in [true, false] {
        let (report, _) = reuse_handle(magazines);
        assert!(report.raw_hits > 0 && report.copies_onto_live > 0, "{report:?}");
    }
}

#[test]
fn golden_reuse_object_runtime() {
    let (report, stats) = reuse_object_runtime();
    assert_eq!(report.digest, REUSE_DIGEST_OBJECT_RUNTIME);
    assert_eq!(stats, GOLDEN_REUSE_OBJECT_RUNTIME);
}

#[test]
fn golden_reuse_handle_with_magazines() {
    let (report, stats) = reuse_handle(true);
    assert_eq!(report.digest, REUSE_DIGEST_HANDLE_MAGAZINES);
    assert_eq!(stats, GOLDEN_REUSE_HANDLE_MAGAZINES);
}

#[test]
fn golden_reuse_handle_without_magazines() {
    let (report, stats) = reuse_handle(false);
    assert_eq!(report.digest, REUSE_DIGEST_HANDLE_MUTEX);
    assert_eq!(stats, GOLDEN_REUSE_HANDLE_MUTEX);
}

#[test]
#[ignore = "prints the reuse-tape literals for re-recording"]
fn print_golden_reuse() {
    for (name, (report, stats)) in [
        ("OBJECT_RUNTIME", reuse_object_runtime()),
        ("HANDLE_MAGAZINES", reuse_handle(true)),
        ("HANDLE_MUTEX", reuse_handle(false)),
    ] {
        println!("{name} {:#x} {report:?}\n{stats:?}", report.digest);
    }
}

const REUSE_DIGEST_OBJECT_RUNTIME: u64 = 0x4158bfbd9affcb64;
const REUSE_DIGEST_HANDLE_MAGAZINES: u64 = 0xfd5c1ecaf6d13d03;
const REUSE_DIGEST_HANDLE_MUTEX: u64 = 0x31c325f895deb8b7;

const GOLDEN_REUSE_OBJECT_RUNTIME: RuntimeStats = RuntimeStats {
    allocations: 106,
    frees: 53,
    memcpys: 48,
    member_accesses: 320,
    cache_hits: 126,
    uaf_detected: 13,
    mismatch_detected: 41,
    traps_triggered: 0,
    trap_scans: 54,
    dummy_touches: 0,
    double_free_detected: 4,
    unique_plans: 119,
    dedup_saved: 21,
    shadow_hits: 230,
    shadow_misses: 90,
    site_ic_hits: 3,
    site_ic_misses: 98,
    stateless_allocs: 68,
    probe_traps: 0,
    pool_hits: 52,
    pool_refills: 6,
    lockfree_reads: 0,
    lockfree_writes: 0,
    lockfree_copies: 0,
    lockfree_fallbacks: 0,
    magazine_hits: 0,
    magazine_refills: 0,
    magazine_returns: 0,
    fast_frees: 0,
    remote_drained: 0,
};

const GOLDEN_REUSE_HANDLE_MAGAZINES: RuntimeStats = RuntimeStats {
    allocations: 106,
    frees: 45,
    memcpys: 48,
    member_accesses: 320,
    cache_hits: 103,
    uaf_detected: 73,
    mismatch_detected: 13,
    traps_triggered: 0,
    trap_scans: 46,
    dummy_touches: 0,
    double_free_detected: 16,
    unique_plans: 163,
    dedup_saved: 39,
    shadow_hits: 260,
    shadow_misses: 60,
    site_ic_hits: 1,
    site_ic_misses: 100,
    stateless_allocs: 68,
    probe_traps: 0,
    pool_hits: 71,
    pool_refills: 9,
    lockfree_reads: 213,
    lockfree_writes: 107,
    lockfree_copies: 18,
    lockfree_fallbacks: 30,
    magazine_hits: 101,
    magazine_refills: 5,
    magazine_returns: 54,
    fast_frees: 45,
    remote_drained: 45,
};

const GOLDEN_REUSE_HANDLE_MUTEX: RuntimeStats = RuntimeStats {
    allocations: 106,
    frees: 53,
    memcpys: 48,
    member_accesses: 320,
    cache_hits: 126,
    uaf_detected: 13,
    mismatch_detected: 41,
    traps_triggered: 0,
    trap_scans: 54,
    dummy_touches: 0,
    double_free_detected: 4,
    unique_plans: 152,
    dedup_saved: 20,
    shadow_hits: 230,
    shadow_misses: 90,
    site_ic_hits: 3,
    site_ic_misses: 98,
    stateless_allocs: 68,
    probe_traps: 0,
    pool_hits: 50,
    pool_refills: 8,
    lockfree_reads: 213,
    lockfree_writes: 107,
    lockfree_copies: 22,
    lockfree_fallbacks: 26,
    magazine_hits: 0,
    magazine_refills: 0,
    magazine_returns: 0,
    fast_frees: 0,
    remote_drained: 0,
};

// ----- the copy tape -----

const COPY_SEED: u64 = 0x00C0_9E5E;
const COPY_LEN: usize = 240;

/// One copy-tape op; indices are reduced at execution time as above.
#[derive(Debug, Clone, Copy)]
enum CopyOp {
    Malloc { pooled: bool },
    Write { obj: usize, field: usize, value: u64 },
    Read { obj: usize, field: usize },
    /// `olr_memcpy` from `src` onto another live object of its class.
    CopyLive { src: usize, dst: usize },
}

/// A tape with no frees, whose copies all go from a live object onto a
/// live object of the same class: the copy a handle makes without the
/// shard lock. The mixed tape copies onto raw buffers and the reuse
/// tape onto objects that may be freed, so neither pins that path
/// alone.
fn copy_tape() -> Vec<CopyOp> {
    let mut rng = SplitMix64::new(COPY_SEED);
    let mut tape = Vec::with_capacity(COPY_LEN);
    for i in 0..8 {
        tape.push(CopyOp::Malloc { pooled: i % 2 == 1 });
    }
    while tape.len() < COPY_LEN {
        let obj = rng.next_u64() as usize;
        let field = rng.random_range(0..16usize);
        let op = match rng.random_range(0..100u32) {
            0..=9 => CopyOp::Malloc { pooled: rng.random_range(0..2u32) == 0 },
            10..=39 => CopyOp::Write { obj, field, value: rng.next_u64() & 0x7FFF_FFFF },
            40..=69 => CopyOp::Read { obj, field },
            _ => CopyOp::CopyLive { src: obj, dst: rng.next_u64() as usize },
        };
        tape.push(op);
    }
    tape
}

/// Replay the copy tape on `s`, returning one outcome per op.
fn replay_copies<S: Surface>(s: &mut S) -> Vec<Outcome> {
    let classes = [small(), pooled()];
    let mut objects: Vec<(Addr, usize)> = Vec::new();
    let mut nth = 0usize;
    let mut out = Vec::with_capacity(COPY_LEN);
    for op in copy_tape() {
        let n = objects.len().max(1);
        let result = match op {
            CopyOp::Malloc { pooled } => {
                let class = usize::from(pooled);
                nth += 1;
                outcome(s.malloc(&classes[class], nth), |addr| {
                    objects.push((addr, class));
                    Outcome::Done
                })
            }
            CopyOp::Write { obj, field, value } => {
                let (base, class) = objects[obj % n];
                let info = &classes[class];
                outcome(s.write(base, info.hash(), field % info.field_count(), value), |()| {
                    Outcome::Done
                })
            }
            CopyOp::Read { obj, field } => {
                let (base, class) = objects[obj % n];
                let info = &classes[class];
                outcome(s.read(base, info.hash(), field % info.field_count()), Outcome::Value)
            }
            CopyOp::CopyLive { src, dst } => {
                let (src, class) = objects[src % n];
                let same: Vec<Addr> = objects
                    .iter()
                    .filter(|&&(a, c)| c == class && a != src)
                    .map(|&(a, _)| a)
                    .collect();
                match same.get(dst % same.len().max(1)) {
                    Some(&dst) => outcome(s.memcpy(dst, src, &classes[class]), |()| Outcome::Done),
                    None => Outcome::Skipped,
                }
            }
        };
        out.push(result);
    }
    out
}

fn copy_reference() -> (Vec<Outcome>, RuntimeStats) {
    let mut rt = ObjectRuntime::new(mode(), config(true));
    let out = replay_copies(&mut rt);
    (out, rt.stats())
}

fn copy_handle(magazines: bool) -> (Vec<Outcome>, RuntimeStats) {
    let rt = ShardedRuntime::new(mode(), config(magazines), 1);
    let out = replay_copies(&mut rt.handle(0));
    (out, rt.stats())
}

fn copy_two_handles() -> (Vec<Outcome>, RuntimeStats) {
    let rt = ShardedRuntime::new(mode(), config(true), 2);
    let out = replay_copies(&mut Pair([rt.handle(0), rt.handle(1)]));
    (out, rt.stats())
}

/// Every op's outcome on a handle path agrees with the plain runtime's,
/// and every copy on it ran without the shard lock.
fn assert_copies_agree(path: &str, (got, stats): &(Vec<Outcome>, RuntimeStats)) {
    let (want, _) = copy_reference();
    let tape = copy_tape();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{path}: op {i} ({:?}) disagrees with the plain runtime", tape[i]);
    }
    assert_eq!(stats.lockfree_copies, stats.memcpys, "{path}: {stats:?}");
    assert_eq!(stats.lockfree_fallbacks, 0, "{path}: {stats:?}");
}

#[test]
fn copy_tape_copies_live_objects_onto_live_objects() {
    let (out, stats) = copy_reference();
    let copies = copy_tape().iter().filter(|op| matches!(op, CopyOp::CopyLive { .. })).count();
    assert!(copies > 50, "{copies} copies");
    assert_eq!(stats.memcpys as usize, copies, "every copy finds a live destination");
    assert_eq!(stats.frees, 0);
    assert!(out.iter().all(|o| !matches!(o, Outcome::Err(_) | Outcome::Skipped)), "{out:?}");
    assert!(out.iter().any(|o| matches!(o, Outcome::Value(v) if *v != 0)));
}

#[test]
fn golden_copies_object_runtime() {
    assert_eq!(copy_reference().1, GOLDEN_COPY_OBJECT_RUNTIME);
}

#[test]
fn golden_copies_handle_with_magazines() {
    let run = copy_handle(true);
    assert_copies_agree("handle/magazines", &run);
    assert_eq!(run.1, GOLDEN_COPY_HANDLE_MAGAZINES);
}

#[test]
fn golden_copies_handle_without_magazines() {
    let run = copy_handle(false);
    assert_copies_agree("handle/mutex", &run);
    assert_eq!(run.1, GOLDEN_COPY_HANDLE_MUTEX);
}

#[test]
fn golden_copies_two_handles_two_shards() {
    let run = copy_two_handles();
    assert_copies_agree("two-handles/2", &run);
    assert_eq!(run.1, GOLDEN_COPY_TWO_HANDLES);
}

#[test]
#[ignore = "prints the copy-tape literals for re-recording"]
fn print_golden_copies() {
    println!("COPY_OBJECT_RUNTIME {:?}", copy_reference().1);
    println!("COPY_HANDLE_MAGAZINES {:?}", copy_handle(true).1);
    println!("COPY_HANDLE_MUTEX {:?}", copy_handle(false).1);
    println!("COPY_TWO_HANDLES {:?}", copy_two_handles().1);
}


const GOLDEN_COPY_OBJECT_RUNTIME: RuntimeStats = RuntimeStats {
    allocations: 33,
    frees: 0,
    memcpys: 75,
    member_accesses: 132,
    cache_hits: 75,
    uaf_detected: 0,
    mismatch_detected: 0,
    traps_triggered: 0,
    trap_scans: 0,
    dummy_touches: 0,
    double_free_detected: 0,
    unique_plans: 50,
    dedup_saved: 1,
    shadow_hits: 132,
    shadow_misses: 0,
    site_ic_hits: 0,
    site_ic_misses: 0,
    stateless_allocs: 19,
    probe_traps: 0,
    pool_hits: 12,
    pool_refills: 2,
    lockfree_reads: 0,
    lockfree_writes: 0,
    lockfree_copies: 0,
    lockfree_fallbacks: 0,
    magazine_hits: 0,
    magazine_refills: 0,
    magazine_returns: 0,
    fast_frees: 0,
    remote_drained: 0,
};

const GOLDEN_COPY_HANDLE_MAGAZINES: RuntimeStats = RuntimeStats {
    allocations: 33,
    frees: 0,
    memcpys: 75,
    member_accesses: 132,
    cache_hits: 75,
    uaf_detected: 0,
    mismatch_detected: 0,
    traps_triggered: 0,
    trap_scans: 0,
    dummy_touches: 0,
    double_free_detected: 0,
    unique_plans: 62,
    dedup_saved: 3,
    shadow_hits: 132,
    shadow_misses: 0,
    site_ic_hits: 0,
    site_ic_misses: 0,
    stateless_allocs: 19,
    probe_traps: 0,
    pool_hits: 29,
    pool_refills: 3,
    lockfree_reads: 64,
    lockfree_writes: 68,
    lockfree_copies: 75,
    lockfree_fallbacks: 0,
    magazine_hits: 31,
    magazine_refills: 2,
    magazine_returns: 31,
    fast_frees: 0,
    remote_drained: 0,
};

const GOLDEN_COPY_HANDLE_MUTEX: RuntimeStats = RuntimeStats {
    allocations: 33,
    frees: 0,
    memcpys: 75,
    member_accesses: 132,
    cache_hits: 75,
    uaf_detected: 0,
    mismatch_detected: 0,
    traps_triggered: 0,
    trap_scans: 0,
    dummy_touches: 0,
    double_free_detected: 0,
    unique_plans: 51,
    dedup_saved: 0,
    shadow_hits: 132,
    shadow_misses: 0,
    site_ic_hits: 0,
    site_ic_misses: 0,
    stateless_allocs: 19,
    probe_traps: 0,
    pool_hits: 12,
    pool_refills: 2,
    lockfree_reads: 64,
    lockfree_writes: 68,
    lockfree_copies: 75,
    lockfree_fallbacks: 0,
    magazine_hits: 0,
    magazine_refills: 0,
    magazine_returns: 0,
    fast_frees: 0,
    remote_drained: 0,
};

const GOLDEN_COPY_TWO_HANDLES: RuntimeStats = RuntimeStats {
    allocations: 33,
    frees: 0,
    memcpys: 75,
    member_accesses: 132,
    cache_hits: 75,
    uaf_detected: 0,
    mismatch_detected: 0,
    traps_triggered: 0,
    trap_scans: 0,
    dummy_touches: 0,
    double_free_detected: 0,
    unique_plans: 122,
    dedup_saved: 8,
    shadow_hits: 132,
    shadow_misses: 0,
    site_ic_hits: 0,
    site_ic_misses: 0,
    stateless_allocs: 19,
    probe_traps: 0,
    pool_hits: 58,
    pool_refills: 6,
    lockfree_reads: 64,
    lockfree_writes: 68,
    lockfree_copies: 75,
    lockfree_fallbacks: 0,
    magazine_hits: 29,
    magazine_refills: 4,
    magazine_returns: 95,
    fast_frees: 0,
    remote_drained: 0,
};
