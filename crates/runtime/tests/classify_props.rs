//! Differential detection property: one generated op tape, replayed
//! through every runtime surface, is classified identically everywhere.
//!
//! The surfaces are:
//!
//! * a plain [`ObjectRuntime`] (the reference);
//! * a [`ShardHandle`] on a one-shard runtime with magazines on, whose
//!   reads and frees run without the shard lock;
//! * the same handle with magazines off;
//! * two handles on a two-shard runtime, allocations alternating
//!   between them, so accesses and frees cross shards.
//!
//! Each case also draws the runtime configuration: the layout source
//! (derived with and without traps, pooled, fresh), whether detections
//! are armed, and whether placement randomization is on. Every surface
//! runs the same configuration.
//!
//! Every detection op has a read and a write twin (use after free,
//! class mismatch, out-of-range field), so a handle's lock-free write
//! classification is compared with the plain runtime's on every tape,
//! as its reads are. Copies (live onto live of the same class, in
//! place, from a freed source, onto another class, onto a raw buffer)
//! and trap sweeps (clean and after a corrupted canary) compare the
//! handle's lock-free copy and sweep, and their mutex fallbacks, the
//! same way.
//!
//! Each replay checks every op against a liveness-and-value model (use
//! after free before class mismatch, out-of-range fields, interior
//! pointers, corrupted canaries; with detections off, dangling and
//! confused reads return the object's values and corrupted canaries go
//! unnoticed), so a defect shared by every surface fails too. Across
//! surfaces, every op must return the same value or error class, and
//! the detection counters must agree at the end.
//!
//! One op is path-dependent by design: freeing an object whose block
//! the program already released raw. Under the shard lock the heap sees
//! the raw release and the free fails with a heap error; a lock-free
//! claim cannot see it, succeeds, and the record is stranded when the
//! owner drains the claim. The tape records both as "released" and
//! drops the object. On a surface that stranded it, the property then
//! drains the claim (`quiesce`) and checks that the stranded record
//! still classifies as live, through the lock-free read and the
//! metadata view alike, and takes that extra access out of the counter
//! comparison.
//!
//! The fresh-case budget comes from `POLAR_CHECK_CASES` (96 by default);
//! `scripts/check.sh` runs it at a larger one in release mode.

use std::sync::Arc;

use polar_check::{any, one_of, vec as vec_of, Config, StrategyExt};
use polar_classinfo::{ClassDecl, ClassHash, ClassInfo, FieldKind};
use polar_runtime::{
    Addr, LayoutSource, MagazinePolicy, ObjectMeta, ObjectRuntime, ObjectState, PolarRuntime,
    RandomizeMode, RuntimeConfig, RuntimeError, RuntimeStats, ShardHandle, ShardedRuntime,
    SiteCache,
};
use polar_simheap::{PlacementPolicy, SnapshotOutcome, PUB_STATE_STRANDED};

const SITES: usize = 4;

/// Every layout source a case may draw.
const LAYOUTS: [LayoutSource; 4] = [
    LayoutSource::Derived,
    LayoutSource::DerivedUntrapped,
    LayoutSource::Pooled,
    LayoutSource::Fresh,
];

/// One tape op. Object indices are reduced modulo the live objects (or,
/// when none is live, every object) at execution time, so every
/// generated tape stays executable while the shrinker deletes ops.
#[derive(Debug, Clone, Copy)]
enum Op {
    Malloc {
        pooled: bool,
    },
    Free {
        obj: usize,
    },
    DoubleFree {
        obj: usize,
    },
    Getptr {
        obj: usize,
        field: usize,
        interior: bool,
    },
    /// Like a real call site, site `s` always names field `s + 1`.
    GetptrIc {
        obj: usize,
        site: usize,
        interior: bool,
    },
    Read {
        obj: usize,
        field: usize,
    },
    Write {
        obj: usize,
        field: usize,
        value: u64,
    },
    /// Read through the other class's hash.
    MismatchRead {
        obj: usize,
        field: usize,
    },
    /// Free, then read.
    UafRead {
        obj: usize,
        field: usize,
    },
    /// Write through the other class's hash.
    MismatchWrite {
        obj: usize,
        field: usize,
        value: u64,
    },
    /// Free, then write.
    UafWrite {
        obj: usize,
        field: usize,
        value: u64,
    },
    /// Read field `field_count + past`.
    OutOfRange {
        obj: usize,
        past: usize,
    },
    /// Write field `field_count + past`.
    OutOfRangeWrite {
        obj: usize,
        past: usize,
        value: u64,
    },
    /// `heap_free` of the object's block, then `olr_free`.
    RawFreeThenFree {
        obj: usize,
    },
    /// Flip a canary byte with a raw write, then `olr_free`.
    CorruptThenFree {
        obj: usize,
    },
    /// `olr_memcpy` of the object onto another live object of its class.
    Memcpy {
        obj: usize,
        dst: usize,
    },
    /// `olr_memcpy` of the object onto itself.
    InPlaceMemcpy {
        obj: usize,
    },
    /// Free the object, then copy it onto another live object of its
    /// class.
    MemcpyFromFreed {
        obj: usize,
        dst: usize,
    },
    /// Copy a live small object onto a live wide one, which turns small.
    MemcpyOntoOtherClass {
        obj: usize,
        dst: usize,
    },
    /// Copy the object onto a fresh raw buffer, which becomes a tape
    /// object of its class.
    MemcpyOntoRaw {
        obj: usize,
    },
    /// Sweep the object's canaries.
    CheckTraps {
        obj: usize,
    },
    /// Flip a canary byte with a raw write, then sweep.
    CorruptThenCheckTraps {
        obj: usize,
    },
}

/// What one op returned, with addresses abstracted away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Skipped,
    Done,
    Value(u64),
    /// The free of a raw-released object (see the module docs).
    Released,
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

fn outcome<T>(result: Result<T, RuntimeError>, ok: impl FnOnce(T) -> Outcome) -> Outcome {
    result.map_or_else(|err| Outcome::Err(err_class(&err)), ok)
}

/// A 5-field class: takes the stateless small-class path under a
/// derived layout source.
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

/// A 12-field class: its plans come from the plan pools, or fresh.
fn pooled() -> Arc<ClassInfo> {
    let mut decl = ClassDecl::builder("Wide").field("vtable", FieldKind::VtablePtr);
    for i in 0..11 {
        let kind = if i % 2 == 0 { FieldKind::I64 } else { FieldKind::I32 };
        decl = decl.field(format!("f{i}"), kind);
    }
    Arc::new(ClassInfo::from_decl(decl.build()))
}

/// A quarantine longer than any tape: no freed block is re-armed, so a
/// dangling access means the same thing on every surface.
fn config(layout: LayoutSource, detect: bool, placement: bool) -> RuntimeConfig {
    let mut config = RuntimeConfig::default();
    config.heap.capacity = 4 << 20;
    config.heap.quarantine = 1 << 20;
    config.seed = 0xC1A5_51F7;
    config.layout = layout;
    config.detect = detect;
    if placement {
        config.heap.placement = PlacementPolicy::on(0x91AC_E5EE);
    }
    config
}

/// One runtime surface. Allocation `nth` goes through `ctx(nth)`, every
/// other op through `ctx(0)`.
trait Surface {
    fn ctx(&mut self, nth: usize) -> &mut dyn PolarRuntime;
    /// `olr_getptr` (the trait carries only the inline-cached form).
    fn getptr(&mut self, base: Addr, class: ClassHash, field: usize) -> Result<Addr, RuntimeError>;
    fn meta(&self, base: Addr) -> Option<ObjectMeta>;
    /// Accesses made to check a stranded record (0 when `base` is not
    /// stranded).
    fn check_stranded(&mut self, base: Addr, class: ClassHash) -> Result<u64, String>;
    /// Final counters, every pending count included.
    fn stats(&mut self) -> RuntimeStats;
}

impl Surface for ObjectRuntime {
    fn ctx(&mut self, _: usize) -> &mut dyn PolarRuntime {
        self
    }
    fn getptr(&mut self, base: Addr, class: ClassHash, field: usize) -> Result<Addr, RuntimeError> {
        self.olr_getptr(base, class, field)
    }
    fn meta(&self, base: Addr) -> Option<ObjectMeta> {
        self.object_meta(base)
    }
    fn check_stranded(&mut self, _: Addr, _: ClassHash) -> Result<u64, String> {
        Ok(0)
    }
    fn stats(&mut self) -> RuntimeStats {
        ObjectRuntime::stats(self)
    }
}

struct Handles<'rt> {
    rt: &'rt ShardedRuntime,
    hs: Vec<ShardHandle<'rt>>,
}

impl Surface for Handles<'_> {
    fn ctx(&mut self, nth: usize) -> &mut dyn PolarRuntime {
        let i = nth % self.hs.len();
        &mut self.hs[i]
    }
    fn getptr(&mut self, base: Addr, class: ClassHash, field: usize) -> Result<Addr, RuntimeError> {
        self.hs[0].olr_getptr(base, class, field)
    }
    fn meta(&self, base: Addr) -> Option<ObjectMeta> {
        self.rt.object_meta(base)
    }
    fn check_stranded(&mut self, base: Addr, class: ClassHash) -> Result<u64, String> {
        // Draining the claim strands it.
        self.rt.quiesce();
        let meta = self.rt.object_meta(base).ok_or("a released object lost its record")?;
        match self.rt.publish_probe(base) {
            Some(SnapshotOutcome::Snap(s)) if s.state == PUB_STATE_STRANDED => {}
            _ => return Ok(0),
        }
        if meta.state != ObjectState::Live {
            return Err(format!("the locked view reads a stranded record as {:?}", meta.state));
        }
        let before = self.hs[0].stats();
        self.hs[0]
            .olr_getptr(base, class, 0)
            .map_err(|e| format!("a stranded record must classify as live, got {e}"))?;
        let after = self.hs[0].stats();
        let moved = (
            after.member_accesses - before.member_accesses,
            after.shadow_hits - before.shadow_hits,
            after.total_detections() - before.total_detections(),
        );
        if moved != (1, 1, 0) {
            return Err(format!("a stranded read moved (accesses, hits, detections) by {moved:?}"));
        }
        Ok(1)
    }
    fn stats(&mut self) -> RuntimeStats {
        self.hs.iter_mut().for_each(ShardHandle::flush_stats);
        self.rt.stats()
    }
}

/// The model's view of one tape object.
struct Obj {
    base: Addr,
    class: usize,
    freed: bool,
    raw_freed: bool,
    corrupt: bool,
    vals: Vec<u64>,
}

impl Obj {
    /// Neither freed nor released raw.
    fn is_live(&self) -> bool {
        !self.freed && !self.raw_freed
    }
}

/// The error a member access must raise, or `None` when it resolves.
/// With detections off a dangling or confused access resolves through
/// the object's own plan.
fn expected_access(
    o: &Obj,
    class_ok: bool,
    field_ok: bool,
    interior: bool,
    detect: bool,
) -> Option<&'static str> {
    if interior {
        Some("UnknownObject")
    } else if o.freed && detect {
        // Use after free is reported before a class mismatch.
        Some("UseAfterFree")
    } else if !class_ok && detect {
        Some("ClassMismatch")
    } else if !field_ok {
        Some("FieldOutOfBounds")
    } else {
        None
    }
}

fn expected_free(o: &Obj, detect: bool) -> Outcome {
    if o.freed {
        Outcome::Err("DoubleFree")
    } else if o.corrupt && detect {
        Outcome::Err("TrapTriggered")
    } else {
        Outcome::Done
    }
}

fn check(op: &Op, got: Outcome, want: Outcome) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{op:?}: got {got:?}, the model expects {want:?}"))
    }
}

/// The detection counters every surface must agree on, less the
/// accesses `check_stranded` added.
fn detections(s: &RuntimeStats, extra: u64) -> [u64; 8] {
    [
        s.uaf_detected,
        s.mismatch_detected,
        s.double_free_detected,
        s.traps_triggered,
        s.trap_scans,
        s.shadow_hits - extra,
        s.shadow_misses,
        s.member_accesses - extra,
    ]
}

/// Flip the low byte of the first canary of the object's plan with a
/// raw write (the inverted byte: corrupt however often it is applied).
/// Derived untrapped plans of the small class carry no canary, and the
/// op changes nothing there; every other plan carries one.
fn corrupt(s: &mut dyn Surface, config: &RuntimeConfig, o: &mut Obj) -> Result<(), String> {
    let meta = s.meta(o.base).ok_or("a tape object lost its record")?;
    let trap = meta.plan.dummies().iter().find_map(|d| Some((d.offset, d.canary?)));
    let untrapped = config.layout == LayoutSource::DerivedUntrapped && o.class == 0;
    match trap {
        Some((offset, canary)) => {
            let at = o.base.offset(u64::from(offset));
            s.ctx(0).heap_write_uint(at, !canary & 0xFF, 1).map_err(|e| e.to_string())?;
            o.corrupt = true;
        }
        None if untrapped => {}
        None => return Err("a trapped plan lacks a canaried dummy".into()),
    }
    Ok(())
}

/// The steps of a copy op on source `i`, or `None` for any other op. A
/// copy from a live source lands: the destination takes the source's
/// class and values, and its canaries are re-seeded. A copy from a
/// freed source is a use after free, or, with detections off, lands
/// with the values the freed object kept. An op without a source or
/// destination to land on is skipped.
fn copy_op(
    s: &mut dyn Surface,
    op: &Op,
    objs: &mut Vec<Obj>,
    i: usize,
    classes: &[Arc<ClassInfo>; 2],
    detect: bool,
) -> Result<Option<Vec<(Outcome, Outcome)>>, String> {
    let live_of = |objs: &[Obj], class: usize, not: usize| -> Vec<usize> {
        (0..objs.len()).filter(|&j| j != not && objs[j].is_live() && objs[j].class == class).collect()
    };
    let (src, dst) = match *op {
        Op::Memcpy { dst, .. } | Op::MemcpyFromFreed { dst, .. } => {
            let same = live_of(objs, objs[i].class, i);
            match same.get(dst % same.len().max(1)) {
                Some(&j) => (i, Some(j)),
                None => return Ok(Some(vec![(Outcome::Skipped, Outcome::Skipped)])),
            }
        }
        Op::InPlaceMemcpy { .. } => (i, Some(i)),
        Op::MemcpyOntoOtherClass { obj, dst } => {
            let (small, wide) = (live_of(objs, 0, usize::MAX), live_of(objs, 1, usize::MAX));
            match (small.get(obj % small.len().max(1)), wide.get(dst % wide.len().max(1))) {
                (Some(&a), Some(&b)) => (a, Some(b)),
                _ => return Ok(Some(vec![(Outcome::Skipped, Outcome::Skipped)])),
            }
        }
        Op::MemcpyOntoRaw { .. } => (i, None),
        _ => return Ok(None),
    };
    if !objs[src].is_live() {
        return Ok(Some(vec![(Outcome::Skipped, Outcome::Skipped)]));
    }
    let info = &classes[objs[src].class];
    let mut steps = Vec::new();
    if let Op::MemcpyFromFreed { .. } = op {
        let o = &mut objs[src];
        let got = outcome(s.ctx(0).olr_free(o.base), |()| Outcome::Done);
        let want = expected_free(o, detect);
        o.freed |= want == Outcome::Done;
        steps.push((got, want));
    }
    let to = match dst {
        Some(j) => objs[j].base,
        None => s.ctx(0).heap_malloc(info.size() as usize + 64).map_err(|e| e.to_string())?,
    };
    let got = outcome(s.ctx(0).olr_memcpy(to, objs[src].base, info), |()| Outcome::Done);
    let lands = !(objs[src].freed && detect);
    steps.push((got, if lands { Outcome::Done } else { Outcome::Err("UseAfterFree") }));
    if lands {
        let (class, vals) = (objs[src].class, objs[src].vals.clone());
        let copy = Obj { base: to, class, freed: false, raw_freed: false, corrupt: false, vals };
        match dst {
            Some(j) => objs[j] = copy,
            None => objs.push(copy),
        }
    }
    Ok(Some(steps))
}

/// Replay `tape` on `s`, built from `config`, checking each op against
/// the model; returns the outcomes and the detection counters.
fn replay(
    s: &mut dyn Surface,
    config: &RuntimeConfig,
    tape: &[Op],
) -> Result<(Vec<Outcome>, [u64; 8]), String> {
    let detect = config.detect;
    let classes = [small(), pooled()];
    let mut objs: Vec<Obj> = Vec::new();
    let mut sites = [SiteCache::empty(); SITES];
    let mut out = Vec::with_capacity(tape.len());
    let mut extra = 0;
    for (nth, op) in tape.iter().enumerate() {
        if let Op::Malloc { pooled } = *op {
            let class = usize::from(pooled);
            let got = s.ctx(nth).olr_malloc(&classes[class]);
            if let Ok(base) = got {
                let vals = vec![0; classes[class].field_count()];
                objs.push(Obj {
                    base,
                    class,
                    freed: false,
                    raw_freed: false,
                    corrupt: false,
                    vals,
                });
            }
            out.push(outcome(got, |_| Outcome::Done));
            continue;
        }
        let obj = match *op {
            Op::Malloc { .. } => unreachable!(),
            Op::Free { obj }
            | Op::DoubleFree { obj }
            | Op::Getptr { obj, .. }
            | Op::GetptrIc { obj, .. }
            | Op::Read { obj, .. }
            | Op::Write { obj, .. }
            | Op::MismatchRead { obj, .. }
            | Op::MismatchWrite { obj, .. }
            | Op::UafRead { obj, .. }
            | Op::UafWrite { obj, .. }
            | Op::OutOfRange { obj, .. }
            | Op::OutOfRangeWrite { obj, .. }
            | Op::RawFreeThenFree { obj }
            | Op::CorruptThenFree { obj }
            | Op::Memcpy { obj, .. }
            | Op::InPlaceMemcpy { obj }
            | Op::MemcpyFromFreed { obj, .. }
            | Op::MemcpyOntoOtherClass { obj, .. }
            | Op::MemcpyOntoRaw { obj }
            | Op::CheckTraps { obj }
            | Op::CorruptThenCheckTraps { obj } => obj,
        };
        if objs.is_empty() {
            out.push(Outcome::Skipped);
            continue;
        }
        // An op lands on a live object whenever one exists: ops that
        // need a dangling object make it themselves (a use after free
        // frees first), so an object op on an already freed object
        // would only repeat the double-free and dangling paths.
        let live: Vec<usize> = (0..objs.len()).filter(|&i| objs[i].is_live()).collect();
        let i = if live.is_empty() { obj % objs.len() } else { live[obj % live.len()] };
        let (base, info) = (objs[i].base, &classes[objs[i].class]);
        let (hash, nf) = (info.hash(), info.field_count());
        let read = |s: &mut dyn Surface, o: &Obj, class: ClassHash, field: usize| {
            let got = outcome(s.ctx(0).read_field(base, class, field), Outcome::Value);
            let err = expected_access(o, class == hash, field < nf, false, detect);
            (got, err.map_or(Outcome::Value(o.vals.get(field).copied().unwrap_or(0)), Outcome::Err))
        };
        // A write the model expects to land updates the object's value,
        // freed or not (with detections off a dangling write lands).
        let write = |s: &mut dyn Surface, o: &mut Obj, class: ClassHash, field, value| {
            let got = outcome(s.ctx(0).write_field(base, class, field, value), |()| Outcome::Done);
            let want = expected_access(o, class == hash, field < nf, false, detect);
            if want.is_none() {
                o.vals[field] = value;
            }
            (got, want.map_or(Outcome::Done, Outcome::Err))
        };
        let free = |s: &mut dyn Surface, o: &mut Obj| {
            let got = outcome(s.ctx(0).olr_free(base), |()| Outcome::Done);
            let want = expected_free(o, detect);
            o.freed |= want == Outcome::Done;
            (got, want)
        };
        // A sweep reports the one canary a corruption flipped; it
        // sweeps regardless of the detection switch.
        let sweep = |s: &mut dyn Surface, o: &Obj| {
            let got = outcome(s.ctx(0).check_traps(base), |r| Outcome::Value(r.len() as u64));
            (got, Outcome::Value(u64::from(o.corrupt)))
        };
        if let Some(steps) = copy_op(s, op, &mut objs, i, &classes, detect)? {
            for (got, want) in steps {
                check(op, got, want)?;
                out.push(got);
            }
            continue;
        }
        let o = &mut objs[i];
        let steps: Vec<(Outcome, Outcome)> = match *op {
            Op::Malloc { .. }
            | Op::Memcpy { .. }
            | Op::InPlaceMemcpy { .. }
            | Op::MemcpyFromFreed { .. }
            | Op::MemcpyOntoOtherClass { .. }
            | Op::MemcpyOntoRaw { .. } => unreachable!(),
            Op::Free { .. } => vec![free(s, o)],
            Op::DoubleFree { .. } | Op::UafRead { .. } | Op::UafWrite { .. } => {
                let first = free(s, o);
                let second = match *op {
                    Op::UafRead { field, .. } => read(s, o, hash, field % nf),
                    Op::UafWrite { field, value, .. } => write(s, o, hash, field % nf, value),
                    _ => free(s, o),
                };
                vec![first, second]
            }
            Op::Getptr { field, interior, .. } => {
                let at = if interior { base.offset(8) } else { base };
                let got = outcome(s.getptr(at, hash, field % nf), |_| Outcome::Done);
                let want = expected_access(o, true, true, interior, detect);
                vec![(got, want.map_or(Outcome::Done, Outcome::Err))]
            }
            Op::GetptrIc { site, interior, .. } => {
                let at = if interior { base.offset(8) } else { base };
                let got = s.ctx(0).olr_getptr_ic(at, hash, site + 1, &mut sites[site]);
                let want = expected_access(o, true, true, interior, detect);
                vec![(outcome(got, |_| Outcome::Done), want.map_or(Outcome::Done, Outcome::Err))]
            }
            Op::Read { field, .. } => vec![read(s, o, hash, field % nf)],
            Op::Write { field, value, .. } => vec![write(s, o, hash, field % nf, value)],
            Op::MismatchRead { field, .. } => {
                let other = classes[1 - o.class].hash();
                vec![read(s, o, other, field % nf)]
            }
            Op::MismatchWrite { field, value, .. } => {
                let other = classes[1 - o.class].hash();
                vec![write(s, o, other, field % nf, value)]
            }
            Op::OutOfRange { past, .. } => vec![read(s, o, hash, nf + past)],
            Op::OutOfRangeWrite { past, value, .. } => vec![write(s, o, hash, nf + past, value)],
            Op::RawFreeThenFree { .. } => {
                let raw = s.ctx(0).heap_free(base).is_ok();
                let want_raw = !o.freed && !o.raw_freed;
                o.raw_freed = true;
                let got = match s.ctx(0).olr_free(base) {
                    Ok(()) | Err(RuntimeError::Heap(_)) => Outcome::Released,
                    Err(err) => Outcome::Err(err_class(&err)),
                };
                let want = match expected_free(o, detect) {
                    Outcome::Done => Outcome::Released,
                    detected => detected,
                };
                let steps = vec![
                    (Outcome::Value(raw.into()), Outcome::Value(want_raw.into())),
                    (got, want),
                ];
                if got == Outcome::Released && want == Outcome::Released {
                    extra += s.check_stranded(base, hash)?;
                    objs.remove(i);
                }
                steps
            }
            Op::CorruptThenFree { .. } => {
                corrupt(s, config, o)?;
                vec![free(s, o)]
            }
            Op::CheckTraps { .. } => vec![sweep(s, o)],
            Op::CorruptThenCheckTraps { .. } => {
                corrupt(s, config, o)?;
                vec![sweep(s, o)]
            }
        };
        for (got, want) in steps {
            check(op, got, want)?;
            out.push(got);
        }
    }
    let stats = s.stats();
    Ok((out, detections(&stats, extra)))
}

fn replay_handles(
    config: &RuntimeConfig,
    tape: &[Op],
    magazines: bool,
    shards: usize,
) -> Result<(Vec<Outcome>, [u64; 8]), String> {
    let mut config = *config;
    if !magazines {
        config.magazine = MagazinePolicy::disabled();
    }
    let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), config, shards);
    let hs = (0..shards as u64).map(|t| rt.handle(t)).collect();
    let mut handles = Handles { rt: &rt, hs };
    replay(&mut handles, &config, tape)
}

fn surfaces_agree(
    (layout, detect, placement, tape): &(usize, bool, bool, Vec<Op>),
) -> Result<(), String> {
    let config = config(LAYOUTS[*layout], *detect, *placement);
    let mut reference = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
    let (want, want_counts) = replay(&mut reference, &config, tape)?;
    for (name, magazines, shards) in
        [("handle/magazines", true, 1), ("handle/mutex", false, 1), ("two-handles/2", true, 2)]
    {
        let (got, counts) = replay_handles(&config, tape, magazines, shards)
            .map_err(|e| format!("{name}: {e}"))?;
        if let Some(i) = (0..want.len()).find(|&i| got.get(i) != Some(&want[i])) {
            return Err(format!(
                "{name}: outcome {i} is {:?}, the plain runtime's {:?}",
                got.get(i),
                want[i]
            ));
        }
        if counts != want_counts {
            return Err(format!(
                "{name}: detection counters {counts:?} differ from the plain runtime's \
                 {want_counts:?} (uaf, mismatch, double free, traps, trap scans, shadow hits, \
                 shadow misses, accesses)"
            ));
        }
    }
    Ok(())
}

#[test]
fn every_surface_classifies_detections_identically() {
    let obj = 0usize..64;
    let field = 0usize..16;
    let malloc = || any::<bool>().prop_map(|pooled| Op::Malloc { pooled });
    let value = || 0u64..0x7FFF_FFFF;
    // Allocations are listed seven times among 28 options, so a tape
    // keeps objects live for the object ops to land on.
    let op =
        one_of![
            malloc(),
            malloc(),
            malloc(),
            malloc(),
            malloc(),
            malloc(),
            malloc(),
            obj.clone().prop_map(|obj| Op::Free { obj }),
            obj.clone().prop_map(|obj| Op::DoubleFree { obj }),
            (obj.clone(), field.clone(), any::<bool>())
                .prop_map(|(obj, field, interior)| Op::Getptr { obj, field, interior }),
            (obj.clone(), 0..SITES, any::<bool>()).prop_map(|(obj, site, interior)| Op::GetptrIc {
                obj,
                site,
                interior
            }),
            (obj.clone(), field.clone()).prop_map(|(obj, field)| Op::Read { obj, field }),
            (obj.clone(), field.clone(), value())
                .prop_map(|(obj, field, value)| Op::Write { obj, field, value }),
            (obj.clone(), field.clone()).prop_map(|(obj, field)| Op::MismatchRead { obj, field }),
            (obj.clone(), field.clone(), value())
                .prop_map(|(obj, field, value)| Op::MismatchWrite { obj, field, value }),
            (obj.clone(), field.clone()).prop_map(|(obj, field)| Op::UafRead { obj, field }),
            (obj.clone(), field, value())
                .prop_map(|(obj, field, value)| Op::UafWrite { obj, field, value }),
            (obj.clone(), 0usize..4).prop_map(|(obj, past)| Op::OutOfRange { obj, past }),
            (obj.clone(), 0usize..4, value())
                .prop_map(|(obj, past, value)| Op::OutOfRangeWrite { obj, past, value }),
            obj.clone().prop_map(|obj| Op::RawFreeThenFree { obj }),
            obj.clone().prop_map(|obj| Op::CorruptThenFree { obj }),
            (obj.clone(), obj.clone()).prop_map(|(obj, dst)| Op::Memcpy { obj, dst }),
            obj.clone().prop_map(|obj| Op::InPlaceMemcpy { obj }),
            (obj.clone(), obj.clone()).prop_map(|(obj, dst)| Op::MemcpyFromFreed { obj, dst }),
            (obj.clone(), obj.clone())
                .prop_map(|(obj, dst)| Op::MemcpyOntoOtherClass { obj, dst }),
            obj.clone().prop_map(|obj| Op::MemcpyOntoRaw { obj }),
            obj.clone().prop_map(|obj| Op::CheckTraps { obj }),
            obj.prop_map(|obj| Op::CorruptThenCheckTraps { obj }),
        ];
    let case = (0..LAYOUTS.len(), any::<bool>(), any::<bool>(), vec_of(op, 0..64));
    // Cases from POLAR_CHECK_CASES, seed fixed so a failure replays.
    let config = Config::default().seed(0xD1FF_C1A5);
    polar_check::check_with(config, "surfaces_classify_identically", &case, surfaces_agree);
}
