//! Seeded property: the magazine front-end keeps the mutex path's
//! generation discipline (the deterministic half of the recycling
//! torture tests in `sharded.rs`).
//!
//! A generated malloc/free tape is replayed twice — once with the
//! magazine front-end on (batched reservations, lock-free frees) and
//! once with `MagazinePolicy::disabled()` (every op through the shard
//! mutex) — and both replays must satisfy the same record-generation
//! invariants:
//!
//! * **Fresh slots start at generation 1.** The first record a heap
//!   address ever carries is generation 1, magazine-armed or not.
//! * **Recycling bumps by exactly one.** When an address the tape
//!   freed comes back from a later malloc, its record generation is
//!   exactly the freed generation plus one — the re-arm bumped it once,
//!   whether that re-arm happened under the mutex or in a batched
//!   magazine refill. No skips (a slot silently cycling through extra
//!   lives) and no stalls (a stale generation surviving reuse, which
//!   would let a dangling pointer's generation check pass).
//! * **Freeing never bumps.** Immediately after a free the record is
//!   `Freed` and keeps the generation it was allocated with; the bump
//!   belongs to the *next* occupant.
//! * **Mutex-path freed records are inert.** With magazines disabled,
//!   every model-freed address keeps its `Freed` record bit-stable
//!   until reuse. (With magazines on, this sweep is deliberately
//!   skipped: a refill may legitimately re-arm a freed block into a
//!   parked capsule — `Live`, generation bumped — before the tape pops
//!   it, so freed records are only point-checked at the free itself.)
//! * **Counter parity at quiescence.** Both replays execute the same
//!   allocations and frees; the magazine replay must serve every
//!   allocation from the magazine and every free from the lock-free
//!   claim path (`fast_frees == frees`, all claims drained), while the
//!   disabled replay must leave every magazine counter at zero.
//!
//! Violations shrink on the op tape, so a failure reports a minimal
//! malloc/free sequence plus a replayable seed.

use std::collections::HashMap;

use polar_check::{just, one_of, vec as vec_of, Config, StrategyExt};
use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_runtime::{
    Addr, MagazinePolicy, ObjectState, RandomizeMode, RuntimeConfig, ShardedRuntime,
};
use std::sync::Arc;

/// One tape op. Free indices are reduced modulo the live set at
/// execution time so every generated value stays executable while the
/// shrinker deletes earlier ops.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate one more tracked object.
    Malloc,
    /// Free the `i % live`-th live object.
    Free(usize),
}

fn test_class() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("Recycled")
            .field("vtable", FieldKind::VtablePtr)
            .field("a", FieldKind::I64)
            .field("b", FieldKind::I64)
            .build(),
    ))
}

/// Replay `ops` on a fresh single-shard runtime with the given magazine
/// batch, checking the generation discipline after every op.
fn replay(ops: &[Op], batch: usize) -> Result<(), String> {
    let mut config = RuntimeConfig::default();
    // Small arena so tapes actually recycle blocks instead of streaming
    // through fresh ones.
    config.heap.capacity = 1 << 16;
    config.seed = 0xB00C_5EED;
    config.magazine = MagazinePolicy { batch };
    let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), config, 1);
    let info = test_class();
    let mut h = rt.handle(0);

    let mut live: Vec<Addr> = Vec::new();
    // Latest generation observed per address, across lives.
    let mut last_gen: HashMap<u64, u64> = HashMap::new();
    // Model-freed addresses (not yet reused) and their frozen generation.
    let mut freed_gen: HashMap<u64, u64> = HashMap::new();
    let (mut mallocs, mut frees) = (0u64, 0u64);

    for op in ops {
        match op {
            Op::Malloc => {
                let obj = h.olr_malloc(&info).map_err(|e| format!("malloc failed: {e}"))?;
                mallocs += 1;
                let meta = rt
                    .object_meta(obj)
                    .ok_or_else(|| format!("fresh {obj:?} has no record (batch {batch})"))?;
                if meta.state != ObjectState::Live {
                    return Err(format!("fresh {obj:?} is {:?}, not Live", meta.state));
                }
                match last_gen.get(&obj.0) {
                    None if meta.generation != 1 => {
                        return Err(format!(
                            "first record of {obj:?} starts at generation {} (batch {batch})",
                            meta.generation
                        ));
                    }
                    Some(&g) if meta.generation != g + 1 => {
                        return Err(format!(
                            "recycled {obj:?} went generation {g} -> {} (batch {batch}); \
                             recycling must bump by exactly one",
                            meta.generation
                        ));
                    }
                    _ => {}
                }
                last_gen.insert(obj.0, meta.generation);
                freed_gen.remove(&obj.0);
                live.push(obj);
            }
            Op::Free(i) => {
                if live.is_empty() {
                    continue; // index op on an empty live set: no-op
                }
                let obj = live.remove(i % live.len());
                h.olr_free(obj).map_err(|e| format!("free failed: {e}"))?;
                frees += 1;
                let meta = rt
                    .object_meta(obj)
                    .ok_or_else(|| format!("freed {obj:?} lost its record (batch {batch})"))?;
                if meta.state != ObjectState::Freed {
                    return Err(format!("just-freed {obj:?} is {:?}, not Freed", meta.state));
                }
                if meta.generation != last_gen[&obj.0] {
                    return Err(format!(
                        "free of {obj:?} moved its generation {} -> {} (batch {batch}); \
                         the bump belongs to the next occupant",
                        last_gen[&obj.0], meta.generation
                    ));
                }
                freed_gen.insert(obj.0, meta.generation);
            }
        }
        if batch == 0 {
            // Mutex-path freed records are inert until reuse. (Skipped
            // with magazines on: a refill may have parked a re-armed
            // capsule on a freed block, legitimately Live and bumped.)
            for (&a, &g) in &freed_gen {
                let meta = rt
                    .object_meta(Addr(a))
                    .ok_or_else(|| format!("freed {a:#x} lost its record"))?;
                if meta.state != ObjectState::Freed || meta.generation != g {
                    return Err(format!(
                        "freed {a:#x} drifted to ({:?}, gen {}) while unreused",
                        meta.state, meta.generation
                    ));
                }
            }
        }
    }

    h.flush_stats();
    rt.quiesce();
    let stats = rt.stats();
    if stats.allocations != mallocs || stats.frees != frees {
        return Err(format!(
            "counter drift (batch {batch}): {mallocs} mallocs / {frees} frees executed, \
             stats say {} / {}",
            stats.allocations, stats.frees
        ));
    }
    if batch > 0 {
        if stats.magazine_hits + stats.magazine_refills != mallocs {
            return Err(format!(
                "magazine served {} of {mallocs} allocations",
                stats.magazine_hits + stats.magazine_refills
            ));
        }
        if stats.fast_frees != frees {
            return Err(format!("{} of {frees} frees fell back to the mutex", stats.fast_frees));
        }
        if stats.remote_drained != stats.fast_frees {
            return Err(format!(
                "{} claims drained of {} fast frees at quiescence",
                stats.remote_drained, stats.fast_frees
            ));
        }
    } else if stats.magazine_hits + stats.magazine_refills + stats.magazine_returns
        + stats.fast_frees
        + stats.remote_drained
        != 0
    {
        return Err(format!(
            "disabled magazines still counted: hits {} refills {} returns {} fast {} drained {}",
            stats.magazine_hits,
            stats.magazine_refills,
            stats.magazine_returns,
            stats.fast_frees,
            stats.remote_drained
        ));
    }
    Ok(())
}

/// Same tape through the magazine front-end (small batch so refills
/// recycle within short tapes) and through the mutex-only baseline.
#[allow(clippy::ptr_arg)]
fn generation_discipline(ops: &Vec<Op>) -> Result<(), String> {
    replay(ops, 4)?;
    replay(ops, 0)
}

#[test]
fn magazine_recycling_matches_mutex_generation_discipline() {
    let op = one_of![just(Op::Malloc), (0usize..64).prop_map(Op::Free)];
    let ops = vec_of(op, 0..48);
    // Fixed config: deterministic in CI regardless of POLAR_CHECK_* env.
    let config = Config { cases: 64, seed: 0x4E0C_9C1E, max_shrink_steps: 4096, regressions: None };
    polar_check::check_with(config, "magazine_generation_discipline", &ops, generation_discipline);
}
