//! Seeded single-thread interleaving property for the seqlock read
//! path (the deterministic half of the torture suite in `sharded.rs`).
//!
//! A generated tape of writer mutations — malloc, free, field writes,
//! in-place rerandomization — is stepped one op at a time, and after
//! every op the property probes the slot record of every address
//! the model has ever seen, asserting the invariants the lock-free
//! readers depend on:
//!
//! * **Quiescent stability.** With no writer window open (we are the
//!   only thread), two back-to-back probes of a slot return bit-equal
//!   snapshots with an even sequence — a probe is genuinely read-only.
//! * **Sequence monotonicity.** A slot's sequence never decreases, and
//!   every mutation of a live object (write, free, rerandomize)
//!   strictly advances it, so readers can always order their snapshots
//!   against writer windows.
//! * **Model agreement.** A snapshot of an address the model holds
//!   live is `PUB_STATE_LIVE`, generation-current and carries the
//!   object's class hash; a freed (not yet reused) address never
//!   snapshots live.
//! * **Plan coherence.** A live snapshot's plan id resolves in the
//!   shared registry to a plan whose hash matches the published one,
//!   and the addresses `olr_getptr` hands out equal `base +
//!   plan.access(field).offset` — the offsets the lock-free path
//!   computes from the snapshot are exactly the locked path's.
//!
//! Violations shrink on the op tape (delete, zero, halve), so a
//! failure reports a minimal op sequence plus a replayable seed.

use std::collections::HashMap;

use polar_check::{any, just, one_of, vec as vec_of, Config, StrategyExt};
use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_runtime::{Addr, RandomizeMode, RuntimeConfig, ShardedRuntime};
use polar_simheap::{PubSnapshot, SnapshotOutcome, PUB_STATE_LIVE};
use std::sync::Arc;

/// One injected writer mutation. Indices are reduced modulo the live
/// set at execution time so every generated value is executable (and
/// stays executable as the shrinker deletes earlier ops).
#[derive(Debug, Clone)]
enum Op {
    /// Allocate one more tracked object.
    Malloc,
    /// Free the `i % live`-th live object.
    Free(usize),
    /// Write `value` to field `1 + (f % 3)` of the `i % live`-th
    /// live object.
    Write(usize, usize, u64),
    /// Rerandomize the `i % live`-th live object in place
    /// (`olr_memcpy(obj, obj)`): the riskiest publication window, the
    /// field offsets move while the address stays.
    Remalloc(usize),
}

fn test_class() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("Interleaved")
            .field("vtable", FieldKind::VtablePtr)
            .field("a", FieldKind::I64)
            .field("b", FieldKind::I64)
            .field("c", FieldKind::I64)
            .build(),
    ))
}

/// Probe `addr` twice and require quiescent stability: identical
/// snapshots (or identically no snapshot) with an even sequence.
fn stable_probe(rt: &ShardedRuntime, addr: Addr) -> Result<Option<PubSnapshot>, String> {
    let fst = rt.publish_probe(addr);
    let snd = rt.publish_probe(addr);
    match (fst, snd) {
        (Some(SnapshotOutcome::Snap(a)), Some(SnapshotOutcome::Snap(b))) => {
            if a.seq % 2 != 0 {
                return Err(format!("quiescent probe of {addr:?} saw odd seq {}", a.seq));
            }
            let same = a.seq == b.seq
                && a.base == b.base
                && a.heap_gen == b.heap_gen
                && a.meta_gen == b.meta_gen
                && a.class_hash == b.class_hash
                && a.plan_hash == b.plan_hash
                && a.plan_id == b.plan_id
                && a.state == b.state
                && a.warmed == b.warmed;
            if !same {
                return Err(format!(
                    "back-to-back quiescent probes of {addr:?} differ: {a:?} vs {b:?}"
                ));
            }
            Ok(Some(a))
        }
        (Some(SnapshotOutcome::Untracked), Some(SnapshotOutcome::Untracked)) | (None, None) => {
            Ok(None)
        }
        (a, b) => Err(format!(
            "quiescent probes of {addr:?} disagree or are unstable: {a:?} then {b:?}"
        )),
    }
}

/// Step the op tape on a fresh runtime, checking every invariant after
/// every op.
#[allow(clippy::ptr_arg)]
fn seqlock_interleaving(ops: &Vec<Op>) -> Result<(), String> {
    let mut config = RuntimeConfig::default();
    config.heap.capacity = 1 << 20;
    config.seed = 0x1EA7_5EED;
    let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), config, 2);
    // The one thread's handle. Tapes are shorter than a magazine batch,
    // so its single refill happens before any free and no freed address
    // can come back as a parked (published, never handed out) capsule.
    let mut h = rt.handle(0);
    let info = test_class();
    let hash = info.hash();

    let mut live: Vec<Addr> = Vec::new();
    let mut freed: Vec<Addr> = Vec::new();
    // Highest sequence ever observed per address (slot reuse keeps the
    // same slot for the same base in this workload).
    let mut last_seq: HashMap<u64, u64> = HashMap::new();

    for op in ops {
        // Apply the mutation; `touched` is the address whose slot must
        // strictly advance its sequence.
        let touched = match op {
            Op::Malloc => {
                let obj = h.olr_malloc(&info).map_err(|e| format!("malloc failed: {e}"))?;
                freed.retain(|&a| a != obj);
                live.push(obj);
                Some(obj)
            }
            Op::Free(i) if !live.is_empty() => {
                let obj = live.remove(i % live.len());
                h.olr_free(obj).map_err(|e| format!("free failed: {e}"))?;
                freed.push(obj);
                Some(obj)
            }
            Op::Write(i, f, v) if !live.is_empty() => {
                let obj = live[i % live.len()];
                h.write_field(obj, hash, 1 + f % 3, *v)
                    .map_err(|e| format!("write failed: {e}"))?;
                Some(obj)
            }
            Op::Remalloc(i) if !live.is_empty() => {
                let obj = live[i % live.len()];
                h.olr_memcpy(obj, obj, &info)
                    .map_err(|e| format!("rerandomize failed: {e}"))?;
                Some(obj)
            }
            _ => None, // index op on an empty live set: no-op
        };

        for &addr in live.iter().chain(freed.iter()) {
            let Some(snap) = stable_probe(&rt, addr)? else {
                continue;
            };
            // Monotonicity, with strict advance for the touched slot.
            if let Some(&prev) = last_seq.get(&addr.0) {
                if snap.seq < prev {
                    return Err(format!(
                        "seq of {addr:?} went backwards: {prev} -> {}",
                        snap.seq
                    ));
                }
                if touched == Some(addr) && snap.seq == prev {
                    return Err(format!(
                        "{op:?} mutated {addr:?} without advancing its seq ({prev})"
                    ));
                }
            }
            last_seq.insert(addr.0, snap.seq);

            let model_live = live.contains(&addr);
            let snap_live =
                snap.base == addr.0 && snap.state == PUB_STATE_LIVE && snap.meta_gen == snap.heap_gen;
            if model_live != snap_live {
                return Err(format!(
                    "model says {addr:?} live={model_live} but snapshot says {snap:?}"
                ));
            }
            if !snap_live {
                continue;
            }
            if snap.class_hash != hash.0 {
                return Err(format!(
                    "live snapshot of {addr:?} carries class {:#x}, expected {:#x}",
                    snap.class_hash, hash.0
                ));
            }
            // Plan coherence: published id -> registry plan -> the very
            // offsets the public API serves.
            let Some(id) = snap.plan_id else {
                return Err(format!("live snapshot of {addr:?} has no registered plan"));
            };
            let plan = rt
                .registry_plan(id)
                .ok_or_else(|| format!("plan id {id} of {addr:?} does not resolve"))?;
            if plan.plan_hash().0 != snap.plan_hash {
                return Err(format!(
                    "plan id {id} resolves to hash {:#x}, snapshot says {:#x}",
                    plan.plan_hash().0,
                    snap.plan_hash
                ));
            }
            for field in 1..info.field_count() {
                let served = h
                    .olr_getptr(addr, hash, field)
                    .map_err(|e| format!("getptr({addr:?}, {field}) failed on live object: {e}"))?;
                let access = plan
                    .access(field)
                    .ok_or_else(|| format!("plan of {addr:?} lacks field {field}"))?;
                let expected = Addr(addr.0 + u64::from(access.offset));
                if served != expected {
                    return Err(format!(
                        "getptr({addr:?}, {field}) served {served:?}, plan offset says {expected:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[test]
fn interleaved_mutations_keep_published_snapshots_coherent() {
    let op = one_of![
        just(Op::Malloc),
        (0usize..64).prop_map(Op::Free),
        ((0usize..64), (0usize..3), any::<u64>()).prop_map(|(i, f, v)| Op::Write(i, f, v)),
        (0usize..64).prop_map(Op::Remalloc),
    ];
    let ops = vec_of(op, 0..24);
    // Fixed config: deterministic in CI regardless of POLAR_CHECK_* env.
    let config = Config { cases: 48, seed: 0x5EC_10CC, max_shrink_steps: 4096, regressions: None };
    polar_check::check_with(config, "seqlock_interleaving", &ops, seqlock_interleaving);
}
