//! An append-only registry of layout plans, readable without any lock.
//!
//! The one per-object record (a heap slot record) refers to its layout
//! plan by a small integer **plan id**, and lock-free readers on other
//! threads resolve that id here without the owning shard's mutex. Ids
//! are handed out once and plans are never removed or replaced; storage
//! grows in [`Segments`], so a plan's slot keeps its address for the
//! registry's whole lifetime. A reader holding an id observed from a
//! published record dereferences it with two array indexations.
//!
//! Writers intern under a small mutex; that lock is on the allocation
//! path (an interner's miss), never on a read. A standalone runtime owns
//! a private registry ([`PlanRegistry::new`]) written by its one
//! interner, which already deduplicates. The shards and handles of one
//! sharded runtime share one registry ([`PlanRegistry::shared`]), which
//! deduplicates by plan hash across them: interning a plan it already
//! holds returns the stored id and plan, so the id space grows with the
//! distinct layouts in use, not with the number of interners drawing
//! them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use polar_rng::Segments;

use crate::plan::{LayoutPlan, PlanHash};

/// Append-only shared plan storage: `intern` under a writer mutex,
/// `get` lock-free.
#[derive(Default)]
pub struct PlanRegistry {
    /// The segment directory every lock-free access walks: written only
    /// when a segment commits.
    plans: Segments<OnceLock<Arc<LayoutPlan>>>,
    /// What every intern writes, on cache lines of its own.
    writer: WriterSide,
}

/// The written half of a [`PlanRegistry`], aligned to a cache line so
/// an intern (which locks the mutex and bumps `len`) never invalidates
/// the line holding the segment directory that lock-free readers and
/// writers walk on every field access.
#[repr(align(64))]
#[derive(Default)]
struct WriterSide {
    /// Number of ids handed out; `Release`-stored after the plan is set,
    /// so every id below it resolves.
    len: AtomicU32,
    /// Serializes writers; holds the dedup map (plan hash → id) of a
    /// shared registry.
    ids: Mutex<Option<HashMap<PlanHash, u32>>>,
}

impl std::fmt::Debug for PlanRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanRegistry").field("len", &self.len()).finish()
    }
}

impl PlanRegistry {
    /// An empty private registry, for a single interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry shared by several interners, deduplicating by
    /// plan hash across them.
    pub fn shared() -> Self {
        let writer = WriterSide { ids: Mutex::new(Some(HashMap::new())), ..WriterSide::default() };
        PlanRegistry { writer, ..Self::default() }
    }

    /// Store `plan` under a fresh id and return both. A shared registry
    /// that already holds `plan`'s hash returns the stored id and plan
    /// instead, so every holder of an id uses the one plan it resolves to.
    pub(crate) fn intern(&self, plan: LayoutPlan) -> (u32, Arc<LayoutPlan>) {
        let mut writer = self.writer.ids.lock().unwrap_or_else(|e| e.into_inner());
        let hash = plan.plan_hash();
        if let Some(&id) = writer.as_ref().and_then(|ids| ids.get(&hash)) {
            return (id, Arc::clone(self.get(id).expect("interned ids resolve")));
        }
        let id = self.writer.len.load(Ordering::Relaxed);
        assert!(id != u32::MAX, "plan registry exhausted its u32 id space");
        let plan = Arc::new(plan);
        self.plans.ensure(id).set(Arc::clone(&plan)).expect("fresh id slot is unset");
        self.writer.len.store(id + 1, Ordering::Release);
        if let Some(ids) = writer.as_mut() {
            ids.insert(hash, id);
        }
        (id, plan)
    }

    /// Resolve an id to its plan. Lock-free; `None` for ids never
    /// handed out.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&Arc<LayoutPlan>> {
        self.plans.get(id)?.get()
    }

    /// Number of ids handed out.
    pub fn len(&self) -> usize {
        self.writer.len.load(Ordering::Acquire) as usize
    }

    /// Whether the registry holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of registry bookkeeping (committed plan segments + dedup
    /// map), excluding the plans themselves (counted by their interners).
    pub fn metadata_bytes(&self) -> usize {
        let writer = self.writer.ids.lock().unwrap_or_else(|e| e.into_inner());
        let map = writer.as_ref().map_or(0, HashMap::capacity);
        self.plans.committed_bytes()
            + map * (std::mem::size_of::<PlanHash>() + std::mem::size_of::<u32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayoutEngine, RandomizationPolicy};
    use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
    use polar_rng::{rngs::StdRng, SeedableRng};

    fn plans(n: usize) -> Vec<LayoutPlan> {
        let info = ClassInfo::from_decl(
            ClassDecl::builder("Reg")
                .field("a", FieldKind::I64)
                .field("b", FieldKind::I64)
                .field("c", FieldKind::I32)
                .field("d", FieldKind::I32)
                .build(),
        );
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let mut rng = StdRng::seed_from_u64(41);
        (0..n).map(|_| engine.generate(&info, &mut rng)).collect()
    }

    #[test]
    fn the_written_half_shares_no_cache_line_with_the_directory() {
        use std::mem::{align_of, offset_of, size_of};
        let plans = offset_of!(PlanRegistry, plans);
        let plans_end = plans + size_of::<Segments<OnceLock<Arc<LayoutPlan>>>>();
        let writer = offset_of!(PlanRegistry, writer);
        assert_eq!(align_of::<PlanRegistry>() % 64, 0, "the registry starts a line");
        assert_eq!(writer % 64, 0, "the written half starts a line");
        assert_eq!(size_of::<WriterSide>() % 64, 0, "and fills whole lines");
        assert!(
            plans_end <= writer || writer + size_of::<WriterSide>() <= plans,
            "directory {plans}..{plans_end} overlaps the written half at {writer}"
        );
    }

    #[test]
    fn ids_are_dense_deduplicated_and_stable() {
        let reg = PlanRegistry::shared();
        let ps = plans(5);
        let ids: Vec<(u32, Arc<LayoutPlan>)> = ps.iter().map(|p| reg.intern(p.clone())).collect();
        for (i, (p, (id, stored))) in ps.iter().zip(&ids).enumerate() {
            let (again, canonical) = reg.intern(p.clone());
            assert_eq!(again, *id, "re-intern must dedup");
            assert!(Arc::ptr_eq(&canonical, stored), "re-intern returns the stored plan");
            assert!(Arc::ptr_eq(reg.get(*id).unwrap(), stored), "id {i} must resolve to its plan");
        }
        assert_eq!(reg.len(), ps.len());
        assert!(reg.get(ids.len() as u32).is_none());
        assert!(reg.metadata_bytes() > 0);
    }

    #[test]
    fn a_private_registry_leaves_dedup_to_its_interner() {
        let reg = PlanRegistry::new();
        let p = plans(1).remove(0);
        assert_eq!(reg.intern(p.clone()).0, 0);
        assert_eq!(reg.intern(p).0, 1, "no dedup map: every intern gets a fresh id");
        assert_eq!(reg.metadata_bytes(), reg.plans.committed_bytes());
    }

    #[test]
    fn ids_across_several_segments_resolve_to_their_plans() {
        // Enough distinct plans to fill the first segments and commit
        // later, larger ones: every id still resolves to the plan it was
        // handed out with, and only committed segments are counted.
        let mut b = ClassDecl::builder("Wide");
        for i in 0..6 {
            b = b.field(format!("f{i}"), FieldKind::I64);
        }
        let info = ClassInfo::from_decl(b.build());
        let engine = LayoutEngine::new(RandomizationPolicy::permute_only());
        let mut rng = StdRng::seed_from_u64(5);
        let reg = PlanRegistry::shared();
        let n = 640;
        let mut stored = Vec::new();
        while reg.len() < n {
            let (id, plan) = reg.intern(engine.generate(&info, &mut rng));
            if id as usize == stored.len() {
                stored.push(plan);
            }
        }
        for (id, plan) in stored.iter().enumerate() {
            assert!(Arc::ptr_eq(reg.get(id as u32).unwrap(), plan), "id {id}");
        }
        // 640 ids end exactly on a segment boundary: nothing is wasted.
        let slot = std::mem::size_of::<OnceLock<Arc<LayoutPlan>>>();
        assert_eq!(reg.plans.committed_bytes(), n * slot);
    }

    #[test]
    fn concurrent_readers_see_every_published_id() {
        let reg = Arc::new(PlanRegistry::new());
        let ps = plans(64);
        std::thread::scope(|scope| {
            let reader_reg = Arc::clone(&reg);
            let expected: Vec<PlanHash> = ps.iter().map(|p| p.plan_hash()).collect();
            scope.spawn(move || {
                // Spin over the growing registry: every visible id must
                // resolve, and to the right plan.
                for _ in 0..10_000 {
                    let len = reader_reg.len() as u32;
                    for id in 0..len {
                        let plan = reader_reg.get(id).expect("published id resolves");
                        assert_eq!(plan.plan_hash(), expected[id as usize]);
                    }
                }
            });
            for p in &ps {
                reg.intern(p.clone());
            }
        });
        assert_eq!(reg.len(), 64);
    }
}
