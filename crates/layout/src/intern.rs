//! Plan interning: the paper's metadata deduplication optimization.

use std::collections::HashMap;
use std::sync::Arc;

use crate::plan::{LayoutPlan, PlanHash};
use crate::registry::PlanRegistry;

/// Interns [`LayoutPlan`]s by content hash so that objects which happen to
/// draw structurally identical layouts share one metadata record.
///
/// Section V-B: "Polar remove[s] the duplicate metadata when two objects
/// have the same randomized memory layout." For small classes the number
/// of distinct layouts is tiny (a 3-field class has only a handful), so
/// interning collapses most per-object metadata.
///
/// Each interned plan carries its precomputed dense access table
/// ([`LayoutPlan::access_table`](crate::LayoutPlan::access_table)), so
/// deduplication shares those tables too: one `(offset, width)` table
/// per *distinct layout*, not per object — the memory the hot-path
/// overhaul added is covered by the same dedup argument as the plans
/// themselves.
///
/// The interned plans live in a [`PlanRegistry`], so every plan also has
/// a registry **id** ([`PlanInterner::intern_id`]) that object records
/// carry instead of a pointer. [`PlanInterner::new`] owns a private
/// registry; [`PlanInterner::with_registry`] shares one. The interner's
/// own `hash → id` index answers repeat plans without the registry's
/// writer lock; a plan it has not seen goes through the registry, which
/// hands back the stored plan if another interner already holds it.
///
/// ```
/// use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
/// use polar_layout::{LayoutPlan, PlanInterner};
///
/// let info = ClassInfo::from_decl(
///     ClassDecl::builder("T").field("x", FieldKind::I32).build(),
/// );
/// let mut interner = PlanInterner::new();
/// let a = interner.intern(LayoutPlan::natural_for(&info));
/// let b = interner.intern(LayoutPlan::natural_for(&info));
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(interner.unique_plans(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PlanInterner {
    /// `plan hash → (registry id, plan)` of every plan interned here.
    plans: HashMap<PlanHash, (u32, Arc<LayoutPlan>)>,
    registry: Arc<PlanRegistry>,
    hits: u64,
    misses: u64,
}

impl PlanInterner {
    /// Create an empty interner with a private registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty interner that stores its plans in `registry`.
    pub fn with_registry(registry: Arc<PlanRegistry>) -> Self {
        PlanInterner { plans: HashMap::new(), registry, hits: 0, misses: 0 }
    }

    /// The registry holding this interner's plans.
    pub fn registry(&self) -> &Arc<PlanRegistry> {
        &self.registry
    }

    /// Intern a plan, returning the shared record.
    pub fn intern(&mut self, plan: LayoutPlan) -> Arc<LayoutPlan> {
        self.intern_id(plan).1
    }

    /// Intern a plan, returning its registry id and the shared record.
    pub fn intern_id(&mut self, plan: LayoutPlan) -> (u32, Arc<LayoutPlan>) {
        if let Some((id, existing)) = self.plans.get(&plan.plan_hash()) {
            self.hits += 1;
            return (*id, Arc::clone(existing));
        }
        self.misses += 1;
        let (id, arc) = self.registry.intern(plan);
        self.plans.insert(arc.plan_hash(), (id, Arc::clone(&arc)));
        (id, arc)
    }

    /// The registry id of the plan interned under `hash`, if any,
    /// counted as a dedup hit: the caller holds the hash of a plan it
    /// did not have to build (a derived layout hashed on the stack).
    #[inline]
    pub fn probe(&mut self, hash: PlanHash) -> Option<u32> {
        let id = self.plans.get(&hash)?.0;
        self.hits += 1;
        Some(id)
    }

    /// Look up an already-interned plan by hash.
    pub fn get(&self, hash: PlanHash) -> Option<&Arc<LayoutPlan>> {
        self.plans.get(&hash).map(|(_, plan)| plan)
    }

    /// Number of distinct plans stored.
    pub fn unique_plans(&self) -> usize {
        self.plans.len()
    }

    /// How many intern calls were satisfied by an existing record.
    pub fn dedup_hits(&self) -> u64 {
        self.hits
    }

    /// How many intern calls created a new record.
    pub fn dedup_misses(&self) -> u64 {
        self.misses
    }

    /// Iterate over the distinct interned plans.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<LayoutPlan>> {
        self.plans.values().map(|(_, plan)| plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LayoutEngine;
    use crate::policy::RandomizationPolicy;
    use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
    use polar_rng::rngs::StdRng;
    use polar_rng::SeedableRng;

    fn tiny_class() -> ClassInfo {
        ClassInfo::from_decl(
            ClassDecl::builder("Pair")
                .field("a", FieldKind::I64)
                .field("b", FieldKind::I64)
                .build(),
        )
    }

    #[test]
    fn identical_plans_dedup() {
        let info = tiny_class();
        let mut interner = PlanInterner::new();
        let a = interner.intern(LayoutPlan::natural_for(&info));
        let b = interner.intern(LayoutPlan::natural_for(&info));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(interner.unique_plans(), 1);
        assert_eq!(interner.dedup_hits(), 1);
        assert_eq!(interner.dedup_misses(), 1);
    }

    #[test]
    fn small_class_saturates_plan_space() {
        // A 2-field permute-only class has exactly 2 layouts; hundreds of
        // allocations intern down to at most 2 records.
        let info = tiny_class();
        let engine = LayoutEngine::new(RandomizationPolicy::permute_only());
        let mut rng = StdRng::seed_from_u64(11);
        let mut interner = PlanInterner::new();
        for _ in 0..200 {
            interner.intern(engine.generate(&info, &mut rng));
        }
        assert!(interner.unique_plans() <= 2);
        assert!(interner.dedup_hits() >= 198);
    }

    #[test]
    fn interning_across_several_registry_segments_resolves_every_id() {
        let mut b = ClassDecl::builder("Wide");
        for i in 0..6 {
            b = b.field(format!("f{i}"), FieldKind::I64);
        }
        let info = ClassInfo::from_decl(b.build());
        let engine = LayoutEngine::new(RandomizationPolicy::permute_only());
        let mut rng = StdRng::seed_from_u64(5);
        let mut interner = PlanInterner::new();
        let mut plans = Vec::new();
        while interner.unique_plans() < 300 {
            let (id, plan) = interner.intern_id(engine.generate(&info, &mut rng));
            plans.push((id, plan));
        }
        // 300 distinct plans span several geometric segments; every id
        // names exactly the plan it was handed out with.
        for (id, plan) in &plans {
            assert!(Arc::ptr_eq(interner.registry().get(*id).unwrap(), plan));
        }
        assert_eq!(interner.registry().len(), 300, "one id per distinct plan");
    }

    #[test]
    fn probe_finds_interned_ids_and_counts_hits() {
        let info = tiny_class();
        let mut interner = PlanInterner::new();
        let plan = LayoutPlan::natural_for(&info);
        let hash = plan.plan_hash();
        assert_eq!(interner.probe(hash), None, "nothing interned yet");
        assert_eq!(interner.dedup_hits(), 0, "a missed probe is no dedup hit");
        let (id, _) = interner.intern_id(plan);
        assert_eq!(interner.probe(hash), Some(id));
        assert_eq!((interner.dedup_hits(), interner.dedup_misses()), (1, 1));
        assert_eq!(interner.unique_plans(), 1, "a probe interns nothing");
    }

    #[test]
    fn lookup_by_hash() {
        let info = tiny_class();
        let mut interner = PlanInterner::new();
        let plan = interner.intern(LayoutPlan::natural_for(&info));
        assert!(interner.get(plan.plan_hash()).is_some());
        assert!(interner.get(crate::plan::PlanHash(0)).is_none());
        let (id, again) = interner.intern_id(LayoutPlan::natural_for(&info));
        assert!(Arc::ptr_eq(&again, &plan), "re-interning finds the same plan");
        assert!(Arc::ptr_eq(interner.registry().get(id).unwrap(), &plan), "the id names the plan");
    }
}
