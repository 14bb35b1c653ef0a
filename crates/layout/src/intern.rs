//! Plan interning: the paper's metadata deduplication optimization.
//!
//! An interner is a `hash → id` index in front of a [`PlanRegistry`],
//! which is the one owner of every plan: the interner holds ids, never
//! plans.

use std::collections::HashMap;
use std::sync::Arc;

use crate::plan::{CanaryKey, LayoutPlan, PlanHash};
use crate::registry::PlanRegistry;

/// Interns [`LayoutPlan`]s by content hash so that objects which happen to
/// draw structurally identical layouts share one metadata record.
///
/// Section V-B: "Polar remove\[s\] the duplicate metadata when two objects
/// have the same randomized memory layout." For small classes the number
/// of distinct layouts is tiny (a 3-field class has only a handful), so
/// interning collapses most per-object metadata.
///
/// Each interned plan carries every field's precomputed access
/// parameters ([`LayoutPlan::access`](crate::LayoutPlan::access)) in
/// cells of its own allocation, so deduplication shares those too: one
/// set of `(offset, width)` cells per *distinct layout*, not per object
/// — covered by the same dedup argument as the plans themselves.
///
/// The interned plans live in a [`PlanRegistry`], and the interner names
/// each by its registry **id** ([`PlanInterner::intern_id`]), the integer
/// object records carry instead of a pointer; [`PlanRegistry::get`]
/// resolves it. [`PlanInterner::new`] owns a private registry, keyed by
/// the [`CanaryKey`] it is given; [`PlanInterner::with_registry`] shares
/// one. The interner's own `hash → id` index answers repeat plans
/// without the registry's writer lock; a plan it has not seen goes
/// through the registry, which hands back the stored id if another
/// interner already holds the plan.
///
/// ```
/// use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
/// use polar_layout::{CanaryKey, LayoutPlan, PlanInterner};
///
/// let info = ClassInfo::from_decl(
///     ClassDecl::builder("T").field("x", FieldKind::I32).build(),
/// );
/// let mut interner = PlanInterner::new(CanaryKey::from_seed(7));
/// let a = interner.intern_id(LayoutPlan::natural_for(&info));
/// let b = interner.intern_id(LayoutPlan::natural_for(&info));
/// assert_eq!(a, b);
/// assert_eq!(interner.unique_plans(), 1);
/// assert!(interner.registry().get(a).unwrap().is_natural());
/// ```
#[derive(Debug, Clone)]
pub struct PlanInterner {
    /// `plan hash → registry id` of every plan interned here.
    ids: HashMap<PlanHash, u32>,
    registry: Arc<PlanRegistry>,
    hits: u64,
    misses: u64,
}

impl PlanInterner {
    /// Create an empty interner with a private registry whose plans'
    /// canaries `key` keys.
    pub fn new(key: CanaryKey) -> Self {
        Self::with_registry(Arc::new(PlanRegistry::new(key)))
    }

    /// Create an empty interner that stores its plans in `registry`.
    pub fn with_registry(registry: Arc<PlanRegistry>) -> Self {
        PlanInterner { ids: HashMap::new(), registry, hits: 0, misses: 0 }
    }

    /// The registry holding this interner's plans.
    pub fn registry(&self) -> &Arc<PlanRegistry> {
        &self.registry
    }

    /// Intern a plan, returning its registry id.
    pub fn intern_id(&mut self, plan: LayoutPlan) -> u32 {
        let hash = plan.plan_hash();
        if let Some(&id) = self.ids.get(&hash) {
            self.hits += 1;
            return id;
        }
        self.misses += 1;
        let id = self.registry.intern(plan);
        self.ids.insert(hash, id);
        id
    }

    /// The registry id of the plan interned under `hash`, if any,
    /// counted as a dedup hit: the caller holds the hash of a plan it
    /// did not have to build (a derived layout hashed on the stack).
    #[inline]
    pub fn probe(&mut self, hash: PlanHash) -> Option<u32> {
        let id = *self.ids.get(&hash)?;
        self.hits += 1;
        Some(id)
    }

    /// Number of distinct plans stored.
    pub fn unique_plans(&self) -> usize {
        self.ids.len()
    }

    /// How many intern calls were satisfied by an existing record.
    pub fn dedup_hits(&self) -> u64 {
        self.hits
    }

    /// How many intern calls created a new record.
    pub fn dedup_misses(&self) -> u64 {
        self.misses
    }

    /// The registry ids of the distinct interned plans.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.ids.values().copied()
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
        let mut interner = PlanInterner::new(CanaryKey(0x11));
        let a = interner.intern_id(LayoutPlan::natural_for(&info));
        let b = interner.intern_id(LayoutPlan::natural_for(&info));
        assert_eq!(a, b);
        assert_eq!(interner.unique_plans(), 1);
        assert_eq!(interner.dedup_hits(), 1);
        assert_eq!(interner.dedup_misses(), 1);
        assert_eq!(interner.ids().collect::<Vec<_>>(), [a]);
    }

    #[test]
    fn small_class_saturates_plan_space() {
        // A 2-field permute-only class has exactly 2 layouts; hundreds of
        // allocations intern down to at most 2 records.
        let info = tiny_class();
        let engine = LayoutEngine::new(RandomizationPolicy::permute_only());
        let mut rng = StdRng::seed_from_u64(11);
        let mut interner = PlanInterner::new(CanaryKey(0x11));
        for _ in 0..200 {
            interner.intern_id(engine.generate(&info, &mut rng));
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
        let mut interner = PlanInterner::new(CanaryKey(0x11));
        let mut plans = Vec::new();
        while interner.unique_plans() < 300 {
            let plan = engine.generate(&info, &mut rng);
            let hash = plan.plan_hash();
            plans.push((interner.intern_id(plan), hash));
        }
        // 300 distinct plans span several geometric segments; every id
        // names exactly the plan it was handed out for.
        for (id, hash) in &plans {
            assert_eq!(interner.registry().get(*id).unwrap().plan_hash(), *hash);
        }
        assert_eq!(interner.registry().len(), 300, "one id per distinct plan");
    }

    #[test]
    fn probe_finds_interned_ids_and_counts_hits() {
        let info = tiny_class();
        let mut interner = PlanInterner::new(CanaryKey(0x11));
        let plan = LayoutPlan::natural_for(&info);
        let hash = plan.plan_hash();
        assert_eq!(interner.probe(hash), None, "nothing interned yet");
        assert_eq!(interner.dedup_hits(), 0, "a missed probe is no dedup hit");
        let id = interner.intern_id(plan);
        assert_eq!(interner.probe(hash), Some(id));
        assert_eq!((interner.dedup_hits(), interner.dedup_misses()), (1, 1));
        assert_eq!(interner.unique_plans(), 1, "a probe interns nothing");
    }

    #[test]
    fn the_registry_is_the_only_owner_of_an_interned_plan() {
        let info = tiny_class();
        let mut interner = PlanInterner::new(CanaryKey(0x11));
        let id = interner.intern_id(LayoutPlan::natural_for(&info));
        assert_eq!(interner.intern_id(LayoutPlan::natural_for(&info)), id);
        let plan = interner.registry().get(id).unwrap();
        assert!(plan.is_natural(), "the id names the plan");
        assert_eq!(Arc::strong_count(plan), 1, "the interner holds the id, not the plan");
    }
}
