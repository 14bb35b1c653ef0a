//! Compile-time OLR baseline: one randomized layout per class per binary.
//!
//! Models the state of the art POLaR improves on — the Linux kernel's
//! `randstruct`, DSLR, and RFOR (Sections II-C and VII-A of the paper).
//! The randomization is fixed at "compile time": a binary seed determines
//! every class's layout, the layout is identical for all instances of a
//! type, and it is identical across executions of the same binary. Those
//! are precisely the two weaknesses (hidden-binary assumption, determinism
//! under replay) that the per-allocation approach removes.

use std::collections::HashMap;
use std::sync::Arc;

use polar_classinfo::{ClassHash, ClassInfo};
use polar_rng::rngs::StdRng;
use polar_rng::SeedableRng;

use crate::engine::LayoutEngine;
use crate::plan::{CanaryKey, LayoutPlan};
use crate::policy::RandomizationPolicy;
use crate::registry::PlanRegistry;

/// Per-binary layout table produced by compile-time OLR.
///
/// ```
/// use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
/// use polar_layout::{RandomizationPolicy, StaticOlrTable};
///
/// let info = ClassInfo::from_decl(
///     ClassDecl::builder("sock")
///         .field("ops", FieldKind::Ptr)
///         .field("state", FieldKind::I32)
///         .field("uid", FieldKind::I32)
///         .build(),
/// );
/// let mut binary_a = StaticOlrTable::new(RandomizationPolicy::permute_only(), 1);
/// // Every instance in binary A shares one layout…
/// let p1 = binary_a.plan_for(&info);
/// let p2 = binary_a.plan_for(&info);
/// assert_eq!(p1.plan_hash(), p2.plan_hash());
/// // …and re-running binary A reproduces it exactly (the paper's
/// // "reproduction problem").
/// let mut rerun = StaticOlrTable::new(RandomizationPolicy::permute_only(), 1);
/// assert_eq!(rerun.plan_for(&info).plan_hash(), p1.plan_hash());
/// ```
#[derive(Debug)]
pub struct StaticOlrTable {
    engine: LayoutEngine,
    binary_seed: u64,
    /// Each class's plan id in `registry`, which owns the plan.
    ids: HashMap<ClassHash, u32>,
    registry: Arc<PlanRegistry>,
}

impl StaticOlrTable {
    /// Create the table for a "binary" identified by `binary_seed`, with
    /// a private plan registry whose canaries the binary seed keys too.
    pub fn new(policy: RandomizationPolicy, binary_seed: u64) -> Self {
        let registry = Arc::new(PlanRegistry::new(CanaryKey::from_seed(binary_seed)));
        Self::with_registry(policy, binary_seed, registry)
    }

    /// [`StaticOlrTable::new`] storing its plans in `registry`.
    pub fn with_registry(
        policy: RandomizationPolicy,
        binary_seed: u64,
        registry: Arc<PlanRegistry>,
    ) -> Self {
        StaticOlrTable {
            engine: LayoutEngine::new(policy),
            binary_seed,
            ids: HashMap::new(),
            registry,
        }
    }

    /// The binary seed (what an attacker learns by reverse-engineering
    /// the binary — with it, every layout is reconstructible).
    pub fn binary_seed(&self) -> u64 {
        self.binary_seed
    }

    /// The single layout this binary uses for `info`, generated lazily and
    /// deterministically from the binary seed and the class hash.
    pub fn plan_for(&mut self, info: &ClassInfo) -> Arc<LayoutPlan> {
        let id = self.plan_id_for(info);
        Arc::clone(self.registry.get(id).expect("an interned plan id resolves"))
    }

    /// The registry id of [`StaticOlrTable::plan_for`]'s plan.
    pub fn plan_id_for(&mut self, info: &ClassInfo) -> u32 {
        if let Some(&id) = self.ids.get(&info.hash()) {
            return id;
        }
        let mut rng = StdRng::seed_from_u64(self.binary_seed ^ info.hash().0);
        let id = self.registry.intern(self.engine.generate(info, &mut rng));
        self.ids.insert(info.hash(), id);
        id
    }

    /// Number of classes randomized so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether any class has been randomized yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The registry ids of the per-class plans generated so far
    /// (metadata accounting walks this; the table is memory like any
    /// other).
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.ids.values().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_classinfo::{ClassDecl, FieldKind};

    fn class(n: usize) -> ClassInfo {
        let mut b = ClassDecl::builder(format!("C{n}"));
        for i in 0..6 {
            b = b.field(format!("f{i}"), FieldKind::I64);
        }
        ClassInfo::from_decl(b.build())
    }

    #[test]
    fn same_binary_same_layout_for_all_instances() {
        let info = class(0);
        let mut table = StaticOlrTable::new(RandomizationPolicy::permute_only(), 42);
        let plans: Vec<_> = (0..10).map(|_| table.plan_for(&info)).collect();
        assert!(plans.windows(2).all(|w| w[0].plan_hash() == w[1].plan_hash()));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn different_binaries_diversify() {
        let info = class(0);
        let mut seen = std::collections::HashSet::new();
        for seed in 0..20 {
            let mut table = StaticOlrTable::new(RandomizationPolicy::permute_only(), seed);
            seen.insert(table.plan_for(&info).plan_hash());
        }
        assert!(seen.len() > 5, "binary diversity too low: {}", seen.len());
    }

    #[test]
    fn rerunning_the_binary_reproduces_layouts() {
        let info = class(1);
        let mut run1 = StaticOlrTable::new(RandomizationPolicy::default(), 7);
        let mut run2 = StaticOlrTable::new(RandomizationPolicy::default(), 7);
        assert_eq!(run1.plan_for(&info).plan_hash(), run2.plan_for(&info).plan_hash());
    }

    #[test]
    fn layouts_are_per_class() {
        let mut table = StaticOlrTable::new(RandomizationPolicy::permute_only(), 3);
        let a = table.plan_for(&class(0));
        let b = table.plan_for(&class(1));
        assert_ne!(a.class(), b.class());
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }
}
