//! The layout generation algorithm.

use polar_classinfo::ClassInfo;
use polar_rng::seq::SliceRandom;
use polar_rng::{Rng, RngExt};

use crate::plan::{DummySlot, LayoutPlan};
use crate::policy::{PermuteMode, RandomizationPolicy};

/// Generates [`LayoutPlan`]s according to a [`RandomizationPolicy`].
///
/// The engine is stateless apart from its policy; randomness comes from the
/// caller-supplied RNG, which is what lets the runtime draw a fresh plan
/// per allocation while tests stay deterministic with a seeded RNG.
#[derive(Debug, Clone)]
pub struct LayoutEngine {
    policy: RandomizationPolicy,
}

/// An element being placed: a real field or a dummy.
#[derive(Debug, Clone, Copy)]
enum Item {
    Field(usize),
    Dummy,
}

impl LayoutEngine {
    /// Create an engine with the given policy.
    pub fn new(policy: RandomizationPolicy) -> Self {
        LayoutEngine { policy }
    }

    /// The engine's policy.
    pub fn policy(&self) -> &RandomizationPolicy {
        &self.policy
    }

    /// Generate a randomized layout plan for `info`.
    ///
    /// With [`RandomizationPolicy::off`] this returns the natural layout
    /// (marked as such, so the runtime can skip the metadata fast-path).
    pub fn generate<R: Rng + ?Sized>(&self, info: &ClassInfo, rng: &mut R) -> LayoutPlan {
        let policy = &self.policy;
        if matches!(policy.permute, PermuteMode::Off) && policy.dummies.max == 0 {
            return LayoutPlan::natural_for(info);
        }
        let (field_offsets, dummies, size) = self.draw(info, rng);
        LayoutPlan::of_class(info, &field_offsets, &dummies, size, false)
    }

    /// The randomized layout [`generate`](Self::generate) packs into a
    /// plan: each field's offset in declaration order, the dummies in
    /// memory order and the object size.
    pub(crate) fn draw<R: Rng + ?Sized>(
        &self,
        info: &ClassInfo,
        rng: &mut R,
    ) -> (Vec<u32>, Vec<DummySlot>, u32) {
        let fields = info.fields();
        let policy = &self.policy;

        // 1. Decide the relative order of the real fields.
        let order: Vec<usize> = match policy.permute {
            PermuteMode::Off => (0..fields.len()).collect(),
            PermuteMode::Full => {
                let mut order: Vec<usize> = (0..fields.len()).collect();
                order.shuffle(rng);
                order
            }
            PermuteMode::CacheLineAware { line_size } => {
                // Pack declaration order into line-sized groups, shuffle
                // only within each group (randstruct's partial mode).
                let mut order = Vec::with_capacity(fields.len());
                let mut group: Vec<usize> = Vec::new();
                let mut used: u32 = 0;
                for (i, f) in fields.iter().enumerate() {
                    let size = f.kind().size();
                    if used + size > line_size && !group.is_empty() {
                        group.shuffle(rng);
                        order.append(&mut group);
                        used = 0;
                    }
                    group.push(i);
                    used += size;
                }
                group.shuffle(rng);
                order.append(&mut group);
                order
            }
        };

        // 2. Weave dummies into the ordered item stream: one guard before
        //    every pointer member (when guarding), plus a random count of
        //    free-floating dummies at random positions.
        let mut items: Vec<Item> = Vec::with_capacity(order.len() * 2);
        for &idx in &order {
            if policy.dummies.guard_pointers
                && policy.dummies.max > 0
                && fields[idx].kind().is_pointer()
            {
                items.push(Item::Dummy);
            }
            items.push(Item::Field(idx));
        }
        let extra = if policy.dummies.max > policy.dummies.min {
            rng.random_range(policy.dummies.min..=policy.dummies.max)
        } else {
            policy.dummies.min
        };
        for _ in 0..extra {
            let pos = rng.random_range(0..=items.len());
            items.insert(pos, Item::Dummy);
        }

        // 3. Lay the items out sequentially with natural alignment.
        let mut field_offsets = vec![0u32; fields.len()];
        let mut dummies = Vec::with_capacity(items.len() - fields.len());
        let mut cursor: u32 = 0;
        let mut max_align: u32 = 1;
        let dummy_size = policy.dummies.size.max(1);
        let dummy_align = dummy_size.min(8).next_power_of_two().min(8);
        for item in items {
            match item {
                Item::Field(idx) => {
                    let kind = fields[idx].kind();
                    let align = kind.align();
                    max_align = max_align.max(align);
                    cursor = round_up(cursor, align);
                    field_offsets[idx] = cursor;
                    cursor += kind.size();
                }
                Item::Dummy => {
                    max_align = max_align.max(dummy_align);
                    cursor = round_up(cursor, dummy_align);
                    let canary = if policy.dummies.booby_trap {
                        Some(rng.random::<u64>())
                    } else {
                        None
                    };
                    dummies.push(DummySlot { offset: cursor, size: dummy_size, canary });
                    cursor += dummy_size;
                }
            }
        }
        (field_offsets, dummies, round_up(cursor.max(1), max_align))
    }

    /// The deterministic (non-randomized) plan for `info`.
    pub fn natural(&self, info: &ClassInfo) -> LayoutPlan {
        LayoutPlan::natural_for(info)
    }
}

fn round_up(value: u32, to: u32) -> u32 {
    debug_assert!(to.is_power_of_two());
    (value + to - 1) & !(to - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DummyPolicy;
    use polar_classinfo::{ClassDecl, FieldKind};
    use polar_rng::rngs::StdRng;
    use polar_rng::SeedableRng;
    use std::collections::HashSet;

    fn info(fields: &[(&str, FieldKind)]) -> ClassInfo {
        let mut b = ClassDecl::builder("T");
        for (name, kind) in fields {
            b = b.field(*name, *kind);
        }
        ClassInfo::from_decl(b.build())
    }

    fn people() -> ClassInfo {
        info(&[
            ("vtable", FieldKind::VtablePtr),
            ("age", FieldKind::I32),
            ("height", FieldKind::I32),
        ])
    }

    #[test]
    fn off_policy_returns_natural() {
        let engine = LayoutEngine::new(RandomizationPolicy::off());
        let mut rng = StdRng::seed_from_u64(1);
        let plan = engine.generate(&people(), &mut rng);
        assert!(plan.is_natural());
        assert!(plan.offsets().eq([0, 8, 12]));
    }

    #[test]
    fn generated_plans_validate() {
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let mut rng = StdRng::seed_from_u64(2);
        let classes = [
            people(),
            info(&[("a", FieldKind::I8)]),
            info(&[
                ("buf", FieldKind::Bytes(24)),
                ("fp", FieldKind::FnPtr),
                ("n", FieldKind::I16),
                ("m", FieldKind::I64),
            ]),
            info(&[]),
        ];
        for class in &classes {
            for _ in 0..50 {
                let plan = engine.generate(class, &mut rng);
                plan.validate().unwrap_or_else(|e| panic!("{class:?}: {e}"));
                assert!(plan.size() >= 1);
            }
        }
    }

    #[test]
    fn permutation_varies_across_allocations() {
        let engine = LayoutEngine::new(RandomizationPolicy::permute_only());
        let mut rng = StdRng::seed_from_u64(3);
        let class = info(&[
            ("a", FieldKind::I64),
            ("b", FieldKind::I64),
            ("c", FieldKind::I64),
            ("d", FieldKind::I64),
            ("e", FieldKind::I64),
        ]);
        let perms: HashSet<Vec<usize>> =
            (0..100).map(|_| engine.generate(&class, &mut rng).permutation()).collect();
        // 5! = 120 possible orders; 100 draws should hit many of them.
        assert!(perms.len() > 20, "only {} distinct permutations", perms.len());
    }

    #[test]
    fn guard_dummy_precedes_every_pointer() {
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let mut rng = StdRng::seed_from_u64(4);
        let class = info(&[
            ("fp", FieldKind::FnPtr),
            ("n", FieldKind::I32),
            ("p", FieldKind::Ptr),
        ]);
        for _ in 0..50 {
            let plan = engine.generate(&class, &mut rng);
            for (idx, field) in class.fields().iter().enumerate() {
                if field.kind().is_pointer() {
                    let off = plan.offset(idx);
                    let guarded = plan.dummies().any(|d| {
                        d.canary.is_some() && d.offset + d.size <= off && off - (d.offset + d.size) < 8
                    });
                    assert!(guarded || off == 0 || has_adjacent_dummy(&plan, off),
                        "pointer field {idx} at {off} lacks a nearby trap: {plan}");
                }
            }
        }
    }

    fn has_adjacent_dummy(plan: &LayoutPlan, off: u32) -> bool {
        plan.dummies().any(|d| d.offset + d.size == off)
    }

    #[test]
    fn dummy_count_respects_bounds() {
        let policy = RandomizationPolicy {
            permute: PermuteMode::Full,
            dummies: DummyPolicy { min: 2, max: 4, size: 8, booby_trap: false, guard_pointers: false },
        };
        let engine = LayoutEngine::new(policy);
        let mut rng = StdRng::seed_from_u64(5);
        let class = people();
        for _ in 0..50 {
            let plan = engine.generate(&class, &mut rng);
            let n = plan.dummies().len();
            assert!((2..=4).contains(&n), "dummy count {n} out of bounds");
            assert!(plan.dummies().all(|d| d.canary.is_none()));
        }
    }

    #[test]
    fn cache_line_aware_keeps_groups_in_order() {
        // Fields larger than one line worth: with a 16-byte "line" the
        // groups are {a,b}, {c,d}; cross-group order must be preserved.
        let policy = RandomizationPolicy {
            permute: PermuteMode::CacheLineAware { line_size: 16 },
            dummies: DummyPolicy::none(),
        };
        let engine = LayoutEngine::new(policy);
        let mut rng = StdRng::seed_from_u64(6);
        let class = info(&[
            ("a", FieldKind::I64),
            ("b", FieldKind::I64),
            ("c", FieldKind::I64),
            ("d", FieldKind::I64),
        ]);
        for _ in 0..30 {
            let plan = engine.generate(&class, &mut rng);
            let perm = plan.permutation();
            let pos = |i: usize| perm.iter().position(|&x| x == i).unwrap();
            // Every first-group field sits before every second-group field.
            for x in [0usize, 1] {
                for y in [2usize, 3] {
                    assert!(pos(x) < pos(y), "cross-line reorder in {perm:?}");
                }
            }
        }
    }

    #[test]
    fn trapped_dummies_carry_canaries() {
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let mut rng = StdRng::seed_from_u64(7);
        let plan = engine.generate(&people(), &mut rng);
        assert!(plan.dummies().len() > 0);
        assert!(plan.dummies().all(|d| d.canary.is_some()));
    }

    #[test]
    fn dummies_grow_object_size() {
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let mut rng = StdRng::seed_from_u64(8);
        let class = people();
        let plan = engine.generate(&class, &mut rng);
        assert!(plan.size() > class.size());
    }

    #[test]
    fn empty_class_still_gets_a_plan() {
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let mut rng = StdRng::seed_from_u64(9);
        let plan = engine.generate(&info(&[]), &mut rng);
        plan.validate().unwrap();
        assert!(plan.size() >= 1);
    }
}
