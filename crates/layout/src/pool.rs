//! Per-class plan pools: the allocation fast path (paper §V-B).
//!
//! Generating a fresh [`LayoutPlan`] on every `olr_malloc` — shuffle,
//! dummy weaving, canary draws, interner probe — is what makes polar
//! allocation ~8x slower than static OLR. §V-B's observation is that the
//! *generation* cost can be amortized without giving up per-allocation
//! diversity: keep a small ring of pregenerated, interned plans per
//! class, draw one with a single random index, and regenerate entries in
//! batch / in the background of the draw cadence.
//!
//! Each class keeps a ring of [`POOL_SIZE`] plans. A draw picks one
//! with one buffered-RNG index (with replacement) and returns its id;
//! every [`POOL_CHURN`] draws one ring entry is regenerated (round-robin
//! churn), so the pool contents keep rotating. Two consecutive
//! same-class allocations share a layout with probability ≈
//! `1/POOL_SIZE` — measured by the estimator in
//! `crates/attacks/src/diversity.rs`. A runtime that wants one fresh
//! plan per allocation does not consult the pools at all.
//!
//! Pools interact with the [`PlanInterner`] exactly like the unpooled
//! path: every generated plan is interned, so pooled and unpooled plans
//! have identical metadata semantics (shared field cells, dedup
//! accounting, canary sharing across structurally equal plans). A ring
//! holds registry ids, not plans: the registry owns them.

use std::collections::HashMap;
use std::mem::size_of;

use polar_classinfo::{ClassHash, ClassInfo};
use polar_rng::{Rng, RngExt};

use crate::engine::LayoutEngine;
use crate::intern::PlanInterner;

/// Plans kept live per class ring. Consecutive-share probability ≈
/// 1/32 ≈ 3%.
pub const POOL_SIZE: usize = 32;

/// Plans generated per warm-up refill, and the steady-state churn
/// period in draws: amortized generation cost ≈ 1/16 of one fresh plan
/// per allocation.
pub const POOL_CHURN: usize = 16;

/// Draw/refill counters, mirrored into `RuntimeStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Draws served from the ring without generating a plan inline.
    pub hits: u64,
    /// Refill events (batch fills and churn regenerations).
    pub refills: u64,
    /// Total plans generated on behalf of pools.
    pub generated: u64,
}

/// One class's ring of pregenerated plans.
#[derive(Debug, Clone, Default)]
struct ClassPool {
    /// The registry id of each ring plan.
    ids: Vec<u32>,
    /// Total draws (drives the churn cadence).
    draws: u64,
    /// Next ring entry to regenerate (round-robin).
    victim: usize,
}

/// The per-class pool registry the runtime owns.
///
/// Lookup is a one-entry inline cache (allocation sites overwhelmingly
/// repeat the same class back-to-back) backed by a `ClassHash` map.
#[derive(Debug, Clone, Default)]
pub struct PlanPools {
    pools: Vec<ClassPool>,
    index: HashMap<ClassHash, u32>,
    last: Option<(ClassHash, u32)>,
    stats: PoolStats,
}

impl PlanPools {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draw/refill counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of classes with a live pool.
    pub fn class_count(&self) -> usize {
        self.pools.len()
    }

    /// Current ring occupancy for `class` (0 if never drawn from).
    pub fn pool_len(&self, class: ClassHash) -> usize {
        self.index
            .get(&class)
            .map_or(0, |&id| self.pools[id as usize].ids.len())
    }

    /// Bytes of pool bookkeeping (ring slots holding plan ids plus the
    /// class index). The plans themselves are registry-owned and
    /// accounted for through the interner that named them.
    pub fn metadata_bytes(&self) -> usize {
        let rings: usize = self
            .pools
            .iter()
            .map(|p| p.ids.capacity() * size_of::<u32>() + size_of::<ClassPool>())
            .sum();
        rings + self.index.len() * (size_of::<ClassHash>() + size_of::<u32>())
    }

    /// Draw a plan for `info`, returning its registry id: the pooled
    /// replacement for `interner.intern_id(engine.generate(info, rng))`.
    ///
    /// All randomness flows through `rng`, so for a fixed seed the draw
    /// sequence — and every plan it returns — is deterministic.
    pub fn draw<R: Rng + ?Sized>(
        &mut self,
        info: &ClassInfo,
        engine: &LayoutEngine,
        interner: &mut PlanInterner,
        rng: &mut R,
    ) -> u32 {
        let id = self.class_pool_id(info.hash());
        self.draw_at(id, info, engine, interner, rng)
    }

    /// Draw `k` plan ids for `info` into `out`: stream-equivalent to `k`
    /// sequential [`draw`](PlanPools::draw) calls — identical RNG
    /// consumption, identical returned sequence — with the class lookup
    /// hoisted out of the loop. The sharded runtime's magazine
    /// front-end refills with this, so batching does not perturb the
    /// per-thread plan streams the determinism tests pin down.
    pub fn draw_batch<R: Rng + ?Sized>(
        &mut self,
        info: &ClassInfo,
        engine: &LayoutEngine,
        interner: &mut PlanInterner,
        rng: &mut R,
        k: usize,
        out: &mut Vec<u32>,
    ) {
        let id = self.class_pool_id(info.hash());
        out.reserve(k);
        for _ in 0..k {
            let plan = self.draw_at(id, info, engine, interner, rng);
            out.push(plan);
        }
    }

    /// Pool id for `class`, creating an empty ring on first sight, with
    /// the one-entry inline cache in front.
    #[inline]
    fn class_pool_id(&mut self, hash: ClassHash) -> u32 {
        if let Some((cached, id)) = self.last {
            if cached == hash {
                return id;
            }
        }
        let id = match self.index.get(&hash) {
            Some(&id) => id,
            None => {
                let id = self.pools.len() as u32;
                self.pools.push(ClassPool::default());
                self.index.insert(hash, id);
                id
            }
        };
        self.last = Some((hash, id));
        id
    }

    /// One draw from an already-resolved class pool (the body shared by
    /// [`draw`](PlanPools::draw) and [`draw_batch`](PlanPools::draw_batch)).
    fn draw_at<R: Rng + ?Sized>(
        &mut self,
        id: u32,
        info: &ClassInfo,
        engine: &LayoutEngine,
        interner: &mut PlanInterner,
        rng: &mut R,
    ) -> u32 {
        let pool = &mut self.pools[id as usize];
        if pool.ids.len() < POOL_SIZE {
            // Warm-up: batch-fill toward capacity.
            let batch = POOL_CHURN.min(POOL_SIZE - pool.ids.len());
            for _ in 0..batch {
                pool.ids.push(interner.intern_id(engine.generate(info, rng)));
            }
            self.stats.refills += 1;
            self.stats.generated += batch as u64;
        } else if pool.draws % POOL_CHURN as u64 == 0 {
            // Steady state: churn one ring entry every `POOL_CHURN`
            // draws so pool contents keep moving.
            let victim = pool.victim;
            pool.ids[victim] = interner.intern_id(engine.generate(info, rng));
            pool.victim = (victim + 1) % pool.ids.len();
            self.stats.refills += 1;
            self.stats.generated += 1;
        } else {
            self.stats.hits += 1;
        }
        pool.draws += 1;
        pool.ids[rng.random_range(0..pool.ids.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CanaryKey;
    use crate::policy::RandomizationPolicy;
    use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
    use polar_rng::{rngs::StdRng, SeedableRng};

    fn probe() -> ClassInfo {
        ClassInfo::from_decl(
            ClassDecl::builder("Probe")
                .field("vtable", FieldKind::VtablePtr)
                .field("a", FieldKind::I64)
                .field("b", FieldKind::I64)
                .field("c", FieldKind::I32)
                .field("d", FieldKind::I32)
                .build(),
        )
    }

    fn draw_hashes(seed: u64, n: usize) -> Vec<u64> {
        let info = probe();
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let mut interner = PlanInterner::new(CanaryKey(0x11));
        let mut pools = PlanPools::new();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let id = pools.draw(&info, &engine, &mut interner, &mut rng);
                interner.registry().get(id).unwrap().plan_hash().0
            })
            .collect()
    }

    #[test]
    fn draw_batch_matches_sequential_draws() {
        // 100 draws span the two warm-up refills and six churn
        // regenerations; the batches split across both phases.
        let info = probe();
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let key = CanaryKey(0x11);
        let (mut ia, mut ib) = (PlanInterner::new(key), PlanInterner::new(key));
        let (mut pa, mut pb) = (PlanPools::new(), PlanPools::new());
        let (mut ra, mut rb) = (StdRng::seed_from_u64(42), StdRng::seed_from_u64(42));
        let sequential: Vec<u32> =
            (0..100).map(|_| pa.draw(&info, &engine, &mut ia, &mut ra)).collect();
        let mut batched = Vec::new();
        for k in [7, 25, 50, 18] {
            pb.draw_batch(&info, &engine, &mut ib, &mut rb, k, &mut batched);
        }
        // Two private registries filled in one order: equal ids name
        // equal plans.
        assert_eq!(sequential, batched);
        assert!(sequential.iter().all(|&id| ia.registry().get(id) == ib.registry().get(id)));
        assert_eq!(pa.stats(), pb.stats());
    }

    #[test]
    fn sampled_draws_are_deterministic_per_seed() {
        let a = draw_hashes(77, 100);
        let b = draw_hashes(77, 100);
        let c = draw_hashes(78, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sampled_pool_amortizes_generation() {
        let info = probe();
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let mut interner = PlanInterner::new(CanaryKey(0x11));
        let mut pools = PlanPools::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            pools.draw(&info, &engine, &mut interner, &mut rng);
        }
        let stats = pools.stats();
        // 32 warm-up generations plus ~1000/16 churn regenerations.
        assert!(stats.generated < 120, "generated {}", stats.generated);
        assert!(stats.hits > 850, "hits {}", stats.hits);
        assert!(stats.refills > 0);
        assert_eq!(pools.pool_len(info.hash()), POOL_SIZE);
    }

    #[test]
    fn sampled_pool_preserves_within_run_diversity() {
        let hashes = draw_hashes(9, 64);
        let distinct: std::collections::HashSet<_> = hashes.iter().collect();
        // Sampling 64 times from a 32-ring: expect ~28 distinct layouts.
        assert!(distinct.len() > 16, "only {} distinct", distinct.len());
    }

    #[test]
    fn churn_rotates_pool_contents() {
        // After many draws the ring should no longer equal its warm-up
        // contents: churn regenerated every slot at least once.
        let info = probe();
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let mut interner = PlanInterner::new(CanaryKey(0x11));
        let mut pools = PlanPools::new();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..POOL_SIZE / POOL_CHURN {
            pools.draw(&info, &engine, &mut interner, &mut rng);
        }
        // The interner gives each distinct plan one id.
        let warm = pools.pools[0].ids.clone();
        assert_eq!(warm.len(), POOL_SIZE);
        for _ in 0..POOL_SIZE * POOL_CHURN {
            pools.draw(&info, &engine, &mut interner, &mut rng);
        }
        assert_ne!(warm, pools.pools[0].ids);
    }

    #[test]
    fn pools_track_multiple_classes_through_inline_cache() {
        let a = probe();
        let b = ClassInfo::from_decl(
            ClassDecl::builder("Other")
                .field("x", FieldKind::I64)
                .field("y", FieldKind::Ptr)
                .build(),
        );
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let mut interner = PlanInterner::new(CanaryKey(0x11));
        let mut pools = PlanPools::new();
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let pa = pools.draw(&a, &engine, &mut interner, &mut rng);
            let pb = pools.draw(&b, &engine, &mut interner, &mut rng);
            assert_eq!(interner.registry().get(pa).unwrap().field_count(), 5);
            assert_eq!(interner.registry().get(pb).unwrap().field_count(), 2);
        }
        assert_eq!(pools.class_count(), 2);
        assert!(pools.metadata_bytes() > 0);
    }
}
