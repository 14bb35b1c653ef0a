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
//! [`PoolPolicy`] makes the entropy-vs-speed trade explicit:
//!
//! * [`DrawMode::Sampled`] — draw with replacement from a `size`-entry
//!   pool. Each allocation costs one buffered-RNG index plus an `Arc`
//!   clone; every `refill_batch` draws one ring entry is regenerated
//!   (round-robin churn) so the pool contents keep rotating. Two
//!   consecutive same-class allocations share a layout with probability
//!   ≈ `1/size` — measurable with the estimator in
//!   `crates/attacks/src/diversity.rs`.
//! * [`DrawMode::Unique`] — every allocation consumes a distinct
//!   pregenerated plan; the pool is refilled `refill_batch` at a time
//!   when it runs dry. Diversity is identical to the unpooled path (one
//!   fresh generation per allocation, amortized in batches); only the
//!   batching locality is bought.
//!
//! Pools interact with the [`PlanInterner`] exactly like the unpooled
//! path: every generated plan is interned, so pooled and unpooled plans
//! have identical metadata semantics (shared access tables, dedup
//! accounting, canary sharing across structurally equal plans).

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::Arc;

use polar_classinfo::{ClassHash, ClassInfo};
use polar_rng::{Rng, RngExt};

use crate::engine::LayoutEngine;
use crate::intern::PlanInterner;
use crate::plan::LayoutPlan;

/// How allocations draw from a class's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrawMode {
    /// Consume a distinct pregenerated plan per allocation; regenerate
    /// the pool `refill_batch` at a time when it runs dry. Per-allocation
    /// entropy identical to the unpooled path.
    Unique,
    /// Draw with replacement via one random index; churn one entry every
    /// `refill_batch` draws. P(two consecutive same-class allocations
    /// share a layout) ≈ `1/size`.
    Sampled,
}

/// The entropy-vs-speed knob for the allocation fast path.
///
/// `size == 0` (see [`PoolPolicy::disabled`]) turns pooling off: the
/// runtime falls back to one fresh generation per allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolPolicy {
    /// Ring capacity per class (distinct pregenerated plans kept live).
    pub size: usize,
    /// Generation batch: how many plans are (re)generated per refill
    /// event, and (in `Sampled` mode) the churn period in draws.
    pub refill_batch: usize,
    /// Draw discipline; see [`DrawMode`].
    pub draw: DrawMode,
}

impl Default for PoolPolicy {
    /// The measured default: 32-entry sampled ring, refilled 16 at a
    /// time. Consecutive-share probability ≈ 1/32 ≈ 3%, amortized
    /// generation cost ≈ 1/16 of the unpooled path.
    fn default() -> Self {
        PoolPolicy {
            size: 32,
            refill_batch: 16,
            draw: DrawMode::Sampled,
        }
    }
}

impl PoolPolicy {
    /// Pooling off: every allocation generates a fresh plan (the
    /// pre-fast-path behaviour).
    pub fn disabled() -> Self {
        PoolPolicy {
            size: 0,
            refill_batch: 0,
            draw: DrawMode::Unique,
        }
    }

    /// A sampled pool of `size` entries churned/refilled `refill_batch`
    /// at a time.
    pub fn sampled(size: usize, refill_batch: usize) -> Self {
        PoolPolicy {
            size,
            refill_batch,
            draw: DrawMode::Sampled,
        }
    }

    /// A unique-draw pool refilled `batch` at a time.
    pub fn unique(batch: usize) -> Self {
        PoolPolicy {
            size: batch,
            refill_batch: batch,
            draw: DrawMode::Unique,
        }
    }

    /// Whether the pool path is active at all.
    pub fn enabled(&self) -> bool {
        self.size > 0 && self.refill_batch > 0
    }

    /// Expected probability that two consecutive same-class allocations
    /// draw the same pool slot (structural plan collisions add a little
    /// on top for tiny classes). `Unique` mode never re-serves a slot.
    pub fn expected_consecutive_share(&self) -> f64 {
        match self.draw {
            DrawMode::Unique => 0.0,
            DrawMode::Sampled => 1.0 / self.size.max(1) as f64,
        }
    }
}

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
    /// Each ring plan with its registry id.
    plans: Vec<(u32, Arc<LayoutPlan>)>,
    /// `Unique` mode: next unconsumed entry.
    cursor: usize,
    /// `Sampled` mode: total draws (drives the churn cadence).
    draws: u64,
    /// `Sampled` mode: next ring entry to regenerate (round-robin).
    victim: usize,
}

/// The per-class pool registry the runtime owns.
///
/// Lookup is a one-entry inline cache (allocation sites overwhelmingly
/// repeat the same class back-to-back) backed by a `ClassHash` map.
#[derive(Debug, Clone, Default)]
pub struct PlanPools {
    policy: PoolPolicy,
    pools: Vec<ClassPool>,
    index: HashMap<ClassHash, u32>,
    last: Option<(ClassHash, u32)>,
    stats: PoolStats,
}

impl PlanPools {
    /// An empty registry under `policy`.
    pub fn new(policy: PoolPolicy) -> Self {
        PlanPools {
            policy,
            ..Self::default()
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> PoolPolicy {
        self.policy
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
            .map_or(0, |&id| self.pools[id as usize].plans.len())
    }

    /// Bytes of pool bookkeeping (ring slots holding `Arc` handles plus
    /// the class index). The plans themselves are interner-owned and
    /// accounted for there.
    pub fn metadata_bytes(&self) -> usize {
        let rings: usize = self
            .pools
            .iter()
            .map(|p| {
                p.plans.capacity() * size_of::<(u32, Arc<LayoutPlan>)>() + size_of::<ClassPool>()
            })
            .sum();
        rings + self.index.len() * (size_of::<ClassHash>() + size_of::<u32>())
    }

    /// Draw a plan for `info` with its registry id: the pooled
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
    ) -> (u32, Arc<LayoutPlan>) {
        debug_assert!(self.policy.enabled(), "draw() on a disabled pool");
        let id = self.class_pool_id(info.hash());
        self.draw_at(id, info, engine, interner, rng)
    }

    /// Draw `k` plans for `info` into `out`: stream-equivalent to `k`
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
        out: &mut Vec<(u32, Arc<LayoutPlan>)>,
    ) {
        debug_assert!(self.policy.enabled(), "draw_batch() on a disabled pool");
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
    ) -> (u32, Arc<LayoutPlan>) {
        let policy = self.policy;
        let pool = &mut self.pools[id as usize];
        match policy.draw {
            DrawMode::Unique => {
                if pool.cursor == pool.plans.len() {
                    pool.plans.clear();
                    pool.cursor = 0;
                    let batch = policy.refill_batch.min(policy.size).max(1);
                    for _ in 0..batch {
                        pool.plans.push(interner.intern_id(engine.generate(info, rng)));
                    }
                    self.stats.refills += 1;
                    self.stats.generated += batch as u64;
                } else {
                    self.stats.hits += 1;
                }
                let (id, plan) = &pool.plans[pool.cursor];
                pool.cursor += 1;
                (*id, Arc::clone(plan))
            }
            DrawMode::Sampled => {
                if pool.plans.len() < policy.size {
                    // Warm-up: batch-fill toward capacity.
                    let batch = policy.refill_batch.max(1).min(policy.size - pool.plans.len());
                    for _ in 0..batch {
                        pool.plans.push(interner.intern_id(engine.generate(info, rng)));
                    }
                    self.stats.refills += 1;
                    self.stats.generated += batch as u64;
                } else if pool.draws % policy.refill_batch as u64 == 0 {
                    // Steady state: churn one ring entry every
                    // `refill_batch` draws so pool contents keep moving.
                    let victim = pool.victim;
                    pool.plans[victim] = interner.intern_id(engine.generate(info, rng));
                    pool.victim = (victim + 1) % pool.plans.len();
                    self.stats.refills += 1;
                    self.stats.generated += 1;
                } else {
                    self.stats.hits += 1;
                }
                pool.draws += 1;
                let (id, plan) = &pool.plans[rng.random_range(0..pool.plans.len())];
                (*id, Arc::clone(plan))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn draw_hashes(policy: PoolPolicy, seed: u64, n: usize) -> Vec<u64> {
        let info = probe();
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let mut interner = PlanInterner::new();
        let mut pools = PlanPools::new(policy);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| pools.draw(&info, &engine, &mut interner, &mut rng).1.plan_hash().0)
            .collect()
    }

    #[test]
    fn draw_batch_matches_sequential_draws() {
        for policy in [PoolPolicy::default(), PoolPolicy::unique(8), PoolPolicy::sampled(4, 2)] {
            let info = probe();
            let engine = LayoutEngine::new(RandomizationPolicy::default());
            let (mut ia, mut ib) = (PlanInterner::new(), PlanInterner::new());
            let (mut pa, mut pb) = (PlanPools::new(policy), PlanPools::new(policy));
            let (mut ra, mut rb) = (StdRng::seed_from_u64(42), StdRng::seed_from_u64(42));
            let sequential: Vec<u64> = (0..50)
                .map(|_| pa.draw(&info, &engine, &mut ia, &mut ra).1.plan_hash().0)
                .collect();
            let mut batched = Vec::new();
            pb.draw_batch(&info, &engine, &mut ib, &mut rb, 32, &mut batched);
            pb.draw_batch(&info, &engine, &mut ib, &mut rb, 18, &mut batched);
            let batched: Vec<u64> = batched.iter().map(|(_, p)| p.plan_hash().0).collect();
            assert_eq!(sequential, batched, "policy {policy:?} diverged");
            assert_eq!(pa.stats(), pb.stats(), "policy {policy:?} stats diverged");
        }
    }

    #[test]
    fn sampled_draws_are_deterministic_per_seed() {
        let a = draw_hashes(PoolPolicy::default(), 77, 100);
        let b = draw_hashes(PoolPolicy::default(), 77, 100);
        let c = draw_hashes(PoolPolicy::default(), 78, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sampled_pool_amortizes_generation() {
        let info = probe();
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let mut interner = PlanInterner::new();
        let mut pools = PlanPools::new(PoolPolicy::sampled(32, 16));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            pools.draw(&info, &engine, &mut interner, &mut rng);
        }
        let stats = pools.stats();
        // 32 warm-up generations plus ~1000/16 churn regenerations.
        assert!(stats.generated < 120, "generated {}", stats.generated);
        assert!(stats.hits > 850, "hits {}", stats.hits);
        assert!(stats.refills > 0);
        assert_eq!(pools.pool_len(info.hash()), 32);
    }

    #[test]
    fn unique_mode_consumes_distinct_generations() {
        let info = probe();
        let engine = LayoutEngine::new(RandomizationPolicy::default());
        let mut interner = PlanInterner::new();
        let mut pools = PlanPools::new(PoolPolicy::unique(8));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..64 {
            pools.draw(&info, &engine, &mut interner, &mut rng);
        }
        let stats = pools.stats();
        // 64 draws at batch 8: 8 refills, one generation per draw.
        assert_eq!(stats.generated, 64);
        assert_eq!(stats.refills, 8);
        assert_eq!(stats.hits, 64 - 8);
    }

    #[test]
    fn sampled_pool_preserves_within_run_diversity() {
        let hashes = draw_hashes(PoolPolicy::default(), 9, 64);
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
        let mut interner = PlanInterner::new();
        let mut pools = PlanPools::new(PoolPolicy::sampled(4, 2));
        let mut rng = StdRng::seed_from_u64(13);
        pools.draw(&info, &engine, &mut interner, &mut rng);
        let warm: Vec<u64> = pools.pools[0].plans.iter().map(|(_, p)| p.plan_hash().0).collect();
        for _ in 0..64 {
            pools.draw(&info, &engine, &mut interner, &mut rng);
        }
        let now: Vec<u64> = pools.pools[0].plans.iter().map(|(_, p)| p.plan_hash().0).collect();
        assert_ne!(warm, now);
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
        let mut interner = PlanInterner::new();
        let mut pools = PlanPools::new(PoolPolicy::default());
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let (_, pa) = pools.draw(&a, &engine, &mut interner, &mut rng);
            let (_, pb) = pools.draw(&b, &engine, &mut interner, &mut rng);
            assert_eq!(pa.field_count(), 5);
            assert_eq!(pb.field_count(), 2);
        }
        assert_eq!(pools.class_count(), 2);
        assert!(pools.metadata_bytes() > 0);
    }

    #[test]
    fn disabled_policy_reports_inactive() {
        assert!(!PoolPolicy::disabled().enabled());
        assert!(PoolPolicy::default().enabled());
        assert_eq!(PoolPolicy::default().expected_consecutive_share(), 1.0 / 32.0);
        assert_eq!(PoolPolicy::unique(8).expected_consecutive_share(), 0.0);
    }
}
