//! The Figure 2 experiment: layout diversity across instances and
//! executions.
//!
//! Figure 2 of the paper contrasts OLR and POLaR visually: under
//! compile-time OLR every instance of a type shares one (per-binary)
//! layout that survives re-execution; under POLaR every allocation draws
//! its own. This module measures exactly that.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_layout::{PlanHash, POOL_SIZE};
use polar_runtime::{LayoutSource, ObjectRuntime, RandomizeMode, RuntimeConfig};

use crate::harness::Defense;

/// Diversity measurements for one defense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiversityReport {
    /// Defense label.
    pub defense: &'static str,
    /// Instances allocated per execution.
    pub instances: usize,
    /// Distinct layouts among one execution's instances.
    pub distinct_within_run: usize,
    /// Distinct layouts across two executions (union).
    pub distinct_across_runs: usize,
    /// Whether execution 2 reproduced execution 1's layouts exactly.
    pub identical_across_runs: bool,
}

impl fmt::Display for DiversityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} {:>4} instances: {:>4} layouts/run, {:>4} across runs, replay {}",
            self.defense,
            self.instances,
            self.distinct_within_run,
            self.distinct_across_runs,
            if self.identical_across_runs { "identical" } else { "differs" },
        )
    }
}

/// The People-like probe class used for the measurement.
pub fn probe_class() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("Probe")
            .field("vtable", FieldKind::VtablePtr)
            .field("a", FieldKind::I64)
            .field("b", FieldKind::I64)
            .field("c", FieldKind::I32)
            .field("d", FieldKind::I32)
            .field("next", FieldKind::Ptr)
            .build(),
    ))
}

fn layouts_of_run(defense: &Defense, run: u64, instances: usize) -> Vec<PlanHash> {
    let info = probe_class();
    let (mode, mut config) = match defense {
        Defense::Native | Defense::Redzone | Defense::PlacementOnly { .. } => {
            (RandomizeMode::Native, RuntimeConfig::default())
        }
        Defense::StaticOlr { binary_seed } => {
            (RandomizeMode::static_olr(*binary_seed), RuntimeConfig::default())
        }
        Defense::Polar { process_seed, .. }
        | Defense::PolarPlacement { process_seed }
        | Defense::PolarStateless { process_seed, .. }
        | Defense::Sharded { process_seed, .. } => {
            let mut c = RuntimeConfig::default();
            // Fresh process entropy per execution.
            c.seed = process_seed ^ (run.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            // Mirror the harness configs: stateful plans for polar and
            // sharded, derived plans (traps per variant) for stateless.
            c.layout = match defense {
                Defense::PolarStateless { traps: true, .. } => LayoutSource::Derived,
                Defense::PolarStateless { traps: false, .. } => LayoutSource::DerivedUntrapped,
                _ => LayoutSource::Pooled,
            };
            (RandomizeMode::per_allocation(), c)
        }
    };
    config.heap.capacity = 256 << 20;
    let mut rt = ObjectRuntime::new(mode, config);
    (0..instances)
        .map(|_| match defense {
            // Compile-time layouts: what the binary bakes in.
            Defense::Native
            | Defense::Redzone
            | Defense::PlacementOnly { .. }
            | Defense::StaticOlr { .. } => rt.compile_time_plan(&info).plan_hash(),
            // POLaR: one metadata record per allocation.
            Defense::Polar { .. }
            | Defense::PolarPlacement { .. }
            | Defense::PolarStateless { .. }
            | Defense::Sharded { .. } => {
                let base = rt.olr_malloc(&info).expect("alloc");
                rt.object_meta(base).expect("meta").plan.plan_hash()
            }
        })
        .collect()
}

/// Measure layout diversity for `defense` over two simulated executions
/// of `instances` allocations each.
pub fn measure(defense: Defense, instances: usize) -> DiversityReport {
    let run1 = layouts_of_run(&defense, 1, instances);
    let run2 = layouts_of_run(&defense, 2, instances);
    let within: HashSet<PlanHash> = run1.iter().copied().collect();
    let mut across = within.clone();
    across.extend(run2.iter().copied());
    DiversityReport {
        defense: defense.label(),
        instances,
        distinct_within_run: within.len(),
        distinct_across_runs: across.len(),
        identical_across_runs: run1 == run2,
    }
}

/// Probability that two consecutive same-class allocations share a
/// layout under `mode` and `layout`, estimated over `pairs` adjacent
/// allocation pairs.
///
/// Plan pooling makes POLaR's per-allocation guarantee explicitly
/// probabilistic: a sampled pool of `K` interned plans shares between
/// neighbours at rate ≈ `1/K` (`K` = [`POOL_SIZE`]; structural plan
/// collisions add a little on top for tiny classes), against ~0 for
/// fresh draws and 1 for static OLR. The estimator warms the pool
/// past its fill phase first so the rate reflects the steady state.
pub fn consecutive_share_rate(
    seed: u64,
    mode: RandomizeMode,
    layout: LayoutSource,
    pairs: usize,
) -> f64 {
    assert!(pairs > 0, "need at least one pair");
    let info = probe_class();
    let mut config = RuntimeConfig::default();
    config.seed = seed;
    config.layout = layout;
    config.heap.capacity = 256 << 20;
    let mut rt = ObjectRuntime::new(mode, config);
    for _ in 0..2 * POOL_SIZE {
        let a = rt.olr_malloc(&info).expect("alloc");
        rt.olr_free(a).expect("free");
    }
    let mut prev: Option<PlanHash> = None;
    let mut shared = 0usize;
    for _ in 0..=pairs {
        let base = rt.olr_malloc(&info).expect("alloc");
        let hash = rt.object_meta(base).expect("meta").plan.plan_hash();
        rt.olr_free(base).expect("free");
        if prev == Some(hash) {
            shared += 1;
        }
        prev = Some(hash);
    }
    shared as f64 / pairs as f64
}

/// The full Figure 2 comparison: native vs static OLR vs POLaR.
pub fn figure2(instances: usize) -> Vec<DiversityReport> {
    vec![
        measure(Defense::Native, instances),
        measure(Defense::StaticOlr { binary_seed: 0xB1A5 }, instances),
        measure(Defense::polar(0x5EED), instances),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_has_one_layout_everywhere() {
        let r = measure(Defense::Native, 64);
        assert_eq!(r.distinct_within_run, 1);
        assert_eq!(r.distinct_across_runs, 1);
        assert!(r.identical_across_runs);
    }

    #[test]
    fn static_olr_is_per_binary_and_replayable() {
        let r = measure(Defense::StaticOlr { binary_seed: 9 }, 64);
        assert_eq!(r.distinct_within_run, 1, "one layout per class per binary");
        assert!(r.identical_across_runs, "re-execution reproduces the layout");
        // Different binaries diversify.
        let other = measure(Defense::StaticOlr { binary_seed: 10 }, 64);
        let _ = other; // (hashes live in separate runtimes; diversity across
                       // binaries is asserted in polar-layout's tests)
    }

    #[test]
    fn polar_diversifies_within_and_across_runs() {
        let r = measure(Defense::polar(1), 64);
        assert!(
            r.distinct_within_run > 16,
            "per-allocation randomization: {} distinct layouts",
            r.distinct_within_run
        );
        assert!(!r.identical_across_runs);
        assert!(r.distinct_across_runs > r.distinct_within_run / 2);
    }

    #[test]
    fn consecutive_share_matches_the_pooled_ring() {
        // Diversity regression for the allocation fast path: pooling may
        // only dilute per-allocation diversity to the ring's rate (~1/32),
        // not collapse it.
        let expect = 1.0 / POOL_SIZE as f64;
        let polar = RandomizeMode::per_allocation();
        let rate = consecutive_share_rate(0xD1CE, polar, LayoutSource::Pooled, 4000);
        assert!(
            rate > expect * 0.3 && rate < expect * 3.0,
            "consecutive-share rate {rate:.4} far from configured {expect:.4}"
        );
    }

    #[test]
    fn fresh_plans_restore_full_per_allocation_diversity() {
        let polar = RandomizeMode::per_allocation();
        let rate = consecutive_share_rate(7, polar, LayoutSource::Fresh, 2000);
        assert!(rate < 0.01, "unpooled consecutive-share rate {rate:.4} should be ~0");
    }

    #[test]
    fn static_layouts_share_always() {
        // The other extreme pins the estimator's sign: one plan per
        // class shares between every pair of neighbours.
        let static_olr = RandomizeMode::static_olr(3);
        let rate = consecutive_share_rate(3, static_olr, LayoutSource::Pooled, 500);
        assert_eq!(rate, 1.0, "static consecutive-share rate {rate:.4} should be 1");
    }

    #[test]
    fn figure2_orders_the_three_defenses() {
        let rows = figure2(32);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].distinct_within_run <= rows[1].distinct_within_run);
        assert!(rows[1].distinct_within_run < rows[2].distinct_within_run);
    }
}
