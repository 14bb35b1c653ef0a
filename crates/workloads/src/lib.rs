//! Benchmark and case-study workloads for the POLaR reproduction.
//!
//! The paper evaluates POLaR on SPEC2006, libpng, libjpeg-turbo and
//! ChakraCore. Those programs cannot run inside this repository's
//! interpreter, so each is replaced by a **mini-app written in the
//! reproduction's IR** whose *object behaviour* is shaped to the profile
//! the paper reports for the original (Table III: allocation/free/memcpy/
//! member-access mix; Table I: which classes untrusted input can taint):
//!
//! * [`spec`] — twelve mini-SPEC2006 programs (`400.perlbench` …
//!   `483.xalancbmk`), e.g. `458.sjeng` is allocation/copy-dominated (the
//!   paper's worst case at ~30 % overhead) while `429.mcf` hammers the
//!   fields of one long-lived object (~100 % offset-cache hits);
//! * [`minipng`] — a PNG-flavoured parser with the six libpng CVEs of
//!   Table IV planted behind specific chunk sequences;
//! * [`minijpeg`] — a JPEG-flavoured decoder (compatibility + Table I);
//! * [`js`] — Sunspider/Kraken/Octane/Jetstream kernels for the
//!   ChakraCore experiments (Table II, Figure 7);
//! * [`gc`] — mark-and-sweep vs Orinoco-style garbage collectors (the
//!   Section V-A compatibility result: ChakraCore works, V8 does not).
//!
//! Every workload is an ordinary uninstrumented [`Module`]; pushing it
//! through `polar_instrument::instrument` yields the hardened build, so
//! the same program runs in native / static-OLR / POLaR modes.
//!
//! Counts are scaled down from the paper's (interpreted IR is orders of
//! magnitude slower than native x86); the *ratios between columns* are
//! preserved. See EXPERIMENTS.md for the scale factors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod contend;
pub mod gc;
pub mod js;
pub mod minijpeg;
pub mod minipng;
pub mod session_store;
pub mod spec;
pub mod util;

use polar_ir::interp::ExecLimits;
use polar_ir::Module;

/// A ready-to-run workload: an uninstrumented module plus its canonical
/// input and execution limits.
#[derive(Debug)]
pub struct Workload {
    /// Workload name (matches the paper's naming, e.g. `458.sjeng`).
    pub name: &'static str,
    /// The program.
    pub module: Module,
    /// Canonical untrusted input.
    pub input: Vec<u8>,
    /// Interpreter limits sized for the workload.
    pub limits: ExecLimits,
}

impl Workload {
    /// Construct a workload with a step budget sized by the caller.
    pub fn new(
        name: &'static str,
        module: Module,
        input: Vec<u8>,
        max_steps: u64,
    ) -> Self {
        Workload { name, module, input, limits: ExecLimits::steps(max_steps) }
    }
}

/// Every SPEC workload, in the paper's Table I order (includes
/// `462.libquantum`, which Figure 6 omits because TaintClass marks no
/// objects in it).
pub fn all_spec() -> Vec<Workload> {
    spec::all()
}

/// The eleven SPEC workloads of Figure 6 (excludes `462.libquantum`).
pub fn fig6_spec() -> Vec<Workload> {
    spec::all().into_iter().filter(|w| w.name != "462.libquantum").collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_ir::interp::run_native;

    #[test]
    fn every_spec_workload_runs_natively() {
        for w in all_spec() {
            let report = run_native(&w.module, &w.input, w.limits);
            assert!(
                report.result.is_ok(),
                "{} failed: {:?} after {} steps",
                w.name,
                report.result,
                report.steps
            );
        }
    }

    #[test]
    fn spec_workloads_draw_from_the_plan_pool() {
        use polar_instrument::{instrument, InstrumentOptions};
        use polar_ir::interp::run_with_mode;
        use polar_runtime::{LayoutSource, RandomizeMode, RuntimeConfig};

        // Allocation-dominated workload (the paper's worst case) — the
        // fast path's target population.
        let w = spec::by_name("458.sjeng").unwrap();
        let (hardened, _) = instrument(&w.module, &InstrumentOptions::default());

        // Pin the stored-plan path: this test characterizes the *pool*,
        // which the stateless small-class default bypasses entirely.
        let mut config = RuntimeConfig::default();
        config.heap.capacity = 512 << 20;
        config.layout = LayoutSource::Pooled;
        let pooled = run_with_mode(
            &hardened,
            RandomizeMode::per_allocation(),
            config,
            &w.input,
            w.limits,
        );
        assert!(pooled.result.is_ok(), "{:?}", pooled.result);
        assert!(pooled.stats.allocations > 0);
        assert!(
            pooled.stats.pool_hits > pooled.stats.allocations / 2,
            "allocation-heavy workload should mostly hit the plan pool: {} hits / {} allocs",
            pooled.stats.pool_hits,
            pooled.stats.allocations
        );

        let mut config = RuntimeConfig::default();
        config.heap.capacity = 512 << 20;
        config.layout = LayoutSource::Fresh;
        let unpooled = run_with_mode(
            &hardened,
            RandomizeMode::per_allocation(),
            config,
            &w.input,
            w.limits,
        );
        assert!(unpooled.result.is_ok(), "{:?}", unpooled.result);
        assert_eq!(unpooled.stats.pool_hits, 0, "disabled pool must never report hits");
        // Pooling is a perf lever, not a semantic one: the workload's
        // outcome and detection counters are identical either way.
        assert_eq!(pooled.result, unpooled.result);
        assert_eq!(pooled.stats.total_detections(), unpooled.stats.total_detections());
    }

    #[test]
    fn fig6_excludes_libquantum() {
        let names: Vec<&str> = fig6_spec().iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 11);
        assert!(!names.contains(&"462.libquantum"));
        assert!(names.contains(&"458.sjeng"));
    }
}
