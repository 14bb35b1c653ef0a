//! # POLaR: Per-allocation Object Layout Randomization
//!
//! A from-scratch Rust reproduction of *POLaR: Per-allocation Object
//! Layout Randomization* (Kim, Jang, Jeong, Kang — DSN 2019): a runtime
//! defense that gives **every heap allocation its own randomized
//! in-object field layout**, so that possessing the program binary tells
//! an attacker nothing about where a function pointer lives, and
//! replaying the same exploit never behaves the same way twice.
//!
//! This crate is the front door; the pipeline lives in focused crates
//! that are all re-exported here:
//!
//! | crate | role |
//! |---|---|
//! | [`classinfo`] | class declarations, natural layouts, class hashes (the paper's CIE) |
//! | [`layout`] | randomization engine: permutation, dummies, booby traps, entropy |
//! | [`simheap`] | simulated process heap with exploit-faithful address reuse |
//! | [`runtime`] | the POLaR runtime: `olr_malloc`/`olr_getptr`/`olr_memcpy`/`olr_free` |
//! | [`ir`] | the mini compiler IR (LLVM stand-in) with builder + interpreter |
//! | [`instrument`](mod@instrument) | the instrumentation pass rewriting object sites |
//! | [`taint`] | DFSan-style taint tracking + the TaintClass framework |
//! | [`fuzz`] | coverage-guided input generation (libFuzzer stand-in) |
//! | [`workloads`] | mini-SPEC2006, minipng/minijpeg, JS benchmark kernels |
//! | [`attacks`] | exploit simulations and security metrics |
//!
//! # Quickstart
//!
//! Harden a program and run it under per-allocation randomization:
//!
//! ```
//! use polar::prelude::*;
//!
//! // 1. Declare a class and a program that uses it (the IR stands in
//! //    for LLVM IR; workloads ship many realistic programs).
//! let mut mb = ModuleBuilder::new("demo");
//! let people = mb
//!     .add_classes_src("class People { vtable: vptr, age: i32, height: i32 }")
//!     .unwrap()[0];
//! let mut f = mb.function("main", 0);
//! let bb = f.entry_block();
//! let obj = f.alloc_obj(bb, people);
//! let fld = f.gep(bb, obj, people, 2);
//! let v = f.const_(bb, 170);
//! f.store(bb, fld, v, 4);
//! let out = f.load(bb, fld, 4);
//! f.free_obj(bb, obj);
//! f.ret(bb, Some(out));
//! mb.finish_function(f);
//! let module = mb.build().unwrap();
//!
//! // 2. Harden it (every allocation/gep/memcpy/free site is rewritten).
//! let hardened = Polar::new().harden(&module);
//!
//! // 3. Run: same observable behaviour, randomized object innards.
//! let report = hardened.run(&[]);
//! assert_eq!(report.result.unwrap(), 170);
//! assert_eq!(report.stats.allocations, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use polar_attacks as attacks;
pub use polar_classinfo as classinfo;
pub use polar_fuzz as fuzz;
pub use polar_instrument as instrument;
pub use polar_ir as ir;
pub use polar_layout as layout;
pub use polar_runtime as runtime;
pub use polar_simheap as simheap;
pub use polar_taint as taint;
pub use polar_workloads as workloads;

pub mod prelude;

use polar_instrument::{instrument, InstrumentOptions, InstrumentReport, Targets};
use polar_ir::interp::{run, ExecLimits, ExecReport};
use polar_ir::trace::{NopTracer, Tracer};
use polar_ir::Module;
use polar_layout::RandomizationPolicy;
use polar_runtime::{ObjectRuntime, RandomizeMode, RuntimeConfig};
use polar_taint::{analyze_corpus, TaintClassReport, TaintConfig};

/// High-level facade: configure once, harden programs, run them.
///
/// Wraps the three moving parts a user otherwise wires manually — the
/// instrumentation pass, the layout policy, and the runtime
/// configuration.
#[derive(Debug, Clone)]
pub struct Polar {
    policy: RandomizationPolicy,
    runtime_config: RuntimeConfig,
    instrument_options: InstrumentOptions,
}

impl Default for Polar {
    fn default() -> Self {
        Self::new()
    }
}

impl Polar {
    /// The paper's default configuration: full permutation, booby-trapped
    /// dummies, pointer guards, all detections armed, every class
    /// randomized.
    pub fn new() -> Self {
        Polar {
            policy: RandomizationPolicy::default(),
            runtime_config: RuntimeConfig::default(),
            instrument_options: InstrumentOptions::default(),
        }
    }

    /// Override the layout randomization policy.
    pub fn policy(mut self, policy: RandomizationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Override the runtime configuration (detections, cache, heap).
    pub fn runtime_config(mut self, config: RuntimeConfig) -> Self {
        self.runtime_config = config;
        self
    }

    /// Set the process entropy seed (fresh per execution in deployment).
    pub fn seed(mut self, seed: u64) -> Self {
        self.runtime_config.seed = seed;
        self
    }

    /// Restrict randomization to the given classes — typically the
    /// [`TaintClassReport`]'s target list.
    pub fn targets(mut self, targets: Targets) -> Self {
        self.instrument_options.targets = targets;
        self
    }

    /// Run TaintClass over a corpus and adopt its findings as the
    /// randomization target set (the Figure 3 feedback loop).
    pub fn targets_from_taintclass(
        mut self,
        module: &Module,
        corpus: &[Vec<u8>],
        limits: ExecLimits,
    ) -> (Self, TaintClassReport) {
        let report = analyze_corpus(
            module,
            corpus.iter().map(|v| v.as_slice()),
            limits,
            &TaintConfig::default(),
        );
        self.instrument_options.targets = Targets::from_classes(report.tainted_classes());
        (self, report)
    }

    /// Apply the instrumentation pass, producing a runnable hardened
    /// program.
    pub fn harden(&self, module: &Module) -> HardenedProgram {
        let (module, report) = instrument(module, &self.instrument_options);
        HardenedProgram {
            module,
            report,
            policy: self.policy,
            runtime_config: self.runtime_config,
        }
    }
}

/// An instrumented program bundled with its POLaR configuration.
#[derive(Debug)]
pub struct HardenedProgram {
    /// The instrumented module.
    pub module: Module,
    /// What the pass rewrote.
    pub report: InstrumentReport,
    policy: RandomizationPolicy,
    runtime_config: RuntimeConfig,
}

impl HardenedProgram {
    /// Execute with a fresh per-allocation-randomizing runtime.
    pub fn run(&self, input: &[u8]) -> ExecReport {
        self.run_with_limits(input, ExecLimits::default())
    }

    /// Execute with explicit limits.
    pub fn run_with_limits(&self, input: &[u8], limits: ExecLimits) -> ExecReport {
        let mut tracer = NopTracer;
        self.run_traced(input, limits, &mut tracer)
    }

    /// Execute with a custom tracer attached (taint, coverage, …).
    pub fn run_traced<T: Tracer>(
        &self,
        input: &[u8],
        limits: ExecLimits,
        tracer: &mut T,
    ) -> ExecReport {
        let mode = RandomizeMode::PerAllocation { policy: self.policy };
        let mut rt = ObjectRuntime::new(mode, self.runtime_config);
        run(&self.module, &mut rt, input, limits, tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_ir::builder::ModuleBuilder;

    fn demo_module() -> (Module, polar_classinfo::ClassId) {
        let mut mb = ModuleBuilder::new("demo");
        let c = mb
            .add_classes_src("class T { vtable: vptr, n: i64 }")
            .unwrap()[0];
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let o = f.alloc_obj(bb, c);
        let fld = f.gep(bb, o, c, 1);
        let v = f.const_(bb, 7);
        f.store(bb, fld, v, 8);
        let r = f.load(bb, fld, 8);
        f.free_obj(bb, o);
        f.ret(bb, Some(r));
        mb.finish_function(f);
        (mb.build().unwrap(), c)
    }

    #[test]
    fn facade_hardens_and_runs() {
        let (module, _) = demo_module();
        let hardened = Polar::new().seed(99).harden(&module);
        assert!(hardened.module.is_instrumented());
        assert!(hardened.report.total() >= 3);
        let report = hardened.run(&[]);
        assert_eq!(report.result.unwrap(), 7);
        assert_eq!(report.stats.allocations, 1);
        assert_eq!(report.stats.frees, 1);
    }

    #[test]
    fn taintclass_feedback_narrows_targets() {
        // The demo module never touches input: TaintClass reports no
        // targets, so nothing gets randomized.
        let (module, _) = demo_module();
        let (polar, report) = Polar::new().targets_from_taintclass(
            &module,
            &[vec![1, 2, 3]],
            ExecLimits::default(),
        );
        assert_eq!(report.tainted_class_count(), 0);
        let hardened = polar.harden(&module);
        assert_eq!(hardened.report.allocs_rewritten, 0);
        assert_eq!(hardened.report.geps_rewritten, 0);
        // free() stays hooked regardless.
        assert_eq!(hardened.report.frees_rewritten, 1);
        assert_eq!(hardened.run(&[]).result.unwrap(), 7);
    }

    #[test]
    fn custom_policy_flows_through() {
        let (module, _) = demo_module();
        let hardened = Polar::new()
            .policy(RandomizationPolicy::permute_only())
            .seed(3)
            .harden(&module);
        let report = hardened.run(&[]);
        assert_eq!(report.result.unwrap(), 7);
    }
}
