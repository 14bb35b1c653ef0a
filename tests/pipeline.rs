//! End-to-end pipeline tests: every workload must compute the same
//! observable result under the native build, the static-OLR build, and
//! the POLaR build — randomization must be semantically invisible.

use polar::instrument::{check_compatibility, instrument, InstrumentOptions};
use polar::ir::interp::{run_native, run_with_mode};
use polar::prelude::*;

fn polar_config(seed: u64) -> RuntimeConfig {
    let mut c = RuntimeConfig::default();
    c.seed = seed;
    c.heap.capacity = 512 << 20;
    c
}

#[test]
fn every_spec_workload_is_transparent_under_polar() {
    for w in polar::workloads::all_spec() {
        let native = run_native(&w.module, &w.input, w.limits);
        let native_result = native.result.clone().unwrap_or_else(|e| {
            panic!("{} native run failed: {e}", w.name);
        });
        let (hardened, report) = instrument(&w.module, &InstrumentOptions::default());
        assert!(report.total() > 0, "{}: nothing instrumented", w.name);
        for seed in [1u64, 99, 4096] {
            let polar = run_with_mode(
                &hardened,
                RandomizeMode::per_allocation(),
                polar_config(seed),
                &w.input,
                w.limits,
            );
            assert_eq!(
                polar.result.as_ref().ok(),
                Some(&native_result),
                "{} diverged under POLaR (seed {seed}): {:?}",
                w.name,
                polar.result
            );
            assert_eq!(native.output, polar.output, "{} output diverged", w.name);
        }
    }
}

#[test]
fn every_spec_workload_is_transparent_under_static_olr() {
    for w in polar::workloads::all_spec() {
        let native = run_native(&w.module, &w.input, w.limits);
        let olr = run_with_mode(
            &w.module,
            RandomizeMode::static_olr(0xB1A5),
            polar_config(7),
            &w.input,
            w.limits,
        );
        assert_eq!(
            native.result, olr.result,
            "{} diverged under compile-time OLR",
            w.name
        );
    }
}

#[test]
fn js_kernels_are_transparent_under_polar() {
    for k in polar::workloads::js::all() {
        let native = run_native(&k.module, &k.input, k.limits);
        let (hardened, _) = instrument(&k.module, &InstrumentOptions::default());
        let polar = run_with_mode(
            &hardened,
            RandomizeMode::per_allocation(),
            polar_config(3),
            &k.input,
            k.limits,
        );
        assert_eq!(native.result, polar.result, "{} diverged", k.name);
    }
}

#[test]
fn parsers_are_transparent_under_polar() {
    for w in [
        polar::workloads::minipng::workload(),
        polar::workloads::minijpeg::workload(),
        polar::workloads::js::engine::workload(),
    ] {
        let native = run_native(&w.module, &w.input, w.limits);
        let (hardened, _) = instrument(&w.module, &InstrumentOptions::default());
        for seed in [5u64, 1234] {
            let polar = run_with_mode(
                &hardened,
                RandomizeMode::per_allocation(),
                polar_config(seed),
                &w.input,
                w.limits,
            );
            assert_eq!(native.result, polar.result, "{} diverged", w.name);
            assert_eq!(native.output, polar.output, "{} output diverged", w.name);
        }
    }
}

#[test]
fn spec_workloads_pass_the_compatibility_lint() {
    for w in polar::workloads::all_spec() {
        let warnings = check_compatibility(&w.module);
        assert!(
            warnings.is_empty(),
            "{}: {} manual-offset warnings (first: {})",
            w.name,
            warnings.len(),
            warnings[0]
        );
    }
}

#[test]
fn facade_selective_hardening_stays_transparent() {
    // Harden only TaintClass-selected classes of minipng and re-verify.
    let w = polar::workloads::minipng::workload();
    let (polar_cfg, report) = Polar::new().targets_from_taintclass(
        &w.module,
        &[w.input.clone()],
        w.limits,
    );
    assert_eq!(report.tainted_class_count(), 8);
    let hardened = polar_cfg.harden(&w.module);
    let native = run_native(&w.module, &w.input, w.limits);
    let run = hardened.run_with_limits(&w.input, w.limits);
    assert_eq!(native.result, run.result);
    // Fewer sites than whole-program hardening.
    let (_, full) = instrument(&w.module, &InstrumentOptions::default());
    assert!(hardened.report.total() <= full.total());
}

#[test]
fn workload_ir_survives_a_text_roundtrip() {
    // Print → parse → print is stable for every workload, both before
    // and after instrumentation (exercises the whole instruction set).
    use polar::ir::text::parse_module;
    for w in polar::workloads::all_spec().into_iter().take(4) {
        let text = w.module.to_string();
        let reparsed = parse_module(&text, w.module.registry.clone())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(reparsed.to_string(), text, "{}", w.name);
        let (hardened, _) = instrument(&w.module, &InstrumentOptions::default());
        let h_text = hardened.to_string();
        let h_reparsed = parse_module(&h_text, hardened.registry.clone())
            .unwrap_or_else(|e| panic!("{} (hardened): {e}", w.name));
        assert_eq!(h_reparsed.to_string(), h_text, "{} (hardened)", w.name);
        // And the reparsed program still computes the same result.
        let a = run_native(&w.module, &w.input, w.limits);
        let b = run_native(&reparsed, &w.input, w.limits);
        assert_eq!(a.result, b.result, "{}", w.name);
    }
}

#[test]
fn randstruct_auto_rule_selects_fnptr_only_classes() {
    use polar::instrument::Targets;
    let mut mb = ModuleBuilder::new("ops");
    let ids = mb
        .add_classes_src(
            "class file_operations { read: fnptr, write: fnptr, ioctl: fnptr }
             class inode { ino: i64, ops: ptr }",
        )
        .unwrap();
    let mut f = mb.function("main", 0);
    let bb = f.entry_block();
    let a = f.alloc_obj(bb, ids[0]);
    let b = f.alloc_obj(bb, ids[1]);
    f.free_obj(bb, a);
    f.free_obj(bb, b);
    f.ret(bb, None);
    mb.finish_function(f);
    let module = mb.build().unwrap();
    let targets = Targets::randstruct_auto(&module);
    assert!(targets.includes(ids[0]), "all-fnptr class must be auto-selected");
    assert!(!targets.includes(ids[1]), "mixed class must not be auto-selected");
}

#[test]
fn table3_event_mix_shapes_hold() {
    // The per-app object-event signatures of Table III (shape, not
    // absolute numbers — see EXPERIMENTS.md for the scale factors).
    let snapshot = |name: &str| {
        let w = polar::workloads::spec::by_name(name).unwrap();
        let (hardened, _) = instrument(&w.module, &InstrumentOptions::default());
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), polar_config(11));
        let report = polar::ir::interp::run(
            &hardened,
            &mut rt,
            &w.input,
            w.limits,
            &mut polar::ir::trace::NopTracer,
        );
        assert!(report.result.is_ok(), "{name}: {:?}", report.result);
        report.stats
    };

    // gcc: allocation churn, zero member accesses.
    let gcc = snapshot("403.gcc");
    assert!(gcc.allocations > 5_000);
    assert!(gcc.frees > gcc.allocations * 9 / 10);
    assert_eq!(gcc.member_accesses, 0);

    // mcf: one object population, access-dominated, ~100% cache hits.
    let mcf = snapshot("429.mcf");
    assert!(mcf.allocations <= 2);
    assert!(mcf.member_accesses > 50_000);
    assert!(mcf.cache_hit_ratio().unwrap() > 0.99);

    // sjeng: alloc ≈ free, heavy object memcpy (the worst case).
    let sjeng = snapshot("458.sjeng");
    assert_eq!(sjeng.allocations, sjeng.frees);
    assert!(sjeng.memcpys > 5_000);

    // perlbench: arena semantics — no frees.
    let perl = snapshot("400.perlbench");
    assert_eq!(perl.frees, 0);
    assert!(perl.allocations > 1_000);
}
