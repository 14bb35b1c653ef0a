//! Ablation bench: layout-plan generation cost across randomization
//! policies, plus the metadata-dedup (interning) fast path.

use polar_bench::micro::{BenchmarkId, Criterion};
use polar_bench::{bench_group, bench_main};
use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_layout::{CanaryKey, LayoutEngine, PlanInterner, RandomizationPolicy};
use polar_rng::rngs::StdRng;
use polar_rng::SeedableRng;

fn probe() -> ClassInfo {
    let mut b = ClassDecl::builder("Probe");
    b = b.field("vtable", FieldKind::VtablePtr);
    for i in 0..6 {
        b = b.field(format!("f{i}"), FieldKind::I64);
    }
    ClassInfo::from_decl(b.build())
}

fn bench_plan_generation(c: &mut Criterion) {
    let info = probe();
    let mut group = c.benchmark_group("plan_generation");
    let policies = [
        ("off", RandomizationPolicy::off()),
        ("randstruct-like", RandomizationPolicy::randstruct_like()),
        ("permute-only", RandomizationPolicy::permute_only()),
        ("paper-default", RandomizationPolicy::default()),
    ];
    for (name, policy) in policies {
        let engine = LayoutEngine::new(policy);
        group.bench_with_input(BenchmarkId::from_parameter(name), &engine, |b, engine| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| engine.generate(&info, &mut rng));
        });
    }
    group.finish();
}

fn bench_interning(c: &mut Criterion) {
    let info = probe();
    let engine = LayoutEngine::new(RandomizationPolicy::permute_only());
    c.bench_function("plan_intern", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let mut interner = PlanInterner::new(CanaryKey::from_seed(2));
        b.iter(|| interner.intern_id(engine.generate(&info, &mut rng)));
    });
}

bench_group!(benches, bench_plan_generation, bench_interning);
bench_main!(benches);
