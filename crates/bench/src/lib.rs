//! Measurement helpers shared by the `tables` binary, the micro benches
//! (see [`micro`] for the in-tree Criterion replacement) and `bench_json`
//! (see [`gate`] for its verdicts).
//!
//! Every table and figure of the paper has a `rows`-style function here
//! that produces its data; the binary in `src/bin/tables.rs` formats
//! them. See DESIGN.md §4 for the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod json;
pub mod micro;
pub mod security;

use std::sync::Arc;
use std::time::{Duration, Instant};

use polar_instrument::{instrument, InstrumentOptions};
use polar_ir::interp::{run, ExecLimits};
use polar_ir::trace::NopTracer;
use polar_ir::Module;
use polar_runtime::{LayoutSource, ObjectRuntime, RandomizeMode, RuntimeConfig, RuntimeStats};
use polar_taint::{analyze, TaintConfig};
use polar_workloads::session_store::SessionConfig;
use polar_workloads::{js, Workload};

/// The 4-field vtable'd class of the `runtime_ops` allocation and access
/// rows and of `bench_json`'s metadata pin.
pub fn probe_class() -> Arc<polar_classinfo::ClassInfo> {
    use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("Probe")
            .field("vtable", FieldKind::VtablePtr)
            .field("a", FieldKind::I64)
            .field("b", FieldKind::I32)
            .field("c", FieldKind::I32)
            .build(),
    ))
}

/// The default runtime config on a 1 GiB heap: what the `runtime_ops`
/// rows and `bench_json`'s metadata pin start from.
pub fn bench_config() -> RuntimeConfig {
    let mut c = RuntimeConfig::default();
    c.heap.capacity = 1 << 30;
    c
}

/// The session-store row's scale: ≥1M live vtable'd sessions under
/// Zipf-skewed traffic on 8 threads and 8 shards (the 512 MiB heap holds
/// the 256 MiB live set with magazine slack). Quick mode shrinks it to a
/// smoke run.
pub fn session_bench_config(quick: bool) -> SessionConfig {
    if quick {
        SessionConfig {
            threads: 2,
            sessions: 2_000,
            ops_per_thread: 500,
            shards: 2,
            heap_capacity: 32 << 20,
            ..Default::default()
        }
    } else {
        SessionConfig {
            threads: 8,
            sessions: 1 << 20,
            ops_per_thread: 50_000,
            shards: 8,
            heap_capacity: 512 << 20,
            ..Default::default()
        }
    }
}

/// Wall-clock one execution in the given mode; also returns the final
/// runtime stats.
pub fn time_once(
    module: &Module,
    mode: RandomizeMode,
    mut config: RuntimeConfig,
    input: &[u8],
    limits: ExecLimits,
    seed: u64,
) -> (Duration, RuntimeStats) {
    config.seed = seed;
    config.heap.capacity = 512 << 20;
    let mut rt = ObjectRuntime::new(mode, config);
    let start = Instant::now();
    let report = run(module, &mut rt, input, limits, &mut NopTracer);
    let elapsed = start.elapsed();
    assert!(
        report.result.is_ok(),
        "{} run failed: {:?}",
        mode.label(),
        report.result
    );
    (elapsed, report.stats)
}

/// Best-of-`reps` wall time.
pub fn time_best(
    module: &Module,
    mode: RandomizeMode,
    input: &[u8],
    limits: ExecLimits,
    reps: u32,
) -> Duration {
    (0..reps)
        .map(|r| {
            time_once(module, mode, RuntimeConfig::default(), input, limits, 0xBE5 + u64::from(r))
                .0
        })
        .min()
        .expect("reps >= 1")
}

/// Interleaved A/B timing: alternates the two builds rep by rep (with one
/// untimed warm-up each) so frequency drift and cache state hit both
/// sides equally, and returns the per-build minima.
pub fn time_pair(
    a: (&Module, RandomizeMode),
    b: (&Module, RandomizeMode),
    input: &[u8],
    limits: ExecLimits,
    reps: u32,
) -> (Duration, Duration) {
    let _ = time_once(a.0, a.1, RuntimeConfig::default(), input, limits, 1);
    let _ = time_once(b.0, b.1, RuntimeConfig::default(), input, limits, 2);
    let mut best_a = Duration::MAX;
    let mut best_b = Duration::MAX;
    for r in 0..reps.max(1) {
        let seed = 0xBE5 + u64::from(r);
        let ta = time_once(a.0, a.1, RuntimeConfig::default(), input, limits, seed).0;
        let tb = time_once(b.0, b.1, RuntimeConfig::default(), input, limits, seed).0;
        best_a = best_a.min(ta);
        best_b = best_b.min(tb);
    }
    (best_a, best_b)
}

/// Relative overhead in percent.
pub fn overhead_pct(base: Duration, hardened: Duration) -> f64 {
    (hardened.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
}

/// One Figure 6 row: a SPEC workload timed native vs POLaR.
#[derive(Debug, Clone)]
pub struct SpecRow {
    /// Workload name.
    pub name: &'static str,
    /// Native (uninstrumented) best time.
    pub native: Duration,
    /// POLaR (instrumented, per-allocation) best time.
    pub polar: Duration,
    /// Overhead percentage.
    pub overhead: f64,
}

/// Measure Figure 6: per-app POLaR overhead on the mini-SPEC suite.
pub fn fig6_rows(reps: u32) -> Vec<SpecRow> {
    polar_workloads::fig6_spec()
        .iter()
        .map(|w| spec_row(w, reps))
        .collect()
}

fn spec_row(w: &Workload, reps: u32) -> SpecRow {
    let (hardened, _) = instrument(&w.module, &InstrumentOptions::default());
    let (native, polar) = time_pair(
        (&w.module, RandomizeMode::Native),
        (&hardened, RandomizeMode::per_allocation()),
        &w.input,
        w.limits,
        reps,
    );
    SpecRow { name: w.name, native, polar, overhead: overhead_pct(native, polar) }
}

/// One Table III row: the instrumented run's object-event counters.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Workload name.
    pub name: &'static str,
    /// Final runtime statistics of a POLaR run.
    pub stats: RuntimeStats,
}

/// Measure Table III: allocation/free/memcpy/member-access/cache-hit
/// counts of the POLaR build of every Figure 6 workload.
pub fn table3_rows() -> Vec<Table3Row> {
    polar_workloads::fig6_spec()
        .iter()
        .map(|w| {
            let (hardened, _) = instrument(&w.module, &InstrumentOptions::default());
            let (_, stats) = time_once(
                &hardened,
                RandomizeMode::per_allocation(),
                RuntimeConfig::default(),
                &w.input,
                w.limits,
                7,
            );
            Table3Row { name: w.name, stats }
        })
        .collect()
}

/// One Table I row: the TaintClass object count for an application.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Application name.
    pub name: String,
    /// Number of tainted classes discovered.
    pub tainted: usize,
    /// A few sample class names (like the paper's third column).
    pub samples: Vec<String>,
}

/// Measure Table I: TaintClass over every application's canonical input.
pub fn table1_rows() -> Vec<Table1Row> {
    let mut apps: Vec<Workload> = polar_workloads::all_spec();
    apps.push(polar_workloads::minipng::workload());
    apps.push(polar_workloads::minijpeg::workload());
    apps.push(js::engine::workload());
    apps.iter()
        .map(|w| {
            let (report, exec) =
                analyze(&w.module, &w.input, w.limits, &TaintConfig::default());
            assert!(exec.result.is_ok(), "{}: {:?}", w.name, exec.result);
            let samples: Vec<String> = report
                .tainted_classes()
                .into_iter()
                .take(5)
                .filter_map(|c| {
                    w.module.registry.get_checked(c).map(|i| i.name().to_owned())
                })
                .collect();
            Table1Row {
                name: w.name.to_owned(),
                tainted: report.tainted_class_count(),
                samples,
            }
        })
        .collect()
}

/// One JS subtest measurement (Figure 7).
#[derive(Debug, Clone)]
pub struct JsRow {
    /// Suite.
    pub suite: js::Suite,
    /// Subtest name.
    pub name: &'static str,
    /// Default (native) time.
    pub default_time: Duration,
    /// POLaR time.
    pub polar_time: Duration,
}

impl JsRow {
    /// Per-subtest score for score-based suites (work/time; arbitrary
    /// constant, consistent across modes).
    pub fn score(time: Duration) -> f64 {
        100.0 / time.as_secs_f64().max(1e-9)
    }
}

/// Measure one suite's subtests (Figure 7a–d).
pub fn js_rows(suite: js::Suite, reps: u32) -> Vec<JsRow> {
    js::suite(suite)
        .iter()
        .map(|k| {
            let (hardened, _) = instrument(&k.module, &InstrumentOptions::default());
            let (default_time, polar_time) = time_pair(
                (&k.module, RandomizeMode::Native),
                (&hardened, RandomizeMode::per_allocation()),
                &k.input,
                k.limits,
                reps,
            );
            JsRow { suite, name: k.name, default_time, polar_time }
        })
        .collect()
}

/// Table II aggregate for one suite.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Suite.
    pub suite: js::Suite,
    /// Aggregate default result (ms for time suites, score otherwise).
    pub default_result: f64,
    /// Aggregate POLaR result.
    pub polar_result: f64,
}

impl Table2Row {
    /// Difference (POLaR − default).
    pub fn diff(&self) -> f64 {
        self.polar_result - self.default_result
    }

    /// Relative change in percent (sign follows the paper's convention:
    /// positive = slower/worse under POLaR for time suites, negative =
    /// lower score).
    pub fn ratio_pct(&self) -> f64 {
        (self.polar_result / self.default_result - 1.0) * 100.0
    }
}

/// Aggregate subtest rows into the Table II entry for their suite.
pub fn table2_row(rows: &[JsRow]) -> Table2Row {
    let suite = rows.first().expect("non-empty suite").suite;
    if suite.higher_is_better() {
        // Score suites: geometric mean of per-subtest scores.
        let geo = |f: fn(&JsRow) -> f64| {
            let ln_sum: f64 = rows.iter().map(|r| f(r).ln()).sum();
            (ln_sum / rows.len() as f64).exp()
        };
        Table2Row {
            suite,
            default_result: geo(|r| JsRow::score(r.default_time)),
            polar_result: geo(|r| JsRow::score(r.polar_time)),
        }
    } else {
        // Time suites: total milliseconds.
        Table2Row {
            suite,
            default_result: rows.iter().map(|r| r.default_time.as_secs_f64() * 1e3).sum(),
            polar_result: rows.iter().map(|r| r.polar_time.as_secs_f64() * 1e3).sum(),
        }
    }
}

/// One row of the site-density / memory-overhead analysis.
#[derive(Debug, Clone)]
pub struct SitesRow {
    /// Workload name.
    pub name: &'static str,
    /// Static object sites (alloc + gep + copy + free instructions).
    pub object_sites: usize,
    /// Object sites as a fraction of all static instructions.
    pub site_density: f64,
    /// Metadata records after the run (live + retained-freed).
    pub meta_records: usize,
    /// Distinct interned layout plans.
    pub unique_plans: u64,
    /// Metadata records saved by plan dedup.
    pub dedup_saved: u64,
    /// Estimated POLaR bookkeeping bytes at exit.
    pub metadata_bytes: usize,
    /// Peak application heap bytes, for scale.
    pub heap_peak: usize,
}

/// Static site density and runtime metadata footprint for every Figure 6
/// workload (the memory-side companion to the overhead figure).
pub fn sites_rows() -> Vec<SitesRow> {
    polar_workloads::fig6_spec()
        .iter()
        .map(|w| {
            let (hardened, _) = instrument(&w.module, &InstrumentOptions::default());
            let stats = polar_ir::stats::ModuleStats::of(&hardened);
            let mut config = RuntimeConfig::default();
            config.heap.capacity = 512 << 20;
            let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
            let report = run(&hardened, &mut rt, &w.input, w.limits, &mut NopTracer);
            assert!(report.result.is_ok(), "{}: {:?}", w.name, report.result);
            SitesRow {
                name: w.name,
                object_sites: stats.object_sites(),
                site_density: stats.site_density(),
                meta_records: rt.meta_records(),
                unique_plans: report.stats.unique_plans,
                dedup_saved: report.stats.dedup_saved,
                metadata_bytes: rt.estimated_metadata_bytes(),
                heap_peak: rt.heap().stats().bytes_peak,
            }
        })
        .collect()
}

/// Ablation row: a layout policy's entropy and per-operation runtime
/// cost, plus the metadata and trap footprint the mode actually pays
/// (per-mode — stored plans vs derived stateless state).
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Policy label.
    pub label: String,
    /// Analytic entropy (bits) on the row's probe class.
    pub entropy_bits: f64,
    /// Mean `olr_malloc` + `olr_free` cost (nanoseconds).
    pub alloc_ns: f64,
    /// Mean cached `olr_getptr` cost (nanoseconds).
    pub access_ns: f64,
    /// Metadata bytes retained with [`ABLATION_LIVE`] objects live.
    pub metadata_bytes: usize,
    /// Mean armed booby-trap slots per live object (canaried dummies
    /// for stored plans, derived virtual traps for stateless plans).
    pub trap_slots: f64,
}

/// Live objects held when an ablation row samples `metadata_bytes`.
pub const ABLATION_LIVE: u32 = 512;

fn ablation_probe() -> Arc<polar_classinfo::ClassInfo> {
    use polar_classinfo::{ClassDecl, FieldKind};
    let mut b = ClassDecl::builder("AblationProbe");
    b = b.field("vtable", FieldKind::VtablePtr);
    for i in 0..14 {
        b = b.field(format!("f{i}"), FieldKind::I64);
    }
    b = b.field("next", FieldKind::Ptr);
    Arc::new(polar_classinfo::ClassInfo::from_decl(b.build()))
}

/// Sweep layout policies: permutation modes and dummy budgets, measuring
/// the runtime's per-operation costs directly (micro-benchmark; the
/// workload-level numbers live in Figure 6).
pub fn ablation_rows(_reps: u32) -> Vec<AblationRow> {
    use polar_layout::{DummyPolicy, PermuteMode, RandomizationPolicy};
    let probe = ablation_probe();

    let mut policies: Vec<(String, RandomizationPolicy)> = vec![
        ("off".into(), RandomizationPolicy::off()),
        ("randstruct-like".into(), RandomizationPolicy::randstruct_like()),
        ("permute-only".into(), RandomizationPolicy::permute_only()),
        ("default (paper)".into(), RandomizationPolicy::default()),
    ];
    for dummies in [0u32, 2, 4, 8] {
        policies.push((
            format!("permute + {dummies} dummies"),
            RandomizationPolicy {
                permute: PermuteMode::Full,
                dummies: DummyPolicy {
                    min: dummies,
                    max: dummies,
                    size: 8,
                    booby_trap: dummies > 0,
                    guard_pointers: false,
                },
            },
        ));
    }

    const ALLOCS: u32 = 30_000;
    const ACCESSES: u32 = 300_000;

    // One measurement body for every row: time the churn and access
    // loops, then hold ABLATION_LIVE objects and sample what the mode
    // actually stores (metadata bytes + armed trap slots per object).
    let measure = |label: String, entropy_bits: f64, probe: &Arc<polar_classinfo::ClassInfo>,
                   mode: RandomizeMode, mut config: RuntimeConfig| {
        config.heap.capacity = 1 << 30;
        let fields = probe.field_count();
        let mut rt = ObjectRuntime::new(mode, config);
        let start = Instant::now();
        for _ in 0..ALLOCS {
            let a = rt.olr_malloc(probe).expect("alloc");
            rt.olr_free(a).expect("free");
        }
        let alloc_ns = start.elapsed().as_nanos() as f64 / f64::from(ALLOCS);
        let obj = rt.olr_malloc(probe).expect("alloc");
        let start = Instant::now();
        for i in 0..ACCESSES {
            rt.olr_getptr(obj, probe.hash(), (i as usize) % fields).expect("access");
        }
        let access_ns = start.elapsed().as_nanos() as f64 / f64::from(ACCESSES);
        let mut live = vec![obj];
        for _ in 1..ABLATION_LIVE {
            live.push(rt.olr_malloc(probe).expect("alloc"));
        }
        let armed: usize = live
            .iter()
            .map(|&o| {
                rt.object_meta(o).map_or(0, |m| {
                    m.plan.dummies().filter(|d| d.canary.is_some()).count()
                })
            })
            .sum();
        AblationRow {
            label,
            entropy_bits,
            alloc_ns,
            access_ns,
            metadata_bytes: rt.estimated_metadata_bytes(),
            trap_slots: armed as f64 / f64::from(ABLATION_LIVE),
        }
    };

    let mut rows: Vec<AblationRow> = policies
        .into_iter()
        .map(|(label, policy)| {
            let entropy_bits = polar_layout::entropy::layout_entropy_bits(&probe, &policy);
            let mut config = RuntimeConfig::default();
            // Stored-plan rows: the stateless path would shadow the
            // policy under test for small classes (and skips the large
            // probe anyway), so pin it off.
            config.layout = LayoutSource::Pooled;
            measure(label, entropy_bits, &probe, RandomizeMode::PerAllocation { policy }, config)
        })
        .collect();

    // The Section V-B cache ablation: the paper's default policy with the
    // offset-lookup cache disabled.
    {
        let policy = polar_layout::RandomizationPolicy::default();
        let entropy_bits = polar_layout::entropy::layout_entropy_bits(&probe, &policy);
        let mut config = RuntimeConfig::default();
        config.layout = LayoutSource::Pooled;
        config.offset_cache = false;
        rows.push(measure(
            "default, cache OFF".into(),
            entropy_bits,
            &probe,
            RandomizeMode::PerAllocation { policy },
            config,
        ));
    }

    // The stateless derived path (small classes only): pooled stored
    // plans vs derived-with-traps vs derived permute-only, all on the
    // same ≤8-field probe so metadata_bytes and trap columns compare
    // like for like.
    {
        let small = ablation_small_probe();
        let perm_bits = polar_layout::entropy::layout_entropy_bits(
            &small,
            &polar_layout::RandomizationPolicy::permute_only(),
        );
        let stored_bits = polar_layout::entropy::layout_entropy_bits(
            &small,
            &polar_layout::RandomizationPolicy::default(),
        );
        for (label, bits, layout) in [
            ("small: pooled stored", stored_bits, LayoutSource::Pooled),
            ("small: stateless+traps", perm_bits, LayoutSource::Derived),
            ("small: stateless-notraps", perm_bits, LayoutSource::DerivedUntrapped),
        ] {
            let mut config = RuntimeConfig::default();
            config.layout = layout;
            rows.push(measure(
                label.into(),
                bits,
                &small,
                RandomizeMode::per_allocation(),
                config,
            ));
        }
    }
    rows
}

/// A ≤8-field probe the stateless path applies to.
fn ablation_small_probe() -> Arc<polar_classinfo::ClassInfo> {
    use polar_classinfo::{ClassDecl, FieldKind};
    Arc::new(polar_classinfo::ClassInfo::from_decl(
        ClassDecl::builder("AblationSmall")
            .field("vtable", FieldKind::VtablePtr)
            .field("a", FieldKind::I64)
            .field("b", FieldKind::I32)
            .field("c", FieldKind::I32)
            .build(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers_work() {
        let w = polar_workloads::spec::by_name("429.mcf").unwrap();
        let t = time_best(&w.module, RandomizeMode::Native, &w.input, w.limits, 1);
        assert!(t.as_nanos() > 0);
        assert!(overhead_pct(Duration::from_millis(100), Duration::from_millis(105)) > 4.9);
    }

    #[test]
    fn table2_aggregation_shapes() {
        let rows = vec![
            JsRow {
                suite: js::Suite::Kraken,
                name: "a",
                default_time: Duration::from_millis(10),
                polar_time: Duration::from_millis(11),
            },
            JsRow {
                suite: js::Suite::Kraken,
                name: "b",
                default_time: Duration::from_millis(20),
                polar_time: Duration::from_millis(20),
            },
        ];
        let t2 = table2_row(&rows);
        assert!((t2.default_result - 30.0).abs() < 1e-6);
        assert!(t2.diff() > 0.0);
        assert!(t2.ratio_pct() > 0.0);
    }

    #[test]
    fn score_suites_aggregate_geometrically() {
        let rows = vec![JsRow {
            suite: js::Suite::Octane,
            name: "x",
            default_time: Duration::from_millis(10),
            polar_time: Duration::from_millis(20),
        }];
        let t2 = table2_row(&rows);
        assert!(t2.polar_result < t2.default_result, "score drops when slower");
        assert!(t2.ratio_pct() < 0.0);
    }
}
