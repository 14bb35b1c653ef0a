//! Machine-readable runtime-ops benchmark: emits `BENCH_runtime.json`.
//!
//! Measures the POLaR runtime's hot paths (`olr_malloc`/`olr_getptr`/
//! `olr_memcpy`/`olr_free` plus an interpreter member-access loop) and
//! writes one JSON entry per measurement:
//!
//! ```json
//! {"bench": "olr_getptr_cached", "mode": "polar", "ns_per_op": 12.3,
//!  "cache_hit_rate": 0.999, "metadata_bytes": 4096}
//! ```
//!
//! With `--baseline FILE` the entries of an earlier snapshot (same
//! schema, produced by this binary) are merged in under their recorded
//! snapshot label, and the headline `olr_getptr_cached` speedup between
//! the baseline and the current run is computed. This is how the repo
//! records its perf trajectory: `scripts/bench.sh` passes the committed
//! seed-era baseline so every rerun reports progress against PR 1.
//!
//! `--quick` runs every bench body once (no timing claims) so CI can
//! smoke-test that the benches still execute without paying for a full
//! measurement (`scripts/check.sh` uses this).
//!
//! `--gate FILE` runs a reduced-iteration timed measurement of the
//! gated `(bench, mode)` rows (`olr_malloc_free` and
//! `olr_getptr_cached`, each in stateful `polar` and derived
//! `polar-stateless` mode, `olr_malloc_free` with the placement
//! randomization policy armed, the lock-free `olr_getptr_mt4`, and the
//! magazine-path `olr_malloc_free_mt1`/`_mt4`), compares each against
//! the fastest pinned entry for that row in FILE, and exits non-zero
//! on a >25% regression. It also re-measures the pooled/stateless
//! `metadata_bytes` ratio (the Table III claim) and fails if it
//! shrinks >25% below the pinned ratio, re-runs the full-scale
//! session-store workload against its pinned `session_store_p99`
//! (1.5× band — tail latency is scheduler-noisy on shared hosts) and
//! `session_store_meta_per_live` (1.25×) rows, and — on machines that detect
//! ≥4 hardware threads — requires the `olr_malloc_free_mt4` aggregate
//! to stay within 1.5× of `olr_malloc_free_mt1` (the magazine scaling
//! claim; narrower machines print a skip notice instead). This keeps
//! the allocation fast path honest without paying for a full bench
//! run.
//!
//! The `_mtN` rows drive a [`ShardedRuntime`] with N threads; their
//! `ns_per_op` is *aggregate* (wall time ÷ total ops across threads), so
//! on a multi-core host it drops below the single-thread figure as the
//! shards scale, and on a single-vCPU host it reports the runtime's
//! serialization cost honestly. Every entry records the machine's
//! detected parallelism (`std::thread::available_parallelism`) at
//! measurement time; the gate refuses to compare an `_mt*` pin measured
//! on a wider machine than the current one (it prints a skip notice
//! instead of a meaningless FAIL).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use polar_bench::json::{parse_entries, retain_prior, write_entries, Entry};
use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_ir::interp::{run, ExecLimits};
use polar_ir::trace::NopTracer;
use polar_ir::Inst;
use polar_runtime::{
    LayoutSource, ObjectRuntime, RandomizeMode, RuntimeConfig, ShardedRuntime, SiteCache,
};
use polar_workloads::contend::{run_contend, ContendConfig};
use polar_workloads::session_store::{run_session_store, SessionConfig};

/// Hardware threads the OS reports; 1 when detection fails (a container
/// with no affinity information makes no scaling claims).
fn detected_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn probe() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("Probe")
            .field("vtable", FieldKind::VtablePtr)
            .field("a", FieldKind::I64)
            .field("b", FieldKind::I32)
            .field("c", FieldKind::I32)
            .build(),
    ))
}

/// Default-policy config (stateless derivation on for small classes).
fn big_config() -> RuntimeConfig {
    let mut c = RuntimeConfig::default();
    c.heap.capacity = 1 << 30;
    c
}

/// Stateful pooled config: the pre-stateless "polar" rows. Pinned
/// snapshots label these `mode: "polar"`, so the ablation rows that
/// measure the derived path must not leak into them.
fn pooled_config() -> RuntimeConfig {
    let mut c = big_config();
    c.layout = LayoutSource::Pooled;
    c
}

/// The session-store benchmark scale: ≥1M live vtable'd sessions under
/// Zipf-skewed traffic on 8 threads/8 shards (every shard's arena slice
/// is reachable, so the 512 MiB capacity covers the 256 MiB live set
/// with magazine slack). `--quick` shrinks it to a smoke run.
fn session_bench_config(quick: bool) -> SessionConfig {
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

/// Default config with placement randomization on, as the
/// `polar+placement` security column runs (shuffle buffers, guard gaps,
/// arena offset entropy) — what address randomization costs on the
/// allocation path.
fn placement_config() -> RuntimeConfig {
    let mut c = big_config();
    c.heap.placement = polar_simheap::PlacementPolicy::on(0);
    c
}

/// Best-of-`samples` time for `iters` runs of `op`, in ns per op.
fn time_loop(quick: bool, iters: u64, samples: u32, mut op: impl FnMut()) -> f64 {
    if quick {
        op();
        return 0.0;
    }
    // Warmup.
    for _ in 0..iters / 10 + 1 {
        op();
    }
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

fn entry(
    bench: &str,
    mode: &str,
    ns_per_op: f64,
    rt: &ObjectRuntime,
) -> Entry {
    Entry {
        snapshot: "current".to_owned(),
        bench: bench.to_owned(),
        mode: mode.to_owned(),
        ns_per_op,
        cache_hit_rate: rt.stats().cache_hit_ratio(),
        metadata_bytes: rt.estimated_metadata_bytes(),
        quick: false,
        parallelism: detected_parallelism(),
    }
}

/// An `_mtN`-style entry over a sharded runtime.
fn mt_entry(bench: String, ns_per_op: f64, rt: &ShardedRuntime) -> Entry {
    Entry {
        snapshot: "current".to_owned(),
        bench,
        mode: "polar".to_owned(),
        ns_per_op,
        cache_hit_rate: rt.stats().cache_hit_ratio(),
        metadata_bytes: rt.estimated_metadata_bytes(),
        quick: false,
        parallelism: detected_parallelism(),
    }
}

/// Best-of-`samples` aggregate ns/op for `threads` workers each running
/// `body(thread, iters)` concurrently against a shared runtime.
fn time_mt(
    quick: bool,
    threads: u64,
    iters: u64,
    samples: u32,
    body: &(dyn Fn(u64, u64) + Sync),
) -> f64 {
    let run_once = |n: u64| -> f64 {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || body(t, n));
            }
        });
        t0.elapsed().as_nanos() as f64 / (threads * n) as f64
    };
    if quick {
        run_once(1);
        return 0.0;
    }
    run_once(iters / 10 + 1); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        best = best.min(run_once(iters));
    }
    best
}

fn run_benches(quick: bool) -> Vec<Entry> {
    let info = probe();
    let mut out = Vec::new();
    let samples = 5;

    // alloc + free pair, per-allocation (stateful pooled) and static
    // OLR.
    for (mode, label) in [
        (RandomizeMode::per_allocation(), "polar"),
        (RandomizeMode::static_olr(7), "static-olr"),
    ] {
        let mut rt = ObjectRuntime::new(mode, pooled_config());
        let ns = time_loop(quick, 200_000, samples, || {
            let a = rt.olr_malloc(&info).expect("alloc");
            rt.olr_free(a).expect("free");
        });
        out.push(entry("olr_malloc_free", label, ns, &rt));
    }

    // Ablations of the allocation fast path: pool disabled (every
    // allocation regenerates its stored plan), the derived stateless
    // path with virtual traps (the small-class default), and the
    // permute-only variant (no traps, pure Feistel layout).
    for (label, cfg) in [
        ("polar-unpooled", {
            let mut c = big_config();
            c.layout = LayoutSource::Fresh;
            c
        }),
        ("polar-stateless", big_config()),
        ("stateless-notraps", {
            let mut c = big_config();
            c.layout = LayoutSource::DerivedUntrapped;
            c
        }),
        ("polar-placement", placement_config()),
    ] {
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), cfg);
        let ns = time_loop(quick, 200_000, samples, || {
            let a = rt.olr_malloc(&info).expect("alloc");
            rt.olr_free(a).expect("free");
        });
        out.push(entry("olr_malloc_free", label, ns, &rt));
    }

    // The headline: cache-warm member access on a single hot object —
    // stateful pooled plans, then the derived stateless plan (same op,
    // plan registered and the slot record warm after the first access,
    // so warm cost must land within a few percent).
    for (label, cfg) in [
        ("polar", pooled_config()),
        ("polar-stateless", big_config()),
    ] {
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), cfg);
        let obj = rt.olr_malloc(&info).expect("alloc");
        rt.olr_getptr(obj, info.hash(), 1).expect("warm");
        let hash = info.hash();
        let ns = time_loop(quick, 2_000_000, samples, || {
            rt.olr_getptr(obj, hash, 1).expect("access");
        });
        out.push(entry("olr_getptr_cached", label, ns, &rt));
    }

    // Offset cache disabled (the paper's Section V-B ablation).
    {
        let mut config = pooled_config();
        config.offset_cache = false;
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), config);
        let obj = rt.olr_malloc(&info).expect("alloc");
        let hash = info.hash();
        let ns = time_loop(quick, 2_000_000, samples, || {
            rt.olr_getptr(obj, hash, 1).expect("access");
        });
        out.push(entry("olr_getptr_cold", "polar", ns, &rt));
    }

    // Member access round-robin over many live objects: stresses the
    // metadata *lookup* structure rather than one hot entry.
    {
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), pooled_config());
        let objs: Vec<_> = (0..256)
            .map(|_| rt.olr_malloc(&info).expect("alloc"))
            .collect();
        for &o in &objs {
            rt.olr_getptr(o, info.hash(), 1).expect("warm");
        }
        let hash = info.hash();
        let mut i = 0usize;
        let ns = time_loop(quick, 2_000_000, samples, || {
            let o = objs[i & 255];
            i = i.wrapping_add(1);
            rt.olr_getptr(o, hash, 1).expect("access");
        });
        out.push(entry("olr_getptr_many_objects", "polar", ns, &rt));
    }

    // read_field: getptr + metadata width lookup + heap load.
    {
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), pooled_config());
        let obj = rt.olr_malloc(&info).expect("alloc");
        rt.write_field(obj, info.hash(), 1, 42).expect("write");
        let hash = info.hash();
        let ns = time_loop(quick, 2_000_000, samples, || {
            rt.read_field(obj, hash, 1).expect("read");
        });
        out.push(entry("read_field_cached", "polar", ns, &rt));
    }

    // Object copy with re-randomization.
    {
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), pooled_config());
        let src = rt.olr_malloc(&info).expect("alloc");
        let dst = rt.malloc_raw(128).expect("alloc");
        let ns = time_loop(quick, 200_000, samples, || {
            rt.olr_memcpy(dst, src, &info).expect("copy");
        });
        out.push(entry("olr_memcpy", "polar", ns, &rt));
    }

    // Interpreter loop: OlrGetptr + Load per iteration, through the IR
    // machine — exercises the per-GEP-site inline caches.
    {
        let (module, inner_iters) = interp_loop_module();
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), pooled_config());
        let quick_iters = if quick { 1 } else { 20 };
        let mut best = f64::INFINITY;
        for _ in 0..quick_iters {
            let t0 = Instant::now();
            let report = run(&module, &mut rt, &[], ExecLimits::default(), &mut NopTracer);
            let dt = t0.elapsed().as_nanos() as f64;
            assert!(report.result.is_ok(), "interp loop failed: {:?}", report.result);
            best = best.min(dt / inner_iters as f64);
        }
        out.push(entry(
            "interp_getptr_loop",
            "polar",
            if quick { 0.0 } else { best },
            &rt,
        ));
    }

    // Sharded runtime, N threads of malloc+free on their own handles —
    // the magazine front-end's home turf: pops and lock-free free
    // claims in the loop, the shard mutex only every `batch` ops. The
    // mt1 row anchors the speedup-vs-threads curve (and the gate's
    // mt4 ≤ 1.5 × mt1 scaling claim); each handle's home shard is
    // distinct, so the only shared state is the striped locks and the
    // runtime's atomic stats sheet.
    for threads in [1u64, 2, 4, 8] {
        let rt = ShardedRuntime::new(
            RandomizeMode::per_allocation(),
            pooled_config(),
            threads as usize,
        );
        let ns = time_mt(quick, threads, 50_000, samples, &|t, n| {
            let mut h = rt.handle(t);
            for _ in 0..n {
                let a = h.olr_malloc(&info).expect("alloc");
                h.olr_free(a).expect("free");
            }
        });
        out.push(mt_entry(format!("olr_malloc_free_mt{threads}"), ns, &rt));
    }

    // The speedup-vs-threads curve: N threads each hammering cached
    // member access on their own hot object through a per-thread
    // [`ShardHandle`] with a per-site inline cache — the shape
    // instrumented GEP sites actually execute (the interpreter calls
    // `olr_getptr_ic` with a per-site cache from a thread handle). The
    // handle counts shapes into a plain per-thread sheet (flushed when
    // it drops, inside the timed region), so the loop carries no
    // per-op atomic RMW; the reads resolve on the optimistic seqlock
    // path and adding threads must not serialize on the shard mutexes —
    // the curve is the evidence (read it next to each row's recorded
    // `parallelism`).
    for threads in [1u64, 2, 4, 8] {
        let rt = ShardedRuntime::new(
            RandomizeMode::per_allocation(),
            pooled_config(),
            threads.max(2) as usize,
        );
        let objs: Vec<_> = (0..threads)
            .map(|t| {
                let mut h = rt.handle(t);
                let obj = h.olr_malloc(&info).expect("alloc");
                h.olr_getptr(obj, info.hash(), 1).expect("warm");
                obj
            })
            .collect();
        let hash = info.hash();
        let ns = time_mt(quick, threads, 500_000, samples, &|t, n| {
            let mut h = rt.handle(t);
            let obj = objs[t as usize];
            let mut ic = SiteCache::empty();
            for _ in 0..n {
                h.olr_getptr_ic(obj, hash, 1, &mut ic).expect("access");
            }
        });
        out.push(mt_entry(format!("olr_getptr_mt{threads}"), ns, &rt));
    }

    // Same shape through read_field: snapshot + validated heap load.
    {
        let threads = 4u64;
        let rt = ShardedRuntime::new(
            RandomizeMode::per_allocation(),
            pooled_config(),
            threads as usize,
        );
        let objs: Vec<_> = (0..threads)
            .map(|t| {
                let mut h = rt.handle(t);
                let obj = h.olr_malloc(&info).expect("alloc");
                h.write_field(obj, info.hash(), 1, 42).expect("init");
                obj
            })
            .collect();
        let hash = info.hash();
        let ns = time_mt(quick, threads, 500_000, samples, &|t, n| {
            let mut h = rt.handle(t);
            let obj = objs[t as usize];
            for _ in 0..n {
                h.read_field(obj, hash, 1).expect("read");
            }
        });
        out.push(mt_entry("read_field_mt4".to_owned(), ns, &rt));
    }

    // Mixed 90/10 read/write contention over one shared object set (the
    // polar-workloads contend mix): readers race the writers' seqlock
    // windows, so this row includes genuine retry/fallback traffic.
    {
        let threads = 4u64;
        let ops = if quick { 100 } else { 100_000 };
        let cfg = ContendConfig {
            threads,
            ops_per_thread: ops,
            write_pct: 10,
            ..Default::default()
        };
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..if quick { 1 } else { samples } {
            let t0 = Instant::now();
            let report = run_contend(RandomizeMode::per_allocation(), cfg);
            let dt = t0.elapsed().as_nanos() as f64;
            best = best.min(dt / (threads * ops) as f64);
            last = Some(report);
        }
        let report = last.expect("contend ran");
        out.push(Entry {
            snapshot: "current".to_owned(),
            bench: "mixed_rw_mt4".to_owned(),
            mode: "polar".to_owned(),
            ns_per_op: if quick { 0.0 } else { best },
            cache_hit_rate: report.stats.cache_hit_ratio(),
            metadata_bytes: report.metadata_bytes,
            quick: false,
            parallelism: detected_parallelism(),
        });
    }

    // Session store: ≥1M live objects, Zipf-keyed read/write/refresh
    // traffic, oracle-verified reads. One full run yields the latency
    // distribution and the footprint, reported as four rows:
    // `session_store_p{50,99,999}` carry the traffic-op latency
    // percentile in `ns_per_op`, and `session_store_meta_per_live`
    // carries POLaR bookkeeping **bytes per live session** in
    // `ns_per_op` (the units are bytes, not nanoseconds — the field is
    // just the gated scalar; the pinned gate fails if it grows >25%).
    // `cache_hit_rate` on these rows is the magazine hit rate.
    {
        let cfg = session_bench_config(quick);
        let live = cfg.sessions;
        let r = run_session_store(RandomizeMode::per_allocation(), cfg);
        assert_eq!(r.live_objects, live, "session store lost sessions");
        let total_meta = (r.metadata_bytes_per_live * r.live_objects as f64) as usize;
        for (bench, value) in [
            ("session_store_p50", r.p50_ns as f64),
            ("session_store_p99", r.p99_ns as f64),
            ("session_store_p999", r.p999_ns as f64),
            ("session_store_meta_per_live", r.metadata_bytes_per_live),
        ] {
            out.push(Entry {
                snapshot: "current".to_owned(),
                bench: bench.to_owned(),
                mode: "polar".to_owned(),
                ns_per_op: if quick { 0.0 } else { value },
                cache_hit_rate: Some(r.magazine_hit_rate),
                metadata_bytes: total_meta,
                quick: false,
                parallelism: detected_parallelism(),
            });
        }
    }

    out
}

/// Reduced-iteration timed measurements of the gated hot paths.
/// Cheaper than `run_benches` (seconds, not minutes) but still real
/// measurements, unlike `--quick`. Each closure is only invoked when
/// the gate decides the pin is comparable on this machine.
fn gate_measurements() -> Vec<(&'static str, &'static str, Box<dyn FnOnce() -> f64>)> {
    // Best-of-8 over short loops: cheap (tens of ms total) but stable
    // enough that scheduler noise doesn't trip the 25% tolerance.
    let samples = 8;

    let malloc_free = |cfg: RuntimeConfig| {
        Box::new(move || {
            let info = probe();
            let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), cfg);
            time_loop(false, 40_000, samples, || {
                let a = rt.olr_malloc(&info).expect("alloc");
                rt.olr_free(a).expect("free");
            })
        })
    };

    let getptr_cached = |cfg: RuntimeConfig| {
        Box::new(move || {
            let info = probe();
            let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), cfg);
            let obj = rt.olr_malloc(&info).expect("alloc");
            let hash = info.hash();
            rt.olr_getptr(obj, hash, 1).expect("warm");
            time_loop(false, 500_000, samples, || {
                rt.olr_getptr(obj, hash, 1).expect("access");
            })
        })
    };

    // The lock-free read path, same shape as the olr_getptr_mt4 bench
    // row but with reduced iterations.
    let getptr_mt4 = Box::new(move || {
        let info = probe();
        let threads = 4u64;
        let rt = ShardedRuntime::new(
            RandomizeMode::per_allocation(),
            pooled_config(),
            threads as usize,
        );
        let objs: Vec<_> = (0..threads)
            .map(|t| {
                let mut h = rt.handle(t);
                let obj = h.olr_malloc(&info).expect("alloc");
                h.olr_getptr(obj, info.hash(), 1).expect("warm");
                obj
            })
            .collect();
        let hash = info.hash();
        // Full bench-row iteration count and double the samples: at
        // reduced iterations the thread spawn/join overhead dominates
        // the ~8 ns op, and on a shared single-vCPU host whole samples
        // get stolen by ambient load — best-of-16 only needs one clean
        // window to measure the true cost.
        time_mt(false, threads, 500_000, samples * 2, &|t, n| {
            let mut h = rt.handle(t);
            let obj = objs[t as usize];
            let mut ic = SiteCache::empty();
            for _ in 0..n {
                h.olr_getptr_ic(obj, hash, 1, &mut ic).expect("access");
            }
        })
    });

    vec![
        (
            "olr_malloc_free",
            "polar",
            malloc_free(pooled_config()) as Box<dyn FnOnce() -> f64>,
        ),
        ("olr_malloc_free", "polar-stateless", malloc_free(big_config())),
        ("olr_malloc_free", "polar-placement", malloc_free(placement_config())),
        ("olr_getptr_cached", "polar", getptr_cached(pooled_config())),
        ("olr_getptr_cached", "polar-stateless", getptr_cached(big_config())),
        ("olr_getptr_mt4", "polar", getptr_mt4),
        (
            "olr_malloc_free_mt1",
            "polar",
            Box::new(|| measure_malloc_free_mt(1)),
        ),
        (
            "olr_malloc_free_mt4",
            "polar",
            Box::new(|| measure_malloc_free_mt(4)),
        ),
    ]
}

/// The magazine-path malloc/free aggregate at the bench rows' own
/// iteration count (the loop is the measurement; spawn/join overhead
/// amortizes over 50k pairs). Used both for the generic pin-compares
/// and the mt4-vs-mt1 scaling ratio.
fn measure_malloc_free_mt(threads: u64) -> f64 {
    let info = probe();
    let rt = ShardedRuntime::new(
        RandomizeMode::per_allocation(),
        pooled_config(),
        threads as usize,
    );
    time_mt(false, threads, 50_000, 16, &|t, n| {
        let mut h = rt.handle(t);
        for _ in 0..n {
            let a = h.olr_malloc(&info).expect("alloc");
            h.olr_free(a).expect("free");
        }
    })
}

/// The Table III claim, measured: metadata bytes under the stateful
/// pooled config vs the derived stateless config, after the *same*
/// malloc/free churn the pinned `olr_malloc_free` rows ran (the
/// `time_loop(.., 200_000, 5, ..)` shape: warmup plus 5 samples —
/// 1,020,001 alloc/free pairs). Methodology matters here: under churn
/// the pooled interner keeps absorbing fresh pool plans while the
/// stateless interner is capped at the class's `n!` derived layouts, so
/// the pinned ratio is only reproducible by churning the same amount —
/// a live-population measurement would be dominated by the slot records
/// both modes share and gate nothing. Returns (pooled, stateless).
fn gate_metadata_bytes() -> (usize, usize) {
    const CHURN: usize = 200_000 / 10 + 1 + 5 * 200_000;
    let info = probe();
    let run = |cfg: RuntimeConfig| -> usize {
        let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), cfg);
        for _ in 0..CHURN {
            let a = rt.olr_malloc(&info).expect("alloc");
            rt.olr_free(a).expect("free");
        }
        rt.estimated_metadata_bytes()
    };
    (run(pooled_config()), run(big_config()))
}

/// `--gate FILE`: fail (exit 1) if any gated bench regresses >25%
/// against the fastest pinned polar-mode entry for it in FILE. A pin
/// measured with more hardware parallelism than this machine detects is
/// skipped with a notice — an `_mt*` scaling claim from a wider box
/// cannot be honestly re-checked on a narrower one.
fn run_gate(pin_path: &str) -> i32 {
    const TOLERANCE: f64 = 1.25;
    let text = match std::fs::read_to_string(pin_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gate: cannot read pin file {pin_path}: {e}");
            return 2;
        }
    };
    let pins = parse_entries(&text, "pinned");
    let here = detected_parallelism();
    let mut failed = false;
    for (bench, mode, measure) in gate_measurements() {
        let pinned = pins
            .iter()
            .filter(|e| e.bench == bench && e.mode == mode && e.ns_per_op > 0.0)
            .min_by(|a, b| a.ns_per_op.total_cmp(&b.ns_per_op));
        let Some(pin) = pinned else {
            eprintln!("gate: no pinned {mode} entry for {bench} in {pin_path}, skipping");
            continue;
        };
        if pin.parallelism > here {
            eprintln!(
                "gate: {bench}/{mode}: pin measured with parallelism {}, this machine \
                 detects {here} — skipping (scaling claim not comparable)",
                pin.parallelism
            );
            continue;
        }
        let measured = measure();
        let limit = pin.ns_per_op * TOLERANCE;
        let verdict = if measured > limit { "FAIL" } else { "ok" };
        eprintln!(
            "gate: {bench}/{mode}: {measured:.2} ns/op (pinned {:.2}, limit {limit:.2}) {verdict}",
            pin.ns_per_op
        );
        if measured > limit {
            failed = true;
        }
    }
    // Metadata gate: the stateless path's raison d'être is the Table III
    // metadata reduction. Re-measure the pooled/stateless byte ratio
    // under the pinned rows' own churn workload and require it to stay
    // within TOLERANCE of the ratio those rows recorded.
    let pin_meta = |mode: &str| {
        pins.iter()
            .find(|e| e.bench == "olr_malloc_free" && e.mode == mode && e.metadata_bytes > 0)
            .map(|e| e.metadata_bytes as f64)
    };
    match (pin_meta("polar"), pin_meta("polar-stateless")) {
        (Some(pool_pin), Some(sl_pin)) => {
            let pinned_ratio = pool_pin / sl_pin;
            let (pool_now, sl_now) = gate_metadata_bytes();
            let ratio = pool_now as f64 / sl_now.max(1) as f64;
            let floor = pinned_ratio / TOLERANCE;
            let verdict = if ratio < floor { "FAIL" } else { "ok" };
            eprintln!(
                "gate: metadata_bytes ratio pooled/stateless: {ratio:.1}x \
                 ({pool_now}/{sl_now} B; pinned {pinned_ratio:.1}x, floor {floor:.1}x) {verdict}"
            );
            if ratio < floor {
                failed = true;
            }
        }
        _ => eprintln!(
            "gate: no pinned metadata_bytes for olr_malloc_free polar+polar-stateless, \
             skipping metadata ratio check"
        ),
    }
    // Magazine scaling claim: with ≥4 hardware threads the mt4
    // aggregate must stay within 1.5× of mt1 — the front-end's whole
    // point is that adding threads costs magazine pops and lock-free
    // claims, not shard-mutex convoys. A narrower machine cannot
    // re-check the claim (4 workers on 1 vCPU measure the scheduler,
    // not the allocator), so it skips with a notice, same as an
    // over-pinned `_mt*` row.
    if here >= 4 {
        let mt1 = measure_malloc_free_mt(1);
        let mt4 = measure_malloc_free_mt(4);
        let limit = mt1 * 1.5;
        let verdict = if mt4 > limit { "FAIL" } else { "ok" };
        eprintln!(
            "gate: olr_malloc_free_mt4 scaling: {mt4:.2} ns/op aggregate vs mt1 \
             {mt1:.2} (limit 1.5x = {limit:.2}) {verdict}"
        );
        if mt4 > limit {
            failed = true;
        }
    } else {
        eprintln!(
            "gate: olr_malloc_free_mt4 scaling: this machine detects parallelism \
             {here} < 4 — skipping the mt4 <= 1.5x mt1 check (scaling claim not \
             measurable here)"
        );
    }
    // Session-store gate: one full-scale run (≥1M live sessions) checked
    // against the pinned p99 latency and metadata-bytes-per-live rows.
    // Both scalars ride in `ns_per_op` (the meta row's units are bytes);
    // both fail on >25% growth. Skipped with a notice when the pin was
    // measured on a wider machine or no pin exists yet.
    {
        fn comparable_pin<'a>(
            pins: &'a [Entry],
            bench: &str,
            here: usize,
            pin_path: &str,
        ) -> Option<&'a Entry> {
            let pin = pins
                .iter()
                .filter(|e| e.bench == bench && e.mode == "polar" && e.ns_per_op > 0.0)
                .min_by(|a, b| a.ns_per_op.total_cmp(&b.ns_per_op));
            match pin {
                None => {
                    eprintln!("gate: no pinned polar entry for {bench} in {pin_path}, skipping");
                    None
                }
                Some(p) if p.parallelism > here => {
                    eprintln!(
                        "gate: {bench}: pin measured with parallelism {}, this machine \
                         detects {here} — skipping (latency claim not comparable)",
                        p.parallelism
                    );
                    None
                }
                some => some,
            }
        }
        let p99_pin = comparable_pin(&pins, "session_store_p99", here, pin_path);
        let meta_pin = comparable_pin(&pins, "session_store_meta_per_live", here, pin_path);
        if p99_pin.is_some() || meta_pin.is_some() {
            let r = run_session_store(RandomizeMode::per_allocation(), session_bench_config(false));
            // The p99 gets a looser 1.5× tolerance than the throughput
            // rows: a tail-latency percentile on a shared host is
            // scheduler-dominated (observed run-to-run spread ~1.4× on
            // a single vCPU), so the 25% band would flake. The
            // metadata-per-live figure is deterministic per seed and
            // keeps the tight band.
            const P99_TOLERANCE: f64 = 1.5;
            for (pin, bench, measured, tolerance) in [
                (p99_pin, "session_store_p99", r.p99_ns as f64, P99_TOLERANCE),
                (meta_pin, "session_store_meta_per_live", r.metadata_bytes_per_live, TOLERANCE),
            ] {
                let Some(pin) = pin else { continue };
                let limit = pin.ns_per_op * tolerance;
                let verdict = if measured > limit { "FAIL" } else { "ok" };
                eprintln!(
                    "gate: {bench}: {measured:.2} (pinned {:.2}, limit {limit:.2}) {verdict}",
                    pin.ns_per_op
                );
                if measured > limit {
                    failed = true;
                }
            }
        }
    }
    if failed {
        eprintln!("gate: perf regression >25% vs {pin_path}");
        1
    } else {
        0
    }
}

/// Build a module whose entry allocates one object and then runs a tight
/// loop of `OlrGetptr` + `Load` on it; returns the loop trip count.
fn interp_loop_module() -> (polar_ir::Module, u64) {
    use polar_ir::builder::ModuleBuilder;
    use polar_ir::{BinOp, CmpOp};

    const ITERS: u64 = 1_000_000;
    let mut mb = ModuleBuilder::new("bench_interp_loop");
    let class = mb
        .add_class(
            ClassDecl::builder("Probe")
                .field("vtable", FieldKind::VtablePtr)
                .field("a", FieldKind::I64)
                .field("b", FieldKind::I32)
                .field("c", FieldKind::I32)
                .build(),
        )
        .expect("class");
    let mut f = mb.function("main", 0);
    let bb = f.entry_block();
    let body = f.block();
    let done = f.block();
    let obj = f.reg();
    f.push(bb, Inst::OlrMalloc { dst: obj, class });
    let i = f.const_(bb, 0);
    let acc = f.const_(bb, 0);
    f.jmp(bb, body);
    let one = f.const_(body, 1);
    let h = f.reg();
    f.push(body, Inst::OlrGetptr { dst: h, obj, class, field: 1 });
    let v = f.load(body, h, 8);
    let acc2 = f.bin(body, BinOp::Add, acc, v);
    f.mov_to(body, acc, acc2);
    let i2 = f.bin(body, BinOp::Add, i, one);
    f.mov_to(body, i, i2);
    let cond = f.cmpi(body, CmpOp::Lt, i, ITERS);
    f.br(body, cond, body, done);
    f.ret(done, Some(acc));
    mb.finish_function(f);
    (mb.build().expect("module"), ITERS)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut quick = false;
    let mut baseline: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut snapshot = "current".to_owned();
    let mut gate: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--baseline" => {
                i += 1;
                baseline = Some(args[i].clone());
            }
            "--gate" => {
                i += 1;
                gate = Some(args[i].clone());
            }
            "--out" => {
                i += 1;
                out_path = Some(args[i].clone());
            }
            "--snapshot" => {
                i += 1;
                snapshot = args[i].clone();
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_json [--quick] [--snapshot LABEL] \
                     [--baseline FILE] [--out FILE] [--gate PINFILE]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(pin) = gate {
        std::process::exit(run_gate(&pin));
    }

    let mut current = run_benches(quick);
    for e in &mut current {
        e.snapshot = snapshot.clone();
        e.quick = quick;
    }

    // Merge in prior snapshots under the like-for-like rule: a full run
    // replaces all rows with its label, a quick run replaces only prior
    // quick rows (it must never clobber a real measurement).
    let baseline_entries: Vec<Entry> = match &baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => retain_prior(parse_entries(&text, "seed"), &snapshot, quick),
            Err(e) => {
                eprintln!("warning: cannot read baseline {path}: {e}");
                Vec::new()
            }
        },
        None => Vec::new(),
    };

    // Headline: speedup of the cache-warm getptr loop vs the baseline.
    let headline = |entries: &[Entry]| -> Option<f64> {
        entries
            .iter()
            .find(|e| e.bench == "olr_getptr_cached" && e.mode == "polar" && !e.quick)
            .map(|e| e.ns_per_op)
    };
    let speedup = match (headline(&baseline_entries), headline(&current)) {
        (Some(before), Some(after)) if after > 0.0 && !quick => Some(before / after),
        _ => None,
    };

    let mut buf = String::new();
    buf.push_str("{\n");
    let _ = writeln!(
        buf,
        "  \"schema\": \"polar-bench/runtime-ops/v2 \
         {{bench, mode, ns_per_op, cache_hit_rate, metadata_bytes, quick, parallelism}}\","
    );
    let _ = writeln!(buf, "  \"quick\": {quick},");
    match speedup {
        Some(s) => {
            let _ = writeln!(buf, "  \"speedup_olr_getptr_cached\": {s:.2},");
        }
        None => {
            let _ = writeln!(buf, "  \"speedup_olr_getptr_cached\": null,");
        }
    }
    buf.push_str("  \"entries\": [\n");
    let mut all = baseline_entries;
    all.extend(current);
    write_entries(&mut buf, &all);
    buf.push_str("  ]\n}\n");

    match out_path {
        Some(path) => {
            std::fs::write(&path, &buf).expect("write output");
            eprintln!("wrote {path}");
            if let Some(s) = speedup {
                eprintln!("olr_getptr_cached speedup vs baseline: {s:.2}x");
            }
        }
        None => print!("{buf}"),
    }
}
