//! Regenerate every table and figure of the POLaR paper.
//!
//! ```text
//! cargo run --release -p polar-bench --bin tables -- all
//! cargo run --release -p polar-bench --bin tables -- fig6 table2 ...
//! ```
//!
//! Experiments: `fig2 table1 fig6 table2 fig7 table3 table4 compat
//! security adaptive placement ablation` (or `all`). See EXPERIMENTS.md
//! for the paper-vs-measured discussion.

use std::collections::HashSet;
use std::time::Duration;

use polar_attacks::harness::{trials, Attacker, Defense};
use polar_attacks::search::{scorecard, CampaignBudget, SecMode};
use polar_attacks::{cve, diversity, scenarios};
use polar_bench::{
    ablation_rows, fig6_rows, js_rows, sites_rows, table1_rows, table2_row, table3_rows,
    JsRow,
};
use polar_instrument::{check_compatibility, instrument, InstrumentOptions};
use polar_ir::interp::{run_native, run_with_mode, ExecLimits};
use polar_runtime::{RandomizeMode, RuntimeConfig, RuntimeError, ShardedRuntime};
use polar_workloads::{gc, js};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn heading(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

fn fig2() {
    heading("Figure 2 — layout diversity: native vs compile-time OLR vs POLaR");
    println!("(64 instances of one class, two simulated executions)\n");
    for row in diversity::figure2(64) {
        println!("  {row}");
    }
    println!("\n  native:     one layout, always (Figure 1's fixed constants)");
    println!("  static OLR: one layout per binary, identical on re-execution");
    println!("  POLaR:      fresh layout per allocation AND per execution");
}

fn table1() {
    heading("Table I — objects reported by TaintClass");
    println!("{:<22} {:>10}   sample tainted classes", "App", "# tainted");
    println!("{}", "-".repeat(72));
    for row in table1_rows() {
        println!(
            "{:<22} {:>10}   {}",
            row.name,
            row.tainted,
            if row.samples.is_empty() { "-".to_owned() } else { row.samples.join(", ") }
        );
    }
}

fn fig6(reps: u32) {
    heading("Figure 6 — SPEC2006 performance overhead of POLaR");
    println!(
        "{:<16} {:>12} {:>12} {:>10}",
        "App", "native (ms)", "POLaR (ms)", "overhead"
    );
    println!("{}", "-".repeat(54));
    let rows = fig6_rows(reps);
    for r in &rows {
        println!(
            "{:<16} {:>12.2} {:>12.2} {:>9.1}%",
            r.name,
            ms(r.native),
            ms(r.polar),
            r.overhead
        );
    }
    let worst = rows.iter().max_by(|a, b| a.overhead.total_cmp(&b.overhead)).unwrap();
    let mean = rows.iter().map(|r| r.overhead).sum::<f64>() / rows.len() as f64;
    println!("{}", "-".repeat(54));
    println!("mean overhead {:.1}%; worst: {} at {:.1}%", mean, worst.name, worst.overhead);
}

fn js_tables(reps: u32) -> Vec<Vec<JsRow>> {
    [js::Suite::Sunspider, js::Suite::Kraken, js::Suite::Octane, js::Suite::Jetstream]
        .into_iter()
        .map(|s| js_rows(s, reps))
        .collect()
}

fn table2(all_rows: &[Vec<JsRow>]) {
    heading("Table II — ChakraCore benchmark aggregate (default vs POLaR)");
    println!(
        "{:<12} {:>14} {:>14} {:>10} {:>8}",
        "Benchmark", "Default", "POLaR", "DIFF", "Ratio"
    );
    println!("{}", "-".repeat(62));
    for rows in all_rows {
        let t2 = table2_row(rows);
        let unit = if t2.suite.higher_is_better() { "(score)" } else { "(ms)" };
        println!(
            "{:<12} {:>12.1} {} {:>9.1} {} {:>10.1} {:>7.2}%",
            t2.suite.name(),
            t2.default_result,
            unit,
            t2.polar_result,
            unit,
            t2.diff(),
            t2.ratio_pct()
        );
    }
    println!("\n* Sunspider, Kraken: smaller is better (time); Octane, JetStream: score");
}

fn fig7(all_rows: &[Vec<JsRow>]) {
    heading("Figure 7 — per-subtest JS benchmark results (default vs POLaR)");
    for rows in all_rows {
        let suite = rows[0].suite;
        println!("\n-- {} --", suite.name());
        if suite.higher_is_better() {
            println!("{:<28} {:>12} {:>12}", "subtest", "default", "POLaR");
            for r in rows {
                println!(
                    "{:<28} {:>12.1} {:>12.1}",
                    r.name,
                    JsRow::score(r.default_time),
                    JsRow::score(r.polar_time)
                );
            }
        } else {
            println!("{:<28} {:>12} {:>12}", "subtest", "default ms", "POLaR ms");
            for r in rows {
                println!(
                    "{:<28} {:>12.2} {:>12.2}",
                    r.name,
                    ms(r.default_time),
                    ms(r.polar_time)
                );
            }
        }
    }
}

fn table3() {
    heading("Table III — object events against randomized objects (POLaR build)");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>12} {:>12} {:>7} {:>10} {:>8}",
        "App", "Alloc", "Free", "Memcpy", "Member acc", "Cache hit", "hit %", "Pool hit", "refills"
    );
    println!("{}", "-".repeat(104));
    for row in table3_rows() {
        let s = row.stats;
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>12} {:>12} {:>6.1}% {:>10} {:>8}",
            row.name,
            s.allocations,
            s.frees,
            s.memcpys,
            s.member_accesses,
            s.cache_hits,
            s.cache_hit_ratio().unwrap_or(0.0) * 100.0,
            s.pool_hits,
            s.pool_refills
        );
    }
}

fn table4() {
    heading("Table IV — TaintClass discovery of exploit-related libpng objects");
    println!("(six planted minipng CVEs; ground truth = objects each exploit abuses)\n");
    for row in cve::table4() {
        println!("  {row}");
    }
    println!("\nExploit outcomes (native vs POLaR build):");
    for eval in cve::evaluate_all(0xD511) {
        println!("  {eval}");
    }
}

fn compat() {
    heading("Compatibility (Section V-A) — mark-sweep GC works, Orinoco-style fails");
    for (name, module) in
        [("chakra-style mark-sweep", gc::mark_sweep()), ("v8-style orinoco", gc::orinoco_like())]
    {
        let warnings = check_compatibility(&module);
        let native = run_native(&module, &[], ExecLimits::default());
        let (hardened, _) = instrument(&module, &InstrumentOptions::default());
        let polar = run_with_mode(
            &hardened,
            RandomizeMode::per_allocation(),
            RuntimeConfig::default(),
            &[],
            ExecLimits::default(),
        );
        let compatible = match (&native.result, &polar.result) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        };
        println!(
            "  {:<26} {:>3} pass warnings; instrumented run {}",
            name,
            warnings.len(),
            if compatible { "MATCHES native (compatible)" } else { "DIVERGES (incompatible)" }
        );
    }
}

fn security() {
    heading("Security (Section III) — attack trials across defenses");
    println!(
        "{:<16} {:<18} {:<14} {:>9} {:>9} {:>12}",
        "attack", "defense", "attacker", "hijack %", "detect %", "determinism"
    );
    println!("{}", "-".repeat(84));
    for s in scenarios::all() {
        let configs: Vec<(&str, Box<dyn Fn(u64) -> Defense>, Attacker)> = vec![
            ("native", Box::new(|_| Defense::Native), Attacker::BinaryAware),
            (
                "static-olr",
                Box::new(|_| Defense::StaticOlr { binary_seed: 0xB1A5 }),
                Attacker::NaturalLayout,
            ),
            (
                "static-olr",
                Box::new(|_| Defense::StaticOlr { binary_seed: 0xB1A5 }),
                Attacker::BinaryAware,
            ),
            ("polar", Box::new(|t| Defense::polar(0x9000 + t)), Attacker::BinaryAware),
            (
                "polar(no-detect)",
                Box::new(|t| Defense::Polar { process_seed: 0xA000 + t, detect: false }),
                Attacker::BinaryAware,
            ),
            (
                "polar-stateless",
                Box::new(|t| Defense::polar_stateless(0xB000 + t)),
                Attacker::BinaryAware,
            ),
            (
                "stateless-notraps",
                Box::new(|t| Defense::polar_stateless_notraps(0xB800 + t)),
                Attacker::BinaryAware,
            ),
            ("sharded", Box::new(|t| Defense::sharded(0xC000 + t)), Attacker::BinaryAware),
            ("redzone", Box::new(|_| Defense::Redzone), Attacker::BinaryAware),
        ];
        for (label, factory, attacker) in configs {
            let stats = trials(&s, factory, attacker, 40);
            println!(
                "{:<16} {:<18} {:<14} {:>8.1}% {:>8.1}% {:>12.2}",
                s.kind.label(),
                label,
                match attacker {
                    Attacker::NaturalLayout => "binary hidden",
                    Attacker::BinaryAware => "binary known",
                },
                stats.hijack_rate() * 100.0,
                stats.detection_rate() * 100.0,
                stats.determinism()
            );
        }
    }
}

fn adaptive() {
    let budget = CampaignBudget::quick();
    heading("Adaptive attacker — evolved attack tapes, bypass probability per mode");
    println!(
        "(each campaign: {} search execs, then {} fresh-seed replays of the best",
        budget.search_execs, budget.eval_trials
    );
    println!(" evolved tape; seed-deterministic — full budget in BENCH_security.json)\n");
    println!(
        "{:<18} {:<16} {:>11} {:>9} {:>9} {:>9}",
        "scenario", "defense", "search hits", "tape len", "bypass %", "detect %"
    );
    println!("{}", "-".repeat(78));
    for r in scorecard(budget, 0x5EC5_CA4D) {
        println!(
            "{:<18} {:<16} {:>11} {:>9} {:>8.1}% {:>8.1}%",
            r.scenario,
            r.mode.label(),
            r.successes_during_search,
            r.tape_len,
            r.bypass_rate() * 100.0,
            r.detection_rate() * 100.0
        );
    }
    println!("\n  (the attacker evolves allocation/free/spray/probe tapes per mode;");
    println!("   native and static-OLR fall once searched, POLaR stays probabilistic)");
}

fn sharded_detect() {
    use std::sync::Arc;

    use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
    use polar_runtime::PolarRuntime;

    heading("Sharded runtime — attack-detection counters folded across shards");
    let threads = 4u64;
    let mut config = RuntimeConfig::default();
    config.heap.capacity = 64 << 20;
    let rt = ShardedRuntime::new(RandomizeMode::per_allocation(), config, threads as usize);
    let victim = Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("DetectVictim")
            .field("a", FieldKind::I64)
            .field("b", FieldKind::I64)
            .field("fp", FieldKind::FnPtr)
            .build(),
    ));
    let confused = Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("DetectConfused")
            .field("x", FieldKind::I64)
            .field("y", FieldKind::I64)
            .build(),
    ));
    std::thread::scope(|scope| {
        for t in 0..threads {
            let rt = &rt;
            let victim = &victim;
            let confused = &confused;
            scope.spawn(move || {
                let mut h = rt.handle(t);
                for _ in 0..50 {
                    // Use-after-free.
                    let a = h.olr_malloc(victim).expect("alloc");
                    h.olr_free(a).expect("free");
                    assert!(matches!(
                        h.read_field(a, victim.hash(), 0),
                        Err(RuntimeError::UseAfterFree { .. })
                    ));
                    // Type confusion.
                    let b = h.olr_malloc(victim).expect("alloc");
                    assert!(matches!(
                        h.read_field(b, confused.hash(), 0),
                        Err(RuntimeError::ClassMismatch { .. })
                    ));
                    h.olr_free(b).expect("free");
                    // Double free.
                    let c = h.olr_malloc(victim).expect("alloc");
                    h.olr_free(c).expect("free");
                    assert!(matches!(
                        h.olr_free(c),
                        Err(RuntimeError::DoubleFree(_))
                    ));
                    // Overflow into a booby trap, caught on free.
                    let d = h.olr_malloc(victim).expect("alloc");
                    let canaried = rt
                        .object_meta(d)
                        .and_then(|m| {
                            m.plan.dummies().find(|x| x.canary.is_some())
                        });
                    match canaried {
                        Some(dummy) => {
                            let slot = d.offset(u64::from(dummy.offset));
                            let cur = h.heap_read_uint(slot, 1).expect("read");
                            h.heap_write_uint(slot, !cur & 0xFF, 1).expect("write");
                            assert!(matches!(
                                h.olr_free(d),
                                Err(RuntimeError::TrapTriggered(_))
                            ));
                        }
                        None => h.olr_free(d).expect("free"),
                    }
                }
            });
        }
    });
    let stats = rt.stats();
    println!("({threads} threads, 50 rounds each of UAF / confusion / double-free /");
    println!(" trap-corrupting overflow against a {}-shard runtime)\n", threads);
    println!("  uaf_detected         {:>8}", stats.uaf_detected);
    println!("  mismatch_detected    {:>8}", stats.mismatch_detected);
    println!("  double_free_detected {:>8}", stats.double_free_detected);
    println!("  traps_triggered      {:>8}", stats.traps_triggered);
    println!("  trap_scans           {:>8}", stats.trap_scans);
    println!("  dummy_touches        {:>8}", stats.dummy_touches);
    println!("  total_detections     {:>8}", stats.total_detections());
    println!("\n  (folded from the per-shard counters and the handles' flushed sheets)");
}

fn sites() {
    heading("Site density & metadata footprint (POLaR build of each workload)");
    println!(
        "{:<16} {:>7} {:>9} {:>10} {:>7} {:>10} {:>11} {:>10}",
        "App", "sites", "density", "meta recs", "plans", "dedup", "meta bytes", "heap peak"
    );
    println!("{}", "-".repeat(88));
    for r in sites_rows() {
        println!(
            "{:<16} {:>7} {:>8.1}% {:>10} {:>7} {:>10} {:>11} {:>10}",
            r.name,
            r.object_sites,
            r.site_density * 100.0,
            r.meta_records,
            r.unique_plans,
            r.dedup_saved,
            r.metadata_bytes,
            r.heap_peak
        );
    }
    println!("\n(sites = static alloc/gep/copy/free instructions; dedup = metadata");
    println!(" records collapsed by plan interning, the Section V-B optimization)");
}

fn probing() {
    heading("Reproduction problem (Section III-B2) — probing attacker, no binary");
    println!("(heap-overflow target; attacker enumerates pointer placements run by run,");
    println!(" demanding 5 consecutive successes before shipping the exploit)\n");
    for result in polar_attacks::probing::reproduction_problem(200) {
        println!("  {result}");
    }
}

fn metadata() {
    heading("Metadata exposure (Section VI-A) — POLaR needs its metadata secret");
    let report = polar_attacks::metadata_leak::experiment(40);
    println!("  attacker with arbitrary-read over the metadata table:");
    println!(
        "    hijack {:>5.1}%   traps tripped {:>5.1}%",
        report.with_leak_hijack * 100.0,
        report.with_leak_trapped * 100.0
    );
    println!("  same attacker without the leak (natural-offset guess):");
    println!(
        "    hijack {:>5.1}%   traps tripped {:>5.1}%",
        report.without_leak_hijack * 100.0,
        report.without_leak_trapped * 100.0
    );
    let protected_rate = polar_attacks::metadata_leak::experiment_protected(40);
    println!("  leak attacker vs MPK/SGX-shielded metadata (§VI-A future work):");
    println!("    hijack {:>5.1}%", protected_rate * 100.0);
    println!("\n  (the paper defers metadata protection to MPX/SGX/MPK/TrustZone)");
}

fn placement() {
    use polar_rng::{Rng, SplitMix64};
    use polar_simheap::{HeapConfig, PlacementPolicy, SimHeap, PLACEMENT_GEOMETRY};

    heading("Placement randomization — measured address entropy per allocation");
    let policy = PLACEMENT_GEOMETRY;
    const SEEDS: usize = 256;
    const ALLOCS: usize = 24;
    // One fixed grooming prologue (allocs + a few frees), then ALLOCS
    // observed allocations; repeated under SEEDS placement seeds. The
    // estimator is log2(#distinct addresses) at each position — what an
    // attacker predicting the k-th address is actually up against.
    let run = |placement_seed: u64| -> Vec<u64> {
        let mut config = HeapConfig::default();
        if placement_seed != 0 {
            config.placement = PlacementPolicy::on(placement_seed); // seed 0: the off row
        }
        let mut heap = SimHeap::new(config);
        let mut groom: Vec<_> =
            (0..12).map(|_| heap.malloc(32).expect("groom")).collect();
        for k in [1usize, 4, 7, 10] {
            heap.free(groom.remove(k % groom.len())).expect("free");
        }
        (0..ALLOCS).map(|_| heap.malloc(32).expect("alloc").0).collect()
    };
    let mut seed_rng = SplitMix64::new(0x9_1ACE);
    let on: Vec<Vec<u64>> = (0..SEEDS).map(|_| run(seed_rng.next_u64() | 1)).collect();
    let off = run(0);
    let bits_at = |k: usize| -> (f64, f64) {
        let addrs: HashSet<u64> = on.iter().map(|t| t[k]).collect();
        let deltas: HashSet<u64> =
            on.iter().map(|t| t[k].wrapping_sub(t[k.saturating_sub(1)])).collect();
        ((addrs.len() as f64).log2(), (deltas.len() as f64).log2())
    };
    println!("(policy: shuffle {}, offset bits {}, gap bits {} = {:.1} analytic bits;",
        policy.shuffle_depth, policy.offset_entropy_bits, policy.guard_gap_bits,
        policy.entropy_bits());
    println!(" {SEEDS} placement seeds, identical groom + {ALLOCS} allocations each)\n");
    println!(
        "{:<14} {:>16} {:>18} {:>18}",
        "allocation", "off (addr bits)", "on (addr bits)", "on (delta bits)"
    );
    println!("{}", "-".repeat(70));
    for k in [0usize, 1, 7, 15, 23] {
        let (addr_bits, delta_bits) = bits_at(k);
        println!("{:<14} {:>16.1} {:>18.1} {:>18.1}", format!("#{}", k + 1), 0.0, addr_bits,
            delta_bits);
        let _ = off[k]; // the off trace is one deterministic sequence: 0 bits by construction
    }
    println!("\n  (addr bits = log2 distinct k-th addresses across seeds, capped at");
    println!("   log2({SEEDS}) = {:.0} by the sample; the deterministic heap scores 0 —",
        (SEEDS as f64).log2());
    println!("   every seed replays the same sequence)");

    // The isolating ablation: the adaptive attacker (quick budget)
    // against layout randomization alone, placement alone, and both.
    // `placement-only` is deliberately absent from the gated scorecard;
    // this table is its home.
    let budget = CampaignBudget::quick();
    println!(
        "\nAdaptive attacker, layout vs placement vs both (quick budget: {} search",
        budget.search_execs
    );
    println!(" execs, {} fresh-seed replays per cell; bypass %)\n", budget.eval_trials);
    let modes =
        [SecMode::Polar, SecMode::PlacementOnly, SecMode::PolarPlacement];
    println!(
        "{:<18} {:>14} {:>16} {:>17}",
        "scenario", "layout-only", "placement-only", "both (+placement)"
    );
    println!("{}", "-".repeat(70));
    for scenario in ["heap-groom", "place-groom"] {
        let rates: Vec<f64> = modes
            .iter()
            .map(|&m| {
                polar_attacks::search::run_campaign(scenario, m, budget, 0x5EC5_CA4D)
                    .bypass_rate()
                    * 100.0
            })
            .collect();
        println!(
            "{:<18} {:>13.1}% {:>15.1}% {:>16.1}%",
            scenario, rates[0], rates[1], rates[2]
        );
    }
    println!("\n  (heap-groom corrupts a neighbor — layout entropy already caps it,");
    println!("   placement drives it to zero; place-groom only predicts addresses —");
    println!("   layout randomization is irrelevant there, placement is the defense)");
}

fn ablation(reps: u32) {
    heading("Ablation — layout policy vs entropy, per-op cost, and metadata footprint");
    println!(
        "{:<24} {:>14} {:>16} {:>12} {:>11} {:>10}",
        "policy", "entropy (bits)", "alloc+free (ns)", "getptr (ns)", "meta bytes", "traps/obj"
    );
    println!("{}", "-".repeat(92));
    for row in ablation_rows(reps) {
        println!(
            "{:<24} {:>14.2} {:>16.0} {:>12.1} {:>11} {:>10.2}",
            row.label,
            row.entropy_bits,
            row.alloc_ns,
            row.access_ns,
            row.metadata_bytes,
            row.trap_slots
        );
    }
    println!(
        "\n(meta bytes with {} objects live; traps/obj = armed booby-trap slots",
        polar_bench::ABLATION_LIVE
    );
    println!(" per object — stored canaried dummies, or derived virtual trap slots");
    println!(" for the stateless rows, which store no per-object plan at all)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut wanted: HashSet<&str> = args.iter().map(|s| s.as_str()).collect();
    if wanted.is_empty() || wanted.contains("all") {
        wanted = ["fig2", "table1", "fig6", "table2", "fig7", "table3", "table4", "compat",
            "security", "adaptive", "sharded-detect", "sites", "probing", "metadata",
            "placement", "ablation"]
            .into_iter()
            .collect();
    }
    let reps: u32 = if wanted.contains("quick") { 1 } else { 5 };

    if wanted.contains("fig2") {
        fig2();
    }
    if wanted.contains("table1") {
        table1();
    }
    if wanted.contains("fig6") {
        fig6(reps);
    }
    let need_js = wanted.contains("table2") || wanted.contains("fig7");
    if need_js {
        let rows = js_tables(reps);
        if wanted.contains("table2") {
            table2(&rows);
        }
        if wanted.contains("fig7") {
            fig7(&rows);
        }
    }
    if wanted.contains("table3") {
        table3();
    }
    if wanted.contains("table4") {
        table4();
    }
    if wanted.contains("compat") {
        compat();
    }
    if wanted.contains("security") {
        security();
    }
    if wanted.contains("adaptive") {
        adaptive();
    }
    if wanted.contains("sharded-detect") {
        sharded_detect();
    }
    if wanted.contains("sites") {
        sites();
    }
    if wanted.contains("probing") {
        probing();
    }
    if wanted.contains("metadata") {
        metadata();
    }
    if wanted.contains("placement") {
        placement();
    }
    if wanted.contains("ablation") {
        ablation(reps);
    }
    println!();
}
