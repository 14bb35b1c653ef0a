//! Lock-free stress: a release-mode run of the `polar-workloads::contend`
//! mix (shared object set, seeded per-thread drivers, torn-read oracle on
//! every read) sized to the machine it runs on.
//!
//! The thread count is clamped to the detected parallelism (minimum 2,
//! so a single-vCPU container still interleaves writer windows with
//! reader snapshots through preemption) and printed alongside the
//! results. The test fails when any invariant does:
//!
//! * no torn read (the workload panics on one — unequal 32-bit halves),
//! * zero detections (the shared set is never misused),
//! * exact counting partition: every handle read resolved as exactly
//!   one lock-free hit or one mutex fallback,
//! * a pure-reader pass stays entirely on the optimistic path.
//!
//! Debug builds skip it: run it with
//! `cargo test --release -p polar-bench --test stress_lockfree`.

use polar_runtime::RandomizeMode;
use polar_workloads::contend::{run_contend, ContendConfig};

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode stress; see the module docs")]
fn lock_free_reads_partition_exactly_under_contention() {
    let detected = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Clamp to the hardware: more threads than cores only re-measures
    // the scheduler. Keep at least two so seqlock windows and snapshots
    // genuinely interleave.
    let threads = detected.clamp(2, 8) as u64;
    println!("stress_lockfree: detected parallelism {detected}, running {threads} threads");

    let mixed = ContendConfig { threads, ops_per_thread: 200_000, ..ContendConfig::default() };
    let report = run_contend(RandomizeMode::per_allocation(), mixed);
    println!(
        "  mixed 90/10: {} reads, {} writes, lock-free share {:.4}, {} fallbacks",
        report.reads,
        report.writes,
        report.lockfree_share().unwrap_or(0.0),
        report.stats.lockfree_fallbacks,
    );
    assert_eq!(
        report.stats.total_detections(),
        0,
        "spurious detections: {:?}",
        report.stats
    );
    assert_eq!(
        report.stats.lockfree_reads + report.stats.lockfree_fallbacks,
        report.reads,
        "counting partition broken: {} hits + {} fallbacks != {} reads",
        report.stats.lockfree_reads,
        report.stats.lockfree_fallbacks,
        report.reads,
    );

    let pure = ContendConfig {
        threads,
        ops_per_thread: 100_000,
        write_pct: 0,
        ..ContendConfig::default()
    };
    let report = run_contend(RandomizeMode::per_allocation(), pure);
    println!(
        "  pure readers: {} reads, {} fallbacks",
        report.reads, report.stats.lockfree_fallbacks
    );
    assert!(
        report.stats.lockfree_fallbacks == 0 && report.stats.lockfree_reads == report.reads,
        "pure readers left the fast path: {} hits, {} fallbacks, {} reads",
        report.stats.lockfree_reads,
        report.stats.lockfree_fallbacks,
        report.reads,
    );
}
