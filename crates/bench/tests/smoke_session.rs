//! Session-store smoke: a reduced run of the million-object workload
//! with the oracle checks armed.
//!
//! The full-scale benchmark (8 threads, ≥1M live sessions, 512 MiB
//! heap) is a measurement; this is a correctness gate. It runs the
//! same populate → Zipf-traffic shape at ~2% scale — small enough for
//! CI, large enough that every thread refills magazines many times and
//! cross-shard frees exercise the remote-free queues — and asserts the
//! invariants the workload is designed to witness:
//!
//! * the live set survives intact (populate count == final live count);
//! * every read was oracle-verified against the session's model values
//!   (a wrong plan, torn read, or misrouted free fails inside the run);
//! * the magazine front-end actually fronted the traffic (hit rate
//!   ≥ 90%, every allocation served by a pop);
//! * the remote-free queues quiesced (every lock-free claim drained);
//! * refresh churn recycled blocks instead of fragmenting (peak/live
//!   stays near 1.0);
//! * no false-positive detections.
//!
//! Debug builds skip it: run it with
//! `cargo test --release -p polar-bench --test smoke_session`.

use polar_runtime::RandomizeMode;
use polar_workloads::session_store::{run_session_store, SessionConfig};

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode smoke; see the module docs")]
fn session_store_invariants_hold_at_smoke_scale() {
    let cfg = SessionConfig {
        threads: 8,
        sessions: 20_000,
        ops_per_thread: 5_000,
        shards: 8,
        heap_capacity: 64 << 20,
        ..Default::default()
    };
    let sessions = cfg.sessions;
    let expected_ops = cfg.threads * cfg.ops_per_thread;
    let r = run_session_store(RandomizeMode::per_allocation(), cfg);

    assert_eq!(r.live_objects, sessions, "live set shrank: {} of {sessions}", r.live_objects);
    assert_eq!(r.ops, expected_ops, "traffic short-counted: {} of {expected_ops}", r.ops);
    assert!(r.reads_verified > 0, "no reads reached the oracle");
    assert!(
        r.magazine_hit_rate >= 0.90,
        "magazine hit rate {:.4} below the 90% floor",
        r.magazine_hit_rate
    );
    assert_eq!(
        r.stats.magazine_hits + r.stats.magazine_refills,
        r.stats.allocations,
        "allocations bypassed the magazine front-end"
    );
    assert_eq!(
        r.stats.remote_drained, r.stats.fast_frees,
        "remote-free queues did not quiesce: {} drained of {} claims",
        r.stats.remote_drained, r.stats.fast_frees
    );
    assert_eq!(r.stats.total_detections(), 0, "false positives: {:?}", r.stats);
    assert!(
        r.fragmentation < 1.5,
        "refresh churn fragmented the heap: peak/live {:.3}",
        r.fragmentation
    );
    assert!(
        r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns,
        "latency percentiles out of order: p50={} p99={} p999={}",
        r.p50_ns,
        r.p99_ns,
        r.p999_ns
    );

    println!(
        "session smoke: live={} ops={} verified={} maghit={:.4} frag={:.3} \
         p50={}ns p99={}ns p999={}ns meta/live={:.1}B",
        r.live_objects,
        r.ops,
        r.reads_verified,
        r.magazine_hit_rate,
        r.fragmentation,
        r.p50_ns,
        r.p99_ns,
        r.p999_ns,
        r.metadata_bytes_per_live
    );
    println!("ok: session-store invariants hold at smoke scale");
}
