//! `session-zipf`: the ROADMAP's session store on the direct runtime API.
//!
//! Two worker threads each own a `ShardHandle` and a partition of a
//! store of `Session` objects and serve Zipf(0.99)-keyed traffic: 60 %
//! oracle-checked reads, 25 % writes, 15 % refreshes (free, re-allocate,
//! re-initialize). Worker 0 also scrapes `ShardedRuntime::stats()` every
//! [`SCRAPE_EVERY`] ops. The same traffic runs against a second store
//! with randomization off, in alternating rounds, for `slowdown`.

use std::sync::atomic::AtomicU8;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_rng::{Rng, RngExt, SplitMix64, Zipf};
use polar_runtime::{Addr, RandomizeMode, RuntimeConfig, ShardHandle, ShardedRuntime};

use crate::common::{self, coordinate, schedule, HeapView, Kind, LayerInputs, Phase};
use crate::stats::{self, median, RoundLatency};
use crate::trace::{span, Ledger, NoSpans, Op, Recorder, Spans};
use crate::{Args, Outcome};

/// Live sessions, split across the two workers.
const SESSIONS: u64 = 262_144;
const THREADS: u64 = 2;
const SHARDS: usize = 2;
/// Traffic ops per worker per round.
const OPS_PER_ROUND: u64 = 20_000;
/// Worker 0 scrapes the runtime's counters once per this many ops.
const SCRAPE_EVERY: u64 = 4_096;
const HEAP_CAPACITY: usize = 256 << 20;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const FIELDS: usize = 7;

fn session_class() -> Arc<ClassInfo> {
    Arc::new(ClassInfo::from_decl(
        ClassDecl::builder("Session")
            .field("vtable", FieldKind::VtablePtr)
            .field("id", FieldKind::I64)
            .field("token", FieldKind::I64)
            .field("last_seen", FieldKind::I64)
            .field("hits", FieldKind::I32)
            .field("flags", FieldKind::I32)
            .field("payload", FieldKind::Ptr)
            .build(),
    ))
}

/// One live session and its oracle: the last value written to each field.
struct Slot {
    addr: Addr,
    vals: [u64; FIELDS],
}

/// A populated store: its runtime and each worker's partition.
struct Store {
    rt: ShardedRuntime,
    parts: Vec<Vec<Slot>>,
    failed: u64,
}

fn build_store(mode: RandomizeMode, seed: u64, info: &Arc<ClassInfo>) -> Store {
    let mut config = RuntimeConfig::default();
    config.heap.capacity = HEAP_CAPACITY;
    config.seed = seed;
    let rt = ShardedRuntime::new(mode, config, SHARDS);
    let populated: Vec<(Vec<Slot>, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (rt, info) = (&rt, info);
                scope.spawn(move || populate(rt, info, t, seed))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("populate worker panicked"))
            .collect()
    });
    let failed = populated.iter().map(|(_, f)| f).sum();
    Store {
        parts: populated.into_iter().map(|(p, _)| p).collect(),
        rt,
        failed,
    }
}

fn populate(
    rt: &ShardedRuntime,
    info: &Arc<ClassInfo>,
    thread: u64,
    seed: u64,
) -> (Vec<Slot>, u64) {
    let mut h = rt.handle(thread);
    let mut rng = SplitMix64::new(seed ^ (0x5E55_0000 + thread));
    let mut slots = Vec::with_capacity((SESSIONS / THREADS) as usize);
    let mut failed = 0;
    for key in 0..SESSIONS / THREADS {
        let Ok(addr) = h.olr_malloc(info) else {
            failed += 1;
            continue;
        };
        let mut vals = [0u64; FIELDS];
        for (field, v) in vals.iter_mut().enumerate() {
            *v = if field == 1 {
                key
            } else {
                rng.next_u64() & 0xFFFF_FFFF
            };
            if h.write_field(addr, info.hash(), field, *v).is_err() {
                failed += 1;
            }
        }
        slots.push(Slot { addr, vals });
    }
    (slots, failed)
}

/// One worker's traffic state against one store.
struct Traffic {
    slots: Vec<Slot>,
    rng: SplitMix64,
    zipf: Zipf,
    ops: u64,
    failed: u64,
}

impl Traffic {
    fn new(slots: Vec<Slot>, seed: u64, thread: u64) -> Self {
        let zipf = Zipf::new(slots.len().max(1) as u64, 0.99);
        Traffic {
            slots,
            rng: SplitMix64::new(seed ^ (0x7AF1_0000 + thread)),
            zipf,
            ops: 0,
            failed: 0,
        }
    }

    /// One round of `OPS_PER_ROUND` ops. Latencies go to `hist`, layer
    /// calls to `spans`; worker 0 also scrapes the counters.
    fn round<S: Spans>(
        &mut self,
        h: &mut ShardHandle<'_>,
        info: &Arc<ClassInfo>,
        scrape: bool,
        hist: &mut RoundLatency,
        spans: &mut S,
    ) {
        let class = info.hash();
        for _ in 0..OPS_PER_ROUND {
            self.ops += 1;
            if scrape && self.ops.is_multiple_of(SCRAPE_EVERY) {
                let rt = h.runtime();
                std::hint::black_box(span(spans, Op::Stats, || rt.stats()));
            }
            let i = (self.zipf.sample(&mut self.rng) - 1) as usize;
            let roll = self.rng.random_range(0..20u32);
            let field = 1 + self.rng.random_range(0..5usize);
            let begin = Instant::now();
            let s = &mut self.slots[i];
            let ok = match roll {
                // 60 %: lookup, checked against the oracle.
                0..=11 => match span(spans, Op::ReadField, || h.read_field(s.addr, class, field)) {
                    Ok(v) => v == s.vals[field],
                    Err(_) => false,
                },
                // 25 %: update.
                12..=16 => {
                    let v = self.rng.next_u64() & 0xFFFF_FFFF;
                    let ok = span(spans, Op::WriteField, || {
                        h.write_field(s.addr, class, field, v)
                    })
                    .is_ok();
                    if ok {
                        s.vals[field] = v;
                    }
                    ok
                }
                // 15 %: refresh — free, re-allocate, re-initialize.
                _ => {
                    let freed = span(spans, Op::OlrFree, || h.olr_free(s.addr)).is_ok();
                    match span(spans, Op::OlrMalloc, || h.olr_malloc(info)) {
                        Ok(addr) => {
                            s.addr = addr;
                            let mut ok = freed;
                            for f in 0..FIELDS {
                                if f != 1 {
                                    s.vals[f] = self.rng.next_u64() & 0xFFFF_FFFF;
                                }
                                let v = s.vals[f];
                                ok &= span(spans, Op::WriteField, || {
                                    h.write_field(addr, class, f, v)
                                })
                                .is_ok();
                            }
                            ok
                        }
                        Err(_) => false,
                    }
                }
            };
            hist.record(begin.elapsed().as_nanos() as u64);
            if !ok {
                self.failed += 1;
            }
        }
    }
}

/// What one worker hands back.
struct WorkerOut {
    lat: RoundLatency,
    rec: Recorder,
    ops: u64,
    failed: u64,
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let info = session_class();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut polar = None;
    for _ in 0..SETUP_REPS {
        drop(polar.take());
        let start = Instant::now();
        polar = Some(build_store(
            RandomizeMode::per_allocation(),
            args.seed,
            &info,
        ));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut polar = polar.expect("at least one set-up");
    let mut native = build_store(RandomizeMode::Native, args.seed, &info);
    let setup_failed = polar.failed + native.failed;

    let barrier = Barrier::new(THREADS as usize + 1);
    let kind = AtomicU8::new(0);
    let epoch = Instant::now();
    let (mut before, mut heap_before) = Default::default();
    let plan = schedule(args.trace);
    let polar_rt = &polar.rt;
    let mut memory = (None, 0);
    let (rounds, outs) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let ps = std::mem::take(&mut polar.parts[t as usize]);
                let ns = std::mem::take(&mut native.parts[t as usize]);
                let (prt, nrt, info, barrier, kind) =
                    (polar_rt, &native.rt, &info, &barrier, &kind);
                let seed = args.seed;
                scope.spawn(move || {
                    let (mut hp, mut hn) = (prt.handle(t), nrt.handle(t));
                    let (mut tp, mut tn) = (Traffic::new(ps, seed, t), Traffic::new(ns, seed, t));
                    let mut rec = Recorder::new(t as u16, epoch);
                    let (mut lat, mut ignored) = (RoundLatency::default(), RoundLatency::default());
                    loop {
                        barrier.wait();
                        let (k, warm) = Kind::load(kind);
                        match k {
                            Kind::Stop => break,
                            Kind::Polar => {
                                tp.round(&mut hp, info, t == 0, &mut lat, &mut NoSpans);
                                if warm {
                                    lat.discard_round();
                                } else {
                                    lat.close_round();
                                }
                            }
                            Kind::Native => {
                                tn.round(&mut hn, info, t == 0, &mut ignored, &mut NoSpans)
                            }
                            Kind::Traced if warm => {
                                tp.round(&mut hp, info, t == 0, &mut ignored, &mut NoSpans)
                            }
                            Kind::Traced => {
                                rec.begin(Op::Round);
                                tp.round(&mut hp, info, t == 0, &mut ignored, &mut rec);
                                rec.end();
                            }
                        }
                        if warm {
                            hp.flush_stats();
                            hn.flush_stats();
                        }
                        barrier.wait();
                    }
                    let ops = tp.ops + tn.ops;
                    WorkerOut {
                        lat,
                        rec,
                        ops,
                        failed: tp.failed + tn.failed,
                    }
                })
            })
            .collect();
        let rounds = coordinate(&barrier, &kind, args.seconds, &plan, |phase| match phase {
            Phase::Warmed => (before, heap_before) = (polar_rt.stats(), polar_rt.heap_footprint()),
            Phase::FixedWork => {
                memory = (stats::peak_rss_mib(), polar_rt.estimated_metadata_bytes());
            }
            Phase::Cycle(_) => {}
        });
        let outs: Vec<WorkerOut> = workers
            .into_iter()
            .map(|w| w.join().expect("traffic worker panicked"))
            .collect();
        (rounds, outs)
    });
    // Every handle has dropped: the counters are quiescent and exact.
    let after = polar.rt.stats();
    let footprint = polar.rt.heap_footprint();
    let live = after.allocations.saturating_sub(after.frees);

    let mut out = Outcome {
        attempted: outs.iter().map(|o| o.ops).sum::<u64>() + SESSIONS * 2,
        failed: setup_failed + outs.iter().map(|o| o.failed).sum::<u64>(),
        ..Outcome::default()
    };
    if after.remote_drained != after.fast_frees {
        out.note_failure(format!(
            "remote_drained {} != fast_frees {} at quiescence",
            after.remote_drained, after.fast_frees
        ));
    }
    if after.total_detections() != 0 {
        out.note_failure(format!(
            "{} detections in benign traffic",
            after.total_detections()
        ));
    }
    if live != SESSIONS {
        out.note_failure(format!(
            "{live} sessions live at the end, expected {SESSIONS}"
        ));
    }

    let mut lat = RoundLatency::default();
    let mut ledger = Ledger::default();
    for o in outs {
        lat.merge(&o.lat);
        ledger.absorb(o.rec);
    }
    let per_round = (THREADS * OPS_PER_ROUND) as f64;
    let throughput = rounds.polar_rate(per_round);
    if args.trace {
        let _ = ledger.write_spans(&args.spans_path());
        out.layer = common::layer_metrics(&LayerInputs {
            ledger: &ledger,
            counters: common::delta(&after, &before),
            heap: HeapView {
                bytes_live: footprint.bytes_live as f64,
                bytes_peak: footprint.bytes_peak as f64,
                peak_live: live as f64,
                heap_allocs: footprint.heap_allocs - heap_before.heap_allocs,
            },
            count_per: 1.0,
            ir_steps: 0,
            instrument_pass_s: 0.0,
            trace_overhead: throughput / rounds.traced_rate(per_round) - 1.0,
        });
    }
    out.latency = lat;
    out.throughput = throughput;
    out.slowdown = median(&rounds.cycle_ratios()).unwrap_or(0.0);
    out.setup_s = median(&setups).unwrap_or(0.0);
    out.peak_rss_mib = memory.0;
    out.meta_bytes_per_live = memory.1 as f64 / SESSIONS as f64;
    out.summary.push(rounds.polar_summary());
    out.summary.push(format!(
        "{} POLaR rounds of {per_round} ops; {} baseline rounds; {live} sessions live",
        rounds.polar.len(),
        rounds.native.len(),
    ));
    drop(native);
    out
}
