//! `handoff-churn`: producer/consumer object hand-off.
//!
//! The producer allocates objects of a 4-field and a 7-field class (both
//! on the stateless path) and a 12-field class (above the stateless
//! limit, so it draws from the plan pools), initializes every field and
//! hands them over in batches through a bounded queue. The consumer
//! verifies every field, `olr_memcpy`s every eighth object from the one
//! before it and verifies the copy, and frees them all — every free is
//! cross-thread. The live set is the queue's window, so it stays in
//! cache. The same work runs with randomization off, in alternating
//! rounds, for `slowdown`.
//!
//! The queue's ends spin instead of sleeping. The producer is faster than
//! the consumer, so with a sleeping queue it parks and is woken once per
//! batch. Each wake-up restarts an idle virtual CPU, and on a shared
//! host that delay, and the cache the CPU lost while idle, vary far more
//! than the allocator work being measured. With a sleeping queue, 4 of
//! 20 runs on a 2-vCPU KVM guest lost about 40 % of their throughput and
//! their p999 rose three- to fivefold, while `session-zipf`, whose
//! threads never sleep mid-round, lost at most 20 % in the same periods.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
use polar_rng::{RngExt, SplitMix64};
use polar_runtime::{Addr, RandomizeMode, RuntimeConfig, ShardHandle, ShardedRuntime};

use crate::common::{self, coordinate, mix, schedule, HeapView, Kind, LayerInputs, Phase};
use crate::stats::{self, median, RoundLatency};
use crate::trace::{span, Ledger, NoSpans, Op, Recorder, Spans};
use crate::{Args, Outcome};

/// Objects handed off per round.
const PER_ROUND: u64 = 32_768;
/// Objects per queue message.
const BATCH: usize = 32;
/// Messages the queue holds before the producer waits.
const QUEUE_DEPTH: usize = 8;
/// Every `COPY_EVERY`-th object is overwritten by a copy of the one
/// before it.
const COPY_EVERY: u64 = 8;
const SHARDS: usize = 2;
const HEAP_CAPACITY: usize = 64 << 20;
/// After the memory metrics are read, a set-up is timed after every
/// `SETUP_EVERY`-th cycle, so that `setup_s` samples the whole run as the
/// rounds do; set-ups timed back to back all see the host in one state.
const SETUP_EVERY: usize = 2;
/// Objects of each class allocated and freed while priming a runtime, in
/// batches no larger than the hand-off window.
const PRIME: usize = 8_192;
const PRIME_BATCH: usize = 64;

fn classes() -> [Arc<ClassInfo>; 3] {
    let class = |name: &str, kinds: &[FieldKind]| {
        let mut b = ClassDecl::builder(name);
        for (i, k) in kinds.iter().enumerate() {
            b = b.field(format!("f{i}"), *k);
        }
        Arc::new(ClassInfo::from_decl(b.build()))
    };
    use FieldKind::{Ptr, VtablePtr, I32, I64};
    [
        class("Token", &[VtablePtr, I64, I32, Ptr]),
        class("Request", &[VtablePtr, I64, I64, I64, I32, I32, Ptr]),
        class(
            "Envelope",
            &[
                VtablePtr, I64, I64, I64, I64, I32, I32, I32, I32, Ptr, Ptr, I64,
            ],
        ),
    ]
}

/// The value the producer writes to `field` of object `seq`.
#[inline]
fn value(seed: u64, seq: u64, field: usize) -> u64 {
    mix(seed ^ (seq << 5) ^ field as u64) & 0xFFFF_FFFF
}

/// A bounded single-producer single-consumer queue of batches whose ends
/// spin, yielding now and then, rather than sleep. Slot `i % QUEUE_DEPTH`
/// is written only by the producer while `i - taken < QUEUE_DEPTH` and
/// read only by the consumer while `i < sent`, so its lock is never
/// contended.
struct SpinQueue {
    slots: [Mutex<Option<Vec<Msg>>>; QUEUE_DEPTH],
    /// Batches enqueued. Only the producer stores it, with `Release`
    /// after filling the slot; the consumer loads it with `Acquire`.
    sent: AtomicUsize,
    /// Batches dequeued. Only the consumer stores it, with `Release`
    /// after emptying the slot; the producer loads it with `Acquire`.
    taken: AtomicUsize,
    /// Set when either end is dropped, as a channel disconnects.
    closed: AtomicBool,
}

/// One end of a [`SpinQueue`]; dropping it closes the queue.
struct End<'q>(&'q SpinQueue);

impl Drop for End<'_> {
    fn drop(&mut self) {
        self.0.closed.store(true, Ordering::Release);
    }
}

impl SpinQueue {
    fn new() -> SpinQueue {
        SpinQueue {
            slots: std::array::from_fn(|_| Mutex::new(None)),
            sent: AtomicUsize::new(0),
            taken: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        }
    }

    fn slot(&self, i: usize) -> std::sync::MutexGuard<'_, Option<Vec<Msg>>> {
        self.slots[i % QUEUE_DEPTH]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }
}

fn backoff(spins: &mut u32) {
    *spins += 1;
    if spins.is_multiple_of(64) {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

impl End<'_> {
    /// Wait for room and enqueue `batch`; `Err` once the consumer is gone.
    fn send(&self, batch: Vec<Msg>) -> Result<(), ()> {
        let q = self.0;
        let i = q.sent.load(Ordering::Relaxed);
        let mut spins = 0;
        loop {
            if q.closed.load(Ordering::Acquire) {
                return Err(());
            }
            if i - q.taken.load(Ordering::Acquire) < QUEUE_DEPTH {
                break;
            }
            backoff(&mut spins);
        }
        *q.slot(i) = Some(batch);
        q.sent.store(i + 1, Ordering::Release);
        Ok(())
    }

    /// Wait for and dequeue the next batch; `None` once the producer is
    /// gone and the queue is empty.
    fn recv(&self) -> Option<Vec<Msg>> {
        let q = self.0;
        let i = q.taken.load(Ordering::Relaxed);
        let mut spins = 0;
        while q.sent.load(Ordering::Acquire) == i {
            if q.closed.load(Ordering::Acquire) && q.sent.load(Ordering::Acquire) == i {
                return None;
            }
            backoff(&mut spins);
        }
        let batch = q.slot(i).take();
        q.taken.store(i + 1, Ordering::Release);
        batch
    }
}

/// One handed-off object.
#[derive(Clone, Copy)]
struct Msg {
    /// `None` when the allocation failed (already counted as failed).
    addr: Option<Addr>,
    class: u8,
    seq: u64,
    /// Overwrite this object with a copy of the previous one.
    copy: bool,
    /// Producer-side service time (allocate + initialize), ns.
    produce_ns: u64,
}

/// Allocate, prime and return a runtime: objects of every class are
/// allocated and freed so magazines, pools and the heap are warm.
fn build(mode: RandomizeMode, seed: u64, classes: &[Arc<ClassInfo>; 3]) -> (ShardedRuntime, u64) {
    let mut config = RuntimeConfig::default();
    config.heap.capacity = HEAP_CAPACITY;
    config.seed = seed;
    let rt = ShardedRuntime::new(mode, config, SHARDS);
    let mut failed = 0;
    {
        let mut h = rt.handle(0);
        for info in classes {
            for _ in 0..PRIME / PRIME_BATCH {
                let objs: Vec<Addr> = (0..PRIME_BATCH)
                    .filter_map(|_| h.olr_malloc(info).ok())
                    .collect();
                failed += (PRIME_BATCH - objs.len()) as u64;
                for a in objs {
                    failed += u64::from(h.olr_free(a).is_err());
                }
            }
        }
    }
    (rt, failed)
}

/// Objects sent and taken over the queue, for the live-set high-water
/// mark (the objects between the two counters are live). Relaxed: the
/// counters publish no other data.
#[derive(Default)]
struct Counts {
    sent: AtomicU64,
    taken: AtomicU64,
    peak_live: AtomicU64,
}

impl Counts {
    fn produced(&self, n: u64) {
        let sent = self.sent.fetch_add(n, Ordering::Relaxed) + n;
        let live = sent.saturating_sub(self.taken.load(Ordering::Relaxed));
        self.peak_live.fetch_max(live, Ordering::Relaxed);
    }

    fn consumed(&self, n: u64) {
        self.taken.fetch_add(n, Ordering::Relaxed);
    }
}

/// What both threads read: the classes, the value seed and the counts.
struct Shared {
    classes: [Arc<ClassInfo>; 3],
    seed: u64,
    counts: Counts,
}

struct Producer {
    rng: SplitMix64,
    seq: u64,
    last_class: u8,
    failed: u64,
}

impl Producer {
    fn round<S: Spans>(
        &mut self,
        h: &mut ShardHandle<'_>,
        sh: &Shared,
        tx: &End<'_>,
        spans: &mut S,
    ) {
        let mut batch = Vec::with_capacity(BATCH);
        for i in 0..PER_ROUND {
            let copy = i % COPY_EVERY == COPY_EVERY - 1;
            let class = if copy {
                self.last_class
            } else {
                self.rng.random_range(0..3u8)
            };
            let info = &sh.classes[class as usize];
            let seq = self.seq;
            self.seq += 1;
            let begin = Instant::now();
            let addr = span(spans, Op::OlrMalloc, || h.olr_malloc(info)).ok();
            // A failed allocation still travels, so the consumer's count
            // per round holds; it is counted as failed here.
            self.failed += u64::from(addr.is_none());
            for f in 0..info.field_count() {
                let v = value(sh.seed, seq, f);
                if let Some(addr) = addr {
                    if span(spans, Op::WriteField, || {
                        h.write_field(addr, info.hash(), f, v)
                    })
                    .is_err()
                    {
                        self.failed += 1;
                    }
                }
            }
            let produce_ns = begin.elapsed().as_nanos() as u64;
            self.last_class = class;
            batch.push(Msg {
                addr,
                class,
                seq,
                copy,
                produce_ns,
            });
            if batch.len() == BATCH || i + 1 == PER_ROUND {
                sh.counts.produced(batch.len() as u64);
                let full = std::mem::replace(&mut batch, Vec::with_capacity(BATCH));
                // A closed queue means the consumer is gone; the round's
                // missing frees then show as a live-count failure.
                let _ = span(spans, Op::QueueWait, || tx.send(full));
            }
        }
    }
}

struct Consumer {
    failed: u64,
    freed: u64,
    handed: u64,
}

impl Consumer {
    fn round<S: Spans>(
        &mut self,
        h: &mut ShardHandle<'_>,
        sh: &Shared,
        rx: &End<'_>,
        lat: &mut RoundLatency,
        spans: &mut S,
    ) {
        // The previous object (address, sequence): the copy source.
        let mut prev: Option<(Addr, u64)> = None;
        let mut got = 0;
        while got < PER_ROUND {
            let Some(batch) = span(spans, Op::QueueWait, || rx.recv()) else {
                break;
            };
            got += batch.len() as u64;
            sh.counts.consumed(batch.len() as u64);
            for m in batch {
                self.handed += 1;
                let Some(addr) = m.addr else { continue };
                let begin = Instant::now();
                let info = &sh.classes[m.class as usize];
                let class = info.hash();
                let mut ok = (0..info.field_count()).all(|f| {
                    span(spans, Op::ReadField, || h.read_field(addr, class, f))
                        .is_ok_and(|v| v == value(sh.seed, m.seq, f))
                });
                // After a copy the object holds the source's values.
                let mut holds = m.seq;
                if let (true, Some((src, src_seq))) = (m.copy, prev) {
                    ok &= span(spans, Op::OlrMemcpy, || h.olr_memcpy(addr, src, info)).is_ok();
                    ok &= (0..info.field_count()).all(|f| {
                        span(spans, Op::ReadField, || h.read_field(addr, class, f))
                            .is_ok_and(|v| v == value(sh.seed, src_seq, f))
                    });
                    holds = src_seq;
                }
                if let Some((p, _)) = prev.replace((addr, holds)) {
                    ok &= self.free(h, p, spans);
                }
                lat.record(m.produce_ns + begin.elapsed().as_nanos() as u64);
                self.failed += u64::from(!ok);
            }
        }
        if let Some((p, _)) = prev {
            if !self.free(h, p, spans) {
                self.failed += 1;
            }
        }
    }

    fn free<S: Spans>(&mut self, h: &mut ShardHandle<'_>, addr: Addr, spans: &mut S) -> bool {
        self.freed += 1;
        span(spans, Op::OlrFree, || h.olr_free(addr)).is_ok()
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let sh = Shared {
        classes: classes(),
        seed: args.seed,
        counts: Counts::default(),
    };
    let timed_build = |setups: &mut Vec<f64>| {
        let start = Instant::now();
        let built = build(RandomizeMode::per_allocation(), args.seed, &sh.classes);
        setups.push(start.elapsed().as_secs_f64());
        built
    };
    let mut setups = Vec::new();
    let (polar, polar_failed) = timed_build(&mut setups);
    let (native, native_failed) = build(RandomizeMode::Native, args.seed, &sh.classes);
    let mut setup_failed = polar_failed + native_failed;

    let barrier = Barrier::new(3);
    let kind = AtomicU8::new(0);
    let epoch = Instant::now();
    let (mut before, mut heap_before) = Default::default();
    let plan = schedule(args.trace);
    let mut memory = (None, 0);
    let queue = SpinQueue::new();
    let (tx, rx) = (End(&queue), End(&queue));
    let (rounds, producer, consumer) = std::thread::scope(|scope| {
        let (prt, nrt, sh, barrier, kind) = (&polar, &native, &sh, &barrier, &kind);
        let p = scope.spawn(move || {
            let (mut hp, mut hn) = (prt.handle(0), nrt.handle(0));
            let mut rec = Recorder::new(0, epoch);
            let mut state = Producer {
                rng: SplitMix64::new(sh.seed ^ 0x000B_1EC7),
                seq: 0,
                last_class: 0,
                failed: 0,
            };
            loop {
                barrier.wait();
                let (k, warm) = Kind::load(kind);
                match k {
                    Kind::Stop => break,
                    Kind::Polar => state.round(&mut hp, sh, &tx, &mut NoSpans),
                    Kind::Native => state.round(&mut hn, sh, &tx, &mut NoSpans),
                    Kind::Traced if warm => state.round(&mut hp, sh, &tx, &mut NoSpans),
                    Kind::Traced => {
                        rec.begin(Op::Round);
                        state.round(&mut hp, sh, &tx, &mut rec);
                        rec.end();
                    }
                }
                if warm {
                    hp.flush_stats();
                    hn.flush_stats();
                }
                barrier.wait();
            }
            (state, rec)
        });
        let c = scope.spawn(move || {
            let (mut hp, mut hn) = (prt.handle(1), nrt.handle(1));
            let mut rec = Recorder::new(1, epoch);
            let mut state = Consumer {
                failed: 0,
                freed: 0,
                handed: 0,
            };
            let (mut lat, mut ignored) = (RoundLatency::default(), RoundLatency::default());
            loop {
                barrier.wait();
                let (k, warm) = Kind::load(kind);
                match k {
                    Kind::Stop => break,
                    Kind::Polar => {
                        state.round(&mut hp, sh, &rx, &mut lat, &mut NoSpans);
                        if warm {
                            lat.discard_round();
                        } else {
                            lat.close_round();
                        }
                    }
                    Kind::Native => state.round(&mut hn, sh, &rx, &mut ignored, &mut NoSpans),
                    Kind::Traced if warm => {
                        state.round(&mut hp, sh, &rx, &mut ignored, &mut NoSpans)
                    }
                    Kind::Traced => {
                        rec.begin(Op::Round);
                        state.round(&mut hp, sh, &rx, &mut ignored, &mut rec);
                        rec.end();
                    }
                }
                if warm {
                    hp.flush_stats();
                    hn.flush_stats();
                }
                barrier.wait();
            }
            (state, rec, lat)
        });
        let rounds = coordinate(barrier, kind, args.seconds, &plan, |phase| match phase {
            Phase::Warmed => (before, heap_before) = (prt.stats(), prt.heap_footprint()),
            Phase::FixedWork => memory = (stats::peak_rss_mib(), prt.estimated_metadata_bytes()),
            Phase::Cycle(n) if n > common::MEMORY_CYCLES && n % SETUP_EVERY == 0 => {
                setup_failed += timed_build(&mut setups).1;
            }
            Phase::Cycle(_) => {}
        });
        let producer = p.join().expect("producer panicked");
        let consumer = c.join().expect("consumer panicked");
        (rounds, producer, consumer)
    });
    let (prod, prod_rec) = producer;
    let (cons, cons_rec, lat) = consumer;
    let after = polar.stats();
    let footprint = polar.heap_footprint();

    let mut out = Outcome {
        attempted: prod.seq.max(1),
        failed: setup_failed + prod.failed + cons.failed,
        ..Outcome::default()
    };
    if cons.handed != prod.seq || cons.freed != prod.seq {
        out.note_failure(format!(
            "{} produced, {} handed over, {} freed",
            prod.seq, cons.handed, cons.freed
        ));
    }
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
    let live = after.allocations.saturating_sub(after.frees);
    if live != 0 {
        out.note_failure(format!("{live} objects still live after the last round"));
    }

    let peak = sh.counts.peak_live.load(Ordering::Relaxed).max(1);
    let throughput = rounds.polar_rate(PER_ROUND as f64);
    if args.trace {
        let mut ledger = Ledger::default();
        ledger.absorb(prod_rec);
        ledger.absorb(cons_rec);
        let _ = ledger.write_spans(&args.spans_path());
        out.layer = common::layer_metrics(&LayerInputs {
            ledger: &ledger,
            counters: common::delta(&after, &before),
            heap: HeapView {
                bytes_live: footprint.bytes_live as f64,
                bytes_peak: footprint.bytes_peak as f64,
                peak_live: peak as f64,
                heap_allocs: footprint.heap_allocs - heap_before.heap_allocs,
            },
            count_per: 1.0,
            ir_steps: 0,
            instrument_pass_s: 0.0,
            trace_overhead: throughput / rounds.traced_rate(PER_ROUND as f64) - 1.0,
        });
    }
    out.latency = lat;
    out.throughput = throughput;
    out.slowdown = median(&rounds.cycle_ratios()).unwrap_or(0.0);
    out.setup_s = median(&setups).unwrap_or(0.0);
    out.peak_rss_mib = memory.0;
    // The measured live peak moves with thread timing; the queue's
    // capacity is the window's fixed live set.
    out.meta_bytes_per_live = memory.1 as f64 / (QUEUE_DEPTH * BATCH) as f64;
    out.summary.push(rounds.polar_summary());
    out.summary.push(format!(
        "{} POLaR rounds of {PER_ROUND} hand-offs; {} baseline rounds; peak live {peak}; {} set-ups",
        rounds.polar.len(),
        rounds.native.len(),
        setups.len(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(seq: u64) -> Vec<Msg> {
        vec![Msg {
            addr: None,
            class: 0,
            seq,
            copy: false,
            produce_ns: 0,
        }]
    }

    #[test]
    fn spin_queue_keeps_order_and_closes_like_a_channel() {
        let q = SpinQueue::new();
        let n = 10 * QUEUE_DEPTH as u64;
        std::thread::scope(|s| {
            let tx = End(&q);
            let producer = s.spawn(move || {
                for i in 0..n {
                    tx.send(batch(i)).expect("the consumer is still there");
                }
            });
            let rx = End(&q);
            for i in 0..n {
                assert_eq!(rx.recv().expect("a batch")[0].seq, i);
            }
            producer.join().expect("producer finished");
            // The producer's end is gone and the queue is empty.
            assert!(rx.recv().is_none());
        });
        let q = SpinQueue::new();
        let tx = End(&q);
        drop(End(&q));
        assert!(tx.send(batch(0)).is_err());
    }
}
