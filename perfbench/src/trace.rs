//! The traced run's span recorder.
//!
//! Spans are opened and closed by the benchmark's own code around every
//! call it makes into a layer, kept in memory per thread, merged into a
//! [`Ledger`] when the run ends, and written out then. A span's *self
//! time* is its duration minus the time its child spans cover, so the
//! self times of all spans add up exactly to the root spans' wall time:
//! that sum is the per-layer ledger.
//!
//! The interpreter's raw `heap_*` calls are too frequent and too short
//! to time every one, so they are timed on a deterministic 1-in-N
//! sample and counted in full ([`Spans::count_only`]). When the ledger
//! is finished, each uncounted call is charged the sampled mean and that
//! time moves from the enclosing layer's self time to the heap's.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Histogram;

/// A layer of the system, or the benchmark's own code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `polar-runtime`: the `olr_*` ops, field access and `stats()`.
    Runtime,
    /// `polar-simheap`: raw heap calls made by the interpreter.
    Simheap,
    /// `polar-ir`: the interpreter's own time.
    Ir,
    /// The benchmark driver: op generation, oracles, bookkeeping.
    Driver,
    /// Driver time spent waiting on the hand-off queue (no work done).
    Wait,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 5] = [
    Layer::Runtime,
    Layer::Simheap,
    Layer::Ir,
    Layer::Driver,
    Layer::Wait,
];

impl Layer {
    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Runtime => "runtime",
            Layer::Simheap => "simheap",
            Layer::Ir => "ir",
            Layer::Driver => "driver",
            Layer::Wait => "wait",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A span kind: one public entry point of a layer, or a driver scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `read_field` (seqlock fast path or shard-lock fallback).
    ReadField,
    /// `write_field` (takes the shard lock).
    WriteField,
    /// `olr_malloc` (magazine pop or refill).
    OlrMalloc,
    /// `olr_free` (remote push or locked free).
    OlrFree,
    /// `olr_memcpy`.
    OlrMemcpy,
    /// `ShardedRuntime::stats()` (the scrape).
    Stats,
    /// `olr_getptr_ic` from the interpreter.
    OlrGetptrIc,
    /// Any other runtime entry point the interpreter calls.
    RuntimeOther,
    /// The interpreter's raw `heap_*` calls.
    HeapAccess,
    /// One `polar_ir::interp::run`.
    IrRun,
    /// One measured round of a driver thread (the root span).
    Round,
    /// A send or receive on the hand-off queue, waiting included.
    QueueWait,
}

/// Number of [`Op`] kinds.
pub const OPS: usize = 12;

impl Op {
    /// Report name, prefixed with the layer.
    pub fn name(self) -> &'static str {
        match self {
            Op::ReadField => "runtime.read_field",
            Op::WriteField => "runtime.write_field",
            Op::OlrMalloc => "runtime.olr_malloc",
            Op::OlrFree => "runtime.olr_free",
            Op::OlrMemcpy => "runtime.olr_memcpy",
            Op::Stats => "runtime.stats",
            Op::OlrGetptrIc => "runtime.olr_getptr_ic",
            Op::RuntimeOther => "runtime.other",
            Op::HeapAccess => "simheap.heap_access",
            Op::IrRun => "ir.run",
            Op::Round => "driver.round",
            Op::QueueWait => "driver.queue_wait",
        }
    }

    /// The layer this span's self time is charged to.
    pub fn layer(self) -> Layer {
        match self {
            Op::HeapAccess => Layer::Simheap,
            Op::IrRun => Layer::Ir,
            Op::Round => Layer::Driver,
            Op::QueueWait => Layer::Wait,
            _ => Layer::Runtime,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Where the driver code reports spans. [`NoSpans`] compiles to nothing,
/// so untraced rounds run exactly the untraced code.
pub trait Spans {
    /// Open a span of kind `op` as a child of the innermost open span.
    fn begin(&mut self, op: Op);
    /// Close the innermost open span.
    fn end(&mut self);
    /// Count one call of `op` without timing it (sampled timing).
    fn count_only(&mut self, op: Op);
}

/// The untraced sink.
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn begin(&mut self, _op: Op) {}
    #[inline(always)]
    fn end(&mut self) {}
    #[inline(always)]
    fn count_only(&mut self, _op: Op) {}
}

/// Run `f` inside a span of kind `op`.
#[inline(always)]
pub fn span<S: Spans, T>(spans: &mut S, op: Op, f: impl FnOnce() -> T) -> T {
    spans.begin(op);
    let out = f();
    spans.end();
    out
}

/// Per-kind aggregate.
#[derive(Clone, Default)]
pub struct OpAgg {
    /// Calls, timed or not.
    pub count: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Summed duration of the timed calls.
    pub total_ns: u64,
    /// Durations of the timed calls.
    pub hist: Histogram,
}

/// One closed span, as written out at the end of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Recording thread.
    pub thread: u16,
    /// Span id, unique per thread, from 1.
    pub id: u64,
    /// Parent span id (0 for a root span).
    pub parent: u64,
    /// Root span id: every span of one round shares it.
    pub root: u64,
    /// Span kind.
    pub op: Op,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
}

struct Open {
    op: Op,
    id: u64,
    start: u64,
    child: u64,
}

/// Spans kept verbatim per thread for the written-out trace; the rest
/// are folded into aggregates only.
const KEEP: usize = 20_000;

/// One thread's in-memory span recorder.
pub struct Recorder {
    epoch: Instant,
    thread: u16,
    next_id: u64,
    stack: Vec<Open>,
    ops: Vec<OpAgg>,
    layer_self: [u64; LAYERS.len()],
    /// `[op][layer]`: untimed calls of `op` made inside a span of `layer`.
    unsampled: [[u64; LAYERS.len()]; OPS],
    root_ns: u64,
    kept: Vec<SpanRec>,
}

impl Recorder {
    /// A recorder for thread `thread`, timing from `epoch`.
    pub fn new(thread: u16, epoch: Instant) -> Self {
        Recorder {
            epoch,
            thread,
            next_id: 1,
            stack: Vec::with_capacity(8),
            ops: vec![OpAgg::default(); OPS],
            layer_self: [0; LAYERS.len()],
            unsampled: [[0; LAYERS.len()]; OPS],
            root_ns: 0,
            kept: Vec::new(),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// [`Spans::begin`] at an explicit timestamp.
    pub fn begin_at(&mut self, op: Op, start: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            op,
            id,
            start,
            child: 0,
        });
    }

    /// [`Spans::end`] at an explicit timestamp.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (a driver bug).
    pub fn end_at(&mut self, end: u64) {
        let open = self.stack.pop().expect("end() without a matching begin()");
        let dur = end.saturating_sub(open.start);
        self.layer_self[open.op.layer().index()] += dur.saturating_sub(open.child);
        let agg = &mut self.ops[open.op.index()];
        agg.count += 1;
        agg.timed += 1;
        agg.total_ns += dur;
        agg.hist.record(dur);
        let (parent, root) = match self.stack.last_mut() {
            Some(p) => {
                p.child += dur;
                (p.id, self.stack[0].id)
            }
            None => {
                self.root_ns += dur;
                (0, open.id)
            }
        };
        if self.kept.len() < KEEP {
            self.kept.push(SpanRec {
                thread: self.thread,
                id: open.id,
                parent,
                root,
                op: open.op,
                start_ns: open.start,
                end_ns: end,
            });
        }
    }
}

impl Spans for Recorder {
    #[inline]
    fn begin(&mut self, op: Op) {
        let now = self.now();
        self.begin_at(op, now);
    }

    #[inline]
    fn end(&mut self) {
        let now = self.now();
        self.end_at(now);
    }

    #[inline]
    fn count_only(&mut self, op: Op) {
        self.ops[op.index()].count += 1;
        if let Some(top) = self.stack.last() {
            self.unsampled[op.index()][top.op.layer().index()] += 1;
        }
    }
}

/// Every thread's spans merged: the per-layer ledger of a traced run.
pub struct Ledger {
    /// Per-kind aggregates (index = `Op as usize`).
    pub ops: Vec<OpAgg>,
    /// Self time per layer, ns (index = `Layer as usize`), after the
    /// sampled-call estimate has been moved.
    pub layer_self: [f64; LAYERS.len()],
    /// Summed wall time of all root spans, ns.
    pub root_ns: u64,
    unsampled: [[u64; LAYERS.len()]; OPS],
    spans: Vec<SpanRec>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            ops: vec![OpAgg::default(); OPS],
            layer_self: [0.0; LAYERS.len()],
            root_ns: 0,
            unsampled: [[0; LAYERS.len()]; OPS],
            spans: Vec::new(),
        }
    }
}

impl Ledger {
    /// Fold one thread's recorder in.
    ///
    /// # Panics
    ///
    /// Panics when the recorder still has an open span.
    pub fn absorb(&mut self, rec: Recorder) {
        assert!(rec.stack.is_empty(), "recorder finished with open spans");
        for (a, b) in self.ops.iter_mut().zip(&rec.ops) {
            a.count += b.count;
            a.timed += b.timed;
            a.total_ns += b.total_ns;
            a.hist.merge(&b.hist);
        }
        for (a, &b) in self.layer_self.iter_mut().zip(&rec.layer_self) {
            *a += b as f64;
        }
        for (a, b) in self.unsampled.iter_mut().zip(&rec.unsampled) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        self.root_ns += rec.root_ns;
        self.spans.extend(rec.kept);
    }

    /// Charge every untimed call its kind's sampled mean less
    /// `span_cost_ns` (the clock cost a timed span adds and an untimed
    /// call does not pay), moving that time from the enclosing layer to
    /// the call's own layer. The total is unchanged; a move is capped at
    /// what the enclosing layer holds.
    pub fn settle_sampled(&mut self, span_cost_ns: f64) {
        for (i, agg) in self.ops.iter().enumerate() {
            if agg.timed == 0 {
                continue;
            }
            let mean = (agg.total_ns as f64 / agg.timed as f64 - span_cost_ns).max(0.0);
            let to = ALL_OPS[i].layer().index();
            for from in 0..LAYERS.len() {
                let moved = (self.unsampled[i][from] as f64 * mean).min(self.layer_self[from]);
                self.layer_self[from] -= moved;
                self.layer_self[to] += moved;
            }
            self.unsampled[i] = [0; LAYERS.len()];
        }
    }

    /// Aggregate for one span kind.
    pub fn op(&self, op: Op) -> &OpAgg {
        &self.ops[op.index()]
    }

    /// Self time of `layer` as a share of the root spans' wall time.
    pub fn share(&self, layer: Layer) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.layer_self[layer.index()] / self.root_ns as f64
        }
    }

    /// Summed self time of every layer over the root wall time: 1 when
    /// the ledger accounts for all traced time.
    pub fn coverage(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.layer_self.iter().sum::<f64>() / self.root_ns as f64
        }
    }

    /// Write the kept spans as tab-separated text, one span a line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("thread\tid\tparent\troot\tspan\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.thread,
                s.id,
                s.parent,
                s.root,
                s.op.name(),
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Median duration of an empty span: what timing adds to every span.
pub fn empty_span_ns() -> f64 {
    let mut r = Recorder::new(0, Instant::now());
    for _ in 0..10_000 {
        r.begin(Op::RuntimeOther);
        r.end();
    }
    r.ops[Op::RuntimeOther.index()]
        .hist
        .percentile(0.5)
        .unwrap_or(0.0)
}

/// Every span kind, indexed by `Op as usize`.
const ALL_OPS: [Op; OPS] = [
    Op::ReadField,
    Op::WriteField,
    Op::OlrMalloc,
    Op::OlrFree,
    Op::OlrMemcpy,
    Op::Stats,
    Op::OlrGetptrIc,
    Op::RuntimeOther,
    Op::HeapAccess,
    Op::IrRun,
    Op::Round,
    Op::QueueWait,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut r = Recorder::new(0, Instant::now());
        // round [0, 1000) ⊃ ir.run [100, 900) ⊃ {getptr [200, 300), heap [400, 450)}
        r.begin_at(Op::Round, 0);
        r.begin_at(Op::IrRun, 100);
        r.begin_at(Op::OlrGetptrIc, 200);
        r.end_at(300);
        r.begin_at(Op::HeapAccess, 400);
        r.end_at(450);
        r.end_at(900);
        r.begin_at(Op::OlrMalloc, 950);
        r.end_at(980);
        r.end_at(1000);
        let mut l = Ledger::default();
        l.absorb(r);
        assert_eq!(l.root_ns, 1000);
        assert_eq!(l.layer_self[Layer::Runtime.index()], 100.0 + 30.0);
        assert_eq!(l.layer_self[Layer::Simheap.index()], 50.0);
        assert_eq!(l.layer_self[Layer::Ir.index()], 800.0 - 150.0);
        assert_eq!(l.layer_self[Layer::Driver.index()], 1000.0 - 800.0 - 30.0);
        assert!((l.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(l.op(Op::IrRun).total_ns, 800);
        // Parent links and the shared root id survive into the written trace.
        let getptr = l
            .spans
            .iter()
            .find(|s| s.op == Op::OlrGetptrIc)
            .expect("kept");
        let run = l.spans.iter().find(|s| s.op == Op::IrRun).expect("kept");
        let round = l.spans.iter().find(|s| s.op == Op::Round).expect("kept");
        assert_eq!(getptr.parent, run.id);
        assert_eq!(run.parent, round.id);
        assert_eq!(
            (getptr.root, run.root, round.root),
            (round.id, round.id, round.id)
        );
    }

    #[test]
    fn sampled_calls_move_their_estimate_to_their_layer() {
        let mut r = Recorder::new(0, Instant::now());
        r.begin_at(Op::IrRun, 0);
        r.begin_at(Op::HeapAccess, 10);
        r.end_at(20); // one timed call of 10 ns
        for _ in 0..9 {
            r.count_only(Op::HeapAccess);
        }
        r.end_at(1000);
        let mut l = Ledger::default();
        l.absorb(r);
        l.settle_sampled(0.0);
        assert_eq!(l.op(Op::HeapAccess).count, 10);
        assert_eq!(l.layer_self[Layer::Simheap.index()], 100.0);
        assert_eq!(l.layer_self[Layer::Ir.index()], 900.0);
        assert!((l.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_span_cost_is_not_charged_to_untimed_calls() {
        let mut r = Recorder::new(0, Instant::now());
        r.begin_at(Op::IrRun, 0);
        r.begin_at(Op::HeapAccess, 10);
        r.end_at(40); // 30 ns timed, 20 of them the clock
        for _ in 0..4 {
            r.count_only(Op::HeapAccess);
        }
        r.end_at(1000);
        let mut l = Ledger::default();
        l.absorb(r);
        l.settle_sampled(20.0);
        assert_eq!(l.layer_self[Layer::Simheap.index()], 30.0 + 4.0 * 10.0);
        assert!((l.coverage() - 1.0).abs() < 1e-12);
        assert!(empty_span_ns() >= 0.0);
    }

    #[test]
    fn threads_merge_into_one_ledger() {
        let epoch = Instant::now();
        let mut l = Ledger::default();
        for t in 0..2 {
            let mut r = Recorder::new(t, epoch);
            r.begin_at(Op::Round, 0);
            r.begin_at(Op::ReadField, 10);
            r.end_at(60);
            r.end_at(100);
            l.absorb(r);
        }
        assert_eq!(l.root_ns, 200);
        assert!((l.share(Layer::Runtime) - 0.5).abs() < 1e-12);
        assert!((l.share(Layer::Driver) - 0.5).abs() < 1e-12);
        assert_eq!(l.op(Op::ReadField).hist.count(), 2);
    }
}
