//! Pieces the three workloads share: the round schedule, counter deltas,
//! and the per-layer metric list.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use polar_runtime::RuntimeStats;

use crate::report::Metric;
use crate::stats::{interquartile_mean, quantile, ratio, Histogram};
use crate::trace::{Layer, Ledger, Op};

/// What one measured round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Workers leave their loop.
    Stop = 0,
    /// POLaR (per-allocation layouts), untraced.
    Polar = 1,
    /// The same work with randomization off: the slowdown baseline.
    Native = 2,
    /// POLaR with every layer call inside a span.
    Traced = 3,
}

/// Marks a stored kind as part of the untimed warm-up cycle.
const WARM: u8 = 0x80;

impl Kind {
    /// Decode a round stored by [`coordinate`]: its kind, and whether it
    /// belongs to the untimed warm-up cycle.
    pub fn load(cell: &AtomicU8) -> (Kind, bool) {
        let v = cell.load(Ordering::SeqCst);
        let kind = match v & !WARM {
            1 => Kind::Polar,
            2 => Kind::Native,
            3 => Kind::Traced,
            _ => Kind::Stop,
        };
        (kind, v & WARM != 0)
    }

    fn store(self, cell: &AtomicU8, warm: bool) {
        cell.store(self as u8 | if warm { WARM } else { 0 }, Ordering::SeqCst);
    }
}

/// Points of a run at which [`coordinate`] calls back, while the workers
/// wait between rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The warm-up cycle is done and the timed phase begins.
    Warmed,
    /// [`MEMORY_CYCLES`] measured cycles are done (or the last cycle, if
    /// fewer fit).
    FixedWork,
    /// Measured cycle `n` (counting from 1) is done; comes after
    /// [`Phase::FixedWork`] when both fall on the same cycle.
    Cycle(usize),
}

/// The round order for a run. Each cycle is A B B A, so neither side
/// always runs first, and the timed phase ends on a cycle boundary.
pub fn schedule(trace: bool) -> [Kind; 4] {
    if trace {
        [Kind::Polar, Kind::Traced, Kind::Traced, Kind::Polar]
    } else {
        [Kind::Polar, Kind::Native, Kind::Native, Kind::Polar]
    }
}

/// Wall time of every measured round, by kind, in seconds.
#[derive(Debug, Default)]
pub struct Rounds {
    /// POLaR rounds.
    pub polar: Vec<f64>,
    /// Baseline rounds.
    pub native: Vec<f64>,
    /// Traced rounds.
    pub traced: Vec<f64>,
}

impl Rounds {
    /// POLaR round times for the summary line: the quartiles, and the
    /// median of each half of the timed phase.
    pub fn polar_summary(&self) -> String {
        let ms = |v: &[f64], q: f64| quantile(v, q).unwrap_or(0.0) * 1e3;
        let (first, second) = self.polar.split_at(self.polar.len() / 2);
        format!(
            "POLaR round ms: q1 {:.2}, median {:.2}, q3 {:.2}; median of first/second half {:.2}/{:.2}",
            ms(&self.polar, 0.25),
            ms(&self.polar, 0.5),
            ms(&self.polar, 0.75),
            ms(first, 0.5),
            ms(second, 0.5)
        )
    }

    /// Interquartile mean over POLaR rounds of ops per second, each round
    /// doing `ops_per_round` ops.
    pub fn polar_rate(&self, ops_per_round: f64) -> f64 {
        rate(&self.polar, ops_per_round)
    }

    /// [`Rounds::polar_rate`] over the traced rounds.
    pub fn traced_rate(&self, ops_per_round: f64) -> f64 {
        rate(&self.traced, ops_per_round)
    }

    /// Per-cycle POLaR/baseline time ratios (two rounds of each a cycle).
    pub fn cycle_ratios(&self) -> Vec<f64> {
        self.polar
            .chunks_exact(2)
            .zip(self.native.chunks_exact(2))
            .map(|(p, n)| (p[0] + p[1]) / (n[0] + n[1]))
            .collect()
    }
}

fn rate(times: &[f64], ops: f64) -> f64 {
    let rates: Vec<f64> = times.iter().map(|t| ops / t).collect();
    interquartile_mean(&rates).unwrap_or(0.0)
}

/// Measured cycles after which the memory metrics are read, so that they
/// describe a fixed amount of work however fast the host runs.
pub const MEMORY_CYCLES: usize = 8;

/// Drive the worker threads through one untimed warm-up cycle and then
/// whole cycles of `schedule` until `seconds` have passed. Workers meet
/// at `barrier` before and after every round and read the round's kind
/// from `kind` in between; a round's time runs from the first meeting to
/// the second. `at` is called at each [`Phase`]. Workers flush their
/// handles' counters in warm-up rounds, so counters read at
/// [`Phase::Warmed`] are exact.
pub fn coordinate(
    barrier: &Barrier,
    kind: &AtomicU8,
    seconds: f64,
    schedule: &[Kind],
    mut at: impl FnMut(Phase),
) -> Rounds {
    let mut rounds = Rounds::default();
    let run = |k: Kind, warm: bool| {
        k.store(kind, warm);
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        start.elapsed().as_secs_f64()
    };
    for &k in schedule {
        run(k, true);
    }
    at(Phase::Warmed);
    let start = Instant::now();
    let mut cycles = 0;
    while start.elapsed().as_secs_f64() < seconds {
        for &k in schedule {
            let t = run(k, false);
            match k {
                Kind::Polar => rounds.polar.push(t),
                Kind::Native => rounds.native.push(t),
                Kind::Traced => rounds.traced.push(t),
                Kind::Stop => {}
            }
        }
        cycles += 1;
        if cycles == MEMORY_CYCLES {
            at(Phase::FixedWork);
        }
        at(Phase::Cycle(cycles));
    }
    if cycles < MEMORY_CYCLES {
        at(Phase::FixedWork);
    }
    Kind::Stop.store(kind, false);
    barrier.wait();
    rounds
}

/// `after - before` for the counters the ledger derives ratios from.
/// Level counters (`unique_plans`) are taken from `after` as they stand.
pub fn delta(after: &RuntimeStats, before: &RuntimeStats) -> RuntimeStats {
    let d = |a: u64, b: u64| a.saturating_sub(b);
    RuntimeStats {
        allocations: d(after.allocations, before.allocations),
        frees: d(after.frees, before.frees),
        memcpys: d(after.memcpys, before.memcpys),
        member_accesses: d(after.member_accesses, before.member_accesses),
        shadow_hits: d(after.shadow_hits, before.shadow_hits),
        shadow_misses: d(after.shadow_misses, before.shadow_misses),
        site_ic_hits: d(after.site_ic_hits, before.site_ic_hits),
        site_ic_misses: d(after.site_ic_misses, before.site_ic_misses),
        stateless_allocs: d(after.stateless_allocs, before.stateless_allocs),
        pool_hits: d(after.pool_hits, before.pool_hits),
        lockfree_reads: d(after.lockfree_reads, before.lockfree_reads),
        lockfree_fallbacks: d(after.lockfree_fallbacks, before.lockfree_fallbacks),
        magazine_hits: d(after.magazine_hits, before.magazine_hits),
        magazine_refills: d(after.magazine_refills, before.magazine_refills),
        fast_frees: d(after.fast_frees, before.fast_frees),
        remote_drained: d(after.remote_drained, before.remote_drained),
        unique_plans: after.unique_plans,
        ..RuntimeStats::default()
    }
}

/// Heap figures for the `simheap.*` ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapView {
    /// Heap bytes allocated at the end of the traced phase.
    pub bytes_live: f64,
    /// High-water mark of heap bytes allocated.
    pub bytes_peak: f64,
    /// Largest number of live objects seen.
    pub peak_live: f64,
    /// Raw heap allocations made during the traced phase.
    pub heap_allocs: u64,
}

/// Everything the per-layer metric list is computed from.
pub struct LayerInputs<'a> {
    /// Merged spans of the traced rounds.
    pub ledger: &'a Ledger,
    /// Runtime counter deltas over the traced rounds only.
    pub counters: RuntimeStats,
    /// Heap figures.
    pub heap: HeapView,
    /// Span counts and ratio bases are divided by this (1, or the pass
    /// count where one pass of fixed work is the natural unit and counts
    /// then repeat exactly).
    pub count_per: f64,
    /// Interpreter steps of one traced pass (0 where no IR runs).
    pub ir_steps: u64,
    /// Instrumentation pass time of set-up (0 where nothing is built).
    pub instrument_pass_s: f64,
    /// Untraced over traced throughput, minus one.
    pub trace_overhead: f64,
}

fn pct(h: &Histogram, q: f64) -> f64 {
    h.percentile(q).unwrap_or(0.0)
}

/// The per-layer metrics, every name in the benchmark's `per_layer` list,
/// in that order. A metric of a layer call the workload never makes reads
/// 0 with a 0 count or base beside it.
pub fn layer_metrics(x: &LayerInputs<'_>) -> Vec<Metric> {
    let l = x.ledger;
    let c = &x.counters;
    let mut out = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| out.push(Metric::new(name, value, unit));
    for (op, tails) in [
        (Op::ReadField, true),
        (Op::WriteField, true),
        (Op::OlrMalloc, true),
        (Op::OlrFree, true),
        (Op::OlrMemcpy, false),
        (Op::OlrGetptrIc, false),
    ] {
        let agg = l.op(op);
        push(
            &format!("{}.count", op.name()),
            agg.count as f64 / x.count_per,
            "count",
        );
        push(&format!("{}.p50_ns", op.name()), pct(&agg.hist, 0.5), "ns");
        if tails {
            push(&format!("{}.p99_ns", op.name()), pct(&agg.hist, 0.99), "ns");
        }
    }
    let stats = l.op(Op::Stats);
    push(
        "runtime.stats.count",
        stats.count as f64 / x.count_per,
        "count",
    );
    push("runtime.stats.p50_ns", pct(&stats.hist, 0.5), "ns");
    push("runtime.stats.max_ns", stats.hist.max() as f64, "ns");

    let served = c.magazine_hits + c.magazine_refills;
    let reads = c.lockfree_reads + c.lockfree_fallbacks;
    let shadow = c.shadow_hits + c.shadow_misses;
    let site = c.site_ic_hits + c.site_ic_misses;
    let stored = c.allocations.saturating_sub(c.stateless_allocs);
    for (name, num, base) in [
        ("runtime.magazine_hit_rate", c.magazine_hits, served),
        ("runtime.lockfree_read_rate", c.lockfree_reads, reads),
        ("runtime.drain_ratio", c.remote_drained, c.fast_frees),
        ("runtime.shadow_hit_rate", c.shadow_hits, shadow),
        ("runtime.site_ic_hit_rate", c.site_ic_hits, site),
        ("layout.pool_hit_rate", c.pool_hits, stored),
        ("layout.stateless_share", c.stateless_allocs, c.allocations),
    ] {
        push(name, ratio(num, base), "ratio");
        push(&format!("{name}.base"), base as f64 / x.count_per, "count");
    }
    push("layout.unique_plans", c.unique_plans as f64, "count");

    let h = &x.heap;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    push(
        "simheap.bytes_per_live",
        per(h.bytes_peak, h.peak_live),
        "B",
    );
    push(
        "simheap.fragmentation",
        per(h.bytes_peak, h.bytes_live),
        "ratio",
    );
    push(
        "simheap.heap_allocs_per_alloc",
        ratio(h.heap_allocs, c.allocations),
        "ratio",
    );
    let heap = l.op(Op::HeapAccess);
    push(
        "simheap.heap_access.count",
        heap.count as f64 / x.count_per,
        "count",
    );
    push("simheap.heap_access.p50_ns", pct(&heap.hist, 0.5), "ns");

    push("ir.steps", x.ir_steps as f64, "count");
    let ir_ns = l.layer_self[Layer::Ir as usize];
    let steps_traced = x.ir_steps as f64 * x.count_per;
    push("ir.ns_per_step", per(ir_ns, steps_traced), "ns");
    push("instrument.pass_s", x.instrument_pass_s, "s");

    for layer in [Layer::Runtime, Layer::Simheap, Layer::Ir, Layer::Driver] {
        push(
            &format!("{}.busy_share", layer.name()),
            l.share(layer),
            "ratio",
        );
    }
    push("driver.wait_share", l.share(Layer::Wait), "ratio");
    push("driver.span_coverage", l.coverage(), "ratio");
    push("driver.trace_overhead", x.trace_overhead, "ratio");
    out
}

/// Mix `x` into a well-spread 64-bit value (the SplitMix64 finalizer):
/// the oracles derive every field value from `(seed, sequence, field)`.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_ratios_pair_rounds_by_cycle() {
        let r = Rounds {
            polar: vec![1.0, 1.0, 3.0, 1.0],
            native: vec![1.0, 1.0, 1.0, 1.0],
            traced: vec![],
        };
        assert_eq!(r.cycle_ratios(), vec![1.0, 2.0]);
    }

    #[test]
    fn layer_metrics_cover_every_name_once() {
        let ledger = Ledger::default();
        let x = LayerInputs {
            ledger: &ledger,
            counters: RuntimeStats::default(),
            heap: HeapView::default(),
            count_per: 1.0,
            ir_steps: 0,
            instrument_pass_s: 0.0,
            trace_overhead: 0.0,
        };
        let names: Vec<String> = layer_metrics(&x).into_iter().map(|m| m.name).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(names.iter().all(|n| n.len() <= 64));
    }
}
