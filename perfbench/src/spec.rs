//! `spec-interp`: the eleven Figure 6 mini-SPEC programs in the IR
//! interpreter, each run under per-allocation POLaR and natively, back to
//! back, on the single-context `ObjectRuntime`.
//!
//! Set-up builds the programs and runs the instrumentation pass. It is
//! timed in batches, one before the first pass and one after every pass,
//! so that `setup_s` samples the whole run as the passes do. Every
//! timed pass runs all eleven programs in a seed-shuffled order; the
//! native run goes first on even passes and second on odd ones. POLaR
//! output must equal native output, with zero detections.
//!
//! Latency is sampled by a tracer that reads the clock once per
//! [`QUANTUM`] retired basic-block edges: an op for `p50_us`/`p99_us` is
//! one such quantum of interpreted control flow, runtime calls included.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use polar_classinfo::{ClassHash, ClassInfo};
use polar_instrument::{instrument, InstrumentOptions};
use polar_ir::interp::{run as interp_run, ExecReport};
use polar_ir::trace::{TraceEvent, Tracer};
use polar_layout::LayoutPlan;
use polar_rng::seq::SliceRandom;
use polar_rng::SplitMix64;
use polar_runtime::{
    ObjectRuntime, PolarRuntime, RandomizeMode, RuntimeConfig, RuntimeError, RuntimeStats,
    SiteCache, TrapReport,
};
use polar_simheap::{Addr, HeapError};
use polar_workloads::Workload;

use crate::common::{self, HeapView, LayerInputs};
use crate::stats::{self, geomean, interquartile_mean, median, RoundLatency};
use crate::trace::{self, Ledger, Op, Recorder, Spans};
use crate::{Args, Outcome};

/// Basic-block edges per latency sample.
const QUANTUM: u64 = 1_024;
/// Every `HEAP_SAMPLE`-th raw heap call is timed in the traced run.
const HEAP_SAMPLE: u64 = 64;
/// Set-ups timed together as one `setup_s` sample. One set-up takes
/// well under a millisecond, less than the time the host takes to switch
/// between its fast and slow states; a batch spans several switches.
const SETUP_BATCH: usize = 8;
const HEAP_CAPACITY: usize = 512 << 20;

/// A Figure 6 program and its instrumented build.
struct Program {
    w: Workload,
    hardened: polar_ir::Module,
}

/// Reads the clock every [`QUANTUM`] edges and records the elapsed time
/// into `hist` when one is given (native runs pay the same tracer cost
/// but record nothing).
struct QuantumClock<'h> {
    edges: u64,
    last: Instant,
    hist: Option<&'h mut RoundLatency>,
}

impl Tracer for QuantumClock<'_> {
    #[inline(always)]
    fn on_event(&mut self, event: &TraceEvent<'_>) {
        if let TraceEvent::Edge { .. } = event {
            self.edges += 1;
            if self.edges.is_multiple_of(QUANTUM) {
                let now = Instant::now();
                if let Some(h) = self.hist.as_deref_mut() {
                    h.record((now - self.last).as_nanos() as u64);
                }
                self.last = now;
            }
        }
    }
}

fn runtime(mode: RandomizeMode, seed: u64) -> ObjectRuntime {
    let mut config = RuntimeConfig::default();
    config.heap.capacity = HEAP_CAPACITY;
    config.seed = seed;
    ObjectRuntime::new(mode, config)
}

/// One execution; returns its report and wall time (the `run` call only).
fn execute<R: PolarRuntime>(
    p: &Program,
    polar: bool,
    rt: &mut R,
    hist: Option<&mut RoundLatency>,
) -> (ExecReport, f64) {
    let module = if polar { &p.hardened } else { &p.w.module };
    let mut clock = QuantumClock {
        edges: 0,
        last: Instant::now(),
        hist,
    };
    let start = Instant::now();
    clock.last = start;
    let report = interp_run(module, rt, &p.w.input, p.w.limits, &mut clock);
    (report, start.elapsed().as_secs_f64())
}

/// Times every call into the inner runtime. Raw `heap_*` calls are timed
/// 1 in [`HEAP_SAMPLE`] and counted always.
struct TracedRt<'a> {
    rt: &'a mut ObjectRuntime,
    rec: &'a RefCell<Recorder>,
    heap_calls: Cell<u64>,
}

#[inline]
fn timed<T>(rec: &RefCell<Recorder>, op: Op, f: impl FnOnce() -> T) -> T {
    rec.borrow_mut().begin(op);
    let out = f();
    rec.borrow_mut().end();
    out
}

#[inline]
fn sampled<T>(rec: &RefCell<Recorder>, calls: &Cell<u64>, f: impl FnOnce() -> T) -> T {
    let n = calls.get();
    calls.set(n + 1);
    if n.is_multiple_of(HEAP_SAMPLE) {
        timed(rec, Op::HeapAccess, f)
    } else {
        rec.borrow_mut().count_only(Op::HeapAccess);
        f()
    }
}

impl PolarRuntime for TracedRt<'_> {
    fn config(&self) -> &RuntimeConfig {
        self.rt.config()
    }

    fn stats(&self) -> RuntimeStats {
        timed(self.rec, Op::RuntimeOther, || {
            PolarRuntime::stats(&*self.rt)
        })
    }

    fn compile_time_plan(&mut self, info: &Arc<ClassInfo>) -> Arc<LayoutPlan> {
        timed(self.rec, Op::RuntimeOther, || {
            self.rt.compile_time_plan(info)
        })
    }

    fn olr_malloc(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError> {
        timed(self.rec, Op::OlrMalloc, || self.rt.olr_malloc(info))
    }

    fn olr_free(&mut self, base: Addr) -> Result<(), RuntimeError> {
        timed(self.rec, Op::OlrFree, || self.rt.olr_free(base))
    }

    fn olr_getptr_ic(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        ic: &mut SiteCache,
    ) -> Result<Addr, RuntimeError> {
        timed(self.rec, Op::OlrGetptrIc, || {
            self.rt.olr_getptr_ic(base, expected, field, ic)
        })
    }

    fn olr_memcpy(
        &mut self,
        dst: Addr,
        src: Addr,
        site_class: &Arc<ClassInfo>,
    ) -> Result<(), RuntimeError> {
        timed(self.rec, Op::OlrMemcpy, || {
            self.rt.olr_memcpy(dst, src, site_class)
        })
    }

    fn read_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
    ) -> Result<u64, RuntimeError> {
        timed(self.rec, Op::ReadField, || {
            self.rt.read_field(base, expected, field)
        })
    }

    fn write_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        value: u64,
    ) -> Result<(), RuntimeError> {
        timed(self.rec, Op::WriteField, || {
            self.rt.write_field(base, expected, field, value)
        })
    }

    fn check_traps(&mut self, base: Addr) -> Result<Vec<TrapReport>, RuntimeError> {
        timed(self.rec, Op::RuntimeOther, || self.rt.check_traps(base))
    }

    fn plan_size(&self, base: Addr) -> Option<u32> {
        timed(self.rec, Op::RuntimeOther, || {
            PolarRuntime::plan_size(&*self.rt, base)
        })
    }

    fn heap_malloc(&mut self, size: usize) -> Result<Addr, HeapError> {
        sampled(self.rec, &self.heap_calls, || self.rt.heap_malloc(size))
    }

    fn heap_free(&mut self, addr: Addr) -> Result<(), HeapError> {
        sampled(self.rec, &self.heap_calls, || self.rt.heap_free(addr))
    }

    fn heap_read_uint(&self, addr: Addr, width: usize) -> Result<u64, HeapError> {
        sampled(self.rec, &self.heap_calls, || {
            self.rt.heap_read_uint(addr, width)
        })
    }

    fn probe_read_uint(&mut self, addr: Addr, width: usize) -> Result<u64, RuntimeError> {
        timed(self.rec, Op::RuntimeOther, || {
            self.rt.probe_read_uint(addr, width)
        })
    }

    fn heap_write_uint(&mut self, addr: Addr, value: u64, width: usize) -> Result<(), HeapError> {
        sampled(self.rec, &self.heap_calls, || {
            self.rt.heap_write_uint(addr, value, width)
        })
    }

    fn heap_write(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), HeapError> {
        sampled(self.rec, &self.heap_calls, || {
            self.rt.heap_write(addr, bytes)
        })
    }

    fn heap_memmove(&mut self, dst: Addr, src: Addr, len: usize) -> Result<(), HeapError> {
        sampled(self.rec, &self.heap_calls, || {
            self.rt.heap_memmove(dst, src, len)
        })
    }

    fn heap_check_in_block(&self, addr: Addr, len: usize) -> Result<(), HeapError> {
        sampled(self.rec, &self.heap_calls, || {
            self.rt.heap_check_in_block(addr, len)
        })
    }
}

/// Build and instrument the programs [`SETUP_BATCH`] times; push the
/// mean time of one set-up to `setups` and of its instrumentation pass to
/// `passes_s`, and return the last build.
fn setup_batch(setups: &mut Vec<f64>, passes_s: &mut Vec<f64>) -> Vec<Program> {
    let start = Instant::now();
    let mut pass_s = 0.0;
    let mut programs = Vec::new();
    for _ in 0..SETUP_BATCH {
        programs = polar_workloads::fig6_spec()
            .into_iter()
            .map(|w| {
                let t = Instant::now();
                let (hardened, _) = instrument(&w.module, &InstrumentOptions::default());
                pass_s += t.elapsed().as_secs_f64();
                Program { w, hardened }
            })
            .collect();
    }
    let n = SETUP_BATCH as f64;
    setups.push(start.elapsed().as_secs_f64() / n);
    passes_s.push(pass_s / n);
    programs
}

/// Why a POLaR run does not match its reference, if it does not.
fn check(polar: &ExecReport, reference: &ExecReport) -> Option<String> {
    if polar.stats.total_detections() != 0 {
        return Some(format!("{} detections", polar.stats.total_detections()));
    }
    match (&polar.result, &reference.result) {
        (Ok(a), Ok(b)) if a == b && polar.output == reference.output => None,
        (Ok(_), Ok(_)) => Some("output differs from native".into()),
        (p, r) => Some(format!("POLaR {p:?}, native {r:?}")),
    }
}

/// POLaR-run aggregates of one kind of pass.
#[derive(Default)]
struct Totals {
    runs: u64,
    seconds: f64,
    steps: u64,
    stats: RuntimeStats,
    meta_bytes: u64,
    live: u64,
    bytes_live: u64,
    bytes_peak: u64,
    heap_allocs: u64,
}

impl Totals {
    fn add(&mut self, rt: &ObjectRuntime, report: &ExecReport, seconds: f64) {
        self.runs += 1;
        self.seconds += seconds;
        self.steps += report.steps;
        let mut stats = report.stats;
        // A fresh runtime per run: its interner's plan count is this
        // run's, and summing counts plans per pass.
        stats.unique_plans = rt.stats().unique_plans;
        self.stats += stats;
        self.meta_bytes += rt.estimated_metadata_bytes() as u64;
        self.live += report.stats.allocations.saturating_sub(report.stats.frees);
        let heap = rt.heap().stats();
        self.bytes_live += heap.bytes_live as u64;
        self.bytes_peak += heap.bytes_peak as u64;
        self.heap_allocs += heap.allocs;
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let (mut setups, mut passes_s) = (Vec::new(), Vec::new());
    let programs = setup_batch(&mut setups, &mut passes_s);
    let mut order: Vec<usize> = (0..programs.len()).collect();
    order.shuffle(&mut SplitMix64::new(args.seed));
    let mut out = Outcome::default();

    // The traced run has no native runs of its own; it checks against
    // native references made once here.
    let references: Vec<ExecReport> = if args.trace {
        programs
            .iter()
            .map(|p| execute(p, false, &mut runtime(RandomizeMode::Native, 0), None).0)
            .collect()
    } else {
        Vec::new()
    };

    let mut lat = RoundLatency::default();
    let mut ignored = RoundLatency::default();
    // POLaR steps per second of each measured pass, by kind.
    let (mut untraced_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    let (mut untraced, mut traced) = (Totals::default(), Totals::default());
    let rec = RefCell::new(Recorder::new(0, Instant::now()));
    let mut traced_passes = 0u64;
    let mut start = Instant::now();
    // Pass 0 is an untimed warm-up; then whole passes until time is up,
    // at least one.
    let mut pass = 0u64;
    while pass < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let warm = pass == 0;
        if pass == 1 {
            start = Instant::now();
        }
        // Trace runs alternate untraced and traced passes A B B A.
        let tracing = args.trace && !warm && matches!(pass % 4, 2 | 3);
        if tracing {
            rec.borrow_mut().begin(Op::Round);
            traced_passes += 1;
        }
        // (steps, seconds) before this pass, for its own rate.
        let before = if tracing {
            (traced.steps, traced.seconds)
        } else {
            (untraced.steps, untraced.seconds)
        };
        for (k, &i) in order.iter().enumerate() {
            let p = &programs[i];
            let seed = args.seed ^ common::mix(pass << 8 | k as u64);
            let native_first = pass.is_multiple_of(2);
            let mut native = None;
            if !args.trace && native_first {
                native = Some(execute(
                    p,
                    false,
                    &mut runtime(RandomizeMode::Native, seed),
                    None,
                ));
            }
            let mut rt = runtime(RandomizeMode::per_allocation(), seed);
            let (report, secs) = if tracing {
                let mut traced_rt = TracedRt {
                    rt: &mut rt,
                    rec: &rec,
                    heap_calls: Cell::new(0),
                };
                rec.borrow_mut().begin(Op::IrRun);
                let r = execute(p, true, &mut traced_rt, Some(&mut ignored));
                rec.borrow_mut().end();
                r
            } else {
                execute(p, true, &mut rt, if warm { None } else { Some(&mut lat) })
            };
            if !args.trace && !native_first {
                native = Some(execute(
                    p,
                    false,
                    &mut runtime(RandomizeMode::Native, seed),
                    None,
                ));
            }
            let failure = match &native {
                Some((n, _)) => check(&report, n),
                None => check(&report, &references[i]),
            };
            out.attempted += 1;
            if let Some(why) = failure {
                out.note_failure(format!("{}: {why}", p.w.name));
            }
            if warm {
                continue;
            }
            if let Some((_, native_s)) = native {
                ratios[i].push(secs / native_s);
            }
            if tracing {
                traced.add(&rt, &report, secs);
            } else {
                untraced.add(&rt, &report, secs);
            }
        }
        if tracing {
            rec.borrow_mut().end();
        }
        if pass as usize == common::MEMORY_CYCLES {
            out.peak_rss_mib = stats::peak_rss_mib();
        }
        drop(setup_batch(&mut setups, &mut passes_s));
        if !warm {
            let t = if tracing { &mut traced } else { &mut untraced };
            let rate = (t.steps - before.0) as f64 / (t.seconds - before.1);
            if tracing {
                traced_rates.push(rate);
            } else {
                untraced_rates.push(rate);
                lat.close_round();
            }
        }
        pass += 1;
    }

    if out.peak_rss_mib.is_none() {
        out.peak_rss_mib = stats::peak_rss_mib();
    }
    let throughput = interquartile_mean(&untraced_rates).unwrap_or(0.0);
    if args.trace {
        let mut ledger = Ledger::default();
        ledger.absorb(rec.into_inner());
        ledger.settle_sampled(trace::empty_span_ns());
        let _ = ledger.write_spans(&args.spans_path());
        let mut counters = traced.stats;
        let per_pass = traced_passes.max(1);
        counters.unique_plans /= per_pass;
        out.layer = common::layer_metrics(&LayerInputs {
            ledger: &ledger,
            counters,
            heap: HeapView {
                bytes_live: traced.bytes_live as f64,
                bytes_peak: traced.bytes_peak as f64,
                peak_live: traced.live as f64,
                heap_allocs: traced.heap_allocs,
            },
            count_per: per_pass as f64,
            ir_steps: traced.steps / per_pass,
            instrument_pass_s: median(&passes_s).unwrap_or(0.0),
            trace_overhead: throughput / interquartile_mean(&traced_rates).unwrap_or(f64::NAN)
                - 1.0,
        });
    }
    let per_program: Vec<f64> = ratios.iter().filter_map(|r| median(r)).collect();
    out.latency = lat;
    out.throughput = throughput;
    out.slowdown = if args.trace {
        0.0
    } else {
        geomean(&per_program).unwrap_or(0.0)
    };
    out.setup_s = median(&setups).unwrap_or(0.0);
    out.meta_bytes_per_live = untraced.meta_bytes as f64 / untraced.live.max(1) as f64;
    out.summary.push(format!(
        "{} POLaR runs ({} passes after warm-up) retired {} steps in {:.2} s",
        untraced.runs,
        pass - 1,
        untraced.steps,
        untraced.seconds
    ));
    out.summary.push(format!(
        "set-up: {} batches of {SETUP_BATCH}; ms per set-up q1 {:.3}, median {:.3}, q3 {:.3}",
        setups.len(),
        stats::quantile(&setups, 0.25).unwrap_or(0.0) * 1e3,
        out.setup_s * 1e3,
        stats::quantile(&setups, 0.75).unwrap_or(0.0) * 1e3
    ));
    let rates: Vec<String> = untraced_rates
        .iter()
        .map(|r| format!("{:.0}", r / 1e6))
        .collect();
    out.summary
        .push(format!("POLaR Msteps/s by pass: {}", rates.join(" ")));
    if !args.trace {
        for (i, r) in ratios.iter().enumerate() {
            out.summary.push(format!(
                "  {:<14} slowdown {:.3} (median of {})",
                programs[i].w.name,
                median(r).unwrap_or(0.0),
                r.len()
            ));
        }
    }
    out
}
