//! The IR interpreter.
//!
//! Executes a [`Module`] against a POLaR [`ObjectRuntime`]. Native object
//! instructions (`AllocObj`/`Gep`/`CopyObj`/`FreeObj`) execute the way an
//! unhardened binary would: deterministic natural layouts, no metadata, no
//! checks. Instrumented instructions (`OlrMalloc`/`OlrGetptr`/
//! `OlrMemcpy`/`OlrFree`) call into the runtime and therefore get
//! per-allocation randomization plus POLaR's detections.
//!
//! Execution outcomes distinguish *crashes* ([`ExecError::Fault`] — wild
//! accesses, double frees at the allocator level) from *security
//! detections* ([`ExecError::Detection`] — POLaR caught a UAF, a class
//! mismatch, or a booby trap), because the evaluation counts them
//! differently: a crash is an unexploitable failure, a detection is the
//! defense working.

use std::fmt;

use polar_runtime::{
    ObjectRuntime, PolarRuntime, RandomizeMode, RuntimeConfig, RuntimeError, RuntimeStats,
    SiteCache,
};
use polar_simheap::{Addr, HeapError};

use crate::trace::{NopTracer, TraceEvent, Tracer};
use crate::types::{BlockId, FuncId, Inst, Module, Reg, Terminator};

/// Execution limits preventing runaway programs (fuzzing inputs routinely
/// produce infinite loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum retired instructions (terminators included).
    pub max_steps: u64,
    /// Maximum call depth.
    pub max_call_depth: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits { max_steps: 20_000_000, max_call_depth: 256 }
    }
}

impl ExecLimits {
    /// Limits with a custom step budget.
    pub fn steps(max_steps: u64) -> Self {
        ExecLimits { max_steps, ..ExecLimits::default() }
    }
}

/// Why execution ended abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The step budget was exhausted.
    StepLimit,
    /// The call-depth budget was exhausted.
    CallDepth,
    /// Division or remainder by zero.
    DivByZero,
    /// A memory crash (wild access, allocator abuse) — the analogue of a
    /// segfault or glibc abort.
    Fault(HeapError),
    /// A POLaR security detection terminated the program.
    Detection(RuntimeError),
    /// The program executed an explicit `abort`.
    Abort(u32),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::StepLimit => write!(f, "step limit exceeded"),
            ExecError::CallDepth => write!(f, "call depth exceeded"),
            ExecError::DivByZero => write!(f, "division by zero"),
            ExecError::Fault(e) => write!(f, "memory fault: {e}"),
            ExecError::Detection(e) => write!(f, "security detection: {e}"),
            ExecError::Abort(code) => write!(f, "abort({code})"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<RuntimeError> for ExecError {
    fn from(e: RuntimeError) -> Self {
        match e {
            RuntimeError::Heap(h) => ExecError::Fault(h),
            other => ExecError::Detection(other),
        }
    }
}

impl From<HeapError> for ExecError {
    fn from(e: HeapError) -> Self {
        ExecError::Fault(e)
    }
}

/// The outcome of one execution.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// The entry function's return value, or the abnormal-exit reason.
    pub result: Result<u64, ExecError>,
    /// Values the program emitted with `out`.
    pub output: Vec<u64>,
    /// Retired instruction count.
    pub steps: u64,
    /// Runtime statistics at exit (Table III counters).
    pub stats: RuntimeStats,
}

impl ExecReport {
    /// Whether the run completed normally.
    pub fn ok(&self) -> bool {
        self.result.is_ok()
    }

    /// Whether the run ended in a POLaR security detection.
    pub fn detected(&self) -> bool {
        matches!(self.result, Err(ExecError::Detection(_)))
    }

    /// Whether the run crashed (fault, div-by-zero, abort).
    pub fn crashed(&self) -> bool {
        matches!(
            self.result,
            Err(ExecError::Fault(_)) | Err(ExecError::DivByZero) | Err(ExecError::Abort(_))
        )
    }
}

struct Frame {
    func: FuncId,
    block: BlockId,
    inst: usize,
    regs: Vec<u64>,
    ret_dst: Option<Reg>,
}

/// Run `module` against `rt` with `input` as the untrusted program input.
///
/// The runtime's mode decides how the `Olr*` instructions behave;
/// native object instructions ignore the mode entirely. `rt` is any
/// [`PolarRuntime`] — the plain [`ObjectRuntime`] or one `ShardHandle`
/// of a sharded runtime. The report's counters are `rt.stats()` at the
/// end of the run, so they cover everything this execution did.
pub fn run<T: Tracer, R: PolarRuntime + ?Sized>(
    module: &Module,
    rt: &mut R,
    input: &[u8],
    limits: ExecLimits,
    tracer: &mut T,
) -> ExecReport {
    // Resolve the layouts compile-time object sites bake in: natural
    // offsets for native/POLaR binaries, per-binary randomized offsets
    // under static OLR (randstruct-style hardening has no runtime
    // metadata — its diversification lives in the emitted code).
    let ct_plans: Vec<std::sync::Arc<polar_layout::LayoutPlan>> = module
        .registry
        .iter()
        .map(|(_, info)| rt.compile_time_plan(info))
        .collect();
    // Number the static `OlrGetptr` sites and give each one an inline
    // cache, mirroring what an AOT instrumentation pass would reserve
    // next to every rewritten `getelementptr`. `u32::MAX` marks
    // non-getptr instructions.
    let mut next_site = 0u32;
    let gep_sites: Vec<Vec<Vec<u32>>> = module
        .funcs
        .iter()
        .map(|f| {
            f.blocks
                .iter()
                .map(|b| {
                    b.insts
                        .iter()
                        .map(|inst| {
                            if matches!(inst, Inst::OlrGetptr { .. }) {
                                let id = next_site;
                                next_site += 1;
                                id
                            } else {
                                u32::MAX
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let gep_ics = vec![SiteCache::empty(); next_site as usize];
    let mut machine = Machine {
        module,
        rt,
        input,
        limits,
        tracer,
        ct_plans,
        gep_sites,
        gep_ics,
        output: Vec::new(),
        steps: 0,
    };
    let result = machine.exec_entry();
    let output = std::mem::take(&mut machine.output);
    let steps = machine.steps;
    ExecReport { result, output, steps, stats: rt.stats() }
}

/// Convenience: run an (uninstrumented) module on a fresh native-mode
/// runtime.
pub fn run_native(module: &Module, input: &[u8], limits: ExecLimits) -> ExecReport {
    let mut rt = ObjectRuntime::new(RandomizeMode::Native, RuntimeConfig::default());
    run(module, &mut rt, input, limits, &mut NopTracer)
}

/// Convenience: run with a fresh runtime in the given mode and config.
pub fn run_with_mode(
    module: &Module,
    mode: RandomizeMode,
    config: RuntimeConfig,
    input: &[u8],
    limits: ExecLimits,
) -> ExecReport {
    let mut rt = ObjectRuntime::new(mode, config);
    run(module, &mut rt, input, limits, &mut NopTracer)
}

struct Machine<'m, 'i, T: Tracer, R: PolarRuntime + ?Sized> {
    module: &'m Module,
    rt: &'m mut R,
    input: &'i [u8],
    limits: ExecLimits,
    tracer: &'m mut T,
    /// Per-class compile-time layouts (indexed by `ClassId`).
    ct_plans: Vec<std::sync::Arc<polar_layout::LayoutPlan>>,
    /// `[func][block][inst]` → site id for `OlrGetptr` instructions
    /// (`u32::MAX` elsewhere).
    gep_sites: Vec<Vec<Vec<u32>>>,
    /// One inline cache per static `OlrGetptr` site.
    gep_ics: Vec<SiteCache>,
    output: Vec<u64>,
    steps: u64,
}

impl<T: Tracer, R: PolarRuntime + ?Sized> Machine<'_, '_, T, R> {
    fn exec_entry(&mut self) -> Result<u64, ExecError> {
        let entry = self.module.entry;
        let mut stack = vec![Frame {
            func: entry,
            block: BlockId(0),
            inst: 0,
            regs: vec![0; usize::from(self.module.func(entry).regs)],
            ret_dst: None,
        }];
        let mut last_ret: u64 = 0;

        'outer: while let Some(frame) = stack.last_mut() {
            let func = self.module.func(frame.func);
            let block = &func.blocks[frame.block.0 as usize];

            while frame.inst < block.insts.len() {
                self.steps += 1;
                if self.steps > self.limits.max_steps {
                    return Err(ExecError::StepLimit);
                }
                let inst = &block.insts[frame.inst];
                frame.inst += 1;
                match inst {
                    Inst::Const { dst, value } => {
                        frame.regs[dst.0 as usize] = *value;
                        self.tracer.on_event(&TraceEvent::Scalar { inst });
                    }
                    Inst::Mov { dst, src } => {
                        frame.regs[dst.0 as usize] = frame.regs[src.0 as usize];
                        self.tracer.on_event(&TraceEvent::Scalar { inst });
                    }
                    Inst::Bin { op, dst, a, b } => {
                        let va = frame.regs[a.0 as usize];
                        let vb = frame.regs[b.0 as usize];
                        let v = op.apply(va, vb).ok_or(ExecError::DivByZero)?;
                        frame.regs[dst.0 as usize] = v;
                        self.tracer.on_event(&TraceEvent::Scalar { inst });
                    }
                    Inst::Cmp { op, dst, a, b } => {
                        let va = frame.regs[a.0 as usize];
                        let vb = frame.regs[b.0 as usize];
                        frame.regs[dst.0 as usize] = op.apply(va, vb);
                        self.tracer.on_event(&TraceEvent::Scalar { inst });
                    }
                    Inst::AllocObj { dst, class } => {
                        let plan = &self.ct_plans[class.0 as usize];
                        let size = plan.size().max(1);
                        let base = self.rt.heap_malloc(size as usize)?;
                        frame.regs[dst.0 as usize] = base.0;
                        self.tracer.on_event(&TraceEvent::ObjAlloc {
                            dst: *dst,
                            base,
                            class: *class,
                            size,
                        });
                    }
                    Inst::FreeObj { ptr } => {
                        let base = Addr(frame.regs[ptr.0 as usize]);
                        self.rt.heap_free(base)?;
                        self.tracer.on_event(&TraceEvent::ObjFree { base });
                    }
                    Inst::Gep { dst, obj, class, field } => {
                        let base = Addr(frame.regs[obj.0 as usize]);
                        // The fixed constant of Figure 1: base + the
                        // compile-time offset, no metadata, no checks.
                        let plan = &self.ct_plans[class.0 as usize];
                        let addr = base.offset(plan.offset(usize::from(*field)) as u64);
                        frame.regs[dst.0 as usize] = addr.0;
                        self.tracer.on_event(&TraceEvent::FieldAddr {
                            dst: *dst,
                            obj: *obj,
                            base,
                            addr,
                            class: *class,
                            field: *field,
                        });
                    }
                    Inst::CopyObj { dst, src, class } => {
                        let size = self.ct_plans[class.0 as usize].size();
                        let d = Addr(frame.regs[dst.0 as usize]);
                        let s = Addr(frame.regs[src.0 as usize]);
                        self.rt.heap_memmove(d, s, size as usize)?;
                        self.tracer.on_event(&TraceEvent::ObjCopy { dst: d, src: s, class: *class });
                    }
                    Inst::OlrMalloc { dst, class } => {
                        let info = self.module.registry.get(*class).clone();
                        let base = self.rt.olr_malloc(&info)?;
                        let size = self.rt.plan_size(base).unwrap_or_else(|| info.size());
                        frame.regs[dst.0 as usize] = base.0;
                        self.tracer.on_event(&TraceEvent::ObjAlloc {
                            dst: *dst,
                            base,
                            class: *class,
                            size,
                        });
                    }
                    Inst::OlrFree { ptr } => {
                        let base = Addr(frame.regs[ptr.0 as usize]);
                        self.rt.olr_free(base)?;
                        self.tracer.on_event(&TraceEvent::ObjFree { base });
                    }
                    Inst::OlrGetptr { dst, obj, class, field } => {
                        let base = Addr(frame.regs[obj.0 as usize]);
                        let hash = self.module.registry.get(*class).hash();
                        let site = self.gep_sites[frame.func.0 as usize]
                            [frame.block.0 as usize][frame.inst - 1];
                        let addr = self.rt.olr_getptr_ic(
                            base,
                            hash,
                            usize::from(*field),
                            &mut self.gep_ics[site as usize],
                        )?;
                        frame.regs[dst.0 as usize] = addr.0;
                        self.tracer.on_event(&TraceEvent::FieldAddr {
                            dst: *dst,
                            obj: *obj,
                            base,
                            addr,
                            class: *class,
                            field: *field,
                        });
                    }
                    Inst::OlrMemcpy { dst, src, class } => {
                        let d = Addr(frame.regs[dst.0 as usize]);
                        let s = Addr(frame.regs[src.0 as usize]);
                        let info = self.module.registry.get(*class).clone();
                        self.rt.olr_memcpy(d, s, &info)?;
                        self.tracer
                            .on_event(&TraceEvent::ObjCopy { dst: d, src: s, class: *class });
                    }
                    Inst::AllocBuf { dst, size } => {
                        let size = frame.regs[size.0 as usize].max(1);
                        let base = self.rt.heap_malloc(size as usize)?;
                        frame.regs[dst.0 as usize] = base.0;
                        self.tracer
                            .on_event(&TraceEvent::BufAlloc { dst: *dst, base, size });
                    }
                    Inst::FreeBuf { ptr } => {
                        let base = Addr(frame.regs[ptr.0 as usize]);
                        self.rt.heap_free(base)?;
                        self.tracer.on_event(&TraceEvent::BufFree { base });
                    }
                    Inst::Load { dst, addr, width } => {
                        let a = Addr(frame.regs[addr.0 as usize]);
                        if self.rt.config().redzone_checks {
                            self.rt.heap_check_in_block(a, usize::from(*width))?;
                        }
                        let v = self.rt.heap_read_uint(a, usize::from(*width))?;
                        frame.regs[dst.0 as usize] = v;
                        self.tracer
                            .on_event(&TraceEvent::Load { dst: *dst, addr: a, width: *width });
                    }
                    Inst::Store { addr, src, width } => {
                        let a = Addr(frame.regs[addr.0 as usize]);
                        let v = frame.regs[src.0 as usize];
                        if self.rt.config().redzone_checks {
                            self.rt.heap_check_in_block(a, usize::from(*width))?;
                        }
                        self.rt.heap_write_uint(a, v, usize::from(*width))?;
                        self.tracer
                            .on_event(&TraceEvent::Store { src: *src, addr: a, width: *width });
                    }
                    Inst::Memcpy { dst, src, len } => {
                        let d = Addr(frame.regs[dst.0 as usize]);
                        let s = Addr(frame.regs[src.0 as usize]);
                        let l = frame.regs[len.0 as usize];
                        if l > 0 {
                            if self.rt.config().redzone_checks {
                                self.rt.heap_check_in_block(s, l as usize)?;
                                self.rt.heap_check_in_block(d, l as usize)?;
                            }
                            self.rt.heap_memmove(d, s, l as usize)?;
                        }
                        self.tracer.on_event(&TraceEvent::Memcpy { dst: d, src: s, len: l });
                    }
                    Inst::InputLen { dst } => {
                        frame.regs[dst.0 as usize] = self.input.len() as u64;
                        self.tracer.on_event(&TraceEvent::InputLen { dst: *dst });
                    }
                    Inst::InputByte { dst, index } => {
                        let idx = frame.regs[index.0 as usize];
                        frame.regs[dst.0 as usize] =
                            self.input.get(idx as usize).copied().unwrap_or(0) as u64;
                        self.tracer.on_event(&TraceEvent::InputByte { dst: *dst, index: idx });
                    }
                    Inst::InputRead { buf, off, len } => {
                        let base = Addr(frame.regs[buf.0 as usize]);
                        let off_v = frame.regs[off.0 as usize] as usize;
                        let len_v = frame.regs[len.0 as usize] as usize;
                        let avail = self.input.len().saturating_sub(off_v).min(len_v);
                        if avail > 0 {
                            let bytes = self.input[off_v..off_v + avail].to_vec();
                            self.rt.heap_write(base, &bytes)?;
                        }
                        self.tracer.on_event(&TraceEvent::InputRead {
                            buf: base,
                            off: off_v as u64,
                            copied: avail as u64,
                        });
                    }
                    Inst::Call { func: callee, args, dst } => {
                        if stack.len() >= self.limits.max_call_depth {
                            return Err(ExecError::CallDepth);
                        }
                        let callee_fn = self.module.func(*callee);
                        self.tracer.on_event(&TraceEvent::CallEnter {
                            callee: *callee,
                            args,
                            callee_regs: callee_fn.regs,
                        });
                        let mut regs = vec![0u64; usize::from(callee_fn.regs)];
                        let frame = stack.last().expect("current frame");
                        for (i, a) in args.iter().enumerate() {
                            regs[i] = frame.regs[a.0 as usize];
                        }
                        stack.push(Frame {
                            func: *callee,
                            block: BlockId(0),
                            inst: 0,
                            regs,
                            ret_dst: *dst,
                        });
                        continue 'outer;
                    }
                    Inst::Out { src } => {
                        self.output.push(frame.regs[src.0 as usize]);
                    }
                    Inst::Abort { code } => return Err(ExecError::Abort(*code)),
                    Inst::Nop => {}
                }
            }

            // Terminator.
            self.steps += 1;
            if self.steps > self.limits.max_steps {
                return Err(ExecError::StepLimit);
            }
            match &block.term {
                Terminator::Jmp(target) => {
                    self.tracer.on_event(&TraceEvent::Edge {
                        func: frame.func,
                        from: frame.block,
                        to: *target,
                    });
                    frame.block = *target;
                    frame.inst = 0;
                }
                Terminator::Br { cond, then_bb, else_bb } => {
                    let taken = frame.regs[cond.0 as usize] != 0;
                    let target = if taken { *then_bb } else { *else_bb };
                    self.tracer.on_event(&TraceEvent::Branch { cond: *cond, taken });
                    self.tracer.on_event(&TraceEvent::Edge {
                        func: frame.func,
                        from: frame.block,
                        to: target,
                    });
                    frame.block = target;
                    frame.inst = 0;
                }
                Terminator::Ret(value) => {
                    let ret_val = value.map(|r| frame.regs[r.0 as usize]).unwrap_or(0);
                    let ret_dst = frame.ret_dst;
                    self.tracer
                        .on_event(&TraceEvent::CallExit { ret_src: *value, ret_dst });
                    stack.pop();
                    match stack.last_mut() {
                        Some(caller) => {
                            if let Some(dst) = ret_dst {
                                caller.regs[dst.0 as usize] = ret_val;
                            }
                        }
                        None => {
                            last_ret = ret_val;
                        }
                    }
                }
            }
        }
        Ok(last_ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::{BinOp, CmpOp};
    use polar_classinfo::{ClassDecl, FieldKind};

    fn people_decl() -> ClassDecl {
        ClassDecl::builder("People")
            .field("vtable", FieldKind::VtablePtr)
            .field("age", FieldKind::I32)
            .field("height", FieldKind::I32)
            .build()
    }

    #[test]
    fn arithmetic_and_return() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let a = f.const_(bb, 6);
        let b = f.const_(bb, 7);
        let p = f.bin(bb, BinOp::Mul, a, b);
        f.ret(bb, Some(p));
        mb.finish_function(f);
        let m = mb.build().unwrap();
        assert_eq!(run_native(&m, &[], ExecLimits::default()).result.unwrap(), 42);
    }

    #[test]
    fn loops_and_branches() {
        // sum 1..=10 via a loop.
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let body = f.block();
        let done = f.block();
        let i = f.const_(bb, 0);
        let acc = f.const_(bb, 0);
        f.jmp(bb, body);
        let one = f.const_(body, 1);
        let i2 = f.bin(body, BinOp::Add, i, one);
        f.mov_to(body, i, i2);
        let acc2 = f.bin(body, BinOp::Add, acc, i);
        f.mov_to(body, acc, acc2);
        let cond = f.cmpi(body, CmpOp::Lt, i, 10);
        f.br(body, cond, body, done);
        f.ret(done, Some(acc));
        mb.finish_function(f);
        let m = mb.build().unwrap();
        assert_eq!(run_native(&m, &[], ExecLimits::default()).result.unwrap(), 55);
    }

    #[test]
    fn native_object_field_roundtrip() {
        let mut mb = ModuleBuilder::new("m");
        let people = mb.add_class(people_decl()).unwrap();
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let obj = f.alloc_obj(bb, people);
        let h = f.gep(bb, obj, people, 2);
        let v = f.const_(bb, 170);
        f.store(bb, h, v, 4);
        let out = f.load(bb, h, 4);
        f.free_obj(bb, obj);
        f.ret(bb, Some(out));
        mb.finish_function(f);
        let m = mb.build().unwrap();
        assert_eq!(run_native(&m, &[], ExecLimits::default()).result.unwrap(), 170);
    }

    #[test]
    fn instrumented_object_roundtrip_under_polar() {
        let mut mb = ModuleBuilder::new("m");
        let people = mb.add_class(people_decl()).unwrap();
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let obj = f.reg();
        f.push(bb, Inst::OlrMalloc { dst: obj, class: people });
        let h = f.reg();
        f.push(bb, Inst::OlrGetptr { dst: h, obj, class: people, field: 2 });
        let v = f.const_(bb, 170);
        f.store(bb, h, v, 4);
        let out = f.load(bb, h, 4);
        f.push(bb, Inst::OlrFree { ptr: obj });
        f.ret(bb, Some(out));
        mb.finish_function(f);
        let m = mb.build().unwrap();
        assert!(m.is_instrumented());
        let report = run_with_mode(
            &m,
            RandomizeMode::per_allocation(),
            RuntimeConfig::default(),
            &[],
            ExecLimits::default(),
        );
        assert_eq!(report.result.unwrap(), 170);
        assert_eq!(report.stats.allocations, 1);
        assert_eq!(report.stats.member_accesses, 1);
    }

    /// On a sharded runtime the program runs as one handle, whose
    /// counts sit in its pending sheet until it flushes. The report is
    /// taken while the handle is alive, so it must still see them.
    #[test]
    fn handle_reports_include_unflushed_counts() {
        const OBJECTS: u64 = 5;
        let mut mb = ModuleBuilder::new("m");
        let people = mb.add_class(people_decl()).unwrap();
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let mut sum = f.const_(bb, 0);
        for i in 0..OBJECTS {
            let obj = f.reg();
            f.push(bb, Inst::OlrMalloc { dst: obj, class: people });
            let h = f.reg();
            f.push(bb, Inst::OlrGetptr { dst: h, obj, class: people, field: 2 });
            let v = f.const_(bb, 10 + i);
            f.store(bb, h, v, 4);
            let out = f.load(bb, h, 4);
            sum = f.bin(bb, BinOp::Add, sum, out);
            f.push(bb, Inst::OlrFree { ptr: obj });
        }
        f.ret(bb, Some(sum));
        mb.finish_function(f);
        let m = mb.build().unwrap();
        let mut config = RuntimeConfig::default();
        config.heap.capacity = 16 << 20;
        let rt = polar_runtime::ShardedRuntime::new(RandomizeMode::per_allocation(), config, 2);
        let mut handle = rt.handle(0);
        let report = run(&m, &mut handle, &[], ExecLimits::default(), &mut NopTracer);
        assert_eq!(report.result.unwrap(), 10 + 11 + 12 + 13 + 14);
        let stats = report.stats;
        assert_eq!(stats.allocations, OBJECTS);
        assert_eq!(stats.magazine_hits + stats.magazine_refills, stats.allocations);
        assert!(stats.lockfree_reads > 0, "{stats:?}");
        assert_eq!(stats.frees, OBJECTS);
    }

    #[test]
    fn input_instructions() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let len = f.input_len(bb);
        let zero = f.const_(bb, 0);
        let b0 = f.input_byte(bb, zero);
        let sum = f.bin(bb, BinOp::Add, len, b0);
        f.ret(bb, Some(sum));
        mb.finish_function(f);
        let m = mb.build().unwrap();
        let report = run_native(&m, &[10, 20, 30], ExecLimits::default());
        assert_eq!(report.result.unwrap(), 3 + 10);
    }

    #[test]
    fn input_read_copies_into_heap() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let buf = f.alloc_buf_bytes(bb, 16);
        let off = f.const_(bb, 1);
        let len = f.const_(bb, 100); // short read: only 2 bytes available
        f.input_read(bb, buf, off, len);
        let v = f.load(bb, buf, 2);
        f.ret(bb, Some(v));
        mb.finish_function(f);
        let m = mb.build().unwrap();
        let report = run_native(&m, &[0xAA, 0xBB, 0xCC], ExecLimits::default());
        assert_eq!(report.result.unwrap(), 0xCCBB);
    }

    #[test]
    fn out_collects_program_output() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        for v in [1u64, 2, 3] {
            let r = f.const_(bb, v);
            f.out(bb, r);
        }
        f.ret(bb, None);
        mb.finish_function(f);
        let m = mb.build().unwrap();
        let report = run_native(&m, &[], ExecLimits::default());
        assert_eq!(report.output, vec![1, 2, 3]);
        assert_eq!(report.result.unwrap(), 0);
    }

    #[test]
    fn calls_pass_arguments_and_return_values() {
        let mut mb = ModuleBuilder::new("m");
        let add = {
            let mut f = mb.function("add", 2);
            let bb = f.entry_block();
            let s = f.bin(bb, BinOp::Add, f.param(0), f.param(1));
            f.ret(bb, Some(s));
            let id = f.id();
            mb.finish_function(f);
            id
        };
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let a = f.const_(bb, 40);
        let b = f.const_(bb, 2);
        let r = f.call(bb, add, &[a, b]);
        f.ret(bb, Some(r));
        mb.finish_function(f);
        let m = mb.build().unwrap();
        assert_eq!(run_native(&m, &[], ExecLimits::default()).result.unwrap(), 42);
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        f.jmp(bb, bb);
        mb.finish_function(f);
        let m = mb.build().unwrap();
        let report = run_native(&m, &[], ExecLimits::steps(1000));
        assert_eq!(report.result, Err(ExecError::StepLimit));
        assert!(report.steps >= 1000);
    }

    #[test]
    fn call_depth_limit() {
        let mut mb = ModuleBuilder::new("m");
        let main_id = mb.declare("main", 0);
        let mut f = mb.body(main_id);
        let bb = f.entry_block();
        f.call_void(bb, main_id, &[]);
        f.ret(bb, None);
        mb.finish_function(f);
        let m = mb.build().unwrap();
        let report = run_native(&m, &[], ExecLimits::default());
        assert_eq!(report.result, Err(ExecError::CallDepth));
    }

    #[test]
    fn division_by_zero_is_reported() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let a = f.const_(bb, 1);
        let z = f.const_(bb, 0);
        let d = f.bin(bb, BinOp::Div, a, z);
        f.ret(bb, Some(d));
        mb.finish_function(f);
        let m = mb.build().unwrap();
        assert_eq!(
            run_native(&m, &[], ExecLimits::default()).result,
            Err(ExecError::DivByZero)
        );
    }

    #[test]
    fn abort_is_reported() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        f.abort(bb, 7);
        f.ret(bb, None);
        mb.finish_function(f);
        let m = mb.build().unwrap();
        let report = run_native(&m, &[], ExecLimits::default());
        assert_eq!(report.result, Err(ExecError::Abort(7)));
        assert!(report.crashed());
    }

    #[test]
    fn wild_store_faults() {
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let addr = f.const_(bb, 1 << 40);
        let v = f.const_(bb, 1);
        f.store(bb, addr, v, 8);
        f.ret(bb, None);
        mb.finish_function(f);
        let m = mb.build().unwrap();
        let report = run_native(&m, &[], ExecLimits::default());
        assert!(matches!(report.result, Err(ExecError::Fault(_))));
        assert!(report.crashed());
    }

    #[test]
    fn detection_is_distinguished_from_crash() {
        // Instrumented UAF: olr_free then olr_getptr.
        let mut mb = ModuleBuilder::new("m");
        let people = mb.add_class(people_decl()).unwrap();
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let obj = f.reg();
        f.push(bb, Inst::OlrMalloc { dst: obj, class: people });
        f.push(bb, Inst::OlrFree { ptr: obj });
        let h = f.reg();
        f.push(bb, Inst::OlrGetptr { dst: h, obj, class: people, field: 1 });
        f.ret(bb, Some(h));
        mb.finish_function(f);
        let m = mb.build().unwrap();
        let report = run_with_mode(
            &m,
            RandomizeMode::per_allocation(),
            RuntimeConfig::default(),
            &[],
            ExecLimits::default(),
        );
        assert!(report.detected());
        assert!(!report.crashed());
        assert!(matches!(
            report.result,
            Err(ExecError::Detection(RuntimeError::UseAfterFree { .. }))
        ));
    }

    #[test]
    fn tracer_sees_edges_and_memory_events() {
        use crate::trace::RecordingTracer;
        let mut mb = ModuleBuilder::new("m");
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let next = f.block();
        let buf = f.alloc_buf_bytes(bb, 8);
        let v = f.const_(bb, 5);
        f.store(bb, buf, v, 8);
        f.jmp(bb, next);
        let out = f.load(next, buf, 8);
        f.ret(next, Some(out));
        mb.finish_function(f);
        let m = mb.build().unwrap();
        let mut rt = ObjectRuntime::new(RandomizeMode::Native, RuntimeConfig::default());
        let mut tracer = RecordingTracer::default();
        let report = run(&m, &mut rt, &[], ExecLimits::default(), &mut tracer);
        assert_eq!(report.result.unwrap(), 5);
        let joined = tracer.events.join("\n");
        assert!(joined.contains("BufAlloc"));
        assert!(joined.contains("Store"));
        assert!(joined.contains("Edge"));
        assert!(joined.contains("Load"));
    }
}
