//! Garbage-collector workloads for the Section V-A compatibility result.
//!
//! The paper applied POLaR to two JavaScript engines: ChakraCore (an
//! ordinary mark-and-sweep collector) worked out of the box, while V8
//! failed because its Orinoco collector manipulates object innards with
//! manual pointer arithmetic that the instrumentation cannot see
//! (Sections V-A and VI-B).
//!
//! Two collectors over the same object graph reproduce that split:
//!
//! * [`mark_sweep`] accesses every object field through `getelementptr` —
//!   instrumenting it preserves behaviour exactly;
//! * [`orinoco_like`] computes field addresses by adding compile-time
//!   constants to object base pointers. `polar_instrument::check_compatibility`
//!   flags it, and running the instrumented build produces different
//!   results than the native build (the V8 breakage, mechanically).

use polar_classinfo::{ClassDecl, FieldKind};
use polar_ir::builder::ModuleBuilder;
use polar_ir::{BinOp, Module};

use crate::util::{begin_for_n, end_for, mix};

/// Heap graph size.
const NODES: u64 = 400;
/// Collection cycles.
const CYCLES: u64 = 30;

fn node_class(mb: &mut ModuleBuilder) -> polar_classinfo::ClassId {
    mb.add_class(
        ClassDecl::builder("GcNode")
            .field("header", FieldKind::I64)
            .field("next", FieldKind::Ptr)
            .field("value", FieldKind::I64)
            .field("mark", FieldKind::I32)
            .build(),
    )
    .unwrap()
}

/// Build the mark-and-sweep collector (ChakraCore-style: every access is
/// a `getelementptr`).
pub fn mark_sweep() -> Module {
    let mut mb = ModuleBuilder::new("gc-mark-sweep");
    let node = node_class(&mut mb);
    let mut f = mb.function("main", 0);
    let bb = f.entry_block();
    let roots = f.alloc_buf_bytes(bb, NODES * 8);

    let digest = f.const_(bb, 0);
    let cycles = begin_for_n(&mut f, bb, CYCLES);
    // Allocate a linked generation.
    let prev = f.const_(cycles.body, 0);
    let alloc = begin_for_n(&mut f, cycles.body, NODES);
    let o = f.alloc_obj(alloc.body, node);
    let v = mix(&mut f, alloc.body, alloc.i);
    let v_fld = f.gep(alloc.body, o, node, 2);
    f.store(alloc.body, v_fld, v, 8);
    let n_fld = f.gep(alloc.body, o, node, 1);
    f.store(alloc.body, n_fld, prev, 8);
    f.mov_to(alloc.body, prev, o);
    let slot_off = f.bini(alloc.body, BinOp::Mul, alloc.i, 8);
    let slot = f.bin(alloc.body, BinOp::Add, roots, slot_off);
    f.store(alloc.body, slot, o, 8);
    end_for(&mut f, &alloc, alloc.body);
    // Mark: walk the list through the `next` fields.
    let cursor = f.mov(alloc.exit, prev);
    let walk = begin_for_n(&mut f, alloc.exit, NODES);
    let m_fld = f.gep(walk.body, cursor, node, 3);
    let one = f.const_(walk.body, 1);
    f.store(walk.body, m_fld, one, 4);
    let v_fld = f.gep(walk.body, cursor, node, 2);
    let v = f.load(walk.body, v_fld, 8);
    let acc = f.bin(walk.body, BinOp::Add, digest, v);
    f.mov_to(walk.body, digest, acc);
    let n_fld = f.gep(walk.body, cursor, node, 1);
    let nxt = f.load(walk.body, n_fld, 8);
    f.mov_to(walk.body, cursor, nxt);
    end_for(&mut f, &walk, walk.body);
    // Sweep: free the whole generation.
    let sweep = begin_for_n(&mut f, walk.exit, NODES);
    let slot_off = f.bini(sweep.body, BinOp::Mul, sweep.i, 8);
    let slot = f.bin(sweep.body, BinOp::Add, roots, slot_off);
    let o = f.load(sweep.body, slot, 8);
    f.free_obj(sweep.body, o);
    end_for(&mut f, &sweep, sweep.body);
    end_for(&mut f, &cycles, sweep.exit);

    f.out(cycles.exit, digest);
    f.ret(cycles.exit, Some(digest));
    mb.finish_function(f);
    mb.build().expect("valid module")
}

/// Build the Orinoco-style collector: identical graph and logic, but the
/// mark phase addresses fields with **manual base+constant arithmetic**
/// (natural offsets baked in), the pattern POLaR cannot rewrite.
pub fn orinoco_like() -> Module {
    let mut mb = ModuleBuilder::new("gc-orinoco");
    let node = node_class(&mut mb);
    // Natural offsets (what the hand-written GC hard-codes).
    let next_off = 8u64; // header:0, next:8, value:16, mark:24
    let value_off = 16u64;
    let mark_off = 24u64;

    let mut f = mb.function("main", 0);
    let bb = f.entry_block();
    let roots = f.alloc_buf_bytes(bb, NODES * 8);

    let digest = f.const_(bb, 0);
    let cycles = begin_for_n(&mut f, bb, CYCLES);
    let prev = f.const_(cycles.body, 0);
    let alloc = begin_for_n(&mut f, cycles.body, NODES);
    let o = f.alloc_obj(alloc.body, node);
    let v = mix(&mut f, alloc.body, alloc.i);
    // Manual address computation instead of getelementptr:
    let v_addr = f.bini(alloc.body, BinOp::Add, o, value_off);
    f.store(alloc.body, v_addr, v, 8);
    let n_addr = f.bini(alloc.body, BinOp::Add, o, next_off);
    f.store(alloc.body, n_addr, prev, 8);
    f.mov_to(alloc.body, prev, o);
    let slot_off = f.bini(alloc.body, BinOp::Mul, alloc.i, 8);
    let slot = f.bin(alloc.body, BinOp::Add, roots, slot_off);
    f.store(alloc.body, slot, o, 8);
    end_for(&mut f, &alloc, alloc.body);
    let cursor = f.mov(alloc.exit, prev);
    let walk = begin_for_n(&mut f, alloc.exit, NODES);
    let m_addr = f.bini(walk.body, BinOp::Add, cursor, mark_off);
    let one = f.const_(walk.body, 1);
    f.store(walk.body, m_addr, one, 4);
    let v_addr = f.bini(walk.body, BinOp::Add, cursor, value_off);
    let v = f.load(walk.body, v_addr, 8);
    let acc = f.bin(walk.body, BinOp::Add, digest, v);
    f.mov_to(walk.body, digest, acc);
    let n_addr = f.bini(walk.body, BinOp::Add, cursor, next_off);
    let nxt = f.load(walk.body, n_addr, 8);
    f.mov_to(walk.body, cursor, nxt);
    end_for(&mut f, &walk, walk.body);
    let sweep = begin_for_n(&mut f, walk.exit, NODES);
    let slot_off = f.bini(sweep.body, BinOp::Mul, sweep.i, 8);
    let slot = f.bin(sweep.body, BinOp::Add, roots, slot_off);
    let o = f.load(sweep.body, slot, 8);
    f.free_obj(sweep.body, o);
    end_for(&mut f, &sweep, sweep.body);
    end_for(&mut f, &cycles, sweep.exit);

    f.out(cycles.exit, digest);
    f.ret(cycles.exit, Some(digest));
    mb.finish_function(f);
    mb.build().expect("valid module")
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_instrument::{check_compatibility, instrument, InstrumentOptions};
    use polar_ir::interp::{run_native, run_with_mode, ExecLimits};
    use polar_runtime::{RandomizeMode, RuntimeConfig};

    #[test]
    fn both_collectors_agree_natively() {
        let a = run_native(&mark_sweep(), &[], ExecLimits::default());
        let b = run_native(&orinoco_like(), &[], ExecLimits::default());
        assert_eq!(a.result.unwrap(), b.result.unwrap());
    }

    #[test]
    fn mark_sweep_survives_instrumentation() {
        let m = mark_sweep();
        assert!(check_compatibility(&m).is_empty());
        let native = run_native(&m, &[], ExecLimits::default());
        let (hardened, _) = instrument(&m, &InstrumentOptions::default());
        let polar = run_with_mode(
            &hardened,
            RandomizeMode::per_allocation(),
            RuntimeConfig::default(),
            &[],
            ExecLimits::default(),
        );
        assert_eq!(native.result.unwrap(), polar.result.unwrap());
    }

    #[test]
    fn orinoco_collector_is_flagged_and_breaks() {
        let m = orinoco_like();
        let warnings = check_compatibility(&m);
        assert!(!warnings.is_empty(), "manual offset arithmetic must be flagged");
        let native = run_native(&m, &[], ExecLimits::default());
        let (hardened, _) = instrument(&m, &InstrumentOptions::default());
        let polar = run_with_mode(
            &hardened,
            RandomizeMode::per_allocation(),
            RuntimeConfig::default(),
            &[],
            ExecLimits::default(),
        );
        // The hand-computed offsets no longer match the randomized
        // layouts: the run either diverges or trips a detection.
        let broken = match (&native.result, &polar.result) {
            (Ok(a), Ok(b)) => a != b,
            _ => true,
        };
        assert!(broken, "orinoco-style GC should break under POLaR");
    }
}
