//! [`PolarRuntime`]: the single-context runtime surface.
//!
//! The IR interpreter and the adaptive-attack harness drive "a program"
//! against "a runtime" without caring whether that runtime is the plain
//! [`ObjectRuntime`] or one [`ShardHandle`](crate::ShardHandle) on a lock-striped
//! [`ShardedRuntime`](crate::ShardedRuntime). This trait is that seam:
//! every instrumented entry point (`olr_*`), the raw heap primitives an
//! *uninstrumented* program would use, and the statistics snapshot the
//! evaluation reads. Its in-crate implementations are exactly those two
//! op surfaces; wrappers (a tracing runtime, say) implement it too.
//!
//! The trait is `&mut self`: a single execution context is one logical
//! thread, which is exactly what a handle is, so the exclusive receiver
//! keeps the two implementations interchangeable without `Sync` bounds
//! leaking into executors.

use std::sync::Arc;

use polar_classinfo::{ClassHash, ClassInfo};
use polar_layout::LayoutPlan;
use polar_simheap::{Addr, HeapError};

use crate::error::{RuntimeError, TrapReport};
use crate::runtime::{ObjectRuntime, RuntimeConfig, SiteCache};
use crate::stats::RuntimeStats;

/// One logical thread's view of a POLaR runtime: instrumented object
/// operations, raw heap primitives, and counters. See the module docs
/// for the design notes.
pub trait PolarRuntime {
    /// The runtime's configuration.
    fn config(&self) -> &RuntimeConfig;

    /// Statistics snapshot: everything this context did, folded across
    /// shards where applicable.
    fn stats(&self) -> RuntimeStats;

    /// Compile-time plan for `info` under this runtime's mode (the
    /// layout an *uninstrumented* access site believes in).
    fn compile_time_plan(&mut self, info: &Arc<ClassInfo>) -> Arc<LayoutPlan>;

    /// Instrumented allocation.
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::olr_malloc`].
    fn olr_malloc(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError>;

    /// Instrumented free.
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::olr_free`].
    fn olr_free(&mut self, base: Addr) -> Result<(), RuntimeError>;

    /// Instrumented member access through a call-site inline cache.
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::olr_getptr_ic`].
    fn olr_getptr_ic(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        ic: &mut SiteCache,
    ) -> Result<Addr, RuntimeError>;

    /// Instrumented object copy.
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::olr_memcpy`].
    fn olr_memcpy(
        &mut self,
        dst: Addr,
        src: Addr,
        site_class: &Arc<ClassInfo>,
    ) -> Result<(), RuntimeError>;

    /// Checked field read (resolve + load).
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::read_field`].
    fn read_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
    ) -> Result<u64, RuntimeError>;

    /// Checked field write (resolve + store).
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::write_field`].
    fn write_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        value: u64,
    ) -> Result<(), RuntimeError>;

    /// Sweep the object's booby traps.
    ///
    /// # Errors
    ///
    /// As for [`ObjectRuntime::check_traps`].
    fn check_traps(&mut self, base: Addr) -> Result<Vec<TrapReport>, RuntimeError>;

    /// In-heap size of the tracked object at `base` (its plan's size,
    /// dummies included), or `None` when untracked.
    fn plan_size(&self, base: Addr) -> Option<u32>;

    /// Raw (untracked, unrandomized) allocation.
    ///
    /// # Errors
    ///
    /// Propagates heap errors.
    fn heap_malloc(&mut self, size: usize) -> Result<Addr, HeapError>;

    /// Raw free.
    ///
    /// # Errors
    ///
    /// Propagates heap errors.
    fn heap_free(&mut self, addr: Addr) -> Result<(), HeapError>;

    /// Arena-bounded raw integer read — ignores block boundaries, like a
    /// real out-of-bounds load.
    ///
    /// # Errors
    ///
    /// Faults outside the arena.
    fn heap_read_uint(&self, addr: Addr, width: usize) -> Result<u64, HeapError>;

    /// A raw *probe* read: [`PolarRuntime::heap_read_uint`] plus
    /// booby-trap screening. A probe overlapping a live object's
    /// canary-carrying dummy — stored or stateless-derived — raises
    /// [`RuntimeError::TrapTriggered`] when the runtime's
    /// `detect_probe_traps` is on, modeling trap slots that fault on
    /// access instead of leaking bytes.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::TrapTriggered`] on trap overlap; arena faults as
    /// [`RuntimeError::Heap`].
    fn probe_read_uint(&mut self, addr: Addr, width: usize) -> Result<u64, RuntimeError>;

    /// Arena-bounded raw integer write.
    ///
    /// # Errors
    ///
    /// Faults outside the arena.
    fn heap_write_uint(&mut self, addr: Addr, value: u64, width: usize)
        -> Result<(), HeapError>;

    /// Arena-bounded raw byte write.
    ///
    /// # Errors
    ///
    /// Faults outside the arena.
    fn heap_write(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), HeapError>;

    /// Raw `memmove`.
    ///
    /// # Errors
    ///
    /// Faults outside the arena on either endpoint.
    fn heap_memmove(&mut self, dst: Addr, src: Addr, len: usize) -> Result<(), HeapError>;

    /// Strict block-boundary check (the redzone-mode guard).
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfBlock`] when the access crosses its block.
    fn heap_check_in_block(&self, addr: Addr, len: usize) -> Result<(), HeapError>;
}

impl PolarRuntime for ObjectRuntime {
    fn config(&self) -> &RuntimeConfig {
        ObjectRuntime::config(self)
    }

    fn stats(&self) -> RuntimeStats {
        ObjectRuntime::stats(self)
    }

    fn compile_time_plan(&mut self, info: &Arc<ClassInfo>) -> Arc<LayoutPlan> {
        ObjectRuntime::compile_time_plan(self, info)
    }

    fn olr_malloc(&mut self, info: &Arc<ClassInfo>) -> Result<Addr, RuntimeError> {
        ObjectRuntime::olr_malloc(self, info)
    }

    fn olr_free(&mut self, base: Addr) -> Result<(), RuntimeError> {
        ObjectRuntime::olr_free(self, base)
    }

    fn olr_getptr_ic(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        ic: &mut SiteCache,
    ) -> Result<Addr, RuntimeError> {
        ObjectRuntime::olr_getptr_ic(self, base, expected, field, ic)
    }

    fn olr_memcpy(
        &mut self,
        dst: Addr,
        src: Addr,
        site_class: &Arc<ClassInfo>,
    ) -> Result<(), RuntimeError> {
        ObjectRuntime::olr_memcpy(self, dst, src, site_class)
    }

    fn read_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
    ) -> Result<u64, RuntimeError> {
        ObjectRuntime::read_field(self, base, expected, field)
    }

    fn write_field(
        &mut self,
        base: Addr,
        expected: ClassHash,
        field: usize,
        value: u64,
    ) -> Result<(), RuntimeError> {
        ObjectRuntime::write_field(self, base, expected, field, value)
    }

    fn check_traps(&mut self, base: Addr) -> Result<Vec<TrapReport>, RuntimeError> {
        ObjectRuntime::check_traps(self, base)
    }

    fn plan_size(&self, base: Addr) -> Option<u32> {
        self.object_meta(base).map(|meta| meta.plan.size())
    }

    fn heap_malloc(&mut self, size: usize) -> Result<Addr, HeapError> {
        self.heap_mut().malloc(size)
    }

    fn heap_free(&mut self, addr: Addr) -> Result<(), HeapError> {
        self.heap_mut().free(addr)
    }

    fn heap_read_uint(&self, addr: Addr, width: usize) -> Result<u64, HeapError> {
        self.heap().read_uint(addr, width)
    }

    fn probe_read_uint(&mut self, addr: Addr, width: usize) -> Result<u64, RuntimeError> {
        ObjectRuntime::probe_read_uint(self, addr, width)
    }

    fn heap_write_uint(
        &mut self,
        addr: Addr,
        value: u64,
        width: usize,
    ) -> Result<(), HeapError> {
        self.heap_mut().write_uint(addr, value, width)
    }

    fn heap_write(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), HeapError> {
        self.heap_mut().write(addr, bytes)
    }

    fn heap_memmove(&mut self, dst: Addr, src: Addr, len: usize) -> Result<(), HeapError> {
        self.heap_mut().memmove(dst, src, len)
    }

    fn heap_check_in_block(&self, addr: Addr, len: usize) -> Result<(), HeapError> {
        self.heap().check_in_block(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RandomizeMode;
    use crate::ShardedRuntime;
    use polar_classinfo::{ClassDecl, FieldKind};

    fn people() -> Arc<ClassInfo> {
        Arc::new(ClassInfo::from_decl(
            ClassDecl::builder("People")
                .field("vtable", FieldKind::VtablePtr)
                .field("age", FieldKind::I32)
                .field("height", FieldKind::I32)
                .build(),
        ))
    }

    /// The same single-context program, run against both implementations
    /// through the trait: results must agree operation for operation.
    fn drive<R: PolarRuntime + ?Sized>(rt: &mut R) -> (u64, bool, bool) {
        let info = people();
        let obj = rt.olr_malloc(&info).unwrap();
        rt.write_field(obj, info.hash(), 1, 30).unwrap();
        let read_back = rt.read_field(obj, info.hash(), 1).unwrap();
        let buf = rt.heap_malloc(64).unwrap();
        rt.heap_write_uint(buf, 0xFEED, 8).unwrap();
        let raw = rt.heap_read_uint(buf, 8).unwrap();
        rt.heap_free(buf).unwrap();
        let sized = rt.plan_size(obj).is_some();
        rt.olr_free(obj).unwrap();
        let uaf = matches!(
            rt.read_field(obj, info.hash(), 1),
            Err(RuntimeError::UseAfterFree { .. })
        );
        (read_back ^ raw, sized, uaf)
    }

    #[test]
    fn both_implementations_satisfy_the_contract() {
        let mut single =
            ObjectRuntime::new(RandomizeMode::per_allocation(), RuntimeConfig::default());
        assert_eq!(drive(&mut single), (0xFEED ^ 30, true, true));
        let mut config = RuntimeConfig::default();
        config.heap.capacity = 64 << 20;
        let sharded = ShardedRuntime::new(RandomizeMode::per_allocation(), config, 4);
        assert_eq!(drive(&mut sharded.handle(0)), (0xFEED ^ 30, true, true));
        // And through a boxed trait object borrowing the runtime.
        let mut boxed: Box<dyn PolarRuntime + '_> = Box::new(sharded.handle(1));
        assert_eq!(drive(&mut *boxed), (0xFEED ^ 30, true, true));
    }
}
