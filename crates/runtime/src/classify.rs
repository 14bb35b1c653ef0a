//! The one access classifier and the one free check.
//!
//! Every instrumented member access (the paper's rewritten
//! `getelementptr`, §IV-A) and every instrumented free is decided here,
//! over a [`RecordView`]: a stable snapshot of the object's slot record
//! plus a resolver for the plan id it carries. [`ObjectRuntime`] builds
//! the view from its own record table and plan table; a
//! [`ShardHandle`](crate::ShardHandle) builds it without the shard lock,
//! from the published record and the shared plan registry. Both count
//! into their own sink and get the same decision, counter for counter.
//!
//! [`ObjectRuntime`]: crate::ObjectRuntime

use std::sync::Arc;

use polar_classinfo::ClassHash;
use polar_layout::{LayoutPlan, PlanHash};
use polar_simheap::{Addr, PubSnapshot, SlotRecord, SlotRecords, PUB_STATE_FREED, PUB_STATE_NONE};

use crate::error::{RuntimeError, TrapReport};
use crate::runtime::{canary_width, truncate, ObjectMeta, ObjectState, RuntimeConfig, SiteCache};
use crate::stats::RuntimeStats;

/// A resolved member access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    /// The field's address.
    pub addr: Addr,
    /// Load/store width of the field, in bytes.
    pub width: usize,
    /// Heap slot of the object.
    pub slot: u32,
}

/// One object's slot record as an access or a free of `base` sees it.
pub(crate) struct RecordView<'a, P> {
    /// The address the program named.
    pub base: Addr,
    /// A stable snapshot of the record covering `base`; `None` when no
    /// record does.
    pub snap: Option<PubSnapshot>,
    /// The table the snapshot was read from (for the warm-flag probe).
    pub records: &'a SlotRecords,
    /// Resolves the plan id a record carries.
    pub plans: P,
}

impl<'a, P: Fn(u32) -> Option<&'a Arc<LayoutPlan>>> RecordView<'a, P> {
    /// The snapshot, if it records an object based exactly at the
    /// view's address under the block's current generation. A record
    /// orphaned by raw reuse of its block, an interior pointer and a slot
    /// that never held an object all read as untracked.
    #[inline]
    fn tracked(&self) -> Option<&PubSnapshot> {
        let base = self.base.0;
        self.snap
            .as_ref()
            .filter(|s| s.base == base && s.state != PUB_STATE_NONE && s.meta_gen == s.heap_gen)
    }

    /// The plan a tracked snapshot names.
    #[inline]
    fn plan(&self, snap: &PubSnapshot) -> Option<&'a Arc<LayoutPlan>> {
        (self.plans)(snap.plan_id?)
    }

    /// The tracked snapshot with its plan: the one record reading of the
    /// owner's locked paths.
    #[inline]
    pub(crate) fn tracked_plan(&self) -> Option<(PubSnapshot, &'a Arc<LayoutPlan>)> {
        let snap = self.tracked()?;
        Some((*snap, self.plan(snap)?))
    }

    /// The object's metadata as
    /// [`ObjectRuntime::object_meta`](crate::ObjectRuntime::object_meta) reports
    /// it: the tracked record's class, plan, state and record
    /// generation.
    pub(crate) fn meta(&self) -> Option<ObjectMeta> {
        let (snap, plan) = self.tracked_plan()?;
        let freed = snap.state == PUB_STATE_FREED;
        Some(ObjectMeta {
            class: ClassHash(snap.class_hash),
            plan: Arc::clone(plan),
            state: if freed { ObjectState::Freed } else { ObjectState::Live },
            generation: u64::from(self.records.get(snap.slot)?.record_gen()),
        })
    }

    /// Classify a member access to field `field` of the object at the
    /// view's address, which the site believes to be of class `expected`:
    /// resolve it, or report an unknown object, a use after free, a
    /// class mismatch or an out-of-range field, per `config`'s
    /// detections. Use after free is reported before a mismatch; a
    /// mismatch is counted even with its detection off, and the access
    /// then resolves through the object's actual plan.
    ///
    /// `ic` is the site's inline cache: a live, generation-current
    /// object whose `(class, plan)` pair it pinned resolves from it.
    /// The counts go to `sink`.
    // Always inlined: the one hot body, monomorphized per caller, and
    // too large for the inliner's default budget.
    #[inline(always)]
    pub(crate) fn classify(
        &self,
        expected: ClassHash,
        field: usize,
        mut ic: Option<&mut SiteCache>,
        config: &RuntimeConfig,
        sink: &mut RuntimeStats,
    ) -> Result<Access, RuntimeError> {
        let base = self.base;
        sink.member_accesses += 1;
        let Some(snap) = self.tracked() else {
            sink.shadow_misses += 1;
            sink.site_ic_misses += u64::from(ic.is_some());
            return Err(RuntimeError::UnknownObject(base));
        };
        sink.shadow_hits += 1;
        let (slot, plan_hash) = (snap.slot, PlanHash(snap.plan_hash));
        let actual = ClassHash(snap.class_hash);
        let freed = snap.state == PUB_STATE_FREED;
        let cached = config.offset_cache && !freed;
        // Section V-B's offset-cache counter: the first access warms the
        // object, later ones hit.
        let warm = || snap.warmed || self.records.get(slot).is_some_and(SlotRecord::warm_probe);
        if let Some(site) = ic.as_deref_mut().filter(|_| cached && actual == expected) {
            if let Some((offset, width)) = site.lookup(expected, plan_hash) {
                site.note_slot(base.0, slot);
                sink.site_ic_hits += 1;
                sink.cache_hits += u64::from(warm());
                let addr = base.offset(u64::from(offset));
                return Ok(Access { addr, width: usize::from(width), slot });
            }
        }
        sink.site_ic_misses += u64::from(ic.is_some());
        if freed && config.detect {
            sink.uaf_detected += 1;
            return Err(RuntimeError::UseAfterFree { addr: base });
        }
        // With UAF detection off a freed object's access falls through
        // to the retained plan, like an uninstrumented dangling access.
        sink.cache_hits += u64::from(cached && warm());
        let plan = self.plan(snap).ok_or(RuntimeError::UnknownObject(base))?;
        if actual != expected {
            sink.mismatch_detected += 1;
            if config.detect {
                return Err(RuntimeError::ClassMismatch { addr: base, expected, actual });
            }
            // Detection off: the confused access lands on an
            // unpredictable member of the actual randomized plan, which
            // is POLaR's probabilistic defense.
        }
        let access =
            plan.access(field).ok_or(RuntimeError::FieldOutOfBounds { class: actual, field })?;
        if let Some(site) = ic.filter(|_| cached && actual == expected) {
            site.pin(expected, plan_hash, access.offset, access.width);
            site.note_slot(base.0, slot);
        }
        let addr = base.offset(u64::from(access.offset));
        Ok(Access { addr, width: usize::from(access.width), slot })
    }

    /// Check a free of the view's address before anything changes, sweeping the
    /// object's canaries through `read` when `config` asks for it, and
    /// count what it finds into `sink`. A double free or a trap hit
    /// (the object must then not be freed) is its error; `Ok(None)` is
    /// an untracked address, due a plain `free()`; `Ok(Some(slot))` is a
    /// live object (stranded counts as live) the caller may retire.
    pub(crate) fn free_check(
        &self,
        config: &RuntimeConfig,
        read: impl Fn(Addr, usize) -> Option<u64>,
        sink: &mut RuntimeStats,
    ) -> Result<Option<u32>, RuntimeError> {
        let base = self.base;
        let Some((snap, plan)) = self.tracked_plan() else { return Ok(None) };
        if snap.state == PUB_STATE_FREED {
            sink.double_free_detected += 1;
            return Err(RuntimeError::DoubleFree(base));
        }
        if config.detect {
            if let Some(&report) = scan_traps(plan, base, read, sink).first() {
                return Err(RuntimeError::TrapTriggered(report));
            }
        }
        Ok(Some(snap.slot))
    }
}

/// Every corrupted canary of the object at `base` laid out by `plan`,
/// reading its bytes through `read` (an unreadable canary counts as 0).
/// The sweep and each corrupted canary it finds count into `sink`.
pub(crate) fn scan_traps(
    plan: &LayoutPlan,
    base: Addr,
    read: impl Fn(Addr, usize) -> Option<u64>,
    sink: &mut RuntimeStats,
) -> Vec<TrapReport> {
    let mut reports = Vec::new();
    for dummy in plan.dummies() {
        let Some(canary) = dummy.canary else { continue };
        let width = canary_width(dummy.size);
        let expected = truncate(canary, width);
        let found = read(base.offset(u64::from(dummy.offset)), width).unwrap_or(0);
        if found != expected {
            reports.push(TrapReport { base, offset: dummy.offset, expected, found });
        }
    }
    sink.trap_scans += 1;
    sink.traps_triggered += reports.len() as u64;
    sink.dummy_touches += reports.len() as u64;
    reports
}
