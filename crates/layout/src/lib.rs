//! Object layout randomization engine for POLaR.
//!
//! This crate turns a [`ClassInfo`](polar_classinfo::ClassInfo) into a
//! [`LayoutPlan`]: a concrete, possibly randomized assignment of byte
//! offsets to the class's members. The POLaR runtime generates a **fresh
//! plan per allocation** (Section IV-A of the paper); the compile-time OLR
//! baselines (`randstruct`, DSLR, RFOR) generate **one plan per class per
//! binary**, which [`StaticOlrTable`] models.
//!
//! The engine implements every layout feature the paper describes:
//!
//! * full permutation of member order (Section IV-A3);
//! * **dummy member insertion** to raise entropy (Section IV-A3);
//! * **booby traps**: dummy members carrying canaries placed adjacent to
//!   pointer members, for overflow detection (Section IV-A3, after
//!   Crane et al.);
//! * **cache-line-aware partial randomization**, the mode the kernel's
//!   `randstruct` uses to limit cache damage (Section II-C);
//! * **plan interning** so objects that happen to draw identical layouts
//!   share metadata (the dedup optimization of Section V-B);
//! * entropy accounting ([`entropy`]) used by the ablation experiments.
//!
//! # Example
//!
//! ```
//! use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
//! use polar_layout::{LayoutEngine, RandomizationPolicy};
//! use polar_rng::{rngs::StdRng, SeedableRng};
//!
//! let info = ClassInfo::from_decl(
//!     ClassDecl::builder("People")
//!         .field("vtable", FieldKind::VtablePtr)
//!         .field("age", FieldKind::I32)
//!         .field("height", FieldKind::I32)
//!         .build(),
//! );
//! let engine = LayoutEngine::new(RandomizationPolicy::default());
//! let mut rng = StdRng::seed_from_u64(7);
//! let plan_a = engine.generate(&info, &mut rng);
//! let plan_b = engine.generate(&info, &mut rng);
//! // Two allocations of the same class: independently randomized layouts.
//! assert_eq!(plan_a.field_count(), 3);
//! assert_ne!(plan_a.plan_hash(), plan_b.plan_hash());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod entropy;
mod intern;
mod plan;
mod policy;
mod pool;
mod registry;
mod static_olr;
mod stateless;

pub use engine::LayoutEngine;
pub use intern::PlanInterner;
pub use plan::{CanaryKey, DummySlot, FieldAccess, LayoutPlan, PlanHash, INLINE_CELLS};
pub use registry::PlanRegistry;
pub use policy::{DummyPolicy, PermuteMode, RandomizationPolicy};
pub use pool::{PlanPools, PoolStats, POOL_CHURN, POOL_SIZE};
pub use static_olr::StaticOlrTable;
pub use stateless::{
    code_position, code_rank, code_space, pack_perm, permute_index, stateless_bound,
    stateless_perm, stateless_plan, stateless_plan_from_code, stateless_size_bound,
    stateless_trapped_plan, DerivedLayout, EpochKey, PermBlock, PermCode, RoundKeys,
    PERM_BLOCK_RUN, STATELESS_MAX_FIELDS, STATELESS_TRAP_MAX, TRAP_SLOT_BYTES,
};
