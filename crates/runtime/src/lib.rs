//! The POLaR object-tracking runtime.
//!
//! This crate is the library the paper's instrumented binaries link
//! against (Section IV-A2/IV-A3 and Figure 4). Instrumentation rewrites
//! four kinds of sites to call into it:
//!
//! | site                   | original            | instrumented              |
//! |------------------------|---------------------|---------------------------|
//! | allocation             | `new` / `malloc`    | [`ObjectRuntime::olr_malloc`] |
//! | member access          | `getelementptr`     | [`ObjectRuntime::olr_getptr`] |
//! | object copy            | `memcpy` / `memmove`| [`ObjectRuntime::olr_memcpy`] |
//! | deallocation           | `delete` / `free`   | [`ObjectRuntime::olr_free`]   |
//!
//! On allocation the runtime draws a **fresh randomized layout plan** for
//! the object, stores `(base address → class hash, plan)` metadata, and
//! seeds booby-trap canaries. On member access it resolves the field's
//! true offset through the metadata — with a hashtable cache in front, the
//! optimization Section V-B credits for the high "cache hit" counts of
//! Table III. Identical plans are interned so duplicate metadata is
//! collapsed (the paper's second optimization).
//!
//! The runtime also implements the defensive checks the paper describes:
//! "POLaR detects obvious use-after-free attempts while regulating object
//! access using the metadata information" (member access to a freed
//! object), class-hash mismatches (type confusion), and booby-trap canary
//! verification (overflow detection).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use polar_classinfo::{ClassDecl, ClassInfo, FieldKind};
//! use polar_runtime::{ObjectRuntime, RandomizeMode, RuntimeConfig};
//!
//! let people = Arc::new(ClassInfo::from_decl(
//!     ClassDecl::builder("People")
//!         .field("vtable", FieldKind::VtablePtr)
//!         .field("age", FieldKind::I32)
//!         .field("height", FieldKind::I32)
//!         .build(),
//! ));
//! let mut rt = ObjectRuntime::new(RandomizeMode::per_allocation(), RuntimeConfig::default());
//! let a = rt.olr_malloc(&people)?;
//! let b = rt.olr_malloc(&people)?;
//! rt.write_field(a, people.hash(), 2, 17)?; // A->height = 17
//! assert_eq!(rt.read_field(a, people.hash(), 2)?, 17);
//! // Same type, independently randomized layouts (with high probability
//! // the two `height` offsets differ; both are valid plans either way).
//! let off_a = rt.olr_getptr(a, people.hash(), 2)?.0 - a.0;
//! let off_b = rt.olr_getptr(b, people.hash(), 2)?.0 - b.0;
//! let _ = (off_a, off_b);
//! rt.olr_free(a)?;
//! assert!(rt.olr_free(b).is_ok());
//! # Ok::<(), polar_runtime::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod classify;
mod error;
mod runtime;
mod sharded;
mod stats;

pub use api::PolarRuntime;
pub use error::{RuntimeError, TrapReport};
// Re-exported because every runtime entry point takes or returns heap
// addresses; callers shouldn't need a polar-simheap dependency for that.
pub use polar_simheap::Addr;
pub use runtime::{
    LayoutSource, MagazinePolicy, ObjectMeta, ObjectRuntime, ObjectState, RandomizeMode, RuntimeConfig,
    SiteCache,
};
pub use sharded::{HeapFootprint, ShardHandle, ShardedRuntime};
pub use stats::{AtomicRuntimeStats, RuntimeStats};
