//! Field declarations: the typed members of a class.

use std::fmt;

/// The primitive type of a single class member.
///
/// POLaR's CIE records, for each member, its size and whether it is a
/// pointer. Pointer members (and in particular vtable and function pointers)
/// are the security-critical ones: they are what exploits corrupt and what
/// the runtime shields with adjacent booby-trap fields.
///
/// ```
/// use polar_classinfo::FieldKind;
/// assert_eq!(FieldKind::I32.size(), 4);
/// assert!(FieldKind::FnPtr.is_pointer());
/// assert!(!FieldKind::F64.is_pointer());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FieldKind {
    /// 8-bit integer.
    I8,
    /// 16-bit integer.
    I16,
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
    /// Data pointer (8 bytes on the modeled LP64 target).
    Ptr,
    /// Function pointer — the classic control-flow hijack target.
    FnPtr,
    /// C++ virtual-table pointer, always the first member in the natural
    /// layout of a polymorphic class.
    VtablePtr,
    /// Inline byte array of the given length (e.g. a name buffer). Aligned
    /// to one byte; this is the member overflows usually start from.
    Bytes(u32),
}

impl FieldKind {
    /// Size of the member in bytes.
    #[inline]
    pub fn size(self) -> u32 {
        match self {
            FieldKind::I8 => 1,
            FieldKind::I16 => 2,
            FieldKind::I32 | FieldKind::F32 => 4,
            FieldKind::I64 | FieldKind::F64 => 8,
            FieldKind::Ptr | FieldKind::FnPtr | FieldKind::VtablePtr => 8,
            FieldKind::Bytes(n) => n,
        }
    }

    /// Natural alignment of the member in bytes (power of two, at most 8).
    #[inline]
    pub fn align(self) -> u32 {
        match self {
            FieldKind::Bytes(_) => 1,
            other => other.size().min(8).max(1),
        }
    }

    /// Whether the member holds an address. Pointer members are what the
    /// paper's booby traps are placed next to.
    pub fn is_pointer(self) -> bool {
        matches!(self, FieldKind::Ptr | FieldKind::FnPtr | FieldKind::VtablePtr)
    }

    /// Stable one-byte tag used when hashing a declaration.
    pub(crate) fn tag(self) -> u8 {
        match self {
            FieldKind::I8 => 1,
            FieldKind::I16 => 2,
            FieldKind::I32 => 3,
            FieldKind::I64 => 4,
            FieldKind::F32 => 5,
            FieldKind::F64 => 6,
            FieldKind::Ptr => 7,
            FieldKind::FnPtr => 8,
            FieldKind::VtablePtr => 9,
            FieldKind::Bytes(_) => 10,
        }
    }
}

impl fmt::Display for FieldKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldKind::I8 => write!(f, "i8"),
            FieldKind::I16 => write!(f, "i16"),
            FieldKind::I32 => write!(f, "i32"),
            FieldKind::I64 => write!(f, "i64"),
            FieldKind::F32 => write!(f, "f32"),
            FieldKind::F64 => write!(f, "f64"),
            FieldKind::Ptr => write!(f, "ptr"),
            FieldKind::FnPtr => write!(f, "fnptr"),
            FieldKind::VtablePtr => write!(f, "vptr"),
            FieldKind::Bytes(n) => write!(f, "bytes[{n}]"),
        }
    }
}

/// A single declared member of a class: a name plus a [`FieldKind`].
///
/// ```
/// use polar_classinfo::{FieldDecl, FieldKind};
/// let f = FieldDecl::new("height", FieldKind::I32);
/// assert_eq!(f.name(), "height");
/// assert_eq!(f.kind().size(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldDecl {
    name: String,
    kind: FieldKind,
}

impl FieldDecl {
    /// Create a field declaration.
    pub fn new(name: impl Into<String>, kind: FieldKind) -> Self {
        FieldDecl { name: name.into(), kind }
    }

    /// The declared member name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared member type.
    pub fn kind(&self) -> FieldKind {
        self.kind
    }
}

impl fmt::Display for FieldDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_lp64_model() {
        assert_eq!(FieldKind::I8.size(), 1);
        assert_eq!(FieldKind::I16.size(), 2);
        assert_eq!(FieldKind::I32.size(), 4);
        assert_eq!(FieldKind::I64.size(), 8);
        assert_eq!(FieldKind::F32.size(), 4);
        assert_eq!(FieldKind::F64.size(), 8);
        assert_eq!(FieldKind::Ptr.size(), 8);
        assert_eq!(FieldKind::FnPtr.size(), 8);
        assert_eq!(FieldKind::VtablePtr.size(), 8);
        assert_eq!(FieldKind::Bytes(17).size(), 17);
    }

    #[test]
    fn alignment_is_power_of_two_and_bounded() {
        for kind in [
            FieldKind::I8,
            FieldKind::I16,
            FieldKind::I32,
            FieldKind::I64,
            FieldKind::F32,
            FieldKind::F64,
            FieldKind::Ptr,
            FieldKind::FnPtr,
            FieldKind::VtablePtr,
            FieldKind::Bytes(33),
        ] {
            let a = kind.align();
            assert!(a.is_power_of_two(), "{kind}: align {a}");
            assert!(a <= 8);
        }
    }

    #[test]
    fn bytes_align_to_one() {
        assert_eq!(FieldKind::Bytes(64).align(), 1);
    }

    #[test]
    fn pointer_classification() {
        assert!(FieldKind::Ptr.is_pointer());
        assert!(FieldKind::FnPtr.is_pointer());
        assert!(FieldKind::VtablePtr.is_pointer());
        for kind in [FieldKind::I64, FieldKind::Bytes(8), FieldKind::F64] {
            assert!(!kind.is_pointer());
        }
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(FieldKind::Bytes(4).to_string(), "bytes[4]");
        assert_eq!(FieldDecl::new("x", FieldKind::Ptr).to_string(), "x: ptr");
    }
}
