//! Layout plans: the per-allocation metadata POLaR stores for each object.

use std::fmt;

use polar_classinfo::{ClassHash, ClassInfo};

/// A 64-bit content hash of a layout plan, used for interning/deduplication
/// (the paper's "remove the duplicate metadata when two objects have the
/// same randomized memory layout", Section V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanHash(pub u64);

impl fmt::Display for PlanHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// A dummy member inserted by the randomizer.
///
/// Dummies raise layout entropy; when `canary` is set the dummy doubles as
/// a **booby trap**: the runtime seeds it with the canary value and any
/// later mismatch reveals an overflow that ploughed through the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DummySlot {
    /// Byte offset of the dummy within the object.
    pub offset: u32,
    /// Dummy size in bytes.
    pub size: u32,
    /// Canary value for booby-trapped dummies (`None` = plain entropy
    /// filler).
    pub canary: Option<u64>,
}

/// Precomputed per-field access parameters: everything the runtime's
/// member-access hot path needs, packed in one dense table entry.
///
/// Built once when the plan is constructed (so interned plans share a
/// single table — the §V-B dedup covers it too), letting `olr_getptr`
/// and `read_field`/`write_field` resolve offset *and* load width with
/// one bounds-checked array index instead of consulting the offset and
/// size vectors separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldAccess {
    /// Byte offset of the field under this plan.
    pub offset: u32,
    /// Load/store width for scalar access: the field size clamped to a
    /// machine width (1, 2, 4 or 8; byte arrays ≥ 8 read their first
    /// word, odd sizes < 8 fall back to a byte).
    pub width: u8,
}

/// A concrete layout for one object: field index → byte offset, plus the
/// dummy slots and the total (possibly grown) object size.
///
/// This is the "Layout" record of the paper's Figure 4 metadata table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutPlan {
    class: ClassHash,
    field_offsets: Vec<u32>,
    field_sizes: Vec<u32>,
    field_aligns: Vec<u32>,
    /// Dense `field index → (offset, width)` table for the access hot
    /// path; always consistent with `field_offsets`/`field_sizes`.
    access: Vec<FieldAccess>,
    dummies: Vec<DummySlot>,
    size: u32,
    natural: bool,
    hash: PlanHash,
}

impl LayoutPlan {
    /// Assemble a plan from its parts, computing the content hash.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if offsets/sizes length mismatch.
    pub fn new(
        class: ClassHash,
        field_offsets: Vec<u32>,
        field_sizes: Vec<u32>,
        dummies: Vec<DummySlot>,
        size: u32,
        natural: bool,
    ) -> Self {
        let field_aligns = field_sizes.iter().map(|&s| s.min(8).max(1).next_power_of_two().min(8)).collect();
        Self::with_aligns(class, field_offsets, field_sizes, field_aligns, dummies, size, natural)
    }

    /// Assemble a plan with explicit per-field alignments (byte-array
    /// members have alignment 1 regardless of their size).
    pub fn with_aligns(
        class: ClassHash,
        field_offsets: Vec<u32>,
        field_sizes: Vec<u32>,
        field_aligns: Vec<u32>,
        dummies: Vec<DummySlot>,
        size: u32,
        natural: bool,
    ) -> Self {
        debug_assert_eq!(field_offsets.len(), field_sizes.len());
        debug_assert_eq!(field_offsets.len(), field_aligns.len());
        let hash = Self::content_hash(class, &field_offsets, &dummies, size);
        let access = field_offsets
            .iter()
            .zip(&field_sizes)
            .map(|(&offset, &fsize)| FieldAccess { offset, width: access_width(fsize) })
            .collect();
        LayoutPlan {
            class,
            field_offsets,
            field_sizes,
            field_aligns,
            access,
            dummies,
            size,
            natural,
            hash,
        }
    }

    /// The deterministic compiler layout of `info`, wrapped as a plan.
    /// Used by the `Native` execution mode and as the `randstruct`
    /// opt-out (`__no_randomize_layout`).
    pub fn natural_for(info: &ClassInfo) -> Self {
        let natural = info.natural();
        let sizes = info.fields().iter().map(|f| f.kind().size()).collect();
        let aligns = info.fields().iter().map(|f| f.kind().align()).collect();
        LayoutPlan::with_aligns(
            info.hash(),
            natural.offsets().to_vec(),
            sizes,
            aligns,
            Vec::new(),
            natural.size(),
            true,
        )
    }

    /// The content hash of a layout given as slices: what
    /// [`LayoutPlan::plan_hash`] returns for a plan of these parts. A
    /// layout derived on the stack hashes through here too, so it can be
    /// looked up among interned plans without building one.
    pub fn content_hash(
        class: ClassHash,
        offsets: &[u32],
        dummies: &[DummySlot],
        size: u32,
    ) -> PlanHash {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ class.0;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
            h ^= h >> 29;
        };
        mix(size as u64);
        for &o in offsets {
            mix(o as u64 + 1);
        }
        for d in dummies {
            // Canary values are deliberately excluded: the hash covers the
            // *structure* of the layout, so structurally identical plans
            // intern together (and then share trap values, as metadata
            // dedup implies).
            mix(((d.offset as u64) << 32) | d.size as u64);
            mix(u64::from(d.canary.is_some()));
        }
        PlanHash(h)
    }

    /// Class this plan lays out.
    pub fn class(&self) -> ClassHash {
        self.class
    }

    /// Byte offset of field `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn offset(&self, index: usize) -> u32 {
        self.field_offsets[index]
    }

    /// Byte offset of field `index`, or `None` when out of bounds.
    pub fn offset_checked(&self, index: usize) -> Option<u32> {
        self.field_offsets.get(index).copied()
    }

    /// Precomputed access parameters of field `index`, or `None` when out
    /// of bounds. One array read resolves both offset and load width —
    /// the member-access hot path.
    #[inline]
    pub fn access(&self, index: usize) -> Option<FieldAccess> {
        self.access.get(index).copied()
    }

    /// The whole dense access table, indexed by declaration order.
    pub fn access_table(&self) -> &[FieldAccess] {
        &self.access
    }

    /// Size in bytes of field `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn field_size(&self, index: usize) -> u32 {
        self.field_sizes[index]
    }

    /// All field offsets, indexed by declaration order.
    pub fn field_offsets(&self) -> &[u32] {
        &self.field_offsets
    }

    /// Number of real (declared) fields.
    pub fn field_count(&self) -> usize {
        self.field_offsets.len()
    }

    /// The dummy slots inserted by the randomizer.
    pub fn dummies(&self) -> &[DummySlot] {
        &self.dummies
    }

    /// Total object size in bytes under this plan (≥ the natural size when
    /// dummies were inserted).
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Whether this is the deterministic compiler layout.
    pub fn is_natural(&self) -> bool {
        self.natural
    }

    /// Content hash for interning.
    #[inline]
    pub fn plan_hash(&self) -> PlanHash {
        self.hash
    }

    /// Field indices sorted by their offset in this plan — the visible
    /// member order an attacker would have to guess.
    pub fn permutation(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.field_offsets.len()).collect();
        order.sort_by_key(|&i| self.field_offsets[i]);
        order
    }

    /// Verify structural invariants: fields and dummies must lie inside
    /// the object, be properly aligned, and never overlap. Returns a
    /// description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut spans: Vec<(u32, u32, &'static str)> = Vec::new();
        for (i, (&off, &size)) in
            self.field_offsets.iter().zip(&self.field_sizes).enumerate()
        {
            if off + size > self.size {
                return Err(format!("field {i} [{off}, {}) exceeds size {}", off + size, self.size));
            }
            let align = self.field_aligns[i].max(1);
            if off % align != 0 {
                return Err(format!("field {i} at {off} misaligned for alignment {align}"));
            }
            spans.push((off, off + size, "field"));
        }
        for d in &self.dummies {
            if d.offset + d.size > self.size {
                return Err(format!("dummy at {} exceeds object size", d.offset));
            }
            spans.push((d.offset, d.offset + d.size, "dummy"));
        }
        spans.sort();
        for w in spans.windows(2) {
            if w[0].1 > w[1].0 {
                return Err(format!("overlap between {:?} and {:?}", w[0], w[1]));
            }
        }
        Ok(())
    }

    /// Alignment of field `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn field_align(&self, index: usize) -> u32 {
        self.field_aligns[index]
    }
}

/// Clamp a field size to a scalar load/store width (1, 2, 4 or 8).
fn access_width(size: u32) -> u8 {
    match size {
        1 | 2 | 4 | 8 => size as u8,
        s if s >= 8 => 8,
        _ => 1,
    }
}

impl fmt::Display for LayoutPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan {} for class {} (size {}, {} fields, {} dummies{})",
            self.hash,
            self.class,
            self.size,
            self.field_count(),
            self.dummies.len(),
            if self.natural { ", natural" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_classinfo::{ClassDecl, FieldKind};

    fn people_info() -> ClassInfo {
        ClassInfo::from_decl(
            ClassDecl::builder("People")
                .field("vtable", FieldKind::VtablePtr)
                .field("age", FieldKind::I32)
                .field("height", FieldKind::I32)
                .build(),
        )
    }

    #[test]
    fn natural_plan_matches_compiler_layout() {
        let info = people_info();
        let plan = LayoutPlan::natural_for(&info);
        assert!(plan.is_natural());
        assert_eq!(plan.field_offsets(), &[0, 8, 12]);
        assert_eq!(plan.size(), 16);
        assert_eq!(plan.permutation(), vec![0, 1, 2]);
        plan.validate().unwrap();
    }

    #[test]
    fn plan_hash_reflects_content() {
        let info = people_info();
        let a = LayoutPlan::natural_for(&info);
        let b = LayoutPlan::new(
            info.hash(),
            vec![8, 0, 12],
            vec![8, 4, 4],
            Vec::new(),
            16,
            false,
        );
        assert_ne!(a.plan_hash(), b.plan_hash());
        let a2 = LayoutPlan::natural_for(&info);
        assert_eq!(a.plan_hash(), a2.plan_hash());
    }

    #[test]
    fn permutation_sorts_by_offset() {
        let info = people_info();
        let plan = LayoutPlan::new(
            info.hash(),
            vec![8, 0, 4],
            vec![8, 4, 4],
            Vec::new(),
            16,
            false,
        );
        assert_eq!(plan.permutation(), vec![1, 2, 0]);
    }

    #[test]
    fn validate_catches_overlap() {
        let info = people_info();
        let plan = LayoutPlan::new(
            info.hash(),
            vec![0, 4, 4],
            vec![8, 4, 4],
            Vec::new(),
            16,
            false,
        );
        assert!(plan.validate().is_err());
    }

    #[test]
    fn validate_catches_out_of_bounds_dummy() {
        let info = people_info();
        let plan = LayoutPlan::new(
            info.hash(),
            vec![0, 8, 12],
            vec![8, 4, 4],
            vec![DummySlot { offset: 14, size: 8, canary: None }],
            16,
            false,
        );
        assert!(plan.validate().is_err());
    }

    #[test]
    fn offset_checked_is_safe() {
        let plan = LayoutPlan::natural_for(&people_info());
        assert_eq!(plan.offset_checked(2), Some(12));
        assert_eq!(plan.offset_checked(3), None);
    }

    #[test]
    fn access_table_matches_offsets_and_sizes() {
        let plan = LayoutPlan::natural_for(&people_info());
        assert_eq!(plan.access_table().len(), plan.field_count());
        for i in 0..plan.field_count() {
            let a = plan.access(i).unwrap();
            assert_eq!(a.offset, plan.offset(i));
            let size = plan.field_size(i);
            let expected_width = match size {
                1 | 2 | 4 | 8 => size as u8,
                s if s >= 8 => 8,
                _ => 1,
            };
            assert_eq!(a.width, expected_width);
        }
        assert_eq!(plan.access(plan.field_count()), None);
    }

    #[test]
    fn access_width_clamps_odd_and_wide_fields() {
        let info = people_info();
        // A 24-byte "field" (byte array) reads its first word; a 3-byte
        // one falls back to a single byte.
        let plan = LayoutPlan::new(
            info.hash(),
            vec![0, 8, 32],
            vec![8, 24, 3],
            Vec::new(),
            40,
            false,
        );
        assert_eq!(plan.access(0).unwrap().width, 8);
        assert_eq!(plan.access(1).unwrap().width, 8);
        assert_eq!(plan.access(2).unwrap().width, 1);
    }

    #[test]
    fn display_mentions_hash_and_dummies() {
        let plan = LayoutPlan::natural_for(&people_info());
        let s = plan.to_string();
        assert!(s.contains("plan 0x"));
        assert!(s.contains("natural"));
    }
}
