//! Layout plans: the per-allocation metadata POLaR stores for each object.

use std::fmt;

use polar_classinfo::{ClassHash, ClassInfo};
use polar_rng::{Rng, SplitMix64};

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

/// The secret that keys the canaries of every plan in one deduplication
/// domain (one [`PlanRegistry`](crate::PlanRegistry)).
///
/// A registry deduplicates plans by structure, so every object of one
/// structure shares one registered plan and its trap values. Making the
/// canaries a function of that structure under the registry's key
/// ([`CanaryKey::canary`]) makes them independent of which interner
/// registered the structure first: a layout derived on the stack knows
/// its canaries without reading the registered plan, and two shards of
/// one runtime arm the same structure identically whatever order they
/// intern in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanaryKey(pub u64);

impl CanaryKey {
    /// The key a runtime seeded with `seed` keys its registry with: a
    /// stream of its own (`"TRAP"`), so neither the plan RNG nor the
    /// stateless epoch key reveals it.
    pub fn from_seed(seed: u64) -> Self {
        CanaryKey(SplitMix64::new(seed ^ 0x5452_4150).next_u64())
    }

    /// The canary of dummy `j` (memory order) of a layout whose
    /// structure hashes to `structure` ([`LayoutPlan::content_hash`],
    /// which leaves canary values out). Never zero.
    ///
    /// `mix64` is a bijection, so the key is fed forward past the first
    /// mix: undoing the mixes of one leaked canary of a known structure
    /// leaves `mix64(k ^ a) + k` with `a` known, not the key `k`.
    #[inline]
    pub fn canary(self, structure: PlanHash, j: usize) -> u64 {
        let salted = self.0 ^ structure.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x4361_4E79;
        let h = mix64(salted).wrapping_add(self.0);
        mix64(h ^ (j as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93)) | 1
    }
}

/// SplitMix64's finalizer: a cheap 64-bit avalanche mix.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Precomputed per-field access parameters: everything the runtime's
/// member-access hot path needs, read from one cell of the plan.
///
/// Built once when the plan is constructed (so interned plans share a
/// single copy — the §V-B dedup covers it too), letting `olr_getptr`
/// and `read_field`/`write_field` resolve offset *and* load width with
/// one bounds-checked read of the plan's own allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldAccess {
    /// Byte offset of the field under this plan.
    pub offset: u32,
    /// Load/store width for scalar access: the field size clamped to a
    /// machine width (1, 2, 4 or 8; byte arrays ≥ 8 read their first
    /// word, odd sizes < 8 fall back to a byte).
    pub width: u8,
}

/// Cells a plan stores inline, in its own allocation: the fields of a
/// class of up to 16 members, then as many dummies as still fit. A
/// wider plan keeps the cells past these in one boxed slice.
pub const INLINE_CELLS: usize = 16;

/// Set in a dummy cell's `size` when the dummy carries a canary.
const TRAPPED: u32 = 1 << 31;

/// One member of a plan: a field (cells `0..fields`) or a dummy (the
/// cells after them, in the plan's dummy order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    offset: u32,
    /// A field's size; a dummy's size, with [`TRAPPED`] set when it
    /// carries a canary.
    size: u32,
    /// A field's load width (low byte) and alignment (high half); a
    /// trapped dummy's canary.
    word: u64,
}

impl Cell {
    fn field(offset: u32, size: u32, align: u32) -> Self {
        Cell { offset, size, word: u64::from(access_width(size)) | u64::from(align) << 32 }
    }

    fn dummy(d: &DummySlot) -> Self {
        assert!(d.size < TRAPPED, "dummy size {} exceeds 2^31 bytes", d.size);
        let flag = if d.canary.is_some() { TRAPPED } else { 0 };
        Cell { offset: d.offset, size: d.size | flag, word: d.canary.unwrap_or(0) }
    }

    #[inline]
    fn as_access(&self) -> FieldAccess {
        FieldAccess { offset: self.offset, width: self.word as u8 }
    }

    fn align(&self) -> u32 {
        (self.word >> 32) as u32
    }

    #[inline]
    fn as_dummy(&self) -> DummySlot {
        let canary = (self.size & TRAPPED != 0).then_some(self.word);
        DummySlot { offset: self.offset, size: self.size & !TRAPPED, canary }
    }
}

/// A concrete layout for one object: field index → byte offset, plus the
/// dummy slots and the total (possibly grown) object size.
///
/// This is the "Layout" record of the paper's Figure 4 metadata table.
/// It is one allocation: every field and dummy is a 16-byte cell in an
/// inline array of [`INLINE_CELLS`], fields first, so resolving a field
/// of a plan of up to 16 fields reads the plan and nothing behind it.
/// Only the cells past the inline array — the dummies of a plan whose
/// fields and dummies outnumber it, and the fields past the sixteenth —
/// live in one boxed slice.
#[derive(Clone, PartialEq, Eq)]
// `repr(C)` keeps the field count ahead of the cells, on the line the
// first cells share, rather than wherever field reordering puts it.
#[repr(C)]
pub struct LayoutPlan {
    fields: u16,
    dummies: u16,
    size: u32,
    class: ClassHash,
    hash: PlanHash,
    natural: bool,
    /// Cells `0..INLINE_CELLS`; unused cells stay zero.
    inline: [Cell; INLINE_CELLS],
    /// Cells `INLINE_CELLS..`; empty (and unallocated) for a plan that
    /// fits inline.
    spill: Box<[Cell]>,
}

impl LayoutPlan {
    /// Assemble a plan from its parts, computing the content hash and
    /// each field's alignment from its size.
    ///
    /// # Panics
    ///
    /// Panics if offsets/sizes lengths mismatch.
    pub fn new(
        class: ClassHash,
        field_offsets: &[u32],
        field_sizes: &[u32],
        dummies: &[DummySlot],
        size: u32,
        natural: bool,
    ) -> Self {
        assert_eq!(field_offsets.len(), field_sizes.len());
        let fields = field_sizes.iter().map(|&s| (s, s.min(8).max(1).next_power_of_two().min(8)));
        Self::build(class, field_offsets, fields, dummies, size, natural)
    }

    /// Assemble a plan with explicit per-field alignments (byte-array
    /// members have alignment 1 regardless of their size).
    ///
    /// # Panics
    ///
    /// Panics if offsets/sizes/alignments lengths mismatch.
    pub fn with_aligns(
        class: ClassHash,
        field_offsets: &[u32],
        field_sizes: &[u32],
        field_aligns: &[u32],
        dummies: &[DummySlot],
        size: u32,
        natural: bool,
    ) -> Self {
        assert_eq!(field_offsets.len(), field_sizes.len());
        assert_eq!(field_offsets.len(), field_aligns.len());
        let fields = field_sizes.iter().copied().zip(field_aligns.iter().copied());
        Self::build(class, field_offsets, fields, dummies, size, natural)
    }

    /// Assemble a plan of `info`'s fields at `field_offsets`, each field
    /// sized and aligned by its kind.
    ///
    /// # Panics
    ///
    /// Panics if `field_offsets` does not have one offset per field.
    pub fn of_class(
        info: &ClassInfo,
        field_offsets: &[u32],
        dummies: &[DummySlot],
        size: u32,
        natural: bool,
    ) -> Self {
        assert_eq!(field_offsets.len(), info.fields().len());
        let fields = info.fields().iter().map(|f| (f.kind().size(), f.kind().align()));
        Self::build(info.hash(), field_offsets, fields, dummies, size, natural)
    }

    /// Lay the cells out: `fields` yields each field's `(size, align)`
    /// in declaration order, one per offset.
    fn build(
        class: ClassHash,
        offsets: &[u32],
        fields: impl Iterator<Item = (u32, u32)>,
        dummies: &[DummySlot],
        size: u32,
        natural: bool,
    ) -> Self {
        let cells = fields
            .zip(offsets)
            .map(|((fsize, align), &offset)| Cell::field(offset, fsize, align))
            .chain(dummies.iter().map(Cell::dummy));
        let mut inline = [Cell::default(); INLINE_CELLS];
        let total = offsets.len() + dummies.len();
        let mut spill = Vec::with_capacity(total.saturating_sub(INLINE_CELLS));
        for (i, cell) in cells.enumerate() {
            match inline.get_mut(i) {
                Some(slot) => *slot = cell,
                None => spill.push(cell),
            }
        }
        LayoutPlan {
            fields: u16::try_from(offsets.len()).expect("at most 65,535 fields"),
            dummies: u16::try_from(dummies.len()).expect("at most 65,535 dummies"),
            size,
            class,
            hash: Self::content_hash(class, offsets, dummies, size),
            natural,
            inline,
            spill: spill.into_boxed_slice(),
        }
    }

    /// The deterministic compiler layout of `info`, wrapped as a plan.
    /// Used by the `Native` execution mode and as the `randstruct`
    /// opt-out (`__no_randomize_layout`).
    pub fn natural_for(info: &ClassInfo) -> Self {
        let natural = info.natural();
        LayoutPlan::of_class(info, natural.offsets(), &[], natural.size(), true)
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
            // intern together, and a registry keys their one set of trap
            // values by this hash (`CanaryKey::canary`).
            mix(((d.offset as u64) << 32) | d.size as u64);
            mix(u64::from(d.canary.is_some()));
        }
        PlanHash(h)
    }

    /// Re-arm every canary-carrying dummy by `key`'s rule for this
    /// plan's structure ([`CanaryKey::canary`]); plain dummies stay
    /// plain. What a [`PlanRegistry`](crate::PlanRegistry) stores.
    pub(crate) fn arm_canaries(&mut self, key: CanaryKey) {
        let (first, hash) = (usize::from(self.fields), self.hash);
        for j in 0..usize::from(self.dummies) {
            let cell = self.cell_mut(first + j);
            if cell.size & TRAPPED != 0 {
                cell.word = key.canary(hash, j);
            }
        }
    }

    /// Cell `i`: inline below [`INLINE_CELLS`], spilled above.
    #[inline]
    fn cell(&self, i: usize) -> &Cell {
        match self.inline.get(i) {
            Some(cell) => cell,
            None => &self.spill[i - INLINE_CELLS],
        }
    }

    fn cell_mut(&mut self, i: usize) -> &mut Cell {
        match self.inline.get_mut(i) {
            Some(cell) => cell,
            None => &mut self.spill[i - INLINE_CELLS],
        }
    }

    /// The cell of field `index`, or `None` when out of bounds.
    #[inline]
    fn field_cell(&self, index: usize) -> Option<&Cell> {
        (index < usize::from(self.fields)).then(|| self.cell(index))
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
        self.offset_checked(index).expect("field index out of bounds")
    }

    /// Byte offset of field `index`, or `None` when out of bounds.
    pub fn offset_checked(&self, index: usize) -> Option<u32> {
        self.field_cell(index).map(|c| c.offset)
    }

    /// Precomputed access parameters of field `index`, or `None` when out
    /// of bounds. One cell read resolves both offset and load width —
    /// the member-access hot path — and for a plan of up to 16 fields
    /// that cell is in the plan's own allocation.
    #[inline]
    pub fn access(&self, index: usize) -> Option<FieldAccess> {
        self.field_cell(index).map(Cell::as_access)
    }

    /// Size in bytes of field `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn field_size(&self, index: usize) -> u32 {
        self.field_cell(index).expect("field index out of bounds").size
    }

    /// Alignment of field `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn field_align(&self, index: usize) -> u32 {
        self.field_cell(index).expect("field index out of bounds").align()
    }

    /// All field offsets, in declaration order.
    pub fn offsets(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        (0..self.field_count()).map(|i| self.cell(i).offset)
    }

    /// Number of real (declared) fields.
    pub fn field_count(&self) -> usize {
        usize::from(self.fields)
    }

    /// The dummy slots inserted by the randomizer, in the order they
    /// were given (the order a registry keys their canaries by).
    #[inline]
    pub fn dummies(&self) -> impl ExactSizeIterator<Item = DummySlot> + '_ {
        let first = self.field_count();
        (first..first + usize::from(self.dummies)).map(|i| self.cell(i).as_dummy())
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
        let mut order: Vec<usize> = (0..self.field_count()).collect();
        order.sort_by_key(|&i| self.cell(i).offset);
        order
    }

    /// Verify structural invariants: fields and dummies must lie inside
    /// the object, be properly aligned, and never overlap. Returns a
    /// description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut spans: Vec<(u32, u32, &'static str)> = Vec::new();
        for i in 0..self.field_count() {
            let Cell { offset: off, size, .. } = *self.cell(i);
            if off + size > self.size {
                return Err(format!("field {i} [{off}, {}) exceeds size {}", off + size, self.size));
            }
            let align = self.cell(i).align().max(1);
            if off % align != 0 {
                return Err(format!("field {i} at {off} misaligned for alignment {align}"));
            }
            spans.push((off, off + size, "field"));
        }
        for d in self.dummies() {
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
}

/// Clamp a field size to a scalar load/store width (1, 2, 4 or 8).
fn access_width(size: u32) -> u8 {
    match size {
        1 | 2 | 4 | 8 => size as u8,
        s if s >= 8 => 8,
        _ => 1,
    }
}

impl fmt::Debug for LayoutPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<(u32, u32, u32)> = (0..self.field_count())
            .map(|i| (self.cell(i).offset, self.cell(i).size, self.cell(i).align()))
            .collect();
        f.debug_struct("LayoutPlan")
            .field("class", &self.class)
            .field("fields", &fields)
            .field("dummies", &self.dummies().collect::<Vec<_>>())
            .field("size", &self.size)
            .field("natural", &self.natural)
            .field("hash", &self.hash)
            .finish()
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
            self.dummies,
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
        assert!(plan.offsets().eq([0, 8, 12]));
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
            &[8, 0, 12],
            &[8, 4, 4],
            &[],
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
            &[8, 0, 4],
            &[8, 4, 4],
            &[],
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
            &[0, 4, 4],
            &[8, 4, 4],
            &[],
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
            &[0, 8, 12],
            &[8, 4, 4],
            &[DummySlot { offset: 14, size: 8, canary: None }],
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
    fn access_matches_offsets_and_sizes() {
        let plan = LayoutPlan::natural_for(&people_info());
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
            &[0, 8, 32],
            &[8, 24, 3],
            &[],
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

    /// A plan in the representation cells replaced: one vector per field
    /// attribute and one of dummies, with its hash, widths and registry
    /// canaries computed here from the rules rather than read from a plan.
    /// The reference every cell accessor is held to.
    #[derive(Debug, Clone)]
    struct RefPlan {
        class: ClassHash,
        offsets: Vec<u32>,
        sizes: Vec<u32>,
        aligns: Vec<u32>,
        dummies: Vec<DummySlot>,
        size: u32,
        natural: bool,
    }

    impl RefPlan {
        fn of_class(
            info: &ClassInfo,
            offsets: &[u32],
            dummies: &[DummySlot],
            size: u32,
            natural: bool,
        ) -> Self {
            RefPlan {
                class: info.hash(),
                offsets: offsets.to_vec(),
                sizes: info.fields().iter().map(|f| f.kind().size()).collect(),
                aligns: info.fields().iter().map(|f| f.kind().align()).collect(),
                dummies: dummies.to_vec(),
                size,
                natural,
            }
        }

        /// FNV-1a over size, offsets and dummy structure, each step
        /// followed by an xor-shift of 29.
        fn hash(&self) -> PlanHash {
            let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.class.0;
            let words = std::iter::once(u64::from(self.size))
                .chain(self.offsets.iter().map(|&o| u64::from(o) + 1))
                .chain(self.dummies.iter().flat_map(|d| {
                    [u64::from(d.offset) << 32 | u64::from(d.size), u64::from(d.canary.is_some())]
                }));
            for w in words {
                h = (h ^ w).wrapping_mul(0x100_0000_01b3);
                h ^= h >> 29;
            }
            PlanHash(h)
        }

        fn width(&self, i: usize) -> u8 {
            match self.sizes[i] {
                s @ (1 | 2 | 4 | 8) => s as u8,
                s if s > 8 => 8,
                _ => 1,
            }
        }

        /// The canaries a registry keyed by `key` stores: for trapped
        /// dummy `j`, two SplitMix64 finalizer rounds over the key, the
        /// structure hash and `j`, the key fed forward between them, with
        /// the low bit set.
        fn registered(mut self, key: CanaryKey) -> Self {
            fn fin(mut x: u64) -> u64 {
                x = (x ^ x >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ x >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ x >> 31
            }
            let structure = self.hash().0;
            let seed = fin(key.0 ^ structure.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x4361_4E79)
                .wrapping_add(key.0);
            for (j, d) in self.dummies.iter_mut().enumerate() {
                if d.canary.is_some() {
                    let salt = (j as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
                    d.canary = Some(fin(seed ^ salt) | 1);
                }
            }
            self
        }
    }

    /// Every accessor of `plan` against `r`, and the cells' placement:
    /// a plan of up to [`INLINE_CELLS`] fields resolves each of them
    /// from its own allocation.
    fn check_against(plan: &LayoutPlan, r: &RefPlan, what: &str) {
        let (n, d) = (r.offsets.len(), r.dummies.len());
        assert_eq!(plan.class(), r.class, "{what}");
        assert_eq!(plan.field_count(), n, "{what}");
        assert_eq!(plan.size(), r.size, "{what}");
        assert_eq!(plan.is_natural(), r.natural, "{what}");
        assert_eq!(plan.plan_hash(), r.hash(), "{what}");
        for i in 0..n {
            let want = FieldAccess { offset: r.offsets[i], width: r.width(i) };
            assert_eq!(plan.access(i), Some(want), "{what}: field {i}");
            assert_eq!(plan.offset(i), r.offsets[i], "{what}: field {i}");
            assert_eq!(plan.offset_checked(i), Some(r.offsets[i]), "{what}: field {i}");
            assert_eq!(plan.field_size(i), r.sizes[i], "{what}: field {i}");
            assert_eq!(plan.field_align(i), r.aligns[i], "{what}: field {i}");
        }
        // Past the fields — the dummies' cells, the inline array's end,
        // the spill's end — there is no field.
        for past in [n, n + d, INLINE_CELLS, n + d + INLINE_CELLS] {
            if past >= n {
                assert_eq!(plan.access(past), None, "{what}: index {past}");
                assert_eq!(plan.offset_checked(past), None, "{what}: index {past}");
            }
        }
        assert_eq!(plan.offsets().len(), n, "{what}");
        assert!(plan.offsets().eq(r.offsets.iter().copied()), "{what}");
        assert_eq!(plan.dummies().len(), d, "{what}");
        assert!(plan.dummies().eq(r.dummies.iter().copied()), "{what}");
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| r.offsets[i]);
        assert_eq!(plan.permutation(), order, "{what}");
        assert_eq!(plan.spill.len(), (n + d).saturating_sub(INLINE_CELLS), "{what}");
        let inline = (n + d).min(INLINE_CELLS);
        for i in 0..n.min(INLINE_CELLS) {
            assert!(std::ptr::eq(plan.cell(i), &plan.inline[i]), "{what}: field {i} spilled");
        }
        assert!(plan.inline[inline..].iter().all(|c| *c == Cell::default()), "{what}: tail");
        assert_eq!(plan, &plan.clone(), "{what}");
    }

    /// [`check_against`] for `plan` as built and as a registry keyed by
    /// `key` stores it, with the canaries the key gives its structure.
    fn check_built_and_registered(plan: LayoutPlan, r: &RefPlan, key: CanaryKey, what: &str) {
        check_against(&plan, r, what);
        let registry = crate::PlanRegistry::new(key);
        let stored = registry.get(registry.intern(plan)).unwrap();
        check_against(stored, &r.clone().registered(key), &format!("{what}, registered"));
    }

    fn random_class(rng: &mut SplitMix64, fields: usize) -> ClassInfo {
        let kinds = [
            FieldKind::I8,
            FieldKind::I16,
            FieldKind::I32,
            FieldKind::I64,
            FieldKind::F32,
            FieldKind::F64,
            FieldKind::Ptr,
            FieldKind::FnPtr,
            FieldKind::VtablePtr,
        ];
        let mut b = ClassDecl::builder(format!("C{}", rng.next_u64()));
        for i in 0..fields {
            let pick = rng.next_u64() as usize % (kinds.len() + 1);
            let kind = kinds.get(pick).copied().unwrap_or(FieldKind::Bytes(1 + i as u32 % 40));
            b = b.field(format!("f{i}"), kind);
        }
        ClassInfo::from_decl(b.build())
    }

    /// Cases per plan source; `POLAR_PLAN_CASES` raises it.
    fn plan_cases() -> usize {
        std::env::var("POLAR_PLAN_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(150)
    }

    /// Every plan source's output, as built and as a registry stores it,
    /// matches the reference representation accessor for accessor, hash
    /// and canaries included: engine plans under the default,
    /// permute-only and randstruct policies (1–16 fields, and 20 that
    /// spill), stateless plans of 1–8 fields trapped and untrapped,
    /// static-OLR and natural plans, and raw parts of 0–24 fields and
    /// 0–12 dummies through both public constructors.
    #[test]
    fn plan_cells_match_the_reference_representation() {
        use crate::{
            pack_perm, DerivedLayout, EpochKey, LayoutEngine, RandomizationPolicy,
            StaticOlrTable, STATELESS_MAX_FIELDS,
        };
        use polar_rng::{rngs::StdRng, SeedableRng};
        let cases = plan_cases();
        let mut rng = SplitMix64::new(0x9E11_CE11);
        let policies = [
            RandomizationPolicy::default(),
            RandomizationPolicy::permute_only(),
            RandomizationPolicy::randstruct_like(),
        ];
        for case in 0..cases {
            let key = CanaryKey(rng.next_u64());
            let fields = if case % 8 == 7 { 20 } else { 1 + case % 16 };
            let info = random_class(&mut rng, fields);
            for policy in &policies {
                let engine = LayoutEngine::new(policy.clone());
                let seed = rng.next_u64();
                let (offsets, dummies, size) =
                    engine.draw(&info, &mut StdRng::seed_from_u64(seed));
                let plan = engine.generate(&info, &mut StdRng::seed_from_u64(seed));
                let r = RefPlan::of_class(&info, &offsets, &dummies, size, false);
                check_built_and_registered(plan, &r, key, &format!("engine {policy} {info:?}"));
            }

            let binary = rng.next_u64();
            let policy = policies[case % policies.len()].clone();
            let (offsets, dummies, size) = LayoutEngine::new(policy.clone())
                .draw(&info, &mut StdRng::seed_from_u64(binary ^ info.hash().0));
            let r = RefPlan::of_class(&info, &offsets, &dummies, size, false)
                .registered(CanaryKey::from_seed(binary));
            let plan = StaticOlrTable::new(policy, binary).plan_for(&info);
            check_against(&plan, &r, &format!("static-OLR {info:?}"));

            let natural = info.natural();
            let r = RefPlan::of_class(&info, natural.offsets(), &[], natural.size(), true);
            check_built_and_registered(LayoutPlan::natural_for(&info), &r, key, "natural");

            let n = 1 + case % STATELESS_MAX_FIELDS;
            let small = random_class(&mut rng, n);
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.next_u64() as usize % (i + 1));
            }
            let epoch = EpochKey(rng.next_u64());
            for traps in [None, Some(key)] {
                let shape = DerivedLayout::derive(&small, epoch, pack_perm(&perm), traps);
                let r =
                    RefPlan::of_class(&small, shape.offsets(), shape.traps(), shape.size(), false);
                let what = format!("stateless {perm:?} traps={}", traps.is_some());
                check_built_and_registered(shape.into_plan(&small), &r, key, &what);
            }

            let n = rng.next_u64() as usize % 25;
            let d = rng.next_u64() as usize % 13;
            let mut word = || rng.next_u64();
            let r = RefPlan {
                class: ClassHash(word()),
                offsets: (0..n).map(|_| word() as u32 % 4096).collect(),
                sizes: (0..n).map(|_| 1 + word() as u32 % 64).collect(),
                aligns: (0..n).map(|_| 1 << (word() % 4)).collect(),
                dummies: (0..d)
                    .map(|_| DummySlot {
                        offset: word() as u32 % 4096,
                        size: 1 + word() as u32 % 16,
                        canary: (word() % 2 == 0).then(&mut word),
                    })
                    .collect(),
                size: word() as u32 % 8192,
                natural: word() % 2 == 0,
            };
            let plan = LayoutPlan::with_aligns(
                r.class, &r.offsets, &r.sizes, &r.aligns, &r.dummies, r.size, r.natural,
            );
            check_built_and_registered(plan, &r, key, &format!("with_aligns {n}+{d}"));
            let aligns = r.sizes.iter().map(|&s| s.min(8).next_power_of_two().min(8)).collect();
            let r = RefPlan { aligns, ..r };
            let plan = LayoutPlan::new(r.class, &r.offsets, &r.sizes, &r.dummies, r.size, r.natural);
            check_built_and_registered(plan, &r, key, &format!("new {n}+{d}"));
        }
    }

    /// A plan stays one allocation of bounded size: the header, the
    /// inline cells and the spill pointer, nothing per field beside them.
    #[test]
    fn a_plan_is_its_header_and_inline_cells() {
        use std::mem::size_of;
        assert_eq!(size_of::<Cell>(), 16);
        assert!(
            size_of::<LayoutPlan>() <= 32 + INLINE_CELLS * size_of::<Cell>() + 16,
            "LayoutPlan grew to {} B",
            size_of::<LayoutPlan>()
        );
        assert_eq!(std::mem::offset_of!(LayoutPlan, fields), 0, "the count leads the cells");
    }
}
