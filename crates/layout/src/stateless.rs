//! Stateless small-class permutations (SPAM-style keyed Feistel).
//!
//! For the dominant population of small objects (≤ 8 fields), storing a
//! full randomized [`LayoutPlan`] per allocation is overkill: the
//! permutation itself can be *derived* from identity the runtime already
//! tracks — the heap block's (slot id, generation) pair — keyed by a
//! per-process epoch key, in the style of SPAM's keyed index
//! transformation. The runtime then stores only the 64-bit key; the plan
//! for any live or historical allocation is recomputable on demand, and
//! the set of distinct derived plans is bounded by the (small) number of
//! field permutations, which caps interner growth.
//!
//! The derivation is a 4-round balanced Feistel network over a 4-bit
//! index domain (16 ≥ 8 fields) with cycle-walking to restrict the
//! bijection to `[0, n)`. Feistel networks are bijective for *any* round
//! function, so every (key, generation, slot) triple yields a valid
//! permutation; cycle-walking preserves bijectivity because it walks the
//! orbit of a permutation until it re-enters the target domain.
//!
//! # The fast path
//!
//! [`permute_index`]/[`stateless_plan`] are the *reference* derivation —
//! kept byte-for-byte as introduced with the stateless mode, and what
//! the property tests compare against. The allocation hot path never
//! calls them:
//!
//! * [`RoundKeys`] interns the per-epoch-key round-key schedule once per
//!   runtime. Per (generation, slot) there are only `ROUNDS × 2^HALF_BITS
//!   = 16` distinct round-function outputs, so one batch of 16
//!   independent `mix64` calls (instruction-level parallel — no serial
//!   Feistel dependency) yields a lookup table that turns the whole
//!   16-point Feistel mapping into table walks.
//! * [`PermBlock`] buffers derived permutation codes for a run of
//!   consecutive generations of one slot, `BufferedRng`-style: block
//!   reuse (malloc/free churn on one slot) pays one batched refill per
//!   [`PERM_BLOCK_RUN`] allocations.
//! * A permutation is summarized as a packed [`PermCode`] (4 bits per
//!   position). [`DerivedLayout`] lays a code out on the stack and
//!   hashes it exactly as the [`LayoutPlan`] built from it would hash,
//!   so the runtime finds the interned plan of a code it has seen by a
//!   hash probe, and builds a plan only for a layout never interned.
//!
//! # Virtual booby traps
//!
//! Derived plans optionally interleave *virtual trap slots* between the
//! permuted fields: 8-byte canary-carrying dummies whose count and
//! interleave positions are pure functions of (epoch key, permutation
//! code) — and therefore of the same (generation, slot, epoch) identity
//! the permutation derives from. Their canary values are a pure function
//! of the resulting layout's structure under the plan registry's
//! [`CanaryKey`] ([`CanaryKey::canary`]), the rule the registry applies
//! to every plan it stores, so a layout derived on the stack carries
//! exactly the canaries of the plan registered for its structure. No
//! per-object trap state is stored; a misaligned probe that overlaps a
//! trap slot is detectable by rederiving the geometry from the identity
//! alone. This closes the trade the original permute-only mode made
//! (metadata savings at the price of zero trap coverage), which is why
//! the stateless path is now the runtime's *default* for small classes
//! (classes of at most [`STATELESS_MAX_FIELDS`] fields).

use polar_classinfo::{ClassHash, ClassInfo};

use crate::plan::{mix64, CanaryKey, DummySlot, LayoutPlan, PlanHash};

/// Largest field count served by the stateless path.
pub const STATELESS_MAX_FIELDS: usize = 8;

/// Feistel domain: 4-bit indices, two 2-bit halves.
const DOMAIN: u32 = 16;
const HALF_BITS: u32 = 2;
const HALF_MASK: u32 = (1 << HALF_BITS) - 1;
const ROUNDS: u32 = 4;

/// Maximum virtual trap slots interleaved into a trapped stateless plan
/// (the derived count is 1..=this, mirroring the stateful dummy policy).
pub const STATELESS_TRAP_MAX: u32 = 3;

/// Size (and alignment) of one virtual trap slot, in bytes.
pub const TRAP_SLOT_BYTES: u32 = 8;

/// Generations covered by one derivation block (a cache line of codes).
pub const PERM_BLOCK_RUN: usize = 8;

/// The per-process secret keying every stateless permutation. Derived
/// from the runtime seed; leaking a single object's layout does not
/// reveal the key (the round function is a one-way mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochKey(pub u64);

/// A derived permutation packed 4 bits per position (`perm[p]` in bits
/// `4p..4p+4`): the identity of a stateless layout, used as the plan
/// cache key. Fits `u32` because `STATELESS_MAX_FIELDS ≤ 8`.
pub type PermCode = u32;

/// The nibble-SWAR start state: lane `i` of the `u64` holds `i`.
const SWAR_IDENTITY: u64 = 0xFEDC_BA98_7654_3210;

/// One Feistel round advanced across all 16 domain points at once.
///
/// `state` carries `(left << 2) | right` for every point in 4-bit
/// lanes. The round function — a 2-bit lookup `f[right]` — becomes a
/// branch-free 4-way mux in XOR form over broadcast constants
/// (`f[r] = c0 ^ (r0 & c1) ^ (r1 & c2) ^ (r0 & r1 & c3)`), so a round
/// costs 4 independent `mix64` calls plus ~15 register ops with zero
/// loads. Byte-identity with the reference Feistel is property-tested.
#[inline]
fn swar_round(rk_row: &[u64; (HALF_MASK + 1) as usize], rot: u64, state: u64) -> u64 {
    /// Bit 0 of every nibble lane.
    const LANES: u64 = 0x1111_1111_1111_1111;
    /// Bits 0-1 of every nibble lane (the `right` half).
    const TWO: u64 = 0x3333_3333_3333_3333;
    let f0 = mix64(rk_row[0] ^ rot) & HALF_MASK as u64;
    let f1 = mix64(rk_row[1] ^ rot) & HALF_MASK as u64;
    let f2 = mix64(rk_row[2] ^ rot) & HALF_MASK as u64;
    let f3 = mix64(rk_row[3] ^ rot) & HALF_MASK as u64;
    let c0 = f0.wrapping_mul(LANES);
    let c1 = (f0 ^ f1).wrapping_mul(LANES);
    let c2 = (f0 ^ f2).wrapping_mul(LANES);
    let c3 = (f0 ^ f1 ^ f2 ^ f3).wrapping_mul(LANES);
    let right = state & TWO;
    let left = (state >> HALF_BITS) & TWO;
    // Widen each index bit to a 2-bit lane mask (×3).
    let m0 = (right & LANES).wrapping_mul(3);
    let m1 = ((right >> 1) & LANES).wrapping_mul(3);
    let fval = c0 ^ (m0 & c1) ^ (m1 & c2) ^ (m0 & m1 & c3);
    // (left', right') = (right, left ^ f[right]) in every lane.
    (right << HALF_BITS) | (left ^ fval)
}

/// Collapse (generation, slot) into the Feistel tweak. Injective for
/// generations below 2^32, and `mix64` in the round function avalanches
/// the combined value anyway.
#[inline]
fn tweak(generation: u64, slot: u32) -> u64 {
    mix64((generation << 32) ^ generation >> 32).wrapping_add(slot_mix(slot))
}

/// The slot half of the tweak, separable so a generation-run refill
/// computes it once.
#[inline]
fn slot_mix(slot: u32) -> u64 {
    mix64(slot as u64 ^ 0xA076_1D64_78BD_642F)
}

/// The Feistel round function: 2 bits of keyed mix.
#[inline]
fn round_f(key: u64, tweak: u64, round: u32, half: u32) -> u32 {
    let x = key
        ^ tweak.rotate_left(round * 8)
        ^ ((round as u64) << 32)
        ^ (half as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mix64(x) & HALF_MASK as u64) as u32
}

/// One pass of the 4-round network: a bijection on `[0, 16)`.
#[inline]
fn feistel16(key: u64, tweak: u64, index: u32) -> u32 {
    let mut left = (index >> HALF_BITS) & HALF_MASK;
    let mut right = index & HALF_MASK;
    for round in 0..ROUNDS {
        let next = left ^ round_f(key, tweak, round, right);
        left = right;
        right = next & HALF_MASK;
    }
    (left << HALF_BITS) | right
}

/// The keyed index permutation: maps `index ∈ [0, n)` to a position in
/// `[0, n)`, bijectively, as a pure function of (key, generation, slot).
///
/// Cycle-walking: `feistel16` permutes `[0, 16)`; iterating it from a
/// point `< n` must eventually re-enter `[0, n)` (the orbit returns to
/// its start), and distinct starts land on distinct results, so the
/// restriction is itself a bijection on `[0, n)`.
///
/// This is the reference derivation; [`RoundKeys::perm_code`] is the
/// batched equivalent the hot path uses, tested byte-identical.
///
/// # Panics
///
/// Debug-asserts `n ≤ 16` and `index < n`.
pub fn permute_index(key: EpochKey, generation: u64, slot: u32, n: usize, index: usize) -> usize {
    debug_assert!(n >= 1 && n <= DOMAIN as usize);
    debug_assert!(index < n);
    let t = tweak(generation, slot);
    let mut x = index as u32;
    loop {
        x = feistel16(key.0, t, x);
        if (x as usize) < n {
            return x as usize;
        }
    }
}

/// The full derived permutation for an `n`-field class: `perm[p]` is the
/// field placed at sequential position `p`.
pub fn stateless_perm(key: EpochKey, generation: u64, slot: u32, n: usize) -> Vec<usize> {
    (0..n).map(|p| permute_index(key, generation, slot, n, p)).collect()
}

// ---------------------------------------------------------------------
// Round-key interning + batched derivation (the hot path).
// ---------------------------------------------------------------------

/// The interned per-epoch-key Feistel round-key schedule.
///
/// `round_f` xors the key with per-(round, half) constants before the
/// mix; those combined constants are fixed for the life of an epoch key,
/// so they are hoisted here — one table per runtime, no key derivation
/// per allocation. Deriving one (generation, slot) identity then costs a
/// single 16-entry table of *independent* `mix64` calls (full ILP)
/// instead of 4 serially-dependent rounds per domain point.
#[derive(Debug, Clone)]
pub struct RoundKeys {
    key: EpochKey,
    /// `rk[round][half] = key ^ (round << 32) ^ half·φ` — the full
    /// `round_f` input minus the tweak.
    rk: [[u64; (HALF_MASK + 1) as usize]; ROUNDS as usize],
}

impl RoundKeys {
    /// Precompute the schedule for `key`.
    pub fn new(key: EpochKey) -> Self {
        let mut rk = [[0u64; (HALF_MASK + 1) as usize]; ROUNDS as usize];
        for (round, row) in rk.iter_mut().enumerate() {
            for (half, cell) in row.iter_mut().enumerate() {
                *cell = key.0
                    ^ ((round as u64) << 32)
                    ^ (half as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
        }
        RoundKeys { key, rk }
    }

    /// The epoch key this schedule was built from.
    pub fn key(&self) -> EpochKey {
        self.key
    }

    /// The complete 16-point Feistel mapping for one (generation, slot)
    /// identity: `map[i] = feistel16(key, tweak, i)`, byte-identical to
    /// the reference, from 16 independent `mix64` calls plus table walks.
    #[inline]
    pub fn mapping(&self, generation: u64, slot: u32) -> [u8; DOMAIN as usize] {
        let packed = self.mapping_for_tweak(tweak(generation, slot));
        let mut map = [0u8; DOMAIN as usize];
        for (i, out) in map.iter_mut().enumerate() {
            *out = ((packed >> (4 * i)) & 0xF) as u8;
        }
        map
    }

    /// The 16-point mapping packed 4 bits per domain point (`map[i]` in
    /// bits `4i..4i+4`), evaluated nibble-SWAR: one `u64` carries the
    /// `(left << 2) | right` state of all 16 domain points, and each
    /// round advances every lane at once. The round function — a 2-bit
    /// lookup `f[right]` — becomes a branch-free 4-way mux in XOR form
    /// over broadcast constants, so a round costs 4 `mix64` plus ~15
    /// register ops with zero loads. This is what turns a ~90 ns
    /// derivation into a ~35 ns one; byte-identity with the reference
    /// Feistel is property-tested.
    #[inline]
    fn mapping_for_tweak(&self, t: u64) -> u64 {
        // Identity start state: lane i holds i.
        let mut state: u64 = SWAR_IDENTITY;
        for round in 0..ROUNDS as usize {
            state = swar_round(&self.rk[round], t.rotate_left(round as u32 * 8), state);
        }
        state
    }

    /// Packed permutation code for an `n`-field class at one identity:
    /// cycle-walk the precomputed mapping exactly as [`permute_index`]
    /// walks `feistel16`.
    #[inline]
    pub fn perm_code(&self, generation: u64, slot: u32, n: usize) -> PermCode {
        Self::code_from_mapping(self.mapping_for_tweak(tweak(generation, slot)), n)
    }

    #[inline]
    fn code_from_mapping(map: u64, n: usize) -> PermCode {
        debug_assert!(n >= 1 && n <= STATELESS_MAX_FIELDS);
        // One branch-free worklist over the positions in order. Each
        // step does one lookup: a position whose value is in `[0, n)` is
        // recorded and the next position's start `map[p]` is loaded,
        // any other value steps its walk. The walks from distinct starts
        // cross disjoint runs of out-of-domain points (each such point
        // has one predecessor in the permutation), so `n` starts plus at
        // most `16 - n` walk steps finish every position within 16
        // steps — a fixed trip count with no data-dependent branch.
        let nn = n as u64;
        let mut p = 0u64;
        let mut x = map & 0xF;
        let mut code = 0u64;
        for _ in 0..DOMAIN {
            let done = x < nn;
            let keep = u64::from(done & (p < nn)).wrapping_neg();
            code |= (x << (4 * p)) & keep;
            p += u64::from(done);
            let start = (map >> ((4 * p) & 63)) & 0xF;
            let walk = (map >> (4 * x)) & 0xF;
            x = if done { start } else { walk };
        }
        code as PermCode
    }
}

/// Extract `perm[p]` from a packed code.
#[inline]
pub fn code_position(code: PermCode, p: usize) -> usize {
    ((code >> (4 * p)) & 0xF) as usize
}

/// `n!` for `n ≤ STATELESS_MAX_FIELDS`: the number of distinct
/// permutation codes an `n`-field class can produce. A class's layout
/// memo has this many entries, one per [`code_rank`], and the runtime
/// builds it once the class has this many live objects (5,040 for a
/// 7-field class; a class of at most 4 fields gets it at once).
#[inline]
pub fn code_space(n: usize) -> usize {
    const FACT: [usize; STATELESS_MAX_FIELDS + 1] =
        [1, 1, 2, 6, 24, 120, 720, 5040, 40320];
    FACT[n.min(STATELESS_MAX_FIELDS)]
}

/// Lehmer rank of the permutation packed in `code`: a perfect (bijective)
/// index in `[0, n!)`. Lets a class's layout memo index without
/// collisions: a code it can hold misses once, never on a conflict.
#[inline]
pub fn code_rank(code: PermCode, n: usize) -> usize {
    debug_assert!(n >= 1 && n <= STATELESS_MAX_FIELDS);
    let mut rank = 0usize;
    for i in 0..n {
        let a_i = code_position(code, i);
        let mut smaller_after = 0usize;
        for j in i + 1..n {
            smaller_after += usize::from(code_position(code, j) < a_i);
        }
        rank = rank * (n - i) + smaller_after;
    }
    rank
}

/// Pack a permutation produced by [`stateless_perm`] into a [`PermCode`]
/// (the reference-side counterpart of [`RoundKeys::perm_code`]).
pub fn pack_perm(perm: &[usize]) -> PermCode {
    let mut code: PermCode = 0;
    for (p, &idx) in perm.iter().enumerate() {
        code |= (idx as PermCode) << (4 * p);
    }
    code
}

/// A cache-line block of derived permutation codes for one slot's run of
/// consecutive generations — the `BufferedRng` of the stateless path.
///
/// Heap slots are reused generation-by-generation (malloc/free churn
/// hands the same slot back with `generation + 1`), so the allocation
/// path sees long (slot, generation-run) streaks. The first reuse of a
/// slot triggers a batched refill deriving [`PERM_BLOCK_RUN`] codes with
/// one shared slot-mix; subsequent reuses are an array index. A
/// first-sighting of a *different* slot derives a single code instead —
/// batching only pays where runs actually happen.
#[derive(Debug, Clone)]
pub struct PermBlock {
    slot: u32,
    n: u8,
    len: u8,
    gen_base: u64,
    codes: [PermCode; PERM_BLOCK_RUN],
}

impl PermBlock {
    /// An empty block that matches nothing.
    pub fn empty() -> Self {
        PermBlock { slot: u32::MAX, n: 0, len: 0, gen_base: 0, codes: [0; PERM_BLOCK_RUN] }
    }

    /// The code for `(slot, generation)` under an `n`-field class:
    /// buffered when covered, otherwise derived (batching the refill
    /// when this extends a run on the block's current slot).
    #[inline]
    pub fn code_for(
        &mut self,
        keys: &RoundKeys,
        slot: u32,
        generation: u64,
        n: usize,
    ) -> PermCode {
        if self.slot == slot && usize::from(self.n) == n {
            let at = generation.wrapping_sub(self.gen_base);
            if at < u64::from(self.len) {
                return self.codes[at as usize];
            }
            // Same slot, generation past the buffer: a reuse run is in
            // progress — batch the next stretch.
            self.refill(keys, slot, generation, n, PERM_BLOCK_RUN);
            return self.codes[0];
        }
        // New slot: derive just this identity; a run, if one develops,
        // announces itself on the next reuse.
        self.refill(keys, slot, generation, n, 1);
        self.codes[0]
    }

    fn refill(&mut self, keys: &RoundKeys, slot: u32, gen_base: u64, n: usize, count: usize) {
        let sm = slot_mix(slot);
        self.slot = slot;
        self.n = n as u8;
        self.len = count as u8;
        self.gen_base = gen_base;
        // Round-major across the batch: each code's Feistel rounds form
        // a serial dependency chain, but the chains of different
        // generations are independent — advancing all of them one round
        // at a time keeps `count` chains (and their 4·count mix64 calls
        // per round) in flight at once, which is where the batched
        // refill actually beats deriving the codes one by one.
        let mut tweaks = [0u64; PERM_BLOCK_RUN];
        for (i, t) in tweaks.iter_mut().enumerate().take(count) {
            let generation = gen_base.wrapping_add(i as u64);
            *t = mix64((generation << 32) ^ generation >> 32).wrapping_add(sm);
        }
        let mut states = [SWAR_IDENTITY; PERM_BLOCK_RUN];
        for round in 0..ROUNDS as usize {
            let rk_row = &keys.rk[round];
            for (state, t) in states.iter_mut().zip(&tweaks).take(count) {
                *state = swar_round(rk_row, t.rotate_left(round as u32 * 8), *state);
            }
        }
        for (code, &state) in self.codes.iter_mut().zip(&states).take(count) {
            *code = RoundKeys::code_from_mapping(state, n);
        }
    }
}

// ---------------------------------------------------------------------
// Plan derivation (permute-only and trapped).
// ---------------------------------------------------------------------

/// Derive the layout plan for `info` at heap identity (generation, slot).
///
/// Permute-only (no dummies, no traps): fields are laid out sequentially
/// in derived order with natural alignment. The result is a plain
/// [`LayoutPlan`], so every downstream consumer — field accesses, the
/// slot records, `olr_memcpy` translation — works unchanged.
///
/// This is the reference derivation kept for the ablation and the
/// byte-identity property tests; the runtime builds plans through
/// [`stateless_plan_from_code`].
///
/// # Panics
///
/// Panics if `info` has more than [`STATELESS_MAX_FIELDS`] fields.
pub fn stateless_plan(
    info: &ClassInfo,
    key: EpochKey,
    generation: u64,
    slot: u32,
) -> LayoutPlan {
    let n = info.fields().len();
    assert!(
        n <= STATELESS_MAX_FIELDS,
        "stateless path is limited to {STATELESS_MAX_FIELDS} fields, got {n}"
    );
    stateless_plan_from_code(info, key, pack_perm(&stateless_perm(key, generation, slot, n)), None)
}

/// Derive the trapped layout plan for `info` at (generation, slot):
/// the permuted fields with virtual trap slots interleaved, their
/// canaries keyed by `canaries`.
///
/// # Panics
///
/// Panics if `info` has more than [`STATELESS_MAX_FIELDS`] fields.
pub fn stateless_trapped_plan(
    info: &ClassInfo,
    key: EpochKey,
    generation: u64,
    slot: u32,
    canaries: CanaryKey,
) -> LayoutPlan {
    let n = info.fields().len();
    assert!(
        n <= STATELESS_MAX_FIELDS,
        "stateless path is limited to {STATELESS_MAX_FIELDS} fields, got {n}"
    );
    let code = pack_perm(&stateless_perm(key, generation, slot, n));
    stateless_plan_from_code(info, key, code, Some(canaries))
}

/// Virtual trap geometry for one (key, permutation) pair: the trap
/// count and each trap's interleave position among the `n + t` layout
/// slots, both from one keyed mix of the packed code, so the geometry is
/// rederivable from the allocation identity with zero stored state.
fn trap_spec(
    key: EpochKey,
    code: PermCode,
    n: usize,
) -> (usize, [usize; STATELESS_TRAP_MAX as usize]) {
    let h = mix64(
        key.0 ^ u64::from(code).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x7452_6150, // "PaRt"
    );
    let t = 1 + (h % u64::from(STATELESS_TRAP_MAX)) as usize;
    let mut at = [0usize; STATELESS_TRAP_MAX as usize];
    for (j, slot) in at.iter_mut().enumerate().take(t) {
        // Insertion position into the growing memory-order sequence of
        // n fields + j earlier traps.
        *slot = small_mod(h >> (8 + 6 * j), n + j + 1);
    }
    (t, at)
}

/// `x % m` for the divisors trap positions use (`m ≤ 11`), each arm a
/// division by a constant — a multiply and a shift instead of a 64-bit
/// hardware divide, on the allocation path.
#[inline]
fn small_mod(x: u64, m: usize) -> usize {
    let r = match m {
        1 => 0,
        2 => x % 2,
        3 => x % 3,
        4 => x % 4,
        5 => x % 5,
        6 => x % 6,
        7 => x % 7,
        8 => x % 8,
        9 => x % 9,
        10 => x % 10,
        11 => x % 11,
        _ => x % m as u64,
    };
    r as usize
}

/// The layout one permutation code derives, held on the stack: the
/// field offsets, the virtual trap slots with their canaries, the object
/// size and the content hash of it all, with no allocation.
///
/// [`stateless_plan_from_code`] builds its plan from this shape, and
/// [`DerivedLayout::derive`] hashes it through the one
/// [`LayoutPlan::content_hash`], so the hash of a derived layout is the
/// hash of the plan it would build. The trap canaries follow the
/// registry's rule for that hash, so they are the canaries of whatever
/// plan is registered under it. The runtime looks the hash up among its
/// interned plans, builds the plan only when none matches, and arms the
/// object from this shape either way.
#[derive(Debug, Clone, Copy)]
pub struct DerivedLayout {
    class: ClassHash,
    /// The offset of each memory-order entry, by entry: field `i` at
    /// `i`, trap slot `j` at `STATELESS_MAX_FIELDS + j`.
    offsets: [u32; 16],
    fields: u8,
    traps: [DummySlot; STATELESS_TRAP_MAX as usize],
    trap_count: u8,
    size: u32,
    /// The content hash of the plan this layout builds.
    hash: PlanHash,
}

impl DerivedLayout {
    /// Lay out `info`'s fields in `code`'s derived order with natural
    /// alignment; with `traps` given, 1..=[`STATELESS_TRAP_MAX`] 8-byte
    /// canary dummies (geometry from `trap_spec`) are inserted between
    /// them, their canaries keyed by it for the layout's structure.
    /// Sequential assignment makes trap slots and fields disjoint by
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics if `info` has more than [`STATELESS_MAX_FIELDS`] fields.
    pub fn derive(
        info: &ClassInfo,
        key: EpochKey,
        code: PermCode,
        traps: Option<CanaryKey>,
    ) -> Self {
        let fields = info.fields();
        let n = fields.len();
        assert!(
            n <= STATELESS_MAX_FIELDS,
            "stateless path is limited to {STATELESS_MAX_FIELDS} fields, got {n}"
        );
        // Entries of the memory order: field `i` is `i`, trap slot `j`
        // is `STATELESS_MAX_FIELDS + j`. Tables of 16 entries take any
        // 4-bit entry, so one size/alignment table and one offset table
        // serve fields and traps alike, with no branch or bounds check
        // per entry.
        let mut size = [TRAP_SLOT_BYTES; 16];
        let mut align = [TRAP_SLOT_BYTES; 16];
        for (i, f) in fields.iter().enumerate() {
            size[i] = f.kind().size();
            align[i] = f.kind().align();
        }
        // The memory order packed 4 bits per entry like a `PermCode`:
        // the permuted fields, each trap slot inserted at its derived
        // position with the entries above it shifted up one lane.
        let mut order = u64::from(code);
        let mut len = n;
        let mut trap_count = 0;
        if traps.is_some() {
            let (t, at) = trap_spec(key, code, n);
            for (j, &pos) in at.iter().enumerate().take(t) {
                let below = (1u64 << (4 * pos)) - 1;
                order = (order & below)
                    | ((STATELESS_MAX_FIELDS + j) as u64) << (4 * pos)
                    | (order & !below) << 4;
                len += 1;
            }
            trap_count = t;
        }

        let mut offsets = [0u32; 16];
        // The trap entries in memory order: every entry is stored, and
        // only a trap advances `seen` past its store.
        let mut trap_order = [0usize; 4];
        let mut seen = 0usize;
        let mut cursor = 0u32;
        let mut max_align = 1u32;
        for p in 0..len {
            let e = ((order >> (4 * p)) & 0xF) as usize;
            max_align = max_align.max(align[e]);
            cursor = round_up(cursor, align[e]);
            offsets[e] = cursor;
            cursor += size[e];
            trap_order[seen & 3] = e;
            seen += usize::from(e >= STATELESS_MAX_FIELDS);
        }
        let mut out = DerivedLayout {
            class: info.hash(),
            offsets,
            fields: n as u8,
            traps: [DummySlot { offset: 0, size: 0, canary: None }; STATELESS_TRAP_MAX as usize],
            trap_count: trap_count as u8,
            size: round_up(cursor.max(1), max_align),
            hash: PlanHash(0),
        };
        // The hash covers which dummies carry a canary, not the values:
        // hash the structure first, then key the values by it.
        for (trap, &e) in out.traps.iter_mut().zip(&trap_order).take(trap_count) {
            *trap = DummySlot { offset: offsets[e], size: TRAP_SLOT_BYTES, canary: Some(0) };
        }
        out.hash = LayoutPlan::content_hash(out.class, out.offsets(), out.traps(), out.size);
        if let Some(canaries) = traps {
            for (j, trap) in out.traps.iter_mut().enumerate().take(trap_count) {
                trap.canary = Some(canaries.canary(out.hash, j));
            }
        }
        out
    }

    /// Field offsets, indexed by declaration order.
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets[..usize::from(self.fields)]
    }

    /// The object size of this layout.
    pub(crate) fn size(&self) -> u32 {
        self.size
    }

    /// The virtual trap slots with their canaries, in memory order: the
    /// dummies of the plan this layout builds.
    #[inline]
    pub fn traps(&self) -> &[DummySlot] {
        &self.traps[..usize::from(self.trap_count)]
    }

    /// The plan of this layout; `info` is the class it was derived for.
    pub fn into_plan(self, info: &ClassInfo) -> LayoutPlan {
        debug_assert_eq!(self.class, info.hash());
        LayoutPlan::of_class(info, self.offsets(), self.traps(), self.size(), false)
    }

    /// The content hash of the plan this layout builds.
    #[inline]
    pub fn plan_hash(&self) -> PlanHash {
        self.hash
    }
}

/// Build the [`LayoutPlan`] for a packed permutation code, optionally
/// interleaving virtual trap slots keyed by `traps`: the plan of
/// [`DerivedLayout::derive`]'s shape.
///
/// # Panics
///
/// Panics if `info` has more than [`STATELESS_MAX_FIELDS`] fields.
pub fn stateless_plan_from_code(
    info: &ClassInfo,
    key: EpochKey,
    code: PermCode,
    traps: Option<CanaryKey>,
) -> LayoutPlan {
    DerivedLayout::derive(info, key, code, traps).into_plan(info)
}

/// The size of the widest layout [`DerivedLayout::derive`] can give
/// `info`: the exact maximum over every field order and, with `traps`,
/// every trap count and insertion position, independent of
/// (generation, slot).
///
/// The allocation path needs a block size *before* the heap assigns the
/// (slot, generation) identity the layout is derived from; this bound
/// breaks the cycle, and because it is exact the block is no larger
/// than the widest object that identity could derive.
///
/// A derived layout places its entries (the fields and the 8-byte trap
/// slots) one after another, each at the next multiple of its alignment,
/// and rounds the end up to the largest alignment. More traps never
/// narrow a layout (a trap appended at the end only adds bytes and
/// raises the alignment to 8), so the widest trapped layout has
/// [`STATELESS_TRAP_MAX`] traps.
///
/// The entry sizes and the final alignment are fixed by the class, so
/// only the padding varies, and the padding ahead of an entry depends
/// only on the cursor modulo its alignment, hence (alignments being at
/// most 8) on the cursor modulo 8. A dynamic program over the entries
/// still to place — counted per `(size mod 8, alignment)` kind, since
/// entries of one kind pad alike — and the cursor modulo 8 finds the
/// most padding; rounding up is monotone, so the widest end rounds up
/// to the widest size. Each path through the table is an order, so the
/// maximum is attained, not just bounded. The table has
/// `∏ (count + 1) × 8` cells: a few dozen rows for a class of repeated
/// kinds, at most 1,024 for 8 fields of distinct narrow kinds and 3
/// traps.
///
/// # Panics
///
/// Panics if `info` has more than [`STATELESS_MAX_FIELDS`] fields.
pub fn stateless_bound(info: &ClassInfo, traps: bool) -> u32 {
    let fields = info.fields();
    assert!(
        fields.len() <= STATELESS_MAX_FIELDS,
        "stateless path is limited to {STATELESS_MAX_FIELDS} fields, got {}",
        fields.len()
    );
    let mut kinds = EntryKinds::default();
    let (mut bytes, mut max_align) = (0u32, 1u32);
    for f in fields {
        let kind = f.kind();
        bytes += kind.size();
        max_align = max_align.max(kind.align());
        kinds.add(kind.size(), kind.align(), 1);
    }
    if traps {
        bytes += STATELESS_TRAP_MAX * TRAP_SLOT_BYTES;
        max_align = max_align.max(TRAP_SLOT_BYTES);
        kinds.add(TRAP_SLOT_BYTES, TRAP_SLOT_BYTES, STATELESS_TRAP_MAX as u8);
    }
    round_up((bytes + kinds.widest_padding()).max(1), max_align)
}

/// The entries of a derived layout grouped by how they pad: one kind
/// per distinct `(size mod 8, alignment)`, with its count.
#[derive(Default)]
struct EntryKinds {
    /// `(size mod 8, alignment, count)` of each kind.
    kinds: [(u32, u32, u8); STATELESS_MAX_FIELDS + 1],
    len: usize,
}

impl EntryKinds {
    fn add(&mut self, size: u32, align: u32, count: u8) {
        let step = size % 8;
        if align == 1 && step == 0 {
            // Neither pads nor moves the cursor modulo 8.
            return;
        }
        match self.kinds[..self.len].iter_mut().find(|k| (k.0, k.1) == (step, align)) {
            Some(kind) => kind.2 += count,
            None => {
                self.kinds[self.len] = (step, align, count);
                self.len += 1;
            }
        }
    }

    /// The most padding any order of the entries inserts, starting at
    /// offset 0. `best[s][r]` is the most padding the multiset of
    /// entries `s` (an index whose mixed-radix digits are the count left
    /// of each kind) can add from a cursor `≡ r (mod 8)`; a state is
    /// computed from the states with one entry fewer, which all have
    /// smaller indices.
    fn widest_padding(&self) -> u32 {
        let kinds = &self.kinds[..self.len];
        // Per kind: its index stride, and per cursor residue the padding
        // it inserts and the residue after it.
        let mut stride = [0usize; STATELESS_MAX_FIELDS + 1];
        let mut pad = [[0u8; 8]; STATELESS_MAX_FIELDS + 1];
        let mut next = [[0u8; 8]; STATELESS_MAX_FIELDS + 1];
        let mut states = 1usize;
        for (k, &(step, align, count)) in kinds.iter().enumerate() {
            stride[k] = states;
            states *= usize::from(count) + 1;
            for r in 0..8u32 {
                let p = (align - r % align) % align;
                pad[k][r as usize] = p as u8;
                next[k][r as usize] = ((r + p + step) % 8) as u8;
            }
        }
        let mut best: Vec<[u8; 8]> = Vec::with_capacity(states);
        best.push([0; 8]);
        let mut left = [0u8; STATELESS_MAX_FIELDS + 1];
        for s in 1..states {
            // Advance the digits to state `s`.
            for (k, digit) in left.iter_mut().enumerate().take(kinds.len()) {
                if *digit < kinds[k].2 {
                    *digit += 1;
                    break;
                }
                *digit = 0;
            }
            let mut row = [0u8; 8];
            for k in (0..kinds.len()).filter(|&k| left[k] > 0) {
                let rest = &best[s - stride[k]];
                for (r, cell) in row.iter_mut().enumerate() {
                    *cell = (*cell).max(pad[k][r] + rest[usize::from(next[k][r])]);
                }
            }
            best.push(row);
        }
        u32::from(best[states - 1][0])
    }
}

fn round_up(value: u32, to: u32) -> u32 {
    debug_assert!(to.is_power_of_two());
    (value + to - 1) & !(to - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_classinfo::{ClassDecl, FieldKind};
    use polar_rng::{Rng, SplitMix64};

    fn small_class(n: usize) -> ClassInfo {
        let kinds = [
            FieldKind::VtablePtr,
            FieldKind::I64,
            FieldKind::I32,
            FieldKind::I16,
            FieldKind::I8,
            FieldKind::Ptr,
            FieldKind::I32,
            FieldKind::I64,
        ];
        let mut b = ClassDecl::builder("Small");
        for (i, kind) in kinds.iter().take(n).enumerate() {
            b = b.field(format!("f{i}"), *kind);
        }
        ClassInfo::from_decl(b.build())
    }

    /// Every permutation of `0..n` (Heap's algorithm).
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        fn heap(k: usize, a: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if k <= 1 {
                out.push(a.clone());
                return;
            }
            for i in 0..k {
                heap(k - 1, a, out);
                if k % 2 == 0 {
                    a.swap(i, k - 1);
                } else {
                    a.swap(0, k - 1);
                }
            }
        }
        let mut out = Vec::new();
        heap(n, &mut (0..n).collect(), &mut out);
        out
    }

    /// The derived plan built the way it was before layouts were
    /// derived on the stack: the memory order as an index array with
    /// each trap inserted by `copy_within`, one branch per entry, and
    /// the plan's vectors filled in place, then its canaries set by the
    /// rule a registry stores plans under. An independent construction
    /// to hold [`DerivedLayout`] to.
    fn reference_plan_from_code(
        info: &ClassInfo,
        key: EpochKey,
        code: PermCode,
        traps: Option<CanaryKey>,
    ) -> LayoutPlan {
        let fields = info.fields();
        let n = fields.len();
        let mut offsets = vec![0u32; n];
        let sizes: Vec<u32> = fields.iter().map(|f| f.kind().size()).collect();
        let aligns: Vec<u32> = fields.iter().map(|f| f.kind().align()).collect();
        let mut order = [0usize; STATELESS_MAX_FIELDS + STATELESS_TRAP_MAX as usize];
        for (p, entry) in order.iter_mut().enumerate().take(n) {
            *entry = code_position(code, p);
        }
        let mut len = n;
        let mut dummies = Vec::new();
        if traps.is_some() {
            let (t, at) = trap_spec(key, code, n);
            for (j, &pos) in at.iter().enumerate().take(t) {
                order.copy_within(pos..len, pos + 1);
                order[pos] = usize::MAX - j;
                len += 1;
            }
        }
        let (mut cursor, mut max_align) = (0u32, 1u32);
        for &entry in order.iter().take(len) {
            if entry >= usize::MAX - STATELESS_TRAP_MAX as usize {
                cursor = round_up(cursor, TRAP_SLOT_BYTES);
                max_align = max_align.max(TRAP_SLOT_BYTES);
                let canary = Some(u64::MAX);
                dummies.push(DummySlot { offset: cursor, size: TRAP_SLOT_BYTES, canary });
                cursor += TRAP_SLOT_BYTES;
            } else {
                max_align = max_align.max(aligns[entry]);
                cursor = round_up(cursor, aligns[entry]);
                offsets[entry] = cursor;
                cursor += sizes[entry];
            }
        }
        let size = round_up(cursor.max(1), max_align);
        let mut plan =
            LayoutPlan::with_aligns(info.hash(), &offsets, &sizes, &aligns, &dummies, size, false);
        if let Some(canaries) = traps {
            plan.arm_canaries(canaries);
        }
        plan
    }

    /// The codes checked for an `n`-field class: every code when `n ≤ 6`
    /// or when `budget` covers all `n!`, otherwise `budget` codes drawn
    /// uniformly.
    fn codes_to_check(n: usize, budget: usize, rng: &mut SplitMix64) -> Vec<PermCode> {
        if n <= 6 || budget >= code_space(n) {
            return permutations(n).iter().map(|perm| pack_perm(perm)).collect();
        }
        (0..budget)
            .map(|_| {
                let mut perm: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    perm.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                }
                pack_perm(&perm)
            })
            .collect()
    }

    /// For every code of classes up to 6 fields, and sampled codes of 7
    /// and 8 (`POLAR_DERIVED_CODES` per field count, 2,000 by default;
    /// at or above `n!` every code), in both trap modes and under
    /// several keys: the stack layout hashes as the plan built from the
    /// code and carries its canaries, and that plan equals the
    /// independent reference build, canaries included — so arming an
    /// object from the stack layout seeds what a registry holds for it.
    #[test]
    fn derived_layout_hashes_as_the_plan_built_from_it() {
        let budget = std::env::var("POLAR_DERIVED_CODES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2_000);
        let mut rng = SplitMix64::new(0xD15C_0DE5);
        for n in 1..=STATELESS_MAX_FIELDS {
            let info = small_class(n);
            let codes = codes_to_check(n, budget, &mut rng);
            for key in [EpochKey(0), EpochKey(0x5EED), EpochKey(u64::MAX)] {
                let canaries = CanaryKey(key.0.rotate_left(17) ^ 0xCA4A);
                for traps in [None, Some(canaries)] {
                    for &code in &codes {
                        let shape = DerivedLayout::derive(&info, key, code, traps);
                        let plan = stateless_plan_from_code(&info, key, code, traps);
                        assert_eq!(
                            shape.plan_hash(),
                            plan.plan_hash(),
                            "n={n} code={code:#x} traps={traps:?} key={key:?}"
                        );
                        assert_eq!(
                            shape.traps(),
                            plan.dummies().collect::<Vec<_>>(),
                            "canaries: n={n} code={code:#x} traps={traps:?} key={key:?}"
                        );
                        assert_eq!(
                            plan,
                            reference_plan_from_code(&info, key, code, traps),
                            "n={n} code={code:#x} traps={traps:?} key={key:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn feistel_is_a_bijection_on_the_domain() {
        for key in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            for t in [0u64, 7, 0x1234_5678_9ABC_DEF0] {
                let mut seen = [false; DOMAIN as usize];
                for i in 0..DOMAIN {
                    let out = feistel16(key, t, i);
                    assert!(out < DOMAIN);
                    assert!(!seen[out as usize], "collision at {i}");
                    seen[out as usize] = true;
                }
            }
        }
    }

    #[test]
    fn cycle_walked_permutation_is_bijective_for_every_n() {
        for n in 1..=STATELESS_MAX_FIELDS {
            let key = EpochKey(0x5EED);
            let perm = stateless_perm(key, 3, 17, n);
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "n={n} perm={perm:?}");
        }
    }

    #[test]
    fn round_key_interning_matches_the_reference_derivation() {
        // The hot path (RoundKeys table + cycle walk over the cached
        // mapping) must be byte-identical to the reference Feistel for
        // every identity: same key schedule, same tweak, same walk.
        let mut rng = SplitMix64::new(0x0BAD_5EED);
        for _ in 0..200 {
            let key = EpochKey(rng.next_u64());
            let keys = RoundKeys::new(key);
            for _ in 0..20 {
                let generation = rng.next_u64() >> 20;
                let slot = (rng.next_u64() & 0xFFFF) as u32;
                let map = keys.mapping(generation, slot);
                for i in 0..DOMAIN {
                    assert_eq!(
                        u32::from(map[i as usize]),
                        feistel16(key.0, tweak(generation, slot), i),
                        "mapping diverges at point {i}"
                    );
                }
                for n in 1..=STATELESS_MAX_FIELDS {
                    assert_eq!(
                        keys.perm_code(generation, slot, n),
                        pack_perm(&stateless_perm(key, generation, slot, n)),
                        "code diverges for n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn perm_block_buffers_generation_runs_exactly() {
        let key = EpochKey(0xB10C);
        let keys = RoundKeys::new(key);
        let mut block = PermBlock::empty();
        // A slot-reuse run: consecutive generations on one slot.
        for generation in 5..5 + 3 * PERM_BLOCK_RUN as u64 {
            assert_eq!(
                block.code_for(&keys, 9, generation, 5),
                pack_perm(&stateless_perm(key, generation, 9, 5)),
                "run diverges at generation {generation}"
            );
        }
        // Interleaved slots: every switch re-derives correctly.
        for i in 0..32u64 {
            let slot = (i % 3) as u32 * 11;
            assert_eq!(
                block.code_for(&keys, slot, i, 4),
                pack_perm(&stateless_perm(key, i, slot, 4)),
                "slot switch diverges at {i}"
            );
        }
    }

    #[test]
    fn different_identities_usually_differ() {
        let info = small_class(6);
        let key = EpochKey(0xA11CE);
        let base = stateless_plan(&info, key, 0, 0);
        let mut distinct = 0;
        for slot in 1..32u32 {
            if stateless_plan(&info, key, 0, slot).plan_hash() != base.plan_hash() {
                distinct += 1;
            }
        }
        // 6! = 720 permutations: nearly all of 31 other slots differ.
        assert!(distinct > 20, "only {distinct} of 31 differed");
        // Generation bumps (block reuse) also re-randomize.
        assert_ne!(
            stateless_plan(&info, key, 1, 0).plan_hash(),
            stateless_plan(&info, key, 2, 0).plan_hash()
        );
    }

    #[test]
    fn derived_plans_validate_and_fit_the_bound() {
        for n in 1..=STATELESS_MAX_FIELDS {
            let info = small_class(n);
            let bound = stateless_bound(&info, false);
            for ident in 0..50u32 {
                let plan = stateless_plan(&info, EpochKey(99), (ident / 10) as u64, ident % 10);
                plan.validate().expect("derived plan must validate");
                assert!(plan.size() <= bound, "n={n} size {} > bound {bound}", plan.size());
                assert_eq!(plan.dummies().len(), 0);
            }
        }
    }

    /// The field kinds the exactness property builds classes from: every
    /// alignment, and through the odd byte arrays, odd cursor steps
    /// other than 1.
    const BOUND_KINDS: [FieldKind; 7] = [
        FieldKind::I8,
        FieldKind::I16,
        FieldKind::I32,
        FieldKind::I64,
        FieldKind::Ptr,
        FieldKind::Bytes(3),
        FieldKind::Bytes(5),
    ];

    fn class_of(kinds: &[FieldKind]) -> ClassInfo {
        let mut b = ClassDecl::builder("Bound");
        for (i, kind) in kinds.iter().enumerate() {
            b = b.field(format!("f{i}"), *kind);
        }
        ClassInfo::from_decl(b.build())
    }

    /// The `(size, alignment)` of each layout entry: the fields in
    /// declaration order, then `traps` trap slots.
    fn entries(info: &ClassInfo, traps: usize) -> Vec<(u32, u32)> {
        let fields = info.fields().iter().map(|f| (f.kind().size(), f.kind().align()));
        fields.chain(std::iter::repeat_n((TRAP_SLOT_BYTES, TRAP_SLOT_BYTES), traps)).collect()
    }

    /// The size of one memory order laid out as [`DerivedLayout::derive`]
    /// lays out its entries: each at the next multiple of its alignment,
    /// the end rounded up to the largest alignment.
    fn sequential_size(order: impl IntoIterator<Item = (u32, u32)>) -> u32 {
        let (mut cursor, mut max_align) = (0u32, 1u32);
        for (size, align) in order {
            cursor = round_up(cursor, align) + size;
            max_align = max_align.max(align);
        }
        round_up(cursor.max(1), max_align)
    }

    /// The widest sequential layout of `entries` over every distinct
    /// memory order, by enumeration (entries of one shape are
    /// interchangeable, so each shape is tried once per position).
    fn widest_by_enumeration(entries: &[(u32, u32)]) -> u32 {
        fn go(shapes: &mut [((u32, u32), usize)], placed: &mut Vec<(u32, u32)>) -> u32 {
            if placed.len() == placed.capacity() {
                return sequential_size(placed.iter().copied());
            }
            let mut widest = 0;
            for k in 0..shapes.len() {
                if shapes[k].1 == 0 {
                    continue;
                }
                shapes[k].1 -= 1;
                placed.push(shapes[k].0);
                widest = widest.max(go(shapes, placed));
                placed.pop();
                shapes[k].1 += 1;
            }
            widest
        }
        let mut shapes: Vec<((u32, u32), usize)> = Vec::new();
        for &e in entries {
            match shapes.iter_mut().find(|s| s.0 == e) {
                Some(s) => s.1 += 1,
                None => shapes.push((e, 1)),
            }
        }
        go(&mut shapes, &mut Vec::with_capacity(entries.len()))
    }

    /// A memory order (indices into `entries`) whose end cursor is the
    /// largest of any order: a search over the set of entries still to
    /// place and the cursor modulo 8, memoized per entry subset.
    fn widest_order(entries: &[(u32, u32)]) -> Vec<usize> {
        let n = entries.len();
        let mut memo = vec![[u32::MAX; 8]; 1 << n];
        fn pad(r: u32, align: u32) -> u32 {
            (align - r % align) % align
        }
        fn most(e: &[(u32, u32)], memo: &mut [[u32; 8]], left: usize, r: u32) -> u32 {
            if memo[left][r as usize] == u32::MAX {
                memo[left][r as usize] = (0..e.len())
                    .filter(|&i| left & (1 << i) != 0)
                    .map(|i| {
                        let p = pad(r, e[i].1);
                        p + most(e, memo, left & !(1 << i), (r + p + e[i].0) % 8)
                    })
                    .max()
                    .unwrap_or(0);
            }
            memo[left][r as usize]
        }
        let (mut left, mut r, mut order) = ((1usize << n) - 1, 0u32, Vec::new());
        while left != 0 {
            let goal = most(entries, &mut memo, left, r);
            let i = (0..n)
                .filter(|&i| left & (1 << i) != 0)
                .find(|&i| {
                    let p = pad(r, entries[i].1);
                    p + most(entries, &mut memo, left & !(1 << i), (r + p + entries[i].0) % 8)
                        == goal
                })
                .expect("some entry attains the subset's best");
            r = (r + pad(r, entries[i].1) + entries[i].0) % 8;
            left &= !(1 << i);
            order.push(i);
        }
        order
    }

    /// Every class of at most 6 fields over [`BOUND_KINDS`]: the bound
    /// equals the widest layout over every field order, without traps
    /// and over every trap count and placement with them.
    #[test]
    fn stateless_bound_is_the_widest_layout_of_every_small_class() {
        fn classes(n: usize, from: usize, kinds: &mut Vec<FieldKind>, out: &mut Vec<ClassInfo>) {
            out.push(class_of(kinds));
            if kinds.len() == n {
                return;
            }
            for (k, &kind) in BOUND_KINDS.iter().enumerate().skip(from) {
                kinds.push(kind);
                classes(n, k, kinds, out);
                kinds.pop();
            }
        }
        let mut all = Vec::new();
        classes(6, 0, &mut Vec::new(), &mut all);
        assert_eq!(all.len(), 1716, "every multiset of at most 6 kinds");
        for info in &all {
            let plain = widest_by_enumeration(&entries(info, 0));
            assert_eq!(stateless_bound(info, false), plain, "{info:?} without traps");
            let trapped = (1..=STATELESS_TRAP_MAX as usize)
                .map(|t| widest_by_enumeration(&entries(info, t)))
                .max()
                .unwrap();
            assert_eq!(stateless_bound(info, true), trapped, "{info:?} with traps");
        }
    }

    /// Sampled classes of 7 and 8 fields (`POLAR_BOUND_CLASSES` of each,
    /// 24 by default): no derived layout is wider than the bound, and a
    /// constructed widest order, laid out sequentially and as a derived
    /// layout (the code of its field order under a key whose trap
    /// geometry places the traps as it does), is exactly as wide.
    #[test]
    fn stateless_bound_holds_and_is_attained_for_wide_classes() {
        let budget = std::env::var("POLAR_BOUND_CLASSES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(24);
        let mut rng = SplitMix64::new(0xB0_0D);
        for n in [7usize, 8] {
            for _ in 0..budget {
                let kinds: Vec<FieldKind> = (0..n)
                    .map(|_| BOUND_KINDS[(rng.next_u64() % BOUND_KINDS.len() as u64) as usize])
                    .collect();
                let info = class_of(&kinds);
                for traps in [false, true] {
                    let bound = stateless_bound(&info, traps);
                    let canaries = traps.then_some(CanaryKey(0xCA4A));
                    for code in codes_to_check(n, 64, &mut rng) {
                        let key = EpochKey(rng.next_u64());
                        let size = DerivedLayout::derive(&info, key, code, canaries).size();
                        assert!(size <= bound, "{kinds:?} traps={traps}: {size} > {bound}");
                    }
                    let t = if traps { STATELESS_TRAP_MAX as usize } else { 0 };
                    let all = entries(&info, t);
                    let order = widest_order(&all);
                    let widest = sequential_size(order.iter().map(|&i| all[i]));
                    assert_eq!(widest, bound, "{kinds:?} traps={traps}: order {order:?}");
                    let fields: Vec<usize> = order.iter().copied().filter(|&i| i < n).collect();
                    let code = pack_perm(&fields);
                    let attained = (0..1u64 << 16).find(|&k| {
                        DerivedLayout::derive(&info, EpochKey(k), code, canaries).size() == bound
                    });
                    assert!(attained.is_some(), "{kinds:?} traps={traps}: no key attains {bound}");
                }
            }
        }
    }

    /// The exact bounds of the classes the benchmarks and the session
    /// store allocate, and the loose per-entry sum they replaced.
    #[test]
    fn stateless_bound_of_the_benchmark_classes() {
        use FieldKind::{Ptr, VtablePtr, I32, I64};
        let session = class_of(&[VtablePtr, I64, I64, I64, I32, I32, Ptr]);
        assert_eq!(stateless_bound(&session, true), 80, "was 136: a 256 B block");
        assert_eq!(stateless_bound(&session, false), 56);
        let wide8 = class_of(&[VtablePtr, I32, I64, I32, I64, I32, I64, I32]);
        assert_eq!(stateless_bound(&wide8, true), 88);
        assert_eq!(stateless_bound(&class_of(&[]), false), 1);
        assert_eq!(stateless_bound(&class_of(&[]), true), 24);
    }

    #[test]
    fn trapped_plans_validate_fit_and_carry_canaries() {
        for n in 1..=STATELESS_MAX_FIELDS {
            let info = small_class(n);
            let bound = stateless_bound(&info, true);
            for ident in 0..60u32 {
                let (generation, slot) = ((ident / 12) as u64, ident % 12);
                let plan =
                    stateless_trapped_plan(&info, EpochKey(7), generation, slot, CanaryKey(7));
                plan.validate().expect("trapped plan must validate");
                assert!(plan.size() <= bound, "n={n} size {} > bound {bound}", plan.size());
                let t = plan.dummies().len();
                assert!(
                    (1..=STATELESS_TRAP_MAX as usize).contains(&t),
                    "n={n}: {t} traps"
                );
                for d in plan.dummies() {
                    assert_eq!(d.size, TRAP_SLOT_BYTES);
                    assert!(d.canary.expect("virtual traps carry canaries") != 0);
                }
            }
        }
    }

    #[test]
    fn trapped_plans_keep_the_reference_field_order() {
        // Interleaving traps must not disturb the *relative* memory
        // order of the fields, which stays the reference permutation.
        let info = small_class(6);
        let key = EpochKey(0x0DD5);
        for ident in 0..40u32 {
            let (generation, slot) = ((ident / 8) as u64, ident % 8);
            let plain = stateless_plan(&info, key, generation, slot);
            let trapped = stateless_trapped_plan(&info, key, generation, slot, CanaryKey(1));
            let rank = |plan: &LayoutPlan| {
                let mut idx: Vec<usize> = (0..6).collect();
                idx.sort_by_key(|&k| plan.offset(k));
                idx
            };
            assert_eq!(rank(&plain), rank(&trapped), "ident {ident}");
        }
    }

    #[test]
    fn rederivation_is_exact() {
        let info = small_class(7);
        let key = EpochKey(0xC0FFEE);
        let a = stateless_plan(&info, key, 41, 12);
        let b = stateless_plan(&info, key, 41, 12);
        assert_eq!(a, b);
        assert_eq!(a.plan_hash(), b.plan_hash());
        let ta = stateless_trapped_plan(&info, key, 41, 12, CanaryKey(2));
        let tb = stateless_trapped_plan(&info, key, 41, 12, CanaryKey(2));
        assert_eq!(ta, tb);
    }

    #[test]
    fn key_separates_processes() {
        let info = small_class(5);
        let a = stateless_plan(&info, EpochKey(1), 0, 0);
        let mut distinct = 0;
        for k in 2..20u64 {
            if stateless_plan(&info, EpochKey(k), 0, 0).plan_hash() != a.plan_hash() {
                distinct += 1;
            }
        }
        assert!(distinct > 12, "only {distinct} of 18 keys differed");
    }

    #[test]
    fn code_rank_is_a_bijection_onto_the_code_space() {
        // Enumerate every permutation of 1..=5 elements, pack it, and
        // check the Lehmer rank hits each value
        // in [0, n!) exactly once — the property the perfect derived-plan
        // cache index rests on.
        for n in 1..=5usize {
            let mut seen = vec![false; code_space(n)];
            for perm in permutations(n) {
                let rank = code_rank(pack_perm(&perm), n);
                assert!(rank < code_space(n), "rank {rank} out of range for n={n}");
                assert!(!seen[rank], "rank {rank} collides for n={n} perm {perm:?}");
                seen[rank] = true;
            }
            assert!(seen.iter().all(|&s| s), "ranks not surjective for n={n}");
        }
        assert_eq!(code_space(4), 24);
        assert_eq!(code_space(8), 40320);
    }
}
