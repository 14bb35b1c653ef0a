//! A shared, atomically-addressable byte arena.
//!
//! The local arena (`Vec<u8>`) cannot be touched from two threads at
//! once, so a published heap stores its bytes in a [`SharedArena`]
//! instead: a chunked table of `AtomicU64` words. The owning shard
//! writes them under its mutex, lock-free field writers store into the
//! object whose seqlock window they hold (the seqlock in
//! [`record`](crate::record) provides the ordering), and lock-free
//! readers load without any lock at all.
//!
//! Chunks are committed on demand through `OnceLock`, so the arena
//! never reallocates: a word's address is stable for the heap's whole
//! lifetime, which is what makes unsynchronized reader loads sound
//! (there is no `Vec` growth to race with). Byte-granular accesses are
//! decomposed into words. A store to part of a word is one atomic
//! read-modify-write, so two stores to disjoint bytes of one word never
//! lose each other's bytes (a raw write racing a lock-free field store,
//! two fields sharing a word); a whole aligned word is a plain store.
//! Tearing *between* words is resolved by the seqlock one layer up.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Bytes per on-demand committed chunk.
const CHUNK_BYTES: usize = 1 << 20;
const WORDS_PER_CHUNK: usize = CHUNK_BYTES / 8;

/// A growable byte arena over atomic words, shared between the shard
/// that owns the heap (serialized by the shard mutex), lock-free field
/// writers and any number of lock-free readers.
pub(crate) struct SharedArena {
    /// On-demand committed chunks; a chunk, once committed, never moves.
    chunks: Box<[OnceLock<Box<[AtomicU64]>>]>,
    /// Committed byte length (the writer's `arena_len`). Readers never
    /// consult this — they gate on chunk presence plus the seqlock.
    len: AtomicUsize,
}

impl std::fmt::Debug for SharedArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedArena")
            .field("len", &self.len.load(Ordering::Relaxed))
            .field("chunk_slots", &self.chunks.len())
            .finish()
    }
}

impl SharedArena {
    /// An arena able to commit up to `capacity` bytes.
    pub(crate) fn new(capacity: usize) -> Self {
        let chunk_slots = capacity.div_ceil(CHUNK_BYTES).max(1);
        SharedArena {
            chunks: (0..chunk_slots).map(|_| OnceLock::new()).collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Committed byte length.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Commit chunks so that bytes `[0, new_len)` are addressable.
    /// Writer-only; newly committed bytes read as zero.
    pub(crate) fn grow_to(&self, new_len: usize) {
        for chunk in 0..new_len.div_ceil(CHUNK_BYTES) {
            self.chunks[chunk]
                .get_or_init(|| (0..WORDS_PER_CHUNK).map(|_| AtomicU64::new(0)).collect());
        }
        if new_len > self.len.load(Ordering::Relaxed) {
            self.len.store(new_len, Ordering::Release);
        }
    }

    /// The word holding byte `8 * wi`, if its chunk is committed.
    #[inline]
    fn word(&self, wi: usize) -> Option<&AtomicU64> {
        self.chunks.get(wi / WORDS_PER_CHUNK)?.get()?.get(wi % WORDS_PER_CHUNK)
    }

    #[inline]
    fn word_committed(&self, wi: usize) -> &AtomicU64 {
        self.word(wi).expect("access within the committed arena")
    }

    /// Lock-free little-endian integer load of `width` ∈ {1,2,4,8}
    /// bytes at byte offset `start`; `None` when the range touches an
    /// uncommitted chunk. Relaxed — callers order it with the seqlock.
    #[inline]
    pub(crate) fn read_uint(&self, start: usize, width: usize) -> Option<u64> {
        debug_assert!(matches!(width, 1 | 2 | 4 | 8));
        let mask = if width == 8 { u64::MAX } else { (1u64 << (8 * width)) - 1 };
        let shift = (start % 8) * 8;
        let lo = self.word(start / 8)?.load(Ordering::Relaxed);
        if start % 8 + width <= 8 {
            Some((lo >> shift) & mask)
        } else {
            let hi = self.word(start / 8 + 1)?.load(Ordering::Relaxed);
            Some(((lo >> shift) | (hi << (64 - shift))) & mask)
        }
    }

    /// Replace bytes `[off, off + n)` of word `wi` with the same bytes
    /// of `src`: a plain store for a whole word, otherwise one atomic
    /// read-modify-write, so a concurrent store to the word's other
    /// bytes is never lost.
    #[inline]
    fn store_bytes(&self, wi: usize, off: usize, n: usize, src: u64) {
        let word = self.word_committed(wi);
        if n == 8 {
            word.store(src, Ordering::Relaxed);
            return;
        }
        let mask = ((1u64 << (8 * n)) - 1) << (8 * off);
        let merge = |cur: u64| Some((cur & !mask) | (src & mask));
        let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, merge);
    }

    /// Byte store: whole words plainly, partial words by one atomic
    /// read-modify-write each (see [`SharedArena::store_bytes`]).
    pub(crate) fn write(&self, start: usize, bytes: &[u8]) {
        let mut i = 0;
        while i < bytes.len() {
            let pos = start + i;
            let (wi, off) = (pos / 8, pos % 8);
            let n = (8 - off).min(bytes.len() - i);
            let mut src = [0u8; 8];
            src[off..off + n].copy_from_slice(&bytes[i..i + n]);
            self.store_bytes(wi, off, n, u64::from_le_bytes(src));
            i += n;
        }
    }

    /// Lock-free little-endian store of the low `width` ∈ {1,2,4,8}
    /// bytes of `value` at byte offset `start`; `None`, storing
    /// nothing, when the range touches an uncommitted chunk. The caller
    /// holds the covering object's seqlock window.
    #[inline]
    pub(crate) fn write_uint(&self, start: usize, width: usize, value: u64) -> Option<()> {
        debug_assert!(matches!(width, 1 | 2 | 4 | 8));
        self.write_checked(start, &value.to_le_bytes()[..width])
    }

    /// Whether bytes `[start, start + len)` are committed. Chunks commit
    /// in order, so the last word decides.
    #[inline]
    fn committed(&self, start: usize, len: usize) -> bool {
        len == 0 || self.word((start + len - 1) / 8).is_some()
    }

    /// [`SharedArena::write`] for a caller that has not bounds-checked
    /// the range (a lock-free writer): `None`, storing nothing, when
    /// the range touches an uncommitted chunk.
    #[inline]
    pub(crate) fn write_checked(&self, start: usize, bytes: &[u8]) -> Option<()> {
        self.committed(start, bytes.len()).then(|| self.write(start, bytes))
    }

    /// [`SharedArena::read_into`] for a caller that has not
    /// bounds-checked the range (a lock-free reader): `None`, appending
    /// nothing, when the range touches an uncommitted chunk.
    #[inline]
    pub(crate) fn read_checked(&self, start: usize, len: usize, out: &mut Vec<u8>) -> Option<()> {
        self.committed(start, len).then(|| self.read_into(start, len, out))
    }

    /// Writer-side fill, with [`SharedArena::write`]'s per-word stores.
    pub(crate) fn fill(&self, start: usize, len: usize, value: u8) {
        let mut i = 0;
        while i < len {
            let pos = start + i;
            let (wi, off) = (pos / 8, pos % 8);
            let n = (8 - off).min(len - i);
            self.store_bytes(wi, off, n, u64::from_le_bytes([value; 8]));
            i += n;
        }
    }

    /// Append bytes `[start, start + len)` to `out`.
    pub(crate) fn read_into(&self, start: usize, len: usize, out: &mut Vec<u8>) {
        out.reserve(len);
        let mut i = 0;
        while i < len {
            let pos = start + i;
            let (wi, off) = (pos / 8, pos % 8);
            let n = (8 - off).min(len - i);
            let cur = self.word_committed(wi).load(Ordering::Relaxed).to_le_bytes();
            out.extend_from_slice(&cur[off..off + n]);
            i += n;
        }
    }

    /// Writer-side memmove (stages through a buffer, so overlap is
    /// handled like `copy_within`).
    pub(crate) fn copy_within(&self, src: usize, dst: usize, len: usize) {
        let mut staged = Vec::with_capacity(len);
        self.read_into(src, len, &mut staged);
        self.write(dst, &staged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bytes_and_uints_across_word_boundaries() {
        let a = SharedArena::new(1 << 16);
        a.grow_to(256);
        a.write(3, b"hello shared arena");
        let mut out = Vec::new();
        a.read_into(3, 18, &mut out);
        assert_eq!(out, b"hello shared arena");
        // Unaligned width-8 load spanning two words.
        a.write(13, &0xDEAD_BEEF_CAFE_F00Du64.to_le_bytes());
        assert_eq!(a.read_uint(13, 8), Some(0xDEAD_BEEF_CAFE_F00D));
        assert_eq!(a.read_uint(13, 4), Some(0xCAFE_F00D));
        assert_eq!(a.read_uint(13, 1), Some(0x0D));
    }

    #[test]
    fn fill_and_copy_within_handle_partial_words() {
        let a = SharedArena::new(1 << 16);
        a.grow_to(128);
        a.fill(5, 21, 0x5A);
        let mut out = Vec::new();
        a.read_into(4, 23, &mut out);
        assert_eq!(out[0], 0);
        assert!(out[1..22].iter().all(|&b| b == 0x5A));
        assert_eq!(out[22], 0);
        a.write(40, b"abcdefgh");
        a.copy_within(40, 44, 8); // overlapping forward copy
        let mut moved = Vec::new();
        a.read_into(40, 12, &mut moved);
        assert_eq!(moved, b"abcdabcdefgh");
    }

    #[test]
    fn sub_word_stores_from_two_threads_never_lose_bytes() {
        // Two writers own disjoint halves of every word of a small
        // range, one storing 4-byte values, the other single bytes
        // through a fill; a load-merge-store would let one of them roll
        // the other's bytes back.
        let a = SharedArena::new(1 << 16);
        a.grow_to(64);
        const ROUNDS: u64 = 20_000;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for r in 0..ROUNDS {
                    for w in 0..8 {
                        a.write_uint(w * 8, 4, r).unwrap();
                    }
                }
            });
            scope.spawn(|| {
                for r in 0..ROUNDS {
                    for w in 0..8 {
                        a.fill(w * 8 + 4, 4, r as u8);
                    }
                }
            });
        });
        for w in 0..8 {
            assert_eq!(a.read_uint(w * 8, 4), Some(ROUNDS - 1), "word {w}: low half lost");
            let last = (ROUNDS - 1) as u8;
            assert_eq!(a.read_uint(w * 8 + 4, 4), Some(u64::from_le_bytes([last; 8]) >> 32));
        }
    }

    #[test]
    fn write_uint_refuses_uncommitted_ranges() {
        let a = SharedArena::new(4 << 20);
        a.grow_to(CHUNK_BYTES);
        assert_eq!(a.write_uint(CHUNK_BYTES - 8, 8, 7), Some(()));
        assert_eq!(a.read_uint(CHUNK_BYTES - 8, 8), Some(7));
        assert_eq!(a.write_uint(CHUNK_BYTES - 4, 8, 9), None, "straddles into the next chunk");
        assert_eq!(a.read_uint(CHUNK_BYTES - 8, 8), Some(7), "a refused store stores nothing");
    }

    #[test]
    fn checked_byte_access_refuses_uncommitted_ranges() {
        let a = SharedArena::new(4 << 20);
        a.grow_to(CHUNK_BYTES);
        assert_eq!(a.write_checked(CHUNK_BYTES - 5, b"hello"), Some(()));
        let mut out = Vec::new();
        assert_eq!(a.read_checked(CHUNK_BYTES - 5, 5, &mut out), Some(()));
        assert_eq!(out, b"hello");
        assert_eq!(a.write_checked(CHUNK_BYTES - 2, b"xyz"), None, "straddles the next chunk");
        assert_eq!(a.read_checked(CHUNK_BYTES - 2, 3, &mut out), None);
        assert_eq!(out, b"hello", "a refused read appends nothing");
        assert_eq!(a.read_checked(CHUNK_BYTES - 5, 5, &mut Vec::new()), Some(()));
        assert_eq!(a.write_checked(2 * CHUNK_BYTES, b""), Some(()), "an empty range is in range");
    }

    #[test]
    fn uncommitted_reads_are_none_and_growth_is_idempotent() {
        let a = SharedArena::new(4 << 20);
        assert_eq!(a.read_uint(0, 8), None);
        a.grow_to(64);
        a.grow_to(32); // shrink request: no-op
        assert_eq!(a.len(), 64);
        assert_eq!(a.read_uint(0, 8), Some(0));
        // Within the committed chunk but past len: still addressable.
        assert_eq!(a.read_uint(CHUNK_BYTES - 8, 8), Some(0));
        // Next chunk is uncommitted.
        assert_eq!(a.read_uint(CHUNK_BYTES, 8), None);
    }
}
