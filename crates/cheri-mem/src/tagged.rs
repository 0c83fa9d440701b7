//! The tagged flat memory.

use crate::{MemError, MemResult};
use cheri_cap::{
    decode_capability, encode_capability, CapFormat, Capability, CompressedCapability,
    CompressionStats, CAP128_SIZE_BYTES, CAP_ALIGN, CAP_SIZE_BYTES,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Retired backing stores, reused by [`TaggedMemory::with_format`] so a
/// hot loop constructing machines (the fig benches build a fresh 16 MiB
/// memory per run) re-zeroes only the pages the previous run dirtied
/// instead of memsetting the whole store. Only memories of at least
/// [`POOL_MIN_BYTES`] are pooled, bounded by [`POOL_MAX_ENTRIES`] *and*
/// [`POOL_MAX_BYTES`] of total resident capacity (so one giant or many
/// odd-sized memories cannot pin unbounded host memory);
/// [`TaggedMemory::reset`] guarantees a reused store is indistinguishable
/// from a fresh one.
static POOL: Mutex<Vec<TaggedMemory>> = Mutex::new(Vec::new());
const POOL_MIN_BYTES: u64 = 1 << 20;
const POOL_MAX_ENTRIES: usize = 8;
const POOL_MAX_BYTES: u64 = 256 << 20;

/// What [`TaggedMemory::write_cap`] does in [`CapFormat::Cap128`] mode with
/// a capability the low-fat format cannot represent exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum UnrepresentablePolicy {
    /// Store the full 256-bit form in a side table and mark the granule
    /// with an escape pattern — semantics stay identical to
    /// [`CapFormat::Cap256`] at the cost of one side-table entry. This
    /// models an implementation that reserves a small region of full-width
    /// capability storage for the (rare) irregular capabilities.
    #[default]
    SideTable,
    /// Refuse the store of a *tagged* unrepresentable capability with
    /// [`MemError::Unrepresentable`] — the strict-hardware behaviour.
    /// Untagged unrepresentable bit patterns are plain data and still
    /// escape to the side table so their bytes survive.
    Trap,
}

/// Escape pattern marking a Cap128 slot whose real content lives in the
/// side table. The metadata word's top bit is never produced by
/// [`CompressedCapability::compress`] (it uses bits 0..55), so a genuine
/// compressed capability can never collide with the marker.
const CAP128_ESCAPE: [u8; CAP128_SIZE_BYTES] = [
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
];

/// A flat, byte-addressable virtual memory with one out-of-band tag bit per
/// 32-byte granule.
///
/// Invariants maintained:
///
/// * a granule's tag is set **only** by [`TaggedMemory::write_cap`] storing
///   a tagged capability at that granule;
/// * any plain data store overlapping a granule clears its tag;
/// * [`TaggedMemory::memcpy`] preserves a destination granule's tag exactly
///   when the copy is granule-to-granule aligned and the source granule was
///   tagged — the behaviour that lets `memcpy` and unions move capabilities
///   without knowing they are there (paper §4).
#[derive(Clone, Debug)]
pub struct TaggedMemory {
    bytes: Vec<u8>,
    /// The tag bitmap: granule `g`'s tag is bit `g % 64` of word `g / 64`.
    /// Bits past the last granule are always clear.
    tags: Vec<u64>,
    /// One bit per [`DIRTY_CHUNK`]-byte page that has been written since
    /// construction or the last [`TaggedMemory::reset`]. Lets `reset` re-zero
    /// only the touched pages instead of the whole backing store, which is
    /// what makes pooling memories across interpreter runs cheap.
    dirty: Vec<u64>,
    format: CapFormat,
    policy: UnrepresentablePolicy,
    /// Full 256-bit escape storage for Cap128 granules whose capability the
    /// low-fat format cannot represent, keyed by granule base address.
    side: HashMap<u64, [u8; CAP_SIZE_BYTES]>,
    comp_stats: CompressionStats,
}

/// Dirty-tracking granularity: 4 KiB pages (a multiple of [`CAP_ALIGN`],
/// and of the 64 granules one tag word covers). A snapshot, a fork and a
/// pooled reset each cost what the guest touched, rounded to pages.
const DIRTY_CHUNK: u64 = 4 * 1024;

/// The indices of the set bits of a bitmap (bit `i % 64` of word
/// `i / 64`), ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = u64> + '_ {
    (0u64..).zip(words).flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let b = u64::from(bits.trailing_zeros());
            bits &= bits - 1;
            Some(w * 64 + b)
        })
    })
}

/// The pages set in `dirty` as coalesced byte ranges `[start, end)`,
/// ascending; a run reaching the end of memory is clipped to `size`.
fn dirty_runs(dirty: &[u64], size: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
    let mut pages = set_bits(dirty).peekable();
    std::iter::from_fn(move || {
        let first = pages.next()?;
        let mut end = first + 1;
        while pages.next_if_eq(&end).is_some() {
            end += 1;
        }
        Some((first * DIRTY_CHUNK, (end * DIRTY_CHUNK).min(size)))
    })
}

/// The tag-bitmap words covering the byte range `[start, end)`, where
/// `start` is page-aligned (so the range begins on a word boundary).
fn tag_words(start: u64, end: u64) -> std::ops::Range<usize> {
    (start / CAP_ALIGN / 64) as usize..end.div_ceil(CAP_ALIGN).div_ceil(64) as usize
}

/// The low `n <= 64` bits set.
fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1 << n) - 1
    }
}

impl TaggedMemory {
    /// Creates a zeroed memory of `size` bytes (rounded up to a whole number
    /// of 32-byte granules), all tags clear, storing full 256-bit
    /// capabilities.
    pub fn new(size: u64) -> TaggedMemory {
        TaggedMemory::with_format(size, CapFormat::Cap256, UnrepresentablePolicy::SideTable)
    }

    /// Creates a zeroed memory whose capability stores use `format`.
    ///
    /// In [`CapFormat::Cap128`] mode every [`TaggedMemory::write_cap`]
    /// compresses the capability to the low-fat 16-byte form; `policy`
    /// decides what happens to the capabilities that format cannot
    /// represent. `policy` is irrelevant in [`CapFormat::Cap256`] mode.
    pub fn with_format(
        size: u64,
        format: CapFormat,
        policy: UnrepresentablePolicy,
    ) -> TaggedMemory {
        let granules = size.div_ceil(CAP_ALIGN);
        let size = granules * CAP_ALIGN;
        if size >= POOL_MIN_BYTES {
            let reused = {
                let mut pool = POOL.lock().expect("memory pool poisoned");
                pool.iter()
                    .position(|m| m.size() == size)
                    .map(|i| pool.swap_remove(i))
            };
            if let Some(mut m) = reused {
                m.reset();
                m.format = format;
                m.policy = policy;
                return m;
            }
        }
        let pages = size.div_ceil(DIRTY_CHUNK);
        TaggedMemory {
            bytes: vec![0; size as usize],
            tags: vec![0; granules.div_ceil(64) as usize],
            dirty: vec![0; pages.div_ceil(64) as usize],
            format,
            policy,
            side: HashMap::new(),
            comp_stats: CompressionStats::default(),
        }
    }

    /// The capability storage format this memory was built with.
    pub fn format(&self) -> CapFormat {
        self.format
    }

    /// Compression statistics accumulated by Cap128 capability stores:
    /// attempts count tagged capabilities offered to the compressor,
    /// successes those that fit the 128-bit format exactly. Always zero in
    /// [`CapFormat::Cap256`] mode.
    pub fn compression_stats(&self) -> CompressionStats {
        self.comp_stats
    }

    /// Live escape-table entries (Cap128 granules storing their full
    /// 256-bit form out of line).
    pub fn side_table_len(&self) -> usize {
        self.side.len()
    }

    /// Bytes of capability storage currently in use: one slot of
    /// [`CapFormat::stored_bytes`] per tagged granule, plus the full-width
    /// side-table entries. This is the number behind the paper's
    /// memory-footprint claim for 128-bit capabilities.
    pub fn cap_footprint_bytes(&self) -> u64 {
        let tagged: u64 = self.tags.iter().map(|w| u64::from(w.count_ones())).sum();
        tagged * self.format.stored_bytes() + self.side.len() as u64 * CAP_SIZE_BYTES as u64
    }

    /// Marks `[addr, addr+len)` dirty. Callers have already bounds-checked.
    fn mark_dirty(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr / DIRTY_CHUNK;
        let last = (addr + len - 1) / DIRTY_CHUNK;
        for p in first..=last {
            self.dirty[(p / 64) as usize] |= 1 << (p % 64);
        }
    }

    /// Marks the page containing `addr` dirty: the whole of
    /// [`TaggedMemory::mark_dirty`] for a write inside one granule.
    #[inline]
    fn mark_page_dirty(&mut self, addr: u64) {
        let p = addr / DIRTY_CHUNK;
        self.dirty[(p / 64) as usize] |= 1 << (p % 64);
    }

    /// Granule `g`'s tag.
    #[inline]
    fn tag(&self, g: usize) -> bool {
        (self.tags[g / 64] >> (g % 64)) & 1 != 0
    }

    /// Sets granule `g`'s tag to `tag`.
    #[inline]
    fn set_tag(&mut self, g: usize, tag: bool) {
        let bit = 1u64 << (g % 64);
        if tag {
            self.tags[g / 64] |= bit;
        } else {
            self.tags[g / 64] &= !bit;
        }
    }

    /// Clears the tags of granules `[g0, g1)`, a word at a time.
    fn clear_tag_range(&mut self, g0: usize, g1: usize) {
        if g0 >= g1 {
            return;
        }
        let (w0, w1) = (g0 / 64, (g1 - 1) / 64);
        // Bits at or above g0 in its word, and at or below g1 - 1 in its.
        let from = !0u64 << (g0 % 64);
        let upto = !0u64 >> (63 - (g1 - 1) % 64);
        if w0 == w1 {
            self.tags[w0] &= !(from & upto);
        } else {
            self.tags[w0] &= !from;
            self.tags[w0 + 1..w1].fill(0);
            self.tags[w1] &= !upto;
        }
    }

    /// The `n <= 64` tags of granules `[g, g + n)`, granule `g` in bit 0.
    fn tag_bits(&self, g: usize, n: usize) -> u64 {
        let (w, b) = (g / 64, g % 64);
        let mut bits = self.tags[w] >> b;
        if b != 0 && b + n > 64 {
            bits |= self.tags[w + 1] << (64 - b);
        }
        bits & low_mask(n)
    }

    /// Overwrites the `n <= 64` tags of granules `[g, g + n)` with the low
    /// `n` bits of `bits`.
    fn set_tag_bits(&mut self, g: usize, n: usize, bits: u64) {
        let mask = low_mask(n);
        let bits = bits & mask;
        let (w, b) = (g / 64, g % 64);
        self.tags[w] = (self.tags[w] & !(mask << b)) | (bits << b);
        if b != 0 && b + n > 64 {
            let high = mask >> (64 - b);
            self.tags[w + 1] = (self.tags[w + 1] & !high) | (bits >> (64 - b));
        }
    }

    /// Copies the tags of granules `[src, src + n)` onto `[dst, dst + n)`
    /// with `memmove` semantics, up to 64 granules per step.
    fn move_tags(&mut self, src: usize, dst: usize, n: usize) {
        if dst < src {
            let mut i = 0;
            while i < n {
                let k = (n - i).min(64);
                let bits = self.tag_bits(src + i, k);
                self.set_tag_bits(dst + i, k, bits);
                i += k;
            }
        } else if dst > src {
            let mut i = n;
            while i > 0 {
                let k = i.min(64);
                i -= k;
                let bits = self.tag_bits(src + i, k);
                self.set_tag_bits(dst + i, k, bits);
            }
        }
    }

    /// Restores the memory to its freshly-constructed state — all bytes
    /// zero, all tags clear — touching only the pages dirtied since the
    /// last reset. Cost is proportional to the footprint actually written,
    /// not to the memory's size.
    pub fn reset(&mut self) {
        self.side.clear();
        self.comp_stats = CompressionStats::default();
        let mut dirty = std::mem::take(&mut self.dirty);
        for (start, end) in dirty_runs(&dirty, self.size()) {
            self.bytes[start as usize..end as usize].fill(0);
            self.tags[tag_words(start, end)].fill(0);
        }
        dirty.fill(0);
        self.dirty = dirty;
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    #[inline]
    fn check(&self, addr: u64, len: u64) -> MemResult<usize> {
        if addr.checked_add(len).is_none_or(|end| end > self.size()) {
            return Err(MemError::OutOfRange { addr, len });
        }
        Ok(addr as usize)
    }

    /// Clears the tag of every granule `[addr, addr+len)` touches. Callers
    /// have already bounds-checked.
    fn clear_tags_over(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = (addr / CAP_ALIGN) as usize;
        let last = ((addr + len - 1) / CAP_ALIGN) as usize;
        self.clear_tag_range(first, last + 1);
    }

    /// Forgets the side-table entries of every granule `[addr, addr+len)`
    /// touches — a plain data write has scribbled over the escape slot, so
    /// the out-of-line full-width copy no longer describes the bytes.
    fn drop_side_over(&mut self, addr: u64, len: u64) {
        if self.side.is_empty() || len == 0 {
            return;
        }
        let first = addr / CAP_ALIGN * CAP_ALIGN;
        let last = (addr + len - 1) / CAP_ALIGN * CAP_ALIGN;
        // Walk whichever is smaller: the written range or the (typically
        // tiny) side table — a heap-sized memset must not do a HashMap
        // probe per granule.
        if ((last - first) / CAP_ALIGN + 1) as usize <= self.side.len() {
            let mut g = first;
            while g <= last {
                self.side.remove(&g);
                g += CAP_ALIGN;
            }
        } else {
            self.side.retain(|&g, _| g < first || g > last);
        }
    }

    /// The bookkeeping of a plain data write over `[addr, addr+len)`:
    /// clears the tags, drops the side-table entries and marks the pages
    /// dirty. Callers have already bounds-checked. Out of line: the scalar
    /// stores take it only to cross a granule or when the side table is in
    /// use.
    #[cold]
    fn scrub(&mut self, addr: u64, len: u64) {
        self.clear_tags_over(addr, len);
        self.drop_side_over(addr, len);
        self.mark_dirty(addr, len);
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range leaves the backing store.
    #[inline]
    pub fn read_bytes(&self, addr: u64, len: u64) -> MemResult<&[u8]> {
        let a = self.check(addr, len)?;
        Ok(&self.bytes[a..a + len as usize])
    }

    /// Writes `data` at `addr`, clearing the tags of every granule touched.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range leaves the backing store.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> MemResult<()> {
        let a = self.check(addr, data.len() as u64)?;
        self.bytes[a..a + data.len()].copy_from_slice(data);
        self.scrub(addr, data.len() as u64);
        Ok(())
    }

    /// Reads the `N` bytes at `addr`: the one fixed-width scalar load,
    /// under every `read_u*` wrapper and the VM's loads. One bounds check.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range leaves the backing store.
    #[inline]
    pub fn read<const N: usize>(&self, addr: u64) -> MemResult<[u8; N]> {
        usize::try_from(addr)
            .ok()
            .and_then(|a| self.bytes.get(a..)?.first_chunk())
            .copied()
            .ok_or(MemError::OutOfRange {
                addr,
                len: N as u64,
            })
    }

    /// Writes `data` at `addr`, clearing the tag of every granule touched:
    /// the one fixed-width scalar store, under every `write_u*` wrapper and
    /// the VM's stores. A store inside one granule (every aligned one)
    /// clears one tag bit and sets one dirty bit, since a granule never
    /// straddles a dirty page; one across granules, or any while the
    /// Cap128 side table holds an entry, takes the general path.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the range leaves the backing store.
    #[inline]
    pub fn write_scalar<const N: usize>(&mut self, addr: u64, data: [u8; N]) -> MemResult<()> {
        let Some(dst) = usize::try_from(addr)
            .ok()
            .and_then(|a| self.bytes.get_mut(a..)?.first_chunk_mut())
        else {
            return Err(MemError::OutOfRange {
                addr,
                len: N as u64,
            });
        };
        *dst = data;
        let g = addr / CAP_ALIGN;
        if (addr + N as u64 - 1) / CAP_ALIGN != g || !self.side.is_empty() {
            self.scrub(addr, N as u64);
        } else {
            self.set_tag(g as usize, false);
            self.mark_page_dirty(addr);
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn read_u8(&self, addr: u64) -> MemResult<u8> {
        self.read(addr).map(u8::from_le_bytes)
    }

    /// Reads a little-endian 16-bit value.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn read_u16(&self, addr: u64) -> MemResult<u16> {
        self.read(addr).map(u16::from_le_bytes)
    }

    /// Reads a little-endian 32-bit value.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn read_u32(&self, addr: u64) -> MemResult<u32> {
        self.read(addr).map(u32::from_le_bytes)
    }

    /// Reads a little-endian 64-bit value.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn read_u64(&self, addr: u64) -> MemResult<u64> {
        self.read(addr).map(u64::from_le_bytes)
    }

    /// Writes one byte (clears the granule's tag).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn write_u8(&mut self, addr: u64, v: u8) -> MemResult<()> {
        self.write_scalar(addr, v.to_le_bytes())
    }

    /// Writes a little-endian 16-bit value (clears overlapping tags).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn write_u16(&mut self, addr: u64, v: u16) -> MemResult<()> {
        self.write_scalar(addr, v.to_le_bytes())
    }

    /// Writes a little-endian 32-bit value (clears overlapping tags).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn write_u32(&mut self, addr: u64, v: u32) -> MemResult<()> {
        self.write_scalar(addr, v.to_le_bytes())
    }

    /// Writes a little-endian 64-bit value (clears overlapping tags).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) -> MemResult<()> {
        self.write_scalar(addr, v.to_le_bytes())
    }

    /// Reads a little-endian value of `width` ∈ {1, 2, 4, 8} bytes,
    /// zero-extended.
    ///
    /// # Errors
    ///
    /// [`MemError::UnsupportedWidth`] for any other width, else
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn read_uint(&self, addr: u64, width: u8) -> MemResult<u64> {
        match width {
            1 => self.read_u8(addr).map(u64::from),
            2 => self.read_u16(addr).map(u64::from),
            4 => self.read_u32(addr).map(u64::from),
            8 => self.read_u64(addr),
            _ => Err(MemError::UnsupportedWidth { width }),
        }
    }

    /// Writes the low `width` ∈ {1, 2, 4, 8} bytes of `v`, little-endian.
    ///
    /// # Errors
    ///
    /// [`MemError::UnsupportedWidth`] for any other width, else
    /// [`MemError::OutOfRange`].
    #[inline]
    pub fn write_uint(&mut self, addr: u64, v: u64, width: u8) -> MemResult<()> {
        match width {
            1 => self.write_u8(addr, v as u8),
            2 => self.write_u16(addr, v as u16),
            4 => self.write_u32(addr, v as u32),
            8 => self.write_u64(addr, v),
            _ => Err(MemError::UnsupportedWidth { width }),
        }
    }

    /// `CLC`: loads the capability stored at `addr` (32-byte aligned),
    /// together with its tag.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::OutOfRange`].
    #[inline]
    pub fn read_cap(&self, addr: u64) -> MemResult<Capability> {
        if addr % CAP_ALIGN != 0 {
            return Err(MemError::Misaligned { addr });
        }
        let a = self.check(addr, CAP_SIZE_BYTES as u64)?;
        let tag = self.tag(a / CAP_ALIGN as usize);
        match self.format {
            CapFormat::Cap256 => {
                let slot: &[u8; CAP_SIZE_BYTES] = self.bytes[a..a + CAP_SIZE_BYTES]
                    .try_into()
                    .expect("granule-sized slot");
                Ok(decode_capability(slot, tag))
            }
            CapFormat::Cap128 => {
                let slot: &[u8; CAP128_SIZE_BYTES] = self.bytes[a..a + CAP128_SIZE_BYTES]
                    .try_into()
                    .expect("half-granule slot");
                if *slot == CAP128_ESCAPE {
                    if let Some(full) = self.side.get(&addr) {
                        return Ok(decode_capability(full, tag));
                    }
                    // Plain data that happens to spell the escape pattern:
                    // fall through and decode it as a (necessarily
                    // untagged) compressed slot.
                }
                Ok(CompressedCapability::from_bytes(slot).decompress_with_tag(tag))
            }
        }
    }

    /// `CSC`: stores `cap` at `addr` (32-byte aligned), setting the
    /// granule's tag to the capability's tag.
    ///
    /// This is the **only** operation that can set a tag bit.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::OutOfRange`].
    #[inline]
    pub fn write_cap(&mut self, addr: u64, cap: &Capability) -> MemResult<()> {
        if addr % CAP_ALIGN != 0 {
            return Err(MemError::Misaligned { addr });
        }
        let a = self.check(addr, CAP_SIZE_BYTES as u64)?;
        match self.format {
            CapFormat::Cap256 => {
                self.bytes[a..a + CAP_SIZE_BYTES].copy_from_slice(&encode_capability(cap));
            }
            CapFormat::Cap128 => {
                let z = if cap.tag() {
                    self.comp_stats.try_compress(cap)
                } else {
                    CompressedCapability::compress(cap)
                };
                let slot = match z {
                    Some(z) => {
                        // Retire an escape entry the granule held, without
                        // hashing the key when the table is empty.
                        if !self.side.is_empty() {
                            self.side.remove(&addr);
                        }
                        z.to_bytes()
                    }
                    None if cap.tag() && self.policy == UnrepresentablePolicy::Trap => {
                        return Err(MemError::Unrepresentable { addr });
                    }
                    None => {
                        self.side.insert(addr, encode_capability(cap));
                        CAP128_ESCAPE
                    }
                };
                self.bytes[a..a + CAP128_SIZE_BYTES].copy_from_slice(&slot);
                // The rest of the reserved granule is architectural zero —
                // the 128-bit store only moves half the bytes.
                self.bytes[a + CAP128_SIZE_BYTES..a + CAP_SIZE_BYTES].fill(0);
            }
        }
        self.set_tag(a / CAP_ALIGN as usize, cap.tag());
        self.mark_page_dirty(addr);
        Ok(())
    }

    /// The tag of the granule containing `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    pub fn tag_at(&self, addr: u64) -> MemResult<bool> {
        self.check(addr, 1)?;
        Ok(self.tag((addr / CAP_ALIGN) as usize))
    }

    /// Clears the tag of the granule containing `addr` (e.g. the collector
    /// invalidating a stale capability).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    pub fn clear_tag_at(&mut self, addr: u64) -> MemResult<()> {
        self.check(addr, 1)?;
        self.set_tag((addr / CAP_ALIGN) as usize, false);
        Ok(())
    }

    /// Iterates over the addresses of all tagged granules — the precise
    /// root/heap scan the tag-accurate garbage collector performs.
    pub fn tagged_granules(&self) -> impl Iterator<Item = u64> + '_ {
        set_bits(&self.tags).map(|g| g * CAP_ALIGN)
    }

    /// The byte ranges `[start, end)` written since construction or the
    /// last [`TaggedMemory::reset`]: coalesced runs of whole pages,
    /// ascending, the footprint a [`TaggedMemory::snapshot`] copies. A
    /// memory built by [`TaggedMemory::new`] is zero outside them.
    pub fn dirty_ranges(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        dirty_runs(&self.dirty, self.size())
    }

    /// A capability-oblivious copy, as the hardware performs it: bytes are
    /// copied, and a destination granule receives the source granule's tag
    /// exactly when both are whole, mutually aligned granules within the
    /// copy; every other touched destination granule has its tag cleared.
    ///
    /// This is what lets `memcpy` move structures containing pointers
    /// without being aware of them — and what guarantees that a *misaligned*
    /// copy of a capability yields untagged (harmless) bytes.
    ///
    /// Overlapping ranges behave like `memmove`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if either range leaves the backing store.
    pub fn memcpy(&mut self, dst: u64, src: u64, len: u64) -> MemResult<()> {
        let s = self.check(src, len)?;
        let d = self.check(dst, len)?;
        if len == 0 {
            return Ok(());
        }
        // The whole source granules `[first, first + whole * 32)` land on
        // whole destination granules only when both ends share alignment.
        let first = src.next_multiple_of(CAP_ALIGN);
        let whole = if dst % CAP_ALIGN == src % CAP_ALIGN {
            (src + len).saturating_sub(first) / CAP_ALIGN
        } else {
            0
        };
        let moved_to = first - src + dst;
        // (Cap128) An escape slot is only meaningful together with its
        // out-of-line bytes, so the side-table entries of whole granules
        // travel with their tags. The table is almost always empty.
        let side_moves: Vec<(u64, [u8; CAP_SIZE_BYTES])> = if whole == 0 {
            Vec::new()
        } else {
            let end = first + whole * CAP_ALIGN;
            self.side
                .iter()
                .filter(|(&g, _)| g >= first && g < end)
                .map(|(&g, full)| (g - first + moved_to, *full))
                .collect()
        };
        self.bytes.copy_within(s..s + len as usize, d);
        // Whole granules carry their source tags (moved before the edges
        // are cleared, since the ranges may overlap); every other touched
        // destination granule loses its tag.
        let (d_first, d_end) = (
            d / CAP_ALIGN as usize,
            (d + len as usize - 1) / CAP_ALIGN as usize + 1,
        );
        let (m0, n) = ((moved_to / CAP_ALIGN) as usize, whole as usize);
        if n == 0 {
            self.clear_tag_range(d_first, d_end);
        } else {
            self.move_tags((first / CAP_ALIGN) as usize, m0, n);
            self.clear_tag_range(d_first, m0);
            self.clear_tag_range(m0 + n, d_end);
        }
        self.drop_side_over(dst, len);
        self.side.extend(side_moves);
        self.mark_dirty(dst, len);
        Ok(())
    }

    /// Fills `[addr, addr+len)` with `value`, clearing tags (like `memset`).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`].
    pub fn fill(&mut self, addr: u64, len: u64, value: u8) -> MemResult<()> {
        let a = self.check(addr, len)?;
        self.bytes[a..a + len as usize].fill(value);
        self.scrub(addr, len);
        Ok(())
    }

    /// Captures the warm footprint of this memory — every page dirtied
    /// since construction (or the last [`TaggedMemory::reset`]) with its
    /// bytes and tags, coalesced into runs of adjacent pages, plus the
    /// Cap128 side table and compression counters — as a shareable
    /// [`MemSnapshot`].
    ///
    /// The snapshot relies on the dirty bitmap being a complete record of
    /// mutation: a clean page is all-zero with clear tags. That invariant
    /// holds for every `TaggedMemory` built through the public API —
    /// construction yields a zeroed store (pooled stores are reset) and
    /// every mutating operation marks the pages it touches.
    pub fn snapshot(&self) -> MemSnapshot {
        let warm = dirty_runs(&self.dirty, self.size())
            .map(|(start, end)| WarmRun {
                start,
                bytes: self.bytes[start as usize..end as usize].to_vec(),
                tags: self.tags[tag_words(start, end)].to_vec(),
            })
            .collect();
        MemSnapshot {
            inner: Arc::new(SnapInner {
                size: self.size(),
                format: self.format,
                policy: self.policy,
                dirty: self.dirty.clone(),
                warm,
                side: self.side.clone(),
                comp_stats: self.comp_stats,
            }),
        }
    }
}

/// One run of adjacent dirty pages captured by [`TaggedMemory::snapshot`]:
/// its byte image and the tag-bitmap words of the granules it covers. Only
/// a run that reaches the end of memory may end off a page boundary.
#[derive(Debug)]
struct WarmRun {
    start: u64,
    bytes: Vec<u8>,
    tags: Vec<u64>,
}

#[derive(Debug)]
struct SnapInner {
    size: u64,
    format: CapFormat,
    policy: UnrepresentablePolicy,
    dirty: Vec<u64>,
    warm: Vec<WarmRun>,
    side: HashMap<u64, [u8; CAP_SIZE_BYTES]>,
    comp_stats: CompressionStats,
}

/// An immutable, cheaply shareable image of a [`TaggedMemory`]'s warm
/// footprint, used to fork a warmed-up machine per request instead of
/// re-initializing (and re-executing into) a fresh one.
///
/// Copy-on-write is applied at fork time and at dirty-page granularity:
/// [`MemSnapshot::fork`] obtains a zeroed backing store from the memory
/// pool (whose `reset` already re-zeroes only previously-dirty pages) and
/// copies in *only* the page runs the snapshot recorded as warm. Cost is
/// proportional to the guest's actual footprint, not the memory size, and
/// the forked memory shares no mutable state with the snapshot — so the
/// hot read path (`read_bytes` returning borrowed slices) stays exactly as
/// it is, with no per-access indirection to a base image.
///
/// Cloning a `MemSnapshot` clones an [`Arc`]; snapshots can be shared
/// freely across worker threads.
#[derive(Clone, Debug)]
pub struct MemSnapshot {
    inner: Arc<SnapInner>,
}

impl MemSnapshot {
    /// Materializes a new [`TaggedMemory`] identical (bytes, tags, side
    /// table, compression counters, dirty bitmap) to the memory the
    /// snapshot was taken from.
    pub fn fork(&self) -> TaggedMemory {
        let s = &*self.inner;
        let mut m = TaggedMemory::with_format(s.size, s.format, s.policy);
        for run in &s.warm {
            let a = run.start as usize;
            m.bytes[a..a + run.bytes.len()].copy_from_slice(&run.bytes);
            let w0 = (run.start / CAP_ALIGN / 64) as usize;
            m.tags[w0..w0 + run.tags.len()].copy_from_slice(&run.tags);
        }
        m.dirty.copy_from_slice(&s.dirty);
        m.side = s.side.clone();
        m.comp_stats = s.comp_stats;
        m
    }

    /// Total size of the memory the snapshot describes, in bytes.
    pub fn size(&self) -> u64 {
        self.inner.size
    }

    /// Bytes of warm (captured) page data — the amount [`MemSnapshot::fork`]
    /// actually copies.
    pub fn warm_bytes(&self) -> u64 {
        self.inner.warm.iter().map(|r| r.bytes.len() as u64).sum()
    }
}

impl Drop for TaggedMemory {
    /// Retires a large backing store into the reuse pool (dirty bits kept,
    /// so the next [`TaggedMemory::with_format`] of the same size pays
    /// only a dirty-page re-zero).
    fn drop(&mut self) {
        if self.size() < POOL_MIN_BYTES {
            return;
        }
        let Ok(mut pool) = POOL.lock() else { return };
        let resident: u64 = pool.iter().map(TaggedMemory::size).sum();
        if pool.len() >= POOL_MAX_ENTRIES || resident + self.size() > POOL_MAX_BYTES {
            return;
        }
        let retired = TaggedMemory {
            bytes: std::mem::take(&mut self.bytes),
            tags: std::mem::take(&mut self.tags),
            dirty: std::mem::take(&mut self.dirty),
            format: self.format,
            policy: self.policy,
            side: std::mem::take(&mut self.side),
            comp_stats: self.comp_stats,
        };
        pool.push(retired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::Perms;
    use proptest::prelude::*;

    fn mem() -> TaggedMemory {
        TaggedMemory::new(0x1000)
    }

    fn a_cap() -> Capability {
        Capability::new_mem(0x100, 0x40, Perms::data())
    }

    #[test]
    fn size_rounds_to_granules() {
        assert_eq!(TaggedMemory::new(33).size(), 64);
        assert_eq!(TaggedMemory::new(0).size(), 0);
    }

    #[test]
    fn scalar_round_trips() {
        let mut m = mem();
        m.write_u8(1, 0xAB).unwrap();
        m.write_u16(2, 0xBEEF).unwrap();
        m.write_u32(4, 0xDEADBEEF).unwrap();
        m.write_u64(8, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(m.read_u8(1).unwrap(), 0xAB);
        assert_eq!(m.read_u16(2).unwrap(), 0xBEEF);
        assert_eq!(m.read_u32(4).unwrap(), 0xDEADBEEF);
        assert_eq!(m.read_u64(8).unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn widths_dispatch() {
        let mut m = mem();
        for w in [1u8, 2, 4, 8] {
            m.write_uint(64, 0x1122_3344_5566_7788, w).unwrap();
            let v = m.read_uint(64, w).unwrap();
            let mask = if w == 8 {
                u64::MAX
            } else {
                (1u64 << (w * 8)) - 1
            };
            assert_eq!(v, 0x1122_3344_5566_7788 & mask);
        }
    }

    #[test]
    fn out_of_range_is_reported() {
        let m = mem();
        assert!(matches!(
            m.read_u64(0xFFF + 1),
            Err(MemError::OutOfRange { .. })
        ));
        assert!(matches!(
            m.read_u64(u64::MAX - 3),
            Err(MemError::OutOfRange { .. })
        ));
    }

    #[test]
    fn cap_round_trip_preserves_tag() {
        let mut m = mem();
        let c = a_cap();
        m.write_cap(0x40, &c).unwrap();
        assert_eq!(m.read_cap(0x40).unwrap(), c);
        assert!(m.tag_at(0x45).unwrap());
    }

    #[test]
    fn cap_access_requires_alignment() {
        let mut m = mem();
        assert!(matches!(m.read_cap(0x41), Err(MemError::Misaligned { .. })));
        assert!(matches!(
            m.write_cap(0x08, &a_cap()),
            Err(MemError::Misaligned { .. })
        ));
    }

    #[test]
    fn plain_store_clears_tag() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.write_u8(0x50, 0).unwrap(); // anywhere in the granule
        let c = m.read_cap(0x40).unwrap();
        assert!(!c.tag());
        // The data bytes are otherwise intact except the one written.
        assert_eq!(c.base(), a_cap().base());
    }

    #[test]
    fn reset_is_equivalent_to_fresh() {
        // Dirty several distinct pages through every mutation path, then
        // reset and compare against a freshly constructed memory.
        let size = 8 * DIRTY_CHUNK;
        let mut m = TaggedMemory::new(size);
        m.write_u64(8, 0xDEAD_BEEF).unwrap();
        m.write_bytes(DIRTY_CHUNK + 3, b"hello").unwrap();
        m.write_cap(2 * DIRTY_CHUNK, &a_cap()).unwrap();
        m.fill(5 * DIRTY_CHUNK - 16, 64, 0xAA).unwrap(); // straddles pages
        m.memcpy(7 * DIRTY_CHUNK, 0, 128).unwrap();
        m.reset();
        let fresh = TaggedMemory::new(size);
        assert_eq!(
            m.read_bytes(0, size).unwrap(),
            fresh.read_bytes(0, size).unwrap()
        );
        assert_eq!(m.tagged_granules().count(), 0);
        assert!(m.dirty.iter().all(|&w| w == 0));
        // The memory is fully reusable afterwards.
        m.write_cap(2 * DIRTY_CHUNK, &a_cap()).unwrap();
        assert!(m.read_cap(2 * DIRTY_CHUNK).unwrap().tag());
    }

    #[test]
    fn straddling_write_dirties_both_pages_and_runs_coalesce() {
        let mut m = TaggedMemory::new(16 * DIRTY_CHUNK);
        // An unaligned scalar store across the boundary of pages 2 and 3.
        m.write_u64(3 * DIRTY_CHUNK - 4, u64::MAX).unwrap();
        assert_eq!(m.snapshot().warm_bytes(), 2 * DIRTY_CHUNK);
        // One capability store in page 9 and a byte in page 4: two more
        // pages, and the snapshot holds runs {2, 3, 4} and {9}.
        m.write_cap(9 * DIRTY_CHUNK + 0x40, &a_cap()).unwrap();
        m.write_u8(4 * DIRTY_CHUNK, 1).unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.warm_bytes(), 4 * DIRTY_CHUNK);
        let runs: Vec<(u64, u64)> = snap
            .inner
            .warm
            .iter()
            .map(|r| (r.start, r.bytes.len() as u64))
            .collect();
        assert_eq!(
            runs,
            vec![
                (2 * DIRTY_CHUNK, 3 * DIRTY_CHUNK),
                (9 * DIRTY_CHUNK, DIRTY_CHUNK)
            ]
        );
        assert_eq!(
            m.dirty_ranges().collect::<Vec<_>>(),
            [
                (2 * DIRTY_CHUNK, 5 * DIRTY_CHUNK),
                (9 * DIRTY_CHUNK, 10 * DIRTY_CHUNK)
            ]
        );
        assert_mem_identical(&m, &snap.fork());
    }

    #[test]
    fn dirty_runs_clip_to_a_short_last_page() {
        // A memory that ends mid-page: its last run stops at the end.
        let size = 3 * DIRTY_CHUNK + 96;
        let mut m = TaggedMemory::new(size);
        m.write_cap(size - CAP_ALIGN, &a_cap()).unwrap();
        m.write_u8(2 * DIRTY_CHUNK, 7).unwrap();
        let snap = m.snapshot();
        assert_eq!(snap.warm_bytes(), DIRTY_CHUNK + 96);
        assert_mem_identical(&m, &snap.fork());
        m.reset();
        assert_eq!(
            m.read_bytes(0, size).unwrap(),
            TaggedMemory::new(size).read_bytes(0, size).unwrap()
        );
        assert_eq!(m.tagged_granules().count(), 0);
    }

    #[test]
    fn pooled_backing_store_comes_back_fresh() {
        // Large memories are recycled through the drop pool; a reused
        // store must be indistinguishable from a freshly zeroed one.
        let size = 2 * POOL_MIN_BYTES;
        let mut m = TaggedMemory::new(size);
        m.write_bytes(0x100, b"leftovers").unwrap();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.fill(size - 64, 64, 0xEE).unwrap();
        drop(m);
        let m = TaggedMemory::new(size);
        assert_eq!(m.read_bytes(0x100, 16).unwrap(), &[0u8; 16]);
        assert_eq!(m.read_u8(size - 1).unwrap(), 0);
        assert_eq!(m.tagged_granules().count(), 0);
        assert_eq!(m.side_table_len(), 0);
        assert_eq!(m.compression_stats(), CompressionStats::default());
    }

    #[test]
    fn straddling_store_clears_both_tags() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.write_cap(0x60, &a_cap()).unwrap();
        m.write_u64(0x5C, 0).unwrap(); // straddles granules 2 and 3
        assert!(!m.tag_at(0x40).unwrap());
        assert!(!m.tag_at(0x60).unwrap());
    }

    #[test]
    fn storing_untagged_cap_clears_tag() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.write_cap(0x40, &a_cap().clear_tag()).unwrap();
        assert!(!m.tag_at(0x40).unwrap());
    }

    #[test]
    fn aligned_memcpy_preserves_tags() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.write_u64(0x60, 77).unwrap();
        m.memcpy(0x80, 0x40, 64).unwrap();
        assert_eq!(m.read_cap(0x80).unwrap(), a_cap());
        assert_eq!(m.read_u64(0xA0).unwrap(), 77);
        assert!(!m.tag_at(0xA0).unwrap());
    }

    #[test]
    fn misaligned_memcpy_strips_tags_but_copies_bytes() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.memcpy(0x81, 0x40, 32).unwrap();
        assert!(!m.tag_at(0x81).unwrap());
        assert_eq!(
            m.read_bytes(0x81, 32).unwrap(),
            encode_capability(&a_cap()).as_slice()
        );
    }

    #[test]
    fn partial_granule_copy_strips_tag() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        // Same alignment, but only half the granule is copied.
        m.memcpy(0xC0, 0x40, 16).unwrap();
        assert!(!m.tag_at(0xC0).unwrap());
    }

    #[test]
    fn overlapping_memcpy_is_memmove() {
        let mut m = mem();
        for i in 0..64 {
            m.write_u8(0x100 + i, i as u8).unwrap();
        }
        m.memcpy(0x108, 0x100, 56).unwrap();
        for i in 0..56 {
            assert_eq!(m.read_u8(0x108 + i).unwrap(), i as u8);
        }
    }

    #[test]
    fn fill_clears_tags() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.fill(0x40, 64, 0xAA).unwrap();
        assert!(!m.tag_at(0x40).unwrap());
        assert_eq!(m.read_u8(0x7F).unwrap(), 0xAA);
    }

    #[test]
    fn widths_outside_the_isa_are_typed_errors() {
        let mut m = mem();
        for w in [0u8, 3, 5, 16, u8::MAX] {
            assert_eq!(
                m.read_uint(64, w),
                Err(MemError::UnsupportedWidth { width: w })
            );
            assert_eq!(
                m.write_uint(64, 0xFF, w),
                Err(MemError::UnsupportedWidth { width: w })
            );
        }
        // Nothing was written.
        assert_eq!(m.read_u64(64).unwrap(), 0);
    }

    /// The word-at-a-time tag helpers against a one-`bool`-per-granule
    /// model, at every bit offset around the word seams.
    #[test]
    fn tag_word_helpers_match_a_bool_model() {
        const G: usize = 192;
        let pattern: Vec<bool> = (0..G).map(|g| (g * 7 + g / 5) % 3 == 0).collect();
        let load = |bits: &[bool]| {
            let mut m = TaggedMemory::new(G as u64 * CAP_ALIGN);
            for (g, &t) in bits.iter().enumerate() {
                m.set_tag(g, t);
            }
            m
        };
        let read = |m: &TaggedMemory| (0..G).map(|g| m.tag(g)).collect::<Vec<_>>();
        let lens = [0, 1, 2, 31, 63, 64, 65, 66, 127, 128, 129];
        for src in 0..G {
            for dst in [0, 1, 2, 33, 62, 63, 64, 65, 66, 100, 127, 128] {
                for n in lens {
                    if src + n > G || dst + n > G {
                        continue;
                    }
                    let mut m = load(&pattern);
                    m.move_tags(src, dst, n);
                    let mut want = pattern.clone();
                    want.copy_within(src..src + n, dst);
                    assert_eq!(read(&m), want, "move {src} -> {dst} x{n}");
                }
            }
            for n in lens {
                if src + n > G {
                    continue;
                }
                let mut m = load(&pattern);
                m.clear_tag_range(src, src + n);
                let mut want = pattern.clone();
                want[src..src + n].fill(false);
                assert_eq!(read(&m), want, "clear {src} x{n}");
            }
        }
    }

    #[test]
    fn tagged_granules_enumerates_exactly() {
        let mut m = mem();
        m.write_cap(0x40, &a_cap()).unwrap();
        m.write_cap(0x200, &a_cap()).unwrap();
        let got: Vec<u64> = m.tagged_granules().collect();
        assert_eq!(got, vec![0x40, 0x200]);
    }

    /// Every observable facet of two memories is identical.
    fn assert_mem_identical(a: &TaggedMemory, b: &TaggedMemory) {
        assert_eq!(a.size(), b.size());
        assert_eq!(a.format(), b.format());
        assert_eq!(
            a.read_bytes(0, a.size()).unwrap(),
            b.read_bytes(0, b.size()).unwrap()
        );
        assert_eq!(
            a.tagged_granules().collect::<Vec<_>>(),
            b.tagged_granules().collect::<Vec<_>>()
        );
        assert_eq!(a.side_table_len(), b.side_table_len());
        assert_eq!(a.compression_stats(), b.compression_stats());
        assert_eq!(a.dirty, b.dirty);
    }

    #[test]
    fn snapshot_fork_reproduces_the_memory() {
        let size = 8 * DIRTY_CHUNK;
        let mut m = TaggedMemory::new(size);
        m.write_u64(8, 0xDEAD_BEEF).unwrap();
        m.write_bytes(DIRTY_CHUNK + 3, b"warm data").unwrap();
        m.write_cap(2 * DIRTY_CHUNK, &a_cap()).unwrap();
        m.fill(5 * DIRTY_CHUNK - 16, 64, 0xAA).unwrap(); // straddles pages
        let snap = m.snapshot();
        let fork = snap.fork();
        assert_mem_identical(&m, &fork);
        // The fork copied only the warm footprint, not the whole store.
        assert!(snap.warm_bytes() < size);
        assert_eq!(snap.warm_bytes() % DIRTY_CHUNK, 0);
        // Forks are independent of the source and of each other.
        let mut fork2 = snap.fork();
        fork2.write_u8(0x20, 0x55).unwrap();
        assert_eq!(m.read_u8(0x20).unwrap(), 0);
        assert_eq!(fork.read_u8(0x20).unwrap(), 0);
    }

    #[test]
    fn snapshot_fork_carries_cap128_side_table() {
        let mut m = TaggedMemory::with_format(
            0x10_0000,
            CapFormat::Cap128,
            UnrepresentablePolicy::SideTable,
        );
        m.write_cap(0x40, &unrep_cap()).unwrap();
        m.write_cap(0x80, &a_cap()).unwrap();
        let fork = m.snapshot().fork();
        assert_mem_identical(&m, &fork);
        assert_eq!(fork.read_cap(0x40).unwrap(), unrep_cap());
        assert_eq!(fork.read_cap(0x80).unwrap(), a_cap());
    }

    #[test]
    fn forked_memory_resets_and_pools_like_a_fresh_one() {
        let size = 2 * POOL_MIN_BYTES;
        let mut m = TaggedMemory::new(size);
        m.write_bytes(0x100, b"snapshot me").unwrap();
        let snap = m.snapshot();
        let mut fork = snap.fork();
        fork.write_cap(0x40, &a_cap()).unwrap();
        fork.reset();
        let fresh = TaggedMemory::new(size);
        assert_eq!(
            fork.read_bytes(0, size).unwrap(),
            fresh.read_bytes(0, size).unwrap()
        );
        assert_eq!(fork.tagged_granules().count(), 0);
    }

    fn mem128() -> TaggedMemory {
        TaggedMemory::with_format(0x1000, CapFormat::Cap128, UnrepresentablePolicy::SideTable)
    }

    /// A capability the 128-bit format cannot represent: the length demands
    /// E >= 1 but the base is odd.
    fn unrep_cap() -> Capability {
        Capability::new_mem(0x10001, 0x2_0000, Perms::data())
    }

    #[test]
    fn cap128_representable_round_trip() {
        let mut m = mem128();
        let c = a_cap().set_offset(0x13).unwrap();
        m.write_cap(0x40, &c).unwrap();
        assert_eq!(m.read_cap(0x40).unwrap(), c);
        assert!(m.tag_at(0x40).unwrap());
        assert_eq!(m.side_table_len(), 0);
        let stats = m.compression_stats();
        assert_eq!((stats.attempts, stats.successes), (1, 1));
    }

    #[test]
    fn cap128_unrepresentable_escapes_to_side_table() {
        let mut m = TaggedMemory::with_format(
            0x10_0000,
            CapFormat::Cap128,
            UnrepresentablePolicy::SideTable,
        );
        let c = unrep_cap();
        m.write_cap(0x40, &c).unwrap();
        assert_eq!(m.side_table_len(), 1);
        assert_eq!(m.read_cap(0x40).unwrap(), c);
        let stats = m.compression_stats();
        assert_eq!((stats.attempts, stats.successes), (1, 0));
        // A representable overwrite retires the escape entry.
        m.write_cap(0x40, &a_cap()).unwrap();
        assert_eq!(m.side_table_len(), 0);
        assert_eq!(m.read_cap(0x40).unwrap(), a_cap());
    }

    #[test]
    fn cap128_trap_policy_refuses_tagged_unrepresentable() {
        let mut m =
            TaggedMemory::with_format(0x10_0000, CapFormat::Cap128, UnrepresentablePolicy::Trap);
        assert_eq!(
            m.write_cap(0x40, &unrep_cap()),
            Err(MemError::Unrepresentable { addr: 0x40 })
        );
        assert!(!m.tag_at(0x40).unwrap());
        // Untagged unrepresentable bytes are plain data: still stored.
        let data = unrep_cap().clear_tag();
        m.write_cap(0x40, &data).unwrap();
        assert_eq!(m.read_cap(0x40).unwrap(), data);
    }

    #[test]
    fn cap128_plain_store_clears_tag_and_side_entry() {
        let mut m = TaggedMemory::with_format(
            0x10_0000,
            CapFormat::Cap128,
            UnrepresentablePolicy::SideTable,
        );
        m.write_cap(0x40, &unrep_cap()).unwrap();
        m.write_u8(0x50, 0xAA).unwrap();
        assert!(!m.tag_at(0x40).unwrap());
        assert_eq!(m.side_table_len(), 0);
        // In-format caps behave like Cap256: scribble clears the tag only.
        m.write_cap(0x80, &a_cap()).unwrap();
        m.write_u8(0x90, 0).unwrap();
        assert!(!m.read_cap(0x80).unwrap().tag());
    }

    #[test]
    fn cap128_memcpy_moves_escaped_capabilities() {
        let mut m = TaggedMemory::with_format(
            0x10_0000,
            CapFormat::Cap128,
            UnrepresentablePolicy::SideTable,
        );
        let c = unrep_cap();
        m.write_cap(0x40, &c).unwrap();
        m.memcpy(0x100, 0x40, 32).unwrap();
        assert_eq!(m.read_cap(0x100).unwrap(), c);
        assert_eq!(m.side_table_len(), 2);
        // A misaligned copy of the escape slot must not resurrect the
        // capability: no tag, and the stale side entry is gone.
        m.memcpy(0x201, 0x40, 32).unwrap();
        assert!(!m.tag_at(0x201).unwrap());
    }

    #[test]
    fn cap128_footprint_is_half_of_cap256() {
        let mut m256 = mem();
        let mut m128 = mem128();
        for g in 0..4u64 {
            m256.write_cap(0x40 + g * 32, &a_cap()).unwrap();
            m128.write_cap(0x40 + g * 32, &a_cap()).unwrap();
        }
        assert_eq!(m256.cap_footprint_bytes(), 4 * 32);
        assert_eq!(m128.cap_footprint_bytes(), 4 * 16);
    }

    #[test]
    fn cap128_reset_clears_side_table_and_stats() {
        let mut m = TaggedMemory::with_format(
            0x10_0000,
            CapFormat::Cap128,
            UnrepresentablePolicy::SideTable,
        );
        m.write_cap(0x40, &unrep_cap()).unwrap();
        m.reset();
        assert_eq!(m.side_table_len(), 0);
        assert_eq!(m.compression_stats(), CompressionStats::default());
        assert_eq!(m.cap_footprint_bytes(), 0);
        assert!(!m.read_cap(0x40).unwrap().tag());
    }

    proptest! {
        /// Capability store→load round-trips byte- and tag-identically in
        /// BOTH formats (SideTable policy), for representable and
        /// unrepresentable shapes alike.
        #[test]
        fn cap_round_trip_identical_in_both_formats(
            base in 0u64..1 << 40,
            len in 0u64..1 << 30,
            off in any::<u64>(),
            tag in any::<bool>(),
            seal in any::<bool>(),
        ) {
            let c = Capability::new_mem(base, len, Perms::data())
                .set_offset(off).unwrap();
            let c = if seal {
                let sealer = Capability::new_mem(7, 1, Perms::all());
                c.seal(&sealer).unwrap()
            } else {
                c
            };
            let c = if tag { c } else { c.clear_tag() };
            for mut m in [TaggedMemory::new(0x1000), mem128()] {
                m.write_cap(0x40, &c).unwrap();
                prop_assert_eq!(m.read_cap(0x40).unwrap(), c);
                prop_assert_eq!(m.tag_at(0x40).unwrap(), c.tag());
            }
        }

        /// No sequence of plain writes can ever set a tag.
        #[test]
        fn plain_writes_never_set_tags(writes in proptest::collection::vec((0u64..0xF00, any::<u64>()), 1..40)) {
            let mut m = mem();
            for (addr, v) in writes {
                m.write_u64(addr, v).unwrap();
            }
            prop_assert_eq!(m.tagged_granules().count(), 0);
        }

        /// memcpy never *creates* tags that weren't in the source.
        #[test]
        fn memcpy_never_mints_tags(dst in 0u64..0x800, src in 0u64..0x800, len in 0u64..0x100) {
            let mut m = mem();
            m.write_cap(0x40, &a_cap()).unwrap();
            m.memcpy(dst, src, len).unwrap();
            for g in m.tagged_granules() {
                // Every tagged granule decodes to the original capability's bytes.
                let c = m.read_cap(g).unwrap();
                prop_assert_eq!(c.base(), a_cap().base());
                prop_assert_eq!(c.length(), a_cap().length());
            }
        }

        /// Overlapping copies behave like `memmove`: bytes, tags and (in
        /// Cap128 mode) side-table entries end up exactly where a copy
        /// through a disjoint scratch region would put them, in both copy
        /// directions, with no tag duplication or loss at the overlap seam.
        #[test]
        fn overlapping_memcpy_matches_memmove(
            fwd in any::<bool>(),        // dst > src (backward-overlapping) or dst < src
            shift in 1u64..96,           // overlap distance, crosses granule seams
            len in 64u64..256,
            cap128 in any::<bool>(),
            seed_caps in proptest::collection::vec(0u64..6, 1..4),
        ) {
            let total = 0x1000u64;
            let make = |cap128: bool| if cap128 {
                TaggedMemory::with_format(total, CapFormat::Cap128, UnrepresentablePolicy::SideTable)
            } else {
                TaggedMemory::new(total)
            };
            let region = 0x400u64;
            let (src, dst) = if fwd { (region + shift, region) } else { (region, region + shift) };
            // Seed the source range with data, in-format capabilities and
            // (Cap128) an unrepresentable escape capability.
            let mut seeded = make(cap128);
            for i in 0..(len + shift) {
                seeded.write_u8(region + i, (i * 7 + 3) as u8).unwrap();
            }
            for &g in &seed_caps {
                let addr = region / CAP_ALIGN * CAP_ALIGN + g * CAP_ALIGN;
                seeded.write_cap(addr, &a_cap()).unwrap();
            }
            if cap128 {
                let addr = region / CAP_ALIGN * CAP_ALIGN + 6 * CAP_ALIGN;
                seeded.write_cap(addr, &unrep_cap()).unwrap();
            }
            // Reference: the same copy through a disjoint scratch region.
            let mut reference = seeded.clone();
            let scratch = 0x900u64;
            reference.memcpy(scratch, src, len).unwrap();
            reference.memcpy(dst, scratch, len).unwrap();
            // Overlapping copy under test.
            let mut m = seeded;
            m.memcpy(dst, src, len).unwrap();
            prop_assert_eq!(
                m.read_bytes(dst, len).unwrap(),
                reference.read_bytes(dst, len).unwrap(),
                "bytes diverge from memmove semantics"
            );
            let mut a = dst / CAP_ALIGN * CAP_ALIGN;
            while a < dst + len {
                prop_assert_eq!(
                    m.tag_at(a).unwrap(),
                    reference.tag_at(a).unwrap(),
                    "tag at granule {:#x} diverges", a
                );
                prop_assert_eq!(
                    m.read_cap(a).unwrap(),
                    reference.read_cap(a).unwrap(),
                    "capability at granule {:#x} diverges", a
                );
                a += CAP_ALIGN;
            }
        }
    }
}
