//! A free-list allocator that speaks capabilities.
//!
//! The paper observes (§2) that `malloc()` is *outside* the C abstract
//! machine: the memory not yet returned by `malloc` is not yet part of the
//! abstract machine, and "it is the responsibility of the allocator ... to
//! correctly set the length on capabilities. Once set, it is impossible to
//! use the resulting capability to gain access to memory outside the
//! object." (§4)
//!
//! [`Allocator`] is a first-fit free-list allocator with coalescing over a
//! fixed heap region. [`Allocator::alloc_cap`] returns a capability bounded
//! to the *requested* size (byte-granularity protection) even though the
//! underlying block is padded to the 32-byte capability granule.

use crate::{MemError, MemResult};
use cheri_cap::{
    representable_align, CapFormat, Capability, CompressedCapability, Perms, CAP_ALIGN,
};
use std::collections::HashMap;

/// Allocation statistics, for tests and the evaluation harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently allocated (padded block sizes).
    pub in_use: u64,
    /// High-water mark of `in_use`.
    pub peak: u64,
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of frees.
    pub frees: u64,
}

/// First-fit free-list allocator with address-ordered coalescing.
///
/// # Example
///
/// ```
/// use cheri_mem::Allocator;
/// use cheri_cap::Perms;
///
/// let mut heap = Allocator::new(0x10000, 0x8000);
/// let c = heap.alloc_cap(100, Perms::data())?;
/// assert_eq!(c.length(), 100);
/// assert_eq!(c.base() % 32, 0);
/// heap.free(c.base())?;
/// # Ok::<(), cheri_mem::MemError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Allocator {
    /// Free blocks as (base, size), sorted by base.
    free: Vec<(u64, u64)>,
    /// Live allocations: base -> padded size.
    live: HashMap<u64, u64>,
    base: u64,
    size: u64,
    format: CapFormat,
    stats: AllocStats,
}

impl Allocator {
    /// Creates an allocator managing `[base, base + size)`. The region is
    /// aligned inward to the 32-byte capability granule. Allocations are
    /// shaped for full 256-bit capabilities (no representability padding).
    pub fn new(base: u64, size: u64) -> Allocator {
        Allocator::with_format(base, size, CapFormat::Cap256)
    }

    /// Creates an allocator whose blocks are shaped for `format`.
    ///
    /// In [`CapFormat::Cap128`] mode every block's base and padded size are
    /// aligned to the `2^E` the block's size demands
    /// ([`cheri_cap::representable_align`]), so the capability handed out
    /// by [`Allocator::alloc_cap`] — and any in-bounds cursor derived from
    /// it — is always representable in the low-fat 128-bit format. This is
    /// the allocator-side half of the paper's compressed-capability story:
    /// "a real allocator pads allocations to make them representable".
    pub fn with_format(base: u64, size: u64, format: CapFormat) -> Allocator {
        let aligned_base = base.next_multiple_of(CAP_ALIGN);
        let end = (base + size) / CAP_ALIGN * CAP_ALIGN;
        let size = end.saturating_sub(aligned_base);
        Allocator {
            free: vec![(aligned_base, size)],
            live: HashMap::new(),
            base: aligned_base,
            size,
            format,
            stats: AllocStats::default(),
        }
    }

    /// The capability format this allocator shapes blocks for.
    pub fn format(&self) -> CapFormat {
        self.format
    }

    /// The managed region's base address.
    pub fn heap_base(&self) -> u64 {
        self.base
    }

    /// The managed region's size in bytes.
    pub fn heap_size(&self) -> u64 {
        self.size
    }

    /// Current statistics.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Allocates `size` bytes (32-byte aligned, padded to a whole granule),
    /// returning the block's base address.
    ///
    /// Zero-byte requests consume one granule, so every allocation has a
    /// distinct address, as C requires.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] if no free block is large enough.
    pub fn alloc(&mut self, size: u64) -> MemResult<u64> {
        // Guest-controlled sizes reach this via the MALLOC syscall: padding
        // near-u64::MAX requests must report exhaustion, not overflow.
        let oom = MemError::OutOfMemory { requested: size };
        let mut padded = size.max(1).checked_next_multiple_of(CAP_ALIGN).ok_or(oom)?;
        let align = match self.format {
            CapFormat::Cap256 => CAP_ALIGN,
            // Low-fat mode: base and size must be multiples of the 2^E the
            // size demands, or the resulting capability's bounds are not
            // encodable. Padding can itself raise E at the mantissa
            // boundaries (lengths in (0xFFFF << E, 0x10000 << E]), so
            // iterate align→pad to a fixpoint; m << E with m <= 0xFFFF is
            // stable, so this terminates after at most a few rounds.
            CapFormat::Cap128 => loop {
                let a = representable_align(padded).max(CAP_ALIGN);
                let p = padded.checked_next_multiple_of(a).ok_or(oom)?;
                if p == padded {
                    break a;
                }
                padded = p;
            },
        };
        // First fit at the required alignment: the gap between the block's
        // base and the aligned base stays on the free list.
        let slot = self
            .free
            .iter()
            .position(|&(b, sz)| {
                let start = b.next_multiple_of(align);
                start - b <= sz && sz - (start - b) >= padded
            })
            .ok_or(MemError::OutOfMemory { requested: size })?;
        let (blk_base, blk_size) = self.free[slot];
        let start = blk_base.next_multiple_of(align);
        let lead = start - blk_base;
        let tail = blk_size - lead - padded;
        match (lead > 0, tail > 0) {
            (false, false) => {
                self.free.remove(slot);
            }
            (false, true) => self.free[slot] = (start + padded, tail),
            (true, false) => self.free[slot] = (blk_base, lead),
            (true, true) => {
                self.free[slot] = (blk_base, lead);
                self.free.insert(slot + 1, (start + padded, tail));
            }
        }
        self.live.insert(start, padded);
        self.stats.allocs += 1;
        self.stats.in_use += padded;
        self.stats.peak = self.stats.peak.max(self.stats.in_use);
        Ok(start)
    }

    /// Allocates `size` bytes and wraps the result in a capability whose
    /// bounds are exactly `[base, base + size)` with permissions `perms` —
    /// byte-granularity protection. In [`CapFormat::Cap128`] mode, a `size`
    /// whose exact bounds the compressed format cannot encode (only
    /// possible beyond the 16-bit mantissa, i.e. > 64 KiB) is widened to
    /// the block's padded, representable bounds instead: the low-fat
    /// trade-off the paper describes.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`].
    pub fn alloc_cap(&mut self, size: u64, perms: Perms) -> MemResult<Capability> {
        let base = self.alloc(size)?;
        let exact = Capability::new_mem(base, size, perms);
        if self.format == CapFormat::Cap128 && CompressedCapability::compress(&exact).is_none() {
            let padded = self.live[&base];
            return Ok(Capability::new_mem(base, padded, perms));
        }
        Ok(exact)
    }

    /// Returns the block at `addr` to the free list, coalescing neighbours.
    ///
    /// # Errors
    ///
    /// [`MemError::BadFree`] if `addr` is not the base of a live allocation
    /// (catches double frees and frees of interior pointers).
    pub fn free(&mut self, addr: u64) -> MemResult<()> {
        let size = self.live.remove(&addr).ok_or(MemError::BadFree { addr })?;
        self.stats.frees += 1;
        self.stats.in_use -= size;
        let pos = self.free.partition_point(|&(b, _)| b < addr);
        self.free.insert(pos, (addr, size));
        // Coalesce with successor, then predecessor.
        if pos + 1 < self.free.len() && self.free[pos].0 + self.free[pos].1 == self.free[pos + 1].0
        {
            self.free[pos].1 += self.free[pos + 1].1;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].0 + self.free[pos - 1].1 == self.free[pos].0 {
            self.free[pos - 1].1 += self.free[pos].1;
            self.free.remove(pos);
        }
        Ok(())
    }

    /// Iterates over `(base, padded_size)` of all live allocations.
    pub fn live_blocks(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.live.iter().map(|(&b, &s)| (b, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_is_aligned_and_bounded() {
        let mut a = Allocator::new(0x1000, 0x1000);
        let c = a.alloc_cap(100, Perms::data()).unwrap();
        assert_eq!(c.base() % CAP_ALIGN, 0);
        assert_eq!(c.length(), 100);
        assert!(c.tag());
    }

    #[test]
    fn zero_sized_allocations_are_distinct() {
        let mut a = Allocator::new(0, 0x1000);
        let x = a.alloc(0).unwrap();
        let y = a.alloc(0).unwrap();
        assert_ne!(x, y);
    }

    #[test]
    fn exhaustion_reports_oom() {
        let mut a = Allocator::new(0, 64);
        a.alloc(64).unwrap();
        assert!(matches!(a.alloc(1), Err(MemError::OutOfMemory { .. })));
    }

    #[test]
    fn near_max_sizes_report_oom_not_overflow() {
        // malloc(-1) from a guest: padding must not wrap (release) or
        // panic (debug) — it must report exhaustion.
        for format in [CapFormat::Cap256, CapFormat::Cap128] {
            let mut a = Allocator::with_format(0, 0x1000, format);
            for size in [u64::MAX, u64::MAX - 30, 0xFFFF_FFFF_FFFF_FFE0] {
                assert!(
                    matches!(a.alloc(size), Err(MemError::OutOfMemory { .. })),
                    "{format:?}/{size:#x}"
                );
            }
            assert!(a.alloc(32).is_ok(), "heap still usable");
        }
    }

    #[test]
    fn free_and_reuse() {
        let mut a = Allocator::new(0, 0x100);
        let x = a.alloc(0x100).unwrap();
        assert!(a.alloc(1).is_err());
        a.free(x).unwrap();
        assert_eq!(a.alloc(0x100).unwrap(), x);
    }

    #[test]
    fn double_free_is_caught() {
        let mut a = Allocator::new(0, 0x1000);
        let x = a.alloc(32).unwrap();
        a.free(x).unwrap();
        assert_eq!(a.free(x).unwrap_err(), MemError::BadFree { addr: x });
    }

    #[test]
    fn free_of_interior_pointer_is_caught() {
        let mut a = Allocator::new(0, 0x1000);
        let x = a.alloc(64).unwrap();
        assert!(matches!(a.free(x + 8), Err(MemError::BadFree { .. })));
    }

    #[test]
    fn coalescing_reassembles_heap() {
        let mut a = Allocator::new(0, 0x300);
        let xs: Vec<u64> = (0..3).map(|_| a.alloc(0x100).unwrap()).collect();
        // Free out of order; coalescing should rebuild one block.
        a.free(xs[1]).unwrap();
        a.free(xs[0]).unwrap();
        a.free(xs[2]).unwrap();
        assert_eq!(a.alloc(0x300).unwrap(), xs[0]);
    }

    #[test]
    fn stats_track_usage() {
        let mut a = Allocator::new(0, 0x1000);
        let x = a.alloc(33).unwrap(); // pads to 64
        assert_eq!(a.stats().in_use, 64);
        assert_eq!(a.stats().peak, 64);
        a.free(x).unwrap();
        assert_eq!(a.stats().in_use, 0);
        assert_eq!(a.stats().peak, 64);
        assert_eq!(a.stats().allocs, 1);
        assert_eq!(a.stats().frees, 1);
    }

    #[test]
    fn unaligned_region_is_trimmed() {
        let a = Allocator::new(0x11, 0x100);
        assert_eq!(a.heap_base() % CAP_ALIGN, 0);
        assert!(a.heap_base() >= 0x11);
        assert!(a.heap_base() + a.heap_size() <= 0x111);
    }

    #[test]
    fn cap128_small_allocations_keep_byte_granularity() {
        let mut a = Allocator::with_format(0x1000, 0x10000, CapFormat::Cap128);
        let c = a.alloc_cap(100, Perms::data()).unwrap();
        assert_eq!(c.length(), 100, "byte-granular bounds below the mantissa");
        assert!(CompressedCapability::compress(&c).is_some());
    }

    #[test]
    fn cap128_large_allocations_get_representable_bounds() {
        let mut a = Allocator::with_format(0x20, 4 << 20, CapFormat::Cap128);
        // 0x12345 > 64 KiB needs E = 2: base and bounds must be 4-aligned.
        let c = a.alloc_cap(0x12345, Perms::data()).unwrap();
        assert!(c.length() >= 0x12345);
        assert_eq!(c.length() % 4, 0);
        assert!(CompressedCapability::compress(&c).is_some());
        // Every in-bounds cursor stays representable.
        for off in [0u64, 1, 0x12345, c.length()] {
            let p = c.set_offset(off).unwrap();
            assert!(
                CompressedCapability::compress(&p).is_some(),
                "offset {off:#x}"
            );
        }
        // free() still accepts the block base.
        a.free(c.base()).unwrap();
    }

    #[test]
    fn cap128_mantissa_boundary_sizes_stay_representable() {
        // Sizes just under 0x10000 << E pad up ACROSS the boundary, so the
        // exponent (and with it the required alignment) rises: the
        // align→pad fixpoint must catch that. 0x3FFFD0 pads to 0x40_0000,
        // which needs E = 7, not the E = 6 its pre-padding size suggests.
        let mut a = Allocator::with_format(0x40, 16 << 20, CapFormat::Cap128);
        for size in [0x3FFFD0u64, (0xFFFFu64 << 1) + 1, (0xFFFFu64 << 6) + 33] {
            let c = a.alloc_cap(size, Perms::data()).unwrap();
            assert!(
                CompressedCapability::compress(&c).is_some(),
                "size {size:#x} -> {c}"
            );
            a.free(c.base()).unwrap();
        }
    }

    #[test]
    fn cap256_allocator_is_unchanged_by_the_knob() {
        let mut a = Allocator::new(0, 0x1000);
        assert_eq!(a.format(), CapFormat::Cap256);
        let x = a.alloc(33).unwrap();
        assert_eq!(a.stats().in_use, 64);
        a.free(x).unwrap();
    }

    proptest! {
        /// Cap128 allocations always yield representable capabilities, and
        /// the heap survives alloc/free churn at mixed alignments. The
        /// size strategy deliberately hugs the mantissa boundaries
        /// (0x10000 << E), where padding interacts with the exponent.
        #[test]
        fn cap128_blocks_always_compress(
            sizes in proptest::collection::vec(
                prop_oneof![
                    1u64..200_000,
                    (0u32..8, -64i64..64).prop_map(|(e, d)| {
                        (0x1_0000u64 << e).saturating_add_signed(d).max(1)
                    }),
                ],
                1..12,
            )
        ) {
            let mut a = Allocator::with_format(0x40, 64 << 20, CapFormat::Cap128);
            let mut held = Vec::new();
            for s in sizes {
                let c = a.alloc_cap(s, Perms::data()).unwrap();
                prop_assert!(CompressedCapability::compress(&c).is_some(), "size {s:#x}");
                held.push(c.base());
            }
            for b in held {
                a.free(b).unwrap();
            }
            prop_assert_eq!(a.stats().in_use, 0);
        }

        /// Live blocks never overlap and always lie within the heap.
        #[test]
        fn blocks_are_disjoint(ops in proptest::collection::vec((0u64..200, any::<bool>()), 1..60)) {
            let mut a = Allocator::new(0x100, 0x4000);
            let mut held: Vec<u64> = Vec::new();
            for (sz, do_free) in ops {
                if do_free && !held.is_empty() {
                    let x = held.swap_remove(sz as usize % held.len());
                    a.free(x).unwrap();
                } else if let Ok(x) = a.alloc(sz) {
                    held.push(x);
                }
            }
            let mut blocks: Vec<(u64, u64)> = a.live_blocks().collect();
            blocks.sort_unstable();
            for w in blocks.windows(2) {
                prop_assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {:?}", w);
            }
            for &(b, s) in &blocks {
                prop_assert!(b >= a.heap_base());
                prop_assert!(b + s <= a.heap_base() + a.heap_size());
            }
        }

        /// Free + coalesce always allows reallocating the whole heap.
        #[test]
        fn full_free_restores_capacity(sizes in proptest::collection::vec(1u64..100, 1..30)) {
            let mut a = Allocator::new(0, 0x8000);
            let blocks: Vec<u64> = sizes.iter().filter_map(|&s| a.alloc(s).ok()).collect();
            for b in blocks {
                a.free(b).unwrap();
            }
            prop_assert!(a.alloc(a.heap_size()).is_ok());
        }
    }
}
