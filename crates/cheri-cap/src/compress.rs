//! A 128-bit compressed capability format in the style of "low-fat
//! pointers" (Kwon et al., CCS 2013), cited by the paper as the kind of
//! efficient representation that breaking the **Mask** idiom's
//! known-representation assumption enables (§2).
//!
//! The full CHERIv2/v3 format spends 256 bits per capability. Low-fat
//! schemes store the pointer in full and the bounds as floating-point-style
//! mantissas relative to the pointer's high bits:
//!
//! * word 0 — the 64-bit address (`base + offset`).
//! * word 1 — `perms` (16 bits), exponent `E` (6 bits), base mantissa `B`
//!   (16 bits), top mantissa `T` (16 bits), tag (1 bit).
//!
//! The trade-off, demonstrated by the `ablation_substrate` bench, is that
//! not every `(base, length, offset)` triple is representable: bounds must
//! be `2^E`-aligned and the pointer must stay within the representable
//! window around the object. [`CompressedCapability::compress`] returns
//! `None` for unrepresentable capabilities — a real allocator pads
//! allocations to make them representable.

use crate::{Capability, Perms};

/// Width of the in-memory capability representation.
///
/// [`CapFormat::Cap256`] is the paper's loosely-packed 256-bit format
/// (`cheri_cap::encode_capability`); [`CapFormat::Cap128`] is the low-fat
/// 128-bit format implemented by [`CompressedCapability`], halving the
/// memory and cache footprint of every stored capability at the cost of
/// `2^E`-representable bounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CapFormat {
    /// Full 256-bit capabilities: every `(base, length, offset)` triple is
    /// representable exactly.
    #[default]
    Cap256,
    /// Compressed 128-bit capabilities: bounds must be `2^E`-aligned for
    /// the exponent the length demands.
    Cap128,
}

impl CapFormat {
    /// Bytes one stored capability occupies in this format (the granule
    /// reservation stays [`crate::CAP_SIZE_BYTES`]; this is the footprint
    /// that actually travels through the cache hierarchy).
    pub fn stored_bytes(self) -> u64 {
        match self {
            CapFormat::Cap256 => crate::CAP_SIZE_BYTES as u64,
            CapFormat::Cap128 => CAP128_SIZE_BYTES as u64,
        }
    }
}

/// Size of the compressed in-memory capability representation in bytes.
pub const CAP128_SIZE_BYTES: usize = 16;

/// A capability packed into 128 bits.
///
/// # Example
///
/// ```
/// use cheri_cap::{Capability, CompressedCapability, Perms};
/// let c = Capability::new_mem(0x10000, 0x2000, Perms::data());
/// let z = CompressedCapability::compress(&c).expect("aligned region is representable");
/// assert_eq!(z.decompress(), c);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressedCapability {
    address: u64,
    meta: u64,
}

const MANTISSA_BITS: u32 = 16;
const MANTISSA_MASK: u64 = (1 << MANTISSA_BITS) - 1;

impl CompressedCapability {
    /// Attempts to compress `cap` into the 128-bit format.
    ///
    /// Returns `None` when the capability is not representable: sealed
    /// capabilities, bounds that are not `2^E`-aligned for the exponent the
    /// length demands, or a pointer too far outside the object for the
    /// window arithmetic to recover the bounds.
    #[inline]
    pub fn compress(cap: &Capability) -> Option<CompressedCapability> {
        if cap.is_sealed() {
            return None;
        }
        let base = cap.base();
        let top = cap.top();
        let length = cap.length();
        let e = exponent_for_length(length);
        if e > 47 {
            return None;
        }
        let align = (1u64 << e) - 1;
        if base & align != 0 || top & align != 0 {
            return None; // bounds not exactly representable at this exponent
        }
        let b = (base >> e) & MANTISSA_MASK;
        let t = (top >> e) & MANTISSA_MASK;
        let meta = (cap.perms().bits() as u64)
            | ((e as u64) << 16)
            | (b << 22)
            | (t << 38)
            | ((cap.tag() as u64) << 54);
        let z = CompressedCapability {
            address: cap.address(),
            meta,
        };
        // Correct-by-construction: only report success when the round trip
        // is exact. This filters pointers outside the representable window.
        if z.decompress() == *cap {
            Some(z)
        } else {
            None
        }
    }

    /// Expands back to the full representation.
    #[inline]
    pub fn decompress(&self) -> Capability {
        let perms = Perms::from_bits(self.meta as u16);
        let e = ((self.meta >> 16) & 0x3f) as u32;
        let b = (self.meta >> 22) & MANTISSA_MASK;
        let t = (self.meta >> 38) & MANTISSA_MASK;
        let tag = (self.meta >> 54) & 1 == 1;
        let a = self.address;
        // `compress` never emits e > 47, but `decompress` also runs on
        // arbitrary *untagged* memory bytes (a `CLC` of plain data), whose
        // exponent field can spell anything up to 63 — the shift must not
        // overflow the host on garbage encodings.
        let a_top = a.checked_shr(e + MANTISSA_BITS).unwrap_or(0);
        let a_mid = (a >> e) & MANTISSA_MASK;
        // Window correction: if the pointer's mid bits are below the base
        // mantissa, the base lives in the previous 2^(E+16) window; if the
        // top mantissa is below the mid bits, the top is in the next one.
        let cb = u64::from(a_mid < b);
        let ct = u64::from(t < a_mid || (t == a_mid && t < b));
        let base = ((a_top.wrapping_sub(cb) << MANTISSA_BITS) | b) << e;
        let top = ((a_top.wrapping_add(ct) << MANTISSA_BITS) | t) << e;
        let length = top.wrapping_sub(base);
        let offset = a.wrapping_sub(base);

        Capability::from_raw_parts(tag, base, length, offset, perms, u32::MAX)
    }

    /// Expands back to the full representation, overriding the encoded tag
    /// bit with `tag` — the out-of-band tag maintained by tagged memory is
    /// authoritative over whatever bits happen to sit in the slot.
    #[inline]
    pub fn decompress_with_tag(&self, tag: bool) -> Capability {
        let c = self.decompress();
        Capability::from_raw_parts(
            tag,
            c.base(),
            c.length(),
            c.offset(),
            c.perms(),
            c.otype_raw(),
        )
    }

    /// The 16-byte little-endian in-memory form: address word then
    /// metadata word.
    #[inline]
    pub fn to_bytes(&self) -> [u8; CAP128_SIZE_BYTES] {
        let mut out = [0u8; CAP128_SIZE_BYTES];
        out[0..8].copy_from_slice(&self.address.to_le_bytes());
        out[8..16].copy_from_slice(&self.meta.to_le_bytes());
        out
    }

    /// Reconstructs the packed form from its 16 in-memory bytes. Never
    /// fails: untagged bit patterns are legal data, exactly as for the
    /// 256-bit decoder.
    #[inline]
    pub fn from_bytes(bytes: &[u8; CAP128_SIZE_BYTES]) -> CompressedCapability {
        let mut a = [0u8; 8];
        let mut m = [0u8; 8];
        a.copy_from_slice(&bytes[0..8]);
        m.copy_from_slice(&bytes[8..16]);
        CompressedCapability {
            address: u64::from_le_bytes(a),
            meta: u64::from_le_bytes(m),
        }
    }

    /// The stored 64-bit address.
    pub fn address(&self) -> u64 {
        self.address
    }
}

/// The smallest exponent `E` whose 16-bit mantissa can express `length`.
/// `length >> E` fits the mantissa exactly when `length` has at most
/// `16 + E` significant bits.
fn exponent_for_length(length: u64) -> u32 {
    (u64::BITS - length.leading_zeros()).saturating_sub(MANTISSA_BITS)
}

/// The `2^E` bound alignment the 128-bit format demands of a region of
/// `length` bytes. A low-fat-aware allocator pads every block so its base
/// and size are multiples of this; the resulting capability (and every
/// in-bounds cursor derived from it) is then guaranteed representable —
/// see the `aligned_allocations_always_compress` property below.
///
/// Beware the mantissa boundaries: for lengths in
/// `(0xFFFF << E, 0x10000 << E]`, rounding up to the next multiple of
/// `2^E` can itself raise the exponent (e.g. `0x3FFFE0` has `E = 6`, but
/// padding to 64 yields `0x40_0000`, which needs `E = 7`). Callers padding
/// for representability must iterate align→pad to a fixpoint; it
/// converges quickly because a length of the form `m << E` with
/// `m <= 0xFFFF` is stable.
pub fn representable_align(length: u64) -> u64 {
    1u64 << exponent_for_length(length)
}

/// Running tally of compression attempts, for the representability ablation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompressionStats {
    /// Total capabilities offered to the compressor.
    pub attempts: u64,
    /// How many were exactly representable in 128 bits.
    pub successes: u64,
}

impl CompressionStats {
    /// Records one attempt, returning the compressed form if representable.
    #[inline]
    pub fn try_compress(&mut self, cap: &Capability) -> Option<CompressedCapability> {
        self.attempts += 1;
        let r = CompressedCapability::compress(cap);
        if r.is_some() {
            self.successes += 1;
        }
        r
    }

    /// Fraction of capabilities that compressed, in `[0, 1]`.
    pub fn success_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn decompress_of_garbage_bytes_never_panics() {
        // An untagged Cap128 granule can hold any bit pattern and `CLC`
        // still decodes it. Exponent fields of 48..=63 (unreachable via
        // `compress`, trivially reachable via plain data stores) used to
        // overflow the host's shift in debug builds.
        for fill in [0x00u8, 0x03, 0x7F, 0xFF] {
            let bytes = [fill; CAP128_SIZE_BYTES];
            let c = CompressedCapability::from_bytes(&bytes).decompress_with_tag(false);
            assert!(!c.tag());
        }
        // Directly exercise the maximal exponent field.
        let z = CompressedCapability {
            address: u64::MAX,
            meta: 0x3F << 16,
        };
        let _ = z.decompress();
    }

    #[test]
    fn small_aligned_regions_round_trip() {
        for (base, len) in [(0x1000u64, 0x40u64), (0, 16), (0xFFFF_0000, 0x100)] {
            let c = Capability::new_mem(base, len, Perms::data());
            let z = CompressedCapability::compress(&c).unwrap();
            assert_eq!(z.decompress(), c);
        }
    }

    #[test]
    fn in_bounds_offsets_round_trip() {
        let c = Capability::new_mem(0x2000, 0x800, Perms::data());
        for off in [0u64, 1, 0x7ff, 0x800] {
            let p = c.set_offset(off).unwrap();
            let z = CompressedCapability::compress(&p).expect("in-bounds pointer");
            assert_eq!(z.decompress(), p);
        }
    }

    #[test]
    fn misaligned_large_region_is_unrepresentable() {
        // Length needs E >= 1 but base is odd -> not representable.
        let c = Capability::new_mem(0x10001, 0x2_0000, Perms::data());
        assert_eq!(CompressedCapability::compress(&c), None);
    }

    #[test]
    fn sealed_is_unrepresentable() {
        let sealer = Capability::new_mem(7, 1, Perms::all());
        let c = Capability::new_mem(0x1000, 64, Perms::data())
            .seal(&sealer)
            .unwrap();
        assert_eq!(CompressedCapability::compress(&c), None);
    }

    #[test]
    fn far_out_of_bounds_pointer_is_unrepresentable() {
        let c = Capability::new_mem(0x10000, 0x100, Perms::data());
        let far = c.set_offset(1 << 40).unwrap();
        assert_eq!(CompressedCapability::compress(&far), None);
    }

    #[test]
    fn byte_form_round_trips() {
        let c = Capability::new_mem(0x2000, 0x800, Perms::data())
            .set_offset(0x123)
            .unwrap();
        let z = CompressedCapability::compress(&c).unwrap();
        let back = CompressedCapability::from_bytes(&z.to_bytes());
        assert_eq!(back, z);
        assert_eq!(back.decompress(), c);
    }

    #[test]
    fn out_of_band_tag_overrides_encoded_bit() {
        let c = Capability::new_mem(0x2000, 0x800, Perms::data());
        let z = CompressedCapability::compress(&c).unwrap();
        let stripped = z.decompress_with_tag(false);
        assert!(!stripped.tag());
        assert_eq!(stripped.base(), c.base());
        assert_eq!(stripped.length(), c.length());
    }

    #[test]
    fn representable_align_tracks_length() {
        assert_eq!(representable_align(0), 1);
        assert_eq!(representable_align(0xFFFF), 1);
        assert_eq!(representable_align(0x1_0000), 2);
        assert_eq!(representable_align(8 << 20), 256);
    }

    #[test]
    fn padding_at_mantissa_boundaries_raises_the_exponent() {
        // The trap the doc comment warns about: lengths just under
        // 0x10000 << E pad up across the boundary and need E + 1.
        for e in [1u32, 6, 10] {
            let len = (0xFFFFu64 << e) + 1;
            let a = representable_align(len);
            assert_eq!(a, 1 << e);
            let padded = len.next_multiple_of(a);
            assert_eq!(padded, 0x1_0000u64 << e);
            assert_eq!(representable_align(padded), 2 << e, "E must rise");
            // One more align→pad round reaches the fixpoint.
            assert_eq!(padded.next_multiple_of(2 << e), padded);
        }
    }

    #[test]
    fn format_reports_stored_bytes() {
        assert_eq!(CapFormat::Cap256.stored_bytes(), 32);
        assert_eq!(CapFormat::Cap128.stored_bytes(), 16);
        assert_eq!(CapFormat::default(), CapFormat::Cap256);
    }

    #[test]
    fn stats_track_rate() {
        let mut stats = CompressionStats::default();
        let good = Capability::new_mem(0x1000, 64, Perms::data());
        let bad = Capability::new_mem(0x10001, 0x2_0000, Perms::data());
        stats.try_compress(&good);
        stats.try_compress(&bad);
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.successes, 1);
        assert!((stats.success_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn exponent_closed_form_matches_the_search() {
        let search = |length: u64| {
            let mut e = 0u32;
            while (length >> e) > MANTISSA_MASK {
                e += 1;
            }
            e
        };
        for shift in 0..64 {
            for length in [1u64 << shift, (1u64 << shift) - 1, (1u64 << shift) + 1] {
                assert_eq!(exponent_for_length(length), search(length), "{length:#x}");
            }
        }
        assert_eq!(exponent_for_length(0), 0);
        assert_eq!(exponent_for_length(u64::MAX), 48);
    }

    proptest! {
        /// Whenever compression claims success, the round trip is exact —
        /// compressed capabilities never gain authority.
        #[test]
        fn compression_is_exact_or_refused(
            base in 0u64..1 << 40,
            len in 0u64..1 << 30,
            off_in in any::<u32>(),
            tag in any::<bool>(),
        ) {
            let c = Capability::new_mem(base, len, Perms::data())
                .set_offset(off_in as u64 % (len + 1)).unwrap();
            let c = if tag { c } else { c.clear_tag() };
            if let Some(z) = CompressedCapability::compress(&c) {
                prop_assert_eq!(z.decompress(), c);
            }
        }

        /// 2^E-aligned allocations with in-bounds cursors always compress —
        /// this is the contract a low-fat-aware allocator relies on.
        #[test]
        fn aligned_allocations_always_compress(
            block in 1u64..1 << 20,
            off_frac in 0u64..100,
        ) {
            // Construct a region whose base and length share alignment.
            let len = block * 16;
            let mut e = 0;
            while (len >> e) > 0xFFFF { e += 1; }
            let align = 1u64 << e;
            let base = ((block * 37) & ((1 << 30) - 1)) / align * align;
            let top_pad = (align - (len % align)) % align;
            let c = Capability::new_mem(base, len + top_pad, Perms::data());
            let p = c.set_offset((len + top_pad) * off_frac / 100).unwrap();
            prop_assert!(CompressedCapability::compress(&p).is_some());
        }
    }
}
