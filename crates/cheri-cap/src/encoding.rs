//! The 256-bit in-memory capability format.
//!
//! CHERIv2/v3 capabilities are "loosely packed into a 256-bit value" (paper
//! §4) and must be naturally aligned; the validity tag lives *out of band*,
//! one bit per 32-byte granule, maintained by the tagged-memory substrate.
//!
//! Layout (little-endian 64-bit words):
//!
//! | word | contents                                   |
//! |------|--------------------------------------------|
//! | 0    | `perms` (bits 0..16), `otype` (bits 32..64) |
//! | 1    | `offset`                                   |
//! | 2    | `base`                                     |
//! | 3    | `length`                                   |

use crate::{Capability, Perms};

/// Size of the in-memory capability representation in bytes.
pub const CAP_SIZE_BYTES: usize = 32;

/// Required alignment for capability loads and stores.
pub const CAP_ALIGN: u64 = 32;

/// Packs a capability's 256 architectural bits (everything except the tag)
/// into `CAP_SIZE_BYTES` bytes.
///
/// # Example
///
/// ```
/// use cheri_cap::{encode_capability, decode_capability, Capability, Perms};
/// let c = Capability::new_mem(0x1000, 64, Perms::data());
/// let bytes = encode_capability(&c);
/// let back = decode_capability(&bytes, true);
/// assert_eq!(back, c);
/// ```
#[inline]
pub fn encode_capability(cap: &Capability) -> [u8; CAP_SIZE_BYTES] {
    let mut out = [0u8; CAP_SIZE_BYTES];
    let word0 = (cap.perms().bits() as u64) | ((cap.otype_raw() as u64) << 32);
    out[0..8].copy_from_slice(&word0.to_le_bytes());
    out[8..16].copy_from_slice(&cap.offset().to_le_bytes());
    out[16..24].copy_from_slice(&cap.base().to_le_bytes());
    out[24..32].copy_from_slice(&cap.length().to_le_bytes());
    out
}

/// Reconstructs a capability from its 256 architectural bits plus the
/// out-of-band tag supplied by the memory system.
///
/// Decoding never fails: untagged bit patterns are legal data (e.g. a union
/// member written as bytes), they merely refuse to be dereferenced.
#[inline]
pub fn decode_capability(bytes: &[u8; CAP_SIZE_BYTES], tag: bool) -> Capability {
    let w = |i: usize| {
        let word: &[u8; 8] = bytes[i * 8..i * 8 + 8].try_into().expect("8-byte word");
        u64::from_le_bytes(*word)
    };
    let word0 = w(0);
    Capability::from_raw_parts(
        tag,
        w(2),
        w(3),
        w(1),
        Perms::from_bits(word0 as u16),
        (word0 >> 32) as u32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn null_encodes_to_mostly_zero() {
        let bytes = encode_capability(&Capability::null());
        // The otype field of an unsealed cap is the sentinel; all other
        // bytes are zero.
        assert!(bytes[8..].iter().all(|&b| b == 0));
        assert_eq!(&bytes[0..2], &[0, 0]);
    }

    #[test]
    fn tag_is_out_of_band() {
        let c = Capability::new_mem(0x1000, 64, Perms::data());
        let bytes = encode_capability(&c);
        let untagged = decode_capability(&bytes, false);
        assert!(!untagged.tag());
        assert_eq!(untagged.base(), c.base());
    }

    #[test]
    fn sealed_state_survives_encoding() {
        let sealer = Capability::new_mem(0x7, 1, Perms::all());
        let c = Capability::new_mem(0x1000, 64, Perms::data())
            .seal(&sealer)
            .unwrap();
        let back = decode_capability(&encode_capability(&c), true);
        assert_eq!(back, c);
        assert!(back.is_sealed());
    }

    proptest! {
        #[test]
        fn round_trip_arbitrary_caps(
            base in 0u64..u64::MAX / 2,
            len in 0u64..u64::MAX / 4,
            off in any::<u64>(),
            perm_bits in any::<u16>(),
            tag in any::<bool>(),
        ) {
            let c = Capability::new_mem(base, len, Perms::from_bits(perm_bits))
                .set_offset(off).unwrap();
            let c = if tag { c } else { c.clear_tag() };
            let back = decode_capability(&encode_capability(&c), tag);
            prop_assert_eq!(back, c);
        }

        #[test]
        fn intcap_round_trip(v in any::<u64>()) {
            let c = Capability::from_int(v);
            let back = decode_capability(&encode_capability(&c), false);
            prop_assert_eq!(back.offset(), v);
            prop_assert!(!back.tag());
        }
    }
}
