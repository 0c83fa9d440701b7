//! The capability type and its CHERIv2 / CHERIv3 operations.

use crate::{CapError, CapResult, Perms};
use std::fmt;

/// Maximum object type usable for sealing (24-bit space, as in CHERI ISAv3).
pub const OTYPE_MAX: u32 = (1 << 24) - 1;

/// Sentinel in the packed representation meaning "unsealed".
const OTYPE_UNSEALED: u32 = u32::MAX;

/// Whether a capability is sealed, and with which object type.
///
/// Sealing makes a capability immutable and non-dereferenceable until
/// unsealed with a matching authority; it is the mechanism behind
/// `CJALR`-based protected calls (paper §4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SealedState {
    /// The capability can be dereferenced and manipulated normally.
    Unsealed,
    /// The capability is sealed with the given object type.
    Sealed(u32),
}

/// A CHERI memory capability: an unforgeable, bounds-carrying reference.
///
/// The CHERIv3 representation from the paper:
/// `(base, length, offset, permissions)` plus a validity *tag* and an
/// optional seal. The *address* the capability refers to is
/// `base + offset` (wrapping); the dereferenceable region is
/// `[base, base + length)`.
///
/// Two families of operations mirror the two ISA generations:
///
/// * CHERIv2-style: [`Capability::inc_base`], [`Capability::set_length`],
///   [`Capability::and_perms`] — all strictly monotonic (rights only shrink).
/// * CHERIv3 additions (Table 2 of the paper): [`Capability::inc_offset`]
///   (`CIncOffset`), [`Capability::set_offset`] (`CSetOffset`),
///   [`Capability::offset`] (`CGetOffset`), plus [`Capability::to_ptr`]
///   (`CToPtr`), [`Capability::from_ptr`] (`CFromPtr`) and
///   [`crate::ptr_cmp`] (`CPtrCmp`).
///
/// Untagged capabilities double as the `intcap_t` type: an integer stored in
/// the offset of the canonical [`Capability::null`] capability.
///
/// # Example
///
/// ```
/// use cheri_cap::{Capability, Perms};
/// let c = Capability::new_mem(0x4000, 256, Perms::data());
/// let p = c.inc_offset(16).unwrap();
/// assert_eq!(p.address(), 0x4010);
/// assert_eq!(p.length(), 256); // CHERIv3: bounds unchanged by arithmetic
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capability {
    tag: bool,
    base: u64,
    length: u64,
    offset: u64,
    perms: Perms,
    otype: u32,
}

impl Capability {
    /// The canonical null capability: all fields zero, tag clear.
    ///
    /// Produced by `CFromPtr(ddc, 0)` to honour C's null-pointer semantics
    /// (paper §4.2). Because it is untagged it can never become a valid
    /// capability, but arithmetic on its offset is permitted — this is how
    /// `mmap()` can return `-1` and how `intcap_t` holds integers.
    pub fn null() -> Capability {
        Capability {
            tag: false,
            base: 0,
            length: 0,
            offset: 0,
            perms: Perms::NONE,
            otype: OTYPE_UNSEALED,
        }
    }

    /// Creates a tagged, unsealed capability for `[base, base + length)`.
    ///
    /// This models the authority handed out by the memory allocator, linker,
    /// or stack-capability derivation — the only sources of fresh tagged
    /// capabilities in a CHERI system.
    ///
    /// # Panics
    ///
    /// Panics if `base + length` overflows the 64-bit address space; real
    /// allocators never hand out such regions and the invariant
    /// `base + length <= 2^64` is relied upon by bounds checking.
    pub fn new_mem(base: u64, length: u64, perms: Perms) -> Capability {
        assert!(
            base.checked_add(length).is_some(),
            "capability region [{base:#x}, {base:#x} + {length:#x}) overflows the address space"
        );
        Capability {
            tag: true,
            base,
            length,
            offset: 0,
            perms,
            otype: OTYPE_UNSEALED,
        }
    }

    /// An `intcap_t` value: the integer `value` stored in the offset of the
    /// canonical null capability. Never tagged, never dereferenceable, and
    /// never equal (under [`crate::ptr_cmp`]) to any valid capability.
    pub fn from_int(value: u64) -> Capability {
        let mut c = Capability::null();
        c.offset = value;
        c
    }

    /// Reconstructs a capability from raw fields, e.g. when decoding the
    /// 256-bit in-memory representation. No invariant is enforced beyond
    /// masking the seal field: untagged garbage is representable by design
    /// (a plain store may have scribbled over a capability, clearing its
    /// tag but leaving arbitrary bytes).
    pub(crate) fn from_raw_parts(
        tag: bool,
        base: u64,
        length: u64,
        offset: u64,
        perms: Perms,
        otype: u32,
    ) -> Capability {
        Capability {
            tag,
            base,
            length,
            offset,
            perms,
            otype,
        }
    }

    // --- Field accessors (CGetBase / CGetLen / CGetOffset / CGetPerm / CGetTag) ---

    /// The region's first byte (`CGetBase`).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The region's size in bytes (`CGetLen`).
    pub fn length(&self) -> u64 {
        self.length
    }

    /// The pointer's offset from `base` (`CGetOffset`, new in CHERIv3).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The permissions this capability grants (`CGetPerm`).
    pub fn perms(&self) -> Perms {
        self.perms
    }

    /// The validity tag (`CGetTag`). Clear means "just data".
    pub fn tag(&self) -> bool {
        self.tag
    }

    /// The virtual address the capability currently points at:
    /// `base + offset`, wrapping. The CHERIv3 pipeline computes this in the
    /// address-calculation stage (paper §4.1: "the virtual address
    /// calculation ... is now done by adding the offset to the pointer").
    pub fn address(&self) -> u64 {
        self.base.wrapping_add(self.offset)
    }

    /// One past the last byte of the dereferenceable region.
    pub fn top(&self) -> u64 {
        // new_mem guarantees no overflow for capabilities we construct;
        // saturate for decoded garbage.
        self.base.saturating_add(self.length)
    }

    /// `true` if this is exactly the canonical null capability.
    pub fn is_null(&self) -> bool {
        !self.tag
            && self.base == 0
            && self.length == 0
            && self.offset == 0
            && self.perms.is_empty()
            && self.otype == OTYPE_UNSEALED
    }

    /// The sealing state.
    pub fn sealed_state(&self) -> SealedState {
        if self.otype == OTYPE_UNSEALED {
            SealedState::Unsealed
        } else {
            SealedState::Sealed(self.otype)
        }
    }

    /// `true` if the capability is sealed.
    pub fn is_sealed(&self) -> bool {
        self.otype != OTYPE_UNSEALED
    }

    /// The raw seal field as stored in memory (used by the encoder).
    pub(crate) fn otype_raw(&self) -> u32 {
        self.otype
    }

    // --- Monotonic (CHERIv2-era) manipulations ---

    /// `CIncBase`: advance `base` by `delta`, shrinking `length` to match.
    ///
    /// This is how a CHERIv2 compiler lowers `p + n`: the resulting
    /// capability's rights are a strict subset, so the operation is
    /// monotonic — and `p - n` is consequently unrepresentable.
    /// Per the paper (§4.1) the offset, where present, is preserved, so the
    /// address moves with the base.
    ///
    /// # Errors
    ///
    /// * [`CapError::TagViolation`] if untagged.
    /// * [`CapError::SealViolation`] if sealed.
    /// * [`CapError::MonotonicityViolation`] if `delta > length` (the base
    ///   may never pass the top).
    pub fn inc_base(&self, delta: u64) -> CapResult<Capability> {
        self.require_unsealed_tagged()?;
        if delta > self.length {
            return Err(CapError::MonotonicityViolation);
        }
        let mut c = *self;
        c.base += delta; // cannot overflow: base + delta <= base + length <= 2^64 - 1 checked at new_mem
        c.length -= delta;
        Ok(c)
    }

    /// `CSetLen`: shrink the region to `new_length` bytes.
    ///
    /// # Errors
    ///
    /// * [`CapError::TagViolation`] / [`CapError::SealViolation`] as usual.
    /// * [`CapError::MonotonicityViolation`] if `new_length > length`.
    pub fn set_length(&self, new_length: u64) -> CapResult<Capability> {
        self.require_unsealed_tagged()?;
        if new_length > self.length {
            return Err(CapError::MonotonicityViolation);
        }
        let mut c = *self;
        c.length = new_length;
        Ok(c)
    }

    /// `CAndPerm`: intersect the permission set with `mask`.
    ///
    /// Used to derive `__input` (drop [`Perms::STORE`]) and `__output`
    /// (drop [`Perms::LOAD`]) views of an object, and to strip
    /// [`Perms::STORE_CAP`] before sharing memory with an untrusted domain.
    ///
    /// # Errors
    ///
    /// [`CapError::TagViolation`] / [`CapError::SealViolation`].
    pub fn and_perms(&self, mask: Perms) -> CapResult<Capability> {
        self.require_unsealed_tagged()?;
        let mut c = *self;
        c.perms = c.perms & mask;
        Ok(c)
    }

    // --- CHERIv3 fat-pointer manipulations (Table 2) ---

    /// `CIncOffset`: add `delta` (signed, wrapping) to the offset.
    ///
    /// The heart of the CHERIv3 refinement: pointer arithmetic no longer
    /// consumes rights, so invalid *intermediate* results (idiom **II**) and
    /// pointer subtraction (idiom **Sub**) just work; safety is enforced at
    /// dereference by [`Capability::check_access`].
    ///
    /// Permitted on untagged capabilities too — that is precisely how
    /// `intcap_t` arithmetic (idiom **IA**) is carried out without ever
    /// minting a forged pointer.
    ///
    /// # Errors
    ///
    /// [`CapError::SealViolation`] if the capability is tagged *and* sealed
    /// (sealed capabilities are immutable).
    pub fn inc_offset(&self, delta: i64) -> CapResult<Capability> {
        if self.tag && self.is_sealed() {
            return Err(CapError::SealViolation);
        }
        let mut c = *self;
        c.offset = c.offset.wrapping_add(delta as u64);
        Ok(c)
    }

    /// `CSetOffset`: replace the offset outright.
    ///
    /// # Errors
    ///
    /// [`CapError::SealViolation`] if tagged and sealed.
    pub fn set_offset(&self, offset: u64) -> CapResult<Capability> {
        if self.tag && self.is_sealed() {
            return Err(CapError::SealViolation);
        }
        let mut c = *self;
        c.offset = offset;
        Ok(c)
    }

    /// Sets bounds to `[address(), address() + length)`, i.e. re-derives a
    /// tighter object capability at the current cursor (`CSetBounds` — used
    /// by allocators and by the compiler for stack allocations).
    ///
    /// # Errors
    ///
    /// * Usual tag/seal violations.
    /// * [`CapError::BoundsViolation`] if the requested region is not
    ///   contained in the current one (monotonicity).
    pub fn set_bounds(&self, length: u64) -> CapResult<Capability> {
        self.require_unsealed_tagged()?;
        let addr = self.address();
        let new_top = addr
            .checked_add(length)
            .ok_or(CapError::ArithmeticOverflow)?;
        if addr < self.base || new_top > self.top() {
            return Err(CapError::BoundsViolation { addr, len: length });
        }
        let mut c = *self;
        c.base = addr;
        c.length = length;
        c.offset = 0;
        Ok(c)
    }

    /// `CClearTag`: forget that this is a capability, keeping the bits.
    pub fn clear_tag(&self) -> Capability {
        let mut c = *self;
        c.tag = false;
        c
    }

    // --- Sealing (extension exercised by CJALR protected calls) ---

    /// Seals this capability with the object type named by `authority`'s
    /// address. The result is immutable and non-dereferenceable until
    /// unsealed with a matching authority.
    ///
    /// # Errors
    ///
    /// * Tag/seal violations on either operand.
    /// * [`CapError::PermissionViolation`] if `authority` lacks
    ///   [`Perms::SEAL`].
    /// * [`CapError::BoundsViolation`] if the authority's address exceeds
    ///   [`OTYPE_MAX`].
    pub fn seal(&self, authority: &Capability) -> CapResult<Capability> {
        self.require_unsealed_tagged()?;
        authority.require_unsealed_tagged()?;
        if !authority.perms.contains(Perms::SEAL) {
            return Err(CapError::PermissionViolation(Perms::SEAL));
        }
        let otype = authority.address();
        if otype > OTYPE_MAX as u64 {
            return Err(CapError::BoundsViolation {
                addr: otype,
                len: 1,
            });
        }
        let mut c = *self;
        c.otype = otype as u32;
        Ok(c)
    }

    /// Unseals a sealed capability whose object type matches `authority`'s
    /// address.
    ///
    /// # Errors
    ///
    /// * [`CapError::SealViolation`] if `self` is not sealed or the types
    ///   do not match.
    /// * Permission/tag errors on `authority` as for [`Capability::seal`].
    pub fn unseal(&self, authority: &Capability) -> CapResult<Capability> {
        if !self.tag {
            return Err(CapError::TagViolation);
        }
        let SealedState::Sealed(otype) = self.sealed_state() else {
            return Err(CapError::SealViolation);
        };
        authority.require_unsealed_tagged()?;
        if !authority.perms.contains(Perms::SEAL) {
            return Err(CapError::PermissionViolation(Perms::SEAL));
        }
        if authority.address() != otype as u64 {
            return Err(CapError::SealViolation);
        }
        let mut c = *self;
        c.otype = OTYPE_UNSEALED;
        Ok(c)
    }

    // --- Hybrid interoperability (CFromPtr / CToPtr) ---

    /// `CFromPtr`: derive a capability from an integer pointer `ptr`
    /// interpreted relative to `base_cap` (usually the default data
    /// capability).
    ///
    /// The special case `ptr == 0` yields the canonical null capability, to
    /// adhere to C's null-pointer semantics (paper §4.2).
    ///
    /// # Errors
    ///
    /// Tag/seal violations on `base_cap`.
    pub fn from_ptr(base_cap: &Capability, ptr: u64) -> CapResult<Capability> {
        if ptr == 0 {
            return Ok(Capability::null());
        }
        base_cap.require_unsealed_tagged()?;
        base_cap.set_offset(ptr)
    }

    /// `CToPtr`: the capability's address as an offset from `base_cap`, or
    /// `0` if this capability is untagged or points outside `base_cap`'s
    /// region.
    ///
    /// Bounds information is *not* carried by the result — this is the
    /// lossy, hybrid-environment direction, to be used carefully (paper
    /// §4.2).
    pub fn to_ptr(&self, base_cap: &Capability) -> u64 {
        if !self.tag {
            return 0;
        }
        let addr = self.address();
        if addr >= base_cap.base() && addr <= base_cap.top() {
            addr - base_cap.base()
        } else {
            0
        }
    }

    // --- Dereference checking ---

    /// Validates an access of `len` bytes at the current address requiring
    /// `required` permissions, returning the absolute address on success.
    ///
    /// This is the check the load/store pipeline stage performs in parallel
    /// with the cache fetch: resulting address against base *and* top
    /// (paper §4.1: "extended in length by one OR operation").
    ///
    /// # Errors
    ///
    /// * [`CapError::TagViolation`] — forged or integer-typed value.
    /// * [`CapError::SealViolation`] — sealed capabilities cannot be
    ///   dereferenced.
    /// * [`CapError::PermissionViolation`] — missing permission.
    /// * [`CapError::BoundsViolation`] — any byte outside
    ///   `[base, base + length)`.
    pub fn check_access(&self, len: u64, required: Perms) -> CapResult<u64> {
        self.check_access_at(self.offset, len, required)
    }

    /// [`Capability::check_access`] as if the offset were `offset`: the
    /// check `set_offset(offset)` followed by `check_access` performs, with
    /// the same errors in the same order, but without building the moved
    /// copy. This is the load/store pipeline's check on a register operand
    /// plus an immediate displacement.
    ///
    /// # Errors
    ///
    /// As [`Capability::check_access`].
    #[inline]
    pub fn check_access_at(&self, offset: u64, len: u64, required: Perms) -> CapResult<u64> {
        if !self.tag {
            return Err(CapError::TagViolation);
        }
        if self.is_sealed() {
            return Err(CapError::SealViolation);
        }
        if !self.perms.contains(required) {
            return Err(CapError::PermissionViolation(required));
        }
        let addr = self.base.wrapping_add(offset);
        // offset may have wrapped; the access is valid iff it lies entirely
        // within [base, top). Work in u128 to dodge overflow corner cases.
        let off = offset as u128;
        if off + len as u128 > self.length as u128 || addr < self.base {
            return Err(CapError::BoundsViolation { addr, len });
        }
        Ok(addr)
    }

    fn require_unsealed_tagged(&self) -> CapResult<()> {
        if !self.tag {
            return Err(CapError::TagViolation);
        }
        if self.is_sealed() {
            return Err(CapError::SealViolation);
        }
        Ok(())
    }
}

impl Default for Capability {
    /// The default capability is the canonical null capability.
    fn default() -> Capability {
        Capability::null()
    }
}

impl fmt::Debug for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cap{{t:{} b:{:#x} l:{:#x} o:{:#x} {:?}{}}}",
            u8::from(self.tag),
            self.base,
            self.length,
            self.offset,
            self.perms,
            match self.sealed_state() {
                SealedState::Unsealed => String::new(),
                SealedState::Sealed(ty) => format!(" sealed:{ty:#x}"),
            }
        )
    }
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap() -> Capability {
        Capability::new_mem(0x1000, 0x100, Perms::data())
    }

    #[test]
    fn null_is_untagged_zero() {
        let n = Capability::null();
        assert!(!n.tag());
        assert!(n.is_null());
        assert_eq!(n.address(), 0);
        assert_eq!(Capability::default(), n);
    }

    #[test]
    fn new_mem_is_tagged_unsealed() {
        let c = cap();
        assert!(c.tag());
        assert!(!c.is_sealed());
        assert_eq!(c.base(), 0x1000);
        assert_eq!(c.length(), 0x100);
        assert_eq!(c.offset(), 0);
        assert_eq!(c.top(), 0x1100);
    }

    #[test]
    #[should_panic(expected = "overflows the address space")]
    fn new_mem_rejects_overflowing_region() {
        let _ = Capability::new_mem(u64::MAX - 4, 16, Perms::data());
    }

    #[test]
    fn inc_offset_moves_address_not_bounds() {
        let c = cap().inc_offset(0x20).unwrap();
        assert_eq!(c.address(), 0x1020);
        assert_eq!(c.base(), 0x1000);
        assert_eq!(c.length(), 0x100);
    }

    #[test]
    fn inc_offset_negative_supports_pointer_subtraction() {
        let c = cap().inc_offset(0x40).unwrap().inc_offset(-0x30).unwrap();
        assert_eq!(c.offset(), 0x10);
    }

    #[test]
    fn out_of_bounds_intermediate_is_allowed_then_checked() {
        // Idiom II: intermediate outside the object, final access inside.
        let c = cap().inc_offset(0x1000).unwrap(); // way past the end
        assert!(c.check_access(1, Perms::LOAD).is_err());
        let back = c.inc_offset(-0xFF0).unwrap();
        assert!(back.check_access(1, Perms::LOAD).is_ok());
    }

    #[test]
    fn inc_base_is_monotonic() {
        let c = cap().inc_base(0x10).unwrap();
        assert_eq!(c.base(), 0x1010);
        assert_eq!(c.length(), 0xF0);
        assert_eq!(
            cap().inc_base(0x101).unwrap_err(),
            CapError::MonotonicityViolation
        );
    }

    #[test]
    fn set_length_cannot_grow() {
        let c = cap().set_length(0x10).unwrap();
        assert_eq!(c.length(), 0x10);
        assert_eq!(
            c.set_length(0x11).unwrap_err(),
            CapError::MonotonicityViolation
        );
    }

    #[test]
    fn and_perms_only_clears() {
        let c = cap().and_perms(Perms::LOAD).unwrap();
        assert_eq!(c.perms(), Perms::LOAD);
        // A second and_perms cannot bring STORE back.
        let c2 = c.and_perms(Perms::all()).unwrap();
        assert_eq!(c2.perms(), Perms::LOAD);
    }

    #[test]
    fn set_bounds_narrows_at_cursor() {
        let c = cap().inc_offset(0x40).unwrap().set_bounds(0x20).unwrap();
        assert_eq!(c.base(), 0x1040);
        assert_eq!(c.length(), 0x20);
        assert_eq!(c.offset(), 0);
        // Cannot exceed parent region.
        let err = cap()
            .inc_offset(0xF0)
            .unwrap()
            .set_bounds(0x20)
            .unwrap_err();
        assert!(matches!(err, CapError::BoundsViolation { .. }));
    }

    #[test]
    fn check_access_enforces_bounds_exactly() {
        let c = cap();
        assert_eq!(c.check_access(0x100, Perms::LOAD).unwrap(), 0x1000);
        assert!(c.check_access(0x101, Perms::LOAD).is_err());
        let end = c.inc_offset(0xFF).unwrap();
        assert!(end.check_access(1, Perms::LOAD).is_ok());
        assert!(end.check_access(2, Perms::LOAD).is_err());
        // One-past-the-end pointers are representable but not dereferenceable.
        let past = c.inc_offset(0x100).unwrap();
        assert!(past.check_access(1, Perms::LOAD).is_err());
        assert!(past.check_access(0, Perms::LOAD).is_ok());
    }

    #[test]
    fn check_access_requires_permission() {
        let ro = cap().and_perms(Perms::input()).unwrap();
        assert!(ro.check_access(4, Perms::LOAD).is_ok());
        assert_eq!(
            ro.check_access(4, Perms::STORE).unwrap_err(),
            CapError::PermissionViolation(Perms::STORE)
        );
    }

    #[test]
    fn untagged_never_dereferences() {
        let c = cap().clear_tag();
        assert_eq!(
            c.check_access(1, Perms::LOAD).unwrap_err(),
            CapError::TagViolation
        );
    }

    #[test]
    fn intcap_arithmetic_works_untagged() {
        // Idiom IA: arbitrary arithmetic on an integer held in a capability.
        let i = Capability::from_int(0x1234);
        let j = i.inc_offset(0x10).unwrap();
        assert_eq!(j.offset(), 0x1244);
        assert!(!j.tag());
        assert!(j.check_access(1, Perms::LOAD).is_err());
    }

    #[test]
    fn wrapped_offset_cannot_sneak_into_bounds() {
        // offset chosen so base + offset wraps around to base + 8.
        let c = cap().set_offset(u64::MAX - 0xFF7).unwrap();
        assert_eq!(c.address(), 0x1000u64.wrapping_add(u64::MAX - 0xFF7));
        assert!(c.check_access(1, Perms::LOAD).is_err());
    }

    #[test]
    fn check_access_at_matches_a_moved_copy() {
        let sealer = Capability::new_mem(0x42, 0x10, Perms::all());
        let caps = [
            cap(),
            cap().inc_offset(0x80).unwrap(),
            cap().clear_tag(),
            cap().seal(&sealer).unwrap(),
            cap().and_perms(Perms::LOAD).unwrap(),
        ];
        let offsets = [0, 8, 0xF8, 0xFF, 0x100, u64::MAX - 0xFF7, u64::MAX];
        for c in caps {
            for off in offsets {
                for len in [0, 1, 8, 32] {
                    for perm in [Perms::LOAD, Perms::STORE | Perms::STORE_CAP] {
                        let moved = c.set_offset(off).and_then(|m| m.check_access(len, perm));
                        // A sealed, tagged capability refuses the move with the
                        // same SealViolation the in-place check reports.
                        assert_eq!(c.check_access_at(off, len, perm), moved, "{c:?} @ {off:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn from_ptr_zero_is_null() {
        let ddc = Capability::new_mem(0, u64::MAX, Perms::all());
        assert!(Capability::from_ptr(&ddc, 0).unwrap().is_null());
        let p = Capability::from_ptr(&ddc, 0x2000).unwrap();
        assert!(p.tag());
        assert_eq!(p.address(), 0x2000);
    }

    #[test]
    fn to_ptr_round_trips_within_base_cap() {
        let ddc = Capability::new_mem(0, u64::MAX, Perms::all());
        let c = cap().inc_offset(4).unwrap();
        assert_eq!(c.to_ptr(&ddc), 0x1004);
        assert_eq!(Capability::null().to_ptr(&ddc), 0);
        // Out of the base capability's range -> 0.
        let small = Capability::new_mem(0x10, 0x10, Perms::data());
        assert_eq!(c.to_ptr(&small), 0);
    }

    #[test]
    fn seal_unseal_round_trip() {
        let sealer = Capability::new_mem(0x42, 0x10, Perms::all());
        let c = cap().seal(&sealer).unwrap();
        assert!(c.is_sealed());
        assert_eq!(c.sealed_state(), SealedState::Sealed(0x42));
        assert_eq!(
            c.check_access(1, Perms::LOAD).unwrap_err(),
            CapError::SealViolation
        );
        assert_eq!(c.inc_offset(1).unwrap_err(), CapError::SealViolation);
        let u = c.unseal(&sealer).unwrap();
        assert!(!u.is_sealed());
        assert!(u.check_access(1, Perms::LOAD).is_ok());
    }

    #[test]
    fn seal_requires_permission_and_range() {
        let no_perm = Capability::new_mem(0x42, 0x10, Perms::data());
        assert_eq!(
            cap().seal(&no_perm).unwrap_err(),
            CapError::PermissionViolation(Perms::SEAL)
        );
        let too_big = Capability::new_mem(1 << 30, 0x10, Perms::all());
        assert!(matches!(
            cap().seal(&too_big).unwrap_err(),
            CapError::BoundsViolation { .. }
        ));
    }

    #[test]
    fn unseal_wrong_authority_fails() {
        let sealer = Capability::new_mem(0x42, 0x10, Perms::all());
        let other = Capability::new_mem(0x43, 0x10, Perms::all());
        let c = cap().seal(&sealer).unwrap();
        assert_eq!(c.unseal(&other).unwrap_err(), CapError::SealViolation);
    }

    #[test]
    fn debug_mentions_fields() {
        let s = format!("{:?}", cap());
        assert!(s.contains("0x1000"));
        assert!(s.contains("0x100"));
    }
}
