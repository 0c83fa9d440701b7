//! The executable reading of the rule table: every pointer operation the
//! interpreter delegates — creation, arithmetic, dereference, conversion to
//! and from integers, reloading from memory — decided by [`Rules`].
//!
//! The interpreter owns memory, scopes and control flow. Each operation
//! here matches on the model's [`Repr`], never on which model it is, so a
//! model's behaviour follows from its row in [`crate::ModelKind::rules`].

use crate::model::{ModelError, Repr, Rules, ShadowEntry};
use crate::value::{IntValue, Prov, PtrVal};
use cheri_c::{CapQual, Type};
use cheri_cap::{CapError, Capability, Perms};
use std::collections::BTreeMap;

/// The live object containing `addr`, if any (`objects`: base → length).
fn object_containing(objects: &BTreeMap<u64, u64>, addr: u64) -> Option<(u64, u64)> {
    let (&base, &len) = objects.range(..=addr).next_back()?;
    (addr < base + len).then_some((base, len))
}

fn cap_of(p: &PtrVal) -> Capability {
    match p {
        PtrVal::Cap(c) => *c,
        // Null constants and the like reach us as plain zeros.
        PtrVal::Plain { addr } | PtrVal::Fat { addr, .. } => Capability::from_int(*addr),
    }
}

fn cap_err(e: CapError) -> ModelError {
    let kind = match e {
        CapError::TagViolation => "tag",
        CapError::SealViolation | CapError::PermissionViolation(_) => "permission",
        CapError::BoundsViolation { .. } | CapError::MonotonicityViolation => "bounds",
        CapError::Unrepresentable(_) => "unrepresentable",
        _ => "capability",
    };
    ModelError::new(kind, e.to_string())
}

impl Rules {
    fn perms_for(self, ty: &Type) -> Perms {
        match ty.cap_qual() {
            CapQual::Input => Perms::input(),
            CapQual::Output => Perms::output(),
            CapQual::Capability | CapQual::None => {
                if self.const_enforced && ty.pointee_is_const() {
                    Perms::input()
                } else {
                    Perms::data()
                }
            }
        }
    }

    /// A pointer rebuilt from raw bits and the bounds that survived with
    /// them (`None`: the metadata was lost or desynchronized).
    fn rebuild(self, addr: u64, bounds: Option<(u64, u64)>) -> PtrVal {
        match (self.repr, bounds) {
            (Repr::Addr { .. }, _) => PtrVal::Plain { addr },
            (Repr::Fat { .. }, Some((base, len))) => PtrVal::Fat { addr, base, len },
            // Fail open: no metadata, no check. Fail closed: a zero-length
            // pointer traps at dereference.
            (Repr::Fat { fail_open, .. }, None) => {
                if fail_open {
                    PtrVal::Plain { addr }
                } else {
                    PtrVal::Fat {
                        addr,
                        base: 0,
                        len: 0,
                    }
                }
            }
            // An integer that is not an intcap_t derives no authority: the
            // result is an untagged capability that traps at dereference.
            (Repr::Cap { .. }, _) => PtrVal::Cap(Capability::from_int(addr)),
        }
    }

    /// A fresh pointer to a new object `[base, base+len)` of type `ty`
    /// (`ty` is the pointer type, for permission derivation).
    pub(crate) fn make_ptr(self, base: u64, len: u64, ty: &Type) -> PtrVal {
        match self.repr {
            Repr::Addr { .. } => PtrVal::Plain { addr: base },
            Repr::Fat { .. } => PtrVal::Fat {
                addr: base,
                base,
                len,
            },
            Repr::Cap { .. } => PtrVal::Cap(Capability::new_mem(base, len, self.perms_for(ty))),
        }
    }

    /// Re-qualifies a pointer when it is converted/assigned to type `ty`
    /// (CHERI dropping store permission for `__input`).
    pub(crate) fn adjust_for_type(self, p: PtrVal, ty: &Type) -> PtrVal {
        let PtrVal::Cap(c) = p else { return p };
        match c.and_perms(self.perms_for(ty)) {
            Ok(adj) => PtrVal::Cap(adj),
            Err(_) => p, // untagged/sealed values pass through unchanged
        }
    }

    /// `p + delta` in bytes.
    ///
    /// # Errors
    ///
    /// A capability without an offset cannot move backwards or leave its
    /// bounds.
    pub(crate) fn ptr_add(self, p: &PtrVal, delta: i64) -> Result<PtrVal, ModelError> {
        let moved = |addr: u64| addr.wrapping_add(delta as u64);
        match (self.repr, *p) {
            (Repr::Cap { offset: true }, _) => {
                Ok(PtrVal::Cap(cap_of(p).inc_offset(delta).map_err(cap_err)?))
            }
            // Addition consumes bounds; subtraction is unrepresentable.
            (Repr::Cap { offset: false }, _) => {
                if delta < 0 {
                    return Err(ModelError::new(
                        "unrepresentable",
                        "CHERIv2 capabilities cannot move backwards (pointer subtraction)",
                    ));
                }
                let c = cap_of(p);
                if delta == 0 {
                    return Ok(PtrVal::Cap(c));
                }
                Ok(PtrVal::Cap(c.inc_base(delta as u64).map_err(cap_err)?))
            }
            (_, PtrVal::Fat { addr, base, len }) => Ok(PtrVal::Fat {
                addr: moved(addr),
                base,
                len,
            }),
            _ => Ok(PtrVal::Plain {
                addr: moved(p.addr()),
            }),
        }
    }

    /// `a - b` in bytes.
    ///
    /// # Errors
    ///
    /// A capability without an offset cannot subtract pointers at all.
    pub(crate) fn ptr_diff(self, a: &PtrVal, b: &PtrVal) -> Result<i64, ModelError> {
        if self.repr == (Repr::Cap { offset: false }) {
            return Err(ModelError::new(
                "unrepresentable",
                "CHERIv2 does not support pointer subtraction",
            ));
        }
        Ok(a.addr().wrapping_sub(b.addr()) as i64)
    }

    /// Derives a pointer to a field at `off` with size `size`. A narrowing
    /// fat pointer re-makes its bounds for the member; everything else
    /// treats this as plain arithmetic.
    ///
    /// # Errors
    ///
    /// As for [`Rules::ptr_add`].
    pub(crate) fn narrow_field(
        self,
        p: &PtrVal,
        off: u64,
        size: u64,
    ) -> Result<PtrVal, ModelError> {
        let narrows = matches!(
            self.repr,
            Repr::Fat {
                narrows_fields: true,
                ..
            }
        );
        match *p {
            // The compiler emits BNDMK for the member's own extent — but only
            // after the usual BNDCL/BNDCU of the field against the pointer's
            // *current* bounds. A field "derived" outside those bounds keeps
            // them, so the subsequent access faults (this is what breaks
            // container_of, §5.1).
            PtrVal::Fat { addr, base, len } if narrows => {
                let addr = addr.wrapping_add(off);
                Ok(if addr >= base && addr.wrapping_add(size) <= base + len {
                    PtrVal::Fat {
                        addr,
                        base: addr,
                        len: size,
                    }
                } else {
                    PtrVal::Fat { addr, base, len }
                })
            }
            _ => self.ptr_add(p, off as i64),
        }
    }

    /// Validates an access of `len` bytes through `p`, returning the
    /// virtual address to read or write. `objects` are the live objects
    /// (base → length): globals, string literals, live heap blocks and
    /// in-scope locals.
    ///
    /// # Errors
    ///
    /// The model's bounds/tag/permission discipline.
    pub(crate) fn deref(
        self,
        objects: &BTreeMap<u64, u64>,
        p: &PtrVal,
        len: u64,
        write: bool,
    ) -> Result<u64, ModelError> {
        match (self.repr, *p) {
            (Repr::Addr { live_check: false }, _) => Ok(p.addr()),
            (Repr::Addr { live_check: true }, _) => {
                let addr = p.addr();
                match object_containing(objects, addr) {
                    Some((base, olen)) if addr.wrapping_add(len) <= base + olen => Ok(addr),
                    _ => Err(ModelError::new(
                        "bounds",
                        format!("{addr:#x} is not within any live object"),
                    )),
                }
            }
            (Repr::Cap { .. }, _) => {
                let perm = if write { Perms::STORE } else { Perms::LOAD };
                cap_of(p).check_access(len, perm).map_err(cap_err)
            }
            (Repr::Fat { fail_open, .. }, PtrVal::Plain { addr }) => {
                if fail_open {
                    Ok(addr) // metadata lost: the check succeeds unconditionally
                } else {
                    Err(ModelError::new(
                        "provenance",
                        format!("unbounded pointer {addr:#x}"),
                    ))
                }
            }
            (Repr::Fat { .. }, PtrVal::Fat { addr, len: 0, .. }) => Err(ModelError::new(
                "provenance",
                format!("pointer {addr:#x} lost its bounds; failing closed"),
            )),
            (
                Repr::Fat { .. },
                PtrVal::Fat {
                    addr,
                    base,
                    len: olen,
                },
            ) => {
                if addr >= base && addr.wrapping_add(len) <= base + olen {
                    Ok(addr)
                } else {
                    Err(ModelError::new(
                        "bounds",
                        format!(
                            "access of {len} at {addr:#x} outside [{base:#x}, {:#x})",
                            base + olen
                        ),
                    ))
                }
            }
            (Repr::Fat { .. }, PtrVal::Cap(_)) => {
                unreachable!("fat models never hold capabilities")
            }
        }
    }

    /// Converts a pointer to a plain integer of `width` bytes (the **Int**
    /// and **Wide** idioms). A fat pointer's bounds travel on a full-width
    /// result as provenance; a capability does not survive conversion to a
    /// *plain* integer (`intcap_t`, handled by the machine, is the supported
    /// round trip).
    pub(crate) fn ptr_to_int(self, p: &PtrVal, width: u8, signed: bool) -> IntValue {
        let mut iv = IntValue::new(p.addr() as i64, width, signed);
        if let PtrVal::Fat { base, len, .. } = *p {
            if width == 8 && len != 0 {
                iv.prov = Some(Prov {
                    base,
                    len,
                    modified: false,
                });
            }
        }
        iv
    }

    /// Reconstructs a pointer from an integer: fat pointers recover their
    /// bounds only from unmodified provenance.
    pub(crate) fn int_to_ptr(self, v: &IntValue) -> PtrVal {
        let bounds = v.prov.filter(|p| !p.modified).map(|p| (p.base, p.len));
        self.rebuild(v.v, bounds)
    }

    /// Materializes a pointer loaded from memory, given the raw bits and
    /// the shadow entry (if any) recorded at the storage address.
    /// Capabilities load through tagged memory instead; reaching here with
    /// one means the storage was overwritten by data.
    pub(crate) fn load_ptr_bits(self, bits: u64, shadow: Option<&ShadowEntry>) -> PtrVal {
        let bounds = shadow.filter(|e| e.bits == bits).map(|e| (e.base, e.len));
        self.rebuild(bits, bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;

    fn ty_ip() -> Type {
        Type::ptr_to(Type::int())
    }

    const NONE: &BTreeMap<u64, u64> = &BTreeMap::new();

    #[test]
    fn object_lookup() {
        let objects: BTreeMap<u64, u64> = [(0x100, 0x10), (0x200, 0x8)].into_iter().collect();
        assert_eq!(object_containing(&objects, 0x100), Some((0x100, 0x10)));
        assert_eq!(object_containing(&objects, 0x10F), Some((0x100, 0x10)));
        assert_eq!(object_containing(&objects, 0x110), None);
        assert_eq!(object_containing(&objects, 0x207), Some((0x200, 8)));
        assert_eq!(object_containing(&objects, 0x50), None);
    }

    #[test]
    fn pdp11_never_checks() {
        let m = ModelKind::Pdp11.rules();
        let p = m.make_ptr(0x1000, 16, &ty_ip());
        let q = m.ptr_add(&p, 1 << 20).unwrap();
        assert!(m.deref(NONE, &q, 8, true).is_ok());
    }

    #[test]
    fn hardbound_bounds_and_fail_closed() {
        let m = ModelKind::HardBound.rules();
        let p = m.make_ptr(0x1000, 16, &ty_ip());
        assert!(m.deref(NONE, &p, 16, false).is_ok());
        let oob = m.ptr_add(&p, 16).unwrap();
        assert_eq!(m.deref(NONE, &oob, 1, false).unwrap_err().kind, "bounds");
        // Round trip through modified integer: fail closed.
        let iv = m.ptr_to_int(&p, 8, false).touch_prov();
        let back = m.int_to_ptr(&iv);
        assert_eq!(
            m.deref(NONE, &back, 1, false).unwrap_err().kind,
            "provenance"
        );
    }

    #[test]
    fn hardbound_unmodified_round_trip_restores() {
        let m = ModelKind::HardBound.rules();
        let p = m.make_ptr(0x1000, 16, &ty_ip());
        let back = m.int_to_ptr(&m.ptr_to_int(&p, 8, false));
        assert!(m.deref(NONE, &back, 8, false).is_ok());
    }

    #[test]
    fn mpx_fails_open_on_lost_metadata() {
        let m = ModelKind::Mpx.rules();
        let p = m.make_ptr(0x1000, 16, &ty_ip());
        let back = m.int_to_ptr(&m.ptr_to_int(&p, 8, false).touch_prov());
        // Metadata is gone, so the access is unchecked: fail open.
        assert!(m.deref(NONE, &back, 1 << 20, false).is_ok());
    }

    #[test]
    fn mpx_narrowing_breaks_container() {
        let m = ModelKind::Mpx.rules();
        let outer = m.make_ptr(0x1000, 24, &ty_ip());
        let field = m.narrow_field(&outer, 8, 4).unwrap();
        assert!(m.deref(NONE, &field, 4, false).is_ok());
        // container_of: subtract back to the struct start, then use it.
        let back = m.ptr_add(&field, -8).unwrap();
        assert_eq!(m.deref(NONE, &back, 24, false).unwrap_err().kind, "bounds");
    }

    #[test]
    fn shadow_reload_restores_only_matching_bits() {
        let e = ShadowEntry {
            bits: 0x1008,
            base: 0x1000,
            len: 16,
        };
        for k in [ModelKind::HardBound, ModelKind::Mpx] {
            let m = k.rules();
            assert!(m
                .deref(NONE, &m.load_ptr_bits(0x1008, Some(&e)), 8, false)
                .is_ok());
        }
        // Overwritten bits: HardBound fails closed, MPX fails open.
        let hb = ModelKind::HardBound.rules();
        let stale = hb.load_ptr_bits(0x2000, Some(&e));
        assert_eq!(
            hb.deref(NONE, &stale, 1, false).unwrap_err().kind,
            "provenance"
        );
        let mpx = ModelKind::Mpx.rules();
        assert!(mpx
            .deref(NONE, &mpx.load_ptr_bits(0x2000, Some(&e)), 1, false)
            .is_ok());
    }

    #[test]
    fn relaxed_reconstructs_from_live_objects() {
        let m = ModelKind::Relaxed.rules();
        let objs: BTreeMap<u64, u64> = [(0x1000, 16)].into_iter().collect();
        let p = m.int_to_ptr(&IntValue::new(0x1008, 8, false));
        assert!(m.deref(&objs, &p, 8, false).is_ok());
        // Freeing the object (removing it) kills the pointer.
        assert_eq!(m.deref(NONE, &p, 8, false).unwrap_err().kind, "bounds");
    }

    #[test]
    fn strict_rejects_modified_round_trip() {
        let m = ModelKind::Strict.rules();
        let p = m.make_ptr(0x1000, 16, &ty_ip());
        let iv = m.ptr_to_int(&p, 8, false);
        assert!(m.deref(NONE, &m.int_to_ptr(&iv), 8, false).is_ok());
        let bad = m.int_to_ptr(&iv.touch_prov());
        assert_eq!(
            m.deref(NONE, &bad, 1, false).unwrap_err().kind,
            "provenance"
        );
    }

    #[test]
    fn cheriv2_monotonicity() {
        let m = ModelKind::CheriV2.rules();
        let p = m.make_ptr(0x1000, 16, &ty_ip());
        assert_eq!(m.ptr_add(&p, -4).unwrap_err().kind, "unrepresentable");
        assert_eq!(m.ptr_add(&p, 32).unwrap_err().kind, "bounds");
        assert!(m.ptr_diff(&p, &p).is_err());
    }

    #[test]
    fn cheriv3_roams_then_checks() {
        let m = ModelKind::CheriV3.rules();
        let p = m.make_ptr(0x1000, 16, &ty_ip());
        let out = m.ptr_add(&p, 100).unwrap();
        assert_eq!(m.deref(NONE, &out, 1, false).unwrap_err().kind, "bounds");
        let back = m.ptr_add(&out, -92).unwrap();
        assert!(m.deref(NONE, &back, 8, false).is_ok());
        assert_eq!(m.ptr_diff(&back, &p).unwrap(), 8);
    }

    #[test]
    fn cheri_plain_int_round_trip_is_untagged() {
        for k in [ModelKind::CheriV2, ModelKind::CheriV3] {
            let m = k.rules();
            let p = m.make_ptr(0x1000, 16, &ty_ip());
            let back = m.int_to_ptr(&m.ptr_to_int(&p, 8, false));
            assert_eq!(m.deref(NONE, &back, 1, false).unwrap_err().kind, "tag");
        }
    }

    #[test]
    fn cheri_const_enforcement_differs() {
        let const_ptr = Type::Ptr {
            pointee: Box::new(Type::char_()),
            is_const: true,
            qual: CapQual::None,
        };
        // v2: store permission stripped; write traps even after deconst.
        let m2 = ModelKind::CheriV2.rules();
        let p2 = m2.make_ptr(0x1000, 16, &const_ptr);
        assert_eq!(m2.deref(NONE, &p2, 1, true).unwrap_err().kind, "permission");
        // v3: const is advisory; the write is allowed.
        let m3 = ModelKind::CheriV3.rules();
        let p3 = m3.make_ptr(0x1000, 16, &const_ptr);
        assert!(m3.deref(NONE, &p3, 1, true).is_ok());
    }

    #[test]
    fn cheri_input_qualifier_enforced_in_both() {
        let input_ptr = Type::Ptr {
            pointee: Box::new(Type::char_()),
            is_const: false,
            qual: CapQual::Input,
        };
        for k in [ModelKind::CheriV2, ModelKind::CheriV3] {
            let m = k.rules();
            let p = m.make_ptr(0x1000, 16, &Type::ptr_to(Type::char_()));
            let narrowed = m.adjust_for_type(p, &input_ptr);
            assert!(m.deref(NONE, &narrowed, 1, false).is_ok());
            assert_eq!(
                m.deref(NONE, &narrowed, 1, true).unwrap_err().kind,
                "permission"
            );
        }
    }
}
