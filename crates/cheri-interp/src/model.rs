//! The memory-model rule table: the few independent choices that tell the
//! seven interpretations of the C abstract machine apart.
//!
//! [`ModelKind::rules`] is the only place a model's behaviour is chosen.
//! The interpreter executes the [`Rules`] (`models.rs`); the static lint
//! reads the same table over its abstract facts.

use crate::layout::TargetInfo;
use std::error::Error;
use std::fmt;

/// Which interpretation of the C abstract machine a model implements
/// (the rows of the paper's Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// x86/MIPS/PDP-11: pointers are integers, no checking.
    Pdp11,
    /// HardBound (Devietti et al.): fat pointers in a shadow space,
    /// fails closed when provenance is lost.
    HardBound,
    /// Intel MPX: bounds in look-aside tables keyed by pointer location;
    /// on mismatch the check succeeds unconditionally (fails open).
    Mpx,
    /// The paper's *Relaxed* interpreter: integers can become pointers as
    /// long as the target object is still live (live-object map lookup).
    Relaxed,
    /// The paper's *Strict* interpreter: pointers survive integer round
    /// trips only if the integer is never modified.
    Strict,
    /// CHERI ISAv2: capabilities without an offset; pointer arithmetic
    /// monotonically consumes bounds; no subtraction.
    CheriV2,
    /// CHERI ISAv3 (the paper's contribution): fat capabilities with a
    /// free-roaming offset, checked at dereference.
    CheriV3,
}

impl ModelKind {
    /// All models, in the paper's Table 3 row order.
    pub const ALL: [ModelKind; 7] = [
        ModelKind::Pdp11,
        ModelKind::HardBound,
        ModelKind::Mpx,
        ModelKind::Relaxed,
        ModelKind::Strict,
        ModelKind::CheriV2,
        ModelKind::CheriV3,
    ];

    /// The display name used in the Table 3 harness.
    pub fn display_name(self) -> &'static str {
        match self {
            ModelKind::Pdp11 => "x86/MIPS/PDP-11",
            ModelKind::HardBound => "HardBound",
            ModelKind::Mpx => "Intel MPX",
            ModelKind::Relaxed => "Relaxed",
            ModelKind::Strict => "Strict",
            ModelKind::CheriV2 => "CHERIv2",
            ModelKind::CheriV3 => "CHERIv3",
        }
    }

    /// The model's rules. HardBound and Strict share theirs: both are
    /// fail-closed fat pointers, and Table 3 gives them the same row.
    pub fn rules(self) -> Rules {
        let repr = match self {
            ModelKind::Pdp11 => Repr::Addr { live_check: false },
            ModelKind::Relaxed => Repr::Addr { live_check: true },
            ModelKind::HardBound | ModelKind::Strict => Repr::Fat {
                fail_open: false,
                narrows_fields: false,
            },
            ModelKind::Mpx => Repr::Fat {
                fail_open: true,
                narrows_fields: true,
            },
            ModelKind::CheriV2 => Repr::Cap { offset: false },
            ModelKind::CheriV3 => Repr::Cap { offset: true },
        };
        Rules {
            repr,
            const_enforced: self == ModelKind::CheriV2,
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

/// How a pointer carries its metadata, and what that metadata does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Repr {
    /// A bare 64-bit address ([`crate::PtrVal::Plain`]).
    Addr {
        /// A dereference must land inside a live object (*Relaxed*: "allows
        /// pointers to be constructed from integer values as long as the
        /// object is still valid", §5). Without it nothing is checked beyond
        /// the machine's unmapped-page faults (PDP-11).
        live_check: bool,
    },
    /// A fat pointer ([`crate::PtrVal::Fat`]) whose bounds spill to a
    /// machine-managed table keyed by storage address when it is written
    /// to memory (HardBound's shadow space, MPX's look-aside tables).
    Fat {
        /// Lost or desynchronized metadata leaves the pointer unchecked
        /// (MPX) instead of unusable (HardBound, Strict).
        fail_open: bool,
        /// Member access narrows the bounds to the member, which is what
        /// breaks `container_of` (MPX, §5.1).
        narrows_fields: bool,
    },
    /// A CHERI capability ([`crate::PtrVal::Cap`]) in tagged memory.
    Cap {
        /// Arithmetic moves a free-roaming offset, checked only at
        /// dereference (v3). Without it (v2), `p + n` consumes bounds
        /// monotonically, and `p - n`, `p - q` and arithmetic on `intcap_t`
        /// values are unrepresentable.
        offset: bool,
    },
}

/// One model's rules: every choice that distinguishes it from the others.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rules {
    /// The pointer representation.
    pub repr: Repr,
    /// Pointers to `const` lose store permission: the original CHERIv2
    /// compiler's behaviour that "broke a large amount of code" (§4.1).
    pub const_enforced: bool,
}

impl Rules {
    /// Layout parameters (pointer size/alignment, `intptr_t` representation).
    pub fn target(self) -> TargetInfo {
        match self.repr {
            Repr::Cap { .. } => TargetInfo::cheri(),
            Repr::Addr { .. } | Repr::Fat { .. } => TargetInfo::lp64(),
        }
    }

    /// `true` if pointers are capabilities stored via tagged memory.
    pub(crate) fn stores_caps(self) -> bool {
        matches!(self.repr, Repr::Cap { .. })
    }

    /// `true` if pointer metadata spills into the machine-managed shadow
    /// table when a pointer is written to memory.
    pub(crate) fn uses_shadow(self) -> bool {
        matches!(self.repr, Repr::Fat { .. })
    }

    /// `true` unless arithmetic on `intcap_t` values is unrepresentable:
    /// "the original CHERI implementation permitted only storing and
    /// loading of these values" (§5.1).
    pub(crate) fn intcap_arith_allowed(self) -> bool {
        self.repr != Repr::Cap { offset: false }
    }
}

/// Why a model refused an operation. The `kind` string feeds the Table 3
/// failure classification ("bounds", "tag", "permission", "provenance",
/// "unrepresentable").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelError {
    /// Machine-readable category.
    pub kind: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl ModelError {
    /// Builds an error.
    pub fn new(kind: &'static str, msg: impl Into<String>) -> ModelError {
        ModelError {
            kind,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violation: {}", self.kind, self.msg)
    }
}

impl Error for ModelError {}

/// Metadata remembered for a pointer spilled to memory: the machine keys
/// these by storage address, modelling HardBound's shadow space and MPX's
/// bound tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ShadowEntry {
    /// The pointer bits that were stored.
    pub bits: u64,
    /// Object base at store time.
    pub base: u64,
    /// Object length at store time.
    pub len: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_model_has_distinct_rules_but_strict_and_hardbound() {
        for a in ModelKind::ALL {
            assert!(!a.display_name().is_empty());
            for b in ModelKind::ALL {
                let same = a.rules() == b.rules();
                let twins = matches!(
                    (a, b),
                    (ModelKind::HardBound, ModelKind::Strict)
                        | (ModelKind::Strict, ModelKind::HardBound)
                );
                assert_eq!(same, a == b || twins, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn derived_properties() {
        let v2 = ModelKind::CheriV2.rules();
        let v3 = ModelKind::CheriV3.rules();
        assert!(!v2.intcap_arith_allowed() && v3.intcap_arith_allowed());
        assert!(v2.const_enforced && !v3.const_enforced);
        assert_eq!(v3.target(), TargetInfo::cheri());
        for k in [ModelKind::HardBound, ModelKind::Mpx, ModelKind::Strict] {
            assert!(k.rules().uses_shadow() && !k.rules().stores_caps());
        }
        for k in [ModelKind::Pdp11, ModelKind::Relaxed] {
            let r = k.rules();
            assert!(!r.uses_shadow() && !r.stores_caps());
            assert_eq!(r.target(), TargetInfo::lp64());
        }
    }

    #[test]
    fn model_error_display() {
        let e = ModelError::new("bounds", "access past end");
        assert!(e.to_string().contains("bounds"));
    }
}
