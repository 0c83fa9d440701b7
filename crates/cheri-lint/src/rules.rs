//! The abstract reading of the memory-model rule table.
//!
//! [`cheri_interp::ModelKind::rules`] chooses each model's behaviour once;
//! the interpreter executes those [`Rules`] on concrete pointers, and this
//! module reads the same rules over the lint's may-facts. A finding's
//! model set is always `ModelSet::from_fn` over a rules predicate, never a
//! list of model names.

use crate::lattice::ModelSet;
use cheri_interp::{Repr, Rules};

/// What may hold for one dereference. Every field is a may-fact: true if
/// it holds on **some** path reaching the access. Setting a fact can only
/// add a trap, never remove one (the `monotone` test checks this), which
/// is what makes "may-facts in, may-trap out" sound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DerefFacts {
    /// The raw address is damaged (an integer truncated below pointer
    /// width, the **Wide** idiom), so even the unchecked model faults.
    pub truncated: bool,
    /// Nothing is known of the pointer's origin.
    pub wild: bool,
    /// Metadata was lost to a byte-granularity copy.
    pub stripped: bool,
    /// Rebuilt from an arithmetically modified integer, which invalidates
    /// a fat pointer's table entry.
    pub rt_modified: bool,
    /// Rebuilt from a plain (non-capability) integer: no tag follows it.
    pub rt_plain: bool,
    /// The fat pointer's bounds metadata is intact (its MPX bound-table
    /// entry still matches).
    pub meta_intact: bool,
    /// The access leaves the object.
    pub oob: bool,
    /// The access leaves the MPX window: the object, or the member bounds
    /// a field access narrowed it to.
    pub window_oob: bool,
    /// The object is out of scope or freed.
    pub dead: bool,
    /// The pointer is to `const`, or was derived by casting `const` away.
    pub const_target: bool,
}

/// Whether a model with `rules` may trap on an access with `f`. Each arm
/// is the abstract reading of the interpreter's check for the same
/// [`Repr`] (`Rules::deref`) and of how that representation loses its
/// metadata on the way there.
pub fn rules_may_trap(rules: Rules, f: &DerefFacts, write: bool) -> bool {
    let checked = match rules.repr {
        // An address is checked against the live-object map, if at all.
        Repr::Addr { live_check } => live_check && (f.wild || f.dead || f.oob),
        Repr::Fat {
            fail_open,
            narrows_fields,
        } => {
            let window_oob = if narrows_fields { f.window_oob } else { f.oob };
            if fail_open {
                // No (or a desynchronized) table entry means no check.
                f.meta_intact && window_oob
            } else {
                // Lost metadata leaves a zero-length pointer.
                f.stripped || f.rt_modified || f.wild || window_oob
            }
        }
        // The tag dies with any plain-integer round trip or byte copy.
        Repr::Cap { .. } => {
            f.stripped
                || f.rt_plain
                || f.wild
                || f.oob
                || (write && rules.const_enforced && f.const_target)
        }
    };
    // A damaged raw address faults even where nothing is checked.
    f.truncated || checked
}

/// The models whose capabilities carry no offset (CHERIv2): pointer
/// arithmetic consumes bounds monotonically, so `ptr - ptr`, void-pointer
/// arithmetic, a negative or out-of-bounds delta, and arithmetic on a
/// capability-carried integer are unrepresentable.
pub fn offsetless_caps() -> ModelSet {
    ModelSet::from_fn(|m| m.rules().repr == Repr::Cap { offset: false })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_interp::ModelKind;

    /// Number of [`DerefFacts`] fields.
    const FACTS: u32 = 10;

    fn facts(bits: u32) -> DerefFacts {
        let on = |i: u32| bits & (1 << i) != 0;
        DerefFacts {
            truncated: on(0),
            wild: on(1),
            stripped: on(2),
            rt_modified: on(3),
            rt_plain: on(4),
            meta_intact: on(5),
            oob: on(6),
            window_oob: on(7),
            dead: on(8),
            const_target: on(9),
        }
    }

    /// Every fact decides some model's verdict for some access.
    #[test]
    fn every_fact_matters() {
        for i in 0..FACTS {
            let matters = ModelKind::ALL.into_iter().any(|m| {
                [false, true].into_iter().any(|write| {
                    (0..1u32 << FACTS).any(|bits| {
                        rules_may_trap(m.rules(), &facts(bits), write)
                            != rules_may_trap(m.rules(), &facts(bits | 1 << i), write)
                    })
                })
            });
            assert!(matters, "fact {i} never changes a verdict");
        }
    }

    /// Setting any one fact never turns "may trap" into "no trap", for any
    /// fact vector, access kind and model.
    #[test]
    fn monotone() {
        for m in ModelKind::ALL {
            let rules = m.rules();
            for write in [false, true] {
                for bits in 0..1u32 << FACTS {
                    if !rules_may_trap(rules, &facts(bits), write) {
                        continue;
                    }
                    for i in 0..FACTS {
                        assert!(
                            rules_may_trap(rules, &facts(bits | 1 << i), write),
                            "{m}: setting fact {i} on {:?} (write {write}) removes the trap",
                            facts(bits)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn offsetless_caps_is_cheriv2() {
        assert_eq!(offsetless_caps().models(), vec![ModelKind::CheriV2]);
    }
}
