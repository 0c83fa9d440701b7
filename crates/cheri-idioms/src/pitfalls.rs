//! The CRuby-porting pitfall idioms (PAPERS.md: "Adapting CRuby to
//! CHERI/Morello"): provenance-destroying patterns that real ports hit
//! beyond the paper's Table 1 taxonomy.
//!
//! Two pitfalls are modelled, each as a self-contained mini-C program in
//! the style of [`crate::cases`]:
//!
//! * **TagStripCopy** — a pointer byte-copied through a `char` buffer (the
//!   `memcpy`-into-`char[]` pattern). The raw bits survive; the tag, shadow
//!   entry or bounds metadata do not. Fail-open schemes keep running
//!   unchecked, fail-closed schemes and both CHERIs refuse the dereference.
//! * **IntRoundTrip** — a pointer stored in a **plain** `long` (not
//!   `intptr_t`) and cast back. Every 64-bit integer scheme tolerates the
//!   unmodified round trip; on CHERI the capability tag is gone the moment
//!   the value leaves `intcap_t` space, so the reconstructed pointer traps.
//!
//! The pair brackets the paper's **Int** column: `IntRoundTrip` is the
//! *unported* spelling of Int (works everywhere but CHERI), `TagStripCopy`
//! defeats even the schemes Int qualifies under.

use crate::cases::{self, Cell, Support};
use cheri_interp::ModelKind;
use std::fmt;

/// A CRuby-porting pitfall beyond the Table 1 taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pitfall {
    /// Pointer byte-copied through a `char` buffer (tag-stripping memcpy).
    TagStripCopy,
    /// Pointer → plain `long` → pointer round trip.
    IntRoundTrip,
}

impl Pitfall {
    /// Both pitfalls, in matrix column order.
    pub const ALL: [Pitfall; 2] = [Pitfall::TagStripCopy, Pitfall::IntRoundTrip];

    /// Short column header.
    pub fn name(self) -> &'static str {
        match self {
            Pitfall::TagStripCopy => "TagStrip",
            Pitfall::IntRoundTrip => "IntRound",
        }
    }
}

impl fmt::Display for Pitfall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The canonical mini-C test case for `pitfall`.
pub fn source(pitfall: Pitfall) -> &'static str {
    match pitfall {
        // The copy loops run to `sizeof(int*)` so the same source is valid
        // for both the LP64 and the wider CHERI pointer layout; buf is
        // sized for the largest.
        Pitfall::TagStripCopy => {
            r#"
            int main(void) {
                int x = 5;
                int *p = &x;
                char buf[32];
                int *q;
                char *src = (char*)&p;
                char *dst = (char*)&q;
                int n = (int)sizeof(int*);
                int i;
                for (i = 0; i < n; i++) { buf[i] = src[i]; }
                for (i = 0; i < n; i++) { dst[i] = buf[i]; }
                assert(*q == 5);
                return 0;
            }
            "#
        }
        Pitfall::IntRoundTrip => {
            r#"
            int main(void) {
                int x = 5;
                long bits = (long)&x;    /* escapes into a plain integer */
                int *p = (int*)bits;     /* tag/metadata cannot follow */
                assert(*p == 5);
                return 0;
            }
            "#
        }
    }
}

/// The expected support matrix, derived from the CRuby-porting paper's
/// findings mapped onto the seven models.
pub fn expected(model: ModelKind, pitfall: Pitfall) -> Support {
    use ModelKind::*;
    use Support::*;
    match (model, pitfall) {
        // Raw bits always survive a byte copy; only metadata is lost.
        (Pdp11, _) | (Relaxed, _) => Yes,
        // Fail-open: the bound table desynchronizes and checks vanish.
        (Mpx, _) => QualifiedYes,
        // Fail-closed schemes refuse the metadata-less pointer...
        (HardBound | Strict, Pitfall::TagStripCopy) => No,
        // ...but tolerate an unmodified 64-bit integer round trip.
        (HardBound | Strict, Pitfall::IntRoundTrip) => Yes,
        // CHERI: the tag is gone either way; dereference traps.
        (CheriV2 | CheriV3, _) => No,
    }
}

/// The caveat behind each "(yes)" cell.
pub fn qualification(model: ModelKind, pitfall: Pitfall) -> Option<&'static str> {
    match expected(model, pitfall) {
        Support::QualifiedYes => Some("unchecked when the bound table desynchronizes (fails open)"),
        _ => None,
    }
}

/// One measured cell of the pitfall matrix.
pub type PitfallCell = Cell<Pitfall>;

/// Runs the full 7×2 pitfall matrix (see [`cases::run_matrix_of`]).
pub fn run_matrix() -> Vec<PitfallCell> {
    cases::run_matrix_of(&Pitfall::ALL, source)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_matrix_matches_expected() {
        for cell in run_matrix() {
            let want = expected(cell.model, cell.case).works();
            assert_eq!(
                cell.works, want,
                "pitfall mismatch at ({}, {}): measured {} expected {} ({:?})",
                cell.model, cell.case, cell.works, want, cell.failure
            );
        }
    }

    #[test]
    fn cheri_refuses_both_pitfalls_with_tag_faults() {
        for cell in run_matrix() {
            let (model, p) = (cell.model, cell.case);
            if !matches!(model, ModelKind::CheriV2 | ModelKind::CheriV3) {
                continue;
            }
            let err = cell.failure.expect("CHERI must trap");
            assert!(
                err.contains("tag"),
                "({model}, {p}) should be a tag fault, got: {err}"
            );
        }
    }

    #[test]
    fn int_round_trip_is_the_unported_int_idiom() {
        // Same verdict as the Int column everywhere except CHERI, where
        // the intcap_t escape hatch does not apply to a plain long.
        use crate::cases::paper_expected;
        use crate::Idiom;
        for model in ModelKind::ALL {
            let int_works = paper_expected(model, Idiom::Int).works();
            let rt_works = expected(model, Pitfall::IntRoundTrip).works();
            match model {
                ModelKind::CheriV2 | ModelKind::CheriV3 => {
                    assert!(int_works && !rt_works, "{model}")
                }
                _ => assert_eq!(int_works, rt_works, "{model}"),
            }
        }
    }

    #[test]
    fn qualifications_exist_exactly_for_qualified_cells() {
        for model in ModelKind::ALL {
            for p in Pitfall::ALL {
                let q = qualification(model, p);
                assert_eq!(q.is_some(), expected(model, p) == Support::QualifiedYes);
            }
        }
    }
}
