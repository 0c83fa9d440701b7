//! The extracted idiom test cases and the Table 3 support matrix.
//!
//! "We collected examples of these failures and produced the following
//! taxonomy … and extracted test cases demonstrating the common patterns."
//! (§2, §5) Each case is a self-contained mini-C program that exercises one
//! idiom and `assert`s the result the idiom's users expect; a memory model
//! *supports* the idiom iff the program runs to completion under it.
//!
//! The canonical cases use `intptr_t` where ported code would, matching the
//! evaluation context of Table 3 ("changing the `intptr_t` typedef to refer
//! to the `intcap_t` type", §5.1).

use crate::idiom::Idiom;
use cheri_interp::{ExecResult, LoweredUnit, ModelKind, RtError};

/// A cell of Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Support {
    /// Plain "yes".
    Yes,
    /// "(yes)": works with a model-specific qualification (see
    /// [`qualification`]).
    QualifiedYes,
    /// "no".
    No,
}

impl Support {
    /// Whether the test program is expected to run to completion.
    pub fn works(self) -> bool {
        !matches!(self, Support::No)
    }

    /// The cell text as printed in the paper.
    pub fn cell(self) -> &'static str {
        match self {
            Support::Yes => "yes",
            Support::QualifiedYes => "(yes)",
            Support::No => "no",
        }
    }
}

/// The canonical mini-C test case for `idiom`.
pub fn source(idiom: Idiom) -> &'static str {
    match idiom {
        Idiom::Deconst => {
            r#"
            int main(void) {
                char buf[4];
                buf[0] = 'a';
                const char *p = buf;
                char *q = (char*)p;     /* cast away const */
                *q = 'b';
                assert(buf[0] == 'b');
                return 0;
            }
            "#
        }
        Idiom::Container => {
            r#"
            struct outer { int tag; int member; };
            int main(void) {
                struct outer o;
                o.tag = 42;
                int *m = &o.member;
                struct outer *c =
                    (struct outer*)((char*)m - offsetof(struct outer, member));
                assert(c->tag == 42);
                return 0;
            }
            "#
        }
        Idiom::Sub => {
            r#"
            int main(void) {
                int a[8];
                a[3] = 7;
                int *p = &a[5];
                int *q = p - 2;          /* pointer minus integer */
                long d = p - q;          /* pointer difference */
                assert(*q == 7);
                assert(d == 2);
                return 0;
            }
            "#
        }
        Idiom::II => {
            r#"
            int main(void) {
                int a[4];
                a[2] = 9;
                int *p = a + 9;          /* invalid intermediate */
                p = p - 7;               /* back in bounds */
                assert(*p == 9);
                return 0;
            }
            "#
        }
        Idiom::Int => {
            r#"
            int main(void) {
                int x = 5;
                intptr_t v = (intptr_t)&x;   /* store pointer in integer */
                int *p = (int*)v;            /* and bring it back */
                assert(*p == 5);
                return 0;
            }
            "#
        }
        Idiom::IA => {
            r#"
            int main(void) {
                int a[4];
                a[2] = 9;
                uintptr_t v = (uintptr_t)a;
                v = v + 2 * sizeof(int);     /* arithmetic in integer space */
                int *p = (int*)v;
                assert(*p == 9);
                return 0;
            }
            "#
        }
        Idiom::Mask => {
            r#"
            int main(void) {
                long a[2];
                a[0] = 11;
                uintptr_t v = (uintptr_t)a;
                v = v | 1;                       /* stash a flag in bit 0 */
                assert((v & 1) == 1);
                uintptr_t w = v & ~(uintptr_t)1; /* mask it back off */
                long *p = (long*)w;
                assert(*p == 11);
                return 0;
            }
            "#
        }
        Idiom::Wide => {
            r#"
            int main(void) {
                int x = 7;
                int *p = &x;
                unsigned int w = (unsigned int)(unsigned long)p; /* 32-bit! */
                int *q = (int*)(unsigned long)w;
                assert(*q == 7);
                return 0;
            }
            "#
        }
    }
}

/// The paper's Table 3, row by row.
pub fn paper_expected(model: ModelKind, idiom: Idiom) -> Support {
    use Idiom::*;
    use ModelKind::*;
    use Support::*;
    match (model, idiom) {
        (_, Wide) => No,

        (Pdp11, _) => Yes,

        (HardBound, Int) => QualifiedYes,
        (HardBound, IA) | (HardBound, Mask) => No,
        (HardBound, _) => Yes,

        (Mpx, Container) => No,
        (Mpx, Int) | (Mpx, IA) | (Mpx, Mask) => QualifiedYes,
        (Mpx, _) => Yes,

        (Relaxed, _) => Yes,

        (Strict, Int) => QualifiedYes,
        (Strict, IA) | (Strict, Mask) => No,
        (Strict, _) => Yes,

        (CheriV2, Int) => QualifiedYes,
        (CheriV2, _) => No,

        (CheriV3, Int) => QualifiedYes,
        (CheriV3, _) => Yes,
    }
}

/// The parenthetical caveat behind each "(yes)" cell (§5.1 prose).
pub fn qualification(model: ModelKind, idiom: Idiom) -> Option<&'static str> {
    match (paper_expected(model, idiom), model, idiom) {
        (Support::QualifiedYes, ModelKind::CheriV2 | ModelKind::CheriV3, Idiom::Int) => {
            Some("only via intcap_t, not plain C integers")
        }
        (Support::QualifiedYes, ModelKind::Mpx, _) => {
            Some("unchecked when the bound table desynchronizes (fails open)")
        }
        (Support::QualifiedYes, ModelKind::HardBound | ModelKind::Strict, Idiom::Int) => {
            Some("only while the integer is left unmodified")
        }
        _ => None,
    }
}

fn works_or_err(r: Result<ExecResult, RtError>) -> Result<(), RtError> {
    r.map(|res| assert_eq!(res.exit_code, 0, "a canonical case exits 0 when it works"))
}

/// One measured cell of a model × case matrix: Table 3 (`C` = [`Idiom`])
/// or the pitfall matrix (`C` = [`crate::pitfalls::Pitfall`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell<C> {
    /// The model (row).
    pub model: ModelKind,
    /// The case (column).
    pub case: C,
    /// Whether the canonical case ran to completion.
    pub works: bool,
    /// The failure classification when it did not.
    pub failure: Option<String>,
}

/// One measured cell of Table 3.
pub type MatrixCell = Cell<Idiom>;

/// Runs the canonical program of every case in `cases` under every model.
///
/// Each program is parsed and lowered **once** (the lowering is shared by
/// every model with that target layout), and the seven models — which are
/// fully independent — run on one scoped thread each. Cells come back in
/// the same deterministic (model-major, [`ModelKind::ALL`] × `cases`)
/// order the sequential harness produced.
pub fn run_matrix_of<C: Copy + Send + Sync>(
    cases: &[C],
    source: impl Fn(C) -> &'static str,
) -> Vec<Cell<C>> {
    let lowered: Vec<(C, LoweredUnit)> = cases
        .iter()
        .map(|&case| {
            let unit = cheri_c::parse(source(case)).expect("canonical cases always parse");
            (case, LoweredUnit::new(&unit))
        })
        .collect();
    let row = |&model: &ModelKind| -> Vec<Cell<C>> {
        lowered
            .iter()
            .map(|(case, lu)| {
                let r = works_or_err(lu.run(model));
                Cell {
                    model,
                    case: *case,
                    works: r.is_ok(),
                    failure: r.err().map(|e| e.to_string()),
                }
            })
            .collect()
    };
    let per_model = cheri_interp::fan_out_ordered(&ModelKind::ALL, row);
    per_model.into_iter().flatten().collect()
}

/// Runs the full 7×8 Table 3 matrix (see [`run_matrix_of`]).
pub fn run_matrix() -> Vec<MatrixCell> {
    run_matrix_of(&Idiom::ALL, source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The Table 3 matrix, run once for every test that reads it.
    fn matrix() -> &'static [MatrixCell] {
        static CELLS: OnceLock<Vec<MatrixCell>> = OnceLock::new();
        CELLS.get_or_init(run_matrix)
    }

    /// The cells of `model`'s row, in [`Idiom::ALL`] order.
    fn row(model: ModelKind) -> impl Iterator<Item = &'static MatrixCell> {
        matrix().iter().filter(move |c| c.model == model)
    }

    #[test]
    fn all_cases_parse_and_pass_on_pdp11_except_wide() {
        for cell in row(ModelKind::Pdp11) {
            if cell.case == Idiom::Wide {
                assert!(!cell.works, "Wide must fail on 64-bit PDP-11 model");
            } else {
                assert!(
                    cell.works,
                    "{} should work on PDP-11: {:?}",
                    cell.case, cell.failure
                );
            }
        }
    }

    #[test]
    fn measured_matrix_matches_paper_table3() {
        for cell in matrix() {
            let expected = paper_expected(cell.model, cell.case).works();
            assert_eq!(
                cell.works, expected,
                "Table 3 mismatch at ({}, {}): measured {} expected {} ({:?})",
                cell.model, cell.case, cell.works, expected, cell.failure
            );
        }
    }

    #[test]
    fn cheriv3_supports_everything_but_wide() {
        for cell in row(ModelKind::CheriV3) {
            assert_eq!(cell.works, cell.case != Idiom::Wide, "{}", cell.case);
        }
    }

    #[test]
    fn cheriv2_only_supports_int() {
        for cell in row(ModelKind::CheriV2) {
            assert_eq!(cell.works, cell.case == Idiom::Int, "{}", cell.case);
        }
    }

    #[test]
    fn qualifications_exist_exactly_for_qualified_cells() {
        for model in ModelKind::ALL {
            for idiom in Idiom::ALL {
                let q = qualification(model, idiom);
                match paper_expected(model, idiom) {
                    Support::QualifiedYes => {
                        assert!(q.is_some(), "({model}, {idiom}) needs a qualification note")
                    }
                    _ => assert!(q.is_none(), "({model}, {idiom}) should have no note"),
                }
            }
        }
    }

    #[test]
    fn support_cells_render() {
        assert_eq!(Support::Yes.cell(), "yes");
        assert_eq!(Support::QualifiedYes.cell(), "(yes)");
        assert_eq!(Support::No.cell(), "no");
        assert!(Support::QualifiedYes.works());
        assert!(!Support::No.works());
    }
}
