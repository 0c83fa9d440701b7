//! Pins *why* each memory model fails each canonical case, not just
//! *whether*: Table 3's stdout shows only yes or no per cell, so without
//! this golden a change to a model could swap one error for another (a
//! bounds violation for a provenance one, say) and no report would move.
//!
//! One line per cell of the Table 3 matrix (7 models × 8 idioms) and of
//! the pitfall matrix (7 × 2): `model  case  works  failure`, with `-` for
//! a cell that ran.

use cheri::idioms::cases::{self, Cell};
use cheri::idioms::pitfalls;
use std::fmt::{Debug, Write};

const GOLDEN: &str = include_str!("golden/model-matrix.txt");

fn render<C: Debug>(out: &mut String, cells: &[Cell<C>]) {
    for c in cells {
        let failure = c.failure.as_deref().unwrap_or("-");
        writeln!(out, "{:?}\t{:?}\t{}\t{failure}", c.model, c.case, c.works).expect("write");
    }
}

#[test]
fn matrix_failures_match_golden() {
    let mut got = String::new();
    render(&mut got, &cases::run_matrix());
    render(&mut got, &pitfalls::run_matrix());
    assert_eq!(
        got.lines().count(),
        70,
        "56 Table 3 cells + 14 pitfall cells"
    );
    for (i, (g, w)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "cell {} differs from tests/golden/model-matrix.txt",
            i + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "golden line count"
    );
}
