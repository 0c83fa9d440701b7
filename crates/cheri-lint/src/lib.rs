//! # cheri-lint — static portability analysis over the execution IR
//!
//! A flow-sensitive, intraprocedural abstract interpreter that runs the
//! paper's provenance questions *statically*: it pushes an abstract
//! provenance lattice (regions × offsets × taint) through the same flat IR
//! the interpreters execute, using worklist dataflow over
//! [`cheri_interp::Cfg`], and predicts **per memory model** which accesses
//! trap — before running anything.
//!
//! Four layers:
//!
//! * [`lattice`] — the abstract domain: intervals, pointer shapes
//!   ([`lattice::PtrAbs`]), pointer-derived integer taint
//!   ([`lattice::Taint`]), and the [`lattice::ModelSet`] verdict bitset.
//! * [`rules`] — the abstract reading of the interpreter's rule table
//!   ([`cheri_interp::ModelKind::rules`]): which models may trap, given
//!   the may-facts ([`rules::DerefFacts`]) about one access.
//! * [`engine`] — the transfer functions (one arm per [`cheri_interp::Op`])
//!   and the worklist driver, [`engine::analyze_ir`].
//! * [`report`] — findings with source line/column, per-model `works`
//!   verdicts, and the Table 1 idiom tallies, which are **bit-compatible**
//!   with the AST analyzer ([`cheri_idioms::analyze_unit`]).
//!
//! The contract the tests enforce is *soundness against the dynamic
//! substrates*: if the lint says a program is [`report::Report::portable`],
//! the differential harness must observe identical behavior on all eleven
//! substrates, and if it says model `m` runs the program, `run_main(m)`
//! must succeed. The converse (a warning on a program that happens to run)
//! is allowed but tallied — that is the analysis's imprecision budget.

pub mod engine;
pub mod lattice;
pub mod report;
pub mod rules;

pub use engine::analyze_ir;
pub use report::{Finding, FindingKind, Report};

use cheri_c::TranslationUnit;
use cheri_interp::{lower, TargetInfo};

/// Lints one translation unit.
///
/// Lowers the unit twice — for the LP64 layout the analysis runs on, and
/// for the CHERI layout — so folded `sizeof`/`offsetof` constants that
/// differ between the two surface as layout-divergence findings.
pub fn analyze(unit: &TranslationUnit) -> Report {
    let lp64 = lower(unit, TargetInfo::lp64());
    let cheri = lower(unit, TargetInfo::cheri());
    engine::analyze_ir(&lp64, &unit.structs, Some(&cheri))
}

/// Parses and lints a source string.
///
/// # Errors
///
/// The parse error, verbatim, when `src` is not accepted.
pub fn analyze_source(src: &str) -> Result<Report, String> {
    let unit = cheri_c::parse(src).map_err(|e| e.to_string())?;
    Ok(analyze(&unit))
}
