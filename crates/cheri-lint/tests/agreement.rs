//! Static-vs-dynamic agreement: the lint's per-model predictions checked
//! against the interpreters actually running the same programs, and its
//! idiom tallies checked bit-for-bit against the AST analyzer.
//!
//! The asymmetric contract:
//!
//! * **Unsound-clean is a hard failure.** If the lint says model `m` runs
//!   a program, running it under `m` must succeed. A static analysis that
//!   blesses a trapping program is worse than none.
//! * **Imprecise-warn is tallied and bounded.** The lint may warn about a
//!   program that happens to run (a `?` cell); those are counted and
//!   pinned so precision cannot regress silently.

use cheri_idioms::cases::{self, Cell};
use cheri_idioms::{pitfalls, Idiom};
use cheri_interp::ModelKind;
use cheri_lint::analyze_source;

/// One canonical program: its name, source, and dynamic truth per model.
type Canonical = (String, &'static str, Vec<(ModelKind, bool)>);

/// All 10 canonical programs: the 8 Table 3 idiom cases + the 2 CRuby
/// pitfalls, with their dynamic truth per model read off the matrix
/// runs (each program parsed and lowered once).
fn canonical_programs() -> Vec<Canonical> {
    fn truth<C: PartialEq>(cells: &[Cell<C>], case: C) -> Vec<(ModelKind, bool)> {
        cells
            .iter()
            .filter(|c| c.case == case)
            .map(|c| (c.model, c.works))
            .collect()
    }
    let (idiom_cells, pitfall_cells) = (cases::run_matrix(), pitfalls::run_matrix());
    let mut progs = Vec::new();
    for idiom in Idiom::ALL {
        progs.push((
            format!("case {}", idiom.label()),
            cases::source(idiom),
            truth(&idiom_cells, idiom),
        ));
    }
    for p in pitfalls::Pitfall::ALL {
        progs.push((
            format!("pitfall {}", p.name()),
            pitfalls::source(p),
            truth(&pitfall_cells, p),
        ));
    }
    progs
}

#[test]
fn no_unsound_clean_on_canonical_programs() {
    for (name, src, truth) in canonical_programs() {
        let report = analyze_source(src).expect("canonical programs parse");
        for (m, dynamic_ok) in truth {
            if report.works(m) {
                assert!(
                    dynamic_ok,
                    "UNSOUND-CLEAN: {name} predicted to run under {m} but traps\n{}",
                    report.render()
                );
            }
        }
    }
}

/// The exact static verdict matrix, hand-derived and pinned: every cell
/// where the lint is *more* conservative than the dynamic truth is a
/// deliberate, known imprecision — currently exactly one (`?` below).
#[test]
fn static_matrix_is_pinned() {
    let mut imprecise: Vec<String> = Vec::new();
    for (name, src, truth) in canonical_programs() {
        let report = analyze_source(src).expect("canonical programs parse");
        for (m, dynamic_ok) in truth {
            let predicted = report.works(m);
            if predicted != dynamic_ok {
                assert!(dynamic_ok && !predicted, "unsound cell at ({name}, {m})");
                imprecise.push(format!("({name}, {})", m.display_name()));
            }
        }
    }
    // The single tolerated `?`: TagStripCopy runs under Relaxed (raw bits
    // survive the byte copy and the target is live), but the lint cannot
    // prove the byte-reassembled pointer lands back inside the object.
    assert_eq!(
        imprecise,
        vec!["(pitfall TagStrip, Relaxed)".to_string()],
        "imprecision budget changed"
    );
}

/// Each canonical case's idiom tallies match the AST analyzer exactly —
/// the same property the corpus test checks at scale.
#[test]
fn case_idiom_counts_match_ast_analyzer() {
    let sources: Vec<(String, &str)> = Idiom::ALL
        .iter()
        .map(|&i| (format!("case {}", i.label()), cases::source(i)))
        .chain(
            pitfalls::Pitfall::ALL
                .iter()
                .map(|&p| (format!("pitfall {}", p.name()), pitfalls::source(p))),
        )
        .collect();
    for (name, src) in sources {
        let unit = cheri_c::parse(src).expect("canonical programs parse");
        let ast = cheri_idioms::analyzer::analyze(&unit);
        let lint = cheri_lint::analyze(&unit).idiom_counts();
        for idiom in Idiom::ALL {
            assert_eq!(
                lint[idiom.index()],
                ast.get(idiom),
                "{name}: {} count diverges from the AST analyzer",
                idiom.label()
            );
        }
    }
}

/// Table 1 at corpus scale: the flow-sensitive IR lint lands on exactly
/// the counts the flow-insensitive AST analyzer reports, package by
/// package — the acceptance bar for replacing one with the other.
#[test]
fn corpus_idiom_counts_are_bit_identical_to_ast_analyzer() {
    for pkg in cheri_idioms::corpus::generate_corpus(2026) {
        let unit = cheri_c::parse(&pkg.source).expect("corpus packages parse");
        let ast = cheri_idioms::analyzer::analyze(&unit);
        let lint = cheri_lint::analyze(&unit).idiom_counts();
        for idiom in Idiom::ALL {
            assert_eq!(
                lint[idiom.index()],
                ast.get(idiom),
                "package {}: {} count diverges ({} lint vs {} ast)",
                pkg.spec.name,
                idiom.label(),
                lint[idiom.index()],
                ast.get(idiom)
            );
        }
    }
}

/// Findings carry usable source positions: every idiom finding points at
/// a real line of the analyzed source.
#[test]
fn findings_have_source_lines() {
    for idiom in Idiom::ALL {
        let src = cases::source(idiom);
        let nlines = src.lines().count() as u32;
        let report = analyze_source(src).expect("case parses");
        for f in report.idiom_findings() {
            assert!(
                f.line >= 1 && f.line <= nlines,
                "case {}: finding line {} outside source ({} lines)",
                idiom.label(),
                f.line,
                nlines
            );
            assert!(!f.func.is_empty(), "finding must name its function");
        }
    }
}

/// The renderer produces one diagnostic per finding plus a verdict line.
#[test]
fn render_is_line_per_finding() {
    let report = analyze_source(cases::source(Idiom::Mask)).expect("case parses");
    let text = report.render();
    assert_eq!(text.lines().count(), report.findings.len() + 1);
    assert!(text.contains("MASK"), "{text}");
    assert!(text.lines().last().unwrap().contains("not portable"));
}
