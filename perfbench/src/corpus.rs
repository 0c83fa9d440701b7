//! `corpus-lint`: the seeded 13-package Table 1 corpus through the front
//! end, the AST idiom analyzer and `cheri-lint`, plus the Table 3
//! seven-model idiom matrix on the abstract-machine interpreter. The only
//! workload where `cheri-c`, `cheri-interp` and `cheri-lint` dominate; no
//! guest program runs on the CHERI VM.
//!
//! A request is one package (lex, parse, sema, analyzer, lowering, lint)
//! or one run of the matrix; a pass is every package plus the matrix in a
//! seeded order. `sim_mips` counts the interpreter's evaluation steps.

use crate::common::{front_end, Checks, Layers, Passes, Rng};
use crate::trace::Tracer;
use crate::{Batch, Workload};
use cheri::idioms::corpus::{self, GeneratedPackage};
use cheri::idioms::{analyzer, cases, Idiom};
use cheri::interp::{lower, LoweredUnit, ModelKind, TargetInfo};

/// What one pass does, counted during set-up's warm-up pass.
#[derive(Default)]
struct PassCounts {
    loc: u64,
    tokens: u64,
    findings: u64,
    steps: u64,
}

/// What one request did.
struct Done {
    tokens: u64,
    findings: u64,
    steps: u64,
}

pub struct CorpusLint {
    packages: Vec<GeneratedPackage>,
    passes: Passes,
    per_pass: PassCounts,
}

impl CorpusLint {
    /// Request `i`: a package, or the matrix for `i == packages.len()`.
    fn request(&self, i: usize, tr: &mut Tracer, checks: &mut Checks) -> Done {
        match self.packages.get(i) {
            Some(pkg) => package(pkg, tr, checks),
            None => matrix(tr, checks),
        }
    }
}

/// One package: Table 1 counts from the analyzer must equal the planted
/// counts, and the lint's idiom tallies must equal the analyzer's.
fn package(pkg: &GeneratedPackage, tr: &mut Tracer, checks: &mut Checks) -> Done {
    let (unit, tokens) = front_end(&pkg.source, tr);
    let counts = tr.span("idioms.analyzer", || analyzer::analyze(&unit));
    let measured: Vec<u64> = Idiom::ALL.iter().map(|&i| counts.get(i)).collect();
    checks.check(measured == pkg.spec.counts, || {
        format!(
            "{}: analyzer counts {measured:?}, planted {:?}",
            pkg.spec.name, pkg.spec.counts
        )
    });
    // `cheri_lint::analyze`, split so lowering and the engine are timed
    // apart.
    let lp64 = tr.span("interp.lower", || lower(&unit, TargetInfo::lp64()));
    let cheri = tr.span("interp.lower", || lower(&unit, TargetInfo::cheri()));
    let report = tr.span("lint.engine", || {
        cheri::lint::analyze_ir(&lp64, &unit.structs, Some(&cheri))
    });
    checks.check(report.idiom_counts()[..] == measured[..], || {
        format!(
            "{}: lint idiom tallies differ from the analyzer",
            pkg.spec.name
        )
    });
    Done {
        tokens,
        findings: report.findings.len() as u64,
        steps: 0,
    }
}

/// The Table 3 matrix: every idiom case under every model; each cell must
/// match `cases::paper_expected`.
fn matrix(tr: &mut Tracer, checks: &mut Checks) -> Done {
    let (mut tokens, mut steps) = (0, 0);
    for idiom in Idiom::ALL {
        let (unit, n) = front_end(cases::source(idiom), tr);
        tokens += n;
        let lowered = tr.span("interp.lower", || LoweredUnit::new(&unit));
        for model in ModelKind::ALL {
            let result = tr.span("interp.models", || lowered.run(model));
            let works = result.as_ref().is_ok_and(|r| r.exit_code == 0);
            steps += result.as_ref().map_or(0, |r| r.steps);
            let expected = cases::paper_expected(model, idiom).works();
            checks.check(works == expected, || {
                format!("Table 3 {model:?}/{idiom}: ran {works}, paper says {expected}")
            });
        }
    }
    Done {
        tokens,
        findings: 0,
        steps,
    }
}

impl Workload for CorpusLint {
    const FORMATS: &'static str = "none";
    const PASS: u64 = 14;

    fn setup(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> CorpusLint {
        let packages = corpus::generate_corpus(seed);
        assert_eq!(
            packages.len() as u64 + 1,
            Self::PASS,
            "13 packages + the matrix"
        );
        let mut w = CorpusLint {
            packages,
            passes: Passes::default(),
            per_pass: PassCounts::default(),
        };
        // Warm-up pass, which also counts what every pass does.
        let mut per_pass = PassCounts {
            loc: w.packages.iter().map(|p| p.loc).sum(),
            ..PassCounts::default()
        };
        for i in 0..=w.packages.len() {
            let done = w.request(i, tr, checks);
            per_pass.tokens += done.tokens;
            per_pass.findings += done.findings;
            per_pass.steps += done.steps;
        }
        w.per_pass = per_pass;
        w
    }

    fn batch(&mut self, rng: &mut Rng, tr: &mut Tracer, checks: &mut Checks) -> Batch {
        let i = self.passes.next(Self::PASS as usize, rng);
        let done = self.request(i, tr, checks);
        Batch {
            requests: 1,
            sim_instr: done.steps,
        }
    }

    fn layers(
        &mut self,
        _setup: &Tracer,
        timed: &Tracer,
        batches: u64,
        _checks: &mut Checks,
        out: &mut Layers,
    ) {
        let passes = batches / Self::PASS;
        for (metric, span) in [
            ("c.lex_ms", "c.lex"),
            ("c.parse_ms", "c.parse"),
            ("c.sema_ms", "c.sema"),
            ("interp.lower_ms", "interp.lower"),
            ("interp.models_ms", "interp.models"),
            ("idioms.analyzer_ms", "idioms.analyzer"),
            ("lint.engine_ms", "lint.engine"),
        ] {
            out.insert(metric, timed.ms_per(span, passes));
        }
        out.insert("c.tokens", self.per_pass.tokens as f64);
        out.insert("lint.findings", self.per_pass.findings as f64);
    }

    fn summary(&self, pass_s: f64) -> Vec<String> {
        let p = &self.per_pass;
        vec![
            format!(
                "kloc_per_s = {:.3} kLOC/s ({} LOC per pass)",
                p.loc as f64 / pass_s / 1e3,
                p.loc
            ),
            format!(
                "per pass: {} tokens, {} lint findings, {} interpreter steps",
                p.tokens, p.findings, p.steps
            ),
        ]
    }
}
