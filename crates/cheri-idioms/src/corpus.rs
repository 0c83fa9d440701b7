//! Synthetic-corpus generation for the Table 1 reproduction.
//!
//! The paper compiled "a sample corpus of around 2M lines of popular C
//! code" — ffmpeg, libX11, FreeBSD libc, bash, libpng, tcpdump, perf, pmc,
//! pcre, python, wget, zlib, zsh — with the modified Clang and categorized
//! the hits (Table 1). We cannot ship those sources, so this module
//! synthesizes, for each package, a mini-C translation unit that *plants*
//! exactly the paper's reported number of instances of each idiom (using
//! the extracted idiom templates), padded with idiom-free filler functions.
//! Running [`crate::analyzer::analyze`] over the generated corpus must then
//! recover Table 1 exactly — which simultaneously validates the analyzer's
//! precision/recall on known ground truth and regenerates the table.
//!
//! Line counts are scaled down by [`LOC_SCALE`] (the paper's corpus is
//! 1.9 MLoC; the synthetic one keeps the *counts* exact and the *density*
//! proportional).

use crate::idiom::{Idiom, IdiomCounts};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Lines-of-code scale factor between the paper's corpus and ours.
pub const LOC_SCALE: u64 = 20;

/// One row of Table 1: a package and its idiom counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackageSpec {
    /// Package name as printed in the paper.
    pub name: &'static str,
    /// The paper's reported lines of code.
    pub loc: u64,
    /// The paper's reported idiom counts, in [`Idiom::ALL`] order.
    pub counts: [u64; 8],
}

impl PackageSpec {
    /// The planted counts as an [`IdiomCounts`].
    pub fn idiom_counts(&self) -> IdiomCounts {
        let mut c = IdiomCounts::new();
        for (idiom, &n) in Idiom::ALL.iter().zip(&self.counts) {
            for _ in 0..n {
                c.bump(*idiom);
            }
        }
        c
    }
}

/// The paper's Table 1, verbatim:
/// `[DECONST, CONTAINER, SUB, II, INT, IA, MASK, WIDE]`.
pub fn paper_packages() -> Vec<PackageSpec> {
    vec![
        PackageSpec {
            name: "ffmpeg",
            loc: 693_010,
            counts: [150, 0, 800, 4, 0, 0, 4, 0],
        },
        PackageSpec {
            name: "libX11",
            loc: 120_386,
            counts: [117, 0, 19, 9, 1, 0, 0, 5],
        },
        PackageSpec {
            name: "FreeBSD libc",
            loc: 136_717,
            counts: [288, 0, 216, 2, 13, 50, 184, 17],
        },
        PackageSpec {
            name: "bash",
            loc: 109_250,
            counts: [43, 0, 207, 11, 0, 0, 15, 4],
        },
        PackageSpec {
            name: "libpng",
            loc: 50_071,
            counts: [20, 0, 175, 1, 0, 0, 0, 0],
        },
        PackageSpec {
            name: "tcpdump",
            loc: 66_555,
            counts: [579, 0, 9, 1299, 0, 0, 0, 0],
        },
        PackageSpec {
            name: "perf",
            loc: 52_033,
            counts: [575, 151, 46, 0, 53, 151, 31, 4],
        },
        PackageSpec {
            name: "pmc",
            loc: 8_886,
            counts: [2, 0, 0, 0, 18, 0, 0, 0],
        },
        PackageSpec {
            name: "pcre",
            loc: 70_447,
            counts: [98, 0, 52, 0, 0, 0, 0, 0],
        },
        PackageSpec {
            name: "python",
            loc: 383_813,
            counts: [494, 0, 358, 1, 109, 0, 131, 8],
        },
        PackageSpec {
            name: "wget",
            loc: 91_710,
            counts: [55, 0, 61, 0, 3, 0, 1, 10],
        },
        PackageSpec {
            name: "zlib",
            loc: 21_090,
            counts: [4, 0, 24, 0, 0, 0, 0, 0],
        },
        PackageSpec {
            name: "zsh",
            loc: 98_664,
            counts: [29, 0, 267, 0, 0, 0, 5, 5],
        },
    ]
}

/// The TOTAL row as *printed* in the paper. Note that it does not equal
/// the column sums of the paper's own per-package rows (e.g. II sums to
/// 1327 but is printed as 1557) — the paper itself says the values "are a
/// result of machine-assisted human categorization, and are intended to be
/// indicative … rather than accurate measures" (§2). We take the
/// per-package rows as ground truth and report both (`table1` prints them).
pub const PAPER_PRINTED_TOTALS: [u64; 8] = [2491, 151, 2236, 1557, 197, 201, 371, 53];

/// Column sums of the per-package rows (the consistent totals).
pub fn paper_totals() -> [u64; 8] {
    let mut t = [0u64; 8];
    for p in paper_packages() {
        for (a, b) in t.iter_mut().zip(p.counts) {
            *a += b;
        }
    }
    t
}

/// A generated synthetic package.
#[derive(Clone, Debug)]
pub struct GeneratedPackage {
    /// The spec this was generated from.
    pub spec: PackageSpec,
    /// Mini-C source text.
    pub source: String,
    /// Actual line count of `source`.
    pub loc: u64,
}

fn idiom_template(idiom: Idiom, k: u64) -> String {
    match idiom {
        Idiom::Deconst => {
            format!("char *deconst_{k}(const char *p) {{\n    return (char*)p;\n}}\n")
        }
        Idiom::Container => format!(
            "struct box_{k} {{ int tag_{k}; int member_{k}; }};\n\
             struct box_{k} *container_{k}(int *m) {{\n    \
             return (struct box_{k}*)((char*)m - offsetof(struct box_{k}, member_{k}));\n}}\n"
        ),
        Idiom::Sub => format!("long sub_{k}(char *a, char *b) {{\n    return a - b;\n}}\n"),
        Idiom::II => format!("int ii_{k}(int *p) {{\n    return *(p + 9 - 7);\n}}\n"),
        Idiom::Int => {
            format!("long int_{k}(int *p) {{\n    long x = (long)p;\n    return x;\n}}\n")
        }
        Idiom::IA => format!("long ia_{k}(char *p) {{\n    return (long)p + 8;\n}}\n"),
        Idiom::Mask => format!("long mask_{k}(char *p) {{\n    return (long)p & ~7;\n}}\n"),
        Idiom::Wide => format!("int wide_{k}(char *p) {{\n    return (int)(long)p;\n}}\n"),
    }
}

fn filler_template(k: u64) -> String {
    format!(
        "long fill_{k}(long a, long b) {{\n    \
         long c = a * 3 + b;\n    \
         if (c > {m}) {{ c -= b; }}\n    \
         for (int i = 0; i < 4; i++) {{ c += i; }}\n    \
         return c;\n}}\n",
        m = k % 97
    )
}

/// Generates the synthetic package for `spec`, deterministic in `seed`.
pub fn generate_package(spec: &PackageSpec, seed: u64) -> GeneratedPackage {
    let mut rng = StdRng::seed_from_u64(seed ^ spec.loc);
    let mut chunks: Vec<String> = Vec::new();
    let mut k = 0u64;
    for (idiom, &n) in Idiom::ALL.iter().zip(&spec.counts) {
        for _ in 0..n {
            chunks.push(idiom_template(*idiom, k));
            k += 1;
        }
    }
    let idiom_lines: u64 = chunks.iter().map(|c| c.lines().count() as u64).sum();
    let target = spec.loc / LOC_SCALE;
    let mut fk = 0u64;
    let mut filler_lines = 0u64;
    while idiom_lines + filler_lines < target {
        let f = filler_template(fk);
        filler_lines += f.lines().count() as u64;
        chunks.push(f);
        fk += 1;
    }
    chunks.shuffle(&mut rng);
    let source = chunks.concat();
    let loc = source.lines().count() as u64;
    GeneratedPackage {
        spec: spec.clone(),
        source,
        loc,
    }
}

/// Generates the full 13-package corpus.
pub fn generate_corpus(seed: u64) -> Vec<GeneratedPackage> {
    paper_packages()
        .iter()
        .map(|p| generate_package(p, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze;

    #[test]
    fn totals_match_paper() {
        // Row sums (our ground truth) vs the paper's printed TOTAL row:
        // they differ in DECONST/SUB/II, a known inconsistency in the
        // paper's own table.
        assert_eq!(paper_totals(), [2454, 151, 2234, 1327, 197, 201, 371, 53]);
        assert_eq!(
            PAPER_PRINTED_TOTALS,
            [2491, 151, 2236, 1557, 197, 201, 371, 53]
        );
        let total: u64 = paper_packages().iter().map(|p| p.loc).sum();
        assert_eq!(total, 1_902_632);
    }

    #[test]
    fn generated_package_parses_and_counts_recover_exactly() {
        // Use the two smallest packages to keep the test fast; the full
        // corpus runs in the table1 harness and bench.
        for spec in paper_packages().iter().filter(|p| p.loc < 60_000) {
            let g = generate_package(spec, 42);
            let unit = cheri_c::parse(&g.source).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let measured = analyze(&unit);
            assert_eq!(
                measured,
                spec.idiom_counts(),
                "analyzer must recover planted counts for {}",
                spec.name
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &paper_packages()[7]; // pmc, small
        let a = generate_package(spec, 7);
        let b = generate_package(spec, 7);
        assert_eq!(a.source, b.source);
        let c = generate_package(spec, 8);
        assert_ne!(a.source, c.source); // different shuffle
    }

    #[test]
    fn loc_is_near_scaled_target() {
        let spec = &paper_packages()[11]; // zlib
        let g = generate_package(spec, 1);
        let target = spec.loc / LOC_SCALE;
        assert!(g.loc >= target, "padded to at least the scaled length");
        assert!(g.loc < target + target / 2 + 200);
    }

    #[test]
    fn filler_is_idiom_free() {
        let src = (0..20).map(filler_template).collect::<String>();
        let unit = cheri_c::parse(&src).unwrap();
        assert_eq!(analyze(&unit).total(), 0);
    }

    #[test]
    fn each_template_plants_exactly_one() {
        for idiom in Idiom::ALL {
            let src = idiom_template(idiom, 0);
            let unit = cheri_c::parse(&src).unwrap_or_else(|e| panic!("{idiom}: {e}"));
            let c = analyze(&unit);
            assert_eq!(c.get(idiom), 1, "{idiom} template plants one instance");
            assert_eq!(c.total(), 1, "{idiom} template plants nothing else");
        }
    }
}
