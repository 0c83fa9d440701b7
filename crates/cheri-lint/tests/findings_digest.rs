//! Full-findings regression digest over the Table 1 corpus.
//!
//! The golden diagnostics file pins each corpus package's finding counts
//! and verdicts, not the findings themselves, so a finding that moved to a
//! different pc, column or model set could slip through it. This test lints
//! all 13 packages at the golden seed and folds every finding's
//! `(func, pc, line, col, kind, may)`, in report order, into one
//! order-sensitive FNV-1a digest pinned below.

use cheri_idioms::corpus;
use cheri_lint::analyze_source;

/// The corpus seed the golden diagnostics file uses.
const GOLDEN_SEED: u64 = 2026;

/// Digest and finding count of the 13-package corpus at [`GOLDEN_SEED`].
const EXPECTED_DIGEST: u64 = 0x6409_cd53_dd08_354f;
const EXPECTED_FINDINGS: usize = 61_904;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed string, so adjacent fields cannot run together.
    fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }
}

#[test]
fn corpus_findings_digest_is_pinned() {
    let mut h = Fnv1a::new();
    let mut findings = 0;
    for pkg in corpus::generate_corpus(GOLDEN_SEED) {
        let report = analyze_source(&pkg.source).expect("corpus packages parse");
        h.str(pkg.spec.name);
        for f in &report.findings {
            h.str(&f.func);
            h.bytes(&(f.pc as u64).to_le_bytes());
            h.bytes(&f.line.to_le_bytes());
            h.bytes(&f.col.to_le_bytes());
            h.str(&format!("{:?}", f.kind));
            h.bytes(&f.may.0.to_le_bytes());
        }
        findings += report.findings.len();
    }
    assert_eq!(
        (h.0, findings),
        (EXPECTED_DIGEST, EXPECTED_FINDINGS),
        "corpus findings changed: digest {:#018x}, {findings} findings",
        h.0
    );
}
