//! The function-extent invariant of the lowering, which
//! `IrProgram::func_range`, `Cfg::build` and the lint's pc-to-function
//! lookup rely on: functions are emitted back to back in `funcs` order,
//! so entries strictly ascend, `<global-init>` comes last, and the
//! function ranges tile the op stream exactly. Checked on every Table 1
//! corpus package and on a multi-function program, for both layouts.

use cheri_idioms::corpus;
use cheri_interp::{lower, Cfg, IrProgram, Op, TargetInfo};

/// A program with several functions, loops, early returns and a global
/// initializer.
const MULTI: &str = r#"
int g = 3;
int twice(int x) { return x + x; }
int sum(int *a, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (a[i] < 0) { return -1; }
        s += a[i];
    }
    return s;
}
int empty(void) { return 0; }
int main(void) {
    int a[4];
    int k = 0;
    while (k < 4) { a[k] = twice(k); k++; }
    do { k--; } while (k > 0);
    return sum(a, 4) + g;
}
"#;

/// The pre-invariant definition: the smallest entry above this one.
fn scan_range(prog: &IrProgram, fid: usize) -> (usize, usize) {
    let entry = prog.funcs[fid].entry;
    let end = prog
        .funcs
        .iter()
        .map(|f| f.entry)
        .filter(|&e| e > entry)
        .min()
        .unwrap_or(prog.code.len());
    (entry, end)
}

fn check_extents(name: &str, prog: &IrProgram) {
    let n = prog.funcs.len();
    assert_eq!(prog.init_fid as usize, n - 1, "{name}: init is last");
    assert_eq!(prog.funcs[n - 1].name, "<global-init>", "{name}");
    assert!(
        prog.funcs.windows(2).all(|w| w[0].entry < w[1].entry),
        "{name}: entries strictly ascend"
    );
    let mut covered = 0;
    for fid in 0..n {
        let (lo, hi) = prog.func_range(fid as u32);
        assert_eq!(
            lo, covered,
            "{name}: {} starts where the last ended",
            prog.funcs[fid].name
        );
        assert!(hi > lo, "{name}: {} is not empty", prog.funcs[fid].name);
        assert_eq!((lo, hi), scan_range(prog, fid), "{name}: matches the scan");
        // Branches stay inside their function, so the CFG's successor
        // edges are exactly the blocks `Cfg::block_at` finds.
        for pc in lo..hi {
            if let Op::Jump { target } | Op::JumpIfZero { target } | Op::JumpIfNonZero { target } =
                prog.code[pc]
            {
                assert!(
                    (lo..hi).contains(&(target as usize)),
                    "{name}: branch at {pc}"
                );
            }
        }
        let cfg = Cfg::build(prog, fid as u32);
        for pc in lo.saturating_sub(1)..=hi {
            let scan = cfg.blocks.iter().position(|b| b.start <= pc && pc < b.end);
            assert_eq!(cfg.block_at(pc), scan, "{name}: block_at({pc})");
        }
        covered = hi;
    }
    assert_eq!(covered, prog.code.len(), "{name}: ranges tile the code");
}

fn check_source(name: &str, src: &str) {
    let unit = cheri_c::parse(src).expect("parses");
    for target in [TargetInfo::lp64(), TargetInfo::cheri()] {
        check_extents(name, &lower(&unit, target));
    }
}

#[test]
fn multi_function_program_tiles_the_code() {
    check_source("multi", MULTI);
}

#[test]
fn every_corpus_package_tiles_the_code() {
    for pkg in corpus::generate_corpus(2026) {
        check_source(pkg.spec.name, &pkg.source);
    }
}
