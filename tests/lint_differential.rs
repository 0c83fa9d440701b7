//! Lint soundness at scale: the static analyzer's verdicts checked against
//! every dynamic substrate on hundreds of generated programs.
//!
//! Two hard guarantees (any violation is a test failure):
//!
//! * **portable ⇒ divergence-free**: when the lint calls a program
//!   portable, all eleven substrates (seven interpreter models, three
//!   compiled ABIs, CHERIv3 on 128-bit capabilities) must produce the same
//!   exit code.
//! * **works(m) ⇒ runs under m**: a model the lint blesses must actually
//!   run the program (no unsound-clean).
//!
//! The converse — the lint warning about a program that happens to run —
//! is tallied and bounded, not forbidden: that is the imprecision budget.
//!
//! The generator is deterministic (no proptest shrinking needed — every
//! seed is checked, every failure names its seed) and emits six program
//! shapes per seed class: pure arithmetic, pointer→`long` round trips,
//! `intptr_t` round trips, flag-masking stashes, nested-loop pointer
//! walks, and pointer escapes across a call boundary.

mod common;

use cheri::interp::{run_main, ModelKind};
use cheri::lint::analyze_source;
use common::exit_codes_everywhere;
use proptest::prelude::*;

/// Number of generated programs; the issue floor is 500.
const PROGRAMS: u64 = 520;

/// A tiny deterministic PRNG (splitmix64) so the suite needs no shared
/// state with the vendored rand.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pure integer arithmetic on `int` accumulators: portable by
/// construction — the lint must agree, and every substrate must match.
fn gen_arith(seed: u64) -> String {
    let a = (mix(seed) % 90 + 1) as i64;
    let b = (mix(seed ^ 1) % 50 + 2) as i64;
    let n = (mix(seed ^ 2) % 6 + 2) as i64;
    let op = match mix(seed ^ 3) % 3 {
        0 => "+",
        1 => "-",
        _ => "*",
    };
    format!(
        "int main(void) {{\n\
         \x20   int s = {a};\n\
         \x20   int i;\n\
         \x20   for (i = 0; i < {n}; i++) {{ s = s {op} {b}; }}\n\
         \x20   s = s % 1000;\n\
         \x20   if (s < 0) {{ s = -s; }}\n\
         \x20   return s;\n\
         }}\n"
    )
}

/// Pointer stored in a **plain** `long` and dereferenced after the round
/// trip: runs everywhere except CHERI, where the tag cannot follow.
fn gen_plain_roundtrip(seed: u64) -> String {
    let v = (mix(seed) % 100) as i64;
    format!(
        "int main(void) {{\n\
         \x20   int x = {v};\n\
         \x20   long bits = (long)&x;\n\
         \x20   int *p = (int*)bits;\n\
         \x20   assert(*p == {v});\n\
         \x20   return 0;\n\
         }}\n"
    )
}

/// Unmodified `intptr_t` round trip: the paper's escape hatch — portable
/// on every model including both CHERIs.
fn gen_intptr_roundtrip(seed: u64) -> String {
    let v = (mix(seed) % 100) as i64;
    format!(
        "int main(void) {{\n\
         \x20   int x = {v};\n\
         \x20   intptr_t bits = (intptr_t)&x;\n\
         \x20   int *p = (int*)bits;\n\
         \x20   assert(*p == {v});\n\
         \x20   return 0;\n\
         }}\n"
    )
}

/// Flag stashed in an alignment bit of an `uintptr_t`, masked off before
/// the dereference: works on address-based schemes and CHERIv3; the
/// capability arithmetic refuses it on CHERIv2, and the modified-integer
/// metadata lookup fails on HardBound/Strict.
fn gen_mask_stash(seed: u64) -> String {
    let v = (mix(seed) % 100) as i64;
    format!(
        "int main(void) {{\n\
         \x20   long a[2];\n\
         \x20   a[0] = {v};\n\
         \x20   uintptr_t t = (uintptr_t)a;\n\
         \x20   t = t | 1;\n\
         \x20   uintptr_t u = t & ~(uintptr_t)1;\n\
         \x20   long *p = (long*)u;\n\
         \x20   assert(*p == {v});\n\
         \x20   return 0;\n\
         }}\n"
    )
}

/// Nested-loop pointer walk: repeated passes over an array through a
/// derived pointer, every deref indexed by the inner counter so the
/// lint's interval analysis can prove it in bounds (and every load
/// masked before accumulating so the AIR overflow check stays provable
/// too). Portable by construction — the lint must prove it.
fn gen_nested_walk(seed: u64) -> String {
    let n = (mix(seed) % 4 + 2) as i64; // array length, 2..=5
    let k = (mix(seed ^ 1) % 9 + 1) as i64; // fill multiplier
    let r = (mix(seed ^ 2) % 3 + 2) as i64; // outer passes, 2..=4
    format!(
        "int main(void) {{\n\
         \x20   int a[{n}];\n\
         \x20   int *p = a;\n\
         \x20   int i;\n\
         \x20   int j;\n\
         \x20   int s = 0;\n\
         \x20   for (j = 0; j < {n}; j++) {{ p[j] = j * {k}; }}\n\
         \x20   for (i = 0; i < {r}; i++) {{\n\
         \x20       for (j = 0; j < {n}; j++) {{ s = s + p[j] % 32; }}\n\
         \x20   }}\n\
         \x20   return s % 256;\n\
         }}\n"
    )
}

/// Pointer escaping into a callee that stashes it through a plain
/// `long` before dereferencing: the shape-1 round trip moved across a
/// call boundary, so the lint's verdict depends on tracking the taint
/// interprocedurally. Runs everywhere except the two CHERIs.
fn gen_escape_call(seed: u64) -> String {
    let v = (mix(seed) % 100) as i64;
    format!(
        "int peek(int *p) {{\n\
         \x20   long bits = (long)p;\n\
         \x20   int *q = (int*)bits;\n\
         \x20   return *q;\n\
         }}\n\
         int main(void) {{\n\
         \x20   int x = {v};\n\
         \x20   int r = peek(&x);\n\
         \x20   assert(r == {v});\n\
         \x20   return 0;\n\
         }}\n"
    )
}

fn gen_program(seed: u64) -> String {
    match seed % 6 {
        0 => gen_arith(seed),
        1 => gen_plain_roundtrip(seed),
        2 => gen_intptr_roundtrip(seed),
        3 => gen_mask_stash(seed),
        4 => gen_nested_walk(seed),
        _ => gen_escape_call(seed),
    }
}

#[test]
fn lint_is_sound_on_generated_programs() {
    let mut portable_count = 0u64;
    let mut false_warn_cells = 0u64;
    let mut checked_cells = 0u64;
    for seed in 0..PROGRAMS {
        let src = gen_program(seed);
        let report =
            analyze_source(&src).unwrap_or_else(|e| panic!("seed {seed}: parse error {e}\n{src}"));
        let unit = cheri::c::parse(&src).expect("parsed above");
        // Guarantee 1: every model the lint blesses must run the program.
        let mut dynamic_ok = Vec::new();
        for m in ModelKind::ALL {
            let ran = run_main(&unit, m).map(|r| r.exit_code).ok();
            dynamic_ok.push(ran.is_some());
            if report.works(m) {
                assert!(
                    ran.is_some(),
                    "seed {seed}: UNSOUND-CLEAN — lint blessed {m} but it traps\n{}\n{src}",
                    report.render()
                );
            }
        }
        // The imprecision tally (lint warns, model runs anyway).
        for (ok, m) in dynamic_ok.iter().zip(ModelKind::ALL) {
            checked_cells += 1;
            if *ok && !report.works(m) {
                false_warn_cells += 1;
            }
        }
        // Guarantee 2: a portable verdict means divergence-free execution
        // on all eleven substrates.
        if report.portable() {
            portable_count += 1;
            let answers = exit_codes_everywhere(&src);
            let expect = answers[0].1;
            for (name, got) in &answers {
                assert_eq!(
                    *got, expect,
                    "seed {seed}: substrate {name} diverges on a portable program\n{src}"
                );
            }
        }
    }
    // The generator's shape 0 (pure arithmetic) and shape 2 (intptr_t
    // round trip) are portable by construction — the lint must actually
    // prove a healthy majority of them, or "portable" means nothing.
    assert!(
        portable_count >= PROGRAMS / 4,
        "only {portable_count}/{PROGRAMS} programs proved portable"
    );
    // Precision bound: blessed-but-warned cells stay under 5% overall.
    assert!(
        false_warn_cells * 20 <= checked_cells,
        "false-warn rate too high: {false_warn_cells}/{checked_cells}"
    );
}

/// Programs that join a path on which MPX does not check (or checks a
/// wide window) with one on which it checks a narrower window and traps.
/// The lint must not call MPX clean on any of them.
const JOINED_MPX_CASES: [&str; 4] = [
    // One path loses the bounds metadata through a modified integer; the
    // other keeps it and steps out of bounds.
    "int g;\n\
     int main(void) { int a[4]; int *p; long x;\n\
     \x20   a[0]=0; a[1]=0; a[2]=0; a[3]=0;\n\
     \x20   if (g) { x = (long)a; x = x + 4; p = (int*)x; } else { p = a + 4; }\n\
     \x20   return *p; }\n",
    // The same on a heap object.
    "int g;\n\
     int main(void) { int *a = malloc(16); int *p; long x;\n\
     \x20   a[0]=0; a[1]=0; a[2]=0; a[3]=0;\n\
     \x20   if (g) { x = (long)a; x = x + 4; p = (int*)x; } else { p = a + 4; }\n\
     \x20   return *p; }\n",
    // The integer is joined before the pointer is rebuilt from it.
    "int g;\n\
     int main(void) { int a[4]; int *p; long x;\n\
     \x20   a[0]=0; a[1]=0; a[2]=0; a[3]=0;\n\
     \x20   if (g) { x = (long)a; x = x + 4; } else { x = (long)(a + 4); }\n\
     \x20   p = (int*)x;\n\
     \x20   return *p; }\n",
    // `container_of` on one path only: its bounds were narrowed to the
    // member, the other path's were not.
    "struct s { long a; int f; long b; };\n\
     int g;\n\
     int main(void) { struct s o; int *q; struct s *r;\n\
     \x20   o.a = 0; o.f = 0; o.b = 0;\n\
     \x20   if (g) { r = &o; } else { q = &o.f; r = (struct s *)((char *)q - 8); }\n\
     \x20   return (int)r->b; }\n",
];

#[test]
fn joined_mpx_cases_are_sound() {
    for src in JOINED_MPX_CASES {
        let report = analyze_source(src).expect("fixed case parses");
        let unit = cheri::c::parse(src).expect("parsed above");
        for m in ModelKind::ALL {
            if report.works(m) {
                assert!(
                    run_main(&unit, m).is_ok(),
                    "UNSOUND-CLEAN — lint blessed {m} but it traps\n{}\n{src}",
                    report.render()
                );
            }
        }
        assert!(
            run_main(&unit, ModelKind::Mpx).is_err(),
            "one path traps on MPX\n{src}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Proptest layer over the same generators: free-ranging seeds (and
    /// explicit shape choice, so shrinking converges per shape) must keep
    /// both soundness guarantees. The deterministic sweep above covers
    /// seeds 0..520; this explores the rest of the seed space.
    #[test]
    fn lint_is_sound_on_arbitrary_seeds(seed in 0u64..u64::MAX / 2, shape in 0u64..6) {
        let src = gen_program(seed / 6 * 6 + shape);
        let report = analyze_source(&src).expect("generated program parses");
        let unit = cheri::c::parse(&src).expect("parsed above");
        for m in ModelKind::ALL {
            if report.works(m) {
                let ran = run_main(&unit, m);
                prop_assert!(
                    ran.is_ok(),
                    "seed {seed} shape {shape}: UNSOUND-CLEAN — lint blessed {m} but it traps\n{src}"
                );
            }
        }
        if report.portable() {
            let answers = exit_codes_everywhere(&src);
            let expect = answers[0].1;
            for (name, got) in &answers {
                prop_assert_eq!(
                    *got, expect,
                    "seed {} shape {}: substrate {} diverges on a portable program\n{}",
                    seed, shape, name, &src
                );
            }
        }
    }
}

/// The shape-by-shape verdict profile, pinned so the analysis cannot
/// silently drift: arithmetic, `intptr_t` round trips and nested-loop
/// pointer walks are portable, plain-`long` round trips (in `main` or
/// behind a call) lose exactly the two CHERIs, and mask stashes
/// additionally lose the metadata-keyed schemes.
#[test]
fn generated_shapes_have_pinned_verdicts() {
    use ModelKind::*;
    for seed in 0..60u64 {
        let src = gen_program(seed);
        let report = analyze_source(&src).expect("generated program parses");
        let works: Vec<ModelKind> = ModelKind::ALL
            .iter()
            .copied()
            .filter(|&m| report.works(m))
            .collect();
        match seed % 6 {
            0 | 2 | 4 => assert!(
                report.portable(),
                "seed {seed} should be portable\n{}\n{src}",
                report.render()
            ),
            1 | 5 => assert_eq!(
                works,
                vec![Pdp11, HardBound, Mpx, Relaxed, Strict],
                "seed {seed}\n{src}"
            ),
            _ => assert_eq!(
                works,
                vec![Pdp11, Mpx, Relaxed, CheriV3],
                "seed {seed}\n{src}"
            ),
        }
    }
}
