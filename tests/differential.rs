//! Differential testing: generated programs must behave identically on all
//! eleven substrates — the seven interpreter memory models, the three
//! compiled ABIs, and CHERIv3 re-run on 128-bit compressed capability
//! storage. Any divergence is a bug in a model, the code generator, the
//! emulator, or the capability compression.

mod common;

use cheri::interp::ModelKind;
use cheri::vm::TrapCause;
use common::{exit_codes_everywhere, run_everywhere};
use proptest::prelude::*;

/// A tiny expression grammar: integer arithmetic, comparisons and array
/// reads with in-bounds indices, rendered as mini-C.
#[derive(Debug, Clone)]
enum E {
    Lit(i32),
    Var(usize),
    Arr(usize),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Lt(Box<E>, Box<E>),
    Ternary(Box<E>, Box<E>, Box<E>),
}

const NVARS: usize = 3;
const ARR_LEN: usize = 5;

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        (-100i32..100).prop_map(E::Lit),
        (0..NVARS).prop_map(E::Var),
        (0..ARR_LEN).prop_map(E::Arr),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Div(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Lt(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, a, b)| E::Ternary(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
        ]
    })
}

fn render(e: &E) -> String {
    match e {
        E::Lit(v) => format!("({v})"),
        E::Var(i) => format!("v{i}"),
        E::Arr(i) => format!("a[{i}]"),
        E::Add(a, b) => format!("({} + {})", render(a), render(b)),
        E::Sub(a, b) => format!("({} - {})", render(a), render(b)),
        E::Mul(a, b) => format!("({} * {})", render(a), render(b)),
        // Guard division by zero at the source level, as C programmers do.
        E::Div(a, b) => format!("({} / ({} | 1))", render(a), render(b)),
        E::Lt(a, b) => format!("({} < {})", render(a), render(b)),
        E::Ternary(c, a, b) => format!("({} ? {} : {})", render(c), render(a), render(b)),
    }
}

fn program(exprs: &[E], inits: &[i32; NVARS]) -> String {
    let mut body = String::new();
    for (i, v) in inits.iter().enumerate() {
        body.push_str(&format!("    long v{i} = {v};\n"));
    }
    body.push_str(&format!("    long a[{ARR_LEN}];\n"));
    body.push_str(&format!(
        "    for (int i = 0; i < {ARR_LEN}; i++) {{ a[i] = i * 3 - 4; }}\n"
    ));
    for (i, e) in exprs.iter().enumerate() {
        body.push_str(&format!("    v{} = {};\n", i % NVARS, render(e)));
    }
    body.push_str("    long r = (v0 + v1 + v2) % 100000;\n");
    body.push_str("    return (int)(r < 0 ? -r : r);\n");
    format!("int main(void) {{\n{body}}}\n")
}

/// `i64::MIN / -1` and `i64::MIN % -1`: the seven interpreter models use
/// two's-complement wrapping (`MIN / -1 == MIN`, `MIN % -1 == 0`), while
/// the VM's trapping `div`/`rem` (§3.1.1 hardware-assisted AIR) raise
/// `IntegerOverflow` on every substrate. Both verdicts are the harness's
/// expected behaviour — what this test pins down is that no substrate
/// silently disagrees with its family.
#[test]
fn i64_min_division_edge_cases_have_expected_verdicts() {
    let cases = [
        // q == MIN proves the interpreters wrapped rather than saturated.
        ("div", "long q = min / m1; return (int)(q == min);", 1),
        ("rem", "long q = min % m1; return (int)(q == 0);", 1),
    ];
    for (name, stmt, expected) in cases {
        let src = format!(
            "int main(void) {{\n    long min = 1;\n    long m1 = 1;\n    \
             min = min << 63;\n    m1 = m1 - 2;\n    {stmt}\n}}\n"
        );
        let outcomes = run_everywhere(&src);
        let (interp, vms) = outcomes.split_at(ModelKind::ALL.len());
        for (m, r) in interp {
            assert_eq!(*r, Ok(expected), "{name}: model {m} did not wrap");
        }
        for (abi, r) in vms {
            assert_eq!(
                r.map_err(|t| t.cause),
                Err(TrapCause::IntegerOverflow),
                "{name}: VM substrate {abi} must trap IntegerOverflow"
            );
        }
    }
}

/// Shift amounts ≥ 64: every substrate masks the amount to six bits
/// (MIPS/RISC-style), so `x << 64 == x` and `x >> 65 == x >> 1` — one
/// agreed answer across all seven models and all four VM substrates.
#[test]
fn oversized_shift_amounts_agree_everywhere() {
    let cases = [
        ("shl64", "return (int)(one << s64);", 1),
        ("shl65", "return (int)(one << (s64 + 1));", 2),
        ("shr65", "return (int)(four >> (s64 + 1));", 2),
        // 127 & 63 == 63, so the four is shifted out entirely.
        ("shr127", "return (int)(four >> (s64 + 63));", 0),
    ];
    for (name, stmt, expected) in cases {
        let src = format!(
            "int main(void) {{\n    long one = 1;\n    long four = 4;\n    \
             long s64 = 64;\n    {stmt}\n}}\n"
        );
        let outcomes = run_everywhere(&src);
        let (interp, vms) = outcomes.split_at(ModelKind::ALL.len());
        for (m, r) in interp {
            assert_eq!(*r, Ok(expected), "{name}: model {m} disagrees");
        }
        for (abi, r) in vms {
            assert_eq!(*r, Ok(expected), "{name}: VM substrate {abi} disagrees");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Eleven substrates, one answer.
    #[test]
    fn all_substrates_agree(
        exprs in proptest::collection::vec(arb_expr(), 1..5),
        inits in proptest::array::uniform3(-50i32..50),
    ) {
        let src = program(&exprs, &inits);
        let answers = exit_codes_everywhere(&src);
        let expect = answers[0].1;
        for (name, got) in &answers {
            prop_assert_eq!(*got, expect, "{} disagrees on:\n{}", name, &src);
        }
    }
}
