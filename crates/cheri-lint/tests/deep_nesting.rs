//! Hostile nesting depth must come back as a front-end error, never as a
//! host stack overflow.
//!
//! Every front-end pass after the parser recurses over the syntax tree, so
//! the parser bounds the tree's depth at `cheri_c::MAX_NESTING`. Each case
//! below runs on a thread with a 2 MiB stack (the default for spawned
//! threads): 10k levels must be rejected, and programs at C11's minimum
//! translation limits must still be accepted and linted.

use cheri_c::MAX_NESTING;
use cheri_lint::analyze_source;

const DEEP: usize = 10_000;

/// Runs `f` on a fresh thread with a 2 MiB stack; a stack overflow aborts
/// the whole test process instead of failing one test.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic")
}

fn main_returning(body: String) -> String {
    format!("int f(int x) {{ return x; }}\nint main(void) {{\n{body}\n}}\n")
}

/// The hostile shapes, each nested `n` levels deep.
fn shapes(n: usize) -> Vec<(&'static str, String)> {
    vec![
        (
            "parentheses",
            main_returning(format!("return {}1{};", "(".repeat(n), ")".repeat(n))),
        ),
        (
            "blocks",
            main_returning(format!("{}return 0;{}", "{".repeat(n), "}".repeat(n))),
        ),
        (
            "unary minus",
            main_returning(format!("return {}1;", "- ".repeat(n))),
        ),
        (
            "logical not",
            main_returning(format!("return {}1;", "!".repeat(n))),
        ),
        (
            "casts",
            main_returning(format!("return {}1;", "(long)".repeat(n))),
        ),
        (
            "left-assoc binary chain",
            main_returning(format!("return 1{};", " + 1".repeat(n))),
        ),
        (
            "right-assoc assignment chain",
            main_returning(format!("int x; x{} = 1; return x;", " = x".repeat(n))),
        ),
        (
            "ternary chain",
            main_returning(format!("return {}0;", "0 ? 1 : ".repeat(n))),
        ),
        (
            "postfix chain",
            main_returning(format!(
                "int a[2]; int *p = a; return p{};",
                "[0]".repeat(n)
            )),
        ),
        (
            "nested subscripts",
            main_returning(format!(
                "int a[2]; return {}0{};",
                "a[".repeat(n),
                "]".repeat(n)
            )),
        ),
        (
            "nested calls",
            main_returning(format!("return {}0{};", "f(".repeat(n), ")".repeat(n))),
        ),
        (
            "sizeof chain",
            main_returning(format!("return {}1;", "sizeof ".repeat(n))),
        ),
        (
            "unbraced if chain",
            main_returning(format!("{}return 0; return 1;", "if (1) ".repeat(n))),
        ),
        (
            "unbraced for chain",
            main_returning(format!("{}return 0; return 1;", "for (;;) ".repeat(n))),
        ),
    ]
}

#[test]
fn ten_thousand_levels_are_an_error_not_an_abort() {
    on_small_stack(|| {
        for (name, src) in shapes(DEEP) {
            let e = cheri_c::parse(&src).expect_err(name);
            assert!(e.msg.contains("nesting deeper than"), "{name}: {e}");
            let e = analyze_source(&src).expect_err(name);
            assert!(e.contains("nesting deeper than"), "{name}: {e}");
        }
    });
}

#[test]
fn the_limit_is_exact() {
    on_small_stack(|| {
        // The function body's braces are not a statement; each inner
        // block, the `return` and its operand are one level each.
        let blocks =
            |n: usize| main_returning(format!("{}return 0;{}", "{".repeat(n), "}".repeat(n)));
        assert!(cheri_c::parse(&blocks(MAX_NESTING - 2)).is_ok());
        let e = cheri_c::parse(&blocks(MAX_NESTING - 1)).unwrap_err();
        assert_eq!(e.msg, format!("nesting deeper than {MAX_NESTING} levels"));
    });
}

#[test]
fn c11_minimum_limits_still_parse_and_lint() {
    on_small_stack(|| {
        // 127 nested blocks around a statement with 63 nested parentheses.
        let src = main_returning(format!(
            "int x = 1;\n{}x = {}x + 1{};{}\nreturn x;",
            "{".repeat(127),
            "(".repeat(63),
            ")".repeat(63),
            "}".repeat(127)
        ));
        let report = analyze_source(&src).expect("within C11's limits");
        assert!(report.portable(), "{}", report.render());
    });
}

#[test]
fn every_shape_just_inside_the_limit_lints() {
    on_small_stack(|| {
        for (name, src) in shapes(MAX_NESTING - 8) {
            if let Err(e) = analyze_source(&src) {
                assert!(!e.contains("nesting deeper than"), "{name}: {e}");
            }
        }
    });
}
