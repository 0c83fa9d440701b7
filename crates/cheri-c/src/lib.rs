//! A mini-C frontend: lexer, parser, typed AST.
//!
//! The paper evaluates C *as programmers actually write it* — pointer
//! subtraction, `container_of`, pointer↔integer casts, masking, unions,
//! `const` removal. This crate implements a C subset rich enough to express
//! every idiom of the paper's Table 1 and all four workloads (Olden,
//! Dhrystone, tcpdump-lite, zlib-lite), while staying small enough to
//! interpret (for the Table 3 model comparison) and compile (for the
//! Figure 1–4 performance runs).
//!
//! Supported: the integer types (`char`/`short`/`int`/`long`, signed and
//! unsigned), pointers with `const` and the paper's `__capability`,
//! `__input`, `__output` qualifiers, fixed-size arrays, `struct`/`union`,
//! `sizeof`/`offsetof`, string literals, the full C expression grammar
//! (including casts, `?:`, compound assignment, `++`/`--`), and
//! `if`/`while`/`for`/`do`/`break`/`continue`/`return`. `intptr_t`,
//! `uintptr_t` and `intcap_t` are built-in types whose representation is
//! chosen by the memory model, exactly as §5.1 prescribes ("changing the
//! `intptr_t` typedef to refer to the `intcap_t` type").
//!
//! Not supported (not needed by the corpus): the preprocessor (lines
//! starting with `#` are skipped), floating point, bitfields, varargs,
//! `switch`, `goto`, and function pointers. Statements and expressions
//! nested deeper than [`MAX_NESTING`] levels are rejected with a
//! [`CError`], so hostile input cannot overflow the host's stack.
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     int add(int a, int b) { return a + b; }
//!     int main(void) { return add(40, 2); }
//! "#;
//! let unit = cheri_c::parse(src)?;
//! assert_eq!(unit.funcs.len(), 2);
//! # Ok::<(), cheri_c::CError>(())
//! ```

mod ast;
mod lexer;
mod parser;
mod sema;

pub use ast::{
    BinOp, Block, CapQual, Expr, ExprKind, Field, FuncDef, GlobalDef, Param, Span, Stmt, StructDef,
    StructId, TranslationUnit, Type, UnOp,
};
pub use lexer::{lex, Token, TokenKind};
pub use parser::{parse_tokens, MAX_NESTING};
pub use sema::check;

use std::error::Error;
use std::fmt;

/// A front-end diagnostic, located by source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable message.
    pub msg: String,
}

impl CError {
    pub(crate) fn new(at: impl Into<Span>, msg: impl Into<String>) -> CError {
        CError {
            line: at.into().line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for CError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl Error for CError {}

/// Lexes, parses and type-checks a full translation unit.
///
/// # Errors
///
/// The first [`CError`] encountered at any stage.
pub fn parse(src: &str) -> Result<TranslationUnit, CError> {
    let tokens = lex(src)?;
    let mut unit = parse_tokens(&tokens)?;
    check(&mut unit)?;
    Ok(unit)
}
