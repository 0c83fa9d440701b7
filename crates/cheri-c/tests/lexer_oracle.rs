//! Oracle test for the lexer: random token soups are lexed by `cheri_c::lex`
//! and by the original linear-scan lexer, kept here unchanged apart from
//! how it builds errors. The two must agree on every token kind, line and
//! column, and on the line and message of every error.
//!
//! The generator favours the inputs maximal munch is most sensitive to:
//! punctuators glued together with no separator (`<<=`, `>>=`, `->`,
//! `...` and their prefixes), numbers with suffixes, char and string
//! escapes, comments, preprocessor lines and newlines, plus malformed
//! literals and stray characters.

use cheri_c::{lex, CError, Token, TokenKind};
use proptest::prelude::*;

fn err(line: u32, msg: impl Into<String>) -> CError {
    CError {
        line,
        msg: msg.into(),
    }
}

/// Every punctuator, longest first so maximal munch works.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=",
    "-=", "*=", "/=", "%=", "&=", "|=", "^=", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!",
    "<", ">", "=", "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
];

/// The lexer as it was before first-byte punctuator dispatch: every
/// punctuator is tried in `PUNCTS` order (longest first).
fn oracle_lex(src: &str) -> Result<Vec<Token>, CError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    // Byte index where the current line starts; columns are 1-based offsets
    // from it.
    let mut line_start = 0usize;
    let mut at_line_start = true;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let col = (i - line_start + 1) as u32;
        match c {
            '\n' => {
                line += 1;
                line_start = i + 1;
                at_line_start = true;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '#' if at_line_start => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    if bytes[i] == b'\n' {
                        line += 1;
                        line_start = i + 1;
                    }
                    i += 1;
                }
                if i + 1 >= bytes.len() {
                    return Err(err(line, "unterminated block comment"));
                }
                i += 2;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                at_line_start = false;
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                toks.push(Token {
                    kind: TokenKind::Ident(src[start..i].to_string()),
                    line,
                    col,
                });
            }
            c if c.is_ascii_digit() => {
                at_line_start = false;
                let start = i;
                let radix = if c == '0' && i + 1 < bytes.len() && (bytes[i + 1] | 32) == b'x' {
                    i += 2;
                    16
                } else if c == '0' {
                    8
                } else {
                    10
                };
                let digits_start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_alphanumeric() {
                    i += 1;
                }
                let mut text = &src[digits_start..i];
                // Strip integer suffixes (u, l, ul, ll…).
                while text.ends_with(['u', 'U', 'l', 'L']) {
                    text = &text[..text.len() - 1];
                }
                let v = if radix == 8 {
                    let t = &src[start..][..1 + (text.len() + digits_start - start - 1)];
                    // Octal "0" alone is zero; otherwise parse the rest base 8.
                    let rest = &t[1..];
                    if rest.is_empty() {
                        0
                    } else {
                        i64::from_str_radix(rest, 8)
                            .map_err(|_| err(line, format!("bad octal literal {t}")))?
                    }
                } else {
                    u64::from_str_radix(text, radix)
                        .map(|u| u as i64)
                        .map_err(|_| err(line, format!("bad integer literal {text}")))?
                };
                toks.push(Token {
                    kind: TokenKind::Int(v),
                    line,
                    col,
                });
            }
            '\'' => {
                at_line_start = false;
                i += 1;
                let (ch, used) = unescape_char(bytes, i, line)?;
                i += used;
                if i >= bytes.len() || bytes[i] != b'\'' {
                    return Err(err(line, "unterminated char literal"));
                }
                i += 1;
                toks.push(Token {
                    kind: TokenKind::Int(ch as i64),
                    line,
                    col,
                });
            }
            '"' => {
                at_line_start = false;
                i += 1;
                let mut s = String::new();
                while i < bytes.len() && bytes[i] != b'"' {
                    let (ch, used) = unescape_char(bytes, i, line)?;
                    s.push(ch as char);
                    i += used;
                }
                if i >= bytes.len() {
                    return Err(err(line, "unterminated string literal"));
                }
                i += 1;
                toks.push(Token {
                    kind: TokenKind::Str(s),
                    line,
                    col,
                });
            }
            _ => {
                at_line_start = false;
                let rest = &src[i..];
                let p = PUNCTS
                    .iter()
                    .find(|p| rest.starts_with(**p))
                    .ok_or_else(|| err(line, format!("unexpected character {c:?}")))?;
                toks.push(Token {
                    kind: TokenKind::Punct(p),
                    line,
                    col,
                });
                i += p.len();
            }
        }
    }
    toks.push(Token {
        kind: TokenKind::Eof,
        line,
        col: (bytes.len() - line_start + 1) as u32,
    });
    Ok(toks)
}

/// Decodes one possibly-escaped character at `bytes[i..]`, returning it and
/// the number of bytes consumed.
fn unescape_char(bytes: &[u8], i: usize, line: u32) -> Result<(u8, usize), CError> {
    if i >= bytes.len() {
        return Err(err(line, "unexpected end of literal"));
    }
    if bytes[i] != b'\\' {
        return Ok((bytes[i], 1));
    }
    if i + 1 >= bytes.len() {
        return Err(err(line, "dangling escape"));
    }
    let c = match bytes[i + 1] {
        b'n' => b'\n',
        b't' => b'\t',
        b'r' => b'\r',
        b'0' => 0,
        b'\\' => b'\\',
        b'\'' => b'\'',
        b'"' => b'"',
        other => return Err(err(line, format!("unknown escape \\{}", other as char))),
    };
    Ok((c, 2))
}

/// Source fragments; adjacent fragments are often glued without a
/// separator, so punctuator pairs meet at every possible seam. The first
/// 46 are the punctuators.
const FRAGMENTS: &[&str] = &[
    "<",
    "<<",
    "<<=",
    "<=",
    ">",
    ">>",
    ">>=",
    ">=",
    "-",
    "->",
    "--",
    "-=",
    ".",
    "...",
    "+",
    "++",
    "+=",
    "=",
    "==",
    "!",
    "!=",
    "&",
    "&&",
    "&=",
    "|",
    "||",
    "|=",
    "*",
    "*=",
    "/",
    "/=",
    "%",
    "%=",
    "^",
    "^=",
    "~",
    "?",
    ":",
    ";",
    ",",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "..",
    "x",
    "_tmp1",
    "while",
    "int",
    "p2",
    "0",
    "7",
    "42",
    "0x2A",
    "0XffUL",
    "052",
    "10u",
    "3LL",
    "0x",
    "09",
    "12ab",
    "'a'",
    r"'\n'",
    r"'\0'",
    r"'\''",
    r"'\\'",
    r"'\q'",
    "'ab'",
    "'",
    "\"s\"",
    r#""a\tb\"c""#,
    r#""\r\0""#,
    "\"open",
    "// note",
    "/* c */",
    "/* two\nlines */",
    "/* open",
    "\n",
    "\n#include <x.h>\n",
    "#",
    "$",
    "@",
    "`",
    "\\",
    "\u{e9}",
    "\t",
    "\r\n",
];

/// Separators between fragments; the empty one glues them.
const SEPARATORS: &[&str] = &["", "", "", " ", "\n", "\t"];

fn assemble(parts: &[(usize, usize)]) -> String {
    let mut src = String::new();
    for &(f, s) in parts {
        src.push_str(FRAGMENTS[f]);
        src.push_str(SEPARATORS[s]);
    }
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn lex_agrees_with_the_linear_scan_oracle(
        parts in proptest::collection::vec((0..FRAGMENTS.len(), 0..SEPARATORS.len()), 0..24),
    ) {
        let src = assemble(&parts);
        prop_assert_eq!(lex(&src), oracle_lex(&src), "source: {:?}", src);
    }
}

#[test]
fn every_punctuator_pair_munches_like_the_oracle() {
    let puncts = &FRAGMENTS[..46];
    assert!(puncts.iter().all(|p| PUNCTS.contains(p)) && PUNCTS.len() == 46);
    for a in puncts {
        for b in puncts {
            for sep in ["", " "] {
                let src = format!("{a}{sep}{b}");
                assert_eq!(lex(&src), oracle_lex(&src), "source: {src:?}");
            }
        }
    }
}

#[test]
fn every_ascii_byte_lexes_like_the_oracle() {
    for b in 0u8..128 {
        let src = format!("a{}b", b as char);
        assert_eq!(lex(&src), oracle_lex(&src), "byte {b}");
    }
}
