//! Recursive-descent parser.

use crate::ast::*;
use crate::lexer::{Token, TokenKind};
use crate::CError;

/// Parses a token stream into an (untyped) translation unit.
///
/// # Errors
///
/// The first syntax error, with its source line.
pub fn parse_tokens(tokens: &[Token]) -> Result<TranslationUnit, CError> {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        depth: 0,
        unit: TranslationUnit::default(),
    };
    p.translation_unit()?;
    Ok(p.unit)
}

const TYPE_KEYWORDS: &[&str] = &[
    "void",
    "char",
    "short",
    "int",
    "long",
    "unsigned",
    "signed",
    "const",
    "struct",
    "union",
    "intptr_t",
    "uintptr_t",
    "intcap_t",
    "uintcap_t",
    "size_t",
    "ptrdiff_t",
];

/// The deepest statement and expression nesting the parser accepts. The
/// parser and every later pass (sema, the idiom analyzer, lowering) recurse
/// over the tree, so an unbounded depth would let a hostile source overflow
/// the host's stack. C11 (5.2.4.1) requires at least 127 nested blocks and
/// 63 nested parenthesized expressions; this leaves room for both at once.
pub const MAX_NESTING: usize = 256;

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    /// Current nesting depth: recursive statement and expression entries,
    /// plus one per operator a left-associative loop has folded so far.
    depth: usize,
    unit: TranslationUnit,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    /// Line and column of the current token, for expression positions.
    fn span(&self) -> Span {
        Span::from(&self.toks[self.pos])
    }

    fn bump(&mut self) -> &TokenKind {
        let k = &self.toks[self.pos].kind;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        k
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), TokenKind::Punct(q) if *q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), CError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(CError::new(
                self.line(),
                format!("expected `{p}`, found {:?}", self.peek()),
            ))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Ident(s) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, CError> {
        let line = self.line();
        match self.bump() {
            TokenKind::Ident(s) => Ok(s.clone()),
            other => Err(CError::new(
                line,
                format!("expected identifier, found {other:?}"),
            )),
        }
    }

    /// Enters one nesting level, failing past [`MAX_NESTING`]. Callers
    /// restore `depth` on success; an error aborts the whole parse.
    fn enter(&mut self) -> Result<(), CError> {
        if self.depth >= MAX_NESTING {
            return Err(CError::new(
                self.line(),
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs the recursive production `f` one nesting level deeper.
    fn nested<T>(&mut self, f: fn(&mut Self) -> Result<T, CError>) -> Result<T, CError> {
        self.enter()?;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn at_type_start(&self) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if TYPE_KEYWORDS.contains(&s.as_str()))
    }

    // --- Types ---

    /// Parses a type specifier (no pointer declarators).
    fn type_specifier(&mut self) -> Result<(Type, bool), CError> {
        let mut is_const = false;
        while self.eat_kw("const") {
            is_const = true;
        }
        let line = self.line();
        let base = if self.eat_kw("void") {
            Type::Void
        } else if self.eat_kw("struct") || {
            if matches!(self.peek(), TokenKind::Ident(s) if s == "union") {
                self.pos += 1;
                return self.struct_or_union_tail(true, is_const);
            }
            false
        } {
            return self.struct_or_union_tail(false, is_const);
        } else if self.eat_kw("unsigned") {
            self.int_tail(false)
        } else if self.eat_kw("signed") {
            self.int_tail(true)
        } else if self.eat_kw("char") {
            Type::char_()
        } else if self.eat_kw("short") {
            self.eat_kw("int");
            Type::Int {
                width: 2,
                signed: true,
            }
        } else if self.eat_kw("int") {
            Type::int()
        } else if self.eat_kw("long") {
            self.eat_kw("long");
            self.eat_kw("int");
            Type::long()
        } else if self.eat_kw("intptr_t") {
            Type::IntPtr { signed: true }
        } else if self.eat_kw("uintptr_t") {
            Type::IntPtr { signed: false }
        } else if self.eat_kw("intcap_t") {
            Type::IntCap { signed: true }
        } else if self.eat_kw("uintcap_t") {
            Type::IntCap { signed: false }
        } else if self.eat_kw("size_t") {
            Type::Int {
                width: 8,
                signed: false,
            }
        } else if self.eat_kw("ptrdiff_t") {
            Type::Int {
                width: 8,
                signed: true,
            }
        } else {
            return Err(CError::new(
                line,
                format!("expected type, found {:?}", self.peek()),
            ));
        };
        while self.eat_kw("const") {
            is_const = true;
        }
        Ok((base, is_const))
    }

    fn int_tail(&mut self, signed: bool) -> Type {
        if self.eat_kw("char") {
            Type::Int { width: 1, signed }
        } else if self.eat_kw("short") {
            self.eat_kw("int");
            Type::Int { width: 2, signed }
        } else if self.eat_kw("long") {
            self.eat_kw("long");
            self.eat_kw("int");
            Type::Int { width: 8, signed }
        } else {
            self.eat_kw("int");
            Type::Int { width: 4, signed }
        }
    }

    fn struct_or_union_tail(
        &mut self,
        is_union: bool,
        is_const: bool,
    ) -> Result<(Type, bool), CError> {
        let line = self.line();
        let name = self.expect_ident()?;
        if self.eat_punct("{") {
            // Definition. Register the name first for self-references.
            if self.unit.struct_by_name(&name).is_some() {
                return Err(CError::new(
                    line,
                    format!("duplicate struct/union `{name}`"),
                ));
            }
            let id = self.unit.structs.len();
            self.unit.structs.push(StructDef {
                name: name.clone(),
                is_union,
                fields: Vec::new(),
            });
            let mut fields = Vec::new();
            while !self.eat_punct("}") {
                let (base, _) = self.type_specifier()?;
                loop {
                    let (ty, fname) = self.declarator(base.clone())?;
                    fields.push(Field { name: fname, ty });
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(";")?;
            }
            self.unit.structs[id].fields = fields;
            Ok((Type::Struct(id), is_const))
        } else {
            let id = self
                .unit
                .struct_by_name(&name)
                .ok_or_else(|| CError::new(line, format!("unknown struct/union `{name}`")))?;
            Ok((Type::Struct(id), is_const))
        }
    }

    /// Parses `'*'… name ('[' N ']')?` after a type specifier, returning the
    /// final type and the declared name.
    fn declarator(&mut self, mut base: Type) -> Result<(Type, String), CError> {
        let mut pointee_const = false;
        loop {
            if self.eat_punct("*") {
                let mut qual = CapQual::None;
                let mut this_const = false;
                loop {
                    if self.eat_kw("const") {
                        this_const = true;
                    } else if self.eat_kw("__capability") {
                        qual = CapQual::Capability;
                    } else if self.eat_kw("__input") {
                        qual = CapQual::Input;
                    } else if self.eat_kw("__output") {
                        qual = CapQual::Output;
                    } else {
                        break;
                    }
                }
                base = Type::Ptr {
                    pointee: Box::new(base),
                    is_const: pointee_const,
                    qual,
                };
                pointee_const = this_const;
            } else {
                break;
            }
        }
        // `const` on the outermost pointer itself (e.g. `char * const p`) is
        // accepted and ignored: it constrains the variable, not the pointee.
        let _ = pointee_const;
        let name = self.expect_ident()?;
        let mut ty = base;
        if self.eat_punct("[") {
            let line = self.line();
            if self.eat_punct("]") {
                // Unsized array (parameter or string-initialized global).
                ty = Type::Array {
                    elem: Box::new(ty),
                    len: 0,
                };
            } else {
                let len = match self.bump() {
                    TokenKind::Int(n) if *n >= 0 => *n as u64,
                    other => {
                        return Err(CError::new(
                            line,
                            format!("expected array length, found {other:?}"),
                        ))
                    }
                };
                self.expect_punct("]")?;
                ty = Type::Array {
                    elem: Box::new(ty),
                    len,
                };
            }
        }
        Ok((ty, name))
    }

    /// The type-specifier+declarator treats the const-ness as applying to
    /// the *pointee* of the first `*`, matching `const char *p` usage.
    fn full_type(&mut self) -> Result<(Type, String), CError> {
        let (base, spec_const) = self.type_specifier()?;
        let (ty, name) = self.declarator(base)?;
        Ok((apply_spec_const(ty, spec_const), name))
    }

    /// An abstract type for casts / sizeof: specifier plus `*`s, no name.
    fn abstract_type(&mut self) -> Result<Type, CError> {
        let (base, spec_const) = self.type_specifier()?;
        let mut ty = base;
        let mut first = true;
        while self.eat_punct("*") {
            let mut qual = CapQual::None;
            loop {
                if self.eat_kw("const") {
                } else if self.eat_kw("__capability") {
                    qual = CapQual::Capability;
                } else if self.eat_kw("__input") {
                    qual = CapQual::Input;
                } else if self.eat_kw("__output") {
                    qual = CapQual::Output;
                } else {
                    break;
                }
            }
            ty = Type::Ptr {
                pointee: Box::new(ty),
                is_const: first && spec_const,
                qual,
            };
            first = false;
        }
        if first && spec_const {
            // const on a non-pointer cast type: irrelevant, drop it.
        }
        Ok(ty)
    }

    // --- Top level ---

    fn translation_unit(&mut self) -> Result<(), CError> {
        while !matches!(self.peek(), TokenKind::Eof) {
            // Bare struct/union definition?
            if matches!(self.peek(), TokenKind::Ident(s) if s == "struct" || s == "union") {
                // Lookahead: `struct Name {` is a definition statement.
                if let (TokenKind::Ident(_), TokenKind::Ident(_)) = (self.peek(), self.peek2()) {
                    let is_def = matches!(
                        self.toks.get(self.pos + 2).map(|t| &t.kind),
                        Some(TokenKind::Punct("{"))
                    );
                    if is_def {
                        let (_, _) = self.type_specifier()?;
                        self.expect_punct(";")?;
                        continue;
                    }
                }
            }
            self.global_or_function()?;
        }
        Ok(())
    }

    fn global_or_function(&mut self) -> Result<(), CError> {
        let line = self.line();
        let (ty, name) = self.full_type()?;
        if self.eat_punct("(") {
            let mut params = Vec::new();
            if !self.eat_punct(")") {
                let void_only = matches!(self.peek(), TokenKind::Ident(s) if s == "void")
                    && matches!(self.peek2(), TokenKind::Punct(")"));
                if void_only {
                    self.pos += 2; // `(void)` empty list
                } else {
                    loop {
                        let (pty, pname) = self.full_type()?;
                        params.push(Param {
                            name: pname,
                            ty: pty.decay(),
                        });
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                    self.expect_punct(")")?;
                }
            }
            if self.eat_punct(";") {
                // Forward declaration: recorded as a bodyless function only
                // if not defined later; simplest is to ignore it.
                return Ok(());
            }
            self.expect_punct("{")?;
            let body = self.block_tail()?;
            self.unit.funcs.push(FuncDef {
                name,
                ret: ty,
                params,
                body,
                line,
            });
            Ok(())
        } else {
            let init = if self.eat_punct("=") {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect_punct(";")?;
            self.unit.globals.push(GlobalDef {
                name,
                ty,
                init,
                line,
            });
            Ok(())
        }
    }

    // --- Statements ---

    /// Parses statements until the matching `}` (already consumed `{`).
    fn block_tail(&mut self) -> Result<Block, CError> {
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            stmts.push(self.stmt()?);
        }
        Ok(Block { stmts })
    }

    fn block_or_single(&mut self) -> Result<Block, CError> {
        if self.eat_punct("{") {
            self.block_tail()
        } else {
            Ok(Block {
                stmts: vec![self.stmt()?],
            })
        }
    }

    fn stmt(&mut self) -> Result<Stmt, CError> {
        self.nested(Self::stmt_inner)
    }

    /// Dispatches on the statement's first token. Each statement form has
    /// its own function, so the frame on the recursion path stays small.
    fn stmt_inner(&mut self) -> Result<Stmt, CError> {
        let line = self.line();
        if self.at_type_start() {
            return self.decl(line);
        }
        if self.eat_punct("{") {
            return Ok(Stmt::Block(self.block_tail()?));
        }
        if self.eat_kw("if") {
            return self.if_tail();
        }
        if self.eat_kw("while") {
            return self.while_tail();
        }
        if self.eat_kw("do") {
            return self.do_tail();
        }
        if self.eat_kw("for") {
            return self.for_tail(line);
        }
        if self.eat_kw("return") {
            return self.return_tail(line);
        }
        if self.eat_kw("break") {
            self.expect_punct(";")?;
            return Ok(Stmt::Break(line));
        }
        if self.eat_kw("continue") {
            self.expect_punct(";")?;
            return Ok(Stmt::Continue(line));
        }
        self.expr_stmt()
    }

    fn expr_stmt(&mut self) -> Result<Stmt, CError> {
        let e = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Expr(e))
    }

    fn return_tail(&mut self, line: u32) -> Result<Stmt, CError> {
        let e = if matches!(self.peek(), TokenKind::Punct(";")) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect_punct(";")?;
        Ok(Stmt::Return(e, line))
    }

    /// A local declaration with an optional initializer, through the `;`.
    fn decl(&mut self, line: u32) -> Result<Stmt, CError> {
        let (ty, name) = self.full_type()?;
        let init = if self.eat_punct("=") {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect_punct(";")?;
        Ok(Stmt::Decl {
            name,
            ty,
            init,
            line,
        })
    }

    /// A parenthesized condition.
    fn cond(&mut self) -> Result<Expr, CError> {
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        Ok(cond)
    }

    fn if_tail(&mut self) -> Result<Stmt, CError> {
        let cond = self.cond()?;
        let then_branch = self.block_or_single()?;
        let else_branch = if self.eat_kw("else") {
            Some(self.block_or_single()?)
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn while_tail(&mut self) -> Result<Stmt, CError> {
        let cond = self.cond()?;
        let body = self.block_or_single()?;
        Ok(Stmt::While { cond, body })
    }

    fn do_tail(&mut self) -> Result<Stmt, CError> {
        let body = self.block_or_single()?;
        if !self.eat_kw("while") {
            return Err(CError::new(self.line(), "expected `while` after `do` body"));
        }
        let cond = self.cond()?;
        self.expect_punct(";")?;
        Ok(Stmt::DoWhile { body, cond })
    }

    fn for_tail(&mut self, line: u32) -> Result<Stmt, CError> {
        self.expect_punct("(")?;
        let init = if self.eat_punct(";") {
            None
        } else if self.at_type_start() {
            Some(Box::new(self.decl(line)?))
        } else {
            let e = self.expr()?;
            self.expect_punct(";")?;
            Some(Box::new(Stmt::Expr(e)))
        };
        let cond = if matches!(self.peek(), TokenKind::Punct(";")) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect_punct(";")?;
        let step = if matches!(self.peek(), TokenKind::Punct(")")) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect_punct(")")?;
        let body = self.block_or_single()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
        })
    }

    // --- Expressions (precedence climbing) ---
    //
    // Every nesting level passes through each of these productions, so
    // each keeps its frame small (even in unoptimized builds) by handing
    // the rest of the work to a `*_tail` function once it knows which form
    // it is parsing.

    fn expr(&mut self) -> Result<Expr, CError> {
        self.nested(Self::assignment)
    }

    fn assignment(&mut self) -> Result<Expr, CError> {
        let line = self.span();
        let lhs = self.ternary()?;
        let op = match self.peek() {
            TokenKind::Punct("=") => None,
            TokenKind::Punct("+=") => Some(BinOp::Add),
            TokenKind::Punct("-=") => Some(BinOp::Sub),
            TokenKind::Punct("*=") => Some(BinOp::Mul),
            TokenKind::Punct("/=") => Some(BinOp::Div),
            TokenKind::Punct("%=") => Some(BinOp::Rem),
            TokenKind::Punct("&=") => Some(BinOp::BitAnd),
            TokenKind::Punct("|=") => Some(BinOp::BitOr),
            TokenKind::Punct("^=") => Some(BinOp::BitXor),
            TokenKind::Punct("<<=") => Some(BinOp::Shl),
            TokenKind::Punct(">>=") => Some(BinOp::Shr),
            _ => return Ok(lhs),
        };
        self.pos += 1;
        self.assign_tail(line, op, lhs)
    }

    /// The right-hand side of an assignment, after the operator.
    fn assign_tail(&mut self, line: Span, op: Option<BinOp>, lhs: Expr) -> Result<Expr, CError> {
        let rhs = self.nested(Self::assignment)?;
        Ok(Expr::new(
            ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
            line,
        ))
    }

    fn ternary(&mut self) -> Result<Expr, CError> {
        let line = self.span();
        let cond = self.binary(0)?;
        if !self.eat_punct("?") {
            return Ok(cond);
        }
        self.ternary_tail(line, cond)
    }

    /// The two arms of a conditional expression, after the `?`.
    fn ternary_tail(&mut self, line: Span, cond: Expr) -> Result<Expr, CError> {
        let a = self.expr()?;
        self.expect_punct(":")?;
        let b = self.nested(Self::ternary)?;
        Ok(Expr::new(
            ExprKind::Ternary(Box::new(cond), Box::new(a), Box::new(b)),
            line,
        ))
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, CError> {
        let lhs = self.unary()?;
        self.binary_tail(min_prec, lhs)
    }

    /// Folds the binary operators of precedence at least `min_prec` that
    /// follow the operand `lhs`.
    fn binary_tail(&mut self, min_prec: u8, mut lhs: Expr) -> Result<Expr, CError> {
        let base = self.depth;
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::Punct("||") => (BinOp::LogOr, 1),
                TokenKind::Punct("&&") => (BinOp::LogAnd, 2),
                TokenKind::Punct("|") => (BinOp::BitOr, 3),
                TokenKind::Punct("^") => (BinOp::BitXor, 4),
                TokenKind::Punct("&") => (BinOp::BitAnd, 5),
                TokenKind::Punct("==") => (BinOp::Eq, 6),
                TokenKind::Punct("!=") => (BinOp::Ne, 6),
                TokenKind::Punct("<") => (BinOp::Lt, 7),
                TokenKind::Punct(">") => (BinOp::Gt, 7),
                TokenKind::Punct("<=") => (BinOp::Le, 7),
                TokenKind::Punct(">=") => (BinOp::Ge, 7),
                TokenKind::Punct("<<") => (BinOp::Shl, 8),
                TokenKind::Punct(">>") => (BinOp::Shr, 8),
                TokenKind::Punct("+") => (BinOp::Add, 9),
                TokenKind::Punct("-") => (BinOp::Sub, 9),
                TokenKind::Punct("*") => (BinOp::Mul, 10),
                TokenKind::Punct("/") => (BinOp::Div, 10),
                TokenKind::Punct("%") => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let line = self.span();
            self.pos += 1;
            // Each folded operator deepens the left spine by one node.
            self.enter()?;
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), line);
        }
        self.depth = base;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CError> {
        let line = self.span();
        let op = match self.peek() {
            TokenKind::Punct("-") => UnOp::Neg,
            TokenKind::Punct("!") => UnOp::Not,
            TokenKind::Punct("~") => UnOp::BitNot,
            TokenKind::Punct("*") => UnOp::Deref,
            TokenKind::Punct("&") => UnOp::Addr,
            TokenKind::Punct(p @ ("++" | "--")) => {
                let inc = *p == "++";
                return self.pre_incdec_tail(line, inc);
            }
            TokenKind::Ident(s) if s == "sizeof" => return self.sizeof_tail(line),
            TokenKind::Ident(s) if s == "offsetof" => return self.offsetof_tail(line),
            TokenKind::Punct("(") if self.peek2_is_type() => return self.cast_tail(line),
            _ => return self.postfix(),
        };
        self.prefix_tail(line, op)
    }

    /// A prefix operator's operand, at the operator.
    fn prefix_tail(&mut self, line: Span, op: UnOp) -> Result<Expr, CError> {
        self.pos += 1;
        let operand = self.nested(Self::unary)?;
        Ok(Expr::new(ExprKind::Unary(op, Box::new(operand)), line))
    }

    /// `++x` or `--x`, at the operator.
    fn pre_incdec_tail(&mut self, line: Span, inc: bool) -> Result<Expr, CError> {
        self.pos += 1;
        let target = self.nested(Self::unary)?;
        Ok(Expr::new(
            ExprKind::IncDec {
                pre: true,
                inc,
                target: Box::new(target),
            },
            line,
        ))
    }

    /// `true` when the token after the current one starts a type name
    /// (a cast or `sizeof(type)`).
    fn peek2_is_type(&self) -> bool {
        matches!(self.peek2(), TokenKind::Ident(s) if TYPE_KEYWORDS.contains(&s.as_str()))
    }

    /// `sizeof(type)` or `sizeof expr`, at the `sizeof` keyword.
    fn sizeof_tail(&mut self, line: Span) -> Result<Expr, CError> {
        self.pos += 1;
        // `sizeof(type)` or `sizeof(expr)` — disambiguate by lookahead.
        if matches!(self.peek(), TokenKind::Punct("(")) && self.peek2_is_type() {
            self.expect_punct("(")?;
            let ty = self.abstract_type()?;
            self.expect_punct(")")?;
            return Ok(Expr::new(ExprKind::SizeofType(ty), line));
        }
        let e = self.nested(Self::unary)?;
        Ok(Expr::new(ExprKind::SizeofExpr(Box::new(e)), line))
    }

    /// `offsetof(type, field)`, at the `offsetof` keyword.
    fn offsetof_tail(&mut self, line: Span) -> Result<Expr, CError> {
        self.pos += 1;
        self.expect_punct("(")?;
        let ty = self.abstract_type()?;
        self.expect_punct(",")?;
        let field = self.expect_ident()?;
        self.expect_punct(")")?;
        Ok(Expr::new(ExprKind::Offsetof(ty, field), line))
    }

    /// `(type) operand`, at the `(`.
    fn cast_tail(&mut self, line: Span) -> Result<Expr, CError> {
        self.expect_punct("(")?;
        let ty = self.abstract_type()?;
        self.expect_punct(")")?;
        let e = self.nested(Self::unary)?;
        Ok(Expr::new(ExprKind::Cast(ty, Box::new(e)), line))
    }

    fn postfix(&mut self) -> Result<Expr, CError> {
        let e = self.primary()?;
        self.postfix_tail(e)
    }

    /// Applies the postfix operators that follow the operand `e`.
    fn postfix_tail(&mut self, mut e: Expr) -> Result<Expr, CError> {
        let base = self.depth;
        loop {
            let line = self.span();
            let kind = match *self.peek() {
                TokenKind::Punct("[") => {
                    self.pos += 1;
                    let idx = self.expr()?;
                    self.expect_punct("]")?;
                    ExprKind::Index(Box::new(e), Box::new(idx))
                }
                TokenKind::Punct(p @ ("." | "->")) => {
                    self.pos += 1;
                    let field = self.expect_ident()?;
                    ExprKind::Member {
                        base: Box::new(e),
                        field,
                        arrow: p == "->",
                    }
                }
                TokenKind::Punct(p @ ("++" | "--")) => {
                    self.pos += 1;
                    ExprKind::IncDec {
                        pre: false,
                        inc: p == "++",
                        target: Box::new(e),
                    }
                }
                _ => break,
            };
            e = Expr::new(kind, line);
            // Each postfix operator wraps the expression in one more node.
            self.enter()?;
        }
        self.depth = base;
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, CError> {
        if self.eat_punct("(") {
            self.paren_tail()
        } else {
            self.atom()
        }
    }

    /// A parenthesized expression, after the `(`.
    fn paren_tail(&mut self) -> Result<Expr, CError> {
        let e = self.expr()?;
        self.expect_punct(")")?;
        Ok(e)
    }

    /// A literal, a variable or a call.
    fn atom(&mut self) -> Result<Expr, CError> {
        let line = self.span();
        match self.bump().clone() {
            TokenKind::Int(v) => Ok(Expr::new(ExprKind::IntLit(v), line)),
            TokenKind::Str(s) => Ok(Expr::new(ExprKind::StrLit(s), line)),
            TokenKind::Ident(name) => {
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                        self.expect_punct(")")?;
                    }
                    Ok(Expr::new(ExprKind::Call(name, args), line))
                } else {
                    Ok(Expr::new(ExprKind::Ident(name), line))
                }
            }
            other => Err(CError::new(
                line,
                format!("expected expression, found {other:?}"),
            )),
        }
    }
}

fn apply_spec_const(ty: Type, spec_const: bool) -> Type {
    if !spec_const {
        return ty;
    }
    // `const char *p`: const applies to the innermost pointee.
    match ty {
        Type::Ptr {
            pointee,
            is_const,
            qual,
        } => {
            let inner = apply_spec_const(*pointee, spec_const);
            if inner.is_pointer() {
                Type::Ptr {
                    pointee: Box::new(inner),
                    is_const,
                    qual,
                }
            } else {
                Type::Ptr {
                    pointee: Box::new(inner),
                    is_const: true,
                    qual,
                }
            }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> TranslationUnit {
        parse_tokens(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn function_with_params() {
        let u = parse("int add(int a, int b) { return a + b; }");
        let f = &u.funcs[0];
        assert_eq!(f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::int());
    }

    #[test]
    fn struct_definition_and_use() {
        let u = parse(
            "struct node { int v; struct node *next; };
             struct node *head;",
        );
        assert_eq!(u.structs.len(), 1);
        assert_eq!(u.structs[0].fields.len(), 2);
        // Self-referential pointer resolves to the same struct id.
        assert_eq!(u.structs[0].fields[1].ty, Type::ptr_to(Type::Struct(0)));
        assert_eq!(u.globals[0].ty, Type::ptr_to(Type::Struct(0)));
    }

    #[test]
    fn union_is_flagged() {
        let u = parse("union u { int i; char c[4]; };");
        assert!(u.structs[0].is_union);
    }

    #[test]
    fn const_char_pointer() {
        let u = parse("const char *msg;");
        assert!(u.globals[0].ty.pointee_is_const());
    }

    #[test]
    fn capability_qualifiers_parse() {
        let u = parse("int * __capability p; char * __input q; char * __output r;");
        assert_eq!(u.globals[0].ty.cap_qual(), CapQual::Capability);
        assert_eq!(u.globals[1].ty.cap_qual(), CapQual::Input);
        assert_eq!(u.globals[2].ty.cap_qual(), CapQual::Output);
    }

    #[test]
    fn arrays_and_indexing() {
        let u = parse("int a[10]; int get(int i) { return a[i]; }");
        assert_eq!(
            u.globals[0].ty,
            Type::Array {
                elem: Box::new(Type::int()),
                len: 10
            }
        );
    }

    #[test]
    fn control_flow_statements() {
        let u = parse(
            "int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { s += i; }
                while (s > 100) { s /= 2; }
                do { s--; } while (s > 50);
                if (s == 3) return 1; else return s;
            }",
        );
        assert_eq!(u.funcs[0].body.stmts.len(), 5);
    }

    #[test]
    fn casts_and_sizeof() {
        let u = parse(
            "long f(char *p) {
                long x = (long)p;
                x += sizeof(int) + sizeof x;
                return (long)(int*)x;
            }",
        );
        assert_eq!(u.funcs.len(), 1);
    }

    #[test]
    fn offsetof_builtin() {
        let u = parse(
            "struct s { int a; long b; };
             long f(void) { return offsetof(struct s, b); }",
        );
        let f = &u.funcs[0];
        assert!(matches!(
            &f.body.stmts[0],
            Stmt::Return(Some(Expr { kind: ExprKind::Offsetof(Type::Struct(0), fld), .. }), _)
                if fld == "b"
        ));
    }

    #[test]
    fn precedence_is_c_like() {
        let u = parse("int f(void) { return 1 + 2 * 3 == 7 && 4 < 5; }");
        // ((1 + (2*3)) == 7) && (4 < 5)
        let Stmt::Return(Some(e), _) = &u.funcs[0].body.stmts[0] else {
            panic!()
        };
        assert!(matches!(&e.kind, ExprKind::Binary(BinOp::LogAnd, _, _)));
    }

    #[test]
    fn ternary_and_compound_assign() {
        parse("int f(int x) { x <<= 2; x = x > 0 ? x : -x; return x; }");
    }

    #[test]
    fn pointer_arith_and_member_access() {
        parse(
            "struct pkt { int len; char data[16]; };
             int f(struct pkt *p) { char *d = p->data; d = d + p->len - 1; return *d; }",
        );
    }

    #[test]
    fn forward_declarations_are_skipped() {
        let u = parse("int g(int x); int g(int x) { return x; }");
        assert_eq!(u.funcs.len(), 1);
    }

    #[test]
    fn errors_report_line() {
        let toks = lex("int f() {\n  return $;\n}").err();
        assert!(toks.is_some()); // `$` already fails in the lexer
        let e = parse_tokens(&lex("int f(void) {\n  int;\n}").unwrap()).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn string_literals() {
        let u = parse("char *s = \"hi\";");
        assert!(matches!(
            u.globals[0].init.as_ref().unwrap().kind,
            ExprKind::StrLit(ref s) if s == "hi"
        ));
    }

    #[test]
    fn unsized_array_global() {
        let u = parse("char buf[];");
        assert_eq!(
            u.globals[0].ty,
            Type::Array {
                elem: Box::new(Type::char_()),
                len: 0
            }
        );
    }
}
