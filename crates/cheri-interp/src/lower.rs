//! AST → IR lowering.
//!
//! Compiles a checked [`TranslationUnit`] into an [`IrProgram`] for one
//! target layout. The pass is run **once** and the result shared by every
//! memory model with that layout — the differential harness lowers twice
//! (LP64 and CHERI) instead of re-walking the AST seven times.
//!
//! The lowering is a faithful linearization of the AST walker it replaced:
//! evaluation order (place before right-hand side, left argument before
//! right), array-decay points, scope lifetimes (objects registered at the
//! declaration, retired at scope exit) and lazy unsupported-construct
//! errors are all preserved, so `RtError` reporting is unchanged.

use crate::ir::{
    BinMeta, Builtin, ConstOrigin, IrFunc, IrGlobal, IrProgram, Op, OpInfo, SlotDef, TyId,
    ELEM_POISON,
};
use crate::layout::{align_of, field_offset, size_of, TargetInfo};
use crate::machine::{GLOBALS_OFF, VBASE};
use cheri_c::{BinOp, Block, Expr, ExprKind, FuncDef, Stmt, TranslationUnit, Type, UnOp};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Lowers `unit` for `target`. The result is immutable and `Sync`: threads
/// running different models over the same layout share one lowering.
pub fn lower(unit: &TranslationUnit, target: TargetInfo) -> IrProgram {
    let mut lw = Lowerer {
        unit,
        ti: target,
        code: Vec::new(),
        info: Vec::new(),
        cur: OpInfo::default(),
        types: Vec::new(),
        ty_map: TyMap::default(),
        strings: Vec::new(),
        str_map: HashMap::new(),
        globals: Vec::new(),
        global_map: HashMap::new(),
        scopes: Vec::new(),
        frame_cur: 0,
        func_vars: Vec::new(),
        loops: Vec::new(),
    };
    lw.layout_globals();
    let str_ty = lw.tyid(&Type::ptr_to(Type::char_()));
    let mut funcs: Vec<IrFunc> = unit.funcs.iter().map(|f| lw.lower_func(f)).collect();
    let init_fid = funcs.len() as u32;
    funcs.push(lw.lower_global_init());
    IrProgram {
        target,
        code: lw.code,
        info: lw.info,
        funcs,
        types: lw.types,
        strings: lw.strings,
        globals: lw.globals,
        init_fid,
        str_ty,
    }
}

/// The type-interning table. A unit interns only a handful of distinct
/// types but looks one up for every typed op, so the table hashes with the
/// cheap [`MulHasher`] instead of SipHash.
type TyMap = HashMap<Type, TyId, MulState>;

/// Builds [`MulHasher`]s from a random per-table seed: the types come from
/// source text, which must not be able to choose colliding keys.
#[derive(Clone)]
struct MulState(u64);

impl Default for MulState {
    fn default() -> MulState {
        MulState(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for MulState {
    type Hasher = MulHasher;

    fn build_hasher(&self) -> MulHasher {
        MulHasher(self.0)
    }
}

/// A multiplicative (Fx-style) hasher: each written word is rotated into
/// the state and multiplied by an odd constant.
struct MulHasher(u64);

impl MulHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for MulHasher {
    // `Type`'s derived `Hash` writes only the integers below; byte strings
    // never reach this hasher, so they may go a byte at a time.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the well-mixed bits at the top; the table
        // indexes with the low bits.
        self.0.rotate_left(26)
    }
}

#[derive(Clone)]
struct Local {
    off: u32,
    size: u64,
    ty: Type,
}

/// Where a place lives, decided at lowering time. `Indirect` means the
/// pointer-producing ops have been emitted and the pointer is on the stack.
enum PlaceL {
    Local(Local),
    Global { addr: u64, ty: Type },
    Indirect { ty: Type },
}

struct LoopCtx {
    break_patches: Vec<usize>,
    continue_patches: Vec<usize>,
    /// Scope-stack depth just *outside* the loop body; break/continue
    /// retire every scope at or above this depth.
    body_depth: usize,
}

struct Lowerer<'u> {
    unit: &'u TranslationUnit,
    ti: TargetInfo,
    code: Vec<Op>,
    /// Per-op source metadata, pushed in lock step with `code`.
    info: Vec<OpInfo>,
    /// Position stamped onto the next emitted ops (the expression or
    /// statement currently being lowered).
    cur: OpInfo,
    types: Vec<Type>,
    ty_map: TyMap,
    strings: Vec<String>,
    str_map: HashMap<String, u32>,
    globals: Vec<IrGlobal>,
    global_map: HashMap<String, (u64, Type)>,
    scopes: Vec<Vec<(String, Local)>>,
    frame_cur: u64,
    func_vars: Vec<(u32, u64)>,
    loops: Vec<LoopCtx>,
}

impl<'u> Lowerer<'u> {
    // --- Small helpers ---

    fn tyid(&mut self, ty: &Type) -> TyId {
        if let Some(&id) = self.ty_map.get(ty) {
            return id;
        }
        let id = self.types.len() as TyId;
        self.types.push(ty.clone());
        self.ty_map.insert(ty.clone(), id);
        id
    }

    fn sid(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.str_map.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.str_map.insert(s.to_string(), id);
        id
    }

    fn size(&self, ty: &Type) -> u64 {
        size_of(ty, &self.unit.structs, &self.ti)
    }

    /// Access size for indirect loads/stores; `void` is poisoned so the
    /// machine faults exactly where the AST walker's `sizeof(void)` did.
    fn size_or_poison(&self, ty: &Type) -> u64 {
        if ty.is_void() {
            ELEM_POISON
        } else {
            self.size(ty)
        }
    }

    fn emit(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.info.push(OpInfo {
            origin: ConstOrigin::None,
            ..self.cur
        });
        self.code.len() - 1
    }

    /// [`Lowerer::emit`] with an explicit constant provenance (for folded
    /// `sizeof`/`offsetof` constants).
    fn emit_origin(&mut self, op: Op, origin: ConstOrigin) -> usize {
        let at = self.emit(op);
        self.info[at].origin = origin;
        at
    }

    /// Stamps the position subsequently emitted ops are attributed to.
    fn at(&mut self, line: u32, col: u32) {
        self.cur.line = line;
        self.cur.col = col;
    }

    fn here(&self) -> usize {
        self.code.len()
    }

    fn patch(&mut self, at: usize, target: usize) {
        match &mut self.code[at] {
            Op::Jump { target: t }
            | Op::JumpIfZero { target: t }
            | Op::JumpIfNonZero { target: t } => *t = target as u32,
            other => unreachable!("patching non-branch {other:?}"),
        }
    }

    fn unsupported(&mut self, msg: impl Into<String>, line: u32) {
        let msg: String = msg.into();
        self.emit(Op::Unsupported {
            msg: msg.into_boxed_str(),
            line,
        });
    }

    fn bin_meta(&mut self, ta: &Type, tb: &Type) -> BinMeta {
        let ta = ta.decay();
        let tb = tb.decay();
        let elem = |lw: &Self, t: &Type| match t.pointee() {
            Some(p) if p.is_void() => (true, ELEM_POISON),
            Some(p) => (true, lw.size(p)),
            None => (false, 0),
        };
        let (a_ptr, a_elem) = elem(self, &ta);
        let (b_ptr, b_elem) = elem(self, &tb);
        BinMeta {
            ta: self.tyid(&ta),
            tb: self.tyid(&tb),
            a_ptr,
            b_ptr,
            a_elem,
            b_elem,
        }
    }

    // --- Variables and scopes ---

    fn layout_globals(&mut self) {
        let mut cursor = VBASE + GLOBALS_OFF;
        for g in &self.unit.globals {
            let size = self.size(&g.ty).max(1);
            let align = align_of(&g.ty, &self.unit.structs, &self.ti).max(1);
            cursor = cursor.next_multiple_of(align);
            self.globals.push(IrGlobal {
                name: g.name.clone(),
                addr: cursor,
                size,
            });
            self.global_map
                .insert(g.name.clone(), (cursor, g.ty.clone()));
            cursor += size;
        }
    }

    fn define_slot(&mut self, name: &str, ty: &Type) -> Local {
        let size = self.size(ty).max(1);
        let align = align_of(ty, &self.unit.structs, &self.ti).max(1);
        let off = self.frame_cur.next_multiple_of(align);
        self.frame_cur = off + size;
        let local = Local {
            off: off as u32,
            size,
            ty: ty.clone(),
        };
        self.scopes
            .last_mut()
            .expect("active scope")
            .push((name.to_string(), local.clone()));
        self.func_vars.push((local.off, size));
        local
    }

    fn lookup(&self, name: &str) -> Option<PlaceL> {
        for scope in self.scopes.iter().rev() {
            if let Some((_, l)) = scope.iter().rev().find(|(n, _)| n == name) {
                return Some(PlaceL::Local(l.clone()));
            }
        }
        self.global_map.get(name).map(|(addr, ty)| PlaceL::Global {
            addr: *addr,
            ty: ty.clone(),
        })
    }

    fn push_scope(&mut self) {
        self.scopes.push(Vec::new());
    }

    /// Emits `Kill` ops for the top scope's variables and pops it.
    fn pop_scope(&mut self) {
        let scope = self.scopes.pop().expect("scope");
        for (_, l) in &scope {
            self.emit(Op::Kill {
                off: l.off,
                size: l.size,
            });
        }
    }

    /// Emits `Kill` ops for every scope at depth ≥ `depth` without popping
    /// (the `break`/`continue` unwind path — lowering continues in the
    /// scopes, but control flow leaves them).
    fn emit_kills_from(&mut self, depth: usize) {
        let kills: Vec<(u32, u64)> = self.scopes[depth..]
            .iter()
            .rev()
            .flat_map(|s| s.iter().map(|(_, l)| (l.off, l.size)))
            .collect();
        for (off, size) in kills {
            self.emit(Op::Kill { off, size });
        }
    }

    // --- Functions ---

    fn lower_func(&mut self, f: &FuncDef) -> IrFunc {
        self.frame_cur = 0;
        self.func_vars.clear();
        self.scopes = vec![Vec::new()];
        self.loops.clear();
        let entry = self.here();
        let params: Vec<SlotDef> = f
            .params
            .iter()
            .map(|p| {
                let local = self.define_slot(&p.name, &p.ty);
                let ty = self.tyid(&p.ty);
                SlotDef {
                    name: p.name.clone(),
                    off: local.off,
                    size: local.size,
                    ty,
                }
            })
            .collect();
        self.lower_block_scoped(&f.body);
        self.emit(Op::Ret { has_value: false });
        IrFunc {
            name: f.name.clone(),
            entry,
            frame_size: self.frame_cur.next_multiple_of(32),
            line: f.line,
            params,
            vars: std::mem::take(&mut self.func_vars),
        }
    }

    fn lower_global_init(&mut self) -> IrFunc {
        self.scopes = vec![Vec::new()];
        self.frame_cur = 0;
        self.func_vars.clear();
        let entry = self.here();
        let unit = self.unit;
        for g in &unit.globals {
            let Some(init) = &g.init else { continue };
            let (addr, _) = self.global_map[&g.name];
            if let (Type::Array { elem, .. }, ExprKind::StrLit(s)) = (&g.ty, &init.kind) {
                if **elem == Type::char_() {
                    let sid = self.sid(s);
                    self.emit(Op::InitStrGlobal {
                        addr,
                        sid,
                        line: g.line,
                    });
                    continue;
                }
            }
            self.lower_expr(init);
            let ty = self.tyid(&g.ty);
            self.emit(Op::StoreGlobal {
                addr,
                ty,
                line: g.line,
            });
            self.emit(Op::Pop);
        }
        self.emit(Op::Ret { has_value: false });
        IrFunc {
            name: "<global-init>".into(),
            entry,
            frame_size: 0,
            line: 0,
            params: Vec::new(),
            vars: Vec::new(),
        }
    }

    // --- Statements ---

    fn lower_block_scoped(&mut self, b: &Block) {
        self.push_scope();
        for s in &b.stmts {
            self.lower_stmt(s);
        }
        self.pop_scope();
    }

    fn lower_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl {
                name,
                ty,
                init,
                line,
            } => {
                self.at(*line, 0);
                let local = self.define_slot(name, ty);
                self.emit(Op::Define {
                    off: local.off,
                    size: local.size,
                });
                let Some(e) = init else { return };
                if let (Type::Array { elem, .. }, ExprKind::StrLit(st)) = (ty, &e.kind) {
                    if **elem == Type::char_() {
                        let sid = self.sid(st);
                        self.emit(Op::InitStrLocal {
                            off: local.off,
                            sid,
                            line: *line,
                        });
                        return;
                    }
                }
                self.lower_value(e);
                if matches!(ty, Type::Ptr { .. }) {
                    let ty_id = self.tyid(ty);
                    self.emit(Op::AdjustPtr { ty: ty_id });
                }
                let ty_id = self.tyid(ty);
                self.emit(Op::StoreLocal {
                    off: local.off,
                    ty: ty_id,
                    line: *line,
                });
                self.emit(Op::Pop);
            }
            Stmt::Expr(e) => {
                self.lower_expr(e);
                self.emit(Op::Pop);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.lower_expr(cond);
                let jz = self.emit(Op::JumpIfZero { target: 0 });
                self.lower_block_scoped(then_branch);
                if let Some(eb) = else_branch {
                    let jend = self.emit(Op::Jump { target: 0 });
                    let lelse = self.here();
                    self.patch(jz, lelse);
                    self.lower_block_scoped(eb);
                    let lend = self.here();
                    self.patch(jend, lend);
                } else {
                    let lend = self.here();
                    self.patch(jz, lend);
                }
            }
            Stmt::While { cond, body } => {
                let lcond = self.here();
                self.lower_expr(cond);
                let jz = self.emit(Op::JumpIfZero { target: 0 });
                self.loops.push(LoopCtx {
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                    body_depth: self.scopes.len(),
                });
                self.lower_block_scoped(body);
                self.emit(Op::Jump {
                    target: lcond as u32,
                });
                let lend = self.here();
                self.patch(jz, lend);
                let ctx = self.loops.pop().expect("loop");
                for p in ctx.break_patches {
                    self.patch(p, lend);
                }
                for p in ctx.continue_patches {
                    self.patch(p, lcond);
                }
            }
            Stmt::DoWhile { body, cond } => {
                let lbody = self.here();
                self.loops.push(LoopCtx {
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                    body_depth: self.scopes.len(),
                });
                self.lower_block_scoped(body);
                let lcond = self.here();
                self.lower_expr(cond);
                self.emit(Op::JumpIfNonZero {
                    target: lbody as u32,
                });
                let lend = self.here();
                let ctx = self.loops.pop().expect("loop");
                for p in ctx.break_patches {
                    self.patch(p, lend);
                }
                for p in ctx.continue_patches {
                    self.patch(p, lcond);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_scope();
                if let Some(i) = init {
                    self.lower_stmt(i);
                }
                let lcond = self.here();
                let jexit = cond.as_ref().map(|c| {
                    self.lower_expr(c);
                    self.emit(Op::JumpIfZero { target: 0 })
                });
                self.loops.push(LoopCtx {
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                    body_depth: self.scopes.len(),
                });
                self.lower_block_scoped(body);
                let lstep = self.here();
                if let Some(st) = step {
                    self.lower_expr(st);
                    self.emit(Op::Pop);
                }
                self.emit(Op::Jump {
                    target: lcond as u32,
                });
                let lexit = self.here();
                if let Some(j) = jexit {
                    self.patch(j, lexit);
                }
                let ctx = self.loops.pop().expect("loop");
                for p in ctx.break_patches {
                    self.patch(p, lexit);
                }
                for p in ctx.continue_patches {
                    self.patch(p, lstep);
                }
                self.pop_scope(); // the for-init scope dies after the loop
            }
            Stmt::Return(e, _) => {
                match e {
                    Some(e) => {
                        self.lower_value(e);
                        self.emit(Op::Ret { has_value: true });
                    }
                    None => {
                        self.emit(Op::Ret { has_value: false });
                    }
                };
            }
            Stmt::Break(_) => {
                if let Some(depth) = self.loops.last().map(|l| l.body_depth) {
                    self.emit_kills_from(depth);
                    let j = self.emit(Op::Jump { target: 0 });
                    self.loops.last_mut().expect("loop").break_patches.push(j);
                } else {
                    // Break outside a loop unwinds to the function's end
                    // (the AST walker returned `int(0)` from the frame).
                    self.emit(Op::Ret { has_value: false });
                }
            }
            Stmt::Continue(_) => {
                if let Some(depth) = self.loops.last().map(|l| l.body_depth) {
                    self.emit_kills_from(depth);
                    let j = self.emit(Op::Jump { target: 0 });
                    self.loops
                        .last_mut()
                        .expect("loop")
                        .continue_patches
                        .push(j);
                } else {
                    self.emit(Op::Ret { has_value: false });
                }
            }
            Stmt::Block(b) => self.lower_block_scoped(b),
        }
    }

    // --- Places ---

    fn lower_place(&mut self, e: &Expr) -> PlaceL {
        self.at(e.line, e.col);
        match &e.kind {
            ExprKind::Ident(name) => self.lookup(name).unwrap_or_else(|| {
                self.unsupported(format!("unbound variable {name}"), e.line);
                PlaceL::Indirect { ty: Type::Void }
            }),
            ExprKind::Unary(UnOp::Deref, inner) => {
                self.lower_ptr(inner);
                let ty = inner.ty.decay().pointee().cloned().expect("checked deref");
                PlaceL::Indirect { ty }
            }
            ExprKind::Index(base, idx) => {
                self.lower_ptr(base);
                self.lower_expr(idx);
                let elem = base.ty.decay().pointee().cloned().expect("checked index");
                let esz = self.size_or_poison(&elem);
                self.emit(Op::PtrIndex {
                    elem: esz,
                    line: e.line,
                });
                PlaceL::Indirect { ty: elem }
            }
            ExprKind::Member { base, field, arrow } => {
                if *arrow {
                    self.lower_ptr(base);
                    let Type::Struct(id) = base.ty.decay().pointee().cloned().expect("checked ->")
                    else {
                        self.unsupported("-> on non-struct", e.line);
                        return PlaceL::Indirect { ty: Type::Void };
                    };
                    let (off, fty) = field_offset(&self.unit.structs, id, field, &self.ti);
                    let fsize = self.size(&fty);
                    self.emit(Op::NarrowField {
                        off,
                        size: fsize,
                        line: e.line,
                    });
                    PlaceL::Indirect { ty: fty }
                } else {
                    let pl = self.lower_place(base);
                    let sty = match &pl {
                        PlaceL::Local(l) => l.ty.clone(),
                        PlaceL::Global { ty, .. } => ty.clone(),
                        PlaceL::Indirect { ty } => ty.clone(),
                    };
                    let Type::Struct(id) = sty else {
                        self.unsupported(". on non-struct", e.line);
                        return PlaceL::Indirect { ty: Type::Void };
                    };
                    let (off, fty) = field_offset(&self.unit.structs, id, field, &self.ti);
                    match pl {
                        PlaceL::Local(l) => PlaceL::Local(Local {
                            off: l.off + off as u32,
                            size: self.size(&fty).max(1),
                            ty: fty,
                        }),
                        PlaceL::Global { addr, .. } => PlaceL::Global {
                            addr: addr + off,
                            ty: fty,
                        },
                        PlaceL::Indirect { .. } => {
                            let fsize = self.size(&fty);
                            self.emit(Op::NarrowField {
                                off,
                                size: fsize,
                                line: e.line,
                            });
                            PlaceL::Indirect { ty: fty }
                        }
                    }
                }
            }
            _ => {
                self.unsupported("expression is not an lvalue", e.line);
                PlaceL::Indirect { ty: Type::Void }
            }
        }
    }

    fn lower_place_load(&mut self, e: &Expr) {
        match self.lower_place(e) {
            PlaceL::Local(l) => {
                let ty = self.tyid(&l.ty);
                self.emit(Op::LoadLocal {
                    off: l.off,
                    ty,
                    line: e.line,
                });
            }
            PlaceL::Global { addr, ty } => {
                let ty = self.tyid(&ty);
                self.emit(Op::LoadGlobal {
                    addr,
                    ty,
                    line: e.line,
                });
            }
            PlaceL::Indirect { ty } => {
                let size = self.size_or_poison(&ty);
                let ty = self.tyid(&ty);
                self.emit(Op::LoadInd {
                    ty,
                    size,
                    line: e.line,
                });
            }
        }
    }

    /// `&place`: whole-object bounds for variables, model-specific
    /// narrowing for members (mirrors the AST walker's `addr_of`).
    fn lower_addr_of(&mut self, e: &Expr) {
        self.at(e.line, e.col);
        match &e.kind {
            ExprKind::Unary(UnOp::Deref, inner) => self.lower_ptr(inner),
            ExprKind::Index(base, idx) => {
                self.lower_ptr(base);
                self.lower_expr(idx);
                let elem = base.ty.decay().pointee().cloned().expect("checked index");
                let esz = self.size_or_poison(&elem);
                self.emit(Op::PtrIndex {
                    elem: esz,
                    line: e.line,
                });
            }
            ExprKind::Member { base, field, arrow } => {
                let id = if *arrow {
                    self.lower_ptr(base);
                    match base.ty.decay().pointee().cloned() {
                        Some(Type::Struct(id)) => id,
                        _ => {
                            self.unsupported("->", e.line);
                            return;
                        }
                    }
                } else {
                    self.lower_addr_of(base);
                    match base.ty.clone() {
                        Type::Struct(id) => id,
                        _ => {
                            self.unsupported(".", e.line);
                            return;
                        }
                    }
                };
                let (off, fty) = field_offset(&self.unit.structs, id, field, &self.ti);
                let fsize = self.size(&fty);
                self.emit(Op::NarrowField {
                    off,
                    size: fsize,
                    line: e.line,
                });
            }
            ExprKind::Ident(name) => match self.lookup(name) {
                Some(PlaceL::Local(l)) => {
                    let ty = self.tyid(&Type::ptr_to(l.ty.clone()));
                    self.emit(Op::AddrLocal {
                        off: l.off,
                        size: l.size,
                        ty,
                    });
                }
                Some(PlaceL::Global { addr, ty }) => {
                    let size = self.size(&ty).max(1);
                    let ty = self.tyid(&Type::ptr_to(ty));
                    self.emit(Op::AddrGlobal { addr, size, ty });
                }
                _ => self.unsupported(format!("unbound variable {name}"), e.line),
            },
            _ => self.unsupported("& of non-lvalue", e.line),
        }
    }

    // --- Expressions ---

    /// AST `eval`: pushes the expression's value.
    fn lower_expr(&mut self, e: &Expr) {
        let line = e.line;
        self.at(e.line, e.col);
        match &e.kind {
            ExprKind::IntLit(v) => {
                let width = if e.ty == Type::long() { 8 } else { 4 };
                self.emit(Op::ConstInt {
                    v: *v,
                    width,
                    signed: true,
                });
            }
            ExprKind::StrLit(s) => {
                let sid = self.sid(s);
                self.emit(Op::ConstStr { sid, line });
            }
            ExprKind::Ident(_) | ExprKind::Index(..) | ExprKind::Member { .. } => {
                if e.ty.is_array() {
                    self.lower_addr_of(e);
                } else {
                    self.lower_place_load(e);
                }
            }
            ExprKind::Unary(op, inner) => match op {
                UnOp::Deref => {
                    if e.ty.is_array() {
                        self.lower_addr_of(e);
                    } else {
                        self.lower_place_load(e);
                    }
                }
                UnOp::Addr => self.lower_addr_of(inner),
                UnOp::Not | UnOp::Neg | UnOp::BitNot => {
                    self.lower_expr(inner);
                    self.emit(Op::Unary { op: *op, line });
                }
            },
            ExprKind::Binary(op, a, b) => match op {
                BinOp::LogAnd => {
                    self.lower_expr(a);
                    let jz = self.emit(Op::JumpIfZero { target: 0 });
                    self.lower_expr(b);
                    self.emit(Op::Truthy);
                    let jend = self.emit(Op::Jump { target: 0 });
                    let lfalse = self.here();
                    self.patch(jz, lfalse);
                    self.emit(Op::ConstInt {
                        v: 0,
                        width: 4,
                        signed: true,
                    });
                    let lend = self.here();
                    self.patch(jend, lend);
                }
                BinOp::LogOr => {
                    self.lower_expr(a);
                    let jnz = self.emit(Op::JumpIfNonZero { target: 0 });
                    self.lower_expr(b);
                    self.emit(Op::Truthy);
                    let jend = self.emit(Op::Jump { target: 0 });
                    let ltrue = self.here();
                    self.patch(jnz, ltrue);
                    self.emit(Op::ConstInt {
                        v: 1,
                        width: 4,
                        signed: true,
                    });
                    let lend = self.here();
                    self.patch(jend, lend);
                }
                _ => {
                    self.lower_value(a);
                    self.lower_value(b);
                    let meta = self.bin_meta(&a.ty, &b.ty);
                    self.emit(Op::Binary {
                        op: *op,
                        meta,
                        line,
                    });
                }
            },
            ExprKind::Assign(op, lhs, rhs) => {
                let pl = self.lower_place(lhs);
                if let Some(op) = op {
                    // Compound assignment: load the current value through
                    // the place (duplicating the pointer for indirect
                    // places), evaluate the right-hand side, combine.
                    match &pl {
                        PlaceL::Local(l) => {
                            let ty = self.tyid(&l.ty);
                            self.emit(Op::LoadLocal {
                                off: l.off,
                                ty,
                                line,
                            });
                        }
                        PlaceL::Global { addr, ty } => {
                            let ty = self.tyid(ty);
                            self.emit(Op::LoadGlobal {
                                addr: *addr,
                                ty,
                                line,
                            });
                        }
                        PlaceL::Indirect { ty } => {
                            let size = self.size_or_poison(ty);
                            let ty = self.tyid(ty);
                            self.emit(Op::Dup);
                            self.emit(Op::LoadInd { ty, size, line });
                        }
                    }
                    self.lower_expr(rhs);
                    let meta = self.bin_meta(&lhs.ty, &rhs.ty);
                    self.emit(Op::Binary {
                        op: *op,
                        meta,
                        line,
                    });
                } else {
                    self.lower_expr(rhs);
                }
                self.emit_store_converted(&pl, line);
            }
            ExprKind::Ternary(c, a, b) => {
                self.lower_expr(c);
                let jz = self.emit(Op::JumpIfZero { target: 0 });
                self.lower_expr(a);
                let jend = self.emit(Op::Jump { target: 0 });
                let lelse = self.here();
                self.patch(jz, lelse);
                self.lower_expr(b);
                let lend = self.here();
                self.patch(jend, lend);
            }
            ExprKind::Call(name, args) => self.lower_call(name, args, line),
            ExprKind::Cast(ty, inner) => {
                self.lower_expr(inner);
                let to = self.tyid(ty);
                self.emit(Op::Cast { to, line });
            }
            ExprKind::SizeofType(ty) => {
                let v = self.size(ty) as i64;
                self.emit_origin(
                    Op::ConstInt {
                        v,
                        width: 8,
                        signed: false,
                    },
                    ConstOrigin::Sizeof,
                );
            }
            ExprKind::SizeofExpr(inner) => {
                let v = self.size(&inner.ty) as i64;
                self.emit_origin(
                    Op::ConstInt {
                        v,
                        width: 8,
                        signed: false,
                    },
                    ConstOrigin::Sizeof,
                );
            }
            ExprKind::Offsetof(ty, field) => {
                let Type::Struct(id) = ty else {
                    self.unsupported("offsetof", line);
                    return;
                };
                let (off, _) = field_offset(&self.unit.structs, *id, field, &self.ti);
                self.emit_origin(
                    Op::ConstInt {
                        v: off as i64,
                        width: 8,
                        signed: false,
                    },
                    ConstOrigin::Offsetof,
                );
            }
            ExprKind::IncDec { pre, inc, target } => {
                let pl = self.lower_place(target);
                let pl_ty = match &pl {
                    PlaceL::Local(l) => l.ty.clone(),
                    PlaceL::Global { ty, .. } | PlaceL::Indirect { ty } => ty.clone(),
                };
                let meta = self.bin_meta(&pl_ty, &Type::long());
                match pl {
                    PlaceL::Local(l) => {
                        let ty = self.tyid(&l.ty);
                        self.emit(Op::IncDecLocal {
                            off: l.off,
                            ty,
                            meta,
                            pre: *pre,
                            inc: *inc,
                            line,
                        });
                    }
                    PlaceL::Global { addr, ty } => {
                        let ty = self.tyid(&ty);
                        self.emit(Op::IncDecGlobal {
                            addr,
                            ty,
                            meta,
                            pre: *pre,
                            inc: *inc,
                            line,
                        });
                    }
                    PlaceL::Indirect { ty } => {
                        let size = self.size_or_poison(&ty);
                        let ty = self.tyid(&ty);
                        self.emit(Op::IncDecInd {
                            ty,
                            size,
                            meta,
                            pre: *pre,
                            inc: *inc,
                            line,
                        });
                    }
                }
            }
        }
    }

    /// AST `eval` plus the forced array decay applied at initializers,
    /// arguments, returns and binary operands.
    fn lower_value(&mut self, e: &Expr) {
        if e.ty.is_array() {
            self.lower_addr_of(e);
        } else {
            self.lower_expr(e);
        }
    }

    /// AST `eval_ptr`: the value must end up a pointer (integers are
    /// reconstructed through the model).
    fn lower_ptr(&mut self, e: &Expr) {
        if e.ty.is_array() {
            self.lower_addr_of(e);
            return;
        }
        self.lower_expr(e);
        let ty = self.tyid(&e.ty);
        self.emit(Op::ToPtr { ty, line: e.line });
    }

    /// Conversion + store + result for assignments: `convert_for_store`
    /// then the place-appropriate store op (which leaves the stored value
    /// on the stack as the assignment's result).
    fn emit_store_converted(&mut self, pl: &PlaceL, line: u32) {
        let ty = match pl {
            PlaceL::Local(l) => &l.ty,
            PlaceL::Global { ty, .. } | PlaceL::Indirect { ty } => ty,
        };
        if let Type::Int { width, signed } = ty {
            self.emit(Op::ConvertStore {
                width: *width,
                signed: *signed,
            });
        }
        match pl {
            PlaceL::Local(l) => {
                let ty = self.tyid(&l.ty);
                self.emit(Op::StoreLocal {
                    off: l.off,
                    ty,
                    line,
                });
            }
            PlaceL::Global { addr, ty } => {
                let ty = self.tyid(ty);
                self.emit(Op::StoreGlobal {
                    addr: *addr,
                    ty,
                    line,
                });
            }
            PlaceL::Indirect { ty } => {
                let size = self.size_or_poison(ty);
                let ty = self.tyid(ty);
                self.emit(Op::StoreInd { ty, size, line });
            }
        }
    }

    // --- Calls ---

    fn lower_call(&mut self, name: &str, args: &[Expr], line: u32) {
        // User definitions win over builtins, as in the AST walker.
        if let Some(fid) = self.unit.funcs.iter().position(|f| f.name == name) {
            let params: Vec<Type> = self.unit.funcs[fid]
                .params
                .iter()
                .map(|p| p.ty.clone())
                .collect();
            for (arg, pty) in args.iter().zip(&params) {
                self.lower_value(arg);
                if matches!(pty, Type::Ptr { .. }) {
                    let ty = self.tyid(pty);
                    self.emit(Op::AdjustPtr { ty });
                }
            }
            self.emit(Op::Call {
                f: fid as u32,
                line,
            });
            return;
        }
        let b = match name {
            "malloc" => {
                self.lower_expr(&args[0]);
                Builtin::Malloc
            }
            "free" => {
                self.lower_expr(&args[0]);
                Builtin::Free
            }
            "memcpy" => {
                self.lower_ptr(&args[0]);
                self.lower_ptr(&args[1]);
                self.lower_expr(&args[2]);
                Builtin::Memcpy
            }
            "memset" => {
                self.lower_ptr(&args[0]);
                self.lower_expr(&args[1]);
                self.lower_expr(&args[2]);
                Builtin::Memset
            }
            "strlen" => {
                self.lower_ptr(&args[0]);
                Builtin::Strlen
            }
            "strcmp" => {
                self.lower_ptr(&args[0]);
                self.lower_ptr(&args[1]);
                Builtin::Strcmp
            }
            "puts" => {
                self.lower_ptr(&args[0]);
                Builtin::Puts
            }
            "putchar" => {
                self.lower_expr(&args[0]);
                Builtin::Putchar
            }
            "putint" => {
                self.lower_expr(&args[0]);
                Builtin::Putint
            }
            "assert" => {
                self.lower_expr(&args[0]);
                Builtin::Assert
            }
            "abort" => Builtin::Abort,
            "clock" => Builtin::Clock,
            _ => {
                self.unsupported(format!("unknown function {name}"), line);
                return;
            }
        };
        self.emit(Op::Builtin { b, line });
    }
}
