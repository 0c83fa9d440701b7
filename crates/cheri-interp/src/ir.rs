//! The flattened execution IR.
//!
//! [`crate::lower`] compiles a checked [`cheri_c::TranslationUnit`] into
//! this form **once per target layout**; the machine then executes the flat
//! op stream for any number of memory models sharing that layout. The
//! lowering resolves everything that does not depend on the model's
//! *pointer semantics*:
//!
//! * variables become frame-slot offsets (no scope-chain hash lookups),
//! * struct layouts and field offsets are pre-computed via
//!   [`crate::layout`] for the target's pointer size,
//! * `sizeof`/`offsetof` are constant-folded,
//! * control flow is lowered to branch targets over a linear op vector,
//! * source lines are carried on every op that can fault, so
//!   [`crate::RtError`] reporting is unchanged.
//!
//! Every *pointer decision* — creation, arithmetic, dereference, integer
//! round trips, spills — remains a call into the active
//! [`crate::MemoryModel`], exactly as in the original AST walker.

use crate::layout::TargetInfo;
use cheri_c::{BinOp, Type, UnOp};

/// Index into [`IrProgram::types`].
pub type TyId = u32;

/// Provenance of a constant-folded [`Op::ConstInt`]: `sizeof`/`offsetof`
/// fold to plain integers during lowering, but static analyses (the
/// **Container** idiom in particular) need to know where the constant came
/// from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ConstOrigin {
    /// An ordinary constant (literal, folded arithmetic).
    #[default]
    None,
    /// Folded from `offsetof(struct, field)`.
    Offsetof,
    /// Folded from `sizeof(type)` or `sizeof expr`.
    Sizeof,
}

/// Per-op source metadata, kept in a side table ([`IrProgram::info`])
/// parallel to [`IrProgram::code`] so the hot `Op` enum stays compact.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpInfo {
    /// 1-based source line of the expression or statement that emitted
    /// the op (best-effort for synthesized ops such as scope kills).
    pub line: u32,
    /// 1-based source column (0 when unknown).
    pub col: u32,
    /// Constant provenance, for [`Op::ConstInt`] only.
    pub origin: ConstOrigin,
}

/// A lowered translation unit for one target layout.
#[derive(Clone, Debug)]
pub struct IrProgram {
    /// The layout the program was lowered for. Models whose
    /// [`crate::MemoryModel::target`] differs need a separate lowering.
    pub target: TargetInfo,
    /// The flat op stream; all functions, back to back.
    pub code: Vec<Op>,
    /// Source metadata for each op, parallel to `code` (same length).
    pub info: Vec<OpInfo>,
    /// Function descriptors, indexed by the `f` field of [`Op::Call`].
    ///
    /// Invariant: the lowering emits functions back to back in `funcs`
    /// order, so entries strictly ascend, the init pseudo-function
    /// ([`IrProgram::init_fid`]) is last, and each function's code runs up
    /// to the next entry. [`IrProgram::func_range`] relies on it.
    pub funcs: Vec<IrFunc>,
    /// Interned types referenced by ops (for model calls that need them).
    pub types: Vec<Type>,
    /// Interned string literals, referenced by `sid` fields.
    pub strings: Vec<String>,
    /// Global variables with pre-assigned addresses.
    pub globals: Vec<IrGlobal>,
    /// Pseudo-function running the global initializers (always valid; its
    /// body may be just `Ret`).
    pub init_fid: u32,
    /// `char *` — the type of string-literal pointers.
    pub str_ty: TyId,
}

impl IrProgram {
    /// Looks up a lowered function by source name.
    pub fn func_by_name(&self, name: &str) -> Option<u32> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u32)
    }

    /// Total op count (a proxy for compiled size).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Source metadata for the op at `pc` (zeroed when the side table was
    /// not populated, e.g. hand-built programs).
    pub fn op_info(&self, pc: usize) -> OpInfo {
        self.info.get(pc).copied().unwrap_or_default()
    }

    /// The half-open pc range `[entry, end)` of function `fid`: functions
    /// are lowered back to back (see [`IrProgram::funcs`]), so a function
    /// extends to the next function's entry, or to the end of the op
    /// stream for the last one.
    pub fn func_range(&self, fid: u32) -> (usize, usize) {
        let fid = fid as usize;
        let end = self.funcs.get(fid + 1).map_or(self.code.len(), |f| f.entry);
        (self.funcs[fid].entry, end)
    }

    /// `true` when no code was generated (never the case after lowering —
    /// the init pseudo-function always exists).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

/// A lowered function.
#[derive(Clone, Debug)]
pub struct IrFunc {
    /// Source name.
    pub name: String,
    /// Entry pc into [`IrProgram::code`].
    pub entry: usize,
    /// Frame size in bytes (all locals, 32-byte aligned).
    pub frame_size: u64,
    /// Source line of the definition (for call-setup errors).
    pub line: u32,
    /// Parameter slots in declaration order; [`Op::Call`] stores arguments
    /// into these.
    pub params: Vec<SlotDef>,
    /// Every local slot (parameters included) as `(offset, object size)`,
    /// retired wholesale when the frame pops.
    pub vars: Vec<(u32, u64)>,
}

/// A frame slot holding one declared variable.
#[derive(Clone, Debug)]
pub struct SlotDef {
    /// Source name (for unbound-parameter diagnostics).
    pub name: String,
    /// Byte offset from the frame base.
    pub off: u32,
    /// Object size (at least 1).
    pub size: u64,
    /// Declared type.
    pub ty: TyId,
}

/// A global variable with its pre-assigned virtual address.
#[derive(Clone, Debug)]
pub struct IrGlobal {
    /// Source name.
    pub name: String,
    /// Virtual address.
    pub addr: u64,
    /// Object size (at least 1).
    pub size: u64,
}

/// Pre-computed per-operand facts for a lowered binary operation: the
/// decayed static types (for integer→pointer reconstruction) and, when an
/// operand is a pointer, its element size for arithmetic scaling.
#[derive(Clone, Copy, Debug)]
pub struct BinMeta {
    /// Decayed type of the left operand.
    pub ta: TyId,
    /// Decayed type of the right operand.
    pub tb: TyId,
    /// `true` when the left operand is statically a pointer.
    pub a_ptr: bool,
    /// `true` when the right operand is statically a pointer.
    pub b_ptr: bool,
    /// Pointee size when `a_ptr` (meaningless otherwise). [`ELEM_POISON`]
    /// marks a `void` pointee (faults on arithmetic use, like
    /// `sizeof(void)`).
    pub a_elem: u64,
    /// As `a_elem`, for the right operand.
    pub b_elem: u64,
}

/// Element-size sentinel for pointers to `void` (arithmetic on them panics
/// exactly where the AST walker's `sizeof(void)` did).
pub const ELEM_POISON: u64 = u64::MAX;

/// The built-in functions (resolved at lowering; user definitions win).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Builtin {
    /// `malloc(n)`.
    Malloc,
    /// `free(p)`.
    Free,
    /// `memcpy(d, s, n)`.
    Memcpy,
    /// `memset(d, c, n)`.
    Memset,
    /// `strlen(s)`.
    Strlen,
    /// `strcmp(a, b)`.
    Strcmp,
    /// `puts(s)`.
    Puts,
    /// `putchar(c)`.
    Putchar,
    /// `putint(v)`.
    Putint,
    /// `assert(cond)`.
    Assert,
    /// `abort()`.
    Abort,
    /// `clock()`.
    Clock,
}

/// One op of the flat execution IR. The machine maintains a value stack;
/// ops pop operands and push results. `line` fields carry the source line
/// for error reporting.
#[derive(Clone, Debug)]
pub enum Op {
    /// Push an integer constant.
    ConstInt {
        /// The value.
        v: i64,
        /// Width in bytes.
        width: u8,
        /// Signedness.
        signed: bool,
    },
    /// Push a pointer to the interned string literal `sid`.
    ConstStr {
        /// String index.
        sid: u32,
        /// Source line.
        line: u32,
    },
    /// Load a local variable (direct storage, no model dereference).
    LoadLocal {
        /// Frame offset.
        off: u32,
        /// Variable (or member) type.
        ty: TyId,
        /// Source line.
        line: u32,
    },
    /// Load a global variable (direct storage).
    LoadGlobal {
        /// Virtual address.
        addr: u64,
        /// Type.
        ty: TyId,
        /// Source line.
        line: u32,
    },
    /// Pop a value, store it into a local, push the stored value back.
    StoreLocal {
        /// Frame offset.
        off: u32,
        /// Type.
        ty: TyId,
        /// Source line.
        line: u32,
    },
    /// Pop a value, store it into a global, push the stored value back.
    StoreGlobal {
        /// Virtual address.
        addr: u64,
        /// Type.
        ty: TyId,
        /// Source line.
        line: u32,
    },
    /// Push `&local` — a model-made pointer over the whole object.
    AddrLocal {
        /// Frame offset.
        off: u32,
        /// Object size.
        size: u64,
        /// The *pointer* type (pointer-to-variable), for permission
        /// derivation in [`crate::MemoryModel::make_ptr`].
        ty: TyId,
    },
    /// Push `&global`.
    AddrGlobal {
        /// Virtual address.
        addr: u64,
        /// Object size.
        size: u64,
        /// The pointer type.
        ty: TyId,
    },
    /// Pop a pointer, dereference it for reading (model-checked), load a
    /// typed value, push it.
    LoadInd {
        /// Loaded type.
        ty: TyId,
        /// Access size (pre-computed `size_of(ty)`).
        size: u64,
        /// Source line.
        line: u32,
    },
    /// Pop a value then a pointer, dereference for writing, store, push the
    /// value back.
    StoreInd {
        /// Stored type.
        ty: TyId,
        /// Access size.
        size: u64,
        /// Source line.
        line: u32,
    },
    /// Duplicate the top of the value stack.
    Dup,
    /// Discard the top of the value stack.
    Pop,
    /// Pop an index value then a pointer; push `ptr + index * elem`.
    PtrIndex {
        /// Element size.
        elem: u64,
        /// Source line.
        line: u32,
    },
    /// Pop a pointer; push a model-narrowed pointer to a member.
    NarrowField {
        /// Member byte offset.
        off: u64,
        /// Member size.
        size: u64,
        /// Source line.
        line: u32,
    },
    /// Pop a value; if it is an integer, reconstruct a pointer from it via
    /// the model (`int_to_ptr`); push the pointer.
    ToPtr {
        /// The static expression type driving the reconstruction.
        ty: TyId,
        /// Source line.
        line: u32,
    },
    /// If the top of stack is a pointer, re-qualify it for `ty`
    /// (`adjust_for_type`); integers pass through.
    AdjustPtr {
        /// The target pointer type.
        ty: TyId,
    },
    /// Pop a value, apply a (non-place) unary operator, push the result.
    Unary {
        /// The operator (`!`, `-`, `~`).
        op: UnOp,
        /// Source line.
        line: u32,
    },
    /// Pop two values, apply a binary operator, push the result.
    Binary {
        /// The operator.
        op: BinOp,
        /// Pre-computed operand facts.
        meta: BinMeta,
        /// Source line.
        line: u32,
    },
    /// Pop a value, convert it to `to`, push the result.
    Cast {
        /// Target type.
        to: TyId,
        /// Source line.
        line: u32,
    },
    /// Coerce the top of stack for storage into an integer of
    /// `width`/`signed` (the assignment-result conversion).
    ConvertStore {
        /// Target width in bytes.
        width: u8,
        /// Target signedness.
        signed: bool,
    },
    /// Pop a value, push `int(1)` if truthy else `int(0)`.
    Truthy,
    /// Unconditional branch.
    Jump {
        /// Target pc.
        target: u32,
    },
    /// Pop a value; branch when it is falsy.
    JumpIfZero {
        /// Target pc.
        target: u32,
    },
    /// Pop a value; branch when it is truthy.
    JumpIfNonZero {
        /// Target pc.
        target: u32,
    },
    /// Call a lowered function. Pops one argument per parameter (last on
    /// top), pushes the return value when the callee returns.
    Call {
        /// Callee index into [`IrProgram::funcs`].
        f: u32,
        /// Source line of the call.
        line: u32,
    },
    /// Run a built-in. Arguments are on the stack per the builtin's
    /// signature (last on top); pushes the result.
    Builtin {
        /// Which builtin.
        b: Builtin,
        /// Source line.
        line: u32,
    },
    /// Return from the current function, retiring the frame's objects.
    Ret {
        /// `true` when a return value is on the stack.
        has_value: bool,
    },
    /// Register a local's object (declaration reached).
    Define {
        /// Frame offset.
        off: u32,
        /// Object size (at least 1).
        size: u64,
    },
    /// Retire a local's object and shadow entries (scope exited).
    Kill {
        /// Frame offset.
        off: u32,
        /// Object size.
        size: u64,
    },
    /// Copy a string literal (plus NUL) into a local `char[]`.
    InitStrLocal {
        /// Frame offset.
        off: u32,
        /// String index.
        sid: u32,
        /// Source line.
        line: u32,
    },
    /// Copy a string literal (plus NUL) into a global `char[]`.
    InitStrGlobal {
        /// Virtual address.
        addr: u64,
        /// String index.
        sid: u32,
        /// Source line.
        line: u32,
    },
    /// Fused `++`/`--` on a local slot; pushes the pre- or post-value.
    IncDecLocal {
        /// Frame offset.
        off: u32,
        /// Place type.
        ty: TyId,
        /// Operand facts for the `+1`/`-1` addition.
        meta: BinMeta,
        /// Prefix (`true`) or postfix.
        pre: bool,
        /// Increment (`true`) or decrement.
        inc: bool,
        /// Source line.
        line: u32,
    },
    /// Fused `++`/`--` on a global slot; pushes the pre- or post-value.
    IncDecGlobal {
        /// Virtual address.
        addr: u64,
        /// Place type.
        ty: TyId,
        /// Operand facts for the addition.
        meta: BinMeta,
        /// Prefix or postfix.
        pre: bool,
        /// Increment or decrement.
        inc: bool,
        /// Source line.
        line: u32,
    },
    /// Fused `++`/`--` through a pointer on the stack.
    IncDecInd {
        /// Place type.
        ty: TyId,
        /// Access size.
        size: u64,
        /// Operand facts for the addition.
        meta: BinMeta,
        /// Prefix or postfix.
        pre: bool,
        /// Increment or decrement.
        inc: bool,
        /// Source line.
        line: u32,
    },
    /// A construct the interpreter does not support; faults when reached
    /// (preserving the AST walker's lazy-error semantics).
    Unsupported {
        /// Description.
        msg: Box<str>,
        /// Source line.
        line: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_reasonably_small() {
        // The hot loop iterates a Vec<Op>; keep variants compact enough
        // that growing one doesn't silently double the dispatch footprint.
        assert!(
            std::mem::size_of::<Op>() <= 72,
            "{}",
            std::mem::size_of::<Op>()
        );
    }

    #[test]
    fn func_lookup_by_name() {
        let prog = IrProgram {
            target: TargetInfo::lp64(),
            code: vec![Op::Ret { has_value: false }],
            info: vec![OpInfo::default()],
            funcs: vec![IrFunc {
                name: "main".into(),
                entry: 0,
                frame_size: 0,
                line: 1,
                params: Vec::new(),
                vars: Vec::new(),
            }],
            types: Vec::new(),
            strings: Vec::new(),
            globals: Vec::new(),
            init_fid: 0,
            str_ty: 0,
        };
        assert_eq!(prog.func_by_name("main"), Some(0));
        assert_eq!(prog.func_by_name("missing"), None);
        assert!(!prog.is_empty());
        assert_eq!(prog.len(), 1);
    }
}
