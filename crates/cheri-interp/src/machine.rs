//! The abstract-machine interpreter core.
//!
//! Owns memory, frames and control flow; delegates every pointer decision
//! to the active model's [`Rules`]. Objects live in a *virtual* address space
//! based above 4 GiB so that truncating a pointer to 32 bits (the **Wide**
//! idiom) is genuinely lossy, as on any modern 64-bit system.
//!
//! Since the IR refactor the hot loop dispatches over the flattened
//! [`IrProgram`] produced by [`crate::lower`] instead of re-walking the
//! AST: variables are frame slots, layouts are pre-computed, and control
//! flow is branch targets. One lowering per target layout is shared by all
//! models with that layout — see [`LoweredUnit`] and [`run_main_all`].

use crate::ir::{BinMeta, Builtin, IrProgram, Op, ELEM_POISON};
use crate::lower::lower;
use crate::model::{ModelError, ModelKind, Rules, ShadowEntry};
use crate::value::{IntValue, PtrVal, Value};
use cheri_c::{BinOp, TranslationUnit, Type, UnOp};
use cheri_cap::Capability;
use cheri_mem::{Allocator, TaggedMemory};
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

/// Virtual base of the interpreter's address space (above 4 GiB).
pub const VBASE: u64 = 0x4_0000_0000;
const RODATA_OFF: u64 = 0;
pub(crate) const GLOBALS_OFF: u64 = 0x10_0000;
const HEAP_OFF: u64 = 0x20_0000;
const HEAP_SIZE: u64 = 0x40_0000;
const STACK_TOP_OFF: u64 = 0x80_0000;
const PHYS_SIZE: u64 = 0x80_0000;

/// A runtime error: either a memory-model violation (the signal Table 3 is
/// built from) or an ordinary execution failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RtError {
    /// The memory model refused a pointer operation.
    Model {
        /// Source line.
        line: u32,
        /// The violation.
        err: ModelError,
    },
    /// An access fell outside every mapped region (wild pointer on an
    /// unchecked model — the "segmentation fault" analogue).
    Unmapped {
        /// Source line.
        line: u32,
        /// The faulting virtual address.
        addr: u64,
    },
    /// `assert` failed.
    AssertFailed {
        /// Source line.
        line: u32,
    },
    /// `abort()` was called.
    Abort {
        /// Source line.
        line: u32,
    },
    /// Integer division by zero.
    DivByZero {
        /// Source line.
        line: u32,
    },
    /// Heap misuse (double free, free of non-allocation).
    BadFree {
        /// Source line.
        line: u32,
        /// The address passed to `free`.
        addr: u64,
    },
    /// The program has no `main`.
    NoMain,
    /// The step budget was exhausted.
    StepLimit,
    /// A construct the interpreter does not support.
    Unsupported {
        /// Source line.
        line: u32,
        /// Description.
        msg: String,
    },
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::Model { line, err } => write!(f, "line {line}: {err}"),
            RtError::Unmapped { line, addr } => {
                write!(f, "line {line}: unmapped access at {addr:#x}")
            }
            RtError::AssertFailed { line } => write!(f, "line {line}: assertion failed"),
            RtError::Abort { line } => write!(f, "line {line}: abort() called"),
            RtError::DivByZero { line } => write!(f, "line {line}: division by zero"),
            RtError::BadFree { line, addr } => write!(f, "line {line}: bad free of {addr:#x}"),
            RtError::NoMain => write!(f, "program has no main()"),
            RtError::StepLimit => write!(f, "interpreter step limit exceeded"),
            RtError::Unsupported { line, msg } => write!(f, "line {line}: unsupported: {msg}"),
        }
    }
}

impl Error for RtError {}

/// Result of running a program to completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecResult {
    /// `main`'s return value.
    pub exit_code: i64,
    /// Everything printed via `puts`/`putchar`/`putint`.
    pub output: String,
    /// Evaluation steps consumed.
    pub steps: u64,
}

/// Parses nothing, interprets a checked [`TranslationUnit`] under `kind`.
///
/// # Errors
///
/// Any [`RtError`], most interestingly [`RtError::Model`] when the chosen
/// interpretation of the C abstract machine rejects an idiom.
pub fn run_main(unit: &TranslationUnit, kind: ModelKind) -> Result<ExecResult, RtError> {
    Interp::new(unit, kind).run("main")
}

/// Runs `main` under **all seven** models, sharing one lowering per target
/// layout and fanning the independent model runs out across scoped
/// threads. Results come back in [`ModelKind::ALL`] order regardless of
/// which thread finishes first.
pub fn run_main_all(unit: &TranslationUnit) -> Vec<(ModelKind, Result<ExecResult, RtError>)> {
    LoweredUnit::new(unit).run_all()
}

/// A translation unit lowered once per target layout (LP64 and CHERI),
/// ready to run under any model — the compile cost is amortized across the
/// seven-model differential harness instead of being paid per run.
pub struct LoweredUnit {
    lp64: IrProgram,
    cheri: IrProgram,
}

impl LoweredUnit {
    /// Lowers `unit` for both target layouts.
    pub fn new(unit: &TranslationUnit) -> LoweredUnit {
        LoweredUnit {
            lp64: lower(unit, crate::layout::TargetInfo::lp64()),
            cheri: lower(unit, crate::layout::TargetInfo::cheri()),
        }
    }

    /// The lowering matching `ti`.
    ///
    /// # Panics
    ///
    /// Panics for a target layout other than the two the built-in models
    /// use (LP64 and CHERI).
    pub fn for_target(&self, ti: &crate::layout::TargetInfo) -> &IrProgram {
        if *ti == self.cheri.target {
            &self.cheri
        } else {
            assert_eq!(*ti, self.lp64.target, "unknown target layout {ti:?}");
            &self.lp64
        }
    }

    /// Runs `main` under `kind` using the shared lowering.
    ///
    /// # Errors
    ///
    /// Any [`RtError`].
    pub fn run(&self, kind: ModelKind) -> Result<ExecResult, RtError> {
        Interp::with_ir(self.for_target(&kind.rules().target()), kind).run("main")
    }

    /// Runs `main` under every model, one scoped thread per model (inline
    /// on single-core hosts), with deterministic [`ModelKind::ALL`] result
    /// ordering regardless of completion order.
    pub fn run_all(&self) -> Vec<(ModelKind, Result<ExecResult, RtError>)> {
        let results = crate::par::fan_out_ordered(&ModelKind::ALL, |&k| self.run(k));
        ModelKind::ALL.into_iter().zip(results).collect()
    }
}

// A fresh 8 MiB zeroed TaggedMemory costs more than interpreting a typical
// idiom case; runs only touch a few 64 KiB chunks of it. `TaggedMemory`
// itself recycles retired backing stores through a global pool (dirty
// chunks re-zeroed on reuse), so dropping a `State` and constructing the
// next one rehits warm memory — including across the fan-out paths'
// short-lived scoped threads.

// --- The interpreter ----------------------------------------------------

enum IrRef<'p> {
    Owned(Box<IrProgram>),
    Borrowed(&'p IrProgram),
}

impl IrRef<'_> {
    fn get(&self) -> &IrProgram {
        match self {
            IrRef::Owned(p) => p,
            IrRef::Borrowed(p) => p,
        }
    }
}

/// The interpreter. See [`run_main`] for the one-shot entry point and
/// [`Interp::with_ir`] for running a pre-lowered program.
pub struct Interp<'p> {
    ir: IrRef<'p>,
    st: State,
}

impl Interp<'static> {
    /// Builds an interpreter over `unit` under model `kind`, lowering the
    /// unit for the model's target layout.
    pub fn new(unit: &TranslationUnit, kind: ModelKind) -> Interp<'static> {
        let model = kind.rules();
        let ir = lower(unit, model.target());
        Interp {
            ir: IrRef::Owned(Box::new(ir)),
            st: State::new(model),
        }
    }
}

impl<'p> Interp<'p> {
    /// Builds an interpreter over a pre-lowered program (shared, e.g.,
    /// across the differential harness's threads).
    ///
    /// # Panics
    ///
    /// Panics if `ir` was lowered for a different target layout than the
    /// model's.
    pub fn with_ir(ir: &'p IrProgram, kind: ModelKind) -> Interp<'p> {
        let model = kind.rules();
        assert_eq!(
            ir.target,
            model.target(),
            "IR was lowered for a different target layout than the model's"
        );
        Interp {
            ir: IrRef::Borrowed(ir),
            st: State::new(model),
        }
    }

    /// Overrides the default step budget.
    pub fn with_step_limit(mut self, limit: u64) -> Interp<'p> {
        self.st.step_limit = limit;
        self
    }

    /// Runs function `entry` (usually `main`) with no arguments.
    ///
    /// # Errors
    ///
    /// Any [`RtError`].
    pub fn run(self, entry: &str) -> Result<ExecResult, RtError> {
        let Interp { ir, mut st } = self;
        st.run(ir.get(), entry)
    }
}

struct Frame {
    fid: u32,
    ret_pc: usize,
    base: u64,
    saved_cursor: u64,
    vstack_base: usize,
}

struct State {
    model: Rules,
    mem: TaggedMemory,
    heap: Allocator,
    objects: BTreeMap<u64, u64>,
    shadow: HashMap<u64, ShadowEntry>,
    stack_cursor: u64,
    rodata_cursor: u64,
    str_addrs: Vec<Option<u64>>,
    output: String,
    steps: u64,
    step_limit: u64,
    vstack: Vec<Value>,
    frames: Vec<Frame>,
}

impl State {
    fn new(model: Rules) -> State {
        State {
            model,
            mem: TaggedMemory::new(PHYS_SIZE),
            heap: Allocator::new(VBASE + HEAP_OFF, HEAP_SIZE),
            objects: BTreeMap::new(),
            shadow: HashMap::new(),
            stack_cursor: VBASE + STACK_TOP_OFF,
            rodata_cursor: VBASE + RODATA_OFF,
            str_addrs: Vec::new(),
            output: String::new(),
            steps: 0,
            step_limit: 200_000_000,
            vstack: Vec::with_capacity(64),
            frames: Vec::with_capacity(16),
        }
    }

    fn run(&mut self, prog: &IrProgram, entry: &str) -> Result<ExecResult, RtError> {
        self.str_addrs = vec![None; prog.strings.len()];
        for g in &prog.globals {
            self.objects.insert(g.addr, g.size);
        }
        self.exec_call(prog, prog.init_fid)?;
        let fid = prog.func_by_name(entry).ok_or(RtError::NoMain)?;
        let v = self.exec_call(prog, fid)?;
        let exit_code = match v {
            Value::Int(i) => i.as_i64(),
            Value::Ptr(p) => p.addr() as i64,
        };
        Ok(ExecResult {
            exit_code,
            output: std::mem::take(&mut self.output),
            steps: self.steps,
        })
    }

    // --- Memory plumbing ---

    fn mem(&self) -> &TaggedMemory {
        &self.mem
    }

    fn mem_mut(&mut self) -> &mut TaggedMemory {
        &mut self.mem
    }

    fn phys(&self, vaddr: u64, len: u64, line: u32) -> Result<u64, RtError> {
        if vaddr < VBASE
            || vaddr.wrapping_add(len) > VBASE + PHYS_SIZE
            || vaddr.wrapping_add(len) < vaddr
        {
            return Err(RtError::Unmapped { line, addr: vaddr });
        }
        Ok(vaddr - VBASE)
    }

    fn read_raw(&self, vaddr: u64, width: u8, line: u32) -> Result<u64, RtError> {
        let p = self.phys(vaddr, width as u64, line)?;
        self.mem()
            .read_uint(p, width)
            .map_err(|_| RtError::Unmapped { line, addr: vaddr })
    }

    fn write_raw(&mut self, vaddr: u64, v: u64, width: u8, line: u32) -> Result<(), RtError> {
        let p = self.phys(vaddr, width as u64, line)?;
        self.mem_mut()
            .write_uint(p, v, width)
            .map_err(|_| RtError::Unmapped { line, addr: vaddr })
    }

    fn model_err(&self, line: u32, err: ModelError) -> RtError {
        RtError::Model { line, err }
    }

    /// Loads a typed value from variable-or-checked storage.
    fn load_typed(&mut self, vaddr: u64, ty: &Type, line: u32) -> Result<Value, RtError> {
        match ty {
            Type::Int { width, signed } => {
                let raw = self.read_raw(vaddr, *width, line)?;
                let mut iv = IntValue {
                    v: raw,
                    width: *width,
                    signed: *signed,
                    prov: None,
                }
                .normalized();
                if *width == 8 && self.model.uses_shadow() {
                    if let Some(e) = self.shadow.get(&vaddr) {
                        if e.bits == iv.v {
                            iv.prov = Some(crate::value::Prov {
                                base: e.base,
                                len: e.len,
                                modified: false,
                            });
                        }
                    }
                }
                Ok(Value::Int(iv))
            }
            Type::IntPtr { signed } | Type::IntCap { signed } => {
                if self.model.stores_caps() {
                    let p = self.phys(vaddr, 32, line)?;
                    let c = self
                        .mem()
                        .read_cap(p)
                        .map_err(|_| RtError::Unmapped { line, addr: vaddr })?;
                    Ok(Value::Ptr(PtrVal::Cap(c)))
                } else {
                    self.load_typed(
                        vaddr,
                        &Type::Int {
                            width: 8,
                            signed: *signed,
                        },
                        line,
                    )
                }
            }
            Type::Ptr { .. } => {
                if self.model.stores_caps() {
                    let p = self.phys(vaddr, 32, line)?;
                    let c = self
                        .mem()
                        .read_cap(p)
                        .map_err(|_| RtError::Unmapped { line, addr: vaddr })?;
                    Ok(Value::Ptr(PtrVal::Cap(c)))
                } else {
                    let bits = self.read_raw(vaddr, 8, line)?;
                    Ok(Value::Ptr(
                        self.model.load_ptr_bits(bits, self.shadow.get(&vaddr)),
                    ))
                }
            }
            Type::Array { .. } | Type::Struct(_) | Type::Void => Err(RtError::Unsupported {
                line,
                msg: format!("loading aggregate of type {ty} by value"),
            }),
        }
    }

    /// Stores a typed value into variable-or-checked storage.
    fn store_typed(&mut self, vaddr: u64, ty: &Type, val: Value, line: u32) -> Result<(), RtError> {
        match ty {
            Type::Int { width, signed } => {
                let iv = self.coerce_int(val, *width, *signed);
                self.write_raw(vaddr, iv.v, *width, line)?;
                if self.model.uses_shadow() {
                    match iv.prov {
                        Some(p) if *width == 8 && !p.modified => {
                            self.shadow.insert(
                                vaddr,
                                ShadowEntry {
                                    bits: iv.v,
                                    base: p.base,
                                    len: p.len,
                                },
                            );
                        }
                        _ => {
                            self.shadow.remove(&vaddr);
                        }
                    }
                }
                Ok(())
            }
            Type::IntPtr { signed } | Type::IntCap { signed } => {
                if self.model.stores_caps() {
                    let c = match val {
                        Value::Ptr(PtrVal::Cap(c)) => c,
                        Value::Ptr(p) => Capability::from_int(p.addr()),
                        Value::Int(i) => Capability::from_int(i.v),
                    };
                    let p = self.phys(vaddr, 32, line)?;
                    self.mem_mut()
                        .write_cap(p, &c)
                        .map_err(|_| RtError::Unmapped { line, addr: vaddr })
                } else {
                    let as_int = match val {
                        Value::Int(i) => Value::Int(IntValue {
                            width: 8,
                            signed: *signed,
                            ..i
                        }),
                        other => other,
                    };
                    self.store_typed(
                        vaddr,
                        &Type::Int {
                            width: 8,
                            signed: *signed,
                        },
                        as_int,
                        line,
                    )
                }
            }
            Type::Ptr { .. } => {
                let pv = match val {
                    Value::Ptr(p) => self.model.adjust_for_type(p, ty),
                    Value::Int(i) => self.model.int_to_ptr(&i),
                };
                if self.model.stores_caps() {
                    let c = match pv {
                        PtrVal::Cap(c) => c,
                        other => Capability::from_int(other.addr()),
                    };
                    let p = self.phys(vaddr, 32, line)?;
                    self.mem_mut()
                        .write_cap(p, &c)
                        .map_err(|_| RtError::Unmapped { line, addr: vaddr })
                } else {
                    let bits = pv.addr();
                    self.write_raw(vaddr, bits, 8, line)?;
                    if self.model.uses_shadow() {
                        match pv {
                            PtrVal::Fat { base, len, .. } if len > 0 => {
                                self.shadow.insert(vaddr, ShadowEntry { bits, base, len });
                            }
                            _ => {
                                self.shadow.remove(&vaddr);
                            }
                        }
                    }
                    Ok(())
                }
            }
            Type::Array { .. } | Type::Struct(_) | Type::Void => Err(RtError::Unsupported {
                line,
                msg: format!("storing aggregate of type {ty} by value"),
            }),
        }
    }

    fn coerce_int(&self, val: Value, width: u8, signed: bool) -> IntValue {
        match val {
            Value::Int(i) => {
                let keep_prov = width == 8;
                let mut out = IntValue {
                    v: i.v,
                    width,
                    signed,
                    prov: None,
                }
                .normalized();
                if keep_prov {
                    out.prov = i.prov;
                }
                out
            }
            Value::Ptr(p) => IntValue::new(p.addr() as i64, width, signed),
        }
    }

    fn copy_bytes(&mut self, dst: u64, src: u64, len: u64, line: u32) -> Result<(), RtError> {
        let pd = self.phys(dst, len, line)?;
        let ps = self.phys(src, len, line)?;
        self.mem_mut()
            .memcpy(pd, ps, len)
            .map_err(|_| RtError::Unmapped { line, addr: dst })?;
        if self.model.uses_shadow() {
            // Mirror the shadow space for aligned word copies, as
            // HardBound's hardware copy does.
            let moved: Vec<(u64, ShadowEntry)> = self
                .shadow
                .iter()
                .filter(|(&a, _)| a >= src && a + 8 <= src + len && (a - src) % 8 == 0)
                .map(|(&a, &e)| (dst + (a - src), e))
                .collect();
            for a in dst..dst + len {
                self.shadow.remove(&a);
            }
            for (a, e) in moved {
                if (a - dst) % 8 == (src % 8).wrapping_sub(dst % 8) % 8 || dst % 8 == src % 8 {
                    self.shadow.insert(a, e);
                }
            }
        }
        Ok(())
    }

    // --- Value-stack helpers ---

    fn pop(&mut self) -> Value {
        self.vstack
            .pop()
            .expect("value on stack (lowering invariant)")
    }

    fn pop_ptr(&mut self) -> PtrVal {
        match self.pop() {
            Value::Ptr(p) => p,
            Value::Int(_) => unreachable!("lowering routes pointers through ToPtr"),
        }
    }

    fn frame_base(&self) -> u64 {
        self.frames.last().expect("active frame").base
    }

    fn tick(&mut self) -> Result<(), RtError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(RtError::StepLimit);
        }
        Ok(())
    }

    /// The access size for an indirect load/store; `void` places fault like
    /// the AST walker's `sizeof(void)` did.
    fn checked_size(size: u64) -> u64 {
        assert!(size != ELEM_POISON, "sizeof(void)");
        size
    }

    // --- Frames ---

    fn push_frame(
        &mut self,
        prog: &IrProgram,
        fid: u32,
        argc: usize,
        ret_pc: usize,
        call_line: u32,
    ) -> Result<usize, RtError> {
        let f = &prog.funcs[fid as usize];
        if self.frames.len() > 400 {
            return Err(RtError::Unsupported {
                line: call_line,
                msg: "call depth exceeded".into(),
            });
        }
        // Internal calls are arity-checked by sema; only the entry
        // invocation (zero arguments) can under-supply. A parameter with
        // no argument would otherwise read silently-zeroed frame memory.
        if argc < f.params.len() {
            return Err(RtError::Unsupported {
                line: f.line,
                msg: format!("unbound variable {}", f.params[argc].name),
            });
        }
        let saved = self.stack_cursor;
        let base = (saved - f.frame_size) & !31;
        if f.frame_size > 0 && base < VBASE + STACK_TOP_OFF - 0x20_0000 {
            return Err(RtError::Unsupported {
                line: f.line,
                msg: "stack overflow".into(),
            });
        }
        self.stack_cursor = base;
        let argv: Vec<Value> = self.vstack.split_off(self.vstack.len() - argc);
        let vstack_base = self.vstack.len();
        self.frames.push(Frame {
            fid,
            ret_pc,
            base,
            saved_cursor: saved,
            vstack_base,
        });
        for (slot, v) in f.params.iter().zip(argv) {
            let addr = base + slot.off as u64;
            self.objects.insert(addr, slot.size);
            let ty = &prog.types[slot.ty as usize];
            self.store_typed(addr, ty, v, f.line)?;
        }
        Ok(f.entry)
    }

    // --- The dispatch loop ---

    #[allow(clippy::too_many_lines)]
    fn exec_call(&mut self, prog: &IrProgram, fid: u32) -> Result<Value, RtError> {
        let f = &prog.funcs[fid as usize];
        let mut pc = self.push_frame(prog, fid, 0, usize::MAX, f.line)?;
        loop {
            self.tick()?;
            match &prog.code[pc] {
                Op::ConstInt { v, width, signed } => {
                    self.vstack
                        .push(Value::Int(IntValue::new(*v, *width, *signed)));
                }
                Op::ConstStr { sid, line } => {
                    let addr = self.intern(prog, *sid, *line)?;
                    let len = prog.strings[*sid as usize].len() as u64 + 1;
                    let ty = &prog.types[prog.str_ty as usize];
                    self.vstack
                        .push(Value::Ptr(self.model.make_ptr(addr, len, ty)));
                }
                Op::LoadLocal { off, ty, line } => {
                    let addr = self.frame_base() + *off as u64;
                    let ty = &prog.types[*ty as usize];
                    let v = self.load_typed(addr, ty, *line)?;
                    self.vstack.push(v);
                }
                Op::LoadGlobal { addr, ty, line } => {
                    let ty = &prog.types[*ty as usize];
                    let v = self.load_typed(*addr, ty, *line)?;
                    self.vstack.push(v);
                }
                Op::StoreLocal { off, ty, line } => {
                    let addr = self.frame_base() + *off as u64;
                    let ty = &prog.types[*ty as usize];
                    let v = self.pop();
                    self.store_typed(addr, ty, v, *line)?;
                    self.vstack.push(v);
                }
                Op::StoreGlobal { addr, ty, line } => {
                    let ty = &prog.types[*ty as usize];
                    let v = self.pop();
                    self.store_typed(*addr, ty, v, *line)?;
                    self.vstack.push(v);
                }
                Op::AddrLocal { off, size, ty } => {
                    let addr = self.frame_base() + *off as u64;
                    let ty = &prog.types[*ty as usize];
                    self.vstack
                        .push(Value::Ptr(self.model.make_ptr(addr, *size, ty)));
                }
                Op::AddrGlobal { addr, size, ty } => {
                    let ty = &prog.types[*ty as usize];
                    self.vstack
                        .push(Value::Ptr(self.model.make_ptr(*addr, *size, ty)));
                }
                Op::LoadInd { ty, size, line } => {
                    let size = Self::checked_size(*size);
                    let p = self.pop_ptr();
                    let a = self
                        .model
                        .deref(&self.objects, &p, size, false)
                        .map_err(|e| self.model_err(*line, e))?;
                    let ty = &prog.types[*ty as usize];
                    let v = self.load_typed(a, ty, *line)?;
                    self.vstack.push(v);
                }
                Op::StoreInd { ty, size, line } => {
                    let size = Self::checked_size(*size);
                    let v = self.pop();
                    let p = self.pop_ptr();
                    let a = self
                        .model
                        .deref(&self.objects, &p, size, true)
                        .map_err(|e| self.model_err(*line, e))?;
                    let ty = &prog.types[*ty as usize];
                    self.store_typed(a, ty, v, *line)?;
                    self.vstack.push(v);
                }
                Op::Dup => {
                    let v = *self.vstack.last().expect("value to duplicate");
                    self.vstack.push(v);
                }
                Op::Pop => {
                    self.pop();
                }
                Op::PtrIndex { elem, line } => {
                    let elem = Self::checked_size(*elem);
                    let idx = self.pop();
                    let p = self.pop_ptr();
                    let delta = (idx.as_u64() as i64).wrapping_mul(elem as i64);
                    let q = self
                        .model
                        .ptr_add(&p, delta)
                        .map_err(|e| self.model_err(*line, e))?;
                    self.vstack.push(Value::Ptr(q));
                }
                Op::NarrowField { off, size, line } => {
                    let p = self.pop_ptr();
                    let q = self
                        .model
                        .narrow_field(&p, *off, *size)
                        .map_err(|e| self.model_err(*line, e))?;
                    self.vstack.push(Value::Ptr(q));
                }
                Op::ToPtr { .. } => match self.pop() {
                    Value::Ptr(p) => self.vstack.push(Value::Ptr(p)),
                    Value::Int(i) => self.vstack.push(Value::Ptr(self.model.int_to_ptr(&i))),
                },
                Op::AdjustPtr { ty } => {
                    if let Value::Ptr(p) = *self.vstack.last().expect("value") {
                        let ty = &prog.types[*ty as usize];
                        let adj = self.model.adjust_for_type(p, ty);
                        *self.vstack.last_mut().expect("value") = Value::Ptr(adj);
                    }
                }
                Op::Unary { op, line } => {
                    let v = self.exec_unary(*op, *line)?;
                    self.vstack.push(v);
                }
                Op::Binary { op, meta, line } => {
                    let vb = self.pop();
                    let va = self.pop();
                    let v = self.apply_binop(*op, va, vb, *meta, *line)?;
                    self.vstack.push(v);
                }
                Op::Cast { to, line } => {
                    let v = self.pop();
                    let to = &prog.types[*to as usize];
                    let v = self.eval_cast(to, v, *line)?;
                    self.vstack.push(v);
                }
                Op::ConvertStore { width, signed } => {
                    let v = self.pop();
                    let iv = self.coerce_int(v, *width, *signed);
                    self.vstack.push(Value::Int(iv));
                }
                Op::Truthy => {
                    let v = self.pop();
                    self.vstack.push(Value::int(i64::from(v.is_truthy())));
                }
                Op::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                Op::JumpIfZero { target } => {
                    if !self.pop().is_truthy() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::JumpIfNonZero { target } => {
                    if self.pop().is_truthy() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::Call { f, line } => {
                    let argc = prog.funcs[*f as usize].params.len();
                    pc = self.push_frame(prog, *f, argc, pc + 1, *line)?;
                    continue;
                }
                Op::Builtin { b, line } => self.exec_builtin(*b, *line)?,
                Op::Ret { has_value } => {
                    let v = if *has_value {
                        self.pop()
                    } else {
                        Value::int(0)
                    };
                    let fr = self.frames.pop().expect("active frame");
                    let f = &prog.funcs[fr.fid as usize];
                    for &(off, _) in &f.vars {
                        self.objects.remove(&(fr.base + off as u64));
                    }
                    if self.model.uses_shadow() && !f.vars.is_empty() {
                        let range = fr.base..fr.base + f.frame_size;
                        self.shadow.retain(|a, _| !range.contains(a));
                    }
                    self.stack_cursor = fr.saved_cursor;
                    self.vstack.truncate(fr.vstack_base);
                    if fr.ret_pc == usize::MAX {
                        return Ok(v);
                    }
                    self.vstack.push(v);
                    pc = fr.ret_pc;
                    continue;
                }
                Op::Define { off, size } => {
                    let addr = self.frame_base() + *off as u64;
                    self.objects.insert(addr, *size);
                }
                Op::Kill { off, size } => {
                    let addr = self.frame_base() + *off as u64;
                    self.objects.remove(&addr);
                    if self.model.uses_shadow() {
                        let range = addr..addr + size;
                        self.shadow.retain(|a, _| !range.contains(a));
                    }
                }
                Op::InitStrLocal { off, sid, line } => {
                    let addr = self.frame_base() + *off as u64;
                    self.write_str_bytes(prog, addr, *sid, *line)?;
                }
                Op::InitStrGlobal { addr, sid, line } => {
                    self.write_str_bytes(prog, *addr, *sid, *line)?;
                }
                Op::IncDecGlobal {
                    addr,
                    ty,
                    meta,
                    pre,
                    inc,
                    line,
                } => {
                    let v = self.exec_incdec_direct(prog, *addr, *ty, *meta, *pre, *inc, *line)?;
                    self.vstack.push(v);
                }
                Op::IncDecLocal {
                    off,
                    ty,
                    meta,
                    pre,
                    inc,
                    line,
                } => {
                    let addr = self.frame_base() + *off as u64;
                    let v = self.exec_incdec_direct(prog, addr, *ty, *meta, *pre, *inc, *line)?;
                    self.vstack.push(v);
                }
                Op::IncDecInd {
                    ty,
                    size,
                    meta,
                    pre,
                    inc,
                    line,
                } => {
                    let size = Self::checked_size(*size);
                    let p = self.pop_ptr();
                    let ty = &prog.types[*ty as usize];
                    let a = self
                        .model
                        .deref(&self.objects, &p, size, false)
                        .map_err(|e| self.model_err(*line, e))?;
                    let old = self.load_typed(a, ty, *line)?;
                    let one = Value::Int(IntValue::new(if *inc { 1 } else { -1 }, 8, true));
                    let new = self.apply_binop(BinOp::Add, old, one, *meta, *line)?;
                    let stored = self.convert_for_store(new, ty);
                    let aw = self
                        .model
                        .deref(&self.objects, &p, size, true)
                        .map_err(|e| self.model_err(*line, e))?;
                    self.store_typed(aw, ty, stored, *line)?;
                    self.vstack.push(if *pre { stored } else { old });
                }
                Op::Unsupported { msg, line } => {
                    return Err(RtError::Unsupported {
                        line: *line,
                        msg: msg.to_string(),
                    });
                }
            }
            pc += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_incdec_direct(
        &mut self,
        prog: &IrProgram,
        addr: u64,
        ty: u32,
        meta: BinMeta,
        pre: bool,
        inc: bool,
        line: u32,
    ) -> Result<Value, RtError> {
        let ty = &prog.types[ty as usize];
        let old = self.load_typed(addr, ty, line)?;
        let one = Value::Int(IntValue::new(if inc { 1 } else { -1 }, 8, true));
        let new = self.apply_binop(BinOp::Add, old, one, meta, line)?;
        let stored = self.convert_for_store(new, ty);
        self.store_typed(addr, ty, stored, line)?;
        Ok(if pre { stored } else { old })
    }

    fn convert_for_store(&self, v: Value, ty: &Type) -> Value {
        match ty {
            Type::Int { width, signed } => Value::Int(self.coerce_int(v, *width, *signed)),
            _ => v,
        }
    }

    fn write_str_bytes(
        &mut self,
        prog: &IrProgram,
        addr: u64,
        sid: u32,
        line: u32,
    ) -> Result<(), RtError> {
        let bytes: Vec<u8> = prog.strings[sid as usize]
            .bytes()
            .chain(std::iter::once(0))
            .collect();
        for (i, b) in bytes.iter().enumerate() {
            self.write_raw(addr + i as u64, *b as u64, 1, line)?;
        }
        Ok(())
    }

    fn intern(&mut self, prog: &IrProgram, sid: u32, line: u32) -> Result<u64, RtError> {
        if let Some(addr) = self.str_addrs[sid as usize] {
            return Ok(addr);
        }
        let s = &prog.strings[sid as usize];
        let len = s.len() as u64 + 1;
        let addr = self.rodata_cursor.next_multiple_of(32);
        self.rodata_cursor = addr + len;
        let bytes: Vec<u8> = s.bytes().chain(std::iter::once(0)).collect();
        for (i, b) in bytes.iter().enumerate() {
            self.write_raw(addr + i as u64, *b as u64, 1, line)?;
        }
        self.objects.insert(addr, len);
        self.str_addrs[sid as usize] = Some(addr);
        Ok(addr)
    }

    // --- Operators ---

    fn exec_unary(&mut self, op: UnOp, line: u32) -> Result<Value, RtError> {
        match op {
            UnOp::Not => {
                let v = self.pop();
                Ok(Value::int(i64::from(!v.is_truthy())))
            }
            UnOp::Neg | UnOp::BitNot => {
                let v = self.pop();
                match v {
                    Value::Int(i) => {
                        let r = if op == UnOp::Neg {
                            (i.as_i64()).wrapping_neg()
                        } else {
                            !i.as_i64()
                        };
                        let w = if i.width < 4 { 4 } else { i.width };
                        Ok(Value::Int(IntValue::new(r, w, i.signed).touch_prov()))
                    }
                    Value::Ptr(p) => {
                        // ~ or - on an intcap_t value.
                        self.intcap_arith(line, p, |a| {
                            if op == UnOp::Neg {
                                (a as i64).wrapping_neg() as u64
                            } else {
                                !a
                            }
                        })
                    }
                }
            }
            UnOp::Deref | UnOp::Addr => unreachable!("lowered to place ops"),
        }
    }

    /// Arithmetic on an `intcap_t`: CHERIv3 adjusts the offset so the
    /// address becomes the arithmetic result; CHERIv2 refuses (§5.1).
    fn intcap_arith(
        &mut self,
        line: u32,
        p: PtrVal,
        f: impl FnOnce(u64) -> u64,
    ) -> Result<Value, RtError> {
        if !self.model.intcap_arith_allowed() {
            return Err(self.model_err(
                line,
                ModelError::new("unrepresentable", "arithmetic on intcap_t values"),
            ));
        }
        match p {
            PtrVal::Cap(c) => {
                let new_addr = f(c.address());
                let adjusted = c
                    .set_offset(new_addr.wrapping_sub(c.base()))
                    .map_err(|_| self.model_err(line, ModelError::new("permission", "sealed")))?;
                Ok(Value::Ptr(PtrVal::Cap(adjusted)))
            }
            other => Ok(Value::Ptr(PtrVal::Plain {
                addr: f(other.addr()),
            })),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn apply_binop(
        &mut self,
        op: BinOp,
        va: Value,
        vb: Value,
        meta: BinMeta,
        line: u32,
    ) -> Result<Value, RtError> {
        // Pointer arithmetic / comparison (decided by the static types).
        if meta.a_ptr || meta.b_ptr {
            return self.apply_ptr_binop(op, va, vb, meta, line);
        }
        // intcap_t arithmetic: a capability-carried integer.
        if let Value::Ptr(p) = va {
            let rhs = vb.as_u64();
            return self.intcap_binop(op, p, rhs, false, line);
        }
        if let Value::Ptr(p) = vb {
            let lhs = va.as_u64();
            return self.intcap_binop(op, p, lhs, true, line);
        }
        let (Value::Int(ia), Value::Int(ib)) = (va, vb) else {
            unreachable!()
        };
        let w = ia.width.max(ib.width).max(4);
        let signed = if ia.width == ib.width {
            ia.signed && ib.signed
        } else if ia.width > ib.width {
            ia.signed
        } else {
            ib.signed
        };
        let (x, y) = (ia.v, ib.v);
        let (sx, sy) = (ia.as_i64(), ib.as_i64());
        let r: u64 = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    return Err(RtError::DivByZero { line });
                }
                if signed {
                    sx.wrapping_div(sy) as u64
                } else {
                    let (mx, my) = (mask_w(x, w), mask_w(y, w));
                    mx / my
                }
            }
            BinOp::Rem => {
                if y == 0 {
                    return Err(RtError::DivByZero { line });
                }
                if signed {
                    sx.wrapping_rem(sy) as u64
                } else {
                    let (mx, my) = (mask_w(x, w), mask_w(y, w));
                    mx % my
                }
            }
            BinOp::Shl => x.wrapping_shl(y as u32 & 63),
            BinOp::Shr => {
                if signed {
                    (sx >> (y as u32 & 63)) as u64
                } else {
                    mask_w(x, w) >> (y as u32 & 63)
                }
            }
            BinOp::BitAnd => x & y,
            BinOp::BitOr => x | y,
            BinOp::BitXor => x ^ y,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                let c = if signed {
                    sx.cmp(&sy)
                } else {
                    mask_w(x, w).cmp(&mask_w(y, w))
                };
                let r = match op {
                    BinOp::Lt => c.is_lt(),
                    BinOp::Gt => c.is_gt(),
                    BinOp::Le => c.is_le(),
                    BinOp::Ge => c.is_ge(),
                    BinOp::Eq => c.is_eq(),
                    BinOp::Ne => c.is_ne(),
                    _ => unreachable!(),
                };
                return Ok(Value::int(i64::from(r)));
            }
            BinOp::LogAnd | BinOp::LogOr => unreachable!("lowered to branches"),
        };
        let mut out = IntValue::new(r as i64, w, signed);
        // Provenance survives arithmetic but is marked modified — the
        // HardBound/Strict fail-closed trigger and MPX fail-open trigger.
        out.prov = ia.prov.or(ib.prov).map(|mut p| {
            p.modified = true;
            p
        });
        Ok(Value::Int(out))
    }

    fn intcap_binop(
        &mut self,
        op: BinOp,
        p: PtrVal,
        other: u64,
        swapped: bool,
        line: u32,
    ) -> Result<Value, RtError> {
        if op.is_comparison() {
            let a = if swapped { other } else { p.addr() };
            let b = if swapped { p.addr() } else { other };
            let r = match op {
                BinOp::Lt => a < b,
                BinOp::Gt => a > b,
                BinOp::Le => a <= b,
                BinOp::Ge => a >= b,
                BinOp::Eq => a == b,
                BinOp::Ne => a != b,
                _ => unreachable!(),
            };
            return Ok(Value::int(i64::from(r)));
        }
        self.intcap_arith(line, p, |addr| {
            let (a, b) = if swapped {
                (other, addr)
            } else {
                (addr, other)
            };
            match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => a.checked_div(b).unwrap_or(0),
                BinOp::Rem => a.checked_rem(b).unwrap_or(0),
                BinOp::Shl => a.wrapping_shl(b as u32 & 63),
                BinOp::Shr => a.wrapping_shr(b as u32 & 63),
                BinOp::BitAnd => a & b,
                BinOp::BitOr => a | b,
                BinOp::BitXor => a ^ b,
                _ => unreachable!(),
            }
        })
    }

    fn apply_ptr_binop(
        &mut self,
        op: BinOp,
        va: Value,
        vb: Value,
        meta: BinMeta,
        line: u32,
    ) -> Result<Value, RtError> {
        let model = self.model;
        let as_ptr = |v: Value| match v {
            Value::Ptr(p) => p,
            Value::Int(i) => model.int_to_ptr(&i),
        };
        match op {
            BinOp::Add | BinOp::Sub => {
                if meta.a_ptr && meta.b_ptr && op == BinOp::Sub {
                    let pa = as_ptr(va);
                    let pb = as_ptr(vb);
                    let diff = self
                        .model
                        .ptr_diff(&pa, &pb)
                        .map_err(|err| self.model_err(line, err))?;
                    let es = Self::checked_size(meta.a_elem).max(1) as i64;
                    return Ok(Value::Int(IntValue::new(diff / es, 8, true)));
                }
                let (pv, elem, iv) = if meta.a_ptr {
                    (as_ptr(va), meta.a_elem, vb.as_u64() as i64)
                } else {
                    (as_ptr(vb), meta.b_elem, va.as_u64() as i64)
                };
                let es = Self::checked_size(elem).max(1) as i64;
                let delta = if op == BinOp::Sub { -iv } else { iv }.wrapping_mul(es);
                let q = self
                    .model
                    .ptr_add(&pv, delta)
                    .map_err(|err| self.model_err(line, err))?;
                Ok(Value::Ptr(q))
            }
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                let x = va.as_u64();
                let y = vb.as_u64();
                let r = match op {
                    BinOp::Lt => x < y,
                    BinOp::Gt => x > y,
                    BinOp::Le => x <= y,
                    BinOp::Ge => x >= y,
                    BinOp::Eq => x == y,
                    BinOp::Ne => x != y,
                    _ => unreachable!(),
                };
                Ok(Value::int(i64::from(r)))
            }
            other => Err(RtError::Unsupported {
                line,
                msg: format!("operator {other:?} on pointers"),
            }),
        }
    }

    fn eval_cast(&mut self, to: &Type, v: Value, line: u32) -> Result<Value, RtError> {
        match to {
            Type::Void => Ok(Value::int(0)),
            Type::Int { width, signed } => match v {
                Value::Int(i) => Ok(Value::Int(self.coerce_int(Value::Int(i), *width, *signed))),
                Value::Ptr(p) => Ok(Value::Int(self.model.ptr_to_int(&p, *width, *signed))),
            },
            Type::IntPtr { signed } | Type::IntCap { signed } => {
                if self.model.stores_caps() {
                    match v {
                        Value::Ptr(p) => Ok(Value::Ptr(p)),
                        Value::Int(i) => Ok(Value::Ptr(PtrVal::Cap(Capability::from_int(i.v)))),
                    }
                } else {
                    match v {
                        Value::Ptr(p) => Ok(Value::Int(self.model.ptr_to_int(&p, 8, *signed))),
                        Value::Int(i) => Ok(Value::Int(self.coerce_int(Value::Int(i), 8, *signed))),
                    }
                }
            }
            Type::Ptr { .. } => match v {
                Value::Ptr(p) => Ok(Value::Ptr(self.model.adjust_for_type(p, to))),
                Value::Int(i) => Ok(Value::Ptr(
                    self.model.adjust_for_type(self.model.int_to_ptr(&i), to),
                )),
            },
            Type::Array { .. } | Type::Struct(_) => Err(RtError::Unsupported {
                line,
                msg: format!("cast to {to}"),
            }),
        }
    }

    // --- Builtins ---

    #[allow(clippy::too_many_lines)]
    fn exec_builtin(&mut self, b: Builtin, line: u32) -> Result<(), RtError> {
        match b {
            Builtin::Malloc => {
                let n = self.pop().as_u64();
                match self.heap.alloc(n) {
                    Ok(addr) => {
                        self.objects.insert(addr, n.max(1));
                        let ty = Type::ptr_to(Type::Void);
                        self.vstack
                            .push(Value::Ptr(self.model.make_ptr(addr, n, &ty)));
                    }
                    Err(_) => self.vstack.push(Value::Ptr(PtrVal::Plain { addr: 0 })),
                }
            }
            Builtin::Free => {
                let addr = self.pop().as_u64();
                if addr == 0 {
                    self.vstack.push(Value::int(0));
                    return Ok(());
                }
                self.heap
                    .free(addr)
                    .map_err(|_| RtError::BadFree { line, addr })?;
                self.objects.remove(&addr);
                self.vstack.push(Value::int(0));
            }
            Builtin::Memcpy => {
                let n = self.pop().as_u64();
                let s = self.pop_ptr();
                let d = self.pop_ptr();
                if n > 0 {
                    let da = self
                        .model
                        .deref(&self.objects, &d, n, true)
                        .map_err(|err| self.model_err(line, err))?;
                    let sa = self
                        .model
                        .deref(&self.objects, &s, n, false)
                        .map_err(|err| self.model_err(line, err))?;
                    self.copy_bytes(da, sa, n, line)?;
                }
                self.vstack.push(Value::Ptr(d));
            }
            Builtin::Memset => {
                let n = self.pop().as_u64();
                let c = self.pop().as_u64() as u8;
                let d = self.pop_ptr();
                if n > 0 {
                    let da = self
                        .model
                        .deref(&self.objects, &d, n, true)
                        .map_err(|err| self.model_err(line, err))?;
                    let pd = self.phys(da, n, line)?;
                    self.mem_mut()
                        .fill(pd, n, c)
                        .map_err(|_| RtError::Unmapped { line, addr: da })?;
                    if self.model.uses_shadow() {
                        for a in da..da + n {
                            self.shadow.remove(&a);
                        }
                    }
                }
                self.vstack.push(Value::Ptr(d));
            }
            Builtin::Strlen => {
                let p = self.pop_ptr();
                let mut n = 0u64;
                loop {
                    let q = self
                        .model
                        .ptr_add(&p, n as i64)
                        .map_err(|e| self.model_err(line, e))?;
                    let a = self
                        .model
                        .deref(&self.objects, &q, 1, false)
                        .map_err(|err| self.model_err(line, err))?;
                    if self.read_raw(a, 1, line)? == 0 {
                        break;
                    }
                    n += 1;
                    self.tick()?;
                }
                self.vstack
                    .push(Value::Int(IntValue::new(n as i64, 8, false)));
            }
            Builtin::Strcmp => {
                let pb = self.pop_ptr();
                let pa = self.pop_ptr();
                let mut i = 0i64;
                loop {
                    let qa = self
                        .model
                        .ptr_add(&pa, i)
                        .map_err(|e| self.model_err(line, e))?;
                    let qb = self
                        .model
                        .ptr_add(&pb, i)
                        .map_err(|e| self.model_err(line, e))?;
                    let aa = self
                        .model
                        .deref(&self.objects, &qa, 1, false)
                        .map_err(|err| self.model_err(line, err))?;
                    let ab = self
                        .model
                        .deref(&self.objects, &qb, 1, false)
                        .map_err(|err| self.model_err(line, err))?;
                    let (ca, cb) = (self.read_raw(aa, 1, line)?, self.read_raw(ab, 1, line)?);
                    if ca != cb {
                        self.vstack.push(Value::int(if ca < cb { -1 } else { 1 }));
                        return Ok(());
                    }
                    if ca == 0 {
                        self.vstack.push(Value::int(0));
                        return Ok(());
                    }
                    i += 1;
                    self.tick()?;
                }
            }
            Builtin::Puts => {
                let p = self.pop_ptr();
                let mut i = 0i64;
                loop {
                    let q = self
                        .model
                        .ptr_add(&p, i)
                        .map_err(|e| self.model_err(line, e))?;
                    let a = self
                        .model
                        .deref(&self.objects, &q, 1, false)
                        .map_err(|err| self.model_err(line, err))?;
                    let c = self.read_raw(a, 1, line)?;
                    if c == 0 {
                        break;
                    }
                    self.output.push(c as u8 as char);
                    i += 1;
                    self.tick()?;
                }
                self.output.push('\n');
                self.vstack.push(Value::int(0));
            }
            Builtin::Putchar => {
                let c = self.pop().as_u64();
                self.output.push(c as u8 as char);
                self.vstack.push(Value::int(c as i64));
            }
            Builtin::Putint => {
                let v = self.pop();
                let n = match v {
                    Value::Int(i) => i.as_i64(),
                    Value::Ptr(p) => p.addr() as i64,
                };
                self.output.push_str(&n.to_string());
                self.vstack.push(Value::int(0));
            }
            Builtin::Assert => {
                let v = self.pop();
                if v.is_truthy() {
                    self.vstack.push(Value::int(0));
                } else {
                    return Err(RtError::AssertFailed { line });
                }
            }
            Builtin::Abort => return Err(RtError::Abort { line }),
            Builtin::Clock => {
                self.vstack
                    .push(Value::Int(IntValue::new(self.steps as i64, 8, true)));
            }
        }
        Ok(())
    }
}

fn mask_w(v: u64, w: u8) -> u64 {
    if w >= 8 {
        v
    } else {
        v & ((1u64 << (w * 8)) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, kind: ModelKind) -> Result<ExecResult, RtError> {
        let unit = cheri_c::parse(src).expect("front end");
        run_main(&unit, kind)
    }

    fn run_all_ok(src: &str, expect: i64) {
        for kind in ModelKind::ALL {
            let r = run(src, kind).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(r.exit_code, expect, "model {kind}");
        }
    }

    #[test]
    fn arithmetic_and_control_flow() {
        run_all_ok(
            "int main(void) {
                int s = 0;
                for (int i = 1; i <= 10; i++) s += i;
                while (s > 54) s--;
                return s;
            }",
            54,
        );
    }

    #[test]
    fn recursion() {
        run_all_ok(
            "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
             int main(void) { return fib(10); }",
            55,
        );
    }

    #[test]
    fn arrays_and_pointers() {
        run_all_ok(
            "int main(void) {
                int a[8];
                for (int i = 0; i < 8; i++) a[i] = i * i;
                int *p = a;
                int s = 0;
                for (int i = 0; i < 8; i++) s += *(p + i);
                return s;
            }",
            140,
        );
    }

    #[test]
    fn structs_and_members() {
        run_all_ok(
            "struct point { int x; int y; };
             int main(void) {
                struct point p;
                p.x = 3; p.y = 4;
                struct point *q = &p;
                return q->x * q->x + q->y * q->y;
             }",
            25,
        );
    }

    #[test]
    fn linked_list_with_malloc() {
        run_all_ok(
            "struct node { int v; struct node *next; };
             int main(void) {
                struct node *head = 0;
                for (int i = 1; i <= 5; i++) {
                    struct node *n = (struct node*)malloc(sizeof(struct node));
                    n->v = i;
                    n->next = head;
                    head = n;
                }
                int s = 0;
                while (head) { s += head->v; struct node *d = head; head = head->next; free(d); }
                return s;
             }",
            15,
        );
    }

    #[test]
    fn unions_type_pun() {
        run_all_ok(
            "union u { unsigned int i; unsigned char b[4]; };
             int main(void) {
                union u v;
                v.i = 0x01020304;
                return v.b[0] + v.b[3];
             }",
            5, // little-endian: 0x04 + 0x01
        );
    }

    #[test]
    fn strings_and_output() {
        let r = run(
            "int main(void) { puts(\"hello\"); putint(42); return (int)strlen(\"abc\"); }",
            ModelKind::CheriV3,
        )
        .unwrap();
        assert_eq!(r.output, "hello\n42");
        assert_eq!(r.exit_code, 3);
    }

    #[test]
    fn globals_initialize() {
        run_all_ok(
            "int g = 40;
             char msg[] = \"hi\";
             int main(void) { return g + msg[1] - 'i' + 2; }",
            42,
        );
    }

    #[test]
    fn sizeof_depends_on_model() {
        let src = "int main(void) { return (int)sizeof(int*); }";
        assert_eq!(run(src, ModelKind::Pdp11).unwrap().exit_code, 8);
        assert_eq!(run(src, ModelKind::CheriV3).unwrap().exit_code, 32);
    }

    #[test]
    fn buffer_overflow_caught_by_safe_models() {
        let src = "int main(void) {
            char *p = (char*)malloc(16);
            p[20] = 1;   /* classic overflow */
            return 0;
        }";
        // The PDP-11 model lets it corrupt the heap silently.
        assert!(run(src, ModelKind::Pdp11).is_ok());
        for kind in [
            ModelKind::HardBound,
            ModelKind::Mpx,
            ModelKind::Relaxed,
            ModelKind::Strict,
            ModelKind::CheriV2,
            ModelKind::CheriV3,
        ] {
            let e = run(src, kind).unwrap_err();
            assert!(
                matches!(e, RtError::Model { .. }),
                "{kind} should catch overflow: {e}"
            );
        }
    }

    #[test]
    fn assert_and_abort() {
        assert!(matches!(
            run("int main(void) { assert(0); return 0; }", ModelKind::Pdp11),
            Err(RtError::AssertFailed { .. })
        ));
        assert!(matches!(
            run("int main(void) { abort(); return 0; }", ModelKind::Pdp11),
            Err(RtError::Abort { .. })
        ));
    }

    #[test]
    fn div_by_zero_reported() {
        assert!(matches!(
            run(
                "int main(void) { int z = 0; return 5 / z; }",
                ModelKind::Pdp11
            ),
            Err(RtError::DivByZero { .. })
        ));
    }

    #[test]
    fn double_free_reported() {
        let e = run(
            "int main(void) { char *p = (char*)malloc(8); free(p); free(p); return 0; }",
            ModelKind::Pdp11,
        )
        .unwrap_err();
        assert!(matches!(e, RtError::BadFree { .. }));
    }

    #[test]
    fn memcpy_copies_pointers_intact() {
        // memcpy must move pointers without knowing they are there (§4).
        run_all_ok(
            "struct holder { int *p; long pad; };
             int main(void) {
                int x = 7;
                struct holder a;
                struct holder b;
                a.p = &x;
                a.pad = 1;
                memcpy(&b, &a, sizeof(struct holder));
                return *b.p;
             }",
            7,
        );
    }

    #[test]
    fn ternary_and_compound_ops() {
        run_all_ok(
            "int main(void) {
                int x = 5;
                x <<= 2;          /* 20 */
                x |= 1;           /* 21 */
                x %= 10;          /* 1 */
                return x > 0 ? x + 41 : -1;
             }",
            42,
        );
    }

    #[test]
    fn pointer_comparisons() {
        run_all_ok(
            "int main(void) {
                int a[4];
                int *p = &a[1];
                int *q = &a[3];
                if (p < q && q > p && p != q && p == p) return 1;
                return 0;
             }",
            1,
        );
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let unit = cheri_c::parse("int main(void) { while (1) { } return 0; }").unwrap();
        let r = Interp::new(&unit, ModelKind::Pdp11)
            .with_step_limit(10_000)
            .run("main");
        assert!(matches!(r, Err(RtError::StepLimit)));
    }

    #[test]
    fn out_of_bounds_intermediate_models_differ() {
        // Idiom II, straight from the paper.
        let src = "int main(void) {
            int a[4];
            a[2] = 9;
            int *p = a + 9;   /* invalid intermediate */
            p = p - 7;        /* back in bounds */
            return *p;
        }";
        for kind in [
            ModelKind::Pdp11,
            ModelKind::HardBound,
            ModelKind::Mpx,
            ModelKind::Relaxed,
            ModelKind::Strict,
            ModelKind::CheriV3,
        ] {
            assert_eq!(run(src, kind).unwrap().exit_code, 9, "{kind}");
        }
        assert!(run(src, ModelKind::CheriV2).is_err());
    }

    #[test]
    fn wide_idiom_fails_everywhere() {
        // Idiom Wide: pointers do not fit in 32 bits on any 64-bit model.
        let src = "int main(void) {
            int x = 7;
            int *p = &x;
            unsigned int w = (unsigned int)(unsigned long)(int*)p;
            int *q = (int*)(unsigned long)w;
            return *q;
        }";
        for kind in ModelKind::ALL {
            assert!(run(src, kind).is_err(), "{kind} should fail Wide");
        }
    }

    #[test]
    fn output_and_steps_are_reported() {
        let r = run(
            "int main(void) { putchar('x'); return 0; }",
            ModelKind::Pdp11,
        )
        .unwrap();
        assert_eq!(r.output, "x");
        assert!(r.steps > 0);
    }

    // --- IR-specific coverage ---

    #[test]
    fn do_while_break_continue() {
        run_all_ok(
            "int main(void) {
                int s = 0;
                int i = 0;
                do {
                    i++;
                    if (i == 3) continue;
                    if (i > 6) break;
                    s += i;
                } while (i < 100);
                return s;   /* 1+2+4+5+6 = 18 */
             }",
            18,
        );
    }

    #[test]
    fn short_circuit_skips_side_effects() {
        run_all_ok(
            "int hit = 0;
             int touch(void) { hit = 1; return 1; }
             int main(void) {
                int a = 0 && touch();
                int b = 1 || touch();
                return hit * 100 + a * 10 + b;
             }",
            1,
        );
    }

    #[test]
    fn global_incdec_and_compound_assign() {
        run_all_ok(
            "int g = 10;
             int main(void) {
                g++;
                ++g;
                g -= 2;      /* 10 */
                g *= 4;      /* 40 */
                int pre = ++g;   /* 41 */
                int post = g++;  /* 41, g = 42 */
                return g + (pre == 41) + (post == 41) - 2;
             }",
            42,
        );
    }

    #[test]
    fn pointer_incdec_through_deref() {
        run_all_ok(
            "int main(void) {
                int a[4];
                a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
                int *p = a;
                int first = (*p)++;   /* a[0] = 2 */
                p++;
                int second = *p;      /* 2 */
                return first * 10 + second + a[0];  /* 10 + 2 + 2 */
             }",
            14,
        );
    }

    #[test]
    fn entry_function_with_params_reports_unbound() {
        // Nothing supplies main's arguments; reading one must fail loudly
        // (the AST walker errored at first use), never read zeroed memory.
        let e = run("int main(int argc) { return argc; }", ModelKind::Pdp11).unwrap_err();
        assert!(e.to_string().contains("unbound variable argc"), "{e}");
    }

    #[test]
    fn string_literals_are_interned_once() {
        // The same literal must intern to the same rodata address.
        let r = run(
            "int main(void) { return \"abc\" == \"abc\"; }",
            ModelKind::Pdp11,
        )
        .unwrap();
        assert_eq!(r.exit_code, 1);
    }

    #[test]
    fn run_main_all_matches_sequential_runs() {
        let unit = cheri_c::parse(
            "int main(void) {
                char *p = (char*)malloc(16);
                p[20] = 1;
                return 0;
             }",
        )
        .unwrap();
        let parallel = run_main_all(&unit);
        assert_eq!(parallel.len(), 7);
        for ((k, got), expect_kind) in parallel.iter().zip(ModelKind::ALL) {
            assert_eq!(*k, expect_kind, "deterministic ModelKind::ALL ordering");
            let seq = run_main(&unit, *k);
            match (got, &seq) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.exit_code, b.exit_code, "{k}");
                    assert_eq!(a.output, b.output, "{k}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{k}"),
                _ => panic!("{k}: parallel {got:?} vs sequential {seq:?}"),
            }
        }
    }

    #[test]
    fn lowered_unit_shares_ir_across_models() {
        let unit = cheri_c::parse(
            "int sq(int v) { return v * v; }
             int main(void) { return sq(3) + sq(4); }",
        )
        .unwrap();
        let lowered = LoweredUnit::new(&unit);
        for kind in ModelKind::ALL {
            assert_eq!(lowered.run(kind).unwrap().exit_code, 25, "{kind}");
        }
    }

    #[test]
    fn scope_exit_retires_objects_for_relaxed() {
        // A pointer into a dead scope's local must not dereference under
        // Relaxed (live-object lookup) once the scope has exited.
        let src = "int main(void) {
            int *p = 0;
            if (1) { int x = 5; p = &x; }
            return *p;
        }";
        assert!(run(src, ModelKind::Relaxed).is_err());
        assert!(run(src, ModelKind::Pdp11).is_ok());
    }

    #[test]
    fn nested_break_kills_inner_scopes() {
        run_all_ok(
            "int main(void) {
                int s = 0;
                for (int i = 0; i < 10; i++) {
                    int doubled = i * 2;
                    if (i == 3) { int tmp = 100; s += tmp; break; }
                    s += doubled;
                }
                return s;   /* 0+2+4 + 100 */
             }",
            106,
        );
    }
}
