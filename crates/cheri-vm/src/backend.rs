//! Pluggable execution backends over the block IR.
//!
//! A backend owns the compiled-block cache and the dispatch loop; the
//! [`crate::Vm`] owns the architectural state (registers, memory, PCC,
//! statistics) and hands itself to the backend for the duration of
//! [`crate::Vm::run`]. All backends are instances of one generic
//! [`Engine`] parameterised by a [`BlockRepr`] — what a compiled block
//! *is* — plus a chaining switch:
//!
//! * [`BackendKind::Reference`] — `Engine<InterpBody>`, no chaining: the
//!   superinstruction interpreter exactly as before this refactor, and
//!   the semantics every other backend is differenced against.
//! * [`BackendKind::Chained`] — the same body, but a block whose terminal
//!   is a direct branch or jump transfers straight to the already-compiled
//!   successor (a memoized slot on the block) without re-entering the
//!   outer dispatch loop.
//! * [`BackendKind::Template`] — `Engine<TemplateBody>` with chaining:
//!   each micro-op is pre-bound at compile time to a monomorphized
//!   handler function, so the per-op dispatch is an indirect call on
//!   pre-extracted operands instead of a match over [`FlatOp`].
//!
//! The compiled-block table is immutable once a machine is snapshotted,
//! so an engine holds it behind an [`Arc`]: a clone (a snapshot's fork)
//! shares it by reference and owns only its execution counters. An engine
//! that must compile or link a block into a shared table copies the table
//! first (copy-on-write), so a snapshot and its sibling forks never see
//! another fork's compiles. [`crate::Vm::snapshot`] precompiles every
//! statically reachable block (see [`ExecBackend::precompile`]) so forks
//! rarely need to.
//!
//! Chaining preserves bit-identity because the chain loop re-applies the
//! outer loop's policy before every hop: the successor must lie inside
//! the validated fetch window (so `fetch_checks` cannot diverge — the
//! reference loop would not have revalidated either) and must fit in the
//! remaining fuel (so `OutOfFuel` falls back to single-stepping at the
//! same pc). Within a chain the window is invariant: the only ops that
//! write the PCC (`cjr`/`cjalr`) are block terminals classified
//! [`BlockExit::CapJump`], which never chain; [`BlockExit::Effect`]
//! (syscall/break) never chains either, so the `halted` flag is always
//! seen by the outer loop.

use crate::config::{BackendKind, OptLevel, VmConfig};
use crate::ir::{Block, BlockExit, FlatOp};
use crate::machine::Vm;
use crate::opt;
use crate::trap::{TrapCause, VmTrap};
use cheri_isa::{Instr, Op};
use std::fmt;
use std::sync::Arc;

/// An execution backend: compiles blocks on demand and runs the machine
/// until exit, trap, or fuel exhaustion. Exactly the contract
/// [`crate::Vm::run`] had before backends were pluggable.
pub(crate) trait ExecBackend: fmt::Debug + Send + Sync {
    /// Which backend this is (bench/driver labelling).
    fn kind(&self) -> BackendKind;
    /// Runs `vm` for at most `fuel` retired instructions, returning the
    /// exit code. [`Vm::run`] syncs the cache model and builds the
    /// [`crate::ExitStatus`].
    fn run(&mut self, vm: &mut Vm, fuel: u64) -> Result<i64, VmTrap>;
    /// Folds this backend's block execution counters (histogram × execs)
    /// into `counts`, completing the per-op retirement statistics.
    fn add_op_counts(&self, counts: &mut [u64]);
    /// Compiles every block statically reachable from `pc` and links the
    /// chain successors between them. Changes no simulated result, only
    /// what later runs find already compiled.
    fn precompile(&mut self, pc: u64, code: &[Instr]);
    /// Blocks in the compiled-block table.
    fn compiled_blocks(&self) -> usize;
    /// The address of the compiled-block table, to tell a shared table
    /// from a private copy.
    #[cfg(test)]
    fn table_addr(&self) -> usize;
    /// Clone through the trait object (keeps `Vm: Clone`).
    fn boxed_clone(&self) -> Box<dyn ExecBackend>;
}

/// Builds the backend selected by `cfg.backend`.
pub(crate) fn new_backend(cfg: &VmConfig, code_len: usize) -> Box<dyn ExecBackend> {
    match cfg.backend {
        BackendKind::Reference => Box::new(Engine::<InterpBody>::new(cfg, false, code_len)),
        BackendKind::Chained => Box::new(Engine::<InterpBody>::new(cfg, true, code_len)),
        BackendKind::Template => Box::new(Engine::<TemplateBody>::new(cfg, true, code_len)),
        BackendKind::Native => new_native(cfg, code_len),
    }
}

/// The native tier, or its fallback where the emitter cannot target the
/// host (non-x86-64, non-Linux, miri).
fn new_native(cfg: &VmConfig, code_len: usize) -> Box<dyn ExecBackend> {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    if crate::codegen::supported() {
        return Box::new(Engine::<crate::codegen::NativeBody>::new(
            cfg, true, code_len,
        ));
    }
    native_fallback(cfg, code_len)
}

/// The template tier running under the `Native` label — results are
/// bit-identical (that is the whole point of the differential matrix), so
/// every suite and driver stays green on hosts without the JIT. Logs a
/// note once per process so the substitution is never silent.
fn native_fallback(cfg: &VmConfig, code_len: usize) -> Box<dyn ExecBackend> {
    static NOTE: std::sync::Once = std::sync::Once::new();
    NOTE.call_once(|| {
        eprintln!(
            "cheri-vm: the native backend has no emitter for this host; \
             running the template tier under the `native` label"
        );
    });
    Box::new(Engine::<TemplateBody>::new(cfg, true, code_len))
}

/// What a compiled block is to a particular backend.
pub(crate) trait BlockRepr: Clone + fmt::Debug + Send + Sync + 'static {
    /// Per-engine compilation context, threaded into every `compile`.
    /// `()` for the interpreted tiers; the native tier's executable
    /// [`crate::codegen`] code buffer. Cloning a context must yield a
    /// context fit for an *independent* engine clone (the native buffer
    /// seals itself and hands the clone an empty one).
    type Cx: Default + Clone + fmt::Debug + Send + Sync;
    /// Compiles the (possibly peephole-rewritten) micro-ops of the block
    /// entered at `start`.
    fn compile(ops: &[FlatOp], start: u64, cx: &Self::Cx) -> Self;
    /// Executes the block body entered at `entry`. `Ok` is the next pc
    /// after the terminal; `Err` carries the pc of the trapping op so the
    /// engine can unwind the hoisted statistics positionally.
    fn exec(&self, vm: &mut Vm, entry: u64) -> Result<u64, (u64, TrapCause)>;
}

/// One compiled block plus everything the engine needs without touching
/// the body: accounting data (always describing the *source*
/// instructions) and the memoized chain slots.
#[derive(Clone, Debug)]
struct Compiled<R> {
    start: u64,
    /// Source instruction count (`Block::instr_len`, not `ops.len()`).
    len: u64,
    base_cycles: u64,
    raw: Box<[Op]>,
    hist: Box<[(Op, u32)]>,
    exit: BlockExit,
    /// Compiled-block id of the taken/jump successor; `u32::MAX` until
    /// first chained through.
    taken: u32,
    /// Compiled-block id of the fall-through successor.
    fall: u32,
    body: R,
}

/// The compiled-block table: blocks keyed by entry pc, with their chain
/// memos. Engines share it until one of them compiles or links a block.
#[derive(Clone, Debug)]
struct Table<R> {
    /// `index[pc]` is the compiled block entered at `pc`, or `u32::MAX`.
    index: Vec<u32>,
    blocks: Vec<Compiled<R>>,
}

/// The generic block engine: lazy compiled-block cache keyed by entry pc,
/// per-block execution counters for stat hoisting, and the dispatch loop
/// with optional block chaining.
#[derive(Clone, Debug)]
pub(crate) struct Engine<R: BlockRepr> {
    kind: BackendKind,
    chain: bool,
    opt: OptLevel,
    /// Per-engine compile context (the native tier's code buffer).
    cx: R::Cx,
    /// Shared by clones; copied on the first write after a clone.
    table: Arc<Table<R>>,
    /// Completed executions per block (partial executions account their
    /// prefix into the machine's residual counters instead). Always as
    /// long as the table's block list.
    execs: Vec<u64>,
    /// Memo of the last terminal scan: every entry pc in
    /// `[scan_start, scan_end)` has its block end exactly at `scan_end`.
    /// Lets the dispatch loop ask for block *lengths* without compiling —
    /// one O(block) scan serves a whole single-stepped walk across a long
    /// straight-line region.
    scan_start: u64,
    scan_end: u64,
}

impl<R: BlockRepr> Engine<R> {
    fn new(cfg: &VmConfig, chain: bool, code_len: usize) -> Engine<R> {
        Engine {
            kind: cfg.backend,
            chain,
            opt: cfg.opt,
            cx: R::Cx::default(),
            table: Arc::new(Table {
                index: vec![u32::MAX; code_len],
                blocks: Vec::new(),
            }),
            execs: Vec::new(),
            scan_start: 0,
            scan_end: 0,
        }
    }

    /// Source-instruction length of the block entered at `pc`, without
    /// compiling it: cached block if one exists, memoized terminal scan
    /// otherwise.
    fn block_len_at(&mut self, pc: u64, code: &[Instr]) -> u64 {
        let id = self.table.index[pc as usize];
        if id != u32::MAX {
            return self.table.blocks[id as usize].len;
        }
        if pc >= self.scan_start && pc < self.scan_end {
            return self.scan_end - pc;
        }
        let end = crate::ir::block_end(pc, code);
        self.scan_start = pc;
        self.scan_end = end as u64;
        end as u64 - pc
    }

    /// The compiled block entered at `pc`, building it on first use.
    fn get_or_compile(&mut self, pc: u64, code: &[Instr]) -> u32 {
        let id = self.table.index[pc as usize];
        if id != u32::MAX {
            return id;
        }
        self.compile(pc, code)
    }

    /// Compiles the block entered at `pc` into the table, copying the
    /// table first if another engine shares it.
    #[cold]
    fn compile(&mut self, pc: u64, code: &[Instr]) -> u32 {
        let mut block = Block::build(pc, code);
        if self.opt == OptLevel::Peephole {
            opt::peephole(&mut block);
        }
        let body = R::compile(&block.ops, block.start, &self.cx);
        let table = Arc::make_mut(&mut self.table);
        let id = table.blocks.len() as u32;
        table.blocks.push(Compiled {
            start: block.start,
            len: block.instr_len(),
            base_cycles: block.base_cycles,
            body,
            raw: block.raw,
            hist: block.hist,
            exit: block.exit,
            taken: u32::MAX,
            fall: u32::MAX,
        });
        table.index[pc as usize] = id;
        self.execs.push(0);
        id
    }

    /// The block entered at `next`, memoized as block `id`'s taken or
    /// fall-through successor.
    fn link(&mut self, id: u32, take_edge: bool, next: u64, code: &[Instr]) -> u32 {
        let nid = self.get_or_compile(next, code);
        let c = &mut Arc::make_mut(&mut self.table).blocks[id as usize];
        if take_edge {
            c.taken = nid;
        } else {
            c.fall = nid;
        }
        nid
    }

    /// The dispatch loop. Mirrors the pre-backend `Vm::run`/`run_block`
    /// pair decision for decision; the chain loop inside only hops when
    /// the outer loop would have dispatched the successor block whole.
    fn run_loop(&mut self, vm: &mut Vm, fuel: u64) -> Result<i64, VmTrap> {
        let mut remaining = fuel;
        loop {
            if let Some(code) = vm.halted {
                return Ok(code);
            }
            if remaining == 0 {
                break;
            }
            let pc = vm.pc;
            // Block entry performs exactly the window validation the
            // per-instruction fetch would: a full PCC check only when the
            // pc left the cached window (after a PCC write or a jump out).
            if pc < vm.run_start || pc >= vm.run_end {
                vm.fetch_slow(pc)?;
            }
            let len = self.block_len_at(pc, &vm.code);
            if len > remaining || pc + len > vm.run_end {
                // Not enough fuel to retire the whole block, or the
                // (narrowed) PCC window cuts it short: single-step, which
                // re-checks the window per instruction and traps exactly
                // where the interpreter would.
                vm.step_unsynced()?;
                remaining -= 1;
                continue;
            }
            let mut id = self.get_or_compile(pc, &vm.code);
            let mut entry = pc;
            // The chain loop: execute the block, then — for direct
            // branch/jump terminals — hop straight to the compiled
            // successor while it stays inside the window and the fuel. It
            // borrows the table once; a successor not yet memoized leaves
            // the borrow to be compiled and linked, then the chain goes on.
            'chain: loop {
                let table = &*self.table;
                let (take_edge, next) = loop {
                    let c = &table.blocks[id as usize];
                    debug_assert_eq!(c.start, entry);
                    // Base cycles are hoisted to one add, *before* the
                    // block body, so a terminal `clock()` syscall reads the
                    // same cycle count the per-instruction loop (which
                    // charges before executing) shows. Fetch is charged
                    // once per block entry (outer dispatch and chain hops
                    // alike), amortized exactly like the hoisted base
                    // cycles; a no-op unless fetch charging is configured.
                    vm.charge_fetch(entry, c.len);
                    vm.cycles += c.base_cycles;
                    let next = match c.body.exec(vm, entry) {
                        Ok(next) => next,
                        Err((trap_pc, cause)) => {
                            let executed = (trap_pc - entry) as usize + 1;
                            vm.unwind_partial(&c.raw, executed, c.base_cycles);
                            // Like `step`, leave the pc at the trapping
                            // instruction.
                            vm.pc = trap_pc;
                            return Err(VmTrap { pc: trap_pc, cause });
                        }
                    };
                    self.execs[id as usize] += 1;
                    vm.instret += c.len;
                    vm.regs[0] = 0;
                    vm.pc = next;
                    remaining -= c.len;
                    if !self.chain {
                        break 'chain;
                    }
                    // Only static-successor exits chain; everything else
                    // (indirect, capability jump, syscall/break, fall-off)
                    // returns to the outer loop, which re-checks `halted`
                    // and the fetch window.
                    let take_edge = match c.exit {
                        BlockExit::Branch { taken, .. } => next == taken,
                        BlockExit::Jump { .. } => true,
                        _ => break 'chain,
                    };
                    // The successor must be inside the validated window
                    // (the window is invariant during a chain — nothing
                    // chained writes the PCC) and must fit in the remaining
                    // fuel, exactly the outer loop's dispatch conditions.
                    if next < vm.run_start || next >= vm.run_end {
                        break 'chain;
                    }
                    let memo = if take_edge { c.taken } else { c.fall };
                    if memo == u32::MAX {
                        break (take_edge, next);
                    }
                    let nlen = table.blocks[memo as usize].len;
                    if nlen > remaining || next + nlen > vm.run_end {
                        break 'chain;
                    }
                    id = memo;
                    entry = next;
                };
                let nid = self.link(id, take_edge, next, &vm.code);
                let nlen = self.table.blocks[nid as usize].len;
                if nlen > remaining || next + nlen > vm.run_end {
                    break;
                }
                id = nid;
                entry = next;
            }
        }
        Err(VmTrap {
            pc: vm.pc,
            cause: TrapCause::OutOfFuel,
        })
    }
}

impl<R: BlockRepr> ExecBackend for Engine<R> {
    fn kind(&self) -> BackendKind {
        self.kind
    }

    fn run(&mut self, vm: &mut Vm, fuel: u64) -> Result<i64, VmTrap> {
        self.run_loop(vm, fuel)
    }

    fn add_op_counts(&self, counts: &mut [u64]) {
        for (block, &n) in self.table.blocks.iter().zip(&self.execs) {
            if n == 0 {
                continue;
            }
            for &(op, c) in block.hist.iter() {
                counts[op as usize] += u64::from(c) * n;
            }
        }
    }

    fn precompile(&mut self, pc: u64, code: &[Instr]) {
        // Leaders: `pc` and the static successors of every compiled block,
        // its direct branch or jump target and the instruction after it
        // (calls return there). Blocks compiled before the snapshot count
        // too: calls they made may still be on the stack. Compiling one
        // block never changes another's extent — a block is always the run
        // from its entry to the first block-ender.
        let mut work = vec![pc];
        let mut scanned = 0;
        loop {
            for c in &self.table.blocks[scanned..] {
                work.push(c.start + c.len);
                match c.exit {
                    BlockExit::Branch { taken, .. } => work.push(taken),
                    BlockExit::Jump { target } => work.push(target),
                    _ => {}
                }
            }
            scanned = self.table.blocks.len();
            let Some(pc) = work.pop() else { break };
            if (pc as usize) < code.len() && self.table.index[pc as usize] == u32::MAX {
                self.compile(pc, code);
            }
        }
        // Link every static edge (relinking one is idempotent).
        for id in 0..self.table.blocks.len() as u32 {
            let (taken, fall) = match self.table.blocks[id as usize].exit {
                BlockExit::Branch { taken, fall } => (taken, Some(fall)),
                BlockExit::Jump { target } => (target, None),
                _ => continue,
            };
            for (take_edge, next) in [(true, Some(taken)), (false, fall)] {
                if let Some(next) = next.filter(|&n| (n as usize) < code.len()) {
                    self.link(id, take_edge, next, code);
                }
            }
        }
    }

    fn compiled_blocks(&self) -> usize {
        self.table.blocks.len()
    }

    #[cfg(test)]
    fn table_addr(&self) -> usize {
        Arc::as_ptr(&self.table) as usize
    }

    fn boxed_clone(&self) -> Box<dyn ExecBackend> {
        Box::new(self.clone())
    }
}

/// The reference block body: the flattened micro-ops, executed through
/// the interpreter's `exec_flat` match.
#[derive(Clone, Debug)]
pub(crate) struct InterpBody(Box<[FlatOp]>);

impl BlockRepr for InterpBody {
    type Cx = ();

    fn compile(ops: &[FlatOp], _start: u64, _cx: &()) -> InterpBody {
        InterpBody(ops.into())
    }

    fn exec(&self, vm: &mut Vm, entry: u64) -> Result<u64, (u64, TrapCause)> {
        let mut cur = entry;
        for op in self.0.iter() {
            match vm.exec_flat(op, cur) {
                Ok(next) => cur = next,
                Err(cause) => return Err((cur, cause)),
            }
        }
        Ok(cur)
    }
}

/// One op's handler: pre-bound at compile time, reading pre-extracted
/// operands from the [`TOp`] instead of destructuring a [`FlatOp`].
/// Returns the next pc, or `None` with the cause written to the last
/// argument: an `Option<u64>` comes back in registers, where a
/// `Result<u64, TrapCause>` would make a round trip through memory on
/// every op.
type Handler = fn(&mut Vm, &TOp, u64, &mut Option<TrapCause>) -> Option<u64>;

/// A templated op: handler pointer plus its operands, unpacked once at
/// block compile time. `a`/`b`/`c` are the destination and source
/// register indices (or the width, for memory ops); the long tail keeps
/// the original [`FlatOp`] and goes through the interpreter arm.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TOp {
    run: Handler,
    a: u8,
    b: u8,
    c: u8,
    imm: i64,
    target: u64,
    flat: FlatOp,
}

/// The template block body: a pre-bound monomorphized handler chain.
#[derive(Clone, Debug)]
pub(crate) struct TemplateBody(Box<[TOp]>);

impl BlockRepr for TemplateBody {
    type Cx = ();

    fn compile(ops: &[FlatOp], _start: u64, _cx: &()) -> TemplateBody {
        TemplateBody(ops.iter().map(bind).collect())
    }

    fn exec(&self, vm: &mut Vm, entry: u64) -> Result<u64, (u64, TrapCause)> {
        let mut cur = entry;
        let mut trap = None;
        for t in self.0.iter() {
            match (t.run)(vm, t, cur, &mut trap) {
                Some(next) => cur = next,
                None => return Err((cur, trap.expect("a failing handler names its cause"))),
            }
        }
        Ok(cur)
    }
}

/// A handler's verdict from a `Result`: the next pc, or `None` with the
/// cause parked in `trap`.
#[inline(always)]
fn settle(r: Result<u64, TrapCause>, trap: &mut Option<TrapCause>) -> Option<u64> {
    match r {
        Ok(next) => Some(next),
        Err(cause) => {
            *trap = Some(cause);
            None
        }
    }
}

macro_rules! alu2 {
    ($name:ident, |$x:ident, $y:ident| $v:expr) => {
        fn $name(vm: &mut Vm, t: &TOp, pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
            let $x = vm.reg(t.b);
            let $y = vm.reg(t.c);
            vm.set_reg(t.a, $v);
            Some(pc + 1)
        }
    };
}

macro_rules! alu_imm {
    ($name:ident, |$x:ident, $i:ident| $v:expr) => {
        fn $name(vm: &mut Vm, t: &TOp, pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
            let $x = vm.reg(t.b);
            let $i = t.imm;
            vm.set_reg(t.a, $v);
            Some(pc + 1)
        }
    };
}

macro_rules! cond_branch {
    ($name:ident, |$x:ident, $y:ident| $taken:expr) => {
        fn $name(vm: &mut Vm, t: &TOp, pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
            let $x = vm.reg(t.b);
            let $y = vm.reg(t.c);
            Some(if $taken { t.target } else { pc + 1 })
        }
    };
}

alu2!(h_addu, |a, b| a.wrapping_add(b));
alu2!(h_subu, |a, b| a.wrapping_sub(b));
alu2!(h_and, |a, b| a & b);
alu2!(h_or, |a, b| a | b);
alu2!(h_xor, |a, b| a ^ b);
alu2!(h_nor, |a, b| !(a | b));
alu2!(h_slt, |a, b| u64::from((a as i64) < (b as i64)));
alu2!(h_sltu, |a, b| u64::from(a < b));
alu2!(h_sllv, |a, b| a << (b & 63));
alu2!(h_srlv, |a, b| a >> (b & 63));
alu2!(h_srav, |a, b| ((a as i64) >> (b & 63)) as u64);
alu2!(h_mul, |a, b| a.wrapping_mul(b));
alu_imm!(h_addiu, |a, i| a.wrapping_add(i as u64));
alu_imm!(h_andi, |a, i| a & (i as u64));
alu_imm!(h_ori, |a, i| a | (i as u64));
alu_imm!(h_xori, |a, i| a ^ (i as u64));
alu_imm!(h_slti, |a, i| u64::from((a as i64) < i));
alu_imm!(h_sltiu, |a, i| u64::from(a < i as u64));
alu_imm!(h_sll, |a, i| a << (i as u32));
alu_imm!(h_srl, |a, i| a >> (i as u32));
alu_imm!(h_sra, |a, i| ((a as i64) >> (i as u32)) as u64);
cond_branch!(h_beq, |a, b| a == b);
cond_branch!(h_bne, |a, b| a != b);
cond_branch!(h_blez, |a, _b| a as i64 <= 0);
cond_branch!(h_bgtz, |a, _b| a as i64 > 0);
cond_branch!(h_bltz, |a, _b| (a as i64) < 0);
cond_branch!(h_bgez, |a, _b| a as i64 >= 0);

fn h_nop(_vm: &mut Vm, _t: &TOp, pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
    Some(pc + 1)
}

fn h_li(vm: &mut Vm, t: &TOp, pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
    vm.set_reg(t.a, t.imm as u64);
    Some(pc + 1)
}

/// Trapping signed arithmetic (§3.1.1): writes `v`, or traps on the
/// overflow `None` stands for.
#[inline(always)]
fn overflow_checked(
    vm: &mut Vm,
    t: &TOp,
    pc: u64,
    v: Option<i64>,
    trap: &mut Option<TrapCause>,
) -> Option<u64> {
    let r = v.ok_or(TrapCause::IntegerOverflow).map(|v| {
        vm.set_reg(t.a, v as u64);
        pc + 1
    });
    settle(r, trap)
}

fn h_add(vm: &mut Vm, t: &TOp, pc: u64, trap: &mut Option<TrapCause>) -> Option<u64> {
    let v = (vm.reg(t.b) as i64).checked_add(vm.reg(t.c) as i64);
    overflow_checked(vm, t, pc, v, trap)
}

fn h_sub(vm: &mut Vm, t: &TOp, pc: u64, trap: &mut Option<TrapCause>) -> Option<u64> {
    let v = (vm.reg(t.b) as i64).checked_sub(vm.reg(t.c) as i64);
    overflow_checked(vm, t, pc, v, trap)
}

fn h_addi(vm: &mut Vm, t: &TOp, pc: u64, trap: &mut Option<TrapCause>) -> Option<u64> {
    let v = (vm.reg(t.b) as i64).checked_add(t.imm);
    overflow_checked(vm, t, pc, v, trap)
}

fn h_j(_vm: &mut Vm, t: &TOp, _pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
    Some(t.target)
}

fn h_jal(vm: &mut Vm, t: &TOp, pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
    vm.set_reg(cheri_isa::RA, pc + 1);
    Some(t.target)
}

fn h_jr(vm: &mut Vm, t: &TOp, _pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
    Some(vm.reg(t.b))
}

fn h_jalr(vm: &mut Vm, t: &TOp, pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
    // Read the target before writing the link: `jalr r, r` must jump to
    // the register's old value.
    let target = vm.reg(t.b);
    vm.set_reg(t.a, pc + 1);
    Some(target)
}

fn h_load<const SIGNED: bool, const CAP: bool>(
    vm: &mut Vm,
    t: &TOp,
    pc: u64,
    trap: &mut Option<TrapCause>,
) -> Option<u64> {
    let r = vm.exec_load(t.a, t.b, t.imm as i32, t.c, SIGNED, CAP);
    settle(r.map(|()| pc + 1), trap)
}

fn h_store<const CAP: bool>(
    vm: &mut Vm,
    t: &TOp,
    pc: u64,
    trap: &mut Option<TrapCause>,
) -> Option<u64> {
    let r = vm.exec_store(t.a, t.b, t.imm as i32, t.c, CAP);
    settle(r.map(|()| pc + 1), trap)
}

fn h_clc(vm: &mut Vm, t: &TOp, pc: u64, trap: &mut Option<TrapCause>) -> Option<u64> {
    let r = vm.exec_clc(t.a, t.b, t.imm as i32);
    settle(r.map(|()| pc + 1), trap)
}

fn h_csc(vm: &mut Vm, t: &TOp, pc: u64, trap: &mut Option<TrapCause>) -> Option<u64> {
    let r = vm.exec_csc(t.a, t.b, t.imm as i32);
    settle(r.map(|()| pc + 1), trap)
}

fn h_fused<const SIGNED: bool, const IMM: bool, const IF: bool>(
    vm: &mut Vm,
    t: &TOp,
    pc: u64,
    _: &mut Option<TrapCause>,
) -> Option<u64> {
    let a = vm.reg(t.b);
    let v = if IMM {
        if SIGNED {
            u64::from((a as i64) < t.imm)
        } else {
            u64::from(a < t.imm as u64)
        }
    } else {
        let b = vm.reg(t.c);
        if SIGNED {
            u64::from((a as i64) < (b as i64))
        } else {
            u64::from(a < b)
        }
    };
    vm.set_reg(t.a, v);
    Some(if (v != 0) == IF { t.target } else { pc + 2 })
}

/// The long tail — the remaining capability ops and `Other` — goes
/// through the interpreter's own arm, which keeps every capability/trap
/// decision in exactly one place.
fn h_flat(vm: &mut Vm, t: &TOp, pc: u64, trap: &mut Option<TrapCause>) -> Option<u64> {
    settle(vm.exec_flat(&t.flat, pc), trap)
}

/// Pre-binds one micro-op to its handler, extracting operands once.
fn bind(op: &FlatOp) -> TOp {
    let mut t = TOp {
        run: h_flat,
        a: 0,
        b: 0,
        c: 0,
        imm: 0,
        target: 0,
        flat: *op,
    };
    macro_rules! set {
        ($run:expr, $a:expr, $b:expr, $c:expr, $imm:expr, $target:expr) => {{
            t.run = $run;
            t.a = $a;
            t.b = $b;
            t.c = $c;
            t.imm = $imm;
            t.target = $target;
        }};
    }
    match *op {
        FlatOp::Nop => set!(h_nop, 0, 0, 0, 0, 0),
        FlatOp::Add { rd, rs, rt } => set!(h_add, rd, rs, rt, 0, 0),
        FlatOp::Sub { rd, rs, rt } => set!(h_sub, rd, rs, rt, 0, 0),
        FlatOp::Addi { rd, rs, imm } => set!(h_addi, rd, rs, 0, imm, 0),
        FlatOp::Addu { rd, rs, rt } => set!(h_addu, rd, rs, rt, 0, 0),
        FlatOp::Subu { rd, rs, rt } => set!(h_subu, rd, rs, rt, 0, 0),
        FlatOp::And { rd, rs, rt } => set!(h_and, rd, rs, rt, 0, 0),
        FlatOp::Or { rd, rs, rt } => set!(h_or, rd, rs, rt, 0, 0),
        FlatOp::Xor { rd, rs, rt } => set!(h_xor, rd, rs, rt, 0, 0),
        FlatOp::Nor { rd, rs, rt } => set!(h_nor, rd, rs, rt, 0, 0),
        FlatOp::Slt { rd, rs, rt } => set!(h_slt, rd, rs, rt, 0, 0),
        FlatOp::Sltu { rd, rs, rt } => set!(h_sltu, rd, rs, rt, 0, 0),
        FlatOp::Sllv { rd, rs, rt } => set!(h_sllv, rd, rs, rt, 0, 0),
        FlatOp::Srlv { rd, rs, rt } => set!(h_srlv, rd, rs, rt, 0, 0),
        FlatOp::Srav { rd, rs, rt } => set!(h_srav, rd, rs, rt, 0, 0),
        FlatOp::Mul { rd, rs, rt } => set!(h_mul, rd, rs, rt, 0, 0),
        // Div/Divu/Rem/Remu stay on the interpreter arm: they are rare in
        // compiled code and their two-cause trap logic is not worth a
        // second copy.
        FlatOp::Addiu { rd, rs, imm } => set!(h_addiu, rd, rs, 0, imm as i64, 0),
        FlatOp::Andi { rd, rs, imm } => set!(h_andi, rd, rs, 0, imm as i64, 0),
        FlatOp::Ori { rd, rs, imm } => set!(h_ori, rd, rs, 0, imm as i64, 0),
        FlatOp::Xori { rd, rs, imm } => set!(h_xori, rd, rs, 0, imm as i64, 0),
        FlatOp::Slti { rd, rs, imm } => set!(h_slti, rd, rs, 0, imm, 0),
        FlatOp::Sltiu { rd, rs, imm } => set!(h_sltiu, rd, rs, 0, imm as i64, 0),
        FlatOp::Li { rd, v } => set!(h_li, rd, 0, 0, v as i64, 0),
        FlatOp::Sll { rd, rs, sh } => set!(h_sll, rd, rs, 0, i64::from(sh), 0),
        FlatOp::Srl { rd, rs, sh } => set!(h_srl, rd, rs, 0, i64::from(sh), 0),
        FlatOp::Sra { rd, rs, sh } => set!(h_sra, rd, rs, 0, i64::from(sh), 0),
        FlatOp::Beq { rs, rt, target } => set!(h_beq, 0, rs, rt, 0, target),
        FlatOp::Bne { rs, rt, target } => set!(h_bne, 0, rs, rt, 0, target),
        FlatOp::Blez { rs, target } => set!(h_blez, 0, rs, 0, 0, target),
        FlatOp::Bgtz { rs, target } => set!(h_bgtz, 0, rs, 0, 0, target),
        FlatOp::Bltz { rs, target } => set!(h_bltz, 0, rs, 0, 0, target),
        FlatOp::Bgez { rs, target } => set!(h_bgez, 0, rs, 0, 0, target),
        FlatOp::J { target } => set!(h_j, 0, 0, 0, 0, target),
        FlatOp::Jal { target } => set!(h_jal, 0, 0, 0, 0, target),
        FlatOp::Jr { rs } => set!(h_jr, 0, rs, 0, 0, 0),
        FlatOp::Jalr { rd, rs } => set!(h_jalr, rd, rs, 0, 0, 0),
        FlatOp::FusedCmpBranch {
            rd,
            rs,
            rt,
            imm,
            signed,
            imm_form,
            branch_if,
            target,
        } => {
            let run = match (signed, imm_form, branch_if) {
                (true, true, true) => h_fused::<true, true, true>,
                (true, true, false) => h_fused::<true, true, false>,
                (true, false, true) => h_fused::<true, false, true>,
                (true, false, false) => h_fused::<true, false, false>,
                (false, true, true) => h_fused::<false, true, true>,
                (false, true, false) => h_fused::<false, true, false>,
                (false, false, true) => h_fused::<false, false, true>,
                (false, false, false) => h_fused::<false, false, false>,
            };
            set!(run, rd, rs, rt, imm, target);
        }
        FlatOp::Load {
            rd,
            base,
            off,
            width,
            signed,
            via_cap,
        } => {
            let run = match (signed, via_cap) {
                (true, true) => h_load::<true, true>,
                (true, false) => h_load::<true, false>,
                (false, true) => h_load::<false, true>,
                (false, false) => h_load::<false, false>,
            };
            set!(run, rd, base, width, i64::from(off), 0);
        }
        FlatOp::Store {
            rv,
            base,
            off,
            width,
            via_cap,
        } => {
            let run = if via_cap {
                h_store::<true>
            } else {
                h_store::<false>
            };
            set!(run, rv, base, width, i64::from(off), 0);
        }
        FlatOp::Clc { cd, cb, off } => set!(h_clc, cd, cb, 0, i64::from(off), 0),
        FlatOp::Csc { cs, cb, off } => set!(h_csc, cs, cb, 0, i64::from(off), 0),
        // The other capability ops and the `Other` long tail keep `h_flat`.
        _ => {}
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_isa::{Instr, Op};

    fn engine(code_len: usize) -> Engine<InterpBody> {
        Engine::new(&VmConfig::functional(), false, code_len)
    }

    #[test]
    fn block_len_at_agrees_with_built_blocks_and_builds_nothing() {
        // A long straight-line region: asking for lengths at every pc must
        // not compile (or cache) any block, and each answer must match
        // what Block::build would produce. Sequential queries ride one
        // memoized scan.
        let mut code = vec![Instr::i2(Op::Addiu, 8, 8, 1); 64];
        code.push(Instr::syscall(0)); // 64: terminal
        code.push(Instr::li(4, 0)); // 65
        code.push(Instr::new(Op::J, 0, 0, 0, 0)); // 66: terminal
        let mut e = engine(code.len());
        for pc in 0..code.len() as u64 {
            let len = e.block_len_at(pc, &code);
            let expect = Block::build(pc, &code).instr_len();
            assert_eq!(len, expect, "length at pc {pc}");
        }
        assert_eq!(e.table.blocks.len(), 0, "length queries must not compile");
        // Once a block is compiled, its cached length is served from it.
        let id = e.get_or_compile(3, &code);
        assert_eq!(e.block_len_at(3, &code), e.table.blocks[id as usize].len);
    }

    #[test]
    fn compile_is_cached_and_lengths_count_source_instructions() {
        // A fused terminal shortens `ops` but never the instruction count.
        let code = vec![
            Instr::r3(Op::Slt, 11, 10, 9),
            Instr::new(Op::Beq, 0, 11, 0, 0),
        ];
        let mut e: Engine<InterpBody> = Engine::new(
            &VmConfig::functional().with_opt_level(OptLevel::Peephole),
            false,
            code.len(),
        );
        let id = e.get_or_compile(0, &code);
        assert_eq!(e.table.blocks[id as usize].len, 2);
        assert_eq!(
            e.table.blocks[id as usize].body.0.len(),
            1,
            "fused to one op"
        );
        assert_eq!(e.get_or_compile(0, &code), id, "compile is cached");
    }

    #[test]
    fn add_op_counts_weights_histograms_by_execs() {
        let code = vec![
            Instr::li(8, 0),
            Instr::li(9, 1),
            Instr::r3(Op::Addu, 8, 8, 9),
            Instr::new(Op::Beq, 0, 8, 0, 2),
        ];
        let mut e = engine(code.len());
        let id = e.get_or_compile(0, &code);
        e.execs[id as usize] = 2;
        let mut counts = vec![0u64; 256];
        e.add_op_counts(&mut counts);
        assert_eq!(counts[Op::Li as usize], 4);
        assert_eq!(counts[Op::Beq as usize], 2);
    }

    #[test]
    fn backend_kinds_round_trip_through_the_factory() {
        for kind in BackendKind::ALL {
            let cfg = VmConfig::functional().with_backend(kind);
            assert_eq!(new_backend(&cfg, 4).kind(), kind);
        }
    }

    #[test]
    fn native_fallback_reports_the_native_label_and_runs() {
        // The explicit fallback engine — what `Native` builds on hosts
        // without the emitter (and the path the non-x86_64 cfg of
        // `new_native` always takes). It must report the configured kind,
        // not its template substrate, and execute correctly.
        let cfg = VmConfig::functional().with_backend(BackendKind::Native);
        let mut backend = native_fallback(&cfg, 4);
        assert_eq!(backend.kind(), BackendKind::Native);
        let mut vm = crate::machine::Vm::new(
            {
                let mut p = cheri_isa::Program::new();
                p.code = vec![
                    Instr::li(4, 41),
                    Instr::i2(Op::Addiu, 4, 4, 1),
                    Instr::syscall(0),
                ];
                p
            },
            cfg,
        );
        let code = backend.run(&mut vm, 1_000).expect("fallback runs");
        assert_eq!(code, 42);
    }

    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(miri))))]
    #[test]
    fn native_backend_falls_back_where_unsupported() {
        assert!(!crate::codegen::supported());
        let cfg = VmConfig::functional().with_backend(BackendKind::Native);
        // The factory silently substitutes the template tier but keeps
        // the `Native` label for drivers and stats.
        assert_eq!(new_backend(&cfg, 4).kind(), BackendKind::Native);
    }
}
