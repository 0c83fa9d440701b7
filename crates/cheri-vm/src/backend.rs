//! The block engine over the block IR.
//!
//! The engine owns the compiled-block cache and the dispatch loop; the
//! [`crate::Vm`] owns the architectural state (registers, memory, PCC,
//! statistics) and hands itself to the engine for the duration of
//! [`crate::Vm::run`]. A compiled block's body is a slice of [`TOp`]s: each
//! micro-op bound, at compile time, to a handler function plus its
//! pre-extracted operands. [`BackendKind`] chooses only how ops are bound
//! (see [`bind`]) and whether blocks chain:
//!
//! * [`BackendKind::Reference`] — every op bound to [`h_flat`], which runs
//!   it through [`Vm::exec_flat`]; no chaining, one block per dispatch.
//!   The semantics the template tier is differenced against.
//! * [`BackendKind::Template`] — each op bound to a monomorphized handler,
//!   so the per-op dispatch is an indirect call on pre-extracted operands
//!   instead of a match over [`FlatOp`]; a block whose terminal is a
//!   direct branch or jump transfers straight to the already-compiled
//!   successor (a memoized slot on the block) without re-entering the
//!   outer dispatch loop.
//!
//! The compiled-block table is immutable once a machine is snapshotted,
//! so an engine holds it behind an [`Arc`]: a clone (a snapshot's fork)
//! shares it by reference and owns only its execution counters. An engine
//! that must compile or link a block into a shared table copies the table
//! first (copy-on-write), so a snapshot and its sibling forks never see
//! another fork's compiles. [`crate::Vm::snapshot`] precompiles every
//! statically reachable block (see [`Engine::precompile`]) so forks
//! rarely need to.
//!
//! Chaining preserves bit-identity because the chain loop re-applies the
//! outer loop's policy before every hop: the successor must lie inside
//! the validated fetch window (so `fetch_checks` cannot diverge — the
//! reference loop would not have revalidated either) and must fit in the
//! remaining fuel (so `OutOfFuel` falls back to single-stepping at the
//! same pc). Within a chain the window is invariant and the machine never
//! halts: every op that writes the PCC (`cjr`/`cjalr`) or may halt
//! (`syscall`/`break`) ends its block ([`cheri_isa::Op::ends_block`]), and
//! such a block's exit is [`BlockExit::Dispatch`], which never chains. Only
//! [`BlockExit::Branch`] and [`BlockExit::Jump`] exits chain, and their
//! terminals write neither.

use crate::alu::{Alu, Cond};
use crate::config::{BackendKind, OptLevel, VmConfig};
use crate::ir::{Block, BlockExit, FlatOp};
use crate::machine::Vm;
use crate::opt;
use crate::trap::{TrapCause, VmTrap};
use cheri_isa::{Instr, Op};
use std::sync::Arc;

/// One compiled block plus everything the engine needs without touching
/// the body: accounting data (always describing the *source*
/// instructions) and the memoized chain slots.
#[derive(Clone, Debug)]
struct Compiled {
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
    body: Box<[TOp]>,
}

/// The compiled-block table: blocks keyed by entry pc, with their chain
/// memos. Engines share it until one of them compiles or links a block.
#[derive(Clone, Debug)]
struct Table {
    /// `index[pc]` is the compiled block entered at `pc`, or `u32::MAX`.
    index: Vec<u32>,
    blocks: Vec<Compiled>,
}

/// The block engine: lazy compiled-block cache keyed by entry pc,
/// per-block execution counters for stat hoisting, and the dispatch loop
/// with optional block chaining.
#[derive(Clone, Debug)]
pub(crate) struct Engine {
    /// How ops are bound; the template tier also chains.
    kind: BackendKind,
    opt: OptLevel,
    /// Shared by clones; copied on the first write after a clone.
    table: Arc<Table>,
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

impl Engine {
    /// An engine with an empty table for a `code_len`-instruction image,
    /// binding ops as `cfg.backend` says.
    pub(crate) fn new(cfg: &VmConfig, code_len: usize) -> Engine {
        Engine {
            kind: cfg.backend,
            opt: cfg.opt,
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
        let body = block.ops.iter().map(|op| bind(self.kind, op)).collect();
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

    /// Runs `vm` for at most `fuel` retired instructions, returning the
    /// exit code; [`Vm::run`] syncs the cache model and builds the
    /// [`crate::ExitStatus`]. The chain loop inside only hops when the
    /// outer loop would have dispatched the successor block whole.
    pub(crate) fn run(&mut self, vm: &mut Vm, fuel: u64) -> Result<i64, VmTrap> {
        let chain = self.kind == BackendKind::Template;
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
                    let next = match exec(&c.body, vm, entry) {
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
                    if !chain {
                        break 'chain;
                    }
                    // Only static-successor exits chain; a `Dispatch` exit
                    // returns to the outer loop, which re-checks `halted`
                    // and the fetch window.
                    let take_edge = match c.exit {
                        BlockExit::Branch { taken, .. } => next == taken,
                        BlockExit::Jump { .. } => true,
                        BlockExit::Dispatch => break 'chain,
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

    /// Folds the block execution counters (histogram × execs) into
    /// `counts`, completing the per-op retirement statistics.
    pub(crate) fn add_op_counts(&self, counts: &mut [u64]) {
        for (block, &n) in self.table.blocks.iter().zip(&self.execs) {
            if n == 0 {
                continue;
            }
            for &(op, c) in block.hist.iter() {
                counts[op as usize] += u64::from(c) * n;
            }
        }
    }

    /// Compiles every block statically reachable from `pc` and links the
    /// chain successors between them. Changes no simulated result, only
    /// what later runs find already compiled.
    pub(crate) fn precompile(&mut self, pc: u64, code: &[Instr]) {
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
                    BlockExit::Dispatch => {}
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
                BlockExit::Dispatch => continue,
            };
            for (take_edge, next) in [(true, Some(taken)), (false, fall)] {
                if let Some(next) = next.filter(|&n| (n as usize) < code.len()) {
                    self.link(id, take_edge, next, code);
                }
            }
        }
    }

    /// Blocks in the compiled-block table.
    pub(crate) fn compiled_blocks(&self) -> usize {
        self.table.blocks.len()
    }

    /// The address of the compiled-block table, to tell a shared table
    /// from a private copy.
    #[cfg(test)]
    pub(crate) fn table_addr(&self) -> usize {
        Arc::as_ptr(&self.table) as usize
    }
}

/// Executes the block body `body` entered at `entry`. `Ok` is the next pc
/// after the terminal; `Err` carries the pc of the trapping op so the
/// engine can unwind the hoisted statistics positionally.
pub(crate) fn exec(body: &[TOp], vm: &mut Vm, entry: u64) -> Result<u64, (u64, TrapCause)> {
    let mut cur = entry;
    let mut trap = None;
    for t in body {
        match (t.run)(vm, t, cur, &mut trap) {
            Some(next) => cur = next,
            None => return Err((cur, trap.expect("a failing handler names its cause"))),
        }
    }
    Ok(cur)
}

/// One op's handler: pre-bound at compile time, reading pre-extracted
/// operands from the [`TOp`] instead of destructuring a [`FlatOp`].
/// Returns the next pc, or `None` with the cause written to the last
/// argument: an `Option<u64>` comes back in registers, where a
/// `Result<u64, TrapCause>` would make a round trip through memory on
/// every op.
type Handler = fn(&mut Vm, &TOp, u64, &mut Option<TrapCause>) -> Option<u64>;

/// A bound op: handler pointer plus its operands, unpacked once at block
/// compile time. `a`/`b`/`c` are the destination and source register
/// indices; `flat` is the original [`FlatOp`], which [`h_flat`] runs
/// through `exec_flat`.
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

/// A handler's verdict from a `Result`: the value (usually the next pc),
/// or `None` with the cause parked in `trap`.
#[inline(always)]
fn settle<T>(r: Result<T, TrapCause>, trap: &mut Option<TrapCause>) -> Option<T> {
    match r {
        Ok(v) => Some(v),
        Err(cause) => {
            *trap = Some(cause);
            None
        }
    }
}

/// `Alu::ALL[F]` of `rs` and `rt` (or of the immediate, when `IMM`).
/// Inlined into handlers whose `F` is a constant, so each keeps only its
/// own arm of [`Alu::eval`], and the trap path only when that arm has one.
#[inline(always)]
fn alu<const F: u8, const IMM: bool>(
    vm: &Vm,
    t: &TOp,
    trap: &mut Option<TrapCause>,
) -> Option<u64> {
    let a = vm.reg(t.b);
    let b = if IMM { t.imm as u64 } else { vm.reg(t.c) };
    settle(Alu::ALL[F as usize].eval(a, b), trap)
}

fn h_alu<const F: u8, const IMM: bool>(
    vm: &mut Vm,
    t: &TOp,
    pc: u64,
    trap: &mut Option<TrapCause>,
) -> Option<u64> {
    let v = alu::<F, IMM>(vm, t, trap)?;
    vm.set_reg(t.a, v);
    Some(pc + 1)
}

fn h_branch<const C: u8>(vm: &mut Vm, t: &TOp, pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
    let taken = Cond::ALL[C as usize].holds(vm.reg(t.b), vm.reg(t.c));
    Some(if taken { t.target } else { pc + 1 })
}

/// The compare `Alu::ALL[F]` writes `rd`, then the branch tests it; the
/// fall-through is past both source instructions.
fn h_fused<const F: u8, const IMM: bool, const IF: bool>(
    vm: &mut Vm,
    t: &TOp,
    pc: u64,
    trap: &mut Option<TrapCause>,
) -> Option<u64> {
    let v = alu::<F, IMM>(vm, t, trap)?;
    vm.set_reg(t.a, v);
    Some(if (v != 0) == IF { t.target } else { pc + 2 })
}

/// `[h::<0, P..>, h::<1, P..>, …]`: one monomorphic instance of handler
/// `h` per listed selector index.
macro_rules! handlers {
    ($h:ident<_>: $($i:literal)*) => {
        [$($h::<$i> as Handler),*]
    };
    ($h:ident<_, $p:ident>: $($i:literal)*) => {
        [$($h::<$i, $p> as Handler),*]
    };
    ($h:ident<_, $p:ident, $q:ident>: $($i:literal)*) => {
        [$($h::<$i, $p, $q> as Handler),*]
    };
}

/// One [`h_alu`] per [`Alu`] selector, indexed by `f as usize`.
const fn alu_handlers<const IMM: bool>() -> [Handler; Alu::ALL.len()] {
    handlers!(h_alu<_, IMM>: 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17)
}

const ALU_REG: [Handler; Alu::ALL.len()] = alu_handlers::<false>();
const ALU_IMM: [Handler; Alu::ALL.len()] = alu_handlers::<true>();
/// One [`h_branch`] per [`Cond`], indexed by `c as usize`.
const BRANCH: [Handler; Cond::ALL.len()] = handlers!(h_branch<_>: 0 1 2 3 4 5);

/// The four [`h_fused`] forms of compare `F`, indexed by
/// `2 * imm_form + branch_if`.
const fn fused_handlers<const F: u8>() -> [Handler; 4] {
    [
        h_fused::<F, false, false>,
        h_fused::<F, false, true>,
        h_fused::<F, true, false>,
        h_fused::<F, true, true>,
    ]
}

const FUSED_SLT: [Handler; 4] = fused_handlers::<{ Alu::Slt as u8 }>();
const FUSED_SLTU: [Handler; 4] = fused_handlers::<{ Alu::Sltu as u8 }>();

fn h_nop(_vm: &mut Vm, _t: &TOp, pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
    Some(pc + 1)
}

fn h_li(vm: &mut Vm, t: &TOp, pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
    vm.set_reg(t.a, t.imm as u64);
    Some(pc + 1)
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

/// The `N`-byte load [`Vm::load`]; one instance per width, signedness
/// and addressing mode, so none picks them at run time.
fn h_ld<const N: usize, const SIGNED: bool, const CAP: bool>(
    vm: &mut Vm,
    t: &TOp,
    pc: u64,
    trap: &mut Option<TrapCause>,
) -> Option<u64> {
    settle(vm.load::<N, SIGNED, CAP>(t.a, t.b, t.imm as i32), trap)?;
    Some(pc + 1)
}

/// The `N`-byte store [`Vm::store`], one instance per width and
/// addressing mode.
fn h_st<const N: usize, const CAP: bool>(
    vm: &mut Vm,
    t: &TOp,
    pc: u64,
    trap: &mut Option<TrapCause>,
) -> Option<u64> {
    settle(vm.store::<N, CAP>(t.a, t.b, t.imm as i32), trap)?;
    Some(pc + 1)
}

/// One [`h_ld`] per width, indexed by `width.trailing_zeros()`.
const fn load_handlers<const SIGNED: bool, const CAP: bool>() -> [Handler; 4] {
    handlers!(h_ld<_, SIGNED, CAP>: 1 2 4 8)
}

/// The loads, indexed by `2 * signed + via_cap`, then as
/// [`load_handlers`].
const LOAD: [[Handler; 4]; 4] = [
    load_handlers::<false, false>(),
    load_handlers::<false, true>(),
    load_handlers::<true, false>(),
    load_handlers::<true, true>(),
];

/// One [`h_st`] per width, indexed by `width.trailing_zeros()`.
const fn store_handlers<const CAP: bool>() -> [Handler; 4] {
    handlers!(h_st<_, CAP>: 1 2 4 8)
}

/// The stores, indexed by `via_cap`, then as [`store_handlers`].
const STORE: [[Handler; 4]; 2] = [store_handlers::<false>(), store_handlers::<true>()];

/// `cd` = `cb` moved by `rt` (or by the immediate, when `IMM`).
fn h_cincoffset<const IMM: bool>(
    vm: &mut Vm,
    t: &TOp,
    pc: u64,
    trap: &mut Option<TrapCause>,
) -> Option<u64> {
    let by = if IMM { t.imm } else { vm.reg(t.c) as i64 };
    settle(vm.c_inc_offset(t.a, t.b, by), trap)?;
    Some(pc + 1)
}

fn h_csetbounds(vm: &mut Vm, t: &TOp, pc: u64, trap: &mut Option<TrapCause>) -> Option<u64> {
    settle(vm.c_set_bounds(t.a, t.b, vm.reg(t.c)), trap)?;
    Some(pc + 1)
}

fn h_cfromptr(vm: &mut Vm, t: &TOp, pc: u64, trap: &mut Option<TrapCause>) -> Option<u64> {
    settle(vm.c_from_ptr(t.a, t.b, vm.reg(t.c)), trap)?;
    Some(pc + 1)
}

fn h_cmove(vm: &mut Vm, t: &TOp, pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
    vm.c_move(t.a, t.b);
    Some(pc + 1)
}

fn h_cgettag(vm: &mut Vm, t: &TOp, pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
    vm.set_reg(t.a, vm.c_get_tag(t.b));
    Some(pc + 1)
}

fn h_ctoptr(vm: &mut Vm, t: &TOp, pc: u64, _: &mut Option<TrapCause>) -> Option<u64> {
    vm.set_reg(t.a, vm.c_to_ptr(t.b, t.c));
    Some(pc + 1)
}

fn h_clc(vm: &mut Vm, t: &TOp, pc: u64, trap: &mut Option<TrapCause>) -> Option<u64> {
    let r = vm.exec_clc(t.a, t.b, t.imm as i32);
    settle(r.map(|()| pc + 1), trap)
}

fn h_csc(vm: &mut Vm, t: &TOp, pc: u64, trap: &mut Option<TrapCause>) -> Option<u64> {
    let r = vm.exec_csc(t.a, t.b, t.imm as i32);
    settle(r.map(|()| pc + 1), trap)
}

/// Runs the op through `exec_flat`, which keeps every capability/trap
/// decision in exactly one place: every op of a reference body, and the
/// template tier's long tail — the remaining capability ops, syscalls and
/// capability jumps.
fn h_flat(vm: &mut Vm, t: &TOp, pc: u64, trap: &mut Option<TrapCause>) -> Option<u64> {
    settle(vm.exec_flat(&t.flat, pc), trap)
}

/// Binds one micro-op for `kind`, extracting operands once: the reference
/// binds every op to [`h_flat`]; the template tier binds each op it has a
/// handler for.
pub(crate) fn bind(kind: BackendKind, op: &FlatOp) -> TOp {
    let mut t = TOp {
        run: h_flat,
        a: 0,
        b: 0,
        c: 0,
        imm: 0,
        target: 0,
        flat: *op,
    };
    if kind == BackendKind::Reference {
        return t;
    }
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
        FlatOp::Alu { f, rd, rs, rt } => set!(ALU_REG[f as usize], rd, rs, rt, 0, 0),
        FlatOp::AluImm { f, rd, rs, imm } => {
            set!(ALU_IMM[f as usize], rd, rs, 0, imm as i64, 0)
        }
        FlatOp::Li { rd, v } => set!(h_li, rd, 0, 0, v as i64, 0),
        FlatOp::Branch { c, rs, rt, target } => set!(BRANCH[c as usize], 0, rs, rt, 0, target),
        FlatOp::J { target } => set!(h_j, 0, 0, 0, 0, target),
        FlatOp::Jal { target } => set!(h_jal, 0, 0, 0, 0, target),
        FlatOp::Jr { rs } => set!(h_jr, 0, rs, 0, 0, 0),
        FlatOp::Jalr { rd, rs } => set!(h_jalr, rd, rs, 0, 0, 0),
        FlatOp::FusedCmpBranch {
            f,
            rd,
            rs,
            rt,
            imm,
            imm_form,
            branch_if,
            target,
        } => {
            // The peephole fuses only `slt`/`sltu`; any other compare
            // would keep `h_flat`.
            let forms = match f {
                Alu::Slt => &FUSED_SLT,
                Alu::Sltu => &FUSED_SLTU,
                _ => return t,
            };
            let run = forms[2 * usize::from(imm_form) + usize::from(branch_if)];
            set!(run, rd, rs, rt, imm as i64, target);
        }
        FlatOp::Load {
            rd,
            base,
            off,
            width,
            signed,
            via_cap,
        } => {
            let run = LOAD[2 * usize::from(signed) + usize::from(via_cap)]
                [width.trailing_zeros() as usize];
            set!(run, rd, base, 0, i64::from(off), 0);
        }
        FlatOp::Store {
            rv,
            base,
            off,
            width,
            via_cap,
        } => {
            let run = STORE[usize::from(via_cap)][width.trailing_zeros() as usize];
            set!(run, rv, base, 0, i64::from(off), 0);
        }
        FlatOp::Clc { cd, cb, off } => set!(h_clc, cd, cb, 0, i64::from(off), 0),
        FlatOp::Csc { cs, cb, off } => set!(h_csc, cs, cb, 0, i64::from(off), 0),
        FlatOp::CIncOffset { cd, cb, rt } => set!(h_cincoffset::<false>, cd, cb, rt, 0, 0),
        FlatOp::CIncOffsetImm { cd, cb, imm } => set!(h_cincoffset::<true>, cd, cb, 0, imm, 0),
        FlatOp::CSetBounds { cd, cb, rt } => set!(h_csetbounds, cd, cb, rt, 0, 0),
        FlatOp::CFromPtr { cd, cb, rt } => set!(h_cfromptr, cd, cb, rt, 0, 0),
        FlatOp::CMove { cd, cb } => set!(h_cmove, cd, cb, 0, 0, 0),
        FlatOp::CGetTag { rd, cb } => set!(h_cgettag, rd, cb, 0, 0, 0),
        FlatOp::CToPtr { rd, cb, ct } => set!(h_ctoptr, rd, cb, ct, 0, 0),
        // The other capability ops and the long tail keep `h_flat`.
        _ => {}
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_isa::{Instr, Op};

    fn engine(code_len: usize) -> Engine {
        Engine::new(&VmConfig::functional(), code_len)
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
        let mut e = Engine::new(
            &VmConfig::functional().with_opt_level(OptLevel::Peephole),
            code.len(),
        );
        let id = e.get_or_compile(0, &code);
        assert_eq!(e.table.blocks[id as usize].len, 2);
        assert_eq!(e.table.blocks[id as usize].body.len(), 1, "fused to one op");
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
    fn precompile_memoizes_only_static_successors() {
        let code = vec![
            Instr::li(8, 1),                            // 0
            Instr::new(Op::Beq, 0, 8, 0, 3),            // 1: branch to 3 or 2
            Instr::new(Op::J, 0, 0, 0, 4),              // 2: jump
            Instr::new(Op::Jr, 0, cheri_isa::RA, 0, 0), // 3: indirect
            Instr::new(Op::CJr, 0, 6, 0, 0),            // 4: capability jump
            Instr::syscall(0),                          // 5: syscall
            Instr::nop(),                               // 6: falls off the image
        ];
        for kind in BackendKind::ALL {
            let mut e = Engine::new(&VmConfig::functional().with_backend(kind), code.len());
            e.precompile(0, &code);
            let mut dispatch = Vec::new();
            for c in &e.table.blocks {
                let linked = |id: u32| (id != u32::MAX).then(|| e.table.blocks[id as usize].start);
                let memos = (linked(c.taken), linked(c.fall));
                match c.exit {
                    BlockExit::Branch { taken, fall } => {
                        assert_eq!(memos, (Some(taken), Some(fall)), "{kind:?}");
                    }
                    BlockExit::Jump { target } => assert_eq!(memos, (Some(target), None)),
                    BlockExit::Dispatch => {
                        assert_eq!(memos, (None, None), "{kind:?} block {}", c.start);
                        dispatch.push(c.start);
                    }
                }
            }
            assert_eq!(e.compiled_blocks(), 6, "{kind:?}");
            dispatch.sort_unstable();
            assert_eq!(dispatch, [3, 4, 5, 6], "{kind:?}");
        }
    }
}
