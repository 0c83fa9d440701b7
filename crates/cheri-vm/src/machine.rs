//! The machine: register files, execution loop, syscalls.

use crate::backend::{new_backend, ExecBackend};
use crate::config::{VmConfig, NULL_GUARD_SIZE};
use crate::ir::FlatOp;
use crate::sys;
use crate::timing::CacheTiming;
use crate::trap::{TrapCause, VmTrap};
use cheri_cache::{CacheStats, Hierarchy, SharedHierarchy};
#[cfg(test)]
use cheri_cap::CapError;
use cheri_cap::{ptr_cmp, CapFormat, Capability, CompressionStats, Perms, CAP_SIZE_BYTES};
use cheri_isa::{CmpOp, Instr, Op, Program, DDC};
use cheri_mem::{Allocator, MemSnapshot, TaggedMemory};
use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Capability register conventions used by the compiler and runtime.
pub mod cabi {
    /// Capability return value / `malloc` result.
    pub const CV0: u8 = 1;
    /// Scratch capability register (reserved for future codegen use).
    #[allow(dead_code)]
    pub const CT0: u8 = 2;
    /// First capability argument register (`ca0` = c3 … `ca3` = c6).
    pub const CA0: u8 = 3;
    /// The stack capability.
    pub const CSP: u8 = 11;
}

/// Execution statistics.
#[derive(Clone, Debug, Default)]
pub struct VmStats {
    /// Instructions retired.
    pub instret: u64,
    /// Cycles charged (pipeline + cache model).
    pub cycles: u64,
    /// Data-cache statistics, when a cache model is configured.
    pub cache: Option<CacheStats>,
    /// Full PCC validations (`set_offset` + `check_access`) the fetch path
    /// performed. With run caching this counts one per control-flow
    /// transfer out of the validated window, not one per instruction.
    pub fetch_checks: u64,
    /// Cycles the instruction-fetch path charged through the cache
    /// hierarchy (zero unless [`VmConfig::fetch_charging`] is on).
    /// Included in `cycles`; the full fetch ledger is in
    /// `cache.unwrap().fetch`.
    pub fetch_cycles: u64,
    /// Capability-compression statistics from tagged memory, present when
    /// the machine stores 128-bit compressed capabilities.
    pub compression: Option<CompressionStats>,
    op_counts: Vec<u64>,
}

impl VmStats {
    /// How many times `op` retired.
    pub fn op_count(&self, op: Op) -> u64 {
        self.op_counts.get(op as usize).copied().unwrap_or(0)
    }

    /// Instructions retired that belong to the CHERI extension.
    pub fn capability_instructions(&self) -> u64 {
        Op::ALL
            .iter()
            .filter(|o| o.is_capability_op())
            .map(|&o| self.op_count(o))
            .sum()
    }
}

/// Successful termination: the program called `exit`.
#[derive(Clone, Debug)]
pub struct ExitStatus {
    /// The exit code passed in `a0`.
    pub code: i64,
    /// Statistics at the moment of exit.
    pub stats: VmStats,
}

/// An immutable image of a (typically warmed-up) machine, shareable across
/// threads, from which per-request machines are forked.
///
/// Produced by [`Vm::snapshot`]. The machine state is held as a
/// memory-less shell and cloned per fork. What never changes after the
/// snapshot — the code image and the compiled-block table, precompiled for
/// every statically reachable block — is shared by reference; a fork owns
/// only its registers, heap, cache model, output and execution counters.
/// Memory itself is a [`MemSnapshot`], so each fork pays only for the
/// pages the guest actually touched — not for the 4–16 MiB backing store,
/// which comes zeroed from the memory pool.
#[derive(Clone, Debug)]
pub struct VmSnapshot {
    /// The machine minus its memory (the shell's memory is zero-sized).
    shell: Vm,
    /// The warm-footprint image of the snapshotted machine's memory.
    mem: MemSnapshot,
}

impl VmSnapshot {
    /// Materializes an independent machine observationally identical to
    /// the one the snapshot was taken from: same registers, output,
    /// statistics, cache/traffic ledger and memory, bit for bit.
    pub fn fork(&self) -> Vm {
        let mut vm = self.shell.clone();
        vm.mem = self.mem.fork();
        vm
    }

    /// Bytes of warm memory each fork copies (the guest's footprint).
    pub fn warm_bytes(&self) -> u64 {
        self.mem.warm_bytes()
    }

    /// The configuration of the snapshotted machine.
    pub fn config(&self) -> VmConfig {
        self.shell.cfg
    }
}

/// Why [`Vm::try_new`] cannot lay a program out in its configured memory:
/// the memory quota is too small for the data segment, the stack, or a
/// heap between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// The data segment `[data_base, end)` does not fit in memory.
    DataSegment {
        /// One past the segment's last byte.
        end: u64,
        /// The configured memory size.
        mem_size: u64,
    },
    /// The stack reservation (at least 64 bytes) does not fit in memory.
    Stack {
        /// The configured stack size.
        stack_size: u64,
        /// The configured memory size.
        mem_size: u64,
    },
    /// No room for a heap between the data segment and the stack.
    NoHeap {
        /// Where the heap would start.
        heap_base: u64,
        /// Where the stack starts.
        stack_base: u64,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LayoutError::DataSegment { end, mem_size } => write!(
                f,
                "data segment ends at {end:#x}, past the {mem_size:#x}-byte memory"
            ),
            LayoutError::Stack {
                stack_size,
                mem_size,
            } => write!(
                f,
                "a {stack_size:#x}-byte stack does not fit in a {mem_size:#x}-byte memory"
            ),
            LayoutError::NoHeap {
                heap_base,
                stack_base,
            } => write!(
                f,
                "no room for a heap: it would start at {heap_base:#x}, the stack at {stack_base:#x}"
            ),
        }
    }
}

impl Error for LayoutError {}

/// The CHERI machine.
///
/// See the crate documentation for an end-to-end example.
#[derive(Debug)]
pub struct Vm {
    /// The decoded code image, shared by every clone and fork.
    pub(crate) code: Arc<[Instr]>,
    pub(crate) regs: [u64; 32],
    caps: [Capability; 32],
    pcc: Capability,
    pub(crate) pc: u64,
    mem: TaggedMemory,
    /// The cache model, fed by deferred access records; see
    /// [`crate::timing`]. `cycles` excludes the charges it has not folded
    /// in yet, which is none outside `run`.
    cache: Option<CacheTiming>,
    heap: Allocator,
    pub(crate) cycles: u64,
    pub(crate) instret: u64,
    op_counts: Vec<u64>,
    output: Vec<u8>,
    pub(crate) halted: Option<i64>,
    cfg: VmConfig,
    /// Cached straight-line fetch window: instruction indices in
    /// `[run_start, run_end)` are known to pass the PCC execute check, so
    /// the hot fetch path is a single range compare. Invalidated (set
    /// empty) whenever the PCC is written. One successful full check
    /// validates the whole window because tag, seal, permissions and
    /// bounds are properties of the PCC, not of the individual pc.
    pub(crate) run_start: u64,
    pub(crate) run_end: u64,
    fetch_checks: u64,
    /// The pluggable execution pipeline (see [`crate::backend`]): owns
    /// the compiled-block cache and the dispatch loop. `None` only while
    /// `run` has lent it the machine.
    backend: Option<Box<dyn ExecBackend>>,
}

impl Clone for Vm {
    fn clone(&self) -> Vm {
        Vm {
            code: self.code.clone(),
            regs: self.regs,
            caps: self.caps,
            pcc: self.pcc,
            pc: self.pc,
            mem: self.mem.clone(),
            cache: self.cache.clone(),
            heap: self.heap.clone(),
            cycles: self.cycles,
            instret: self.instret,
            op_counts: self.op_counts.clone(),
            output: self.output.clone(),
            halted: self.halted,
            cfg: self.cfg,
            run_start: self.run_start,
            run_end: self.run_end,
            fetch_checks: self.fetch_checks,
            // Shares the compiled blocks and clones their execution
            // counters, so a cloned machine reports the same op counts.
            backend: self.backend.as_ref().map(|b| b.boxed_clone()),
        }
    }
}

impl Vm {
    /// Loads `program` into a fresh machine configured by `cfg`.
    ///
    /// Layout: data segment at `cfg.data_base`, heap after it, stack at the
    /// top of memory. `c0` (DDC) covers all of memory with full rights;
    /// `c11` is the stack capability; PCC covers the whole code image.
    ///
    /// # Panics
    ///
    /// Panics with the [`LayoutError`] [`Vm::try_new`] returns when the
    /// program does not fit `cfg`'s memory.
    pub fn new(program: Program, cfg: VmConfig) -> Vm {
        Vm::try_new(program, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Vm::new`] for a memory quota that may be too small: the data
    /// segment, a stack of at least 64 bytes and a non-empty heap between
    /// them must all fit in `cfg.mem_size`.
    ///
    /// # Errors
    ///
    /// The [`LayoutError`] naming what does not fit.
    pub fn try_new(program: Program, cfg: VmConfig) -> Result<Vm, LayoutError> {
        let data_end = cfg.data_base.saturating_add(program.data.len() as u64);
        if data_end > cfg.mem_size {
            return Err(LayoutError::DataSegment {
                end: data_end,
                mem_size: cfg.mem_size,
            });
        }
        if cfg.stack_size < 64 || cfg.stack_size > cfg.mem_size {
            return Err(LayoutError::Stack {
                stack_size: cfg.stack_size,
                mem_size: cfg.mem_size,
            });
        }
        let heap_base = data_end.saturating_add(0x100).next_multiple_of(32);
        let stack_base = cfg.mem_size - cfg.stack_size;
        let heap_end = heap_base.saturating_add(cfg.heap_size).min(stack_base);
        if heap_base >= heap_end {
            return Err(LayoutError::NoHeap {
                heap_base,
                stack_base,
            });
        }
        let mut mem = TaggedMemory::with_format(cfg.mem_size, cfg.cap_format, cfg.cap128_policy);
        mem.write_bytes(cfg.data_base, &program.data)
            .expect("the data segment was checked to fit");
        let heap = Allocator::with_format(heap_base, heap_end - heap_base, cfg.cap_format);

        let mut regs = [0u64; 32];
        regs[cheri_isa::SP as usize] = cfg.mem_size - 64;
        let mut caps = [Capability::null(); 32];
        caps[DDC as usize] = Capability::new_mem(0, cfg.mem_size, Perms::all());
        caps[cabi::CSP as usize] = Capability::new_mem(stack_base, cfg.stack_size, Perms::data())
            .set_offset(cfg.stack_size - 64)
            .expect("fresh stack cap is unsealed");
        let pcc = Capability::new_mem(0, program.code.len() as u64 * 8, Perms::code());

        Ok(Vm {
            pc: program.entry,
            backend: Some(new_backend(&cfg, program.code.len())),
            code: program.code.into(),
            regs,
            caps,
            pcc,
            mem,
            cache: cfg.cache.map(|c| CacheTiming::new(Hierarchy::new(c))),
            heap,
            cycles: 0,
            instret: 0,
            op_counts: vec![0; 256],
            output: Vec::new(),
            halted: None,
            cfg,
            run_start: 0,
            run_end: 0,
            fetch_checks: 0,
        })
    }

    // --- Introspection (used by tests, examples and the bench harness) ---

    /// General-purpose register `r` (reads of `r0` return 0).
    pub fn reg(&self, r: u8) -> u64 {
        if r == 0 {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Sets general-purpose register `r` (writes to `r0` are ignored).
    pub fn set_reg(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// Capability register `c`.
    pub fn cap(&self, c: u8) -> Capability {
        self.caps[c as usize]
    }

    /// Sets capability register `c`.
    pub fn set_cap(&mut self, c: u8, v: Capability) {
        self.caps[c as usize] = v;
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> VmConfig {
        self.cfg
    }

    /// The program-counter capability.
    pub fn pcc(&self) -> Capability {
        self.pcc
    }

    /// Current instruction index.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Sets the program counter — e.g. to resume past the `break` a guest
    /// uses as its ready marker before [`Vm::snapshot`]. The next fetch
    /// revalidates against the PCC as usual, so this cannot widen what the
    /// machine may execute.
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// The memory, e.g. to inspect results or pre-load inputs.
    pub fn mem(&self) -> &TaggedMemory {
        &self.mem
    }

    /// Mutable access to memory (test setup).
    pub fn mem_mut(&mut self) -> &mut TaggedMemory {
        &mut self.mem
    }

    /// The heap allocator state.
    pub fn heap(&self) -> &Allocator {
        &self.heap
    }

    /// Console output so far.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Console output as (lossy) UTF-8.
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }

    /// Statistics so far. Per-opcode retirement counts are reconstructed
    /// from the backend's block execution counters plus the single-step
    /// residual.
    pub fn stats(&self) -> VmStats {
        let mut op_counts = self.op_counts.clone();
        if let Some(b) = &self.backend {
            b.add_op_counts(&mut op_counts);
        }
        let cache = self.cache.as_ref().map(|c| c.hierarchy().stats());
        VmStats {
            instret: self.instret,
            cycles: self.cycles,
            fetch_cycles: cache.as_ref().map_or(0, |c| c.fetch.cycles),
            cache,
            fetch_checks: self.fetch_checks,
            compression: (self.cfg.cap_format == CapFormat::Cap128)
                .then(|| self.mem.compression_stats()),
            op_counts,
        }
    }

    /// Blocks in this machine's compiled-block table. A fork of a
    /// [`VmSnapshot`] serving a request on precompiled code keeps the
    /// count it started with.
    pub fn compiled_blocks(&self) -> usize {
        self.backend.as_ref().map_or(0, |b| b.compiled_blocks())
    }

    /// Which execution backend this machine is configured with.
    pub fn backend_kind(&self) -> crate::BackendKind {
        match &self.backend {
            Some(b) => b.kind(),
            None => self.cfg.backend,
        }
    }

    /// Captures the machine's complete state — registers, capabilities,
    /// PCC/pc, heap, cache and traffic ledger, statistics, console output,
    /// compiled-block cache, and the memory's warm footprint — as a
    /// [`VmSnapshot`] that can be [`VmSnapshot::fork`]ed per request.
    ///
    /// A fork is observationally identical to `self.clone()` but copies
    /// only the dirty-page footprint of memory instead of the whole
    /// backing store, and shares the compiled-block table. The snapshot
    /// first compiles every block statically reachable from the current pc
    /// or from a block the machine already ran, so a fork serving a
    /// request compiles nothing unless it enters code mid-block (say, after
    /// a fuel slice ran out there). That is what makes serving a request
    /// stream from a warmed-up guest image cheap.
    pub fn snapshot(&self) -> VmSnapshot {
        let mut shell = Vm {
            code: self.code.clone(),
            regs: self.regs,
            caps: self.caps,
            pcc: self.pcc,
            pc: self.pc,
            mem: TaggedMemory::new(0),
            cache: self.cache.clone(),
            heap: self.heap.clone(),
            cycles: self.cycles,
            instret: self.instret,
            op_counts: self.op_counts.clone(),
            output: self.output.clone(),
            halted: self.halted,
            cfg: self.cfg,
            run_start: self.run_start,
            run_end: self.run_end,
            fetch_checks: self.fetch_checks,
            backend: self.backend.as_ref().map(|b| b.boxed_clone()),
        };
        if let Some(b) = &mut shell.backend {
            b.precompile(shell.pc, &shell.code);
        }
        VmSnapshot {
            shell,
            mem: self.mem.snapshot(),
        }
    }

    /// Runs until `exit`, a trap, or `fuel` retired instructions.
    ///
    /// Dispatch is delegated to the configured execution backend (see
    /// [`crate::backend`] and [`crate::BackendKind`]): traps, statistics
    /// and simulated cycles are bit-identical to single-stepping under
    /// every backend and optimization level. Single-stepping remains
    /// available as [`Vm::step`] and is what the backends fall back to
    /// near the fuel limit or when the PCC window is narrower than a
    /// compiled block.
    ///
    /// # Errors
    ///
    /// The trap that stopped execution, including [`TrapCause::OutOfFuel`]
    /// when the budget is exhausted.
    pub fn run(&mut self, fuel: u64) -> Result<ExitStatus, VmTrap> {
        let mut backend = self.backend.take().expect("backend present outside of run");
        let result = backend.run(self, fuel);
        self.backend = Some(backend);
        // Every exit — exit, trap, out of fuel — syncs the cache model
        // before anything reads the statistics.
        self.sync_timing();
        result.map(|code| ExitStatus {
            code,
            stats: self.stats(),
        })
    }

    /// Drains the deferred cache-model records and folds their charges
    /// into `cycles`; see [`crate::timing`].
    fn sync_timing(&mut self) {
        if let Some(t) = &mut self.cache {
            self.cycles += t.sync();
        }
    }

    /// Makes the machine sync its cache model after every access: the
    /// inline model, as a test oracle for the deferred one.
    #[cfg(test)]
    pub(crate) fn set_eager_timing(&mut self) {
        if let Some(t) = &mut self.cache {
            t.eager = true;
        }
    }

    #[cfg(test)]
    fn sync_if_eager(&mut self) {
        if self.cache.as_ref().is_some_and(|t| t.eager) {
            self.sync_timing();
        }
    }

    /// Retires one instruction's statistics — base cycles, instruction
    /// count, residual per-op count. The single accounting path shared by
    /// single-stepping and the backends' partial-block unwind.
    pub(crate) fn retire_one(&mut self, op: Op) {
        self.cycles += op.base_cycles();
        self.instret += 1;
        self.op_counts[op as usize] += 1;
    }

    /// Reconciles a block that stopped after `executed` of its `raw`
    /// instructions: refund the whole `hoisted` base-cycle sum, then
    /// account the executed prefix through the same per-instruction
    /// bookkeeping [`Vm::step`] uses, so the totals match single-stepping
    /// instruction for instruction.
    pub(crate) fn unwind_partial(&mut self, raw: &[Op], executed: usize, hoisted: u64) {
        self.cycles -= hoisted;
        for &op in &raw[..executed] {
            self.retire_one(op);
        }
    }

    /// Executes one instruction, then syncs the cache model, so
    /// [`Vm::stats`] is exact between steps.
    ///
    /// # Errors
    ///
    /// Any [`VmTrap`] the instruction raises.
    pub fn step(&mut self) -> Result<(), VmTrap> {
        let result = self.step_unsynced();
        self.sync_timing();
        result
    }

    /// [`Vm::step`] without the cache-model sync, for the backends inside
    /// [`Vm::run`], which syncs on exit.
    pub(crate) fn step_unsynced(&mut self) -> Result<(), VmTrap> {
        let pc = self.pc;
        let instr = self.fetch(pc)?;
        self.charge_fetch(pc, 1);
        self.retire_one(instr.op);
        match self.execute_at(instr, pc) {
            Ok(next) => {
                self.pc = next;
                self.regs[0] = 0;
                Ok(())
            }
            Err(cause) => Err(VmTrap { pc, cause }),
        }
    }

    fn fetch(&mut self, pc: u64) -> Result<Instr, VmTrap> {
        // Hot path: the pc is inside the window already validated against
        // the current PCC — no capability work at all.
        if pc >= self.run_start && pc < self.run_end {
            return Ok(self.code[pc as usize]);
        }
        self.fetch_slow(pc)
    }

    /// Full PCC validation, then caching of the straight-line window it
    /// implies: every index whose 8-byte fetch the current PCC authorises
    /// and that has a decoded instruction behind it.
    pub(crate) fn fetch_slow(&mut self, pc: u64) -> Result<Instr, VmTrap> {
        self.fetch_checks += 1;
        let byte_addr = pc.wrapping_mul(8);
        let fetch_cap = self
            .pcc
            .set_offset(byte_addr.wrapping_sub(self.pcc.base()))
            .map_err(|e| VmTrap {
                pc,
                cause: e.into(),
            })?;
        if fetch_cap.check_access(8, Perms::EXECUTE).is_err() {
            return Err(VmTrap {
                pc,
                cause: TrapCause::PccBounds { pc },
            });
        }
        let instr = self.code.get(pc as usize).copied().ok_or(VmTrap {
            pc,
            cause: TrapCause::PccBounds { pc },
        })?;
        // p is in the window iff p*8 >= base and p*8 + 8 <= top, i.e.
        // ceil(base/8) <= p < floor(top/8).
        self.run_start = self.pcc.base().div_ceil(8);
        self.run_end = (self.pcc.top() / 8).min(self.code.len() as u64);
        Ok(instr)
    }

    /// Writes the PCC and invalidates the cached fetch window.
    fn set_pcc(&mut self, cap: Capability) {
        self.pcc = cap;
        self.run_start = 0;
        self.run_end = 0;
    }

    #[inline]
    fn charge_mem(&mut self, addr: u64, len: u64, write: bool) {
        match &mut self.cache {
            // Issue at the VM's own clock so the hierarchy's burst windows
            // see compute gaps between accesses (a no-op under the
            // serialized mshrs=1 model). The charge lands at the next sync.
            Some(t) => t.data(self.cycles, addr, len, write),
            None => self.cycles += 1,
        }
        #[cfg(test)]
        self.sync_if_eager();
    }

    /// Charges one instruction-fetch transaction for `words` instructions
    /// starting at `pc` — one call per superinstruction block entry, or
    /// per instruction when single-stepping. No-op unless
    /// [`VmConfig::fetch_charging`] is on and a cache model is configured.
    pub(crate) fn charge_fetch(&mut self, pc: u64, words: u64) {
        if !self.cfg.fetch_charging {
            return;
        }
        if let Some(t) = &mut self.cache {
            t.fetch(self.cycles, pc.wrapping_mul(8), words * 8);
        }
        #[cfg(test)]
        self.sync_if_eager();
    }

    /// Attaches this machine's cache hierarchy (one simulated core) to
    /// `shared` contended edges; see
    /// [`cheri_cache::Hierarchy::attach_shared`]. No-op on cache-less
    /// configs.
    pub fn attach_shared_hierarchy(&mut self, shared: SharedHierarchy) {
        if let Some(t) = &mut self.cache {
            t.attach_shared(shared);
        }
    }

    /// Resolves a legacy (DDC-relative) access.
    #[inline]
    fn legacy_addr(&self, rs: u8, imm: i32, len: u64, perm: Perms) -> Result<u64, TrapCause> {
        let ptr = self.reg(rs).wrapping_add(imm as i64 as u64);
        if ptr < NULL_GUARD_SIZE {
            return Err(TrapCause::NullGuard { addr: ptr });
        }
        Ok(self.caps[DDC as usize].check_access_at(ptr, len, perm)?)
    }

    /// Resolves a capability-relative access: `cb` moved by `imm`, checked
    /// in place (the checks and causes of `inc_offset` + `check_access`).
    #[inline]
    fn cap_addr(&self, cb: u8, imm: i32, len: u64, perm: Perms) -> Result<u64, TrapCause> {
        let c = &self.caps[cb as usize];
        let offset = c.offset().wrapping_add(imm as i64 as u64);
        Ok(c.check_access_at(offset, len, perm)?)
    }

    #[inline]
    fn load(&mut self, addr: u64, width: u8, signed: bool) -> Result<u64, TrapCause> {
        let raw = self.mem.read_uint(addr, width)?;
        self.charge_mem(addr, width as u64, false);
        Ok(if signed {
            match width {
                1 => raw as u8 as i8 as i64 as u64,
                2 => raw as u16 as i16 as i64 as u64,
                4 => raw as u32 as i32 as i64 as u64,
                _ => raw,
            }
        } else {
            raw
        })
    }

    #[inline]
    fn store(&mut self, addr: u64, width: u8, v: u64) -> Result<(), TrapCause> {
        self.mem.write_uint(addr, v, width)?;
        self.charge_mem(addr, width as u64, true);
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn execute_at(&mut self, i: Instr, pc: u64) -> Result<u64, TrapCause> {
        let next = pc + 1;
        let (rd, rs, rt) = (i.rd, i.rs, i.rt);
        let imm = i.imm;
        let simm = imm as i64;
        macro_rules! alu {
            ($v:expr) => {{
                let v = $v;
                self.set_reg(rd, v);
                Ok(next)
            }};
        }
        match i.op {
            Op::Nop => Ok(next),
            Op::Break => Err(TrapCause::Breakpoint),
            Op::Syscall => self.syscall(imm).map(|()| next),

            // Trapping signed arithmetic (§3.1.1).
            Op::Add => {
                let v = (self.reg(rs) as i64)
                    .checked_add(self.reg(rt) as i64)
                    .ok_or(TrapCause::IntegerOverflow)?;
                alu!(v as u64)
            }
            Op::Sub => {
                let v = (self.reg(rs) as i64)
                    .checked_sub(self.reg(rt) as i64)
                    .ok_or(TrapCause::IntegerOverflow)?;
                alu!(v as u64)
            }
            Op::Addi => {
                let v = (self.reg(rs) as i64)
                    .checked_add(simm)
                    .ok_or(TrapCause::IntegerOverflow)?;
                alu!(v as u64)
            }

            Op::Addu => alu!(self.reg(rs).wrapping_add(self.reg(rt))),
            Op::Subu => alu!(self.reg(rs).wrapping_sub(self.reg(rt))),
            Op::And => alu!(self.reg(rs) & self.reg(rt)),
            Op::Or => alu!(self.reg(rs) | self.reg(rt)),
            Op::Xor => alu!(self.reg(rs) ^ self.reg(rt)),
            Op::Nor => alu!(!(self.reg(rs) | self.reg(rt))),
            Op::Slt => alu!(u64::from((self.reg(rs) as i64) < (self.reg(rt) as i64))),
            Op::Sltu => alu!(u64::from(self.reg(rs) < self.reg(rt))),
            Op::Sllv => alu!(self.reg(rs) << (self.reg(rt) & 63)),
            Op::Srlv => alu!(self.reg(rs) >> (self.reg(rt) & 63)),
            Op::Srav => alu!(((self.reg(rs) as i64) >> (self.reg(rt) & 63)) as u64),
            Op::Mul => alu!(self.reg(rs).wrapping_mul(self.reg(rt))),
            Op::Div => {
                let (a, b) = (self.reg(rs) as i64, self.reg(rt) as i64);
                if b == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                let v = a.checked_div(b).ok_or(TrapCause::IntegerOverflow)?;
                alu!(v as u64)
            }
            Op::Divu => {
                let b = self.reg(rt);
                if b == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                alu!(self.reg(rs) / b)
            }
            Op::Rem => {
                let (a, b) = (self.reg(rs) as i64, self.reg(rt) as i64);
                if b == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                let v = a.checked_rem(b).ok_or(TrapCause::IntegerOverflow)?;
                alu!(v as u64)
            }
            Op::Remu => {
                let b = self.reg(rt);
                if b == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                alu!(self.reg(rs) % b)
            }

            Op::Addiu => alu!(self.reg(rs).wrapping_add(simm as u64)),
            Op::Andi => alu!(self.reg(rs) & (imm as u32 as u64)),
            Op::Ori => alu!(self.reg(rs) | (imm as u32 as u64)),
            Op::Xori => alu!(self.reg(rs) ^ (imm as u32 as u64)),
            Op::Slti => alu!(u64::from((self.reg(rs) as i64) < simm)),
            Op::Sltiu => alu!(u64::from(self.reg(rs) < simm as u64)),
            Op::Lui => alu!((simm << 16) as u64),
            Op::Li => alu!(simm as u64),
            Op::Sll => alu!(self.reg(rs) << (imm as u32 & 63)),
            Op::Srl => alu!(self.reg(rs) >> (imm as u32 & 63)),
            Op::Sra => alu!(((self.reg(rs) as i64) >> (imm as u32 & 63)) as u64),

            Op::Beq => Ok(if self.reg(rs) == self.reg(rt) {
                imm as u64
            } else {
                next
            }),
            Op::Bne => Ok(if self.reg(rs) != self.reg(rt) {
                imm as u64
            } else {
                next
            }),
            Op::Blez => Ok(if self.reg(rs) as i64 <= 0 {
                imm as u64
            } else {
                next
            }),
            Op::Bgtz => Ok(if self.reg(rs) as i64 > 0 {
                imm as u64
            } else {
                next
            }),
            Op::Bltz => Ok(if (self.reg(rs) as i64) < 0 {
                imm as u64
            } else {
                next
            }),
            Op::Bgez => Ok(if self.reg(rs) as i64 >= 0 {
                imm as u64
            } else {
                next
            }),

            Op::J => Ok(imm as u64),
            Op::Jal => {
                self.set_reg(cheri_isa::RA, next);
                Ok(imm as u64)
            }
            Op::Jr => Ok(self.reg(rs)),
            Op::Jalr => {
                // Read the target before writing the link: `jalr r, r`
                // must jump to the register's old value.
                let target = self.reg(rs);
                self.set_reg(rd, next);
                Ok(target)
            }

            Op::Lb => self.exec_load(rd, rs, imm, 1, true, false).map(|_| next),
            Op::Lbu => self.exec_load(rd, rs, imm, 1, false, false).map(|_| next),
            Op::Lh => self.exec_load(rd, rs, imm, 2, true, false).map(|_| next),
            Op::Lhu => self.exec_load(rd, rs, imm, 2, false, false).map(|_| next),
            Op::Lw => self.exec_load(rd, rs, imm, 4, true, false).map(|_| next),
            Op::Lwu => self.exec_load(rd, rs, imm, 4, false, false).map(|_| next),
            Op::Ld => self.exec_load(rd, rs, imm, 8, false, false).map(|_| next),
            Op::Sb => self.exec_store(rd, rs, imm, 1, false).map(|_| next),
            Op::Sh => self.exec_store(rd, rs, imm, 2, false).map(|_| next),
            Op::Sw => self.exec_store(rd, rs, imm, 4, false).map(|_| next),
            Op::Sd => self.exec_store(rd, rs, imm, 8, false).map(|_| next),

            Op::Clb => self.exec_load(rd, rs, imm, 1, true, true).map(|_| next),
            Op::Clbu => self.exec_load(rd, rs, imm, 1, false, true).map(|_| next),
            Op::Clh => self.exec_load(rd, rs, imm, 2, true, true).map(|_| next),
            Op::Clhu => self.exec_load(rd, rs, imm, 2, false, true).map(|_| next),
            Op::Clw => self.exec_load(rd, rs, imm, 4, true, true).map(|_| next),
            Op::Clwu => self.exec_load(rd, rs, imm, 4, false, true).map(|_| next),
            Op::Cld => self.exec_load(rd, rs, imm, 8, false, true).map(|_| next),
            Op::Csb => self.exec_store(rd, rs, imm, 1, true).map(|_| next),
            Op::Csh => self.exec_store(rd, rs, imm, 2, true).map(|_| next),
            Op::Csw => self.exec_store(rd, rs, imm, 4, true).map(|_| next),
            Op::Csd => self.exec_store(rd, rs, imm, 8, true).map(|_| next),

            Op::Clc => self.exec_clc(rd, rs, imm).map(|()| next),
            Op::Csc => self.exec_csc(rd, rs, imm).map(|()| next),

            Op::CIncBase => {
                self.caps[rd as usize] = self.caps[rs as usize].inc_base(self.reg(rt))?;
                Ok(next)
            }
            Op::CSetLen => {
                self.caps[rd as usize] = self.caps[rs as usize].set_length(self.reg(rt))?;
                Ok(next)
            }
            Op::CAndPerm => {
                self.caps[rd as usize] =
                    self.caps[rs as usize].and_perms(Perms::from_bits(self.reg(rt) as u16))?;
                Ok(next)
            }
            Op::CIncOffset => {
                self.caps[rd as usize] = self.caps[rs as usize].inc_offset(self.reg(rt) as i64)?;
                Ok(next)
            }
            Op::CIncOffsetImm => {
                self.caps[rd as usize] = self.caps[rs as usize].inc_offset(simm)?;
                Ok(next)
            }
            Op::CSetOffset => {
                self.caps[rd as usize] = self.caps[rs as usize].set_offset(self.reg(rt))?;
                Ok(next)
            }
            Op::CSetBounds => {
                self.caps[rd as usize] = self.caps[rs as usize].set_bounds(self.reg(rt))?;
                Ok(next)
            }
            Op::CClearTag => {
                self.caps[rd as usize] = self.caps[rs as usize].clear_tag();
                Ok(next)
            }
            Op::CMove => {
                self.caps[rd as usize] = self.caps[rs as usize];
                Ok(next)
            }
            Op::CGetBase => alu!(self.caps[rs as usize].base()),
            Op::CGetLen => alu!(self.caps[rs as usize].length()),
            Op::CGetOffset => alu!(self.caps[rs as usize].offset()),
            Op::CGetPerm => alu!(self.caps[rs as usize].perms().bits() as u64),
            Op::CGetTag => alu!(u64::from(self.caps[rs as usize].tag())),
            Op::CPtrCmp => {
                let r = ptr_cmp(&self.caps[rs as usize], &self.caps[rt as usize]);
                let sel = CmpOp::from_u8(imm as u8).expect("validated at decode");
                let v = match sel {
                    CmpOp::Eq => r.ordering == Ordering::Equal,
                    CmpOp::Ne => r.ordering != Ordering::Equal,
                    CmpOp::Lt | CmpOp::Ltu => r.ordering == Ordering::Less,
                    CmpOp::Le | CmpOp::Leu => r.ordering != Ordering::Greater,
                };
                alu!(u64::from(v))
            }
            Op::CFromPtr => {
                self.caps[rd as usize] =
                    Capability::from_ptr(&self.caps[rs as usize], self.reg(rt))?;
                Ok(next)
            }
            Op::CToPtr => {
                alu!(self.caps[rs as usize].to_ptr(&self.caps[rt as usize]))
            }
            Op::CSeal => {
                self.caps[rd as usize] = self.caps[rs as usize].seal(&self.caps[rt as usize])?;
                Ok(next)
            }
            Op::CUnseal => {
                self.caps[rd as usize] = self.caps[rs as usize].unseal(&self.caps[rt as usize])?;
                Ok(next)
            }
            Op::CJr => {
                let target = self.caps[rs as usize];
                let addr = target.check_access(8, Perms::EXECUTE)?;
                if addr % 8 != 0 {
                    return Err(TrapCause::PccMisaligned { addr });
                }
                self.set_pcc(target);
                Ok(addr / 8)
            }
            Op::CJalr => {
                let target = self.caps[rs as usize];
                let addr = target.check_access(8, Perms::EXECUTE)?;
                if addr % 8 != 0 {
                    return Err(TrapCause::PccMisaligned { addr });
                }
                // The link capability is the current PCC pointed at the
                // return address. A return address below the PCC's base is
                // unrepresentable (the offset is unsigned), e.g. when a
                // trampoline's PCC starts above the caller: trap rather
                // than underflow.
                let ret = next * 8;
                let Some(link_off) = ret.checked_sub(self.pcc.base()) else {
                    return Err(TrapCause::PccBounds { pc: next });
                };
                self.caps[rd as usize] = self.pcc.set_offset(link_off)?;
                self.set_pcc(target);
                Ok(addr / 8)
            }
            Op::CGetPcc => {
                self.caps[rd as usize] = self.pcc;
                Ok(next)
            }
        }
    }

    /// Executes one flattened block micro-op (see [`crate::ir`]).
    /// Mirrors [`Vm::execute_at`] arm for arm with operand decoding
    /// already done; the `Other` fallback *is* `execute_at`. Every
    /// backend funnels its long-tail and capability ops through here, so
    /// each pointer/trap decision lives in exactly one place.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn exec_flat(&mut self, op: &FlatOp, pc: u64) -> Result<u64, TrapCause> {
        let next = pc + 1;
        macro_rules! alu {
            ($rd:expr, $v:expr) => {{
                let v = $v;
                self.set_reg($rd, v);
                Ok(next)
            }};
        }
        macro_rules! branch {
            ($cond:expr, $target:expr) => {
                Ok(if $cond { $target } else { next })
            };
        }
        match *op {
            FlatOp::Nop => Ok(next),
            FlatOp::Add { rd, rs, rt } => {
                let v = (self.reg(rs) as i64)
                    .checked_add(self.reg(rt) as i64)
                    .ok_or(TrapCause::IntegerOverflow)?;
                alu!(rd, v as u64)
            }
            FlatOp::Sub { rd, rs, rt } => {
                let v = (self.reg(rs) as i64)
                    .checked_sub(self.reg(rt) as i64)
                    .ok_or(TrapCause::IntegerOverflow)?;
                alu!(rd, v as u64)
            }
            FlatOp::Addi { rd, rs, imm } => {
                let v = (self.reg(rs) as i64)
                    .checked_add(imm)
                    .ok_or(TrapCause::IntegerOverflow)?;
                alu!(rd, v as u64)
            }
            FlatOp::Addu { rd, rs, rt } => alu!(rd, self.reg(rs).wrapping_add(self.reg(rt))),
            FlatOp::Subu { rd, rs, rt } => alu!(rd, self.reg(rs).wrapping_sub(self.reg(rt))),
            FlatOp::And { rd, rs, rt } => alu!(rd, self.reg(rs) & self.reg(rt)),
            FlatOp::Or { rd, rs, rt } => alu!(rd, self.reg(rs) | self.reg(rt)),
            FlatOp::Xor { rd, rs, rt } => alu!(rd, self.reg(rs) ^ self.reg(rt)),
            FlatOp::Nor { rd, rs, rt } => alu!(rd, !(self.reg(rs) | self.reg(rt))),
            FlatOp::Slt { rd, rs, rt } => {
                alu!(rd, u64::from((self.reg(rs) as i64) < (self.reg(rt) as i64)))
            }
            FlatOp::Sltu { rd, rs, rt } => alu!(rd, u64::from(self.reg(rs) < self.reg(rt))),
            FlatOp::Sllv { rd, rs, rt } => alu!(rd, self.reg(rs) << (self.reg(rt) & 63)),
            FlatOp::Srlv { rd, rs, rt } => alu!(rd, self.reg(rs) >> (self.reg(rt) & 63)),
            FlatOp::Srav { rd, rs, rt } => {
                alu!(rd, ((self.reg(rs) as i64) >> (self.reg(rt) & 63)) as u64)
            }
            FlatOp::Mul { rd, rs, rt } => alu!(rd, self.reg(rs).wrapping_mul(self.reg(rt))),
            FlatOp::Div { rd, rs, rt } => {
                let (a, b) = (self.reg(rs) as i64, self.reg(rt) as i64);
                if b == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                let v = a.checked_div(b).ok_or(TrapCause::IntegerOverflow)?;
                alu!(rd, v as u64)
            }
            FlatOp::Divu { rd, rs, rt } => {
                let b = self.reg(rt);
                if b == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                alu!(rd, self.reg(rs) / b)
            }
            FlatOp::Rem { rd, rs, rt } => {
                let (a, b) = (self.reg(rs) as i64, self.reg(rt) as i64);
                if b == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                let v = a.checked_rem(b).ok_or(TrapCause::IntegerOverflow)?;
                alu!(rd, v as u64)
            }
            FlatOp::Remu { rd, rs, rt } => {
                let b = self.reg(rt);
                if b == 0 {
                    return Err(TrapCause::DivideByZero);
                }
                alu!(rd, self.reg(rs) % b)
            }
            FlatOp::Addiu { rd, rs, imm } => alu!(rd, self.reg(rs).wrapping_add(imm)),
            FlatOp::Andi { rd, rs, imm } => alu!(rd, self.reg(rs) & imm),
            FlatOp::Ori { rd, rs, imm } => alu!(rd, self.reg(rs) | imm),
            FlatOp::Xori { rd, rs, imm } => alu!(rd, self.reg(rs) ^ imm),
            FlatOp::Slti { rd, rs, imm } => alu!(rd, u64::from((self.reg(rs) as i64) < imm)),
            FlatOp::Sltiu { rd, rs, imm } => alu!(rd, u64::from(self.reg(rs) < imm)),
            FlatOp::Li { rd, v } => alu!(rd, v),
            FlatOp::Sll { rd, rs, sh } => alu!(rd, self.reg(rs) << sh),
            FlatOp::Srl { rd, rs, sh } => alu!(rd, self.reg(rs) >> sh),
            FlatOp::Sra { rd, rs, sh } => alu!(rd, ((self.reg(rs) as i64) >> sh) as u64),
            FlatOp::Beq { rs, rt, target } => branch!(self.reg(rs) == self.reg(rt), target),
            FlatOp::Bne { rs, rt, target } => branch!(self.reg(rs) != self.reg(rt), target),
            FlatOp::Blez { rs, target } => branch!(self.reg(rs) as i64 <= 0, target),
            FlatOp::Bgtz { rs, target } => branch!(self.reg(rs) as i64 > 0, target),
            FlatOp::Bltz { rs, target } => branch!((self.reg(rs) as i64) < 0, target),
            FlatOp::Bgez { rs, target } => branch!(self.reg(rs) as i64 >= 0, target),
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
                // Two source instructions in one dispatch: the compare
                // still writes `rd`, then the branch tests its result.
                // The fall-through is `pc + 2` — past both instructions.
                let a = self.reg(rs);
                let v = if imm_form {
                    if signed {
                        u64::from((a as i64) < imm)
                    } else {
                        u64::from(a < imm as u64)
                    }
                } else {
                    let b = self.reg(rt);
                    if signed {
                        u64::from((a as i64) < (b as i64))
                    } else {
                        u64::from(a < b)
                    }
                };
                self.set_reg(rd, v);
                Ok(if (v != 0) == branch_if {
                    target
                } else {
                    pc + 2
                })
            }
            FlatOp::J { target } => Ok(target),
            FlatOp::Jal { target } => {
                self.set_reg(cheri_isa::RA, next);
                Ok(target)
            }
            FlatOp::Jr { rs } => Ok(self.reg(rs)),
            FlatOp::Jalr { rd, rs } => {
                // Read the target before writing the link: `jalr r, r`
                // must jump to the register's old value.
                let target = self.reg(rs);
                self.set_reg(rd, next);
                Ok(target)
            }
            FlatOp::Load {
                rd,
                base,
                off,
                width,
                signed,
                via_cap,
            } => self
                .exec_load(rd, base, off, width, signed, via_cap)
                .map(|()| next),
            FlatOp::Store {
                rv,
                base,
                off,
                width,
                via_cap,
            } => self
                .exec_store(rv, base, off, width, via_cap)
                .map(|()| next),
            FlatOp::Clc { cd, cb, off } => self.exec_clc(cd, cb, off).map(|()| next),
            FlatOp::Csc { cs, cb, off } => self.exec_csc(cs, cb, off).map(|()| next),
            FlatOp::CIncOffset { cd, cb, rt } => {
                self.caps[cd as usize] = self.caps[cb as usize].inc_offset(self.reg(rt) as i64)?;
                Ok(next)
            }
            FlatOp::CIncOffsetImm { cd, cb, imm } => {
                self.caps[cd as usize] = self.caps[cb as usize].inc_offset(imm)?;
                Ok(next)
            }
            FlatOp::CSetOffset { cd, cb, rt } => {
                self.caps[cd as usize] = self.caps[cb as usize].set_offset(self.reg(rt))?;
                Ok(next)
            }
            FlatOp::CSetBounds { cd, cb, rt } => {
                self.caps[cd as usize] = self.caps[cb as usize].set_bounds(self.reg(rt))?;
                Ok(next)
            }
            FlatOp::CAndPerm { cd, cb, rt } => {
                self.caps[cd as usize] =
                    self.caps[cb as usize].and_perms(Perms::from_bits(self.reg(rt) as u16))?;
                Ok(next)
            }
            FlatOp::CClearTag { cd, cb } => {
                self.caps[cd as usize] = self.caps[cb as usize].clear_tag();
                Ok(next)
            }
            FlatOp::CMove { cd, cb } => {
                self.caps[cd as usize] = self.caps[cb as usize];
                Ok(next)
            }
            FlatOp::CGetBase { rd, cb } => alu!(rd, self.caps[cb as usize].base()),
            FlatOp::CGetLen { rd, cb } => alu!(rd, self.caps[cb as usize].length()),
            FlatOp::CGetOffset { rd, cb } => alu!(rd, self.caps[cb as usize].offset()),
            FlatOp::CGetPerm { rd, cb } => alu!(rd, self.caps[cb as usize].perms().bits() as u64),
            FlatOp::CGetTag { rd, cb } => alu!(rd, u64::from(self.caps[cb as usize].tag())),
            FlatOp::CPtrCmp { rd, cb, ct, sel } => {
                let r = ptr_cmp(&self.caps[cb as usize], &self.caps[ct as usize]);
                let v = match sel {
                    CmpOp::Eq => r.ordering == Ordering::Equal,
                    CmpOp::Ne => r.ordering != Ordering::Equal,
                    CmpOp::Lt | CmpOp::Ltu => r.ordering == Ordering::Less,
                    CmpOp::Le | CmpOp::Leu => r.ordering != Ordering::Greater,
                };
                alu!(rd, u64::from(v))
            }
            FlatOp::CToPtr { rd, cb, ct } => {
                alu!(rd, self.caps[cb as usize].to_ptr(&self.caps[ct as usize]))
            }
            FlatOp::Other(i) => self.execute_at(i, pc),
        }
    }

    /// `CLC cd, off(cb)`: loads the capability at `cb + off` into `cd`.
    /// The full 32-byte granule stays reserved in either format (bounds
    /// check); only the stored bytes travel through the cache — half as
    /// many in Cap128 mode.
    #[inline]
    pub(crate) fn exec_clc(&mut self, cd: u8, cb: u8, off: i32) -> Result<(), TrapCause> {
        let addr = self.cap_addr(
            cb,
            off,
            CAP_SIZE_BYTES as u64,
            Perms::LOAD | Perms::LOAD_CAP,
        )?;
        let c = self.mem.read_cap(addr)?;
        self.charge_mem(addr, self.cfg.cap_format.stored_bytes(), false);
        self.caps[cd as usize] = c;
        Ok(())
    }

    /// `CSC cs, off(cb)`: stores capability register `cs` at `cb + off`,
    /// with its tag.
    #[inline]
    pub(crate) fn exec_csc(&mut self, cs: u8, cb: u8, off: i32) -> Result<(), TrapCause> {
        let addr = self.cap_addr(
            cb,
            off,
            CAP_SIZE_BYTES as u64,
            Perms::STORE | Perms::STORE_CAP,
        )?;
        self.mem.write_cap(addr, &self.caps[cs as usize])?;
        self.charge_mem(addr, self.cfg.cap_format.stored_bytes(), true);
        Ok(())
    }

    #[inline]
    pub(crate) fn exec_load(
        &mut self,
        rd: u8,
        base: u8,
        imm: i32,
        width: u8,
        signed: bool,
        via_cap: bool,
    ) -> Result<(), TrapCause> {
        let addr = if via_cap {
            self.cap_addr(base, imm, width as u64, Perms::LOAD)?
        } else {
            self.legacy_addr(base, imm, width as u64, Perms::LOAD)?
        };
        let v = self.load(addr, width, signed)?;
        self.set_reg(rd, v);
        Ok(())
    }

    #[inline]
    pub(crate) fn exec_store(
        &mut self,
        rv: u8,
        base: u8,
        imm: i32,
        width: u8,
        via_cap: bool,
    ) -> Result<(), TrapCause> {
        let addr = if via_cap {
            self.cap_addr(base, imm, width as u64, Perms::STORE)?
        } else {
            self.legacy_addr(base, imm, width as u64, Perms::STORE)?
        };
        self.store(addr, width, self.reg(rv))
    }

    fn syscall(&mut self, n: i32) -> Result<(), TrapCause> {
        let a0 = self.reg(cheri_isa::A0);
        match n {
            sys::EXIT => {
                self.halted = Some(a0 as i64);
                Ok(())
            }
            sys::PUTCHAR => {
                self.output.push(a0 as u8);
                Ok(())
            }
            sys::PUTINT => {
                self.output
                    .extend_from_slice((a0 as i64).to_string().as_bytes());
                Ok(())
            }
            sys::MALLOC => {
                // alloc_cap keeps byte-granular bounds where the format
                // allows and widens to the padded representable block in
                // Cap128 mode (> 64 KiB objects only).
                match self.heap.alloc_cap(a0, Perms::data()) {
                    Ok(cap) => {
                        self.set_reg(cheri_isa::V0, cap.base());
                        self.caps[cabi::CV0 as usize] = cap;
                    }
                    Err(_) => {
                        self.set_reg(cheri_isa::V0, 0);
                        self.caps[cabi::CV0 as usize] = Capability::null();
                    }
                }
                Ok(())
            }
            sys::FREE => {
                self.heap.free(a0)?;
                Ok(())
            }
            sys::CLOCK => {
                // The guest reads the clock: fold in the pending charges.
                self.sync_timing();
                self.set_reg(cheri_isa::V0, self.cycles);
                Ok(())
            }
            sys::MEMCPY => {
                let len = self.reg(cheri_isa::A2);
                let (dst, src) = if self.caps[cabi::CA0 as usize].tag() {
                    let d = self.caps[cabi::CA0 as usize].check_access(len, Perms::STORE)?;
                    let s = self.caps[(cabi::CA0 + 1) as usize].check_access(len, Perms::LOAD)?;
                    (d, s)
                } else {
                    let d = self.reg(cheri_isa::A0);
                    let s = self.reg(cheri_isa::A1);
                    if d < NULL_GUARD_SIZE || s < NULL_GUARD_SIZE {
                        return Err(TrapCause::NullGuard { addr: d.min(s) });
                    }
                    (d, s)
                };
                if len > 0 {
                    self.mem.memcpy(dst, src, len)?;
                    // A software copy loop costs ~4 cycles/byte on the
                    // scalar in-order softcore (load, store, index, branch)
                    // on top of the cache traffic charged below.
                    self.cycles += len * 4;
                    let mut a = 0;
                    while a < len {
                        let chunk = (len - a).min(32);
                        self.charge_mem(src + a, chunk, false);
                        self.charge_mem(dst + a, chunk, true);
                        a += 32;
                    }
                }
                Ok(())
            }
            other => Err(TrapCause::BadSyscall(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_isa::{A0, V0};

    fn run_prog_with(code: Vec<Instr>, cfg: VmConfig) -> Result<(ExitStatus, Vm), VmTrap> {
        let mut p = Program::new();
        p.code = code;
        let mut vm = Vm::new(p, cfg);
        let status = vm.run(1_000_000)?;
        Ok((status, vm))
    }

    fn run_prog(code: Vec<Instr>) -> Result<(ExitStatus, Vm), VmTrap> {
        run_prog_with(code, VmConfig::functional())
    }

    #[test]
    fn exit_code_flows_through() {
        let (s, _) = run_prog(vec![Instr::li(A0, 7), Instr::syscall(sys::EXIT)]).unwrap();
        assert_eq!(s.code, 7);
    }

    /// A guest that stores state, hits its `break` ready marker, and then
    /// serves from that state: forking a snapshot taken at the marker is
    /// bit-identical to cloning the whole machine.
    #[test]
    fn snapshot_fork_matches_full_clone() {
        let code = vec![
            Instr::li(8, 0x2000),
            Instr::li(9, 123),
            Instr::mem(Op::Sd, 9, 8, 0),
            Instr::new(Op::Break, 0, 0, 0, 0), // ready marker
            Instr::mem(Op::Ld, 10, 8, 0),
            Instr::r3(Op::Addu, A0, 10, 0),
            Instr::syscall(sys::EXIT),
        ];
        let mut p = Program::new();
        p.code = code;
        let mut vm = Vm::new(p, VmConfig::fpga());
        let trap = vm.run(1_000_000).unwrap_err();
        assert_eq!(trap.cause, TrapCause::Breakpoint);
        vm.set_pc(trap.pc + 1);

        let snap = vm.snapshot();
        let mut cloned = vm.clone();
        let mut forked = snap.fork();
        let a = cloned.run(1_000_000).unwrap();
        let b = forked.run(1_000_000).unwrap();
        assert_eq!((a.code, b.code), (123, 123));
        let (sa, sb) = (cloned.stats(), forked.stats());
        assert_eq!(sa.instret, sb.instret);
        assert_eq!(sa.cycles, sb.cycles);
        assert_eq!(sa.fetch_checks, sb.fetch_checks);
        assert_eq!(sa.cache, sb.cache);
        for r in 0..32 {
            assert_eq!(cloned.reg(r), forked.reg(r), "reg {r}");
            assert_eq!(cloned.cap(r), forked.cap(r), "cap {r}");
        }
        assert_eq!(cloned.output(), forked.output());
        // Forks are independent: running one does not perturb the image.
        let mut again = snap.fork();
        assert_eq!(again.run(1_000_000).unwrap().code, 123);
        assert!(snap.warm_bytes() > 0);
        assert!(snap.warm_bytes() < snap.config().mem_size);
    }

    /// A guest whose ready marker sits inside a call, run to the marker
    /// on `backend`: the machine to snapshot. Serving returns through a
    /// call made before the snapshot.
    fn warmed(backend: crate::BackendKind) -> Vm {
        let mut p = Program::new();
        p.code = vec![
            Instr::new(Op::Jal, 0, 0, 0, 3),
            Instr::r3(Op::Addu, A0, 10, 0), // pc 1: the return point
            Instr::syscall(sys::EXIT),
            Instr::li(8, 0x2000), // pc 3: the callee
            Instr::li(9, 123),
            Instr::mem(Op::Sd, 9, 8, 0),
            Instr::new(Op::Break, 0, 0, 0, 0), // ready marker
            Instr::mem(Op::Ld, 10, 8, 0),      // pc 7: resume
            Instr::i2(Op::Addiu, 10, 10, 1),
            Instr::new(Op::Bne, 0, 10, 0, 11), // to the return
            Instr::new(Op::J, 0, 0, 0, 7),     // never taken
            Instr::new(Op::Jr, 0, cheri_isa::RA, 0, 0),
        ];
        let mut vm = Vm::new(p, VmConfig::fpga().with_backend(backend));
        let trap = vm.run(1_000_000).unwrap_err();
        assert_eq!(trap.cause, TrapCause::Breakpoint);
        vm.set_pc(trap.pc + 1);
        vm
    }

    fn table_addr(vm: &Vm) -> usize {
        vm.backend.as_ref().expect("backend attached").table_addr()
    }

    #[test]
    fn forks_serve_from_the_shared_precompiled_table() {
        for backend in crate::BackendKind::ALL {
            let vm = warmed(backend);
            let snap = vm.snapshot();
            // The request path (pcs 7, 11 and the return point 1) was
            // never run before the snapshot, yet the snapshot compiled it.
            assert!(
                snap.shell.compiled_blocks() > vm.compiled_blocks(),
                "{backend:?}"
            );
            let mut fork = snap.fork();
            let mut cold = vm.clone();
            assert_eq!(fork.run(1_000).unwrap().code, 124, "{backend:?}");
            assert_eq!(cold.run(1_000).unwrap().code, 124, "{backend:?}");
            // Serving compiled nothing and linked nothing: the fork still
            // shares the snapshot's table.
            assert_eq!(
                fork.compiled_blocks(),
                snap.shell.compiled_blocks(),
                "{backend:?}"
            );
            assert_eq!(table_addr(&fork), table_addr(&snap.shell), "{backend:?}");
            // Op counts come from the fork's own counters and equal those
            // of a machine that compiled on demand.
            let (sf, sc) = (fork.stats(), cold.stats());
            assert_eq!((sf.instret, sf.cycles), (sc.instret, sc.cycles));
            for &op in Op::ALL {
                assert_eq!(sf.op_count(op), sc.op_count(op), "{backend:?}: {op:?}");
            }
        }
    }

    #[test]
    fn a_forks_private_compile_leaves_snapshot_and_siblings_alone() {
        for backend in crate::BackendKind::ALL {
            let snap = warmed(backend).snapshot();
            let blocks = snap.shell.compiled_blocks();
            let sibling = snap.fork();
            let mut fork = snap.fork();
            // One instruction of fuel single-steps pc 7; resuming at pc 8
            // enters a block no leader starts, so the fork compiles it
            // into a private copy of the table.
            assert_eq!(fork.run(1).unwrap_err().cause, TrapCause::OutOfFuel);
            assert_eq!(fork.run(1_000).unwrap().code, 124, "{backend:?}");
            assert_eq!(fork.compiled_blocks(), blocks + 1, "{backend:?}");
            assert_ne!(table_addr(&fork), table_addr(&snap.shell));
            // The snapshot and the sibling still share the original table,
            // and the sibling serves from it unchanged.
            assert_eq!(snap.shell.compiled_blocks(), blocks);
            assert_eq!(table_addr(&sibling), table_addr(&snap.shell));
            let mut sibling = sibling;
            assert_eq!(sibling.run(1_000).unwrap().code, 124, "{backend:?}");
            assert_eq!(sibling.compiled_blocks(), blocks);
            let (sf, ss) = (fork.stats(), sibling.stats());
            assert_eq!((sf.instret, sf.cycles), (ss.instret, ss.cycles));
            for &op in Op::ALL {
                assert_eq!(sf.op_count(op), ss.op_count(op), "{backend:?}: {op:?}");
            }
        }
    }

    #[test]
    fn undersized_memories_are_layout_errors() {
        let prog = |data: usize| {
            let mut p = Program::new();
            p.code = vec![Instr::syscall(sys::EXIT)];
            p.data = vec![1; data];
            p
        };
        let cfg = VmConfig::functional();
        assert!(matches!(
            Vm::try_new(prog(16), cfg.with_mem_size(0x8000)),
            Err(LayoutError::DataSegment { .. })
        ));
        assert!(matches!(
            Vm::try_new(
                prog(16),
                VmConfig {
                    stack_size: 8,
                    ..cfg
                }
            ),
            Err(LayoutError::Stack { .. })
        ));
        // The stack reservation reaches down past the data segment.
        assert!(matches!(
            Vm::try_new(prog(16), cfg.with_mem_size(cfg.stack_size + 0x1_0000)),
            Err(LayoutError::NoHeap { .. })
        ));
        for mem in (12..=24).map(|p| 1u64 << p) {
            let _ = Vm::try_new(prog(0x2000), cfg.with_mem_size(mem));
        }
        assert!(Vm::try_new(prog(16), cfg).is_ok());
    }

    #[test]
    fn arithmetic_and_branches() {
        // Sum 1..=10 with a loop.
        let code = vec![
            Instr::li(8, 0),   // t0 = 0 (sum)
            Instr::li(9, 1),   // t1 = 1 (i)
            Instr::li(10, 10), // t2 = 10
            // loop:
            Instr::r3(Op::Addu, 8, 8, 9),     // 3: sum += i
            Instr::i2(Op::Addiu, 9, 9, 1),    // 4: i += 1
            Instr::r3(Op::Slt, 11, 10, 9),    // 5: t3 = 10 < i
            Instr::new(Op::Beq, 0, 11, 0, 3), // 6: if t3 == 0 goto 3
            Instr::r3(Op::Addu, A0, 8, 0),    // a0 = sum
            Instr::syscall(sys::EXIT),
        ];
        let (s, _) = run_prog(code).unwrap();
        assert_eq!(s.code, 55);
    }

    #[test]
    fn trapping_add_overflows() {
        let code = vec![
            Instr::li(8, i32::MAX),
            Instr::i2(Op::Sll, 8, 8, 32), // t0 = huge
            Instr::r3(Op::Add, 8, 8, 8),  // overflow
            Instr::syscall(sys::EXIT),
        ];
        let err = run_prog(code).unwrap_err();
        assert_eq!(err.cause, TrapCause::IntegerOverflow);
        assert_eq!(err.pc, 2);
    }

    #[test]
    fn wrapping_addu_does_not_trap() {
        let code = vec![
            Instr::li(8, i32::MAX),
            Instr::i2(Op::Sll, 8, 8, 32),
            Instr::r3(Op::Addu, 8, 8, 8),
            Instr::li(A0, 0),
            Instr::syscall(sys::EXIT),
        ];
        assert!(run_prog(code).is_ok());
    }

    #[test]
    fn divide_by_zero_traps() {
        let code = vec![
            Instr::li(8, 1),
            Instr::li(9, 0),
            Instr::r3(Op::Div, 8, 8, 9),
            Instr::syscall(sys::EXIT),
        ];
        assert_eq!(run_prog(code).unwrap_err().cause, TrapCause::DivideByZero);
    }

    #[test]
    fn null_dereference_hits_guard_page() {
        let code = vec![
            Instr::li(8, 0),
            Instr::mem(Op::Ld, 9, 8, 16), // load 16(0)
            Instr::syscall(sys::EXIT),
        ];
        let err = run_prog(code).unwrap_err();
        assert_eq!(err.cause, TrapCause::NullGuard { addr: 16 });
    }

    #[test]
    fn legacy_load_store_round_trip() {
        let code = vec![
            Instr::li(8, 0x8000),
            Instr::li(9, 1234),
            Instr::mem(Op::Sd, 9, 8, 8),
            Instr::mem(Op::Ld, 10, 8, 8),
            Instr::r3(Op::Addu, A0, 10, 0),
            Instr::syscall(sys::EXIT),
        ];
        let (s, _) = run_prog(code).unwrap();
        assert_eq!(s.code, 1234);
    }

    #[test]
    fn signed_loads_sign_extend() {
        let code = vec![
            Instr::li(8, 0x8000),
            Instr::li(9, -1),
            Instr::mem(Op::Sb, 9, 8, 0),
            Instr::mem(Op::Lb, 10, 8, 0),  // -1
            Instr::mem(Op::Lbu, 11, 8, 0), // 255
            Instr::r3(Op::Addu, A0, 10, 11),
            Instr::syscall(sys::EXIT),
        ];
        let (s, _) = run_prog(code).unwrap();
        assert_eq!(s.code, 254);
    }

    #[test]
    fn malloc_returns_bounded_capability() {
        let code = vec![
            Instr::li(A0, 100),
            Instr::syscall(sys::MALLOC),
            Instr::syscall(sys::EXIT),
        ];
        let (_, vm) = run_prog(code).unwrap();
        let c = vm.cap(cabi::CV0);
        assert!(c.tag());
        assert_eq!(c.length(), 100);
        assert_eq!(c.base(), vm.reg(V0));
    }

    #[test]
    fn capability_load_respects_bounds() {
        // malloc(8); then try cld at offset 8 (out of bounds).
        let code = vec![
            Instr::li(A0, 8),
            Instr::syscall(sys::MALLOC),
            Instr::mem(Op::Cld, 9, cabi::CV0, 8),
            Instr::syscall(sys::EXIT),
        ];
        let err = run_prog(code).unwrap_err();
        assert!(matches!(
            err.cause,
            TrapCause::Capability(CapError::BoundsViolation { .. })
        ));
    }

    #[test]
    fn capability_store_and_load_data() {
        let code = vec![
            Instr::li(A0, 64),
            Instr::syscall(sys::MALLOC),
            Instr::li(9, 4242),
            Instr::mem(Op::Csd, 9, cabi::CV0, 16),
            Instr::mem(Op::Cld, 10, cabi::CV0, 16),
            Instr::r3(Op::Addu, A0, 10, 0),
            Instr::syscall(sys::EXIT),
        ];
        let (s, _) = run_prog(code).unwrap();
        assert_eq!(s.code, 4242);
    }

    #[test]
    fn clc_csc_move_capabilities_with_tags() {
        // Store the malloc cap to the stack, reload into c5, use it.
        let code = vec![
            Instr::li(A0, 64),
            Instr::syscall(sys::MALLOC),
            Instr::mem(Op::Csc, cabi::CV0, cabi::CSP, -64),
            Instr::mem(Op::Clc, 5, cabi::CSP, -64),
            Instr::li(9, 9),
            Instr::mem(Op::Csd, 9, 5, 0),
            Instr::mem(Op::Cld, 10, 5, 0),
            Instr::r3(Op::Addu, A0, 10, 0),
            Instr::syscall(sys::EXIT),
        ];
        let (s, _) = run_prog(code).unwrap();
        assert_eq!(s.code, 9);
    }

    #[test]
    fn plain_store_forges_nothing() {
        // Overwrite the spilled capability with integer stores, then try to
        // load and dereference it: tag violation.
        let code = vec![
            Instr::li(A0, 64),
            Instr::syscall(sys::MALLOC),
            Instr::mem(Op::Csc, cabi::CV0, cabi::CSP, -64),
            // Scribble over the spilled capability via the stack cap.
            Instr::li(9, 0x4141),
            Instr::mem(Op::Csd, 9, cabi::CSP, -64),
            Instr::mem(Op::Clc, 5, cabi::CSP, -64),
            Instr::mem(Op::Cld, 10, 5, 0), // deref forged cap
            Instr::syscall(sys::EXIT),
        ];
        let err = run_prog(code).unwrap_err();
        assert_eq!(err.cause, TrapCause::Capability(CapError::TagViolation));
    }

    #[test]
    fn cincoffset_and_bounds_check() {
        // p = malloc(16); p += 32 (fine); *p traps.
        let code = vec![
            Instr::li(A0, 16),
            Instr::syscall(sys::MALLOC),
            Instr::li(9, 32),
            Instr::c_inc_offset(cabi::CV0, cabi::CV0, 9),
            Instr::mem(Op::Cld, 10, cabi::CV0, 0),
            Instr::syscall(sys::EXIT),
        ];
        let err = run_prog(code).unwrap_err();
        assert!(matches!(
            err.cause,
            TrapCause::Capability(CapError::BoundsViolation { .. })
        ));
    }

    #[test]
    fn candperm_enforces_input_qualifier() {
        // Derive a read-only view, writing through it traps.
        let code = vec![
            Instr::li(A0, 16),
            Instr::syscall(sys::MALLOC),
            Instr::li(9, Perms::input().bits() as i32),
            Instr::cmod(Op::CAndPerm, 5, cabi::CV0, 9),
            Instr::li(10, 1),
            Instr::mem(Op::Csd, 10, 5, 0),
            Instr::syscall(sys::EXIT),
        ];
        let err = run_prog(code).unwrap_err();
        assert_eq!(
            err.cause,
            TrapCause::Capability(CapError::PermissionViolation(Perms::STORE))
        );
    }

    #[test]
    fn cptrcmp_orders_null_before_valid() {
        let code = vec![
            Instr::li(A0, 16),
            Instr::syscall(sys::MALLOC),
            // c5 = null
            Instr::cmod(Op::CClearTag, 5, 5, 0),
            Instr::c_ptr_cmp(A0, 5, cabi::CV0, CmpOp::Ltu),
            Instr::syscall(sys::EXIT),
        ];
        let (s, _) = run_prog(code).unwrap();
        assert_eq!(s.code, 1);
    }

    #[test]
    fn cfromptr_ctoptr_round_trip() {
        let code = vec![
            Instr::li(8, 0x9000),
            Instr::cmod(Op::CFromPtr, 5, DDC, 8),
            Instr::new(Op::CToPtr, A0, 5, DDC, 0),
            Instr::syscall(sys::EXIT),
        ];
        let (s, _) = run_prog(code).unwrap();
        assert_eq!(s.code, 0x9000);
    }

    #[test]
    fn cjalr_confines_execution_to_function() {
        // Build a code capability for instructions [4, 6) and jump to it.
        // The callee returns via cjr on the link cap; then exit.
        let code = vec![
            Instr::new(Op::CGetPcc, 5, 0, 0, 0), // c5 = pcc
            Instr::li(8, 5 * 8),
            Instr::cmod(Op::CSetOffset, 5, 5, 8), // offset = callee
            Instr::new(Op::CJalr, 6, 5, 0, 0),    // call; link in c6
            Instr::new(Op::J, 0, 0, 0, 7),        // pc 4: resume -> exit
            // callee (pc 5): a0 = 77; return
            Instr::li(A0, 77),
            Instr::new(Op::CJr, 0, 6, 0, 0), // pc 6: return to pc 4
            Instr::syscall(sys::EXIT),       // pc 7
        ];
        let (s, _) = run_prog(code).unwrap();
        assert_eq!(s.code, 77);
    }

    #[test]
    fn jalr_same_register_jumps_to_old_value() {
        // jalr r8, r8: the jump target is r8's OLD value; the link (pc 2)
        // is written afterwards. The callee returns the link so we can see
        // both effects.
        let code = vec![
            Instr::li(8, 5),                  // r8 = 5 (callee)
            Instr::new(Op::Jalr, 8, 8, 0, 0), // call r8; link in r8
            Instr::li(A0, 99),                // pc 2: must be skipped
            Instr::syscall(sys::EXIT),        // pc 3
            Instr::new(Op::Nop, 0, 0, 0, 0),  // pc 4
            Instr::r3(Op::Addu, A0, 8, 0),    // pc 5: a0 = link = 2
            Instr::syscall(sys::EXIT),        // pc 6
        ];
        let (s, _) = run_prog(code).unwrap();
        assert_eq!(s.code, 2, "jalr must use the pre-link register value");
    }

    #[test]
    fn cjalr_link_underflow_traps_cleanly() {
        // A sandbox PCC whose base exceeds the return address: the link
        // capability cannot represent a negative offset, so CJALR must
        // trap instead of underflowing (which panicked in debug builds).
        let mut p = Program::new();
        p.code = vec![Instr::new(Op::Nop, 0, 0, 0, 0)];
        let mut vm = Vm::new(p, VmConfig::functional());
        vm.pcc = Capability::new_mem(0x100, 0x100, Perms::code());
        vm.caps[5] = Capability::new_mem(0, 64, Perms::code());
        let err = vm
            .execute_at(Instr::new(Op::CJalr, 6, 5, 0, 0), 0)
            .unwrap_err();
        assert_eq!(err, TrapCause::PccBounds { pc: 1 });
    }

    #[test]
    fn cjr_misaligned_target_traps() {
        // Offset 4 into the code: silently truncating to addr/8 would land
        // on the PREVIOUS instruction. It must trap instead.
        let code = vec![
            Instr::new(Op::CGetPcc, 5, 0, 0, 0),
            Instr::li(8, 4),
            Instr::cmod(Op::CSetOffset, 5, 5, 8),
            Instr::new(Op::CJr, 0, 5, 0, 0),
            Instr::syscall(sys::EXIT),
        ];
        let err = run_prog(code).unwrap_err();
        assert_eq!(err.cause, TrapCause::PccMisaligned { addr: 4 });
        assert_eq!(err.pc, 3);
    }

    #[test]
    fn cjalr_misaligned_target_traps() {
        let mut p = Program::new();
        p.code = vec![Instr::new(Op::Nop, 0, 0, 0, 0)];
        let mut vm = Vm::new(p, VmConfig::functional());
        vm.caps[5] = Capability::new_mem(0, 64, Perms::code())
            .set_offset(12)
            .unwrap();
        let err = vm
            .execute_at(Instr::new(Op::CJalr, 6, 5, 0, 0), 0)
            .unwrap_err();
        assert_eq!(err, TrapCause::PccMisaligned { addr: 12 });
    }

    #[test]
    fn straight_line_code_validates_pcc_once() {
        // The sum-1..=10 loop retires dozens of instructions, branches
        // included, but never leaves the PCC's validated window: exactly
        // one full set_offset/check_access, at the first fetch.
        let code = vec![
            Instr::li(8, 0),
            Instr::li(9, 1),
            Instr::li(10, 10),
            Instr::r3(Op::Addu, 8, 8, 9),
            Instr::i2(Op::Addiu, 9, 9, 1),
            Instr::r3(Op::Slt, 11, 10, 9),
            Instr::new(Op::Beq, 0, 11, 0, 3),
            Instr::r3(Op::Addu, A0, 8, 0),
            Instr::syscall(sys::EXIT),
        ];
        let (s, _) = run_prog(code).unwrap();
        assert_eq!(s.code, 55);
        assert!(s.stats.instret > 40);
        assert_eq!(
            s.stats.fetch_checks, 1,
            "straight-line fetches must be range compares, not PCC checks"
        );
    }

    #[test]
    fn pcc_writes_invalidate_the_fetch_window() {
        // The cjalr call/return example: initial fetch + one revalidation
        // after CJALR + one after the returning CJR = 3 full checks.
        let code = vec![
            Instr::new(Op::CGetPcc, 5, 0, 0, 0),
            Instr::li(8, 5 * 8),
            Instr::cmod(Op::CSetOffset, 5, 5, 8),
            Instr::new(Op::CJalr, 6, 5, 0, 0),
            Instr::new(Op::J, 0, 0, 0, 7),
            Instr::li(A0, 77),
            Instr::new(Op::CJr, 0, 6, 0, 0),
            Instr::syscall(sys::EXIT),
        ];
        let (s, _) = run_prog(code).unwrap();
        assert_eq!(s.code, 77);
        assert_eq!(s.stats.fetch_checks, 3);
    }

    #[test]
    fn narrowed_pcc_window_still_confines_execution() {
        // Jump into a PCC restricted to instructions [4, 6): the run cache
        // must not let the pc walk past the window's end.
        let code = vec![
            Instr::new(Op::CGetPcc, 5, 0, 0, 0),
            Instr::li(8, 4 * 8),
            Instr::cmod(Op::CSetOffset, 5, 5, 8), // offset = 4*8
            Instr::new(Op::CJr, 0, 5, 0, 0),      // enter narrowed window
            Instr::li(A0, 1),                     // pc 4
            Instr::i2(Op::Addiu, A0, A0, 1),      // pc 5; pc 6 is out
            Instr::syscall(sys::EXIT),            // pc 6: never reached...
            Instr::syscall(sys::EXIT),
        ];
        // Narrow the capability in c5 before the jump: base 4*8, len 16.
        let mut p = Program::new();
        p.code = code;
        let mut vm = Vm::new(p, VmConfig::functional());
        // Run to just before the CJr, then narrow c5 by hand.
        for _ in 0..3 {
            vm.step().unwrap();
        }
        let narrowed = vm.cap(5).set_bounds(16).unwrap();
        vm.set_cap(5, narrowed);
        let err = vm.run(100).unwrap_err();
        assert!(
            matches!(err.cause, TrapCause::PccBounds { pc: 6 }),
            "got {:?}",
            err.cause
        );
        assert_eq!(vm.reg(cheri_isa::A0), 2, "both in-window instrs ran");
    }

    /// Representative programs (successful and trapping) behave identically
    /// under 256-bit and 128-bit capability storage.
    #[test]
    fn cap128_vm_matches_cap256_on_core_programs() {
        let programs: Vec<(&str, Vec<Instr>)> = vec![
            ("exit", vec![Instr::li(A0, 7), Instr::syscall(sys::EXIT)]),
            (
                "malloc_oob_load",
                vec![
                    Instr::li(A0, 8),
                    Instr::syscall(sys::MALLOC),
                    Instr::mem(Op::Cld, 9, cabi::CV0, 8),
                    Instr::syscall(sys::EXIT),
                ],
            ),
            (
                "cap_store_load",
                vec![
                    Instr::li(A0, 64),
                    Instr::syscall(sys::MALLOC),
                    Instr::li(9, 4242),
                    Instr::mem(Op::Csd, 9, cabi::CV0, 16),
                    Instr::mem(Op::Cld, 10, cabi::CV0, 16),
                    Instr::r3(Op::Addu, A0, 10, 0),
                    Instr::syscall(sys::EXIT),
                ],
            ),
            (
                "clc_csc_round_trip",
                vec![
                    Instr::li(A0, 64),
                    Instr::syscall(sys::MALLOC),
                    Instr::mem(Op::Csc, cabi::CV0, cabi::CSP, -64),
                    Instr::mem(Op::Clc, 5, cabi::CSP, -64),
                    Instr::li(9, 9),
                    Instr::mem(Op::Csd, 9, 5, 0),
                    Instr::mem(Op::Cld, 10, 5, 0),
                    Instr::r3(Op::Addu, A0, 10, 0),
                    Instr::syscall(sys::EXIT),
                ],
            ),
            (
                "forged_cap_traps",
                vec![
                    Instr::li(A0, 64),
                    Instr::syscall(sys::MALLOC),
                    Instr::mem(Op::Csc, cabi::CV0, cabi::CSP, -64),
                    Instr::li(9, 0x4141),
                    Instr::mem(Op::Csd, 9, cabi::CSP, -64),
                    Instr::mem(Op::Clc, 5, cabi::CSP, -64),
                    Instr::mem(Op::Cld, 10, 5, 0),
                    Instr::syscall(sys::EXIT),
                ],
            ),
            (
                "cjalr_call_return",
                vec![
                    Instr::new(Op::CGetPcc, 5, 0, 0, 0),
                    Instr::li(8, 5 * 8),
                    Instr::cmod(Op::CSetOffset, 5, 5, 8),
                    Instr::new(Op::CJalr, 6, 5, 0, 0),
                    Instr::new(Op::J, 0, 0, 0, 7),
                    Instr::li(A0, 77),
                    Instr::new(Op::CJr, 0, 6, 0, 0),
                    Instr::syscall(sys::EXIT),
                ],
            ),
            (
                "null_guard",
                vec![
                    Instr::li(8, 0),
                    Instr::mem(Op::Ld, 9, 8, 16),
                    Instr::syscall(sys::EXIT),
                ],
            ),
            (
                "bad_free",
                vec![
                    Instr::li(A0, 0x1234),
                    Instr::syscall(sys::FREE),
                    Instr::syscall(sys::EXIT),
                ],
            ),
        ];
        let cap128 = VmConfig::functional().with_cap_format(CapFormat::Cap128);
        for (name, code) in programs {
            let a = run_prog(code.clone()).map(|(s, vm)| (s.code, vm.output_string()));
            let b = run_prog_with(code, cap128).map(|(s, vm)| (s.code, vm.output_string()));
            assert_eq!(a, b, "{name}: Cap128 diverged from Cap256");
        }
    }

    #[test]
    fn cap128_vm_tracks_compression_stats() {
        let code = vec![
            Instr::li(A0, 64),
            Instr::syscall(sys::MALLOC),
            Instr::mem(Op::Csc, cabi::CV0, cabi::CSP, -64),
            Instr::li(A0, 0),
            Instr::syscall(sys::EXIT),
        ];
        let cap128 = VmConfig::functional().with_cap_format(CapFormat::Cap128);
        let (s, _) = run_prog_with(code.clone(), cap128).unwrap();
        let comp = s.stats.compression.expect("Cap128 machines report stats");
        assert_eq!((comp.attempts, comp.successes), (1, 1));
        let (s, _) = run_prog(code).unwrap();
        assert!(s.stats.compression.is_none(), "Cap256 machines do not");
    }

    #[test]
    fn output_collects_text() {
        let code = vec![
            Instr::li(A0, 'h' as i32),
            Instr::syscall(sys::PUTCHAR),
            Instr::li(A0, 'i' as i32),
            Instr::syscall(sys::PUTCHAR),
            Instr::li(A0, 42),
            Instr::syscall(sys::PUTINT),
            Instr::li(A0, 0),
            Instr::syscall(sys::EXIT),
        ];
        let (_, vm) = run_prog(code).unwrap();
        assert_eq!(vm.output_string(), "hi42");
    }

    #[test]
    fn fuel_exhaustion_is_a_trap() {
        let mut p = Program::new();
        p.code = vec![Instr::new(Op::J, 0, 0, 0, 0)]; // spin
        let mut vm = Vm::new(p, VmConfig::functional());
        let err = vm.run(100).unwrap_err();
        assert_eq!(err.cause, TrapCause::OutOfFuel);
    }

    #[test]
    fn pc_escape_is_caught() {
        let code = vec![Instr::new(Op::J, 0, 0, 0, 1000)];
        let err = run_prog(code).unwrap_err();
        assert!(matches!(err.cause, TrapCause::PccBounds { .. }));
    }

    #[test]
    fn malloc_of_minus_one_returns_null() {
        // malloc((size_t)-1) must fail cleanly, not panic the host while
        // padding the request.
        for cfg in [
            VmConfig::functional(),
            VmConfig::functional().with_cap_format(CapFormat::Cap128),
        ] {
            let code = vec![
                Instr::li(A0, -1),
                Instr::syscall(sys::MALLOC),
                Instr::r3(Op::Addu, A0, V0, 0),
                Instr::syscall(sys::EXIT),
            ];
            let (s, vm) = run_prog_with(code, cfg).unwrap();
            assert_eq!(s.code, 0);
            assert!(vm.cap(cabi::CV0).is_null());
        }
    }

    #[test]
    fn free_of_garbage_traps() {
        let code = vec![
            Instr::li(A0, 0x1234),
            Instr::syscall(sys::FREE),
            Instr::syscall(sys::EXIT),
        ];
        let err = run_prog(code).unwrap_err();
        assert!(matches!(err.cause, TrapCause::Memory(_)));
    }

    #[test]
    fn stats_count_ops_and_cycles() {
        let (s, _) = run_prog(vec![
            Instr::li(A0, 1),
            Instr::li(A0, 2),
            Instr::syscall(sys::EXIT),
        ])
        .unwrap();
        assert_eq!(s.stats.instret, 3);
        assert_eq!(s.stats.op_count(Op::Li), 2);
        assert!(s.stats.cycles >= 3);
        assert_eq!(s.stats.capability_instructions(), 0);
    }

    /// Everything observable about a finished machine, for comparing the
    /// block dispatcher against single-stepping.
    fn fingerprint(vm: &Vm) -> (u64, u64, u64, Vec<u64>, Vec<u64>, String) {
        let s = vm.stats();
        let ops: Vec<u64> = Op::ALL.iter().map(|&o| s.op_count(o)).collect();
        let regs: Vec<u64> = (0..32).map(|r| vm.reg(r)).collect();
        (
            s.instret,
            s.cycles,
            s.fetch_checks,
            ops,
            regs,
            vm.output_string(),
        )
    }

    /// Replicates the pre-superinstruction `run` loop exactly.
    fn run_by_stepping(vm: &mut Vm, fuel: u64) -> Result<i64, VmTrap> {
        for _ in 0..fuel {
            if let Some(code) = vm.halted {
                return Ok(code);
            }
            vm.step()?;
        }
        if let Some(code) = vm.halted {
            return Ok(code);
        }
        Err(VmTrap {
            pc: vm.pc,
            cause: TrapCause::OutOfFuel,
        })
    }

    /// The tentpole warranty: block dispatch retires the same
    /// instructions, charges the same cycles, takes the same traps and
    /// counts the same per-op statistics as the per-instruction
    /// interpreter — including fuel exhaustion mid-block and traps
    /// mid-block, with and without the cache model.
    #[test]
    fn block_dispatch_is_bit_identical_to_single_stepping() {
        let sum_loop = vec![
            Instr::li(8, 0),
            Instr::li(9, 1),
            Instr::li(10, 1000),
            Instr::r3(Op::Addu, 8, 8, 9),
            Instr::i2(Op::Addiu, 9, 9, 1),
            Instr::r3(Op::Slt, 11, 10, 9),
            Instr::new(Op::Beq, 0, 11, 0, 3),
            Instr::r3(Op::Addu, A0, 8, 0),
            Instr::syscall(sys::EXIT),
        ];
        let call_return = vec![
            Instr::new(Op::CGetPcc, 5, 0, 0, 0),
            Instr::li(8, 5 * 8),
            Instr::cmod(Op::CSetOffset, 5, 5, 8),
            Instr::new(Op::CJalr, 6, 5, 0, 0),
            Instr::new(Op::J, 0, 0, 0, 7),
            Instr::li(A0, 77),
            Instr::new(Op::CJr, 0, 6, 0, 0),
            Instr::syscall(sys::EXIT),
        ];
        let trap_mid_block = vec![
            Instr::li(8, i32::MAX),
            Instr::i2(Op::Sll, 8, 8, 32),
            Instr::i2(Op::Addiu, 9, 9, 3),
            Instr::r3(Op::Add, 8, 8, 8), // overflows
            Instr::syscall(sys::EXIT),
        ];
        let memory_and_caps = vec![
            Instr::li(A0, 64),
            Instr::syscall(sys::MALLOC),
            Instr::li(9, 4242),
            Instr::mem(Op::Csd, 9, cabi::CV0, 16),
            Instr::mem(Op::Cld, 10, cabi::CV0, 16),
            Instr::mem(Op::Csc, cabi::CV0, cabi::CSP, -64),
            Instr::mem(Op::Clc, 5, cabi::CSP, -64),
            Instr::li(8, 0x8000),
            Instr::mem(Op::Sd, 10, 8, 0),
            Instr::mem(Op::Ld, 11, 8, 0),
            Instr::r3(Op::Addu, A0, 11, 0),
            Instr::syscall(sys::EXIT),
        ];
        let div_by_zero = vec![
            Instr::li(8, 1),
            Instr::li(9, 0),
            Instr::r3(Op::Div, 8, 8, 9),
            Instr::syscall(sys::EXIT),
        ];
        let spin = vec![Instr::i2(Op::Addiu, 8, 8, 1), Instr::new(Op::J, 0, 0, 0, 0)];
        let straight = {
            let mut v = vec![Instr::i2(Op::Addiu, 8, 8, 1); 100];
            v.push(Instr::syscall(sys::EXIT));
            v
        };
        let cases: Vec<(&str, Vec<Instr>, VmConfig, u64)> = vec![
            (
                "sum_loop",
                sum_loop.clone(),
                VmConfig::functional(),
                100_000,
            ),
            ("sum_loop_fpga", sum_loop, VmConfig::fpga(), 100_000),
            ("call_return", call_return, VmConfig::functional(), 100_000),
            (
                "trap_mid_block",
                trap_mid_block.clone(),
                VmConfig::functional(),
                100_000,
            ),
            (
                "trap_mid_block_fpga",
                trap_mid_block,
                VmConfig::fpga(),
                100_000,
            ),
            (
                "memory_and_caps",
                memory_and_caps.clone(),
                VmConfig::fpga(),
                100_000,
            ),
            (
                "memory_and_caps_128",
                memory_and_caps.clone(),
                VmConfig::fpga().with_cap_format(CapFormat::Cap128),
                100_000,
            ),
            (
                "memory_and_caps_16b_line",
                memory_and_caps.clone(),
                VmConfig::fpga().with_l1_line_bytes(16),
                100_000,
            ),
            (
                "memory_and_caps_128_16b_line",
                memory_and_caps,
                VmConfig::fpga()
                    .with_cap_format(CapFormat::Cap128)
                    .with_l1_line_bytes(16),
                100_000,
            ),
            ("div_by_zero", div_by_zero, VmConfig::functional(), 100_000),
            ("fuel_exhaustion", spin.clone(), VmConfig::functional(), 17),
            ("fuel_mid_block", straight, VmConfig::functional(), 50),
            ("fuel_zero", spin, VmConfig::functional(), 0),
        ];
        for (name, code, cfg, fuel) in cases {
            let mut p = Program::new();
            p.code = code;
            let mut blocked = Vm::new(p.clone(), cfg);
            let ra = blocked.run(fuel).map(|s| s.code);
            let mut stepped = Vm::new(p, cfg);
            let rb = run_by_stepping(&mut stepped, fuel);
            assert_eq!(ra, rb, "{name}: outcome diverged");
            assert_eq!(blocked.pc, stepped.pc, "{name}: final pc diverged");
            assert_eq!(
                fingerprint(&blocked),
                fingerprint(&stepped),
                "{name}: stats diverged"
            );
            if let Some(h) = &blocked.cache {
                // CacheStats equality covers the per-edge traffic ledger.
                assert_eq!(
                    h.hierarchy().stats(),
                    stepped.cache.as_ref().unwrap().hierarchy().stats(),
                    "{name}: cache stats diverged"
                );
            }
        }
    }

    #[test]
    fn zero_length_memcpy_charges_no_cache_access() {
        // memcpy(dst, src, 0) must not touch the cache model at all.
        let code = vec![
            Instr::li(cheri_isa::A0, 0x8000),
            Instr::li(cheri_isa::A1, 0x9000),
            Instr::li(cheri_isa::A2, 0),
            Instr::syscall(sys::MEMCPY),
            Instr::li(cheri_isa::A0, 0),
            Instr::syscall(sys::EXIT),
        ];
        let (s, _) = run_prog_with(code, VmConfig::fpga()).unwrap();
        let cache = s.stats.cache.expect("fpga config has a cache model");
        assert_eq!(cache.l1_hits + cache.l1_misses, 0);
        assert_eq!(cache.cycles, 0);
    }

    #[test]
    fn traffic_ledger_reaches_vm_stats() {
        // A cold load drags one L2 line from DRAM and one L1 line from L2;
        // the per-edge ledger must surface through VmStats.
        let code = vec![
            Instr::li(8, 0x8000),
            Instr::mem(Op::Ld, 9, 8, 0),
            Instr::li(A0, 0),
            Instr::syscall(sys::EXIT),
        ];
        let (s, _) = run_prog_with(code, VmConfig::fpga()).unwrap();
        let cache = s.stats.cache.expect("fpga config has a cache model");
        let cfg = VmConfig::fpga().cache.unwrap();
        assert_eq!(cache.traffic.l2_dram.fill_bytes, cfg.l2.line_bytes);
        assert_eq!(cache.traffic.l1_l2.fill_bytes, cfg.l1.line_bytes);
        assert_eq!(cache.traffic.l2_dram.writeback_bytes, 0);
    }

    #[test]
    fn narrow_l1_line_halves_cap128_store_traffic() {
        // One CSC on a cold line: with 16-byte L1 lines a 16-byte Cap128
        // store fills one line where the 32-byte Cap256 store fills two —
        // the line-granularity rounding the bandwidth model removes.
        let code = vec![
            Instr::mem(Op::Csc, cabi::CSP, cabi::CSP, -64),
            Instr::li(A0, 0),
            Instr::syscall(sys::EXIT),
        ];
        let fills = |format: CapFormat| {
            let cfg = VmConfig::fpga()
                .with_cap_format(format)
                .with_l1_line_bytes(16);
            let (s, _) = run_prog_with(code.clone(), cfg).unwrap();
            s.stats.cache.unwrap().traffic.l1_l2.fill_bytes
        };
        let wide = fills(CapFormat::Cap256);
        let narrow = fills(CapFormat::Cap128);
        assert_eq!(wide - narrow, 16, "Cap128 spills one fewer 16-byte line");
    }

    #[test]
    fn cache_model_charges_more_for_cold_misses() {
        let mut p = Program::new();
        p.code = vec![
            Instr::li(8, 0x8000),
            Instr::mem(Op::Ld, 9, 8, 0),
            Instr::li(A0, 0),
            Instr::syscall(sys::EXIT),
        ];
        let mut cold = Vm::new(p.clone(), VmConfig::fpga());
        let cold_cycles = cold.run(100).unwrap().stats.cycles;
        let mut flat = Vm::new(p, VmConfig::functional());
        let flat_cycles = flat.run(100).unwrap().stats.cycles;
        assert!(cold_cycles > flat_cycles);
    }
}
