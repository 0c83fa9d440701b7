//! A cycle-approximate emulator for the CHERI ISA.
//!
//! This crate stands in for the paper's CHERI softcore processor
//! (synthesized at 100 MHz on a Stratix IV FPGA, §4): it executes
//! [`cheri_isa`] programs over [`cheri_mem::TaggedMemory`], enforcing the
//! capability model on every access and charging cycles through a
//! [`cheri_cache::Hierarchy`] configured like the paper's 16 KB L1 / 64 KB
//! L2.
//!
//! Design points taken from the paper:
//!
//! * Memory is reached three ways (§4): instruction fetch via **PCC**,
//!   legacy MIPS loads/stores via the **default data capability** (DDC,
//!   `c0`), and explicit capability loads/stores.
//! * `add`/`sub`/`addi` trap on signed overflow, the hardware-assisted
//!   As-if-Infinitely-Ranged behaviour sketched in §3.1.1.
//! * A low guard page is unmapped so that PDP-11-style null dereferences
//!   fault, modelling conventional page protection.
//!
//! # Example
//!
//! ```
//! use cheri_isa::{Instr, Op, Program};
//! use cheri_vm::{Vm, VmConfig};
//!
//! let mut p = Program::new();
//! p.code = vec![
//!     Instr::li(4, 41),                       // a0 = 41
//!     Instr::i2(Op::Addiu, 4, 4, 1),          // a0 += 1
//!     Instr::r3(Op::Addu, 2, 4, 0),           // v0 = a0
//!     Instr::syscall(0),                      // exit(v0)
//! ];
//! let mut vm = Vm::new(p, VmConfig::default());
//! let exit = vm.run(1_000).unwrap();
//! assert_eq!(exit.code, 42);
//! ```

#![forbid(unsafe_code)]

mod alu;
mod backend;
mod config;
mod ir;
mod machine;
#[cfg(test)]
mod op_table;
mod opt;
mod timing;
mod trap;

pub use config::{BackendKind, OptLevel, VmConfig, NULL_GUARD_SIZE};
pub use machine::{ExitStatus, LayoutError, Vm, VmSnapshot, VmStats};
pub use trap::{TrapCause, VmTrap};

// Re-exported so a VM can be configured without naming cheri-cap/cheri-mem,
// and so multi-core hosts can share a memory system without naming
// cheri-cache.
pub use cheri_cache::{CacheStats, SharedHierarchy};
pub use cheri_cap::CapFormat;
pub use cheri_mem::UnrepresentablePolicy;

/// Syscall numbers understood by the emulator's tiny runtime.
pub mod sys {
    /// `exit(a0)` — halt with exit code.
    pub const EXIT: i32 = 0;
    /// `putchar(a0)` — append one byte to the console.
    pub const PUTCHAR: i32 = 1;
    /// `putint(a0)` — print a signed decimal and no newline.
    pub const PUTINT: i32 = 2;
    /// `malloc(a0) -> v0` (address) and `c1` (bounded capability).
    pub const MALLOC: i32 = 3;
    /// `free(a0)`.
    pub const FREE: i32 = 4;
    /// `clock() -> v0` — cycles so far.
    pub const CLOCK: i32 = 5;
    /// `memcpy(dst, src, len)` — tag-preserving copy, as the hardware's
    /// capability-oblivious `memcpy` behaves (paper §4). Capability ABIs
    /// pass bounded capabilities in `c3`/`c4` (checked); the MIPS ABI
    /// passes addresses in `a0`/`a1`.
    pub const MEMCPY: i32 = 6;
}
