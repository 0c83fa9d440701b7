//! The per-opcode semantics table: for every [`Op`], one or more edge
//! cases with their literal outcome — next pc or trap cause, and every
//! integer register, capability register, PCC, memory byte and tag the op
//! writes. Each row runs as a one-op block body bound by
//! [`crate::backend::bind`] for both backend kinds; the reference binds the
//! op to `Vm::exec_flat` over `flatten`, exactly what `Vm::step` executes
//! after its fetch. The row lookup is an
//! exhaustive `match` on [`Op`], so a new opcode does not compile without
//! a row. Every load width × signedness × addressing mode and every store
//! width × addressing mode has rows for its extension, its tag clearing,
//! and the edges of the null guard, of its capability's bounds and of
//! memory.

use crate::backend::{bind, exec};
use crate::ir::flatten;
use crate::{sys, BackendKind, TrapCause, Vm, VmConfig};
use cheri_cap::{CapError, Capability, Perms};
use cheri_isa::{CmpOp, Instr, Op, Program, DDC};
use cheri_mem::MemError;

/// The pc every row executes at.
const P: u64 = 4;
const MIN: u64 = i64::MIN as u64;
const MAX: u64 = u64::MAX;
/// The size of the machine's memory: one past its last byte.
const END: u64 = 16 << 20;
/// The memory bytes every row checks whole: the data capability's.
const WINDOW: (u64, u64) = (0x8000, 0x100);

/// The code capability the machine boots with: 16 instructions.
fn code() -> Capability {
    Capability::new_mem(0, 16 * 8, Perms::code())
}

fn data() -> Capability {
    Capability::new_mem(0x8000, 0x100, Perms::data())
}

/// The authority to seal and unseal object type 9.
fn authority() -> Capability {
    Capability::new_mem(0, 16, Perms::SEAL)
        .set_offset(9)
        .unwrap()
}

fn sealed() -> Capability {
    data().seal(&authority()).unwrap()
}

/// A capability reaching past the end of memory, so an access there gets
/// past the capability check to the memory's own.
fn beyond() -> Capability {
    Capability::new_mem(0, 2 * END, Perms::all())
}

/// The standard machine every row starts from:
///
/// * `r2` = 0xD0 (the usual destination), `a0` = 24, `r8` = `i64::MIN`,
///   `r9` = -1, `r10` = 0x20, `r11` = 63, `r12` = 64, `r13` = 0x8000,
///   `r14` = 7, `r15` = the memory's size.
/// * `c5` = data capability `[0x8000, 0x8100)`, `c6` = `c5` untagged,
///   `c7` = `c5` sealed with object type 9, `c8` = the code capability
///   at offset 0x10, `c9` = the sealing authority for type 9.
/// * Memory: `0x8081828384858687` at 0x8000, `0x8000_0000_0000_8000` at
///   0x8020 (so `0x80`, `0x8000` and `0x8000_0000` sit at 0x8021, 0x8020
///   and 0x8024), and `c5`, tagged, at 0x8040 and at 0x8060.
fn machine() -> Vm {
    let mut p = Program::new();
    p.code = vec![Instr::new(Op::Nop, 0, 0, 0, 0); 16];
    let mut vm = Vm::new(p, VmConfig::functional());
    assert_eq!(vm.config().mem_size, END);
    let regs = [
        (2, 0xD0),
        (4, 24),
        (8, MIN),
        (9, MAX),
        (10, 0x20),
        (11, 63),
        (12, 64),
        (13, 0x8000),
        (14, 7),
        (15, END),
    ];
    for (r, v) in regs {
        vm.set_reg(r, v);
    }
    vm.set_cap(5, data());
    vm.set_cap(6, data().clear_tag());
    vm.set_cap(7, sealed());
    vm.set_cap(8, at(code(), 0x10));
    vm.set_cap(9, authority());
    vm.mem_mut()
        .write_u64(0x8000, 0x8081_8283_8485_8687)
        .unwrap();
    vm.mem_mut()
        .write_u64(0x8020, 0x8000_0000_0000_8000)
        .unwrap();
    vm.mem_mut().write_cap(0x8040, &data()).unwrap();
    vm.mem_mut().write_cap(0x8060, &data()).unwrap();
    vm
}

/// One case: an instruction, an optional tweak to the standard machine,
/// and the literal outcome. Registers, capabilities, the PCC, the bytes of
/// [`WINDOW`] and the tags not named must come out unchanged.
struct Row {
    instr: Instr,
    setup: fn(&mut Vm),
    next: Result<u64, TrapCause>,
    regs: Vec<(u8, u64)>,
    caps: Vec<(u8, Capability)>,
    pcc: Option<Capability>,
    /// Bytes written: each run of bytes at its address.
    mem: Vec<(u64, Vec<u8>)>,
    /// Granules whose tag the op clears.
    untag: Vec<u64>,
}

/// A row that falls through to `P + 1` unless told otherwise.
fn ok(instr: Instr) -> Row {
    Row {
        instr,
        setup: |_| {},
        next: Ok(P + 1),
        regs: Vec::new(),
        caps: Vec::new(),
        pcc: None,
        mem: Vec::new(),
        untag: Vec::new(),
    }
}

/// A row that traps with `cause` and changes nothing.
fn trap(instr: Instr, cause: impl Into<TrapCause>) -> Row {
    Row {
        next: Err(cause.into()),
        ..ok(instr)
    }
}

impl Row {
    fn to(mut self, pc: u64) -> Row {
        self.next = Ok(pc);
        self
    }

    fn reg(mut self, r: u8, v: u64) -> Row {
        self.regs.push((r, v));
        self
    }

    fn cap(mut self, c: u8, v: Capability) -> Row {
        self.caps.push((c, v));
        self
    }

    fn pcc(mut self, c: Capability) -> Row {
        self.pcc = Some(c);
        self
    }

    /// The 8-byte word at `addr` reads `v`.
    fn mem(self, addr: u64, v: u64) -> Row {
        self.bytes(addr, &v.to_le_bytes())
    }

    fn bytes(mut self, addr: u64, b: &[u8]) -> Row {
        self.mem.push((addr, b.to_vec()));
        self
    }

    fn untag(mut self, granule: u64) -> Row {
        self.untag.push(granule);
        self
    }

    fn setup(mut self, f: fn(&mut Vm)) -> Row {
        self.setup = f;
        self
    }

    /// The DDC reaches past the end of memory.
    fn wide_ddc(self) -> Row {
        self.setup(|vm| vm.set_cap(DDC, beyond()))
    }

    /// `c10` reaches past the end of memory.
    fn wide_c10(self) -> Row {
        self.setup(|vm| vm.set_cap(10, beyond()))
    }
}

fn at(c: Capability, offset: u64) -> Capability {
    c.set_offset(offset).unwrap()
}

/// The rows for `op`. Exhaustive on purpose: no wildcard arm.
#[allow(clippy::too_many_lines)]
fn rows(op: Op) -> Vec<Row> {
    let r3 = |rd, rs, rt| Instr::r3(op, rd, rs, rt);
    let i2 = |rd, rs, imm| Instr::i2(op, rd, rs, imm);
    let mem = |rd, base, off| Instr::mem(op, rd, base, off);
    let new = |rd, rs, rt, imm| Instr::new(op, rd, rs, rt, imm);
    let bounds = |addr, len| CapError::BoundsViolation { addr, len };
    match op {
        Op::Nop => vec![ok(new(0, 0, 0, 0))],
        Op::Syscall => vec![
            trap(Instr::syscall(0xFFFF), TrapCause::BadSyscall(0xFFFF)),
            // malloc(24): the first block of the heap, which starts 0x100
            // past the (empty) data segment at 0x10000.
            ok(Instr::syscall(sys::MALLOC))
                .reg(2, 0x10100)
                .cap(1, Capability::new_mem(0x10100, 24, Perms::data())),
        ],
        Op::Break => vec![trap(new(0, 0, 0, 0), TrapCause::Breakpoint)],
        Op::Add => vec![
            trap(r3(2, 8, 9), TrapCause::IntegerOverflow),
            ok(r3(2, 14, 9)).reg(2, 6),
        ],
        Op::Addu => vec![ok(r3(2, 8, 9)).reg(2, 0x7FFF_FFFF_FFFF_FFFF)],
        Op::Sub => vec![trap(r3(2, 8, 14), TrapCause::IntegerOverflow)],
        Op::Subu => vec![ok(r3(2, 8, 14)).reg(2, 0x7FFF_FFFF_FFFF_FFF9)],
        Op::And => vec![ok(r3(2, 8, 9)).reg(2, MIN)],
        Op::Or => vec![ok(r3(2, 8, 14)).reg(2, 0x8000_0000_0000_0007)],
        Op::Xor => vec![ok(r3(2, 8, 9)).reg(2, 0x7FFF_FFFF_FFFF_FFFF)],
        Op::Nor => vec![ok(r3(2, 8, 14)).reg(2, 0x7FFF_FFFF_FFFF_FFF8)],
        // Each compare has a row where signed and unsigned disagree.
        Op::Slt => vec![ok(r3(2, 8, 9)).reg(2, 1), ok(r3(2, 9, 14)).reg(2, 1)],
        Op::Sltu => vec![ok(r3(2, 9, 8)).reg(2, 0), ok(r3(2, 14, 9)).reg(2, 1)],
        // Shift amounts come from the low six bits: 64 shifts by 0.
        Op::Sllv => vec![ok(r3(2, 9, 12)).reg(2, MAX), ok(r3(2, 9, 11)).reg(2, MIN)],
        Op::Srlv => vec![ok(r3(2, 9, 11)).reg(2, 1), ok(r3(2, 9, 12)).reg(2, MAX)],
        Op::Srav => vec![ok(r3(2, 8, 11)).reg(2, MAX), ok(r3(2, 8, 12)).reg(2, MIN)],
        Op::Mul => vec![ok(r3(2, 8, 9)).reg(2, MIN)],
        Op::Div => vec![
            trap(r3(2, 8, 9), TrapCause::IntegerOverflow),
            trap(r3(2, 14, 0), TrapCause::DivideByZero),
        ],
        Op::Divu => vec![
            trap(r3(2, 8, 0), TrapCause::DivideByZero),
            ok(r3(2, 9, 14)).reg(2, 0x2492_4924_9249_2492),
        ],
        Op::Rem => vec![
            trap(r3(2, 8, 9), TrapCause::IntegerOverflow),
            ok(r3(2, 8, 14)).reg(2, MAX),
        ],
        Op::Remu => vec![
            trap(r3(2, 8, 0), TrapCause::DivideByZero),
            ok(r3(2, 8, 14)).reg(2, 1),
        ],
        Op::Addi => vec![trap(i2(2, 8, -1), TrapCause::IntegerOverflow)],
        Op::Addiu => vec![ok(i2(2, 13, -1)).reg(2, 0x7FFF)],
        // Logical immediates zero-extend from 32 bits.
        Op::Andi => vec![ok(i2(2, 9, -1)).reg(2, 0xFFFF_FFFF)],
        Op::Ori => vec![
            ok(i2(2, 8, 0xFFFF)).reg(2, 0x8000_0000_0000_FFFF),
            ok(i2(2, 8, -1)).reg(2, 0x8000_0000_FFFF_FFFF),
        ],
        Op::Xori => vec![ok(i2(2, 9, -1)).reg(2, 0xFFFF_FFFF_0000_0000)],
        Op::Slti => vec![ok(i2(2, 8, -1)).reg(2, 1), ok(i2(2, 9, 0)).reg(2, 1)],
        // `sltiu` sign-extends its immediate, then compares unsigned: -1
        // is `u64::MAX`, not `0xFFFF_FFFF`.
        Op::Sltiu => vec![
            ok(i2(2, 9, -1)).reg(2, 0),
            ok(i2(2, 8, -1)).reg(2, 1),
            ok(i2(2, 9, 1)).reg(2, 0),
        ],
        Op::Lui => vec![ok(new(2, 0, 0, -1)).reg(2, 0xFFFF_FFFF_FFFF_0000)],
        Op::Li => vec![ok(Instr::li(2, i32::MIN)).reg(2, 0xFFFF_FFFF_8000_0000)],
        Op::Sll => vec![ok(i2(2, 14, 63)).reg(2, MIN)],
        Op::Srl => vec![ok(i2(2, 8, 63)).reg(2, 1)],
        Op::Sra => vec![ok(i2(2, 8, 64)).reg(2, MIN), ok(i2(2, 8, 63)).reg(2, MAX)],
        Op::Beq => vec![ok(new(0, 8, 8, 12)).to(12)],
        Op::Bne => vec![ok(new(0, 9, 9, 12))],
        // The one-operand branches ignore their `rt` field (r9 = -1).
        Op::Blez => vec![
            ok(new(0, 0, 0, 12)).to(12),
            ok(new(0, 0, 9, 12)).to(12),
            ok(new(0, 14, 9, 12)),
        ],
        Op::Bgtz => vec![ok(new(0, 8, 0, 12)), ok(new(0, 14, 9, 12)).to(12)],
        Op::Bltz => vec![
            ok(new(0, 8, 0, 12)).to(12),
            ok(new(0, 9, 9, 12)).to(12),
            ok(new(0, 14, 9, 12)),
        ],
        Op::Bgez => vec![ok(new(0, 9, 0, 12)), ok(new(0, 14, 9, 12)).to(12)],
        Op::J => vec![ok(new(0, 0, 0, 12)).to(12)],
        Op::Jal => vec![ok(new(0, 0, 0, 12)).to(12).reg(cheri_isa::RA, P + 1)],
        Op::Jr => vec![ok(new(0, 14, 0, 0)).to(7)],
        // `jalr r, r` jumps to the register's old value.
        Op::Jalr => vec![ok(new(14, 14, 0, 0)).to(7).reg(14, P + 1)],
        // Loads: sign versus zero extension of 0x80, 0x8000 and
        // 0x8000_0000; the null guard's last byte against the first byte
        // past it; the last byte of memory against one byte past it.
        Op::Lb => vec![
            ok(mem(2, 13, 0)).reg(2, 0xFFFF_FFFF_FFFF_FF87),
            ok(mem(2, 13, 0x21)).reg(2, 0xFFFF_FFFF_FFFF_FF80),
            trap(mem(2, 0, 0xFFF), TrapCause::NullGuard { addr: 0xFFF }),
            ok(mem(2, 0, 0x1000)).reg(2, 0),
        ],
        Op::Lbu => vec![
            ok(mem(2, 13, 1)).reg(2, 0x86),
            ok(mem(2, 13, 0x21)).reg(2, 0x80),
            ok(mem(2, 15, -1)).reg(2, 0).wide_ddc(),
        ],
        Op::Lh => vec![
            ok(mem(2, 13, 6)).reg(2, 0xFFFF_FFFF_FFFF_8081),
            ok(mem(2, 13, 0x20)).reg(2, 0xFFFF_FFFF_FFFF_8000),
        ],
        Op::Lhu => vec![
            ok(mem(2, 13, 0)).reg(2, 0x8687),
            ok(mem(2, 13, 0x20)).reg(2, 0x8000),
            trap(
                mem(2, 15, -1),
                MemError::OutOfRange {
                    addr: END - 1,
                    len: 2,
                },
            )
            .wide_ddc(),
            // Without the wide DDC, its bounds stop the access first.
            trap(mem(2, 15, -1), bounds(END - 1, 2)),
        ],
        Op::Lw => vec![
            ok(mem(2, 13, 4)).reg(2, 0xFFFF_FFFF_8081_8283),
            ok(mem(2, 13, 0x24)).reg(2, 0xFFFF_FFFF_8000_0000),
        ],
        Op::Lwu => vec![
            ok(mem(2, 13, 0)).reg(2, 0x8485_8687),
            ok(mem(2, 13, 0x24)).reg(2, 0x8000_0000),
        ],
        Op::Ld => vec![
            trap(mem(2, 10, 0), TrapCause::NullGuard { addr: 0x20 }),
            ok(mem(2, 13, 0x20)).reg(2, 0x8000_0000_0000_8000),
            ok(mem(2, 15, -8)).reg(2, 0).wide_ddc(),
            trap(
                mem(2, 15, -7),
                MemError::OutOfRange {
                    addr: END - 7,
                    len: 8,
                },
            )
            .wide_ddc(),
        ],
        // Stores: inside a tagged granule (clearing exactly its tag),
        // across two tagged granules (clearing both), the null guard and
        // the end of memory.
        Op::Sb => vec![
            ok(mem(9, 13, 8)).mem(0x8008, 0xFF),
            ok(mem(9, 13, 0x48)).bytes(0x8048, &[0xFF]).untag(0x8040),
            trap(mem(9, 0, 0xFFF), TrapCause::NullGuard { addr: 0xFFF }),
            ok(mem(9, 0, 0x1000)).bytes(0x1000, &[0xFF]),
            ok(mem(9, 15, -1)).bytes(END - 1, &[0xFF]).wide_ddc(),
        ],
        Op::Sh => vec![
            ok(mem(9, 13, 8)).mem(0x8008, 0xFFFF),
            ok(mem(9, 13, 0x5F))
                .bytes(0x805F, &[0xFF; 2])
                .untag(0x8040)
                .untag(0x8060),
            trap(
                mem(9, 15, -1),
                MemError::OutOfRange {
                    addr: END - 1,
                    len: 2,
                },
            )
            .wide_ddc(),
        ],
        Op::Sw => vec![
            ok(mem(9, 13, 8)).mem(0x8008, 0xFFFF_FFFF),
            ok(mem(9, 13, 0x5E))
                .bytes(0x805E, &[0xFF; 4])
                .untag(0x8040)
                .untag(0x8060),
        ],
        Op::Sd => vec![
            ok(mem(8, 13, 8)).mem(0x8008, MIN),
            ok(mem(9, 13, 0x5C))
                .bytes(0x805C, &[0xFF; 8])
                .untag(0x8040)
                .untag(0x8060),
            trap(mem(9, 0, 0x10), TrapCause::NullGuard { addr: 0x10 }),
            ok(mem(9, 15, -8)).bytes(END - 8, &[0xFF; 8]).wide_ddc(),
            trap(
                mem(9, 15, -7),
                MemError::OutOfRange {
                    addr: END - 7,
                    len: 8,
                },
            )
            .wide_ddc(),
        ],
        // Capability loads and stores: the same extensions and tags, and
        // an access ending exactly at the capability's top against one
        // byte past it.
        Op::Clb => vec![
            ok(mem(2, 5, 0)).reg(2, 0xFFFF_FFFF_FFFF_FF87),
            ok(mem(2, 5, 0x21)).reg(2, 0xFFFF_FFFF_FFFF_FF80),
        ],
        Op::Clbu => vec![
            ok(mem(2, 5, 0xFF)).reg(2, 0),
            ok(mem(2, 5, 0x21)).reg(2, 0x80),
            ok(mem(2, 10, END as i32 - 1)).reg(2, 0).wide_c10(),
        ],
        Op::Clh => vec![
            trap(mem(2, 5, 0xFF), bounds(0x80FF, 2)),
            ok(mem(2, 5, 0xFE)).reg(2, 0),
            ok(mem(2, 5, 0x20)).reg(2, 0xFFFF_FFFF_FFFF_8000),
        ],
        Op::Clhu => vec![
            trap(mem(2, 6, 0), CapError::TagViolation),
            ok(mem(2, 5, 0x20)).reg(2, 0x8000),
            trap(
                mem(2, 10, END as i32 - 1),
                MemError::OutOfRange {
                    addr: END - 1,
                    len: 2,
                },
            )
            .wide_c10(),
        ],
        Op::Clw => vec![
            trap(mem(2, 7, 0), CapError::SealViolation),
            ok(mem(2, 5, 0x24)).reg(2, 0xFFFF_FFFF_8000_0000),
        ],
        Op::Clwu => vec![
            ok(mem(2, 5, 4)).reg(2, 0x8081_8283),
            ok(mem(2, 5, 0x24)).reg(2, 0x8000_0000),
            ok(mem(2, 5, 0xFC)).reg(2, 0),
            trap(mem(2, 5, 0xFD), bounds(0x80FD, 4)),
        ],
        // A negative displacement wraps below the base.
        Op::Cld => vec![
            trap(mem(2, 5, -8), bounds(0x7FF8, 8)),
            ok(mem(2, 5, 0x20)).reg(2, 0x8000_0000_0000_8000),
            ok(mem(2, 5, 0xF8)).reg(2, 0),
            trap(mem(2, 5, 0xF9), bounds(0x80F9, 8)),
        ],
        Op::Csb => vec![
            ok(mem(9, 5, 0x10)).mem(0x8010, 0xFF),
            ok(mem(9, 5, 0x48)).bytes(0x8048, &[0xFF]).untag(0x8040),
            ok(mem(9, 10, END as i32 - 1))
                .bytes(END - 1, &[0xFF])
                .wide_c10(),
        ],
        Op::Csh => vec![
            trap(mem(9, 8, 0), CapError::PermissionViolation(Perms::STORE)),
            ok(mem(9, 5, 0x5F))
                .bytes(0x805F, &[0xFF; 2])
                .untag(0x8040)
                .untag(0x8060),
            trap(
                mem(9, 10, END as i32 - 1),
                MemError::OutOfRange {
                    addr: END - 1,
                    len: 2,
                },
            )
            .wide_c10(),
        ],
        Op::Csw => vec![
            trap(mem(9, 6, 0), CapError::TagViolation),
            ok(mem(9, 5, 0x5E))
                .bytes(0x805E, &[0xFF; 4])
                .untag(0x8040)
                .untag(0x8060),
            ok(mem(9, 5, 0xFC)).bytes(0x80FC, &[0xFF; 4]),
            trap(mem(9, 5, 0xFD), bounds(0x80FD, 4)),
        ],
        Op::Csd => vec![
            ok(mem(8, 5, 0x18)).mem(0x8018, MIN),
            ok(mem(9, 5, 0x5C))
                .bytes(0x805C, &[0xFF; 8])
                .untag(0x8040)
                .untag(0x8060),
            ok(mem(9, 5, 0xF8)).bytes(0x80F8, &[0xFF; 8]),
            trap(mem(9, 5, 0xF9), bounds(0x80F9, 8)),
        ],
        Op::Clc => vec![ok(mem(3, 5, 0x40)).cap(3, data())],
        Op::Csc => vec![trap(mem(5, 5, 8), MemError::Misaligned { addr: 0x8008 })],
        Op::CIncBase => {
            vec![ok(r3(3, 5, 10)).cap(3, Capability::new_mem(0x8020, 0xE0, Perms::data()))]
        }
        Op::CSetLen => vec![trap(r3(3, 5, 9), CapError::MonotonicityViolation)],
        Op::CAndPerm => vec![ok(r3(3, 5, 14)).cap(
            3,
            Capability::new_mem(0x8000, 0x100, Perms::LOAD | Perms::STORE),
        )],
        Op::CIncOffset => vec![ok(r3(3, 5, 9)).cap(3, at(data(), MAX))],
        Op::CIncOffsetImm => vec![trap(new(3, 7, 0, 1), CapError::SealViolation)],
        // Untagged capabilities may still move.
        Op::CSetOffset => vec![ok(r3(3, 6, 13)).cap(3, at(data(), 0x8000).clear_tag())],
        Op::CSetBounds => {
            vec![ok(r3(3, 5, 10)).cap(3, Capability::new_mem(0x8000, 0x20, Perms::data()))]
        }
        Op::CClearTag => vec![ok(new(3, 5, 0, 0)).cap(3, data().clear_tag())],
        Op::CMove => vec![ok(new(3, 7, 0, 0)).cap(3, sealed())],
        Op::CGetBase => vec![ok(new(2, 5, 0, 0)).reg(2, 0x8000)],
        Op::CGetLen => vec![ok(new(2, 7, 0, 0)).reg(2, 0x100)],
        Op::CGetOffset => vec![ok(new(2, 8, 0, 0)).reg(2, 0x10)],
        Op::CGetPerm => vec![ok(new(2, 9, 0, 0)).reg(2, u64::from(Perms::SEAL.bits()))],
        Op::CGetTag => vec![ok(new(2, 6, 0, 0)).reg(2, 0)],
        // Untagged sorts below tagged at the same address.
        Op::CPtrCmp => vec![ok(Instr::c_ptr_cmp(2, 6, 5, CmpOp::Ltu)).reg(2, 1)],
        Op::CFromPtr => vec![
            ok(r3(3, 6, 0)).cap(3, Capability::null()),
            trap(r3(3, 6, 13), CapError::TagViolation),
        ],
        Op::CToPtr => vec![
            ok(new(2, 5, 0, 0)).reg(2, 0x8000),
            ok(new(2, 6, 0, 0)).reg(2, 0),
        ],
        Op::CSeal => vec![trap(
            new(3, 5, 5, 0),
            CapError::PermissionViolation(Perms::SEAL),
        )],
        Op::CUnseal => vec![ok(new(3, 7, 9, 0)).cap(3, data())],
        Op::CJr => vec![
            ok(new(0, 8, 0, 0)).to(2).pcc(at(code(), 0x10)),
            trap(
                new(0, 5, 0, 0),
                CapError::PermissionViolation(Perms::EXECUTE),
            ),
        ],
        Op::CJalr => vec![
            ok(new(3, 8, 0, 0))
                .to(2)
                .pcc(at(code(), 0x10))
                .cap(3, at(code(), (P + 1) * 8)),
            // The return address lies below the PCC's base: no link
            // capability can hold it.
            trap(new(3, 8, 0, 0), TrapCause::PccBounds { pc: P + 1 }).setup(|vm| {
                vm.set_pcc(Capability::new_mem(0x100, 0x100, Perms::code()));
            }),
            trap(new(3, 8, 0, 0), TrapCause::PccMisaligned { addr: 12 })
                .setup(|vm| vm.set_cap(8, at(code(), 12))),
        ],
        Op::CGetPcc => vec![ok(new(3, 0, 0, 0)).cap(3, code())],
    }
}

/// Runs `instr` at `P` as a one-op block bound for `kind`.
fn exec_on(kind: BackendKind, vm: &mut Vm, instr: Instr) -> Result<u64, TrapCause> {
    exec(&[bind(kind, &flatten(instr))], vm, P).map_err(|(pc, cause)| {
        assert_eq!(pc, P, "a one-op block traps at its only op");
        cause
    })
}

#[test]
fn every_opcode_has_its_literal_outcome_on_both_backends() {
    for &op in Op::ALL {
        for (i, row) in rows(op).into_iter().enumerate() {
            assert_eq!(row.instr.op, op, "row {i} of {op:?} runs another opcode");
            for kind in BackendKind::ALL {
                let what = format!("{op:?} row {i} on {kind:?}");
                let mut vm = machine();
                (row.setup)(&mut vm);
                let mut regs: Vec<u64> = (0..32).map(|r| vm.reg(r)).collect();
                let mut caps: Vec<Capability> = (0..32).map(|c| vm.cap(c)).collect();
                let pcc = row.pcc.unwrap_or(vm.pcc());
                let mut window = vm.mem().read_bytes(WINDOW.0, WINDOW.1).unwrap().to_vec();
                for (addr, b) in &row.mem {
                    if let Some(at) = addr.checked_sub(WINDOW.0) {
                        if let Some(dst) = window.get_mut(at as usize..at as usize + b.len()) {
                            dst.copy_from_slice(b);
                        }
                    }
                }
                let mut tags: Vec<u64> = vm.mem().tagged_granules().collect();
                tags.retain(|g| !row.untag.contains(g));
                for &(r, v) in &row.regs {
                    regs[r as usize] = v;
                }
                for &(c, v) in &row.caps {
                    caps[c as usize] = v;
                }
                assert_eq!(exec_on(kind, &mut vm, row.instr), row.next, "{what}");
                for r in 0..32 {
                    assert_eq!(vm.reg(r), regs[r as usize], "{what}: r{r}");
                    assert_eq!(vm.cap(r), caps[r as usize], "{what}: c{r}");
                }
                assert_eq!(vm.pcc(), pcc, "{what}: pcc");
                for (addr, b) in &row.mem {
                    let got = vm.mem().read_bytes(*addr, b.len() as u64).unwrap();
                    assert_eq!(got, &b[..], "{what}: [{addr:#x}]");
                }
                let got = vm.mem().read_bytes(WINDOW.0, WINDOW.1).unwrap();
                assert_eq!(got, &window[..], "{what}: bytes of {WINDOW:x?}");
                let got: Vec<u64> = vm.mem().tagged_granules().collect();
                assert_eq!(got, tags, "{what}: tagged granules");
            }
        }
    }
}
