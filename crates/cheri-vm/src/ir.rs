//! The block IR: straight-line basic blocks of flattened micro-ops.
//!
//! At first execution of an entry pc the predecoded `Vec<Instr>` is grouped
//! into a straight-line **block** — the maximal run of instructions ending
//! at the first control transfer ([`Op::ends_block`]) or at the end of the
//! code image. Each instruction is *flattened* into a [`FlatOp`]: register
//! indices and immediates pre-resolved (sign/zero extension done once,
//! shift amounts masked, load/store width/signedness/addressing unified,
//! the `CPtrCmp` selector decoded), so the block engine executes the whole
//! block without per-step fetch-window compares or per-op statistics.
//!
//! Flattening also strips the opcode from integer work. The 28 integer
//! ALU opcodes become [`FlatOp::Alu`] or [`FlatOp::AluImm`] with an
//! [`Alu`] selector, and the six conditional branches become
//! [`FlatOp::Branch`] with a [`Cond`]. Each immediate opcode lands on its
//! register twin (`addi` on `add`, `ori` on `or`, `sll` on `sllv`), so
//! the value, overflow, divide-by-zero and branch decision of every
//! integer op live only in [`Alu::eval`] and [`Cond::holds`]
//! ([`crate::alu`]).
//!
//! The IR is decoupled from dispatch: a [`Block`] carries everything the
//! engine needs — the micro-ops, the raw opcode array and histogram for
//! statistics reconstruction, the hoisted base-cycle sum, and a
//! [`BlockExit`] describing the static successor targets (which the
//! template tier's chaining uses to jump block-to-block without
//! re-entering the dispatch match). The [`crate::opt`] peephole pass rewrites `ops` in
//! place; `raw`, `hist` and `base_cycles` always describe the *source*
//! instructions, which is what keeps retirement counts and cycle charges
//! bit-identical whether or not a rewrite fired.
//!
//! Statistics are hoisted to per-block counters: a completed block bumps
//! one execution counter and adds one precomputed base-cycle sum; the
//! per-opcode retirement counts that `VmStats` reports are reconstructed
//! from each block's opcode histogram times its execution count (plus the
//! residual counts accumulated by single-stepping and partial blocks).
//! Only *base* cycles are hoisted: cache-model costs — per-edge
//! latency + bandwidth charges and the `TrafficStats` byte ledger under
//! the bandwidth-aware hierarchy — are data-dependent and stay inside the
//! per-op memory helpers, so block dispatch drives the identical access
//! sequence through the identical model and the identity suites can pin
//! cycles, cache stats and the traffic ledger bit-for-bit against
//! single-stepping.
//!
//! Blocks hold only instruction *indices* and immutable code, so a PCC
//! write never makes a cached block wrong — it makes it *unreachable*
//! until revalidated. Validation rides the machine's cached fetch window:
//! writing the PCC empties the window, and the next block entry performs
//! the same one full `set_offset` + `check_access` the per-instruction
//! interpreter would, keeping `VmStats::fetch_checks` identical.

use crate::alu::{Alu, Cond};
use cheri_isa::{CmpOp, ControlKind, Instr, Op};

/// One flattened micro-op, with its operands decoded at build time.
/// `machine::Vm::exec_flat` is the one place that gives them meaning,
/// for block bodies and single steps alike.
///
/// Integer ops and conditional branches come in three shapes that carry
/// a selector ([`Alu`] or [`Cond`]) instead of one variant per opcode:
/// the register form, the immediate form (the immediate already
/// extended, shift amounts already masked) and the branch.
/// [`FlatOp::FusedCmpBranch`] is the one op with no 1:1 source
/// instruction: the peephole pass synthesises it from a compare + branch
/// pair (see [`crate::opt`]). Memory and capability ops keep a variant
/// each, with loads and stores unified by width and addressing mode.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FlatOp {
    Nop,
    /// `rd = f(rs, rt)`.
    Alu {
        f: Alu,
        rd: u8,
        rs: u8,
        rt: u8,
    },
    /// `rd = f(rs, imm)`, `imm` sign- or zero-extended as the source
    /// opcode says, or a shift amount masked to six bits.
    AluImm {
        f: Alu,
        rd: u8,
        rs: u8,
        imm: u64,
    },
    /// `li` and `lui` collapse to a pre-computed constant load.
    Li {
        rd: u8,
        v: u64,
    },
    // Branches and jumps: absolute targets pre-cast to instruction
    // indices. These are always a block's terminal op.
    /// Branch to `target` when `c` holds for `rs` and `rt` (`r0` for the
    /// one-operand forms).
    Branch {
        c: Cond,
        rs: u8,
        rt: u8,
        target: u64,
    },
    J {
        target: u64,
    },
    Jal {
        target: u64,
    },
    Jr {
        rs: u8,
    },
    Jalr {
        rd: u8,
        rs: u8,
    },
    /// A compare feeding a terminal branch on its result, fused by the
    /// peephole pass into one micro-op covering *two* source
    /// instructions: `v = f(rs, rt or imm)`; `rd = v`; branch when
    /// `(v != 0) == branch_if`. `f` is [`Alu::Slt`] or [`Alu::Sltu`], so
    /// neither component can trap, and the compare's register write is
    /// preserved: the fusion is unobservable outside dispatch count.
    /// `target` is the taken pc; the fall-through is `pc + 2` (the op
    /// sits at the compare's slot).
    FusedCmpBranch {
        f: Alu,
        rd: u8,
        rs: u8,
        rt: u8,
        imm: u64,
        /// Compare against `imm` instead of `reg(rt)`.
        imm_form: bool,
        /// Branch when the comparison result is 1 (`bne rd, r0`) vs 0
        /// (`beq rd, r0`).
        branch_if: bool,
        target: u64,
    },
    /// All eleven legacy and seven capability-relative scalar loads,
    /// unified: width, signedness and addressing mode pre-resolved.
    Load {
        rd: u8,
        base: u8,
        off: i32,
        width: u8,
        signed: bool,
        via_cap: bool,
    },
    /// All legacy and capability-relative scalar stores, unified.
    Store {
        rv: u8,
        base: u8,
        off: i32,
        width: u8,
        via_cap: bool,
    },
    Clc {
        cd: u8,
        cb: u8,
        off: i32,
    },
    Csc {
        cs: u8,
        cb: u8,
        off: i32,
    },
    // The capability-manipulation core the compiled ABIs lean on.
    CIncOffset {
        cd: u8,
        cb: u8,
        rt: u8,
    },
    CIncOffsetImm {
        cd: u8,
        cb: u8,
        imm: i64,
    },
    CSetOffset {
        cd: u8,
        cb: u8,
        rt: u8,
    },
    CSetBounds {
        cd: u8,
        cb: u8,
        rt: u8,
    },
    CAndPerm {
        cd: u8,
        cb: u8,
        rt: u8,
    },
    CClearTag {
        cd: u8,
        cb: u8,
    },
    CMove {
        cd: u8,
        cb: u8,
    },
    CGetBase {
        rd: u8,
        cb: u8,
    },
    CGetLen {
        rd: u8,
        cb: u8,
    },
    CGetOffset {
        rd: u8,
        cb: u8,
    },
    CGetPerm {
        rd: u8,
        cb: u8,
    },
    CGetTag {
        rd: u8,
        cb: u8,
    },
    /// Pointer comparison with the selector decoded at build time.
    CPtrCmp {
        rd: u8,
        cb: u8,
        ct: u8,
        sel: CmpOp,
    },
    CToPtr {
        rd: u8,
        cb: u8,
        ct: u8,
    },
    // The long tail: effects, the CHERIv2 bounds ops, pointer
    // derivation, sealing and the PCC-writing capability jumps.
    Syscall {
        n: i32,
    },
    Break,
    CIncBase {
        cd: u8,
        cb: u8,
        rt: u8,
    },
    CSetLen {
        cd: u8,
        cb: u8,
        rt: u8,
    },
    CFromPtr {
        cd: u8,
        cb: u8,
        rt: u8,
    },
    CSeal {
        cd: u8,
        cb: u8,
        ct: u8,
    },
    CUnseal {
        cd: u8,
        cb: u8,
        ct: u8,
    },
    CJr {
        cb: u8,
    },
    CJalr {
        cd: u8,
        cb: u8,
    },
    CGetPcc {
        cd: u8,
    },
}

/// Flattens one predecoded instruction: sign/zero extensions, shift masks
/// and selector decoding happen here, once, for every backend and for
/// single-stepping.
pub(crate) fn flatten(i: Instr) -> FlatOp {
    let (rd, rs, rt, imm) = (i.rd, i.rs, i.rt, i.imm);
    let simm = imm as i64;
    let alu = |f| FlatOp::Alu { f, rd, rs, rt };
    let alu_imm = |f, imm| FlatOp::AluImm { f, rd, rs, imm };
    let branch = |c, rt| FlatOp::Branch {
        c,
        rs,
        rt,
        target: imm as u64,
    };
    let (sext, zext, shamt) = (simm as u64, imm as u32 as u64, imm as u64 & 63);
    match i.op {
        Op::Nop => FlatOp::Nop,
        Op::Add => alu(Alu::Add),
        Op::Sub => alu(Alu::Sub),
        Op::Addu => alu(Alu::Addu),
        Op::Subu => alu(Alu::Subu),
        Op::And => alu(Alu::And),
        Op::Or => alu(Alu::Or),
        Op::Xor => alu(Alu::Xor),
        Op::Nor => alu(Alu::Nor),
        Op::Slt => alu(Alu::Slt),
        Op::Sltu => alu(Alu::Sltu),
        Op::Sllv => alu(Alu::Sllv),
        Op::Srlv => alu(Alu::Srlv),
        Op::Srav => alu(Alu::Srav),
        Op::Mul => alu(Alu::Mul),
        Op::Div => alu(Alu::Div),
        Op::Divu => alu(Alu::Divu),
        Op::Rem => alu(Alu::Rem),
        Op::Remu => alu(Alu::Remu),
        Op::Addi => alu_imm(Alu::Add, sext),
        Op::Addiu => alu_imm(Alu::Addu, sext),
        Op::Andi => alu_imm(Alu::And, zext),
        Op::Ori => alu_imm(Alu::Or, zext),
        Op::Xori => alu_imm(Alu::Xor, zext),
        Op::Slti => alu_imm(Alu::Slt, sext),
        Op::Sltiu => alu_imm(Alu::Sltu, sext),
        Op::Sll => alu_imm(Alu::Sllv, shamt),
        Op::Srl => alu_imm(Alu::Srlv, shamt),
        Op::Sra => alu_imm(Alu::Srav, shamt),
        Op::Lui => FlatOp::Li {
            rd,
            v: (simm << 16) as u64,
        },
        Op::Li => FlatOp::Li { rd, v: sext },
        Op::Beq => branch(Cond::Eq, rt),
        Op::Bne => branch(Cond::Ne, rt),
        Op::Blez => branch(Cond::Lez, 0),
        Op::Bgtz => branch(Cond::Gtz, 0),
        Op::Bltz => branch(Cond::Ltz, 0),
        Op::Bgez => branch(Cond::Gez, 0),
        Op::J => FlatOp::J { target: imm as u64 },
        Op::Jal => FlatOp::Jal { target: imm as u64 },
        Op::Jr => FlatOp::Jr { rs },
        Op::Jalr => FlatOp::Jalr { rd, rs },
        Op::Lb => load(i, 1, true, false),
        Op::Lbu => load(i, 1, false, false),
        Op::Lh => load(i, 2, true, false),
        Op::Lhu => load(i, 2, false, false),
        Op::Lw => load(i, 4, true, false),
        Op::Lwu => load(i, 4, false, false),
        Op::Ld => load(i, 8, false, false),
        Op::Sb => store(i, 1, false),
        Op::Sh => store(i, 2, false),
        Op::Sw => store(i, 4, false),
        Op::Sd => store(i, 8, false),
        Op::Clb => load(i, 1, true, true),
        Op::Clbu => load(i, 1, false, true),
        Op::Clh => load(i, 2, true, true),
        Op::Clhu => load(i, 2, false, true),
        Op::Clw => load(i, 4, true, true),
        Op::Clwu => load(i, 4, false, true),
        Op::Cld => load(i, 8, false, true),
        Op::Csb => store(i, 1, true),
        Op::Csh => store(i, 2, true),
        Op::Csw => store(i, 4, true),
        Op::Csd => store(i, 8, true),
        Op::Clc => FlatOp::Clc {
            cd: rd,
            cb: rs,
            off: imm,
        },
        Op::Csc => FlatOp::Csc {
            cs: rd,
            cb: rs,
            off: imm,
        },
        Op::CIncOffset => FlatOp::CIncOffset { cd: rd, cb: rs, rt },
        Op::CIncOffsetImm => FlatOp::CIncOffsetImm {
            cd: rd,
            cb: rs,
            imm: simm,
        },
        Op::CSetOffset => FlatOp::CSetOffset { cd: rd, cb: rs, rt },
        Op::CSetBounds => FlatOp::CSetBounds { cd: rd, cb: rs, rt },
        Op::CAndPerm => FlatOp::CAndPerm { cd: rd, cb: rs, rt },
        Op::CClearTag => FlatOp::CClearTag { cd: rd, cb: rs },
        Op::CMove => FlatOp::CMove { cd: rd, cb: rs },
        Op::CGetBase => FlatOp::CGetBase { rd, cb: rs },
        Op::CGetLen => FlatOp::CGetLen { rd, cb: rs },
        Op::CGetOffset => FlatOp::CGetOffset { rd, cb: rs },
        Op::CGetPerm => FlatOp::CGetPerm { rd, cb: rs },
        Op::CGetTag => FlatOp::CGetTag { rd, cb: rs },
        Op::CPtrCmp => FlatOp::CPtrCmp {
            rd,
            cb: rs,
            ct: rt,
            sel: CmpOp::from_u8(imm as u8).expect("validated at decode"),
        },
        Op::CToPtr => FlatOp::CToPtr { rd, cb: rs, ct: rt },
        Op::Syscall => FlatOp::Syscall { n: imm },
        Op::Break => FlatOp::Break,
        Op::CIncBase => FlatOp::CIncBase { cd: rd, cb: rs, rt },
        Op::CSetLen => FlatOp::CSetLen { cd: rd, cb: rs, rt },
        Op::CFromPtr => FlatOp::CFromPtr { cd: rd, cb: rs, rt },
        Op::CSeal => FlatOp::CSeal {
            cd: rd,
            cb: rs,
            ct: rt,
        },
        Op::CUnseal => FlatOp::CUnseal {
            cd: rd,
            cb: rs,
            ct: rt,
        },
        Op::CJr => FlatOp::CJr { cb: rs },
        Op::CJalr => FlatOp::CJalr { cd: rd, cb: rs },
        Op::CGetPcc => FlatOp::CGetPcc { cd: rd },
    }
}

fn load(i: Instr, width: u8, signed: bool, via_cap: bool) -> FlatOp {
    FlatOp::Load {
        rd: i.rd,
        base: i.rs,
        off: i.imm,
        width,
        signed,
        via_cap,
    }
}

fn store(i: Instr, width: u8, via_cap: bool) -> FlatOp {
    FlatOp::Store {
        rv: i.rd,
        base: i.rs,
        off: i.imm,
        width,
        via_cap,
    }
}

/// A block's static successors, derived from its terminal's
/// [`ControlKind`]. A chaining engine follows [`BlockExit::Branch`] and
/// [`BlockExit::Jump`] edges directly; a [`BlockExit::Dispatch`] exit
/// returns to the dispatch loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockExit {
    /// Conditional branch: taken target plus fall-through.
    Branch { taken: u64, fall: u64 },
    /// Unconditional direct jump (`j`/`jal`).
    Jump { target: u64 },
    /// No static successor: an indirect jump (`jr`/`jalr`, target in a
    /// register), a capability jump (`cjr`/`cjalr`, writes the PCC), a
    /// `syscall`/`break` (may halt), or a block clipped at the end of the
    /// code image.
    Dispatch,
}

/// One straight-line block: flattened ops plus everything needed to hoist
/// (and, on a mid-block trap, to reconstruct) per-instruction statistics,
/// plus the static successor targets for chained dispatch.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    /// Entry pc (instruction index).
    pub start: u64,
    /// The executable micro-ops. 1:1 with `raw` as built; the peephole
    /// pass may rewrite slots in place and may drop the terminal slot
    /// when it fuses the compare + branch pair.
    pub ops: Box<[FlatOp]>,
    /// The raw opcodes, always 1:1 with the source instructions — the
    /// basis for instruction counts and partial-execution accounting.
    pub raw: Box<[Op]>,
    /// Σ `base_cycles` over the whole block, charged in one add.
    pub base_cycles: u64,
    /// Opcode histogram; `VmStats` reconstructs per-op retirement counts
    /// as `Σ hist × execs` plus the single-step residual.
    pub hist: Box<[(Op, u32)]>,
    /// Static successor targets.
    pub exit: BlockExit,
}

/// One past the last instruction of the block entered at `pc`: the first
/// block-ender inclusive, clipped to the end of the code image. The single
/// source of truth for block extent — `Block::build` and the dispatch
/// loop's length precheck must never disagree.
pub(crate) fn block_end(pc: u64, code: &[Instr]) -> usize {
    let mut end = pc as usize;
    while end < code.len() {
        let ends = code[end].op.ends_block();
        end += 1;
        if ends {
            break;
        }
    }
    end
}

impl Block {
    /// Builds the block entered at `pc`: instructions up to and including
    /// the first block-ender, clipped to the end of the code image.
    pub fn build(pc: u64, code: &[Instr]) -> Block {
        let start = pc as usize;
        let end = block_end(pc, code);
        let raw: Box<[Op]> = code[start..end].iter().map(|i| i.op).collect();
        let ops: Box<[FlatOp]> = code[start..end].iter().map(|&i| flatten(i)).collect();
        let base_cycles = raw.iter().map(|o| o.base_cycles()).sum();
        let mut hist: Vec<(Op, u32)> = Vec::new();
        for &op in raw.iter() {
            match hist.iter_mut().find(|(o, _)| *o == op) {
                Some((_, n)) => *n += 1,
                None => hist.push((op, 1)),
            }
        }
        let terminal = code[end - 1];
        let exit = match terminal.op.control_kind() {
            ControlKind::Branch => BlockExit::Branch {
                taken: terminal.imm as u64,
                fall: end as u64,
            },
            ControlKind::Jump => BlockExit::Jump {
                target: terminal.imm as u64,
            },
            ControlKind::IndirectJump
            | ControlKind::CapJump
            | ControlKind::Effect
            | ControlKind::None => BlockExit::Dispatch,
        };
        Block {
            start: pc,
            ops,
            raw,
            base_cycles,
            hist: hist.into_boxed_slice(),
            exit,
        }
    }

    /// Source instructions covered by this block. `ops.len()` can be one
    /// shorter after terminal fusion; instruction counts always come from
    /// here.
    pub fn instr_len(&self) -> u64 {
        self.raw.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code() -> Vec<Instr> {
        vec![
            Instr::li(8, 0),                 // 0
            Instr::li(9, 1),                 // 1
            Instr::r3(Op::Addu, 8, 8, 9),    // 2
            Instr::new(Op::Beq, 0, 8, 0, 2), // 3: terminal
            Instr::li(4, 0),                 // 4
            Instr::syscall(0),               // 5: terminal
        ]
    }

    #[test]
    fn blocks_end_at_control_transfers() {
        let code = code();
        let b = Block::build(0, &code);
        assert_eq!(b.start, 0);
        assert_eq!(b.ops.len(), 4, "block runs through the beq inclusive");
        assert_eq!(b.raw.last(), Some(&Op::Beq));
        let b2 = Block::build(4, &code);
        assert_eq!(b2.ops.len(), 2);
        assert_eq!(b2.raw.last(), Some(&Op::Syscall));
    }

    #[test]
    fn mid_block_entry_builds_an_overlapping_block() {
        let code = code();
        let b = Block::build(2, &code);
        assert_eq!(b.start, 2);
        assert_eq!(b.ops.len(), 2);
    }

    #[test]
    fn block_without_terminal_clips_at_code_end() {
        let code = vec![Instr::nop(), Instr::nop()];
        let b = Block::build(0, &code);
        assert_eq!(b.ops.len(), 2);
        assert_eq!(b.exit, BlockExit::Dispatch);
    }

    #[test]
    fn exits_record_static_successors() {
        let code = code();
        assert_eq!(
            Block::build(0, &code).exit,
            BlockExit::Branch { taken: 2, fall: 4 }
        );
        assert_eq!(Block::build(4, &code).exit, BlockExit::Dispatch);
        let jumps = vec![
            Instr::new(Op::J, 0, 0, 0, 7),
            Instr::new(Op::Jal, 0, 0, 0, 3),
            Instr::new(Op::Jr, 0, 8, 0, 0),
            Instr::new(Op::CJr, 0, 6, 0, 0),
            Instr::new(Op::Break, 0, 0, 0, 0),
        ];
        assert_eq!(Block::build(0, &jumps).exit, BlockExit::Jump { target: 7 });
        assert_eq!(Block::build(1, &jumps).exit, BlockExit::Jump { target: 3 });
        for pc in 2..5 {
            assert_eq!(Block::build(pc, &jumps).exit, BlockExit::Dispatch);
        }
    }

    #[test]
    fn histogram_and_cycles_sum_the_block() {
        let code = code();
        let b = Block::build(0, &code);
        assert_eq!(
            b.base_cycles,
            b.raw.iter().map(|o| o.base_cycles()).sum::<u64>()
        );
        let li = b.hist.iter().find(|(o, _)| *o == Op::Li).unwrap().1;
        assert_eq!(li, 2);
        assert_eq!(b.instr_len(), 4);
    }

    #[test]
    fn flatten_preresolves_immediates() {
        assert!(matches!(
            flatten(Instr::new(Op::Lui, 4, 0, 0, -1)),
            FlatOp::Li { rd: 4, v } if v == (-65536i64) as u64
        ));
        assert!(matches!(
            flatten(Instr::i2(Op::Sll, 4, 5, 200)),
            FlatOp::AluImm {
                f: Alu::Sllv,
                imm: 8,
                ..
            }
        ));
        assert!(matches!(
            flatten(Instr::new(Op::Blez, 0, 5, 9, 7)),
            FlatOp::Branch {
                c: Cond::Lez,
                rs: 5,
                rt: 0,
                target: 7
            }
        ));
        assert!(matches!(
            flatten(Instr::c_ptr_cmp(2, 3, 4, CmpOp::Ltu)),
            FlatOp::CPtrCmp {
                sel: CmpOp::Ltu,
                ..
            }
        ));
        assert!(matches!(
            flatten(Instr::mem(Op::Clhu, 9, 3, -2)),
            FlatOp::Load {
                width: 2,
                signed: false,
                via_cap: true,
                off: -2,
                ..
            }
        ));
        assert!(matches!(
            flatten(Instr::syscall(3)),
            FlatOp::Syscall { n: 3 }
        ));
    }
}
