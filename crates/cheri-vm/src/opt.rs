//! The IR optimization layer: a peephole pass over [`Block`]s.
//!
//! Three rewrites, each chosen because it is *unobservable* to the
//! architectural state the identity suites pin (registers, memory, traps
//! and their pcs, simulated cycles, per-op retirement counts, cache
//! traffic):
//!
//! 1. **Constant folding into immediates.** Registers whose value is
//!    block-known (seeded by `li`/`lui` and `r0`) propagate through the
//!    integer ALU ops ([`FlatOp::Alu`], [`FlatOp::AluImm`]), which
//!    collapse to [`FlatOp::Li`]. The fold calls the machine's own
//!    [`Alu::eval`], so it computes exactly what execution would. An op
//!    whose `eval` returns a trap (`add`/`sub`/`addi` overflow,
//!    `div`/`rem` by zero, …) is left in place so the trap fires at
//!    exactly the source pc with exactly the pre-op registers.
//! 2. **Redundant-write elision.** A pure, non-trapping integer write
//!    whose destination is overwritten later in the block — before any
//!    read and with no potentially-trapping op in between (registers at a
//!    trap are observable) — is replaced by [`FlatOp::Nop`] *in its
//!    slot*, so pc accounting and mid-block unwind stay positional.
//! 3. **Fused compare-and-branch.** The dominant loop idiom
//!    `slt/sltu/slti/sltiu rd, …` ([`Alu::Slt`]/[`Alu::Sltu`]) + terminal
//!    `beq/bne rd, r0, target` ([`Cond::Eq`]/[`Cond::Ne`]) fuses into
//!    one [`FlatOp::FusedCmpBranch`] micro-op that still
//!    writes `rd` and then branches — one dispatch instead of two per
//!    loop iteration. Neither component can trap, so this is the only
//!    rewrite allowed to shorten the op array (the instruction count
//!    still comes from [`Block::raw`]).
//!
//! Every rewrite leaves `raw`, `hist` and `base_cycles` untouched:
//! statistics always describe the *source* instructions. Loads, stores
//! and capability-register writes are never folded or elided — their
//! cache charges and trap snapshots are observable. The pass is gated by
//! [`crate::OptLevel`] so the unoptimized path stays available for
//! differential testing.

use crate::alu::{Alu, Cond};
use crate::ir::{Block, FlatOp};

/// Applies the peephole rewrites to `block` in place.
pub(crate) fn peephole(block: &mut Block) {
    let mut ops: Vec<FlatOp> = block.ops.to_vec();
    fold_constants(&mut ops);
    elide_dead_writes(&mut ops);
    fuse_cmp_branch(&mut ops);
    block.ops = ops.into_boxed_slice();
}

/// What a fold attempt learned about an op under known operands.
enum Folded {
    /// The op computes this value into its destination and cannot trap.
    Value(u64),
    /// The op would trap on these operands: leave it exactly in place.
    WouldTrap,
}

/// Propagates block-known register constants and collapses pure integer
/// ALU ops over them into `Li`.
fn fold_constants(ops: &mut [FlatOp]) {
    // `consts[r]` is the value register `r` is known to hold at this point
    // in the block; `r0` is always 0.
    let mut consts: [Option<u64>; 32] = [None; 32];
    consts[0] = Some(0);
    for op in ops.iter_mut() {
        if let FlatOp::Li { rd, v } = *op {
            if rd != 0 {
                consts[rd as usize] = Some(v);
            }
            continue;
        }
        match try_fold(op, &consts) {
            Some(Folded::Value(v)) => {
                let rd = int_write(op).expect("foldable ops write a register");
                *op = FlatOp::Li { rd, v };
                if rd != 0 {
                    consts[rd as usize] = Some(v);
                }
                continue;
            }
            Some(Folded::WouldTrap) => {
                // Execution cannot continue past this op at runtime, but
                // stay conservative: its destination is no longer known.
                if let Some(rd) = int_write(op) {
                    if rd != 0 {
                        consts[rd as usize] = None;
                    }
                }
                continue;
            }
            None => {}
        }
        // Not foldable: invalidate whatever it writes. An opaque op may be
        // a syscall or sealing op — drop all knowledge.
        if is_opaque(op) {
            consts = [None; 32];
            consts[0] = Some(0);
        } else if let Some(rd) = int_write(op) {
            if rd != 0 {
                consts[rd as usize] = None;
            }
        }
    }
}

/// Attempts to evaluate `op` over `consts` with the machine's own
/// [`Alu::eval`]. `None` means the op is not an integer ALU op or an
/// operand is unknown; an `Err` from `eval` means the op would trap.
fn try_fold(op: &FlatOp, consts: &[Option<u64>; 32]) -> Option<Folded> {
    let c = |r: u8| consts[r as usize];
    let r = match *op {
        FlatOp::Alu { f, rs, rt, .. } => f.eval(c(rs)?, c(rt)?),
        FlatOp::AluImm { f, rs, imm, .. } => f.eval(c(rs)?, imm),
        _ => return None,
    };
    Some(r.map_or(Folded::WouldTrap, Folded::Value))
}

/// The integer register `op` writes, if any. `Some(0)` is reported as-is;
/// callers treat a write to `r0` as no write.
fn int_write(op: &FlatOp) -> Option<u8> {
    match *op {
        FlatOp::Alu { rd, .. }
        | FlatOp::AluImm { rd, .. }
        | FlatOp::Li { rd, .. }
        | FlatOp::Jalr { rd, .. }
        | FlatOp::Load { rd, .. }
        | FlatOp::CGetBase { rd, .. }
        | FlatOp::CGetLen { rd, .. }
        | FlatOp::CGetOffset { rd, .. }
        | FlatOp::CGetPerm { rd, .. }
        | FlatOp::CGetTag { rd, .. }
        | FlatOp::CPtrCmp { rd, .. }
        | FlatOp::CToPtr { rd, .. }
        | FlatOp::FusedCmpBranch { rd, .. } => Some(rd),
        FlatOp::Jal { .. } => Some(cheri_isa::RA),
        _ => None,
    }
}

/// The integer registers `op` reads. `None` means "assume it reads
/// everything": the opaque long tail (syscalls read argument registers).
fn int_reads(op: &FlatOp) -> Option<[Option<u8>; 2]> {
    let two = |a, b| Some([Some(a), Some(b)]);
    let one = |a| Some([Some(a), None]);
    let zero = Some([None, None]);
    match *op {
        // A one-operand branch names `r0` as `rt`, which no write kills.
        FlatOp::Alu { rs, rt, .. } | FlatOp::Branch { rs, rt, .. } => two(rs, rt),
        FlatOp::AluImm { rs, .. } | FlatOp::Jr { rs } | FlatOp::Jalr { rs, .. } => one(rs),
        FlatOp::Nop | FlatOp::Li { .. } | FlatOp::J { .. } | FlatOp::Jal { .. } => zero,
        FlatOp::FusedCmpBranch {
            rs, rt, imm_form, ..
        } => {
            if imm_form {
                one(rs)
            } else {
                two(rs, rt)
            }
        }
        FlatOp::Load { base, via_cap, .. } => {
            if via_cap {
                zero
            } else {
                one(base)
            }
        }
        FlatOp::Store {
            rv, base, via_cap, ..
        } => {
            if via_cap {
                one(rv)
            } else {
                two(rv, base)
            }
        }
        FlatOp::Clc { .. }
        | FlatOp::Csc { .. }
        | FlatOp::CIncOffsetImm { .. }
        | FlatOp::CClearTag { .. }
        | FlatOp::CMove { .. } => zero,
        FlatOp::CIncOffset { rt, .. }
        | FlatOp::CSetOffset { rt, .. }
        | FlatOp::CSetBounds { rt, .. }
        | FlatOp::CAndPerm { rt, .. } => one(rt),
        FlatOp::CGetBase { .. }
        | FlatOp::CGetLen { .. }
        | FlatOp::CGetOffset { .. }
        | FlatOp::CGetPerm { .. }
        | FlatOp::CGetTag { .. }
        | FlatOp::CPtrCmp { .. }
        | FlatOp::CToPtr { .. } => zero,
        // The long tail the pass does not model: opaque.
        FlatOp::Syscall { .. }
        | FlatOp::Break
        | FlatOp::CIncBase { .. }
        | FlatOp::CSetLen { .. }
        | FlatOp::CFromPtr { .. }
        | FlatOp::CSeal { .. }
        | FlatOp::CUnseal { .. }
        | FlatOp::CJr { .. }
        | FlatOp::CJalr { .. }
        | FlatOp::CGetPcc { .. } => None,
    }
}

/// `true` for the long tail the pass does not model (syscalls, `break`,
/// the CHERIv2 bounds ops, pointer derivation, sealing, capability jumps):
/// each may trap, is assumed to read every register, and ends all
/// register knowledge.
fn is_opaque(op: &FlatOp) -> bool {
    int_reads(op).is_none()
}

/// `true` when `op` can raise a trap at runtime.
fn can_trap(op: &FlatOp) -> bool {
    match *op {
        FlatOp::Alu { f, .. } | FlatOp::AluImm { f, .. } => f.can_trap(),
        FlatOp::Load { .. }
        | FlatOp::Store { .. }
        | FlatOp::Clc { .. }
        | FlatOp::Csc { .. }
        | FlatOp::CIncOffset { .. }
        | FlatOp::CIncOffsetImm { .. }
        | FlatOp::CSetOffset { .. }
        | FlatOp::CSetBounds { .. }
        | FlatOp::CAndPerm { .. } => true,
        _ => is_opaque(op),
    }
}

/// `true` when `op`'s only architectural effect is writing one integer
/// register and it cannot trap: the elidable class.
fn is_elidable_write(op: &FlatOp) -> bool {
    if can_trap(op) {
        return false;
    }
    match op {
        // Control transfers write a link register as a *side effect* of
        // transferring control — never elidable.
        FlatOp::Jal { .. } | FlatOp::Jalr { .. } | FlatOp::FusedCmpBranch { .. } => false,
        _ => int_write(op).is_some(),
    }
}

/// Replaces integer writes that are dead within the block by `Nop`,
/// keeping the slot so pc accounting stays positional.
fn elide_dead_writes(ops: &mut [FlatOp]) {
    for i in 0..ops.len() {
        if !is_elidable_write(&ops[i]) {
            continue;
        }
        let rd = int_write(&ops[i]).expect("elidable ops write a register");
        if rd == 0 {
            // Writes to `r0` are architecturally ignored.
            ops[i] = FlatOp::Nop;
            continue;
        }
        let mut dead = false;
        for later in ops.iter().skip(i + 1) {
            let reads_rd = match int_reads(later) {
                Some(reads) => reads.iter().flatten().any(|&r| r == rd),
                None => true, // Opaque: assume it reads everything.
            };
            if reads_rd {
                break;
            }
            // A trap between the elided write and the superseding write
            // would expose the missing value in the register snapshot.
            if can_trap(later) {
                break;
            }
            if int_write(later) == Some(rd) {
                dead = true;
                break;
            }
        }
        if dead {
            ops[i] = FlatOp::Nop;
        }
    }
}

/// Fuses a penultimate compare with a terminal branch on its result.
fn fuse_cmp_branch(ops: &mut Vec<FlatOp>) {
    let n = ops.len();
    if n < 2 {
        return;
    }
    let (f, rd, rs, rt, imm, imm_form) = match ops[n - 2] {
        FlatOp::Alu { f, rd, rs, rt } => (f, rd, rs, rt, 0, false),
        FlatOp::AluImm { f, rd, rs, imm } => (f, rd, rs, 0, imm, true),
        _ => return,
    };
    if !matches!(f, Alu::Slt | Alu::Sltu) {
        return;
    }
    // `rd == 0` would discard the compare and branch on the constant
    // `r0`; leave that (degenerate, compiler-never-emitted) shape alone.
    if rd == 0 {
        return;
    }
    let (brs, brt, target, branch_if) = match ops[n - 1] {
        FlatOp::Branch {
            c: Cond::Eq,
            rs,
            rt,
            target,
        } => (rs, rt, target, false),
        FlatOp::Branch {
            c: Cond::Ne,
            rs,
            rt,
            target,
        } => (rs, rt, target, true),
        _ => return,
    };
    // The branch must test exactly the compare's result against `r0`.
    if !((brs == rd && brt == 0) || (brs == 0 && brt == rd)) {
        return;
    }
    ops[n - 2] = FlatOp::FusedCmpBranch {
        f,
        rd,
        rs,
        rt,
        imm,
        imm_form,
        branch_if,
        target,
    };
    ops.truncate(n - 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BackendKind, OptLevel, VmConfig};
    use crate::machine::Vm;
    use crate::trap::TrapCause;
    use cheri_isa::{Instr, Op, Program};

    fn optimized(code: &[Instr]) -> Vec<FlatOp> {
        let mut b = Block::build(0, code);
        peephole(&mut b);
        b.ops.to_vec()
    }

    /// Runs `code` with the peephole on and off (reference backend) and
    /// asserts the outcome, registers, stats and final pc agree.
    fn assert_opt_preserves(code: Vec<Instr>) {
        let mut p = Program::new();
        p.code = code;
        let run = |opt: OptLevel| {
            let cfg = VmConfig::functional()
                .with_backend(BackendKind::Reference)
                .with_opt_level(opt);
            let mut vm = Vm::new(p.clone(), cfg);
            let out = vm.run(100_000).map(|s| s.code);
            let stats = vm.stats();
            let regs: Vec<u64> = (0..32).map(|r| vm.reg(r)).collect();
            let ops: Vec<u64> = Op::ALL.iter().map(|&o| stats.op_count(o)).collect();
            (
                out,
                vm.pc(),
                regs,
                stats.instret,
                stats.cycles,
                ops,
                vm.output_string(),
            )
        };
        assert_eq!(run(OptLevel::None), run(OptLevel::Peephole));
    }

    #[test]
    fn constants_fold_into_immediates() {
        // li 8, 6; li 9, 7; mul 10, 8, 9 → the mul becomes li 10, 42.
        let code = vec![
            Instr::li(8, 6),
            Instr::li(9, 7),
            Instr::r3(Op::Mul, 10, 8, 9),
            Instr::syscall(0),
        ];
        let ops = optimized(&code);
        assert!(
            matches!(ops[2], FlatOp::Li { rd: 10, v: 42 }),
            "got {:?}",
            ops[2]
        );
        assert_opt_preserves(code);
    }

    #[test]
    fn folding_uses_r0_as_zero() {
        // addu 8, 0, 0 is a constant 0 without any li seeding it.
        let code = vec![Instr::r3(Op::Addu, 8, 0, 0), Instr::syscall(0)];
        let ops = optimized(&code);
        assert!(matches!(ops[0], FlatOp::Li { rd: 8, v: 0 }));
        assert_opt_preserves(code);
    }

    #[test]
    fn trapping_fold_that_would_trap_stays_put() {
        // li 8, i64::MAX (via shift); add 9, 8, 8 overflows: the add must
        // stay an Add so it traps at pc 2 with the pre-op registers.
        let code = vec![
            Instr::li(8, i32::MAX),
            Instr::i2(Op::Sll, 8, 8, 32),
            Instr::r3(Op::Add, 9, 8, 8),
            Instr::syscall(0),
        ];
        let ops = optimized(&code);
        // Slot 1 folds (sll over a known constant), slot 2 must not.
        assert!(matches!(ops[1], FlatOp::Li { rd: 8, .. }));
        assert!(
            matches!(ops[2], FlatOp::Alu { f: Alu::Add, .. }),
            "got {:?}",
            ops[2]
        );
        // And the trap lands at the same pc with the same cause either way.
        let mut p = Program::new();
        p.code = code.clone();
        for opt in [OptLevel::None, OptLevel::Peephole] {
            let cfg = VmConfig::functional().with_opt_level(opt);
            let err = Vm::new(p.clone(), cfg).run(1000).unwrap_err();
            assert_eq!((err.pc, err.cause), (2, TrapCause::IntegerOverflow));
        }
        assert_opt_preserves(code);
    }

    #[test]
    fn trapping_fold_that_cannot_trap_folds() {
        let code = vec![
            Instr::li(8, 20),
            Instr::li(9, 22),
            Instr::r3(Op::Add, 10, 8, 9),
            Instr::syscall(0),
        ];
        let ops = optimized(&code);
        assert!(matches!(ops[2], FlatOp::Li { rd: 10, v: 42 }));
        assert_opt_preserves(code);
    }

    #[test]
    fn division_by_known_zero_stays_put() {
        let code = vec![
            Instr::li(8, 1),
            Instr::li(9, 0),
            Instr::r3(Op::Div, 10, 8, 9),
            Instr::syscall(0),
        ];
        let ops = optimized(&code);
        assert!(matches!(ops[2], FlatOp::Alu { f: Alu::Div, .. }));
        assert_opt_preserves(code);
    }

    #[test]
    fn dead_write_is_elided_in_place() {
        // The first li's value is overwritten before any read: slot 0
        // becomes a Nop (slot retained), and the block still has 4 ops.
        let code = vec![
            Instr::li(8, 1),
            Instr::li(8, 2),
            Instr::r3(Op::Addu, 4, 8, 0),
            Instr::syscall(0),
        ];
        let ops = optimized(&code);
        assert_eq!(ops.len(), 4);
        assert!(matches!(ops[0], FlatOp::Nop), "got {:?}", ops[0]);
        assert!(matches!(ops[1], FlatOp::Li { rd: 8, v: 2 }));
        assert_opt_preserves(code);
    }

    #[test]
    fn write_before_potential_trap_is_not_elided() {
        // A load between the two writes can trap; the register snapshot
        // at that trap must show the first value, so no elision.
        let code = vec![
            Instr::li(8, 1),
            Instr::mem(Op::Ld, 9, 10, 0),
            Instr::li(8, 2),
            Instr::syscall(0),
        ];
        let ops = optimized(&code);
        assert!(matches!(ops[0], FlatOp::Li { rd: 8, v: 1 }));
        assert_opt_preserves(code);
    }

    #[test]
    fn read_write_not_elided() {
        // The intermediate value is read (by the fold-resistant store),
        // so the write survives.
        let code = vec![
            Instr::mem(Op::Ld, 8, 10, 0), // unknown value into r8
            Instr::mem(Op::Sd, 8, 10, 8), // reads r8
            Instr::li(8, 2),
            Instr::syscall(0),
        ];
        let mut b = Block::build(0, &code);
        peephole(&mut b);
        assert!(matches!(b.ops[0], FlatOp::Load { rd: 8, .. }));
    }

    #[test]
    fn cmp_branch_pairs_fuse() {
        // The sum-loop back edge: slt 11, 10, 9; beq 0, 11, 3.
        let code = vec![
            Instr::r3(Op::Addu, 8, 8, 9),
            Instr::i2(Op::Addiu, 9, 9, 1),
            Instr::r3(Op::Slt, 11, 10, 9),
            Instr::new(Op::Beq, 0, 11, 0, 0),
        ];
        let ops = optimized(&code);
        assert_eq!(ops.len(), 3, "the branch slot folds into the compare");
        match ops[2] {
            FlatOp::FusedCmpBranch {
                f,
                rd,
                rs,
                rt,
                imm_form,
                branch_if,
                target,
                ..
            } => {
                assert_eq!((rd, rs, rt), (11, 10, 9));
                assert!(f == Alu::Slt && !imm_form);
                assert!(!branch_if, "beq branches when the compare is 0");
                assert_eq!(target, 0);
            }
            ref other => panic!("expected a fused compare-branch, got {other:?}"),
        }
    }

    #[test]
    fn fused_loop_preserves_semantics_and_register_writes() {
        // Sum 1..=10; the loop compare's rd (r11) is live after the loop
        // and must hold the final compare result.
        let code = vec![
            Instr::li(8, 0),
            Instr::li(9, 1),
            Instr::li(10, 10),
            Instr::r3(Op::Addu, 8, 8, 9),
            Instr::i2(Op::Addiu, 9, 9, 1),
            Instr::r3(Op::Slt, 11, 10, 9),
            Instr::new(Op::Beq, 0, 11, 0, 3),
            Instr::r3(Op::Addu, 4, 8, 0),
            Instr::syscall(0),
        ];
        assert_opt_preserves(code);
    }

    #[test]
    fn sltiu_bne_fuses_with_immediate() {
        let code = vec![
            Instr::i2(Op::Sltiu, 11, 9, 100),
            Instr::new(Op::Bne, 0, 11, 0, 0),
        ];
        let ops = optimized(&code);
        assert_eq!(ops.len(), 1);
        assert!(matches!(
            ops[0],
            FlatOp::FusedCmpBranch {
                f: Alu::Sltu,
                imm_form: true,
                branch_if: true,
                imm: 100,
                ..
            }
        ));
    }

    #[test]
    fn unrelated_branch_does_not_fuse() {
        // The branch tests a different register than the compare writes.
        let code = vec![
            Instr::r3(Op::Slt, 11, 10, 9),
            Instr::new(Op::Beq, 0, 12, 0, 0),
        ];
        let ops = optimized(&code);
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[0], FlatOp::Alu { f: Alu::Slt, .. }));
    }

    #[test]
    fn raw_and_cycles_survive_rewrites() {
        let code = vec![
            Instr::li(8, 1),
            Instr::li(8, 2),
            Instr::r3(Op::Slt, 11, 8, 9),
            Instr::new(Op::Bne, 0, 11, 0, 0),
        ];
        let mut b = Block::build(0, &code);
        let (raw, cycles, hist) = (b.raw.clone(), b.base_cycles, b.hist.clone());
        peephole(&mut b);
        assert_eq!(b.raw, raw, "raw opcodes are the accounting basis");
        assert_eq!(b.base_cycles, cycles);
        assert_eq!(b.hist, hist);
        assert_eq!(b.instr_len(), 4);
        assert_eq!(b.ops.len(), 3);
    }
}
