//! The integer core: every integer result, overflow, divide-by-zero and
//! branch decision the machine makes, stated once.
//!
//! CHERI leaves the MIPS integer pipeline alone; the only integer trap
//! the abstract machine adds is signed overflow on `add`/`sub`/`addi`
//! (§3.1.1), next to the divide-by-zero every core has. [`Alu::eval`]
//! and [`Cond::holds`] are the only code that computes either. The
//! semantics match ([`crate::machine::Vm::exec_flat`]), the template
//! tier's handlers and the peephole folder all call them, so the three
//! cannot disagree.
//!
//! The immediate forms have no selector of their own: `flatten` extends
//! the immediate (sign- or zero-, as the opcode says) and masks shift
//! amounts, after which `addi` is [`Alu::Add`], `andi` is [`Alu::And`],
//! `sll` is [`Alu::Sllv`] and so on.

use crate::trap::TrapCause;

/// An integer function of two 64-bit operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Alu {
    /// Signed add; traps on overflow (`add`, `addi`).
    Add,
    /// Signed subtract; traps on overflow.
    Sub,
    /// Wrapping add (`addu`, `addiu`).
    Addu,
    /// Wrapping subtract.
    Subu,
    And,
    Or,
    Xor,
    Nor,
    /// Signed less-than, 0 or 1 (`slt`, `slti`).
    Slt,
    /// Unsigned less-than, 0 or 1 (`sltu`, `sltiu`).
    Sltu,
    /// Shift left by the low six bits of `b` (`sllv`, `sll`).
    Sllv,
    /// Logical shift right by the low six bits of `b`.
    Srlv,
    /// Arithmetic shift right by the low six bits of `b`.
    Srav,
    /// Wrapping multiply.
    Mul,
    /// Signed divide; traps on a zero divisor or `i64::MIN / -1`.
    Div,
    /// Unsigned divide; traps on a zero divisor.
    Divu,
    /// Signed remainder; traps like [`Alu::Div`].
    Rem,
    /// Unsigned remainder; traps on a zero divisor.
    Remu,
}

impl Alu {
    /// Every selector, at the index of its discriminant, so a
    /// const-generic handler can name its selector as `ALL[F]`.
    pub(crate) const ALL: [Alu; 18] = [
        Alu::Add,
        Alu::Sub,
        Alu::Addu,
        Alu::Subu,
        Alu::And,
        Alu::Or,
        Alu::Xor,
        Alu::Nor,
        Alu::Slt,
        Alu::Sltu,
        Alu::Sllv,
        Alu::Srlv,
        Alu::Srav,
        Alu::Mul,
        Alu::Div,
        Alu::Divu,
        Alu::Rem,
        Alu::Remu,
    ];

    /// `a f b`, or the trap it raises. Inlined into every caller so a
    /// caller with a constant selector keeps only its own arm.
    #[inline(always)]
    pub(crate) fn eval(self, a: u64, b: u64) -> Result<u64, TrapCause> {
        let (sa, sb) = (a as i64, b as i64);
        let overflow = |v: Option<i64>| v.map(|v| v as u64).ok_or(TrapCause::IntegerOverflow);
        match self {
            Alu::Add => overflow(sa.checked_add(sb)),
            Alu::Sub => overflow(sa.checked_sub(sb)),
            Alu::Addu => Ok(a.wrapping_add(b)),
            Alu::Subu => Ok(a.wrapping_sub(b)),
            Alu::And => Ok(a & b),
            Alu::Or => Ok(a | b),
            Alu::Xor => Ok(a ^ b),
            Alu::Nor => Ok(!(a | b)),
            Alu::Slt => Ok(u64::from(sa < sb)),
            Alu::Sltu => Ok(u64::from(a < b)),
            Alu::Sllv => Ok(a << (b & 63)),
            Alu::Srlv => Ok(a >> (b & 63)),
            Alu::Srav => Ok((sa >> (b & 63)) as u64),
            Alu::Mul => Ok(a.wrapping_mul(b)),
            Alu::Div | Alu::Divu | Alu::Rem | Alu::Remu if b == 0 => Err(TrapCause::DivideByZero),
            Alu::Div => overflow(sa.checked_div(sb)),
            Alu::Divu => Ok(a / b),
            Alu::Rem => overflow(sa.checked_rem(sb)),
            Alu::Remu => Ok(a % b),
        }
    }

    /// `true` for the selectors whose [`Alu::eval`] can return `Err`.
    pub(crate) fn can_trap(self) -> bool {
        matches!(
            self,
            Alu::Add | Alu::Sub | Alu::Div | Alu::Divu | Alu::Rem | Alu::Remu
        )
    }
}

/// A conditional branch's test of `rs` (`a`) against `rt` (`b`). The
/// one-operand forms ignore `b`; `flatten` sets their `rt` to `r0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Cond {
    /// `beq`
    Eq,
    /// `bne`
    Ne,
    /// `blez`
    Lez,
    /// `bgtz`
    Gtz,
    /// `bltz`
    Ltz,
    /// `bgez`
    Gez,
}

impl Cond {
    /// Every condition, at the index of its discriminant.
    pub(crate) const ALL: [Cond; 6] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Lez,
        Cond::Gtz,
        Cond::Ltz,
        Cond::Gez,
    ];

    /// Whether the branch is taken.
    #[inline(always)]
    pub(crate) fn holds(self, a: u64, b: u64) -> bool {
        let sa = a as i64;
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lez => sa <= 0,
            Cond::Gtz => sa > 0,
            Cond::Ltz => sa < 0,
            Cond::Gez => sa >= 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGES: [u64; 8] = [
        0,
        1,
        63,
        64,
        u64::MAX,
        i64::MIN as u64,
        i64::MAX as u64,
        0x8000_0000,
    ];

    #[test]
    fn selector_tables_are_indexed_by_discriminant() {
        for (i, f) in Alu::ALL.iter().enumerate() {
            assert_eq!(*f as usize, i, "{f:?}");
        }
        for (i, c) in Cond::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?}");
        }
    }

    #[test]
    fn can_trap_names_exactly_the_selectors_that_trap() {
        for f in Alu::ALL {
            let traps = EDGES
                .iter()
                .any(|&a| EDGES.iter().any(|&b| f.eval(a, b).is_err()));
            assert_eq!(traps, f.can_trap(), "{f:?}");
        }
    }
}
