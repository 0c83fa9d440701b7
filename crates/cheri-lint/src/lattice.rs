//! The abstract domain: value ranges, pointer provenance and the
//! model-set bitmask the verdicts are expressed in.
//!
//! The lattice mirrors what the seven [`cheri_interp::ModelKind`]s track at
//! run time. A pointer's abstract state carries everything any model's
//! check consults: the providing object ([`Region`]), the byte offset
//! range into it, whether metadata was lost to a byte copy
//! ([`PtrAbs::stripped`]), whether the value round-tripped through an
//! integer ([`RoundTrip`]) and whether that integer was a capability-
//! carrying `intptr_t`/`intcap_t` or a plain C integer. Integers carry an
//! optional [`Taint`] recording the pointer they were derived from, so a
//! later int→pointer cast can reconstruct provenance the way each model's
//! `int_to_ptr` would.

use cheri_interp::{ConstOrigin, ModelKind};

/// A signed 64-bit interval `[lo, hi]` (inclusive). The lattice top is
/// [`Interval::FULL`]; there is no bottom (empty meets return `None`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound, inclusive.
    pub lo: i64,
    /// Upper bound, inclusive.
    pub hi: i64,
}

impl Interval {
    /// The full `i64` range.
    pub const FULL: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// The single value `v`.
    pub fn singleton(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`, panicking when inverted.
    pub fn new(lo: i64, hi: i64) -> Interval {
        debug_assert!(lo <= hi);
        Interval { lo, hi }
    }

    /// The value when the interval is a single point.
    pub fn as_singleton(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether `v` is inside.
    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Least upper bound.
    pub fn join(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Greatest lower bound, `None` when disjoint.
    pub fn meet(self, o: Interval) -> Option<Interval> {
        let lo = self.lo.max(o.lo);
        let hi = self.hi.min(o.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Classic interval widening: any bound that grew jumps to infinity.
    pub fn widen(self, next: Interval) -> Interval {
        Interval {
            lo: if next.lo < self.lo { i64::MIN } else { self.lo },
            hi: if next.hi > self.hi { i64::MAX } else { self.hi },
        }
    }

    fn from_corners(cs: [i128; 4]) -> Interval {
        let lo = cs.iter().copied().min().expect("corners");
        let hi = cs.iter().copied().max().expect("corners");
        if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
            Interval::FULL
        } else {
            Interval {
                lo: lo as i64,
                hi: hi as i64,
            }
        }
    }

    /// `self + o`, widening to [`Interval::FULL`] on possible overflow.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Interval) -> Interval {
        let (a, b, c, d) = (self.lo as i128, self.hi as i128, o.lo as i128, o.hi as i128);
        Interval::from_corners([a + c, a + d, b + c, b + d])
    }

    /// `self - o`, widening on possible overflow.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, o: Interval) -> Interval {
        let (a, b, c, d) = (self.lo as i128, self.hi as i128, o.lo as i128, o.hi as i128);
        Interval::from_corners([a - c, a - d, b - c, b - d])
    }

    /// `self * o`, widening on possible overflow.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, o: Interval) -> Interval {
        let (a, b, c, d) = (self.lo as i128, self.hi as i128, o.lo as i128, o.hi as i128);
        Interval::from_corners([a * c, a * d, b * c, b * d])
    }

    /// `-self`.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Interval {
        Interval::singleton(0).sub(self)
    }

    /// `~self` (exact: `~x = -x - 1` is antitone).
    pub fn bitnot(self) -> Interval {
        Interval {
            lo: !self.hi,
            hi: !self.lo,
        }
    }

    /// `self / o` for a divisor interval that excludes zero; callers handle
    /// the possible-zero case. `|a / b| <= |a|` for `|b| >= 1`, so the
    /// result is bounded by the dividend's magnitude corners.
    pub fn div_nonzero(self) -> Interval {
        let m = self
            .lo
            .checked_abs()
            .unwrap_or(i64::MAX)
            .max(self.hi.checked_abs().unwrap_or(i64::MAX));
        if self.lo == i64::MIN {
            // i64::MIN / -1 overflows; stay conservative.
            Interval::FULL
        } else {
            Interval { lo: -m, hi: m }
        }
    }

    /// `self % o` for a positive divisor bound `b`: result in `(-b, b)`.
    pub fn rem_bound(b: i64) -> Interval {
        if b <= 0 {
            Interval::FULL
        } else {
            Interval {
                lo: -(b - 1),
                hi: b - 1,
            }
        }
    }

    /// Whether every value fits a `width`-byte signed/unsigned integer.
    pub fn fits(self, width: u8, signed: bool) -> bool {
        if width >= 8 {
            return signed || self.lo >= 0;
        }
        let bits = width as u32 * 8;
        if signed {
            let max = (1i64 << (bits - 1)) - 1;
            self.lo >= -max - 1 && self.hi <= max
        } else {
            self.lo >= 0 && self.hi < (1i64 << bits)
        }
    }
}

/// A set of memory models (plus the compiled-VM substrate) a finding
/// applies to: "this access **may** trap under these models".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ModelSet(pub u16);

/// Bit marking the compiled-VM substrates (integer-overflow traps that the
/// wrapping interpreter models never raise).
pub const VM_BIT: u16 = 1 << 15;

impl ModelSet {
    /// The empty set.
    pub const EMPTY: ModelSet = ModelSet(0);

    /// All seven interpreter models (without the VM bit).
    pub fn all_models() -> ModelSet {
        ModelSet((1 << ModelKind::ALL.len()) - 1)
    }

    /// All seven models plus the VM substrates.
    pub fn everything() -> ModelSet {
        ModelSet(Self::all_models().0 | VM_BIT)
    }

    fn bit(m: ModelKind) -> u16 {
        let i = ModelKind::ALL
            .iter()
            .position(|&k| k == m)
            .expect("model in ALL");
        1 << i
    }

    /// Adds a model.
    pub fn with(mut self, m: ModelKind) -> ModelSet {
        self.0 |= Self::bit(m);
        self
    }

    /// The models for which `f` holds.
    pub fn from_fn(f: impl Fn(ModelKind) -> bool) -> ModelSet {
        ModelKind::ALL
            .into_iter()
            .filter(|&m| f(m))
            .fold(ModelSet::EMPTY, ModelSet::with)
    }

    /// Adds the VM substrates.
    pub fn with_vm(mut self) -> ModelSet {
        self.0 |= VM_BIT;
        self
    }

    /// Whether `m` is in the set.
    pub fn contains(self, m: ModelKind) -> bool {
        self.0 & Self::bit(m) != 0
    }

    /// Whether the VM bit is set.
    pub fn has_vm(self) -> bool {
        self.0 & VM_BIT != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    pub fn union(self, o: ModelSet) -> ModelSet {
        ModelSet(self.0 | o.0)
    }

    /// The member models, in [`ModelKind::ALL`] order.
    pub fn models(self) -> Vec<ModelKind> {
        ModelKind::ALL
            .into_iter()
            .filter(|&m| self.contains(m))
            .collect()
    }
}

/// The object an abstract pointer points into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// A local, identified by the frame offset of its object base.
    Stack {
        /// Frame offset of the object base (the `AddrLocal` offset).
        base: u32,
    },
    /// A global, identified by its base virtual address.
    Global {
        /// Base address.
        base: u64,
    },
    /// A heap allocation, identified by its `malloc` call site.
    Heap {
        /// The `Builtin::Malloc` pc.
        site: usize,
    },
    /// An interned string literal.
    Str {
        /// String index.
        sid: u32,
    },
    /// The null pointer.
    Null,
    /// Provenance lost (joined across regions, or reconstructed from an
    /// integer with no taint).
    Unknown,
}

/// Integer round-trip history of a reconstructed pointer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundTrip {
    /// The integer may have been arithmetically modified in between
    /// (HardBound/Strict invalidate the shadow entry on any modification).
    pub modified: bool,
    /// The round trip went through `intptr_t`/`intcap_t` on **every** path
    /// (on CHERI those are capabilities, so the tag survives).
    pub via_intcap: bool,
}

/// An abstract pointer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PtrAbs {
    /// The providing object.
    pub region: Region,
    /// Object size in bytes, when known.
    pub size: Option<u64>,
    /// Byte offset from the object base.
    pub off: Interval,
    /// Known base alignment of the object (for flag-masking precision).
    pub align: u64,
    /// Pointee is `const`-qualified.
    pub is_const: bool,
    /// Derived (at some point) by casting away `const` — CHERIv2 store
    /// permission is gone.
    pub const_stripped: bool,
    /// Produced directly by pointer `+` (the invalid-intermediate
    /// classifier; cleared by stores and loads, like the AST analyzer's
    /// direct-subexpression rule).
    pub via_add: bool,
    /// Metadata lost to a byte-granularity copy (tag/shadow/bounds gone).
    pub stripped: bool,
    /// Reconstruction was imprecise (offset unknown, partial bytes).
    pub approx: bool,
    /// No idea what this points to (checked models may trap; even the
    /// PDP-11 model may fault on an unmapped address).
    pub wild: bool,
    /// Reconstructed from an integer truncated below pointer width (the
    /// **Wide** idiom) — the raw address itself is damaged, so even the
    /// unchecked PDP-11 model faults.
    pub truncated: bool,
    /// The providing object may have been retired (`Kill` reached).
    pub dead: bool,
    /// Went through an integer; `None` for never-escaped pointers.
    pub rt: Option<RoundTrip>,
    /// MPX look-aside bounds `[lo, hi)` relative to the object base, when
    /// narrower than the object (`narrow_field` narrows in-bounds fields).
    pub mpx: Option<(u64, u64)>,
    /// On **some** path the bounds metadata is intact: a fat pointer whose
    /// MPX bound-table entry still matches. `stripped`, `wild` and a
    /// modified `rt` say metadata *may* be lost, so after a join they
    /// cannot say that it may also be intact; this fact does.
    pub meta_intact: bool,
}

impl PtrAbs {
    /// A pointer at the base of a fully-known object.
    pub fn object(region: Region, size: u64, align: u64) -> PtrAbs {
        PtrAbs {
            region,
            size: Some(size),
            off: Interval::singleton(0),
            align,
            is_const: false,
            const_stripped: false,
            via_add: false,
            stripped: false,
            approx: false,
            wild: false,
            truncated: false,
            dead: false,
            rt: None,
            mpx: None,
            meta_intact: true,
        }
    }

    /// A pointer about which nothing is known.
    pub fn wild_ptr() -> PtrAbs {
        PtrAbs {
            region: Region::Unknown,
            size: None,
            off: Interval::FULL,
            align: 1,
            is_const: false,
            const_stripped: false,
            via_add: false,
            stripped: false,
            approx: false,
            wild: true,
            truncated: false,
            dead: false,
            rt: None,
            mpx: None,
            meta_intact: false,
        }
    }

    /// An assumed-valid pointer of unknown region: a function parameter.
    /// The analysis is intraprocedural, so parameters are presumed to
    /// satisfy the callee's precondition (valid, adequately sized).
    pub fn assumed_param() -> PtrAbs {
        PtrAbs {
            region: Region::Unknown,
            size: None,
            off: Interval::singleton(0),
            align: 1,
            is_const: false,
            const_stripped: false,
            via_add: false,
            stripped: false,
            approx: false,
            wild: false,
            truncated: false,
            dead: false,
            rt: None,
            mpx: None,
            meta_intact: true,
        }
    }

    /// Least upper bound.
    pub fn join(&self, o: &PtrAbs) -> PtrAbs {
        let same_region = self.region == o.region;
        PtrAbs {
            region: if same_region {
                self.region
            } else {
                Region::Unknown
            },
            size: if same_region && self.size == o.size {
                self.size
            } else {
                None
            },
            off: if same_region {
                self.off.join(o.off)
            } else {
                Interval::FULL
            },
            align: self.align.min(o.align),
            is_const: self.is_const || o.is_const,
            const_stripped: self.const_stripped || o.const_stripped,
            via_add: self.via_add && o.via_add,
            stripped: self.stripped || o.stripped,
            approx: self.approx || o.approx || !same_region,
            wild: self.wild || o.wild,
            truncated: self.truncated || o.truncated,
            dead: self.dead || o.dead,
            rt: match (self.rt, o.rt) {
                (None, r) | (r, None) => r,
                (Some(a), Some(b)) => Some(RoundTrip {
                    modified: a.modified || b.modified,
                    via_intcap: a.via_intcap && b.via_intcap,
                }),
            },
            // The narrower window: a trap on either path must survive the
            // join (an empty window traps every access).
            mpx: match (self.mpx, o.mpx) {
                (Some(a), Some(b)) if same_region => Some((a.0.max(b.0), a.1.min(b.1))),
                (Some(w), None) | (None, Some(w)) if same_region => Some(w),
                _ => None,
            },
            meta_intact: self.meta_intact || o.meta_intact,
        }
    }
}

/// Pointer taint on an integer: which pointer it was derived from and how
/// far the integer has drifted from that pointer's address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Taint {
    /// The pointer the integer was cast from.
    pub prov: Box<PtrAbs>,
    /// Byte delta added in integer space since the cast.
    pub delta: Interval,
    /// Arithmetically modified since the cast (any op, even if the delta
    /// nets to zero — HardBound/Strict shadow entries are already gone).
    pub modified: bool,
    /// On **some** path the value lived in `intptr_t`/`intcap_t` when
    /// arithmetic was done (CHERIv2 traps on capability arithmetic).
    pub via_intcap_any: bool,
    /// On **every** path the value stayed in `intptr_t`/`intcap_t`
    /// (reconstruction keeps the CHERI tag).
    pub via_intcap_all: bool,
    /// Truncated below pointer width (the **Wide** idiom) — reconstruction
    /// yields a wild pointer on every 64-bit model.
    pub truncated: bool,
    /// Only a byte-slice of the pointer (partial copy) — metadata lost.
    pub stripped: bool,
    /// On **some** path the integer is the whole, unmodified cast, so a
    /// fat pointer rebuilt from it recovers its bounds (the complement of
    /// `modified` and `stripped`, which are may-facts too).
    pub meta_intact: bool,
}

impl Taint {
    /// Least upper bound.
    pub fn join(&self, o: &Taint) -> Taint {
        Taint {
            prov: Box::new(self.prov.join(&o.prov)),
            delta: self.delta.join(o.delta),
            modified: self.modified || o.modified,
            via_intcap_any: self.via_intcap_any || o.via_intcap_any,
            via_intcap_all: self.via_intcap_all && o.via_intcap_all,
            truncated: self.truncated || o.truncated,
            stripped: self.stripped || o.stripped,
            meta_intact: self.meta_intact || o.meta_intact,
        }
    }
}

/// An abstract integer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntAbs {
    /// Value range.
    pub range: Interval,
    /// Pointer derivation, when any flows in (exists-semantics under
    /// joins, matching the AST analyzer's flow-insensitive taint).
    pub taint: Option<Taint>,
    /// The value is the *direct* result of a pointer→integer (or folded)
    /// cast — the AST analyzer's "rhs is directly a cast" check for the
    /// **Int** idiom. Survives `ConvertStore`, cleared by everything else.
    pub fresh_cast: bool,
    /// Statically known non-zero even when the range spans zero (e.g.
    /// `x | 1`).
    pub nonzero: bool,
    /// The frame slot this value was loaded from, for branch refinement.
    pub src: Option<u32>,
    /// A comparison fact this (boolean) value witnesses.
    pub cmp: Option<CmpFact>,
    /// Where a folded constant came from (`offsetof` marks the Container
    /// idiom's subtrahend; matches the AST analyzer's origin check).
    pub origin: ConstOrigin,
}

impl IntAbs {
    /// An unknown integer.
    pub fn top() -> IntAbs {
        IntAbs::of(Interval::FULL)
    }

    /// A known-range integer with no taint.
    pub fn of(range: Interval) -> IntAbs {
        IntAbs {
            range,
            taint: None,
            fresh_cast: false,
            nonzero: false,
            src: None,
            cmp: None,
            origin: ConstOrigin::None,
        }
    }

    /// The constant `v`.
    pub fn constant(v: i64) -> IntAbs {
        IntAbs::of(Interval::singleton(v))
    }

    /// Whether the value may be zero.
    pub fn may_be_zero(&self) -> bool {
        self.range.contains(0) && !self.nonzero
    }

    /// Least upper bound.
    pub fn join(&self, o: &IntAbs) -> IntAbs {
        IntAbs {
            range: self.range.join(o.range),
            taint: match (&self.taint, &o.taint) {
                (None, t) | (t, None) => t.clone(),
                (Some(a), Some(b)) => Some(a.join(b)),
            },
            fresh_cast: self.fresh_cast && o.fresh_cast,
            nonzero: self.nonzero && o.nonzero,
            src: if self.src == o.src { self.src } else { None },
            cmp: if self.cmp == o.cmp {
                self.cmp.clone()
            } else {
                None
            },
            origin: if self.origin == o.origin {
                self.origin
            } else {
                ConstOrigin::None
            },
        }
    }
}

/// What a comparison's boolean result says about a frame slot, used to
/// refine ranges along branch edges (`i < n` bounding the loop body).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CmpFact {
    /// The compared slot (frame offset).
    pub slot: u32,
    /// The comparison, with the slot on the left.
    pub op: cheri_c::BinOp,
    /// The right-hand side.
    pub rhs: CmpRhs,
}

/// Right-hand side of a [`CmpFact`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpRhs {
    /// A compile-time constant.
    Const(i64),
    /// Another frame slot (resolved to its range when the fact is
    /// applied).
    Slot(u32),
}

/// An abstract value: what one stack cell or memory cell holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbsVal {
    /// Unreached / uninitialized.
    Bot,
    /// An integer.
    Int(IntAbs),
    /// A pointer.
    Ptr(PtrAbs),
    /// Anything (integer or pointer, unknown).
    Top,
}

impl AbsVal {
    /// Least upper bound.
    pub fn join(&self, o: &AbsVal) -> AbsVal {
        match (self, o) {
            (AbsVal::Bot, v) | (v, AbsVal::Bot) => v.clone(),
            (AbsVal::Top, _) | (_, AbsVal::Top) => AbsVal::Top,
            (AbsVal::Int(a), AbsVal::Int(b)) => AbsVal::Int(a.join(b)),
            (AbsVal::Ptr(a), AbsVal::Ptr(b)) => AbsVal::Ptr(a.join(b)),
            (AbsVal::Int(_), AbsVal::Ptr(_)) | (AbsVal::Ptr(_), AbsVal::Int(_)) => AbsVal::Top,
        }
    }

    /// Interval widening applied pointwise (used at loop heads).
    pub fn widen(&self, next: &AbsVal) -> AbsVal {
        match (self, next) {
            (AbsVal::Int(a), AbsVal::Int(b)) => {
                let mut w = a.join(b);
                w.range = a.range.widen(b.range);
                AbsVal::Int(w)
            }
            (AbsVal::Ptr(a), AbsVal::Ptr(b)) => {
                let mut w = a.join(b);
                if a.region == b.region {
                    w.off = a.off.widen(b.off);
                }
                AbsVal::Ptr(w)
            }
            _ => self.join(next),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_arith_is_sound_on_samples() {
        // Deterministic pseudo-random sampling: every concrete result of
        // `a op b` must land inside the abstract result of the operand
        // intervals.
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..2000 {
            let a = (next() % 2001) as i64 - 1000;
            let b = (next() % 2001) as i64 - 1000;
            let c = (next() % 2001) as i64 - 1000;
            let d = (next() % 2001) as i64 - 1000;
            let ia = Interval::new(a.min(b), a.max(b));
            let ib = Interval::new(c.min(d), c.max(d));
            let x = a.min(b) + (next() % (ia.hi - ia.lo + 1) as u64) as i64;
            let y = c.min(d) + (next() % (ib.hi - ib.lo + 1) as u64) as i64;
            assert!(ia.add(ib).contains(x + y));
            assert!(ia.sub(ib).contains(x - y));
            assert!(ia.mul(ib).contains(x * y));
            assert!(ia.neg().contains(-x));
            assert!(ia.bitnot().contains(!x));
            if y != 0 {
                assert!(ia.div_nonzero().contains(x / y), "{x}/{y} {ia:?}");
            }
            assert!(ia.join(ib).contains(x));
            assert!(ia.join(ib).contains(y));
            if let Some(m) = ia.meet(ib) {
                assert!(m.lo <= m.hi);
            }
        }
    }

    #[test]
    fn interval_overflow_goes_full() {
        let big = Interval::new(i64::MAX / 2, i64::MAX);
        assert_eq!(big.add(big), Interval::FULL);
        assert_eq!(big.mul(big), Interval::FULL);
        assert_eq!(Interval::singleton(i64::MIN).neg(), Interval::FULL);
    }

    #[test]
    fn widening_reaches_a_fixpoint() {
        let mut cur = Interval::singleton(0);
        let mut grown = cur;
        for step in 1..100 {
            grown = grown.join(Interval::singleton(step));
            let w = cur.widen(grown);
            if w == cur {
                return; // converged
            }
            cur = w;
        }
        assert_eq!(cur.hi, i64::MAX, "widening must terminate the ascent");
    }

    #[test]
    fn model_set_round_trips() {
        let mut s = ModelSet::EMPTY;
        assert!(s.is_empty());
        for m in ModelKind::ALL {
            s = s.with(m);
        }
        assert_eq!(s, ModelSet::all_models());
        assert!(!s.has_vm());
        assert_eq!(s.with_vm(), ModelSet::everything());
        assert_eq!(s.models().len(), ModelKind::ALL.len());
        for m in ModelKind::ALL {
            assert!(ModelSet::EMPTY.with(m).contains(m));
        }
    }

    #[test]
    fn joins_are_commutative_and_absorb_bot() {
        let p = AbsVal::Ptr(PtrAbs::object(Region::Stack { base: 32 }, 16, 8));
        let i = AbsVal::Int(IntAbs::constant(7));
        assert_eq!(p.join(&AbsVal::Bot), p);
        assert_eq!(AbsVal::Bot.join(&p), p);
        assert_eq!(p.join(&i), AbsVal::Top);
        assert_eq!(i.join(&p), AbsVal::Top);
        // Ptr/Int joins of like kinds stay in kind.
        let q = AbsVal::Ptr(PtrAbs::object(Region::Stack { base: 0 }, 8, 8));
        match p.join(&q) {
            AbsVal::Ptr(j) => {
                assert_eq!(j.region, Region::Unknown);
                assert!(j.approx, "cross-region join is approximate");
            }
            other => panic!("expected pointer join, got {other:?}"),
        }
    }

    #[test]
    fn taint_join_keeps_exists_semantics() {
        let t = IntAbs {
            taint: Some(Taint {
                prov: Box::new(PtrAbs::object(Region::Stack { base: 0 }, 8, 8)),
                delta: Interval::singleton(0),
                modified: false,
                via_intcap_any: true,
                via_intcap_all: true,
                truncated: false,
                stripped: false,
                meta_intact: true,
            }),
            ..IntAbs::top()
        };
        let clean = IntAbs::top();
        let j = t.join(&clean);
        let jt = j.taint.expect("taint survives joining an untainted path");
        assert!(jt.via_intcap_any);
        // ...but the all-paths capability guarantee does not.
        assert!(jt.via_intcap_all, "None-side join keeps the taint as-is");
        let j2 = t.join(&IntAbs {
            taint: Some(Taint {
                via_intcap_any: false,
                via_intcap_all: false,
                ..t.taint.clone().expect("taint")
            }),
            ..IntAbs::top()
        });
        assert!(j2.taint.as_ref().expect("joined").via_intcap_any);
        assert!(!j2.taint.as_ref().expect("joined").via_intcap_all);
    }
}
