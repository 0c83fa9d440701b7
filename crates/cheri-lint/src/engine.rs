//! The abstract interpreter: a flow-sensitive worklist dataflow over the
//! recovered CFG of each lowered function.
//!
//! The transfer function mirrors `cheri-interp`'s dispatch loop op for op,
//! but over [`crate::lattice`] values instead of bits. Every place the
//! seven models consult state at run time — bounds, shadow validity,
//! liveness, capability tags, store permission — has an abstract
//! counterpart here, so each dereference or arithmetic op can be mapped to
//! the set of models that **may** refuse it. Idiom occurrences are
//! detected on the same pass using the exact rules of the AST analyzer
//! ([`cheri_idioms`]), keeping Table 1 counts bit-identical.
//!
//! The analysis is intraprocedural and optimistic about what it cannot
//! see: function parameters are assumed to satisfy their callee's
//! precondition (valid, adequately sized), calls havoc escaped state, and
//! `assert`s are only reported when they *definitely* fail. Divergence
//! (imprecision the analysis cannot recover from) is reported as its own
//! finding rather than silently dropped.

use crate::lattice::{
    AbsVal, CmpFact, CmpRhs, IntAbs, Interval, ModelSet, PtrAbs, Region, RoundTrip, Taint,
};
use crate::report::{Finding, FindingKind, Report};
use cheri_c::{BinOp, StructDef, Type, UnOp};
use cheri_idioms::Idiom;
use cheri_interp::{size_of, BinMeta, Builtin, Cfg, ConstOrigin, IrProgram, ModelKind, Op};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// `sizeof(void)` poison marker in `BinMeta::a_elem` / op size fields
/// (`cheri_interp::ir::ELEM_POISON`, not re-exported).
const ELEM_POISON: u64 = u64::MAX;

/// Frame bases are 32-byte aligned (`push_frame` masks with `!31`); heap
/// and rodata allocations are at least 32-byte aligned too.
const BASE_ALIGN: u64 = 32;

/// Addresses below this are not mapped under any substrate (`VBASE` is
/// `0x4_0000_0000`): an untainted integer this small used as a pointer is
/// a definite fault everywhere.
const LOW_ADDR: i64 = 0x10_0000;

/// One tracked memory cell: the value last stored at a frame/global
/// offset, with the store's width.
#[derive(Clone, Debug, PartialEq)]
struct Cell {
    val: AbsVal,
    size: u64,
}

/// Tracked memory cells keyed by frame offset or virtual address: a `Vec`
/// of `(key, cell)` pairs in strictly ascending key order. A state holds
/// a handful of cells, so a binary search over one contiguous buffer beats
/// a tree, and `clone_from` into a reused buffer needs no allocation.
/// Inserting shifts the tail, but every transfer that inserts already
/// scans all cells for overlaps.
#[derive(Debug, PartialEq)]
struct Cells<K>(Vec<(K, Cell)>);

impl<K> Default for Cells<K> {
    fn default() -> Self {
        Cells(Vec::new())
    }
}

impl<K: Clone> Clone for Cells<K> {
    fn clone(&self) -> Self {
        Cells(self.0.clone())
    }

    fn clone_from(&mut self, o: &Self) {
        self.0.clone_from(&o.0);
    }
}

impl<K: Ord + Copy> Cells<K> {
    fn find(&self, k: K) -> Result<usize, usize> {
        self.0.binary_search_by(|e| e.0.cmp(&k))
    }

    fn get(&self, k: &K) -> Option<&Cell> {
        self.find(*k).ok().map(|i| &self.0[i].1)
    }

    fn get_mut(&mut self, k: &K) -> Option<&mut Cell> {
        self.find(*k).ok().map(|i| &mut self.0[i].1)
    }

    /// Inserts or replaces the cell at `k`.
    fn insert(&mut self, k: K, c: Cell) {
        match self.find(k) {
            Ok(i) => self.0[i].1 = c,
            Err(i) => self.0.insert(i, (k, c)),
        }
    }

    /// Inserts `c` at `k` unless a cell is already there.
    fn or_insert(&mut self, k: K, c: Cell) {
        if let Err(i) = self.find(k) {
            self.0.insert(i, (k, c));
        }
    }

    fn retain(&mut self, mut f: impl FnMut(&K, &mut Cell) -> bool) {
        self.0.retain_mut(|(k, c)| f(k, c));
    }

    fn clear(&mut self) {
        self.0.clear();
    }

    fn iter(&self) -> impl Iterator<Item = (&K, &Cell)> {
        self.0.iter().map(|(k, c)| (k, c))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut Cell)> {
        self.0.iter_mut().map(|(k, c)| (&*k, c))
    }

    /// Joins `o` into `self` cell by cell (see [`AbsState::join_into`]);
    /// returns whether any cell was added, dropped or changed.
    fn join_from(&mut self, o: &Cells<K>, widen: bool) -> bool {
        let (mut changed, mut appended, mut dropped) = (false, false, false);
        let n = self.0.len();
        let mut j = 0;
        // One merge walk over both key lists. Cells only `o` has are
        // appended past the first `n` and sorted in afterwards.
        for i in 0..n {
            let k = self.0[i].0;
            while let Some((ok, d)) = o.0.get(j).filter(|e| e.0 < k) {
                self.0.push((*ok, degrade_cell(d)));
                appended = true;
                j += 1;
            }
            let c = &mut self.0[i].1;
            let val = match o.0.get(j) {
                Some((ok, d)) if *ok == k => {
                    j += 1;
                    if d.size != c.size {
                        dropped = true;
                        continue;
                    }
                    if widen {
                        clamp_widened(c.val.widen(&d.val), c.size)
                    } else {
                        c.val.join(&d.val)
                    }
                }
                _ => degrade(&c.val),
            };
            if val != c.val {
                c.val = val;
                changed = true;
            }
        }
        for (ok, d) in &o.0[j..] {
            self.0.push((*ok, degrade_cell(d)));
            appended = true;
        }
        if dropped {
            // Shared keys whose widths disagree leave the state.
            self.0
                .retain(|(k, c)| o.get(k).is_none_or(|d| d.size == c.size));
        }
        if appended {
            self.0.sort_unstable_by_key(|e| e.0);
        }
        changed || appended || dropped
    }
}

/// Widening shoots a grown bound to infinity, but a sub-word cell cannot
/// hold more than its width: every store through it is value-converted.
/// Clamping the widened range to the union of the signed and unsigned
/// representable ranges keeps loop accumulators finite without guessing
/// signedness.
fn clamp_widened(val: AbsVal, size: u64) -> AbsVal {
    if size >= 8 {
        return val;
    }
    match val {
        AbsVal::Int(mut i) => {
            let bits = 8 * size as u32;
            let bound = Interval::new(-(1i64 << (bits - 1)), (1i64 << bits) - 1);
            if let Some(m) = i.range.meet(bound) {
                i.range = m;
            }
            AbsVal::Int(i)
        }
        other => other,
    }
}

/// A cell present on one path only joins with what the other path would
/// read from the uninitialized slot: an unconstrained value. Joining
/// (rather than dropping) keeps may-taint alive across the merge — a
/// pointer byte-assembled inside a loop body must still read as stripped
/// after the loop-head join.
fn degrade(val: &AbsVal) -> AbsVal {
    match val {
        AbsVal::Int(i) => AbsVal::Int(i.join(&IntAbs::top())),
        AbsVal::Ptr(p) => AbsVal::Ptr(p.join(&PtrAbs::assumed_param())),
        other => other.clone(),
    }
}

fn degrade_cell(c: &Cell) -> Cell {
    Cell {
        val: degrade(&c.val),
        size: c.size,
    }
}

/// The abstract machine state at one program point.
#[derive(Debug, PartialEq, Default)]
struct AbsState {
    /// Operand stack, mirroring the interpreter's `vstack`.
    stack: Vec<AbsVal>,
    /// Tracked frame cells, keyed by frame offset.
    locals: Cells<u32>,
    /// Tracked global cells, keyed by virtual address.
    globals: Cells<u64>,
    /// Heap allocation sites (`Malloc` pcs) that may have been freed.
    freed: BTreeSet<usize>,
    /// Frame offsets of locals holding a NUL-terminated string
    /// (`InitStrLocal`), for bounded `strlen`/`strcmp` results.
    str_locals: BTreeSet<u32>,
}

impl Clone for AbsState {
    fn clone(&self) -> Self {
        let mut st = AbsState::default();
        st.clone_from(self);
        st
    }

    /// Field by field, so a recycled state keeps its buffers.
    fn clone_from(&mut self, o: &Self) {
        self.stack.clone_from(&o.stack);
        self.locals.clone_from(&o.locals);
        self.globals.clone_from(&o.globals);
        self.freed.clone_from(&o.freed);
        self.str_locals.clone_from(&o.str_locals);
    }
}

impl AbsState {
    /// Joins `o` into `self` in place (widening at loop heads) and reports
    /// whether `self` changed. Returns `None` and leaves `self` untouched
    /// on irreconcilable stack depths (the caller reports divergence).
    fn join_into(&mut self, o: &AbsState, widen: bool) -> Option<bool> {
        if self.stack.len() != o.stack.len() {
            return None;
        }
        let mut changed = false;
        for (a, b) in self.stack.iter_mut().zip(&o.stack) {
            let v = if widen { a.widen(b) } else { a.join(b) };
            if v != *a {
                *a = v;
                changed = true;
            }
        }
        changed |= self.locals.join_from(&o.locals, widen);
        changed |= self.globals.join_from(&o.globals, widen);
        for &site in &o.freed {
            changed |= self.freed.insert(site);
        }
        let before = self.str_locals.len();
        self.str_locals.retain(|off| o.str_locals.contains(off));
        changed |= self.str_locals.len() != before;
        Some(changed)
    }
}

/// Alignment of a frame offset, given the 32-byte-aligned frame base.
fn frame_align(off: u32) -> u64 {
    if off == 0 {
        BASE_ALIGN
    } else {
        (1u64 << off.trailing_zeros().min(5)).min(BASE_ALIGN)
    }
}

/// Alignment of an absolute global address.
fn addr_align(addr: u64) -> u64 {
    if addr == 0 {
        BASE_ALIGN
    } else {
        (1u64 << addr.trailing_zeros().min(5)).min(BASE_ALIGN)
    }
}

/// Whether stores to this lowered type are wide integers for the **Int**
/// idiom (the AST analyzer's `is_wide_int`).
fn is_wide_int(ty: &Type) -> bool {
    matches!(
        ty,
        Type::Int { width: 8, .. } | Type::IntPtr { .. } | Type::IntCap { .. }
    )
}

/// How the outcome of one op feeds the block walk.
enum Flow {
    /// Fall through to the next op.
    Next,
    /// The path ends here (return, definite failure, unsupported op).
    Dead,
}

/// The per-program analysis driver.
struct Analyzer<'a> {
    prog: &'a IrProgram,
    structs: &'a [StructDef],
    /// Findings keyed by `(pc, kind)` for deduplication across worklist
    /// revisits; `may` sets are unioned.
    findings: BTreeMap<(usize, u8), Finding>,
    /// Name of the function currently being analyzed.
    func: String,
    /// Frame offsets of address-taken variables in the current function
    /// (the only locals a call or wild store can reach).
    escaped: Vec<(u32, u64)>,
    /// Exit-state globals of the `<global-init>` pseudo-function.
    init_globals: Cells<u64>,
    /// Spare states whose buffers the worklist reuses: block in-state
    /// copies, taken-edge copies and out-states consumed by a join.
    pool: Vec<AbsState>,
    /// The out-state buffer `run_block` fills, reused across visits.
    out: Vec<(usize, AbsState)>,
}

fn kind_key(kind: FindingKind) -> u8 {
    match kind {
        FindingKind::Idiom(i) => Idiom::ALL.iter().position(|&k| k == i).expect("idiom") as u8,
        FindingKind::Deref => 8,
        FindingKind::Arith => 9,
        FindingKind::DivByZero => 10,
        FindingKind::Overflow => 11,
        FindingKind::AssertFail => 12,
        FindingKind::Layout => 13,
        FindingKind::Nondet => 14,
        FindingKind::Diverged => 15,
    }
}

impl<'a> Analyzer<'a> {
    fn add(&mut self, pc: usize, kind: FindingKind, may: ModelSet) {
        let info = self.prog.op_info(pc);
        let e = self
            .findings
            .entry((pc, kind_key(kind)))
            .or_insert_with(|| Finding {
                func: self.func.clone(),
                pc,
                line: info.line,
                col: info.col,
                kind,
                may: ModelSet::EMPTY,
            });
        e.may = e.may.union(may);
    }

    fn ty(&self, id: u32) -> &'a Type {
        &self.prog.types[id as usize]
    }

    fn ty_size(&self, ty: &Type) -> u64 {
        if matches!(ty, Type::Void) {
            return 1;
        }
        size_of(ty, self.structs, &self.prog.target)
    }

    // --- Memory ---

    /// The abstract value a load of `ty` yields from untracked memory:
    /// optimistic for pointers (assumed valid, like parameters).
    fn typed_unknown(ty: &Type) -> AbsVal {
        match ty {
            Type::Ptr { .. } => AbsVal::Ptr(PtrAbs::assumed_param()),
            Type::Int { .. } | Type::IntPtr { .. } | Type::IntCap { .. } => {
                AbsVal::Int(IntAbs::top())
            }
            _ => AbsVal::Top,
        }
    }

    /// A value seen through a partial (byte-sliced) window: pointers decay
    /// to metadata-stripped integer taint, integers lose their range.
    fn partial_view(v: &AbsVal) -> AbsVal {
        match v {
            AbsVal::Ptr(p) => AbsVal::Int(IntAbs {
                taint: Some(Taint {
                    prov: Box::new(p.clone()),
                    delta: Interval::FULL,
                    modified: false,
                    via_intcap_any: false,
                    via_intcap_all: false,
                    truncated: false,
                    stripped: true,
                }),
                ..IntAbs::top()
            }),
            AbsVal::Int(i) => AbsVal::Int(IntAbs {
                range: Interval::FULL,
                taint: i.taint.clone().map(|t| Taint {
                    stripped: true,
                    ..t
                }),
                ..IntAbs::top()
            }),
            _ => AbsVal::Top,
        }
    }

    fn read_cells<K: Ord + Copy>(
        cells: &Cells<K>,
        key_off: impl Fn(K) -> i128,
        off: i128,
        size: u64,
        ty: &Type,
    ) -> AbsVal {
        // Exact hit: the common case.
        let mut out: Option<AbsVal> = None;
        let mut covered = false;
        for (&k, c) in cells.iter() {
            let (clo, chi) = (key_off(k), key_off(k) + i128::from(c.size));
            if clo >= off + i128::from(size) || chi <= off {
                continue;
            }
            let v = if clo == off && c.size == size {
                covered = true;
                c.val.clone()
            } else {
                Self::partial_view(&c.val)
            };
            out = Some(match out {
                None => v,
                Some(prev) => prev.join(&v),
            });
        }
        match out {
            Some(v) if covered => v,
            // Partially covered: the result is raw bytes, not a value the
            // requested type vouches for. Staying in integer space keeps
            // may-taint alive (Int ⊔ Ptr would be Top, which reads as an
            // assumed-valid pointer — exactly the unsound direction).
            Some(AbsVal::Int(i)) => AbsVal::Int(i.join(&IntAbs::top())),
            Some(v) => v.join(&Self::typed_unknown(ty)),
            None => Self::typed_unknown(ty),
        }
    }

    /// Stored values shed the "direct subexpression" markers the idiom
    /// rules key on, exactly like the AST analyzer's statement boundary.
    fn settle(v: &AbsVal) -> AbsVal {
        match v {
            AbsVal::Int(i) => AbsVal::Int(IntAbs {
                fresh_cast: false,
                origin: ConstOrigin::None,
                ..i.clone()
            }),
            AbsVal::Ptr(p) => AbsVal::Ptr(PtrAbs {
                via_add: false,
                ..p.clone()
            }),
            other => other.clone(),
        }
    }

    /// Writes `val` at `[off, off+size)` of the local frame.
    fn write_local(st: &mut AbsState, off: u32, size: u64, val: &AbsVal) {
        let val = Self::settle(val);
        st.str_locals
            .retain(|&b| !(u64::from(off) < u64::from(b) + 256 && u64::from(b) <= u64::from(off)));
        if let Some(c) = st.locals.get_mut(&off) {
            if c.size == size {
                c.val = val;
                return;
            }
        }
        // Degrade overlapping cells, then insert.
        let lo = i128::from(off);
        let hi = lo + i128::from(size);
        for (&k, c) in st.locals.iter_mut() {
            let (clo, chi) = (i128::from(k), i128::from(k) + i128::from(c.size));
            if clo < hi && chi > lo && !(clo == lo && c.size == size) {
                // Partial overlap: the old content is damaged byte-wise.
                c.val = Self::partial_view(&c.val).join(&Self::partial_view(&val));
            }
        }
        st.locals.insert(off, Cell { val, size });
    }

    fn write_global(st: &mut AbsState, addr: u64, size: u64, val: &AbsVal) {
        let val = Self::settle(val);
        if let Some(c) = st.globals.get_mut(&addr) {
            if c.size == size {
                c.val = val;
                return;
            }
        }
        let lo = i128::from(addr);
        let hi = lo + i128::from(size);
        for (&k, c) in st.globals.iter_mut() {
            let (clo, chi) = (i128::from(k), i128::from(k) + i128::from(c.size));
            if clo < hi && chi > lo && !(clo == lo && c.size == size) {
                c.val = Self::partial_view(&c.val).join(&Self::partial_view(&val));
            }
        }
        st.globals.insert(addr, Cell { val, size });
    }

    /// Drops precision for everything a call (or a store through an
    /// unknown pointer) could mutate: escaped locals and all globals.
    fn havoc_escaped(&self, st: &mut AbsState) {
        for &(off, size) in &self.escaped {
            let lo = i128::from(off);
            let hi = lo + i128::from(size);
            st.locals
                .retain(|&k, c| i128::from(k) + i128::from(c.size) <= lo || i128::from(k) >= hi);
            st.str_locals.remove(&off);
        }
        st.globals.clear();
    }

    // --- Pointer reconstruction (the model `int_to_ptr` analog) ---

    fn reconstruct(i: &IntAbs) -> PtrAbs {
        if let Some(t) = &i.taint {
            if t.truncated {
                return PtrAbs {
                    truncated: true,
                    stripped: t.stripped,
                    ..PtrAbs::wild_ptr()
                };
            }
            if t.stripped {
                return PtrAbs {
                    stripped: true,
                    rt: Some(RoundTrip {
                        modified: t.modified,
                        via_intcap: t.via_intcap_all,
                    }),
                    ..PtrAbs::wild_ptr()
                };
            }
            let prov = &t.prov;
            let prov_rt_mod = prov.rt.is_some_and(|r| r.modified);
            return PtrAbs {
                region: prov.region,
                size: prov.size,
                off: prov.off.add(t.delta),
                align: prov.align,
                is_const: prov.is_const,
                const_stripped: prov.const_stripped,
                via_add: false,
                stripped: prov.stripped,
                approx: prov.approx || t.delta.as_singleton().is_none(),
                wild: prov.wild,
                truncated: prov.truncated,
                dead: prov.dead,
                rt: Some(RoundTrip {
                    modified: t.modified || prov_rt_mod,
                    via_intcap: t.via_intcap_all && prov.rt.is_none_or(|r| r.via_intcap),
                }),
                mpx: prov.mpx,
            };
        }
        // Untainted integers: a constant zero is NULL, a small constant is
        // an unmapped address, anything else is a wild raw pointer.
        if i.range == Interval::singleton(0) && !i.nonzero {
            return PtrAbs {
                region: Region::Null,
                ..PtrAbs::wild_ptr()
            };
        }
        if i.range.hi < LOW_ADDR {
            return PtrAbs {
                region: Region::Null,
                ..PtrAbs::wild_ptr()
            };
        }
        PtrAbs::wild_ptr()
    }

    /// Coerces an abstract value to a pointer (`ToPtr` / pointer contexts).
    fn as_ptr(v: &AbsVal) -> PtrAbs {
        match v {
            AbsVal::Ptr(p) => p.clone(),
            AbsVal::Int(i) => Self::reconstruct(i),
            AbsVal::Top => PtrAbs::assumed_param(),
            AbsVal::Bot => PtrAbs::wild_ptr(),
        }
    }

    // --- The per-model dereference check ---

    #[allow(clippy::too_many_lines)]
    fn deref_check(&mut self, pc: usize, p: &PtrAbs, len: u64, write: bool, st: &AbsState) {
        use ModelKind::*;
        let mut may = ModelSet::EMPTY;
        if p.region == Region::Null {
            self.add(pc, FindingKind::Deref, ModelSet::everything());
            return;
        }
        let oob = p.wild
            || match p.size {
                None => false, // assumed-valid unknown object
                Some(sz) => p.off.lo < 0 || i128::from(p.off.hi) + i128::from(len) > i128::from(sz),
            };
        let rt_mod = p.rt.is_some_and(|r| r.modified);
        let rt_plain = p.rt.is_some_and(|r| !r.via_intcap);
        let meta_lost = p.stripped || rt_mod || p.wild;
        // PDP-11: only a damaged raw address faults (unmapped memory).
        if p.truncated {
            may = may.with(Pdp11);
        }
        // HardBound / Strict fail closed: lost or invalidated metadata
        // yields a zero-length pointer; in-metadata pointers bounds-check.
        if meta_lost || oob {
            may = may.with(HardBound).with(Strict);
        }
        // MPX fails open: no (or desynchronized) bound-table entry means no
        // check at all. Only an intact, possibly narrowed window traps.
        let mpx_oob = !meta_lost
            && match (p.mpx, p.size) {
                (Some((lo, hi)), _) => {
                    p.off.lo < i64::try_from(lo).unwrap_or(i64::MAX)
                        || i128::from(p.off.hi) + i128::from(len) > i128::from(hi)
                }
                (None, Some(sz)) => {
                    p.off.lo < 0 || i128::from(p.off.hi) + i128::from(len) > i128::from(sz)
                }
                (None, None) => false,
            };
        if p.truncated || mpx_oob {
            may = may.with(Mpx);
        }
        // Relaxed checks the live-object map: address-based, so stripped
        // metadata is irrelevant but liveness and bounds are not.
        let freed = matches!(p.region, Region::Heap { site } if st.freed.contains(&site));
        if p.wild || p.dead || freed || oob {
            may = may.with(Relaxed);
        }
        // CHERI: the tag dies with any plain-integer round trip or byte
        // copy; bounds are architectural; v2 additionally enforces const.
        let cheri_bad = p.stripped || rt_plain || p.wild || oob;
        if cheri_bad || (write && (p.is_const || p.const_stripped)) {
            may = may.with(CheriV2);
        }
        if cheri_bad {
            may = may.with(CheriV3);
        }
        if !may.is_empty() {
            self.add(pc, FindingKind::Deref, may);
        }
    }

    /// Reads through an abstract pointer. An imprecise offset inside a
    /// known object yields the byte-sliced view of everything the object
    /// holds (that is how a `char`-loop copy carries pointer taint).
    fn load_through(&self, st: &AbsState, p: &PtrAbs, ty: &Type, size: u64) -> AbsVal {
        match p.region {
            Region::Stack { base } if p.off.as_singleton().is_some() => {
                let off = i128::from(base) + i128::from(p.off.lo);
                Self::read_cells(&st.locals, |k: u32| i128::from(k), off, size, ty)
            }
            Region::Global { base } if p.off.as_singleton().is_some() => {
                let off = i128::from(base) + i128::from(p.off.lo);
                Self::read_cells(&st.globals, |k: u64| i128::from(k), off, size, ty)
            }
            Region::Stack { .. } | Region::Global { .. } => match self.span_view(st, p) {
                AbsVal::Top | AbsVal::Bot => Self::typed_unknown(ty),
                v => v,
            },
            _ => Self::typed_unknown(ty),
        }
    }

    /// Writes through an abstract pointer.
    fn store_through(&mut self, st: &mut AbsState, p: &PtrAbs, size: u64, val: &AbsVal) {
        match p.region {
            Region::Stack { base } => {
                if let Some(off) = p.off.as_singleton() {
                    if off >= 0 {
                        if let Ok(o) = u32::try_from(i128::from(base) + i128::from(off)) {
                            Self::write_local(st, o, size, val);
                            return;
                        }
                    }
                }
                self.byte_store(st, p, val);
            }
            Region::Global { base } => {
                if let Some(off) = p.off.as_singleton() {
                    if off >= 0 {
                        Self::write_global(st, base + off as u64, size, val);
                        return;
                    }
                }
                self.byte_store(st, p, val);
            }
            // Heap/string contents are untracked; a store through a wholly
            // unknown pointer could alias anything that has escaped.
            Region::Heap { .. } | Region::Str { .. } | Region::Null => {}
            Region::Unknown => self.havoc_escaped(st),
        }
    }

    /// What survives a `memcpy`: the value moves wholesale, but a byte
    /// count named by the program cannot carry a CHERI tag (`sizeof(T*)`
    /// is wider under the capability lowerings than under LP64), so
    /// pointers and pointer-derived integers arrive as **plain-integer
    /// round trips** — fine for the table-keyed models (HardBound's
    /// hardware copy mirrors the shadow space for aligned words) and
    /// trapping for CHERIv2/v3, whose reconstruction finds no tag.
    fn memcpy_value(v: &AbsVal) -> AbsVal {
        match v {
            AbsVal::Ptr(p) => AbsVal::Int(IntAbs {
                range: Interval::new(LOW_ADDR, ADDR_MAX),
                nonzero: p.region != Region::Null,
                taint: Some(Taint {
                    prov: Box::new(p.clone()),
                    delta: Interval::singleton(0),
                    modified: false,
                    via_intcap_any: false,
                    via_intcap_all: false,
                    truncated: false,
                    stripped: false,
                }),
                ..IntAbs::top()
            }),
            AbsVal::Int(i) => {
                let mut i = i.clone();
                i.fresh_cast = false;
                i.src = None;
                i.cmp = None;
                i.origin = ConstOrigin::None;
                if let Some(t) = &mut i.taint {
                    t.via_intcap_all = false;
                }
                AbsVal::Int(i)
            }
            other => other.clone(),
        }
    }

    /// The byte-sliced view of everything a pointer's object may hold —
    /// the abstract result of reading an unknown slice of it.
    fn span_view(&self, st: &AbsState, p: &PtrAbs) -> AbsVal {
        let mut acc = AbsVal::Bot;
        let span = |base: i128, size: Option<u64>| (base, base + i128::from(size.unwrap_or(1)));
        match p.region {
            Region::Stack { base } => {
                let (lo, hi) = span(i128::from(base), p.size);
                for (&k, c) in st.locals.iter() {
                    if i128::from(k) < hi && i128::from(k) + i128::from(c.size) > lo {
                        acc = acc.join(&Self::partial_view(&c.val));
                    }
                }
            }
            Region::Global { base } => {
                let (lo, hi) = span(i128::from(base), p.size);
                for (&k, c) in st.globals.iter() {
                    if i128::from(k) < hi && i128::from(k) + i128::from(c.size) > lo {
                        acc = acc.join(&Self::partial_view(&c.val));
                    }
                }
            }
            _ => return AbsVal::Top,
        }
        acc
    }

    /// A byte-granularity store at an imprecise offset: the whole object's
    /// tracked cells absorb the byte-sliced value, and a cell spanning the
    /// object is materialized so the slices are not silently forgotten
    /// (this is what makes a `char`-loop copy *into* a pointer slot
    /// reconstruct as metadata-stripped rather than assumed-valid).
    fn byte_store(&mut self, st: &mut AbsState, p: &PtrAbs, val: &AbsVal) {
        let pv = Self::partial_view(val);
        match p.region {
            Region::Stack { base } => {
                st.str_locals.remove(&base);
                let lo = i128::from(base);
                let hi = lo + i128::from(p.size.unwrap_or(1));
                for (&k, c) in st.locals.iter_mut() {
                    if i128::from(k) < hi && i128::from(k) + i128::from(c.size) > lo {
                        c.val = c.val.join(&pv);
                    }
                }
                if let Some(size) = p.size {
                    st.locals.or_insert(base, Cell { val: pv, size });
                }
            }
            Region::Global { base } => {
                let lo = i128::from(base);
                let hi = lo + i128::from(p.size.unwrap_or(1));
                for (&k, c) in st.globals.iter_mut() {
                    if i128::from(k) < hi && i128::from(k) + i128::from(c.size) > lo {
                        c.val = c.val.join(&pv);
                    }
                }
                if let Some(size) = p.size {
                    st.globals.or_insert(base, Cell { val: pv, size });
                }
            }
            Region::Heap { .. } | Region::Str { .. } | Region::Null => {}
            Region::Unknown => self.havoc_escaped(st),
        }
    }
}

/// The highest plausible user-space address: keeps pointer-valued integer
/// ranges clear of the `i64` corners so small arithmetic on them does not
/// read as possible overflow.
const ADDR_MAX: i64 = 1 << 47;

/// The representable range of a `width`-byte integer.
fn width_range(width: u8, signed: bool) -> Interval {
    if width >= 8 {
        return Interval::FULL;
    }
    let bits = u32::from(width) * 8;
    if signed {
        let max = (1i64 << (bits - 1)) - 1;
        Interval::new(-max - 1, max)
    } else {
        Interval::new(0, (1i64 << bits) - 1)
    }
}

/// Whether `a op b` can overflow 64-bit signed arithmetic (wraps in the
/// interpreters, traps on the compiled-VM substrates).
fn overflow_possible(op: BinOp, a: Interval, b: Interval) -> bool {
    let (al, ah) = (i128::from(a.lo), i128::from(a.hi));
    let (bl, bh) = (i128::from(b.lo), i128::from(b.hi));
    let corners = match op {
        BinOp::Add => [al + bl, al + bh, ah + bl, ah + bh],
        BinOp::Sub => [al - bl, al - bh, ah - bl, ah - bh],
        BinOp::Mul => [al * bl, al * bh, ah * bl, ah * bh],
        _ => return false,
    };
    corners
        .iter()
        .any(|&c| c < i128::from(i64::MIN) || c > i128::from(i64::MAX))
}

/// `a op b` decided purely from the operand ranges, when possible.
fn definite_cmp(op: BinOp, a: Interval, b: Interval) -> Option<bool> {
    match op {
        BinOp::Lt => {
            if a.hi < b.lo {
                Some(true)
            } else if a.lo >= b.hi {
                Some(false)
            } else {
                None
            }
        }
        BinOp::Le => {
            if a.hi <= b.lo {
                Some(true)
            } else if a.lo > b.hi {
                Some(false)
            } else {
                None
            }
        }
        BinOp::Gt => definite_cmp(BinOp::Le, a, b).map(|v| !v),
        BinOp::Ge => definite_cmp(BinOp::Lt, a, b).map(|v| !v),
        BinOp::Eq => {
            if let (Some(x), Some(y)) = (a.as_singleton(), b.as_singleton()) {
                Some(x == y)
            } else if a.meet(b).is_none() {
                Some(false)
            } else {
                None
            }
        }
        BinOp::Ne => definite_cmp(BinOp::Eq, a, b).map(|v| !v),
        _ => None,
    }
}

/// `a op b === b swap_cmp(op) a`.
fn swap_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Gt => BinOp::Lt,
        BinOp::Le => BinOp::Ge,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// The comparison that holds when `op`'s result is false.
fn negate_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Ge => BinOp::Lt,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        other => other,
    }
}

/// Low-bit extraction (`v & 1`) of a value derived from an aligned
/// pointer: the result is plain bits the base alignment determines, not a
/// pointer — the flag-in-low-bits pattern's *test* side.
fn extract_const(ia: &IntAbs, ib: &IntAbs) -> Option<IntAbs> {
    let try_one = |tainted: &IntAbs, mask: &IntAbs| -> Option<IntAbs> {
        let t = tainted.taint.as_ref()?;
        if mask.taint.is_some() || t.truncated || t.stripped {
            return None;
        }
        let m = mask.range.as_singleton()?;
        let x = t
            .prov
            .off
            .as_singleton()?
            .checked_add(t.delta.as_singleton()?)?;
        let align = t.prov.align;
        if m < 0 || align <= 1 {
            return None;
        }
        let mu = m as u64;
        if !(mu + 1).is_power_of_two() || mu >= align {
            return None;
        }
        let xl = x.rem_euclid(align as i64);
        Some(IntAbs::constant(xl & m))
    };
    try_one(ia, ib).or_else(|| try_one(ib, ia))
}

/// How a pointer-derived integer's taint evolves through `op` with an
/// `other` (usually untainted) operand. Flag-masking against the provider's
/// base alignment keeps the delta exact; everything else goes imprecise.
fn taint_after(op: BinOp, mut t: Taint, on_left: bool, other: &IntAbs) -> Taint {
    let x = t
        .prov
        .off
        .as_singleton()
        .and_then(|o| t.delta.as_singleton().map(|d| (o, d)));
    let align = i64::try_from(t.prov.align).unwrap_or(1);
    t.modified = true;
    match op {
        BinOp::Add => t.delta = t.delta.add(other.range),
        BinOp::Sub if on_left => t.delta = t.delta.sub(other.range),
        BinOp::BitOr => {
            t.delta = match (x, other.range.as_singleton()) {
                (Some((o, d)), Some(m))
                    if m >= 0 && m < align && align > 1 && other.taint.is_none() =>
                {
                    let xl = (o + d).rem_euclid(align);
                    Interval::singleton(d + ((xl | m) - xl))
                }
                _ => Interval::FULL,
            };
        }
        BinOp::BitAnd => {
            t.delta = match (x, other.range.as_singleton()) {
                (Some((o, d)), Some(m)) if other.taint.is_none() && align > 1 => {
                    let c = !m;
                    if c >= 0 && ((c + 1) as u64).is_power_of_two() && c < align {
                        let xl = (o + d).rem_euclid(align);
                        Interval::singleton(d - (xl & c))
                    } else {
                        Interval::FULL
                    }
                }
                _ => Interval::FULL,
            };
        }
        _ => t.delta = Interval::FULL,
    }
    t
}

/// Joins one Ret path's global image into the accumulated exit image:
/// only cells both images hold at the same width survive.
fn join_global_cells(a: &mut Cells<u64>, b: &Cells<u64>) {
    a.retain(|k, c| match b.get(k) {
        Some(d) if d.size == c.size => {
            c.val = c.val.join(&d.val);
            true
        }
        _ => false,
    });
}

/// Name of the function whose pc range contains `pc`: a binary search
/// over the ascending entries (see [`IrProgram::funcs`]).
fn func_name_at(prog: &IrProgram, pc: usize) -> String {
    match prog.funcs.partition_point(|f| f.entry <= pc) {
        i if i > 0 && pc < prog.code.len() => prog.funcs[i - 1].name.clone(),
        _ => String::new(),
    }
}

impl<'a> Analyzer<'a> {
    /// Converts a stack value to the integer the machine would see;
    /// an abstract pointer in integer position is a live capability.
    fn to_int(v: &AbsVal) -> IntAbs {
        match v {
            AbsVal::Int(i) => i.clone(),
            AbsVal::Ptr(p) => IntAbs {
                range: Interval::new(LOW_ADDR, ADDR_MAX),
                nonzero: p.region != Region::Null,
                taint: Some(Taint {
                    prov: Box::new(p.clone()),
                    delta: Interval::singleton(0),
                    modified: false,
                    via_intcap_any: true,
                    via_intcap_all: true,
                    truncated: false,
                    stripped: false,
                }),
                ..IntAbs::top()
            },
            _ => IntAbs::top(),
        }
    }

    /// The **Int** idiom: a wide-integer store whose value is directly a
    /// pointer→integer cast (the AST analyzer's `note_int_store`).
    fn note_int_store(&mut self, pc: usize, ty: &Type, v: &AbsVal) {
        if is_wide_int(ty) {
            if let AbsVal::Int(i) = v {
                if i.fresh_cast {
                    self.add(pc, FindingKind::Idiom(Idiom::Int), ModelSet::EMPTY);
                }
            }
        }
    }

    /// Plain-integer storage cannot carry a capability: stores to a C
    /// integer type drop the `intptr_t` tag guarantee from the taint.
    fn strip_on_int_store(ty: &Type, v: AbsVal) -> AbsVal {
        if !matches!(ty, Type::Int { .. }) {
            return v;
        }
        match v {
            AbsVal::Int(mut i) => {
                if let Some(t) = &mut i.taint {
                    t.via_intcap_any = false;
                    t.via_intcap_all = false;
                }
                AbsVal::Int(i)
            }
            other => other,
        }
    }

    // --- Arithmetic transfer ---

    fn binary_vals(
        &mut self,
        pc: usize,
        op: BinOp,
        meta: &BinMeta,
        a: AbsVal,
        b: AbsVal,
        count_idioms: bool,
    ) -> AbsVal {
        if meta.a_ptr || meta.b_ptr {
            return self.ptr_binary(pc, op, meta, a, b, count_idioms);
        }
        let ia = Self::to_int(&a);
        let ib = Self::to_int(&b);
        self.int_binary(pc, op, &ia, &ib, count_idioms)
    }

    fn ptr_binary(
        &mut self,
        pc: usize,
        op: BinOp,
        meta: &BinMeta,
        a: AbsVal,
        b: AbsVal,
        count_idioms: bool,
    ) -> AbsVal {
        let pa = meta.a_ptr.then(|| Self::as_ptr(&a));
        let pb = meta.b_ptr.then(|| Self::as_ptr(&b));
        // The Sub family, classified exactly as the AST analyzer does:
        // subtracting a folded offsetof reconstructs a container, an
        // invalid intermediate comes directly off a pointer `+`, and
        // everything else is plain out-of-object arithmetic.
        if count_idioms && op == BinOp::Sub && meta.a_ptr {
            let container =
                !meta.b_ptr && matches!(&b, AbsVal::Int(i) if i.origin == ConstOrigin::Offsetof);
            let kind = if container {
                Idiom::Container
            } else if pa.as_ref().is_some_and(|p| p.via_add) {
                Idiom::II
            } else {
                Idiom::Sub
            };
            self.add(pc, FindingKind::Idiom(kind), ModelSet::EMPTY);
        }
        if op.is_comparison() {
            return AbsVal::Int(IntAbs::of(Interval::new(0, 1)));
        }
        match (pa, pb) {
            (Some(pa), Some(pb)) if op == BinOp::Sub => {
                // `ptr - ptr` goes through the model's ptr_diff; CHERIv2
                // refuses pointer subtraction outright.
                self.add(
                    pc,
                    FindingKind::Arith,
                    ModelSet::EMPTY.with(ModelKind::CheriV2),
                );
                let elem = meta.a_elem;
                let val = if elem != 0
                    && elem != ELEM_POISON
                    && pa.region == pb.region
                    && pa.region != Region::Unknown
                {
                    match (pa.off.as_singleton(), pb.off.as_singleton()) {
                        (Some(x), Some(y)) => IntAbs::constant((x - y) / elem as i64),
                        _ => IntAbs::top(),
                    }
                } else {
                    IntAbs::top()
                };
                AbsVal::Int(val)
            }
            (Some(pa), None) if matches!(op, BinOp::Add | BinOp::Sub) => {
                let idx = Self::to_int(&b);
                AbsVal::Ptr(self.ptr_add(
                    pc,
                    pa,
                    idx.range,
                    meta.a_elem,
                    op == BinOp::Sub,
                    op == BinOp::Add && count_idioms,
                ))
            }
            (None, Some(pb)) if op == BinOp::Add => {
                let idx = Self::to_int(&a);
                AbsVal::Ptr(self.ptr_add(pc, pb, idx.range, meta.b_elem, false, count_idioms))
            }
            // Ill-typed pointer arithmetic: the interpreter raises
            // `Unsupported` under every model.
            _ => {
                self.add(pc, FindingKind::Arith, ModelSet::everything());
                AbsVal::Top
            }
        }
    }

    /// `ptr ± idx*elem` — the shared transfer for `Binary` and `PtrIndex`.
    fn ptr_add(
        &mut self,
        pc: usize,
        p: PtrAbs,
        idx: Interval,
        elem: u64,
        negate: bool,
        via_add: bool,
    ) -> PtrAbs {
        if elem == 0 || elem == ELEM_POISON {
            // void-pointer arithmetic: scaled by the poison marker.
            self.add(
                pc,
                FindingKind::Arith,
                ModelSet::EMPTY.with(ModelKind::CheriV2),
            );
            return PtrAbs {
                via_add,
                ..PtrAbs::wild_ptr()
            };
        }
        let delta = idx.mul(Interval::singleton(elem as i64));
        let delta = if negate { delta.neg() } else { delta };
        // CHERIv2 consumes bounds monotonically: a negative delta is
        // unrepresentable and a positive one must stay inside the object.
        let oob_up = p
            .size
            .is_some_and(|sz| i128::from(p.off.hi) + i128::from(delta.hi) > i128::from(sz));
        if delta.lo < 0 || oob_up {
            self.add(
                pc,
                FindingKind::Arith,
                ModelSet::EMPTY.with(ModelKind::CheriV2),
            );
        }
        PtrAbs {
            off: p.off.add(delta),
            via_add,
            ..p
        }
    }

    #[allow(clippy::too_many_lines)]
    fn int_binary(
        &mut self,
        pc: usize,
        op: BinOp,
        ia: &IntAbs,
        ib: &IntAbs,
        count_idioms: bool,
    ) -> AbsVal {
        use BinOp::{Add, BitAnd, BitOr, BitXor, Div, LogAnd, LogOr, Mul, Rem, Shl, Shr, Sub};
        if !op.is_comparison() {
            // An operand still carried as a capability (`intptr_t` on
            // CHERI) makes v2 refuse the arithmetic itself.
            let via_cap = [ia, ib]
                .iter()
                .any(|i| i.taint.as_ref().is_some_and(|t| t.via_intcap_any));
            if via_cap {
                self.add(
                    pc,
                    FindingKind::Arith,
                    ModelSet::EMPTY.with(ModelKind::CheriV2),
                );
            }
        }
        let derived = ia.taint.is_some() || ib.taint.is_some();
        if count_idioms && derived {
            match op {
                Add | Sub | Mul | Div | Rem => {
                    self.add(pc, FindingKind::Idiom(Idiom::IA), ModelSet::EMPTY);
                }
                BitAnd | BitOr | BitXor => {
                    self.add(pc, FindingKind::Idiom(Idiom::Mask), ModelSet::EMPTY);
                }
                _ => {}
            }
        }
        if op.is_comparison() {
            if let Some(v) = definite_cmp(op, ia.range, ib.range) {
                return AbsVal::Int(IntAbs::constant(i64::from(v)));
            }
            let mut out = IntAbs::of(Interval::new(0, 1));
            if let (Some(slot), Some(c)) = (ia.src, ib.range.as_singleton()) {
                out.cmp = Some(CmpFact {
                    slot,
                    op,
                    rhs: CmpRhs::Const(c),
                });
            } else if let (Some(c), Some(slot)) = (ia.range.as_singleton(), ib.src) {
                out.cmp = Some(CmpFact {
                    slot,
                    op: swap_cmp(op),
                    rhs: CmpRhs::Const(c),
                });
            } else if let (Some(sa), Some(sb)) = (ia.src, ib.src) {
                out.cmp = Some(CmpFact {
                    slot: sa,
                    op,
                    rhs: CmpRhs::Slot(sb),
                });
            }
            return AbsVal::Int(out);
        }
        if matches!(op, Div | Rem) && ib.may_be_zero() {
            self.add(pc, FindingKind::DivByZero, ModelSet::everything());
        }
        if overflow_possible(op, ia.range, ib.range) {
            self.add(pc, FindingKind::Overflow, ModelSet::EMPTY.with_vm());
        }
        if op == BitAnd {
            if let Some(c) = extract_const(ia, ib) {
                return AbsVal::Int(c);
            }
        }
        let (ra, rb) = (ia.range, ib.range);
        let exact_bits = |f: fn(i64, i64) -> i64| {
            ra.as_singleton()
                .zip(rb.as_singleton())
                .map(|(x, y)| Interval::singleton(f(x, y)))
        };
        let range = match op {
            Add => ra.add(rb),
            Sub => ra.sub(rb),
            Mul => ra.mul(rb),
            Div => {
                if rb == Interval::singleton(0) {
                    Interval::FULL
                } else {
                    ra.div_nonzero()
                }
            }
            Rem => {
                let m = rb
                    .lo
                    .checked_abs()
                    .unwrap_or(i64::MAX)
                    .max(rb.hi.checked_abs().unwrap_or(i64::MAX));
                Interval::rem_bound(m)
            }
            Shl => exact_bits(|x, y| {
                if (0..64).contains(&y) {
                    x.wrapping_shl(y as u32)
                } else {
                    0
                }
            })
            .unwrap_or(Interval::FULL),
            Shr => exact_bits(|x, y| {
                if (0..64).contains(&y) {
                    x.wrapping_shr(y as u32)
                } else {
                    0
                }
            })
            .unwrap_or(if ra.lo >= 0 {
                Interval::new(0, ra.hi)
            } else {
                Interval::FULL
            }),
            BitAnd => exact_bits(|x, y| x & y).unwrap_or(if ra.lo >= 0 && rb.lo >= 0 {
                Interval::new(0, ra.hi.min(rb.hi))
            } else {
                Interval::FULL
            }),
            BitOr => exact_bits(|x, y| x | y).unwrap_or(if ra.lo >= 0 && rb.lo >= 0 {
                Interval::new(ra.lo.max(rb.lo), ra.hi.saturating_add(rb.hi))
            } else {
                Interval::FULL
            }),
            BitXor => exact_bits(|x, y| x ^ y).unwrap_or(if ra.lo >= 0 && rb.lo >= 0 {
                Interval::new(0, ra.hi.saturating_add(rb.hi))
            } else {
                Interval::FULL
            }),
            LogAnd | LogOr => Interval::new(0, 1),
            _ => Interval::FULL,
        };
        let taint = match (&ia.taint, &ib.taint) {
            (None, None) => None,
            (Some(t), None) => Some(taint_after(op, t.clone(), true, ib)),
            (None, Some(t)) => Some(taint_after(op, t.clone(), false, ia)),
            (Some(x), Some(y)) => {
                let mut j = x.join(y);
                j.delta = Interval::FULL;
                j.modified = true;
                Some(j)
            }
        };
        let mut out = IntAbs::of(range);
        out.taint = taint;
        if op == BitOr {
            // OR-ing in a non-zero flag makes the value non-zero.
            out.nonzero = ia.nonzero
                || ib.nonzero
                || ra.as_singleton().is_some_and(|v| v != 0)
                || rb.as_singleton().is_some_and(|v| v != 0);
        }
        AbsVal::Int(out)
    }

    // --- Casts ---

    fn cast_to_int(
        &mut self,
        pc: usize,
        v: &AbsVal,
        width: u8,
        signed: bool,
        intcap: bool,
    ) -> IntAbs {
        match v {
            AbsVal::Ptr(p) => {
                // A pointer narrowed below pointer width is the Wide idiom.
                if width < 8 {
                    self.add(pc, FindingKind::Idiom(Idiom::Wide), ModelSet::EMPTY);
                }
                let range = if width < 8 {
                    width_range(width, signed)
                } else {
                    Interval::new(LOW_ADDR, ADDR_MAX)
                };
                IntAbs {
                    range,
                    nonzero: p.region != Region::Null && width >= 8,
                    taint: Some(Taint {
                        prov: Box::new(p.clone()),
                        delta: Interval::singleton(0),
                        modified: false,
                        via_intcap_any: intcap,
                        via_intcap_all: intcap,
                        truncated: width < 8,
                        stripped: false,
                    }),
                    fresh_cast: true,
                    ..IntAbs::top()
                }
            }
            AbsVal::Int(i) => {
                let fits = i.range.fits(width, signed);
                if width < 8 {
                    // Narrowing a pointer-derived wide integer is Wide too
                    // (once — a second narrowing has nothing left to lose).
                    if let Some(t) = &i.taint {
                        if !t.truncated {
                            self.add(pc, FindingKind::Idiom(Idiom::Wide), ModelSet::EMPTY);
                        }
                    }
                }
                let mut out = i.clone();
                out.range = if fits {
                    i.range
                } else {
                    width_range(width, signed)
                };
                out.nonzero = i.nonzero && fits;
                out.src = None;
                out.cmp = None;
                // The AST analyzer's Int idiom requires the stored value to
                // be *directly* a pointer cast; an int→int cast is not.
                out.fresh_cast = false;
                if let Some(t) = &mut out.taint {
                    // A byte-slice of a pointer is already `stripped`; the
                    // slices collectively preserve the bits, so a narrow
                    // store of one is not a truncation of the pointer.
                    t.truncated |= width < 8 && !fits && !t.stripped;
                    if !intcap {
                        // Casting to a plain C integer sheds the capability;
                        // casting back does NOT restore the tag.
                        t.via_intcap_any = false;
                        t.via_intcap_all = false;
                    }
                }
                out
            }
            _ => IntAbs::of(width_range(width, signed)),
        }
    }

    fn cast(&mut self, pc: usize, to: u32, st: &mut AbsState) {
        let v = st.stack.pop().unwrap_or(AbsVal::Bot);
        let to_ty = self.ty(to);
        let out = match to_ty {
            Type::Int { width, signed } => {
                AbsVal::Int(self.cast_to_int(pc, &v, *width, *signed, false))
            }
            Type::IntPtr { signed } | Type::IntCap { signed } => {
                AbsVal::Int(self.cast_to_int(pc, &v, 8, *signed, true))
            }
            Type::Ptr { .. } => {
                let pointee_const = to_ty.pointee_is_const();
                match &v {
                    AbsVal::Ptr(p) => {
                        let mut p = p.clone();
                        if !pointee_const && p.is_const {
                            // Casting away const: the Deconst idiom, and the
                            // CHERIv2 store permission is already gone.
                            self.add(pc, FindingKind::Idiom(Idiom::Deconst), ModelSet::EMPTY);
                            p.const_stripped = true;
                        }
                        p.is_const = pointee_const;
                        p.via_add = false;
                        AbsVal::Ptr(p)
                    }
                    AbsVal::Int(i) => {
                        let mut p = Self::reconstruct(i);
                        p.is_const = pointee_const;
                        AbsVal::Ptr(p)
                    }
                    _ => AbsVal::Ptr(PtrAbs {
                        is_const: pointee_const,
                        ..PtrAbs::assumed_param()
                    }),
                }
            }
            _ => AbsVal::Top,
        };
        st.stack.push(out);
    }

    fn unary(&mut self, pc: usize, op: UnOp, st: &mut AbsState) {
        let v = st.stack.pop().unwrap_or(AbsVal::Bot);
        let modified_taint = |i: &IntAbs| {
            i.taint.clone().map(|mut t| {
                t.modified = true;
                t.delta = Interval::FULL;
                t
            })
        };
        let out = match (&v, op) {
            (AbsVal::Ptr(_), UnOp::Neg | UnOp::BitNot) => {
                // Capability arithmetic on a live intcap value.
                self.add(
                    pc,
                    FindingKind::Arith,
                    ModelSet::EMPTY.with(ModelKind::CheriV2),
                );
                let mut t = Self::to_int(&v);
                if let Some(tt) = &mut t.taint {
                    tt.modified = true;
                    tt.delta = Interval::FULL;
                }
                t.range = Interval::FULL;
                t.nonzero = false;
                AbsVal::Int(t)
            }
            (AbsVal::Int(i), UnOp::Neg) => {
                if i.range.lo == i64::MIN {
                    self.add(pc, FindingKind::Overflow, ModelSet::EMPTY.with_vm());
                }
                let mut o = IntAbs::of(i.range.neg());
                o.taint = modified_taint(i);
                AbsVal::Int(o)
            }
            (AbsVal::Int(i), UnOp::BitNot) => {
                let mut o = IntAbs::of(i.range.bitnot());
                o.taint = modified_taint(i);
                AbsVal::Int(o)
            }
            (AbsVal::Int(i), UnOp::Not) => match i.range.as_singleton() {
                Some(c) => AbsVal::Int(IntAbs::constant(i64::from(c == 0))),
                None if i.nonzero => AbsVal::Int(IntAbs::constant(0)),
                None => AbsVal::Int(IntAbs::of(Interval::new(0, 1))),
            },
            (AbsVal::Ptr(p), UnOp::Not) => match p.region {
                Region::Null => AbsVal::Int(IntAbs::constant(1)),
                Region::Unknown => AbsVal::Int(IntAbs::of(Interval::new(0, 1))),
                _ if p.wild => AbsVal::Int(IntAbs::of(Interval::new(0, 1))),
                _ => AbsVal::Int(IntAbs::constant(0)),
            },
            _ => AbsVal::Int(IntAbs::top()),
        };
        st.stack.push(out);
    }

    // --- Branch refinement ---

    fn refine(st: &mut AbsState, cond: &AbsVal, truth: bool) -> bool {
        let AbsVal::Int(c) = cond else { return true };
        if truth {
            if c.range == Interval::singleton(0) && !c.nonzero {
                return false;
            }
        } else {
            if c.nonzero {
                return false;
            }
            if c.range.as_singleton().is_some_and(|v| v != 0) {
                return false;
            }
        }
        if let Some(fact) = &c.cmp {
            return Self::apply_fact(st, fact, truth);
        }
        // A raw loaded slot as the condition: truthiness refines the slot.
        if let Some(slot) = c.src {
            let fact = CmpFact {
                slot,
                op: BinOp::Ne,
                rhs: CmpRhs::Const(0),
            };
            return Self::apply_fact(st, &fact, truth);
        }
        true
    }

    /// Narrows the fact's slot along a branch edge; `false` means the edge
    /// is infeasible.
    fn apply_fact(st: &mut AbsState, fact: &CmpFact, truth: bool) -> bool {
        let rhs = match fact.rhs {
            CmpRhs::Const(c) => Interval::singleton(c),
            CmpRhs::Slot(s) => match st.locals.get(&s) {
                Some(Cell {
                    val: AbsVal::Int(i),
                    ..
                }) => i.range,
                _ => Interval::FULL,
            },
        };
        let op = if truth { fact.op } else { negate_cmp(fact.op) };
        let constraint = match op {
            BinOp::Lt => {
                if rhs.hi == i64::MIN {
                    return false;
                }
                Interval::new(i64::MIN, rhs.hi - 1)
            }
            BinOp::Le => Interval::new(i64::MIN, rhs.hi),
            BinOp::Gt => {
                if rhs.lo == i64::MAX {
                    return false;
                }
                Interval::new(rhs.lo + 1, i64::MAX)
            }
            BinOp::Ge => Interval::new(rhs.lo, i64::MAX),
            BinOp::Eq => rhs,
            BinOp::Ne => {
                if let Some(Cell {
                    val: AbsVal::Int(i),
                    ..
                }) = st.locals.get(&fact.slot)
                {
                    if let (Some(a), Some(b)) = (i.range.as_singleton(), rhs.as_singleton()) {
                        if a == b {
                            return false;
                        }
                    }
                }
                return true;
            }
            _ => return true,
        };
        if let Some(Cell {
            val: AbsVal::Int(i),
            ..
        }) = st.locals.get_mut(&fact.slot)
        {
            match i.range.meet(constraint) {
                None => return false,
                Some(m) => i.range = m,
            }
        }
        true
    }

    /// Sets or clears the retired flag on every pointer into the frame
    /// range `[off, off+size)` anywhere in the state.
    fn set_liveness(st: &mut AbsState, off: u32, size: u64, dead: bool) {
        let in_range = |base: u32| {
            u64::from(base) >= u64::from(off) && u64::from(base) < u64::from(off) + size
        };
        let mark = |v: &mut AbsVal| {
            if let AbsVal::Ptr(p) = v {
                if let Region::Stack { base } = p.region {
                    if in_range(base) {
                        p.dead = dead;
                    }
                }
            }
        };
        for v in &mut st.stack {
            mark(v);
        }
        for (_, c) in st.locals.iter_mut() {
            mark(&mut c.val);
        }
        for (_, c) in st.globals.iter_mut() {
            mark(&mut c.val);
        }
    }

    // --- Builtins ---

    #[allow(clippy::too_many_lines)]
    fn builtin(&mut self, pc: usize, b: Builtin, st: &mut AbsState) -> Flow {
        let pop = |st: &mut AbsState| st.stack.pop().unwrap_or(AbsVal::Bot);
        match b {
            Builtin::Malloc => {
                let n = Self::to_int(&pop(st));
                let size = n
                    .range
                    .as_singleton()
                    .and_then(|v| u64::try_from(v).ok())
                    .map(|v| v.max(1));
                let p = PtrAbs {
                    size,
                    ..PtrAbs::object(Region::Heap { site: pc }, 0, BASE_ALIGN)
                };
                st.stack.push(AbsVal::Ptr(p));
            }
            Builtin::Free => {
                let p = Self::as_ptr(&pop(st));
                match p.region {
                    Region::Heap { site } => {
                        st.freed.insert(site);
                        if !p.off.contains(0) {
                            // Freeing an interior pointer is a hard error
                            // under every model.
                            self.add(pc, FindingKind::Deref, ModelSet::everything());
                        }
                    }
                    Region::Stack { .. } | Region::Global { .. } | Region::Str { .. } => {
                        self.add(pc, FindingKind::Deref, ModelSet::everything());
                    }
                    Region::Null | Region::Unknown => {}
                }
                st.stack.push(AbsVal::Int(IntAbs::constant(0)));
            }
            Builtin::Memcpy => {
                let n = Self::to_int(&pop(st));
                let s = Self::as_ptr(&pop(st));
                let d = Self::as_ptr(&pop(st));
                if n.range.hi > 0 {
                    let exact = n.range.as_singleton().and_then(|v| u64::try_from(v).ok());
                    let len = exact.unwrap_or(1).max(1);
                    self.deref_check(pc, &d, len, true, st);
                    self.deref_check(pc, &s, len, false, st);
                    let view = match exact {
                        Some(sz) => {
                            let ty = Type::Int {
                                width: 8,
                                signed: true,
                            };
                            self.load_through(st, &s, &ty, sz)
                        }
                        None => self.span_view(st, &s),
                    };
                    let moved = Self::memcpy_value(&view);
                    match exact {
                        Some(sz) => self.store_through(st, &d, sz, &moved),
                        None => self.byte_store(st, &d, &moved),
                    }
                }
                st.stack.push(AbsVal::Ptr(d));
            }
            Builtin::Memset => {
                let n = Self::to_int(&pop(st));
                let _c = pop(st);
                let d = Self::as_ptr(&pop(st));
                let len = n
                    .range
                    .as_singleton()
                    .and_then(|v| u64::try_from(v).ok())
                    .unwrap_or(1)
                    .max(1);
                self.deref_check(pc, &d, len, true, st);
                self.byte_store(st, &d, &AbsVal::Int(IntAbs::top()));
                st.stack.push(AbsVal::Ptr(d));
            }
            Builtin::Strlen => {
                let p = Self::as_ptr(&pop(st));
                self.deref_check(pc, &p, 1, false, st);
                let out = match p.region {
                    Region::Str { sid } if p.off.as_singleton() == Some(0) => {
                        IntAbs::constant(self.prog.strings[sid as usize].len() as i64)
                    }
                    Region::Stack { base }
                        if st.str_locals.contains(&base) && p.off.as_singleton() == Some(0) =>
                    {
                        let hi = p.size.map_or(i64::MAX, |s| (s as i64 - 1).max(0));
                        IntAbs::of(Interval::new(0, hi))
                    }
                    _ => IntAbs::of(Interval::new(0, i64::MAX)),
                };
                st.stack.push(AbsVal::Int(out));
            }
            Builtin::Strcmp => {
                let pb = Self::as_ptr(&pop(st));
                let pa = Self::as_ptr(&pop(st));
                self.deref_check(pc, &pa, 1, false, st);
                self.deref_check(pc, &pb, 1, false, st);
                st.stack
                    .push(AbsVal::Int(IntAbs::of(Interval::new(-255, 255))));
            }
            Builtin::Puts => {
                let p = Self::as_ptr(&pop(st));
                self.deref_check(pc, &p, 1, false, st);
                st.stack
                    .push(AbsVal::Int(IntAbs::of(Interval::new(0, i64::MAX))));
            }
            Builtin::Putchar => {
                let c = pop(st);
                st.stack.push(c);
            }
            Builtin::Putint => {
                pop(st);
                st.stack.push(AbsVal::Int(IntAbs::constant(0)));
            }
            Builtin::Assert => {
                let cond = pop(st);
                if let AbsVal::Int(i) = &cond {
                    let definitely_false = i.range.as_singleton() == Some(0) && !i.nonzero;
                    if definitely_false || !Self::refine(st, &cond, true) {
                        self.add(pc, FindingKind::AssertFail, ModelSet::everything());
                        return Flow::Dead;
                    }
                }
                st.stack.push(AbsVal::Int(IntAbs::constant(0)));
            }
            Builtin::Abort => {
                self.add(pc, FindingKind::AssertFail, ModelSet::everything());
                return Flow::Dead;
            }
            Builtin::Clock => {
                // Nondeterministic input: runs everywhere, but substrates
                // may observably diverge.
                self.add(pc, FindingKind::Nondet, ModelSet::EMPTY);
                st.stack
                    .push(AbsVal::Int(IntAbs::of(Interval::new(0, i64::MAX))));
            }
        }
        Flow::Next
    }

    // --- The per-op transfer ---

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, pc: usize, op: &Op, st: &mut AbsState) -> Flow {
        match *op {
            Op::ConstInt { v, .. } => {
                let mut i = IntAbs::constant(v);
                i.origin = self.prog.op_info(pc).origin;
                i.nonzero = v != 0;
                st.stack.push(AbsVal::Int(i));
            }
            Op::ConstStr { sid, .. } => {
                let len = self.prog.strings[sid as usize].len() as u64 + 1;
                st.stack.push(AbsVal::Ptr(PtrAbs::object(
                    Region::Str { sid },
                    len,
                    BASE_ALIGN,
                )));
            }
            Op::LoadLocal { off, ty, .. } => {
                let ty = self.ty(ty);
                let size = self.ty_size(ty);
                let mut v = Self::read_cells(
                    &st.locals,
                    |k: u32| i128::from(k),
                    i128::from(off),
                    size,
                    ty,
                );
                if let AbsVal::Int(i) = &mut v {
                    i.src = Some(off);
                }
                st.stack.push(v);
            }
            Op::LoadGlobal { addr, ty, .. } => {
                let ty = self.ty(ty);
                let size = self.ty_size(ty);
                st.stack.push(Self::read_cells(
                    &st.globals,
                    |k: u64| i128::from(k),
                    i128::from(addr),
                    size,
                    ty,
                ));
            }
            Op::StoreLocal { off, ty, .. } => {
                let ty = self.ty(ty);
                let size = self.ty_size(ty);
                let v = st.stack.pop().unwrap_or(AbsVal::Bot);
                self.note_int_store(pc, ty, &v);
                let v = Self::strip_on_int_store(ty, v);
                Self::write_local(st, off, size, &v);
                st.stack.push(Self::settle(&v));
            }
            Op::StoreGlobal { addr, ty, .. } => {
                let ty = self.ty(ty);
                let size = self.ty_size(ty);
                let v = st.stack.pop().unwrap_or(AbsVal::Bot);
                self.note_int_store(pc, ty, &v);
                let v = Self::strip_on_int_store(ty, v);
                Self::write_global(st, addr, size, &v);
                st.stack.push(Self::settle(&v));
            }
            Op::AddrLocal { off, size, ty } => {
                let is_const = self.ty(ty).pointee_is_const();
                st.stack.push(AbsVal::Ptr(PtrAbs {
                    is_const,
                    ..PtrAbs::object(Region::Stack { base: off }, size, frame_align(off))
                }));
            }
            Op::AddrGlobal { addr, size, ty } => {
                let is_const = self.ty(ty).pointee_is_const();
                st.stack.push(AbsVal::Ptr(PtrAbs {
                    is_const,
                    ..PtrAbs::object(Region::Global { base: addr }, size, addr_align(addr))
                }));
            }
            Op::LoadInd { ty, size, .. } => {
                let p = Self::as_ptr(&st.stack.pop().unwrap_or(AbsVal::Bot));
                self.deref_check(pc, &p, size, false, st);
                let ty = self.ty(ty);
                st.stack.push(self.load_through(st, &p, ty, size));
            }
            Op::StoreInd { ty, size, .. } => {
                let v = st.stack.pop().unwrap_or(AbsVal::Bot);
                let p = Self::as_ptr(&st.stack.pop().unwrap_or(AbsVal::Bot));
                self.deref_check(pc, &p, size, true, st);
                let ty = self.ty(ty);
                self.note_int_store(pc, ty, &v);
                let v = Self::strip_on_int_store(ty, v);
                self.store_through(st, &p, size, &v);
                st.stack.push(Self::settle(&v));
            }
            Op::Dup => {
                let t = st.stack.last().cloned().unwrap_or(AbsVal::Bot);
                st.stack.push(t);
            }
            Op::Pop => {
                st.stack.pop();
            }
            Op::PtrIndex { elem, .. } => {
                let idx = Self::to_int(&st.stack.pop().unwrap_or(AbsVal::Bot));
                let p = Self::as_ptr(&st.stack.pop().unwrap_or(AbsVal::Bot));
                let r = self.ptr_add(pc, p, idx.range, elem, false, false);
                st.stack.push(AbsVal::Ptr(r));
            }
            Op::NarrowField { off, size, .. } => {
                let mut p = Self::as_ptr(&st.stack.pop().unwrap_or(AbsVal::Bot));
                let new_off = p.off.add(Interval::singleton(off as i64));
                // MPX re-makes bounds for the member extent, but only when
                // the member window sits inside the *current* bounds — a
                // container_of-style escape keeps the stale window.
                if let Some(noff) = new_off.as_singleton() {
                    if noff >= 0 {
                        let cand = (noff as u64, noff as u64 + size);
                        let cur = p.mpx.or_else(|| p.size.map(|s| (0, s)));
                        let fits = cur.is_none_or(|(lo, hi)| cand.0 >= lo && cand.1 <= hi);
                        if fits {
                            p.mpx = Some(cand);
                        }
                    }
                }
                p.off = new_off;
                p.via_add = false;
                st.stack.push(AbsVal::Ptr(p));
            }
            Op::ToPtr { ty, .. } => {
                let v = st.stack.pop().unwrap_or(AbsVal::Bot);
                if matches!(v, AbsVal::Ptr(_)) {
                    st.stack.push(v);
                } else {
                    let mut p = Self::as_ptr(&v);
                    let t = self.ty(ty);
                    if matches!(t, Type::Ptr { .. }) {
                        p.is_const = t.pointee_is_const();
                    }
                    st.stack.push(AbsVal::Ptr(p));
                }
            }
            Op::AdjustPtr { ty } => {
                let is_const = self.ty(ty).pointee_is_const();
                if let Some(AbsVal::Ptr(p)) = st.stack.last_mut() {
                    p.is_const = is_const;
                }
            }
            Op::Unary { op, .. } => self.unary(pc, op, st),
            Op::Binary { op, meta, .. } => {
                let b = st.stack.pop().unwrap_or(AbsVal::Bot);
                let a = st.stack.pop().unwrap_or(AbsVal::Bot);
                let r = self.binary_vals(pc, op, &meta, a, b, true);
                st.stack.push(r);
            }
            Op::Cast { to, .. } => self.cast(pc, to, st),
            Op::ConvertStore { width, signed } => {
                let v = st.stack.pop().unwrap_or(AbsVal::Bot);
                let out = match v {
                    AbsVal::Int(i) => {
                        let fits = i.range.fits(width, signed);
                        let mut o = i;
                        o.range = if fits {
                            o.range
                        } else {
                            width_range(width, signed)
                        };
                        o.nonzero = o.nonzero && fits;
                        if let Some(t) = &mut o.taint {
                            // A byte-slice of a pointer is already `stripped`; the
                            // slices collectively preserve the bits, so a narrow
                            // store of one is not a truncation of the pointer.
                            t.truncated |= width < 8 && !fits && !t.stripped;
                            t.via_intcap_any = false;
                            t.via_intcap_all = false;
                        }
                        // fresh_cast survives: the conversion is part of the
                        // assignment itself, applied after the AST
                        // analyzer's direct-rhs check.
                        AbsVal::Int(o)
                    }
                    AbsVal::Ptr(p) => AbsVal::Int(IntAbs {
                        range: width_range(width, signed),
                        taint: Some(Taint {
                            prov: Box::new(p),
                            delta: Interval::singleton(0),
                            modified: false,
                            via_intcap_any: false,
                            via_intcap_all: false,
                            truncated: width < 8,
                            stripped: false,
                        }),
                        ..IntAbs::top()
                    }),
                    _ => AbsVal::Int(IntAbs::of(width_range(width, signed))),
                };
                st.stack.push(out);
            }
            Op::Truthy => {
                let v = st.stack.pop().unwrap_or(AbsVal::Bot);
                let out = match &v {
                    AbsVal::Int(i) => {
                        if let Some(c) = i.range.as_singleton() {
                            AbsVal::Int(IntAbs::constant(i64::from(c != 0)))
                        } else if i.nonzero {
                            AbsVal::Int(IntAbs::constant(1))
                        } else {
                            let mut o = IntAbs::of(Interval::new(0, 1));
                            o.cmp = i.cmp.clone();
                            o.src = i.src;
                            AbsVal::Int(o)
                        }
                    }
                    AbsVal::Ptr(p) => match p.region {
                        Region::Null => AbsVal::Int(IntAbs::constant(0)),
                        Region::Unknown => AbsVal::Int(IntAbs::of(Interval::new(0, 1))),
                        _ if p.wild => AbsVal::Int(IntAbs::of(Interval::new(0, 1))),
                        _ => AbsVal::Int(IntAbs::constant(1)),
                    },
                    _ => AbsVal::Int(IntAbs::of(Interval::new(0, 1))),
                };
                st.stack.push(out);
            }
            Op::Call { f, .. } => {
                let argc = self.prog.funcs[f as usize].params.len();
                for _ in 0..argc {
                    st.stack.pop();
                }
                // The callee can reach every escaped local and all globals.
                self.havoc_escaped(st);
                st.stack.push(AbsVal::Top);
            }
            Op::Builtin { b, .. } => return self.builtin(pc, b, st),
            Op::Define { off, size } => {
                let lo = i128::from(off);
                let hi = lo + i128::from(size);
                st.locals.retain(|&k, c| {
                    i128::from(k) + i128::from(c.size) <= lo || i128::from(k) >= hi
                });
                st.str_locals.remove(&off);
                Self::set_liveness(st, off, size, false);
            }
            Op::Kill { off, size } => {
                let lo = i128::from(off);
                let hi = lo + i128::from(size);
                st.locals.retain(|&k, c| {
                    i128::from(k) + i128::from(c.size) <= lo || i128::from(k) >= hi
                });
                st.str_locals.remove(&off);
                Self::set_liveness(st, off, size, true);
            }
            Op::InitStrLocal { off, sid, .. } => {
                let len = self.prog.strings[sid as usize].len() as u64 + 1;
                let lo = i128::from(off);
                let hi = lo + i128::from(len);
                st.locals.retain(|&k, c| {
                    i128::from(k) + i128::from(c.size) <= lo || i128::from(k) >= hi
                });
                st.str_locals.insert(off);
            }
            Op::InitStrGlobal { addr, sid, .. } => {
                let len = self.prog.strings[sid as usize].len() as u64 + 1;
                let lo = i128::from(addr);
                let hi = lo + i128::from(len);
                st.globals.retain(|&k, c| {
                    i128::from(k) + i128::from(c.size) <= lo || i128::from(k) >= hi
                });
            }
            Op::IncDecLocal {
                off,
                ty,
                meta,
                pre,
                inc,
                ..
            } => {
                let ty = self.ty(ty);
                let size = self.ty_size(ty);
                let old = Self::read_cells(
                    &st.locals,
                    |k: u32| i128::from(k),
                    i128::from(off),
                    size,
                    ty,
                );
                let op = if inc { BinOp::Add } else { BinOp::Sub };
                let one = AbsVal::Int(IntAbs::constant(1));
                // `++` is not a Binary *expression*: no idiom counting.
                let new = self.binary_vals(pc, op, &meta, old.clone(), one, false);
                Self::write_local(st, off, size, &new);
                st.stack.push(Self::settle(if pre { &new } else { &old }));
            }
            Op::IncDecGlobal {
                addr,
                ty,
                meta,
                pre,
                inc,
                ..
            } => {
                let ty = self.ty(ty);
                let size = self.ty_size(ty);
                let old = Self::read_cells(
                    &st.globals,
                    |k: u64| i128::from(k),
                    i128::from(addr),
                    size,
                    ty,
                );
                let op = if inc { BinOp::Add } else { BinOp::Sub };
                let one = AbsVal::Int(IntAbs::constant(1));
                let new = self.binary_vals(pc, op, &meta, old.clone(), one, false);
                Self::write_global(st, addr, size, &new);
                st.stack.push(Self::settle(if pre { &new } else { &old }));
            }
            Op::IncDecInd {
                ty,
                size,
                meta,
                pre,
                inc,
                ..
            } => {
                let p = Self::as_ptr(&st.stack.pop().unwrap_or(AbsVal::Bot));
                // Read-modify-write: the write check subsumes the read one.
                self.deref_check(pc, &p, size, true, st);
                let ty = self.ty(ty);
                let old = self.load_through(st, &p, ty, size);
                let op = if inc { BinOp::Add } else { BinOp::Sub };
                let one = AbsVal::Int(IntAbs::constant(1));
                let new = self.binary_vals(pc, op, &meta, old.clone(), one, false);
                self.store_through(st, &p, size, &new);
                st.stack.push(Self::settle(if pre { &new } else { &old }));
            }
            Op::Unsupported { .. } => {
                self.add(pc, FindingKind::Diverged, ModelSet::everything());
                return Flow::Dead;
            }
            Op::Jump { .. } | Op::JumpIfZero { .. } | Op::JumpIfNonZero { .. } | Op::Ret { .. } => {
                unreachable!("terminators are handled by run_block")
            }
        }
        Flow::Next
    }

    // --- Blocks and the worklist ---

    /// A conditional branch: `succs` is the block's successor list, the
    /// taken edge first, then the fall-through edge when there is one.
    /// Pushes each feasible edge's state onto `out`.
    fn branch(
        &mut self,
        succs: &[usize],
        mut st: AbsState,
        zero_takes: bool,
        out: &mut Vec<(usize, AbsState)>,
    ) {
        let cond = st.stack.pop().unwrap_or(AbsVal::Bot);
        if let Some(&ti) = succs.first() {
            let mut ts = self.pool.pop().unwrap_or_default();
            ts.clone_from(&st);
            if Self::refine(&mut ts, &cond, !zero_takes) {
                out.push((ti, ts));
            } else {
                self.pool.push(ts);
            }
        }
        if let Some(&fi) = succs.get(1) {
            if Self::refine(&mut st, &cond, zero_takes) {
                out.push((fi, st));
                return;
            }
        }
        self.pool.push(st);
    }

    /// Runs block `bi` and pushes its out-states onto `out`, following the
    /// successor edges [`Cfg::build`] recorded for the block's terminator.
    /// A `Ret` joins its globals into `exit_globals` when one is given.
    fn run_block(
        &mut self,
        cfg: &Cfg,
        bi: usize,
        mut st: AbsState,
        exit_globals: Option<&mut Option<Cells<u64>>>,
        out: &mut Vec<(usize, AbsState)>,
    ) {
        let block = &cfg.blocks[bi];
        let prog = self.prog;
        for pc in block.start..block.end {
            match &prog.code[pc] {
                Op::JumpIfZero { .. } => return self.branch(&block.succs, st, true, out),
                Op::JumpIfNonZero { .. } => return self.branch(&block.succs, st, false, out),
                Op::Ret { has_value } => {
                    if *has_value {
                        st.stack.pop();
                    }
                    if let Some(exit) = exit_globals {
                        match exit {
                            None => *exit = Some(std::mem::take(&mut st.globals)),
                            Some(g) => join_global_cells(g, &st.globals),
                        }
                    }
                    self.pool.push(st);
                    return;
                }
                // An unconditional jump, like falling off the block, has
                // at most one successor.
                Op::Jump { .. } => break,
                op => match self.exec(pc, op, &mut st) {
                    Flow::Next => {}
                    Flow::Dead => {
                        self.pool.push(st);
                        return;
                    }
                },
            }
        }
        match block.succs.first() {
            Some(&s) => out.push((s, st)),
            None => self.pool.push(st),
        }
    }

    fn entry_state(&self, fid: u32) -> AbsState {
        let f = &self.prog.funcs[fid as usize];
        let mut st = AbsState::default();
        if f.name == "main" {
            // main runs right after the global initializers.
            st.globals = self.init_globals.clone();
        }
        for p in &f.params {
            let ty = self.ty(p.ty);
            let val = match ty {
                Type::Ptr { .. } => AbsVal::Ptr(PtrAbs {
                    is_const: ty.pointee_is_const(),
                    ..PtrAbs::assumed_param()
                }),
                Type::IntPtr { .. } | Type::IntCap { .. } => AbsVal::Int(IntAbs {
                    range: Interval::new(LOW_ADDR, ADDR_MAX),
                    taint: Some(Taint {
                        prov: Box::new(PtrAbs::assumed_param()),
                        delta: Interval::singleton(0),
                        modified: false,
                        via_intcap_any: true,
                        via_intcap_all: true,
                        truncated: false,
                        stripped: false,
                    }),
                    ..IntAbs::top()
                }),
                Type::Int { width, signed } => {
                    AbsVal::Int(IntAbs::of(width_range(*width, *signed)))
                }
                _ => AbsVal::Top,
            };
            st.locals.insert(p.off, Cell { val, size: p.size });
        }
        st
    }

    fn analyze_fn(&mut self, fid: u32) {
        let f = &self.prog.funcs[fid as usize];
        self.func = f.name.clone();
        let (entry, end) = self.prog.func_range(fid);
        self.escaped = self.prog.code[entry..end]
            .iter()
            .filter_map(|op| match *op {
                Op::AddrLocal { off, size, .. } => Some((off, size)),
                _ => None,
            })
            .collect();
        let cfg = Cfg::build(self.prog, fid);
        let nblocks = cfg.blocks.len();
        if nblocks == 0 {
            return;
        }
        let mut ins: Vec<Option<AbsState>> = vec![None; nblocks];
        let mut joins: Vec<u32> = vec![0; nblocks];
        let mut queued = vec![false; nblocks];
        ins[0] = Some(self.entry_state(fid));
        let mut work: VecDeque<usize> = VecDeque::from([0]);
        queued[0] = true;
        let budget = nblocks * 64 + 128;
        let mut visits = 0usize;
        // Only `<global-init>`'s exit globals are read (they seed every
        // other function's entry state), so only its returns collect them.
        let is_init = fid == self.prog.init_fid;
        let mut exit_globals: Option<Cells<u64>> = None;
        let mut out = std::mem::take(&mut self.out);
        while let Some(bi) = work.pop_front() {
            queued[bi] = false;
            visits += 1;
            if visits > budget {
                self.add(entry, FindingKind::Diverged, ModelSet::everything());
                break;
            }
            let Some(in_st) = &ins[bi] else {
                continue;
            };
            let mut st = self.pool.pop().unwrap_or_default();
            st.clone_from(in_st);
            self.run_block(&cfg, bi, st, is_init.then_some(&mut exit_globals), &mut out);
            for (succ, out_st) in out.drain(..) {
                let widen = cfg.blocks[succ].is_loop_head && joins[succ] >= 2;
                match &mut ins[succ] {
                    slot @ None => *slot = Some(out_st),
                    Some(old) => {
                        let changed = old.join_into(&out_st, widen);
                        self.pool.push(out_st);
                        match changed {
                            Some(true) => {}
                            Some(false) => continue,
                            None => {
                                // Irregular stack depths across a join: give
                                // up on this function rather than guess.
                                self.add(
                                    cfg.blocks[succ].start,
                                    FindingKind::Diverged,
                                    ModelSet::everything(),
                                );
                                continue;
                            }
                        }
                    }
                }
                joins[succ] += 1;
                if !queued[succ] {
                    queued[succ] = true;
                    work.push_back(succ);
                }
            }
        }
        self.out = out;
        self.pool.extend(ins.into_iter().flatten());
        if is_init {
            if let Some(g) = exit_globals {
                self.init_globals = g;
            }
        }
    }
}

/// Runs the lint over a lowered program.
///
/// `structs` are the source unit's struct definitions (for slot sizing);
/// `cheri` optionally supplies the same unit lowered for the CHERI layout,
/// enabling the layout-divergence check on folded `sizeof`/`offsetof`
/// constants.
pub fn analyze_ir(prog: &IrProgram, structs: &[StructDef], cheri: Option<&IrProgram>) -> Report {
    let mut a = Analyzer {
        prog,
        structs,
        findings: BTreeMap::new(),
        func: String::new(),
        escaped: Vec::new(),
        init_globals: Cells::default(),
        pool: Vec::new(),
        out: Vec::new(),
    };
    // The init pseudo-function first: its exit globals seed main's entry.
    a.analyze_fn(prog.init_fid);
    for fid in 0..prog.funcs.len() as u32 {
        if fid != prog.init_fid {
            a.analyze_fn(fid);
        }
    }
    if let Some(ch) = cheri {
        if ch.code.len() == prog.code.len() {
            for (pc, (x, y)) in prog.code.iter().zip(&ch.code).enumerate() {
                if let (Op::ConstInt { v: va, .. }, Op::ConstInt { v: vb, .. }) = (x, y) {
                    if va != vb && prog.op_info(pc).origin != ConstOrigin::None {
                        // A layout-sensitive constant: the CHERI build
                        // observes different sizeof/offsetof values.
                        a.func = func_name_at(prog, pc);
                        a.add(
                            pc,
                            FindingKind::Layout,
                            ModelSet::EMPTY
                                .with(ModelKind::CheriV2)
                                .with(ModelKind::CheriV3),
                        );
                    }
                }
            }
        }
    }
    let mut findings: Vec<Finding> = a.findings.into_values().collect();
    findings.sort_by_key(|f| (f.pc, kind_key(f.kind)));
    Report {
        findings,
        funcs: prog.funcs.iter().map(|f| f.name.clone()).collect(),
    }
}

#[cfg(test)]
mod state_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_interp::{lower, TargetInfo};

    fn lint(src: &str) -> Report {
        let unit = cheri_c::parse(src).expect("test programs parse");
        let lp64 = lower(&unit, TargetInfo::lp64());
        let cheri = lower(&unit, TargetInfo::cheri());
        analyze_ir(&lp64, &unit.structs, Some(&cheri))
    }

    #[test]
    fn clean_program_is_portable() {
        let r = lint(
            r#"
            int main(void) {
                int a[4];
                a[1] = 3;
                int *p = &a[1];
                assert(*p == 3);
                return 0;
            }
            "#,
        );
        assert!(r.portable(), "findings: {}", r.render());
        assert_eq!(r.idiom_counts(), [0; 8]);
    }

    #[test]
    fn bounded_loop_stays_portable() {
        let r = lint(
            r#"
            int main(void) {
                int i;
                int n = 5;
                int s = 0;
                for (i = 0; i < n; i++) { s = s + i; }
                assert(s == 10);
                return 0;
            }
            "#,
        );
        assert!(r.portable(), "findings: {}", r.render());
    }

    #[test]
    fn int_round_trip_through_plain_long_traps_cheri_only() {
        let r = lint(
            r#"
            int main(void) {
                int x = 5;
                long bits = (long)&x;
                int *p = (int*)bits;
                assert(*p == 5);
                return 0;
            }
            "#,
        );
        for m in ModelKind::ALL {
            let want = !matches!(m, ModelKind::CheriV2 | ModelKind::CheriV3);
            assert_eq!(r.works(m), want, "{m}: {}", r.render());
        }
        // `long bits = (long)&x` is the Int idiom (column 4).
        assert_eq!(r.idiom_counts()[4], 1, "{}", r.render());
    }

    #[test]
    fn out_of_bounds_deref_flags_checked_models() {
        let r = lint(
            r#"
            int main(void) {
                int a[2];
                a[0] = 1;
                int *p = a + 5;
                assert(*p == 0);
                return 0;
            }
            "#,
        );
        assert!(r.works(ModelKind::Pdp11), "{}", r.render());
        assert!(!r.works(ModelKind::HardBound), "{}", r.render());
        assert!(!r.works(ModelKind::Strict), "{}", r.render());
        assert!(!r.works(ModelKind::Relaxed), "{}", r.render());
        assert!(!r.works(ModelKind::CheriV2), "{}", r.render());
        assert!(!r.works(ModelKind::CheriV3), "{}", r.render());
    }

    #[test]
    fn deconst_cast_counts_and_flags_v2_store() {
        let r = lint(
            r#"
            int main(void) {
                char buf[4];
                buf[0] = 'a';
                const char *p = buf;
                char *q = (char*)p;
                *q = 'b';
                assert(buf[0] == 'b');
                return 0;
            }
            "#,
        );
        assert_eq!(r.idiom_counts()[0], 1, "DECONST: {}", r.render());
        assert!(!r.works(ModelKind::CheriV2), "{}", r.render());
        assert!(r.works(ModelKind::CheriV3), "{}", r.render());
        assert!(r.works(ModelKind::Pdp11), "{}", r.render());
    }

    #[test]
    fn division_by_possible_zero_is_flagged_everywhere() {
        let r = lint(
            r#"
            int helper(int n) { return 10 / n; }
            int main(void) { return helper(5) - 2; }
            "#,
        );
        assert!(
            r.findings
                .iter()
                .any(|f| matches!(f.kind, FindingKind::DivByZero)),
            "{}",
            r.render()
        );
        assert!(!r.works(ModelKind::Pdp11));
    }

    #[test]
    fn use_after_scope_flags_relaxed() {
        let r = lint(
            r#"
            int main(void) {
                int *p;
                {
                    int x = 3;
                    p = &x;
                }
                assert(*p == 3);
                return 0;
            }
            "#,
        );
        assert!(!r.works(ModelKind::Relaxed), "{}", r.render());
        assert!(r.works(ModelKind::Pdp11), "{}", r.render());
    }

    /// `memcpy` kills the destination's old abstract value: copying the
    /// bytes of a stripped integer over a slot that held a valid pointer
    /// must taint the slot — dereferencing it afterwards is the TagStrip
    /// pitfall, and the metadata-keyed and capability models must warn.
    #[test]
    fn memcpy_kills_destination_and_propagates_taint() {
        let r = lint(
            r#"
            int main(void) {
                int x = 7;
                int *p = &x;
                long raw = (long)&x;
                memcpy(&p, &raw, 8);
                assert(*p == 7);
                return 0;
            }
            "#,
        );
        assert!(!r.works(ModelKind::CheriV2), "{}", r.render());
        assert!(!r.works(ModelKind::CheriV3), "{}", r.render());
        assert!(r.works(ModelKind::Pdp11), "{}", r.render());
    }

    /// The dual: `memcpy` of a clean pointer's bytes replaces whatever
    /// garbage the destination held, so the copied pointer dereferences
    /// cleanly — the kill must not leave stale taint behind.
    #[test]
    fn memcpy_of_clean_pointer_overwrites_stale_value() {
        let r = lint(
            r#"
            int main(void) {
                int x = 7;
                int *src = &x;
                int *dst = (int*)(long)1;
                memcpy(&dst, &src, 8);
                assert(*dst == 7);
                return 0;
            }
            "#,
        );
        // The wild initializer is dead after the copy; only CHERI minds
        // the plain-long round trip in the initializer expression itself.
        assert!(r.works(ModelKind::Relaxed), "{}", r.render());
        assert!(r.works(ModelKind::HardBound), "{}", r.render());
    }

    /// Join precision: a pointer assigned on both branches of an `if`
    /// stays dereferenceable after the merge, and a branch-dependent
    /// index stays inside bounds the lint can prove.
    #[test]
    fn join_of_two_valid_pointers_stays_clean() {
        let r = lint(
            r#"
            int main(void) {
                int a = 1;
                int b = 2;
                int *p;
                if (a < b) { p = &a; } else { p = &b; }
                assert(*p == 1);
                return 0;
            }
            "#,
        );
        assert!(r.portable(), "{}", r.render());
    }
}
