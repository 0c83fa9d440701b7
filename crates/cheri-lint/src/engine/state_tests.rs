//! Tests for the worklist's state plumbing: [`Cells`] against a
//! `BTreeMap` model, and [`AbsState::join_into`] against the join it
//! replaced, which is kept below verbatim over `BTreeMap` cells as the
//! oracle.

use super::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;

/// The abstract state as it was before cells became sorted `Vec`s.
#[derive(Clone, Debug, PartialEq, Default)]
struct OracleState {
    stack: Vec<AbsVal>,
    locals: BTreeMap<u32, Cell>,
    globals: BTreeMap<u64, Cell>,
    freed: BTreeSet<usize>,
    str_locals: BTreeSet<u32>,
}

impl OracleState {
    /// Joins `o` into `self`; returns `None` on irreconcilable stack
    /// depths (the caller reports divergence).
    fn join(&self, o: &OracleState, widen: bool) -> Option<OracleState> {
        if self.stack.len() != o.stack.len() {
            return None;
        }
        let stack = self
            .stack
            .iter()
            .zip(&o.stack)
            .map(|(a, b)| if widen { a.widen(b) } else { a.join(b) })
            .collect();
        // Widening shoots a grown bound to infinity, but a sub-word cell
        // cannot hold more than its width: every store through it is
        // value-converted. Clamping the widened range to the union of the
        // signed and unsigned representable ranges keeps loop accumulators
        // finite without guessing signedness.
        let clamp = |val: AbsVal, size: u64| -> AbsVal {
            if !widen || size >= 8 {
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
        };
        // A cell present on one path only joins with what the other path
        // would read from the uninitialized slot: an unconstrained value.
        // Joining (rather than dropping) keeps may-taint alive across the
        // merge — a pointer byte-assembled inside a loop body must still
        // read as stripped after the loop-head join.
        let degrade = |val: &AbsVal| -> AbsVal {
            match val {
                AbsVal::Int(i) => AbsVal::Int(i.join(&IntAbs::top())),
                AbsVal::Ptr(p) => AbsVal::Ptr(p.join(&PtrAbs::assumed_param())),
                other => other.clone(),
            }
        };
        let join_cells = |x: &BTreeMap<u32, Cell>, y: &BTreeMap<u32, Cell>| {
            let mut out = BTreeMap::new();
            for (k, c) in x {
                match y.get(k) {
                    Some(d) if d.size == c.size => {
                        let val = if widen {
                            clamp(c.val.widen(&d.val), c.size)
                        } else {
                            c.val.join(&d.val)
                        };
                        out.insert(*k, Cell { val, size: c.size });
                    }
                    Some(_) => {}
                    None => {
                        out.insert(
                            *k,
                            Cell {
                                val: degrade(&c.val),
                                size: c.size,
                            },
                        );
                    }
                }
            }
            for (k, d) in y {
                if !x.contains_key(k) {
                    out.insert(
                        *k,
                        Cell {
                            val: degrade(&d.val),
                            size: d.size,
                        },
                    );
                }
            }
            out
        };
        let join_globals = |x: &BTreeMap<u64, Cell>, y: &BTreeMap<u64, Cell>| {
            let mut out = BTreeMap::new();
            for (k, c) in x {
                match y.get(k) {
                    Some(d) if d.size == c.size => {
                        let val = if widen {
                            clamp(c.val.widen(&d.val), c.size)
                        } else {
                            c.val.join(&d.val)
                        };
                        out.insert(*k, Cell { val, size: c.size });
                    }
                    Some(_) => {}
                    None => {
                        out.insert(
                            *k,
                            Cell {
                                val: degrade(&c.val),
                                size: c.size,
                            },
                        );
                    }
                }
            }
            for (k, d) in y {
                if !x.contains_key(k) {
                    out.insert(
                        *k,
                        Cell {
                            val: degrade(&d.val),
                            size: d.size,
                        },
                    );
                }
            }
            out
        };
        Some(OracleState {
            stack,
            locals: join_cells(&self.locals, &o.locals),
            globals: join_globals(&self.globals, &o.globals),
            freed: self.freed.union(&o.freed).copied().collect(),
            str_locals: self
                .str_locals
                .intersection(&o.str_locals)
                .copied()
                .collect(),
        })
    }
}

fn oracle_of(st: &AbsState) -> OracleState {
    OracleState {
        stack: st.stack.clone(),
        locals: st.locals.0.iter().cloned().collect(),
        globals: st.globals.0.iter().cloned().collect(),
        freed: st.freed.clone(),
        str_locals: st.str_locals.clone(),
    }
}

fn assert_ascending<K: Ord + std::fmt::Debug>(cells: &Cells<K>) {
    assert!(
        cells.0.windows(2).all(|w| w[0].0 < w[1].0),
        "keys not strictly ascending: {:?}",
        cells.0.iter().map(|e| &e.0).collect::<Vec<_>>()
    );
}

// --- Random states ---

fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize]
}

fn coin(rng: &mut TestRng, one_in: u64) -> bool {
    rng.below(one_in) == 0
}

/// Small bounds, so shared ranges overlap and grow; now and then an
/// `i64` corner.
fn bound(rng: &mut TestRng) -> i64 {
    match rng.below(8) {
        0 => i64::MIN,
        1 => i64::MAX,
        _ => rng.below(600) as i64 - 300,
    }
}

fn interval(rng: &mut TestRng) -> Interval {
    let (a, b) = (bound(rng), bound(rng));
    Interval::new(a.min(b), a.max(b))
}

fn region(rng: &mut TestRng) -> Region {
    pick(
        rng,
        &[
            Region::Stack { base: 0 },
            Region::Stack { base: 16 },
            Region::Global { base: 0x1000 },
            Region::Heap { site: 3 },
            Region::Str { sid: 1 },
            Region::Null,
            Region::Unknown,
        ],
    )
}

fn ptr(rng: &mut TestRng) -> PtrAbs {
    PtrAbs {
        region: region(rng),
        size: pick(rng, &[None, Some(8), Some(16)]),
        off: interval(rng),
        align: pick(rng, &[1, 8, 32]),
        is_const: coin(rng, 4),
        const_stripped: coin(rng, 4),
        via_add: coin(rng, 3),
        stripped: coin(rng, 4),
        approx: coin(rng, 4),
        wild: coin(rng, 5),
        truncated: coin(rng, 6),
        dead: coin(rng, 5),
        rt: pick(
            rng,
            &[
                None,
                Some(RoundTrip {
                    modified: false,
                    via_intcap: true,
                }),
                Some(RoundTrip {
                    modified: true,
                    via_intcap: false,
                }),
            ],
        ),
        mpx: pick(rng, &[None, Some((0, 8)), Some((4, 12))]),
    }
}

fn int(rng: &mut TestRng) -> IntAbs {
    IntAbs {
        range: interval(rng),
        taint: coin(rng, 3).then(|| Taint {
            prov: Box::new(ptr(rng)),
            delta: interval(rng),
            modified: coin(rng, 3),
            via_intcap_any: coin(rng, 3),
            via_intcap_all: coin(rng, 3),
            truncated: coin(rng, 5),
            stripped: coin(rng, 4),
        }),
        fresh_cast: coin(rng, 4),
        nonzero: coin(rng, 4),
        src: pick(rng, &[None, Some(0), Some(8)]),
        cmp: coin(rng, 5).then(|| CmpFact {
            slot: pick(rng, &[0, 8]),
            op: pick(rng, &[BinOp::Lt, BinOp::Ne]),
            rhs: pick(rng, &[CmpRhs::Const(10), CmpRhs::Slot(4)]),
        }),
        origin: pick(
            rng,
            &[
                ConstOrigin::None,
                ConstOrigin::Sizeof,
                ConstOrigin::Offsetof,
            ],
        ),
    }
}

fn val(rng: &mut TestRng) -> AbsVal {
    match rng.below(8) {
        0 => AbsVal::Bot,
        1 => AbsVal::Top,
        2..=4 => AbsVal::Int(int(rng)),
        _ => AbsVal::Ptr(ptr(rng)),
    }
}

fn cell(rng: &mut TestRng) -> Cell {
    Cell {
        val: val(rng),
        size: pick(rng, &[1, 2, 4, 8]),
    }
}

fn cells<K: Ord + Copy>(rng: &mut TestRng, keys: &[K]) -> Cells<K> {
    let mut out = Cells::default();
    for &k in keys {
        if coin(rng, 2) {
            out.insert(k, cell(rng));
        }
    }
    out
}

const LOCAL_KEYS: [u32; 6] = [0, 4, 8, 16, 24, 40];
const GLOBAL_KEYS: [u64; 4] = [0x1000, 0x1004, 0x1010, 0x2000];

fn state(rng: &mut TestRng) -> AbsState {
    let depth = rng.below(4) as usize;
    AbsState {
        stack: (0..depth).map(|_| val(rng)).collect(),
        locals: cells(rng, &LOCAL_KEYS),
        globals: cells(rng, &GLOBAL_KEYS),
        freed: (0..rng.below(3)).map(|_| pick(rng, &[1, 2, 3])).collect(),
        str_locals: (0..rng.below(3)).map(|_| pick(rng, &[0, 8, 16])).collect(),
    }
}

/// Perturbs one cell list: values change, widths change, cells leave and
/// new one-sided cells appear.
fn perturb_cells<K: Ord + Copy>(rng: &mut TestRng, c: &mut Cells<K>, keys: &[K]) {
    for (_, cl) in c.iter_mut() {
        match rng.below(6) {
            0 => cl.val = val(rng),
            1 => cl.size = pick(rng, &[1, 2, 4, 8]),
            // A loop accumulator: the range grows by one step.
            2 | 3 => {
                if let AbsVal::Int(i) = &mut cl.val {
                    i.range = i.range.add(Interval::new(-1, 1));
                }
            }
            _ => {}
        }
    }
    c.retain(|_, _| !coin(rng, 6));
    for &k in keys {
        if coin(rng, 6) {
            c.or_insert(k, cell(rng));
        }
    }
}

/// A state sharing most of `a`'s shape, so shared keys, equal depths and
/// unchanged joins are common.
fn perturb(rng: &mut TestRng, a: &AbsState) -> AbsState {
    let mut b = a.clone();
    if coin(rng, 8) {
        b.stack.push(val(rng));
    }
    for v in &mut b.stack {
        if coin(rng, 3) {
            *v = val(rng);
        }
    }
    perturb_cells(rng, &mut b.locals, &LOCAL_KEYS);
    perturb_cells(rng, &mut b.globals, &GLOBAL_KEYS);
    if coin(rng, 3) {
        b.freed.insert(pick(rng, &[1, 2, 3, 4]));
    }
    if coin(rng, 3) {
        b.str_locals.insert(pick(rng, &[0, 8, 16]));
    }
    if coin(rng, 3) {
        b.str_locals.clear();
    }
    b
}

/// `join_into` leaves exactly the oracle's joined state, reports a change
/// exactly when that state differs from the old one, and on a stack-depth
/// mismatch returns `None` with `self` untouched.
#[test]
fn join_into_matches_the_oracle() {
    let mut rng = TestRng::deterministic("join_into_matches_the_oracle");
    let (mut diverged, mut changed, mut unchanged) = (0, 0, 0);
    let (mut dropped, mut one_sided, mut clamped) = (0, 0, 0);
    for case in 0..20_000 {
        let mut a = state(&mut rng);
        let b = match rng.below(4) {
            0 => state(&mut rng),
            1 => a.clone(),
            _ => perturb(&mut rng, &a),
        };
        // Joining twice with the same input mostly reaches a fixpoint:
        // the unchanged case a stabilized loop head sees.
        if coin(&mut rng, 4) {
            let _ = a.join_into(&b, false);
        }
        let widen = coin(&mut rng, 2);
        let before = a.clone();
        let want = oracle_of(&before).join(&oracle_of(&b), widen);
        let got = a.join_into(&b, widen);
        match want {
            None => {
                assert_eq!(got, None, "case {case}");
                assert_eq!(a, before, "case {case}: diverged join touched self");
                diverged += 1;
            }
            Some(m) => {
                let old = oracle_of(&before);
                assert_eq!(
                    oracle_of(&a),
                    m,
                    "case {case}: widen={widen}\n{before:?}\n⊔ {b:?}"
                );
                assert_eq!(got, Some(m != old), "case {case}: change flag");
                assert_ascending(&a.locals);
                assert_ascending(&a.globals);
                if m == old {
                    unchanged += 1;
                } else {
                    changed += 1;
                }
                let keys = |x: &Cells<u32>| x.0.iter().map(|e| e.0).collect::<BTreeSet<_>>();
                let (ka, kb) = (keys(&before.locals), keys(&b.locals));
                if ka.intersection(&kb).any(|k| !m.locals.contains_key(k)) {
                    dropped += 1;
                }
                if ka.symmetric_difference(&kb).next().is_some() {
                    one_sided += 1;
                }
                let grows = |x: &AbsVal, y: &AbsVal| match (x, y) {
                    (AbsVal::Int(i), AbsVal::Int(j)) => {
                        j.range.lo < i.range.lo || j.range.hi > i.range.hi
                    }
                    _ => false,
                };
                if widen
                    && before.locals.0.iter().any(|(k, c)| {
                        c.size < 8
                            && b.locals
                                .get(k)
                                .is_some_and(|d| d.size == c.size && grows(&c.val, &d.val))
                    })
                {
                    clamped += 1;
                }
            }
        }
    }
    // The generator must reach every path the merge takes.
    for (what, n) in [
        ("diverged", diverged),
        ("changed", changed),
        ("unchanged", unchanged),
        ("width-mismatch drops", dropped),
        ("one-sided cells", one_sided),
        ("widened sub-word cells", clamped),
    ] {
        assert!(n >= 200, "only {n} {what} cases");
    }
}

// --- Cells ---

/// `insert`, `or_insert` and `retain` keep keys strictly ascending, and
/// `get` agrees with a `BTreeMap` model after every step.
#[test]
fn cells_track_a_btreemap_model() {
    let mut rng = TestRng::deterministic("cells_track_a_btreemap_model");
    for _ in 0..500 {
        let mut c: Cells<u64> = Cells::default();
        let mut model: BTreeMap<u64, Cell> = BTreeMap::new();
        for _ in 0..40 {
            let k = rng.below(24) * 4;
            match rng.below(4) {
                0 | 1 => {
                    let v = cell(&mut rng);
                    c.insert(k, v.clone());
                    model.insert(k, v);
                }
                2 => {
                    let v = cell(&mut rng);
                    c.or_insert(k, v.clone());
                    model.entry(k).or_insert(v);
                }
                _ => {
                    let cut = rng.below(96);
                    c.retain(|&k, _| k % 3 != cut % 3 || k > cut);
                    model.retain(|&k, _| k % 3 != cut % 3 || k > cut);
                }
            }
            assert_ascending(&c);
            for probe in 0..100 {
                assert_eq!(c.get(&probe), model.get(&probe));
            }
            let pairs: Vec<(u64, Cell)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
            assert_eq!(c.0, pairs);
        }
    }
}

/// Copying a small state into a recycled larger one reuses its buffers.
#[test]
fn clone_from_keeps_the_larger_buffer() {
    let mut rng = TestRng::deterministic("clone_from_keeps_the_larger_buffer");
    let mut big: Cells<u32> = Cells::default();
    for k in 0..32 {
        big.insert(k * 8, cell(&mut rng));
    }
    let small = cells(&mut rng, &LOCAL_KEYS[..3]);
    let (cap, buf) = (big.0.capacity(), big.0.as_ptr());
    big.clone_from(&small);
    assert_eq!(big, small);
    assert_eq!((big.0.capacity(), big.0.as_ptr()), (cap, buf));

    let mut recycled = AbsState {
        stack: (0..16).map(|_| val(&mut rng)).collect(),
        locals: big,
        ..AbsState::default()
    };
    let src = state(&mut rng);
    let stack_buf = recycled.stack.as_ptr();
    let locals_buf = recycled.locals.0.as_ptr();
    recycled.clone_from(&src);
    assert_eq!(recycled, src);
    assert_eq!(recycled.stack.as_ptr(), stack_buf);
    assert_eq!(recycled.locals.0.as_ptr(), locals_buf);
}
