//! Backend/optimizer differential suite: every execution backend, at every
//! optimization level, on both capability formats, must be bit-identical to
//! the reference interpreter running unoptimized blocks — same exit code or
//! trap (pc and cause), same output bytes, same architectural registers,
//! and the same simulated statistics down to the per-edge traffic ledger.
//! The backends are allowed to differ only in host wall-clock time.

use cheri::cap::CapFormat;
use cheri::compile::{compile, Abi};
use cheri::isa::{Op, Program};
use cheri::vm::{BackendKind, OptLevel, Vm, VmConfig, VmTrap};
use cheri::workloads::{runner, sources};

/// Everything observable about a finished run. `PartialEq` on the whole
/// struct is the identity the pipeline promises; `cache` equality covers
/// hit/miss/write-back counts and the per-edge traffic ledger.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    outcome: Result<i64, VmTrap>,
    output: String,
    regs: [u64; 32],
    pc: u64,
    instret: u64,
    cycles: u64,
    fetch_checks: u64,
    op_counts: Vec<u64>,
    cache: Option<cheri::cache::CacheStats>,
}

fn fingerprint(prog: &Program, cfg: VmConfig) -> Fingerprint {
    let mut vm = Vm::new(prog.clone(), cfg);
    let outcome = vm.run(50_000_000).map(|s| s.code);
    snapshot(&vm, outcome)
}

fn snapshot(vm: &Vm, outcome: Result<i64, VmTrap>) -> Fingerprint {
    let stats = vm.stats();
    let mut regs = [0u64; 32];
    for (r, slot) in regs.iter_mut().enumerate() {
        *slot = vm.reg(r as u8);
    }
    Fingerprint {
        outcome,
        output: vm.output_string(),
        regs,
        pc: vm.pc(),
        instret: stats.instret,
        cycles: stats.cycles,
        fetch_checks: stats.fetch_checks,
        op_counts: Op::ALL.iter().map(|&op| stats.op_count(op)).collect(),
        cache: stats.cache,
    }
}

/// The non-reference cells of the matrix: every backend at every opt
/// level except the (Reference, None) oracle itself.
fn matrix() -> Vec<(BackendKind, OptLevel)> {
    let mut cells = Vec::new();
    for backend in BackendKind::ALL {
        for opt in [OptLevel::None, OptLevel::Peephole] {
            if (backend, opt) != (BackendKind::Reference, OptLevel::None) {
                cells.push((backend, opt));
            }
        }
    }
    cells
}

/// Eleven programs chosen to stress each rewrite and each dispatch path:
/// foldable constants, dead stores, fusable compare-and-branch loops,
/// branchy control flow for chaining, mid-block traps (overflow, divide,
/// capability bounds), heap graphs, tag transport, console output and deep
/// recursion through `jal`/`jr`.
const PROGRAMS: &[(&str, &str)] = &[
    (
        "const_fold_chain",
        r#"
        int main(void) {
            int a = 3;
            int b = a * 4 + 1;
            int c = b * b - a;
            int d = (c & 0xff) | (b << 2);
            return (d ^ a) % 199;
        }
    "#,
    ),
    (
        "dead_writes",
        r#"
        int main(void) {
            int x = 1;
            x = 2;
            x = 3;
            int y = x + 4;
            y = x + 5;
            return x * 10 + y;
        }
    "#,
    ),
    (
        "counted_loop",
        r#"
        int main(void) {
            long sum = 0;
            for (int i = 0; i < 1000; i++) {
                sum += i;
            }
            return (int)(sum % 251);
        }
    "#,
    ),
    (
        "branchy",
        r#"
        int main(void) {
            int acc = 0;
            for (int i = 0; i < 200; i++) {
                if (i % 3 == 0) {
                    acc += i;
                } else if (i % 5 == 0) {
                    acc -= i;
                } else {
                    acc ^= i;
                }
            }
            return acc & 0x7f;
        }
    "#,
    ),
    (
        "null_deref_trap",
        r#"
        int main(void) {
            int *p = 0;
            int x = 1;
            return *p + x;
        }
    "#,
    ),
    (
        "div_zero_trap",
        r#"
        int main(void) {
            int z = 3;
            for (int i = 0; i < 3; i++) {
                z = z - 1;
            }
            return 100 / z;
        }
    "#,
    ),
    (
        "oob_trap",
        r#"
        int main(void) {
            char *a = (char*)malloc(16);
            int sum = 0;
            for (int i = 0; i < 64; i++) {
                a[i] = (char)i;
                sum += a[i];
            }
            return sum;
        }
    "#,
    ),
    (
        "linked_list",
        r#"
        struct node { long v; struct node *next; };
        int main(void) {
            struct node *head = 0;
            long sum = 0;
            for (int i = 1; i <= 12; i++) {
                struct node *n = (struct node*)malloc(sizeof(struct node));
                n->v = i * i;
                n->next = head;
                head = n;
            }
            while (head) {
                sum = sum + head->v;
                head = head->next;
            }
            return (int)(sum % 251);
        }
    "#,
    ),
    (
        "memcpy_tags",
        r#"
        struct holder { int *p; };
        int main(void) {
            int x = 7;
            struct holder h;
            struct holder copy;
            h.p = &x;
            memcpy(&copy, &h, sizeof(struct holder));
            return *copy.p;
        }
    "#,
    ),
    (
        "output_stream",
        r#"
        int main(void) {
            for (int i = 0; i < 10; i++) {
                putint(i * i);
                putchar(' ');
            }
            putchar(10);
            return 0;
        }
    "#,
    ),
    (
        "recursion",
        r#"
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main(void) {
            return fib(15) % 101;
        }
    "#,
    ),
];

/// Programs above that must end in a trap, so the matrix is known to
/// exercise the mid-block unwind and trap-pc paths rather than silently
/// running clean.
const TRAPPING: &[&str] = &["null_deref_trap", "div_zero_trap", "oob_trap"];

fn program(name: &str) -> &'static str {
    PROGRAMS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no program named {name}"))
        .1
}

/// The 11-program identity matrix: {reference, template} ×
/// {opt off, opt on} × {Cap256, Cap128}, every cell compared field by
/// field against the (reference, opt off) oracle of the same format.
#[test]
fn backend_matrix_is_bit_identical() {
    for (name, src) in PROGRAMS {
        let prog = compile(src, Abi::CheriV3).unwrap_or_else(|e| panic!("{name}: {e}"));
        for format in [CapFormat::Cap256, CapFormat::Cap128] {
            let base = VmConfig::fpga().with_cap_format(format);
            let oracle = fingerprint(
                &prog,
                base.with_backend(BackendKind::Reference)
                    .with_opt_level(OptLevel::None),
            );
            if TRAPPING.contains(name) {
                assert!(oracle.outcome.is_err(), "{name} must trap");
            } else {
                assert!(oracle.outcome.is_ok(), "{name} must exit: {oracle:?}");
            }
            for (backend, opt) in matrix() {
                let got = fingerprint(&prog, base.with_backend(backend).with_opt_level(opt));
                assert_eq!(
                    got, oracle,
                    "{name}/{format:?}/{backend:?}/{opt:?} diverged from reference"
                );
            }
        }
    }
}

/// Fuel is an architectural contract too: running in fixed-size fuel
/// slices must leave every backend at the same pc, registers, cycle count
/// and instruction count at every slice boundary, and the sliced run must
/// finish bit-identical to a one-shot run.
#[test]
fn sliced_fuel_is_identical_across_backends() {
    for name in ["counted_loop", "branchy", "oob_trap"] {
        let src = program(name);
        let prog = compile(src, Abi::CheriV3).unwrap_or_else(|e| panic!("{name}: {e}"));
        let cfg = VmConfig::fpga();
        let one_shot = fingerprint(
            &prog,
            cfg.with_backend(BackendKind::Reference)
                .with_opt_level(OptLevel::None),
        );
        for (backend, opt) in matrix() {
            let mut vm = Vm::new(prog.clone(), cfg.with_backend(backend).with_opt_level(opt));
            let mut boundaries = Vec::new();
            let outcome = loop {
                match vm.run(7) {
                    Ok(status) => break Ok(status.code),
                    Err(t) if t.cause == cheri::vm::TrapCause::OutOfFuel => {
                        let s = vm.stats();
                        boundaries.push((vm.pc(), s.instret, s.cycles));
                        assert!(
                            boundaries.len() < 2_000_000,
                            "{name}/{backend:?}/{opt:?}: runaway"
                        );
                    }
                    Err(t) => break Err(t),
                }
            };
            let end = snapshot(&vm, outcome);
            assert_eq!(
                end, one_shot,
                "{name}/{backend:?}/{opt:?}: sliced end state"
            );
            // Boundaries must agree across backends: compare to the
            // reference backend rerun the same way.
            let mut reference = Vm::new(
                prog.clone(),
                cfg.with_backend(BackendKind::Reference)
                    .with_opt_level(OptLevel::None),
            );
            for (i, &(pc, instret, cycles)) in boundaries.iter().enumerate() {
                match reference.run(7) {
                    Ok(_) => panic!("{name}: reference halted before slice {i}"),
                    Err(t) => assert_eq!(t.cause, cheri::vm::TrapCause::OutOfFuel),
                }
                let s = reference.stats();
                assert_eq!(
                    (reference.pc(), s.instret, s.cycles),
                    (pc, instret, cycles),
                    "{name}/{backend:?}/{opt:?}: slice {i} boundary diverged"
                );
            }
        }
    }
}

/// Hand-built blocks around the trapping arithmetic the C compiler never
/// emits (`add`/`sub` trap on signed overflow, §3.1.1): the trap must
/// surface at the same pc with the same cause in every matrix cell, even
/// when the peephole pass could have folded the trapping op.
#[test]
fn assembly_traps_identical_across_matrix() {
    use cheri::isa::Instr;
    let overflow = {
        let mut p = Program::new();
        p.code = vec![
            Instr::li(4, 1),
            Instr::i2(Op::Sll, 4, 4, 62),
            Instr::r3(Op::Add, 5, 4, 4), // 2^62 + 2^62 overflows i64: trap
            Instr::syscall(0),
        ];
        p
    };
    let div_zero = {
        let mut p = Program::new();
        p.code = vec![
            Instr::li(4, 5),
            Instr::li(5, 0),
            Instr::r3(Op::Div, 6, 4, 5), // divide by known zero: trap
            Instr::syscall(0),
        ];
        p
    };
    for (name, prog, pc) in [("overflow", &overflow, 2), ("div_zero", &div_zero, 2)] {
        for format in [CapFormat::Cap256, CapFormat::Cap128] {
            let base = VmConfig::fpga().with_cap_format(format);
            let oracle = fingerprint(
                prog,
                base.with_backend(BackendKind::Reference)
                    .with_opt_level(OptLevel::None),
            );
            match oracle.outcome {
                Err(t) => assert_eq!(t.pc, pc, "{name}: trap at the wrong pc"),
                Ok(code) => panic!("{name} must trap, exited with {code}"),
            }
            for (backend, opt) in matrix() {
                let got = fingerprint(prog, base.with_backend(backend).with_opt_level(opt));
                assert_eq!(got, oracle, "{name}/{format:?}/{backend:?}/{opt:?}");
            }
        }
    }
}

/// Control transfers to pc `u64::MAX` — the largest pc a guest can
/// name: a direct jump, a taken branch and a register jump. Every matrix cell must treat it as a genuine pc
/// and trap on the next fetch, exactly like the reference oracle.
#[test]
fn jumps_to_the_last_pc_trap_identically_across_matrix() {
    use cheri::isa::Instr;
    use cheri::vm::TrapCause;
    let programs = [
        ("j @-1", vec![Instr::new(Op::J, 0, 0, 0, -1)]),
        (
            "beq zero, zero, @-1",
            vec![Instr::new(Op::Beq, 0, 0, 0, -1)],
        ),
        (
            "addiu t0, zero, -1; jr t0",
            vec![
                Instr::i2(Op::Addiu, 8, 0, -1),
                Instr::new(Op::Jr, 0, 8, 0, 0),
            ],
        ),
    ];
    for (name, code) in programs {
        let mut prog = Program::new();
        prog.code = code;
        for format in [CapFormat::Cap256, CapFormat::Cap128] {
            let base = VmConfig::fpga().with_cap_format(format);
            let oracle = fingerprint(
                &prog,
                base.with_backend(BackendKind::Reference)
                    .with_opt_level(OptLevel::None),
            );
            let pc = u64::MAX;
            assert_eq!(
                oracle.outcome,
                Err(VmTrap {
                    pc,
                    cause: TrapCause::PccBounds { pc }
                }),
                "{name}"
            );
            for (backend, opt) in matrix() {
                let got = fingerprint(&prog, base.with_backend(backend).with_opt_level(opt));
                assert_eq!(got, oracle, "{name}/{format:?}/{backend:?}/{opt:?}");
            }
        }
    }
}

/// Hand-built `CLC`/`CSC` blocks that trap on every cause the capability
/// load/store path checks, in the order it checks them: untagged, sealed,
/// missing `LOAD_CAP`/`STORE_CAP`, below and above bounds, misaligned, and
/// (Cap128 under the `Trap` policy) unrepresentable. Each trap sits
/// mid-block behind a register write; every matrix cell must stop at the
/// same pc with the same cause, registers, capability registers and
/// cycles as the reference oracle.
#[test]
fn capability_load_store_traps_identical_across_matrix() {
    use cheri::cap::{CapError, Perms};
    use cheri::isa::Instr;
    use cheri::mem::MemError;
    use cheri::vm::{TrapCause, UnrepresentablePolicy};

    // c11 is the stack capability, its cursor 64 bytes below the top;
    // c0 is the default data capability over all of memory.
    let clc = |cb: u8, off: i32| Instr::new(Op::Clc, 14, cb, 0, off);
    let csc = |cs: u8, cb: u8, off: i32| Instr::new(Op::Csc, cs, cb, 0, off);
    let no_load_cap = (Perms::data().bits() & !Perms::LOAD_CAP.bits()) as i32;
    let no_store_cap = (Perms::data().bits() & !Perms::STORE_CAP.bits()) as i32;
    let untagged = vec![Instr::r3(Op::CClearTag, 12, 11, 0)];
    let sealed = vec![
        Instr::li(9, 5),
        Instr::cmod(Op::CSetOffset, 13, 0, 9),
        Instr::r3(Op::CSeal, 12, 11, 13),
    ];
    let at_base = vec![Instr::cmod(Op::CSetOffset, 12, 11, 0)];
    let narrowed = vec![Instr::li(9, 64), Instr::cmod(Op::CSetBounds, 12, 11, 9)];
    // Base 0x10001 with a length that needs a non-zero exponent.
    let unrepresentable = vec![
        Instr::li(9, 0x1_0001),
        Instr::cmod(Op::CSetOffset, 12, 0, 9),
        Instr::li(10, 0x2_0000),
        Instr::cmod(Op::CSetBounds, 12, 12, 10),
    ];
    let tag = |c: &TrapCause| *c == TrapCause::Capability(CapError::TagViolation);
    let seal = |c: &TrapCause| *c == TrapCause::Capability(CapError::SealViolation);
    let bounds = |c: &TrapCause| {
        matches!(
            c,
            TrapCause::Capability(CapError::BoundsViolation { len: 32, .. })
        )
    };
    let load_perm = |c: &TrapCause| {
        *c == TrapCause::Capability(CapError::PermissionViolation(Perms::LOAD | Perms::LOAD_CAP))
    };
    let store_perm = |c: &TrapCause| {
        *c == TrapCause::Capability(CapError::PermissionViolation(
            Perms::STORE | Perms::STORE_CAP,
        ))
    };
    let misaligned = |c: &TrapCause| matches!(c, TrapCause::Memory(MemError::Misaligned { .. }));
    let unrep = |c: &TrapCause| matches!(c, TrapCause::Memory(MemError::Unrepresentable { .. }));
    type Expect = fn(&TrapCause) -> bool;
    let cases: Vec<(&str, Vec<Instr>, Instr, Expect)> = vec![
        ("clc untagged", untagged.clone(), clc(12, -32), tag),
        ("csc untagged", untagged, csc(11, 12, -32), tag),
        ("clc sealed", sealed.clone(), clc(12, -32), seal),
        ("csc sealed", sealed, csc(11, 12, -32), seal),
        (
            "clc without LOAD_CAP",
            vec![
                Instr::li(9, no_load_cap),
                Instr::cmod(Op::CAndPerm, 12, 11, 9),
            ],
            clc(12, -32),
            load_perm,
        ),
        (
            "csc without STORE_CAP",
            vec![
                Instr::li(9, no_store_cap),
                Instr::cmod(Op::CAndPerm, 12, 11, 9),
            ],
            csc(11, 12, -32),
            store_perm,
        ),
        ("clc below bounds", at_base.clone(), clc(12, -32), bounds),
        ("csc below bounds", at_base, csc(11, 12, -32), bounds),
        ("clc above bounds", narrowed.clone(), clc(12, 64), bounds),
        ("csc above bounds", narrowed, csc(11, 12, 64), bounds),
        ("clc misaligned", Vec::new(), clc(11, -24), misaligned),
        ("csc misaligned", Vec::new(), csc(11, 11, -24), misaligned),
        (
            "csc unrepresentable",
            unrepresentable,
            csc(12, 11, -32),
            unrep,
        ),
        // Two faults at once: the earlier check in the order wins.
        (
            "clc untagged, sealed and above bounds",
            vec![
                Instr::li(9, 5),
                Instr::cmod(Op::CSetOffset, 13, 0, 9),
                Instr::r3(Op::CSeal, 12, 11, 13),
                Instr::r3(Op::CClearTag, 12, 12, 0),
            ],
            clc(12, 64),
            tag,
        ),
        (
            "csc sealed, without STORE_CAP and above bounds",
            vec![
                Instr::li(9, no_store_cap),
                Instr::cmod(Op::CAndPerm, 12, 11, 9),
                Instr::li(9, 5),
                Instr::cmod(Op::CSetOffset, 13, 0, 9),
                Instr::r3(Op::CSeal, 12, 12, 13),
            ],
            csc(11, 12, 64),
            seal,
        ),
        (
            "clc without LOAD_CAP, below bounds and misaligned",
            vec![
                Instr::li(9, no_load_cap),
                Instr::cmod(Op::CAndPerm, 12, 11, 9),
            ],
            clc(12, -(1 << 21) - 8),
            load_perm,
        ),
        (
            "csc above bounds and misaligned",
            Vec::new(),
            csc(11, 11, 40),
            bounds,
        ),
    ];
    for (name, setup, op, expect) in cases {
        let trap_pc = setup.len() as u64 + 1;
        let mut p = Program::new();
        p.code = setup;
        p.code.extend([
            Instr::li(8, 77),
            op,
            Instr::li(8, 78),
            Instr::li(4, 0),
            Instr::syscall(0),
        ]);
        for format in [CapFormat::Cap256, CapFormat::Cap128] {
            for policy in [
                UnrepresentablePolicy::SideTable,
                UnrepresentablePolicy::Trap,
            ] {
                let base = VmConfig::fpga()
                    .with_cap_format(format)
                    .with_cap128_policy(policy);
                let run = |cfg: VmConfig| {
                    let mut vm = Vm::new(p.clone(), cfg);
                    let outcome = vm.run(1_000).map(|s| s.code);
                    let caps: Vec<_> = (0..32).map(|c| vm.cap(c)).collect();
                    (snapshot(&vm, outcome), caps)
                };
                let oracle = run(base
                    .with_backend(BackendKind::Reference)
                    .with_opt_level(OptLevel::None));
                // Only the strict Cap128 store refuses an unrepresentable
                // capability; everywhere else that store succeeds.
                let must_trap = !name.ends_with("unrepresentable")
                    || (format, policy) == (CapFormat::Cap128, UnrepresentablePolicy::Trap);
                match oracle.0.outcome {
                    Err(t) if must_trap => {
                        assert_eq!(t.pc, trap_pc, "{name}: trap at the wrong pc");
                        assert!(expect(&t.cause), "{name}: unexpected cause {:?}", t.cause);
                        assert_eq!(oracle.0.regs[8], 77, "{name}: the block ran past its trap");
                    }
                    Ok(0) if !must_trap => {}
                    other => panic!("{name}/{format:?}/{policy:?}: {other:?}"),
                }
                for (backend, opt) in matrix() {
                    let got = run(base.with_backend(backend).with_opt_level(opt));
                    assert_eq!(
                        got, oracle,
                        "{name}/{format:?}/{policy:?}/{backend:?}/{opt:?}"
                    );
                }
            }
        }
    }
}

/// The transaction-era identity contract: the serialized knobs
/// (`mshrs = 1`, no store buffer, prefetch off, fetch charging off) are
/// the defaults and spelling them out explicitly changes no observable
/// bit — cycles, instret, registers and the full traffic ledger included.
/// This is the wall that keeps the pre-transaction eras reproducible.
#[test]
fn serialized_transaction_knobs_are_the_legacy_model() {
    use cheri::cache::{HierarchyConfig, PrefetchPolicy};
    let spelled_cache = HierarchyConfig::fpga_softcore()
        .with_mshrs(1)
        .with_store_buffer(0)
        .with_prefetch(PrefetchPolicy::Off);
    for name in ["linked_list", "branchy", "oob_trap"] {
        let prog = compile(program(name), Abi::CheriV3).unwrap_or_else(|e| panic!("{name}: {e}"));
        for format in [CapFormat::Cap256, CapFormat::Cap128] {
            for (backend, opt) in matrix() {
                let base = VmConfig::fpga()
                    .with_cap_format(format)
                    .with_backend(backend)
                    .with_opt_level(opt);
                let legacy = fingerprint(&prog, base);
                let spelled = fingerprint(
                    &prog,
                    base.with_cache(spelled_cache).with_fetch_charging(false),
                );
                assert_eq!(
                    spelled, legacy,
                    "{name}/{format:?}/{backend:?}/{opt:?}: serialized knobs must be a no-op"
                );
                let cache = legacy.cache.as_ref().expect("fpga config has a cache");
                assert_eq!(
                    cache.fetch,
                    Default::default(),
                    "no fetch ledger by default"
                );
                assert_eq!(cache.contention_cycles, 0, "no shared edges by default");
                assert_eq!(cache.traffic.l2_dram.prefetch_lines, 0);
            }
        }
    }
}

/// The new cost-model axes — overlapping MSHRs, a store buffer, a
/// prefetcher, and per-block fetch charging — keep every backend
/// bit-identical to the reference interpreter at the same configuration,
/// and fetch charging shows up as strictly more cycles plus a populated
/// fetch ledger.
#[test]
fn transaction_knobs_are_identical_across_backends() {
    use cheri::cache::{HierarchyConfig, PrefetchPolicy};
    let overlapped = HierarchyConfig::fpga_softcore()
        .with_mshrs(4)
        .with_store_buffer(2)
        .with_prefetch(PrefetchPolicy::NextLine);
    let variants: [(&str, VmConfig); 3] = [
        ("mshr_sb_prefetch", VmConfig::fpga().with_cache(overlapped)),
        ("fetch_charging", VmConfig::fpga().with_fetch_charging(true)),
        (
            "everything_on",
            VmConfig::fpga()
                .with_cache(overlapped)
                .with_l1_line_bytes(16)
                .with_fetch_charging(true),
        ),
    ];
    for name in ["linked_list", "recursion", "oob_trap"] {
        let prog = compile(program(name), Abi::CheriV3).unwrap_or_else(|e| panic!("{name}: {e}"));
        let legacy = fingerprint(
            &prog,
            VmConfig::fpga()
                .with_backend(BackendKind::Reference)
                .with_opt_level(OptLevel::None),
        );
        for (label, base) in variants {
            let oracle = fingerprint(
                &prog,
                base.with_backend(BackendKind::Reference)
                    .with_opt_level(OptLevel::None),
            );
            for (backend, opt) in matrix() {
                let got = fingerprint(&prog, base.with_backend(backend).with_opt_level(opt));
                assert_eq!(
                    got, oracle,
                    "{name}/{label}/{backend:?}/{opt:?} diverged from reference"
                );
            }
            if base.fetch_charging {
                let cache = oracle.cache.as_ref().expect("cache model configured");
                assert!(cache.fetch.blocks > 0, "{name}/{label}: fetch ledger empty");
                assert!(cache.fetch.bytes >= cache.fetch.blocks * 8);
                assert!(
                    oracle.cycles > legacy.cycles,
                    "{name}/{label}: charging fetch must cost cycles"
                );
            } else {
                assert_eq!(oracle.instret, legacy.instret, "{name}/{label}: same work");
            }
        }
    }
}

/// Compiled Olden/Dhrystone workloads through the workload runner: the
/// whole matrix agrees on exit, output, instret, simulated cycles and the
/// full cache statistics (traffic ledger included).
#[test]
fn compiled_workloads_identical_across_backends() {
    for (name, src) in [
        ("treeadd", sources::treeadd(5, 2)),
        ("dhrystone", sources::dhrystone(20)),
    ] {
        let base = VmConfig::fpga();
        let oracle = runner::run_workload(
            &src,
            Abi::CheriV3,
            base.with_backend(BackendKind::Reference)
                .with_opt_level(OptLevel::None),
            &[],
            1 << 30,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        for (backend, opt) in matrix() {
            let got = runner::run_workload(
                &src,
                Abi::CheriV3,
                base.with_backend(backend).with_opt_level(opt),
                &[],
                1 << 30,
            )
            .unwrap_or_else(|e| panic!("{name}/{backend:?}/{opt:?}: {e}"));
            assert_eq!(got.exit, oracle.exit, "{name}/{backend:?}/{opt:?}");
            assert_eq!(got.output, oracle.output, "{name}/{backend:?}/{opt:?}");
            assert_eq!(got.instret, oracle.instret, "{name}/{backend:?}/{opt:?}");
            assert_eq!(got.cycles, oracle.cycles, "{name}/{backend:?}/{opt:?}");
            assert_eq!(got.cache, oracle.cache, "{name}/{backend:?}/{opt:?}");
        }
    }
}
