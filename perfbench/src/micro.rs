//! Per-op-class and memory-path microbenches, run in the traced pass only.
//!
//! Op classes: a tiny ISA loop driven through `Vm::run` on the functional
//! machine, its body one op class unrolled, minus the same loop with an
//! empty body (the style of `ablation_substrate`'s `counted_loop`). Memory
//! path: direct calls to `TaggedMemory` and `Hierarchy::access`.

use crate::common::Layers;
use crate::report::median;
use cheri::cache::{Hierarchy, HierarchyConfig};
use cheri::cap::{CapFormat, Capability, Perms};
use cheri::isa::{Instr, Op, Program};
use cheri::mem::{TaggedMemory, UnrepresentablePolicy};
use cheri::vm::{Vm, VmConfig};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;
/// Copies of the class body per loop iteration.
const UNROLL: usize = 16;
/// Wall time one timed loop run aims for.
const TARGET_S: f64 = 0.01;
/// Calls per memory-path timing sample.
const MEM_CALLS: u64 = 200_000;

// Register plan: r16 counter, r17 trip count, r18 loop test, r8 ALU
// accumulator (1), r9 = 8, r10 = -8; c11 the stack capability, c12 a copy.
const PROLOGUE: usize = 6;

/// One op class: its metric, one copy of its body given the loop's exit
/// and stub indices, the ops one copy retires, and the capability format.
struct Class {
    metric: &'static str,
    copy: fn(i32, i32) -> Vec<Instr>,
    ops: u64,
    format: CapFormat,
}

fn classes() -> [Class; 8] {
    let cap256 = CapFormat::Cap256;
    [
        Class {
            metric: "vm.op_ns.alu",
            copy: |_, _| {
                vec![
                    Instr::r3(Op::Addu, 8, 8, 9),
                    Instr::r3(Op::Xor, 8, 8, 9),
                    Instr::i2(Op::Sll, 8, 8, 1),
                    Instr::i2(Op::Ori, 8, 8, 5),
                ]
            },
            ops: 4,
            format: cap256,
        },
        Class {
            // Never taken (r8 = 1, r9 = 8); each one still ends a block.
            metric: "vm.op_ns.branch",
            copy: |exit, _| vec![Instr::new(Op::Beq, 0, 8, 9, exit)],
            ops: 1,
            format: cap256,
        },
        Class {
            // `jal` to a stub that is just `jr ra`.
            metric: "vm.op_ns.jr_jal",
            copy: |_, stub| vec![Instr::new(Op::Jal, 0, 0, 0, stub)],
            ops: 2,
            format: cap256,
        },
        Class {
            metric: "vm.op_ns.cld_csd",
            copy: |_, _| {
                vec![
                    Instr::mem(Op::Csd, 8, 11, -16),
                    Instr::mem(Op::Cld, 19, 11, -16),
                ]
            },
            ops: 2,
            format: cap256,
        },
        Class {
            metric: "vm.op_ns.clc_csc.cap256",
            copy: clc_csc,
            ops: 2,
            format: cap256,
        },
        Class {
            metric: "vm.op_ns.clc_csc.cap128",
            copy: clc_csc,
            ops: 2,
            format: CapFormat::Cap128,
        },
        Class {
            metric: "vm.op_ns.cincoffset",
            copy: |_, _| {
                vec![
                    Instr::c_inc_offset(12, 12, 9),
                    Instr::c_inc_offset(12, 12, 10),
                ]
            },
            ops: 2,
            format: cap256,
        },
        Class {
            // `clock()`: the cheapest syscall.
            metric: "vm.op_ns.syscall",
            copy: |_, _| vec![Instr::syscall(cheri::vm::sys::CLOCK)],
            ops: 1,
            format: cap256,
        },
    ]
}

/// Stores the stack capability one granule below its cursor and loads it
/// back.
fn clc_csc(_: i32, _: i32) -> Vec<Instr> {
    vec![
        Instr::new(Op::Csc, 11, 11, 0, -32),
        Instr::new(Op::Clc, 12, 11, 0, -32),
    ]
}

/// `iters` trips of a loop whose body is `copies` copies of the class.
fn program(class: &Class, copies: usize, iters: i32) -> Program {
    let copy_len = (class.copy)(0, 0).len();
    let head = PROLOGUE;
    let exit = head + copies * copy_len + 3;
    let stub = exit + 2;
    let mut code = vec![
        Instr::li(16, 0),
        Instr::li(17, iters),
        Instr::li(8, 1),
        Instr::li(9, 8),
        Instr::li(10, -8),
        Instr::new(Op::CMove, 12, 11, 0, 0),
    ];
    for _ in 0..copies {
        code.extend((class.copy)(exit as i32, stub as i32));
    }
    code.extend([
        Instr::i2(Op::Addiu, 16, 16, 1),
        Instr::r3(Op::Slt, 18, 16, 17),
        Instr::new(Op::Bne, 0, 18, 0, head as i32),
        Instr::li(4, 0),
        Instr::syscall(0),
        Instr::new(Op::Jr, 0, 31, 0, 0),
    ]);
    let mut p = Program::new();
    p.code = code;
    p
}

/// Host seconds to run `p` to exit, checking it retired `instret`.
fn time_run(p: &Program, cfg: VmConfig, instret: u64) -> f64 {
    let mut vm = Vm::new(p.clone(), cfg);
    let t = Instant::now();
    let status = vm.run(u64::MAX).expect("microbench loops exit cleanly");
    let s = t.elapsed().as_secs_f64();
    assert_eq!(status.stats.instret, instret, "microbench loop shape");
    s
}

fn op_ns(class: &Class) -> f64 {
    let cfg = VmConfig::functional().with_cap_format(class.format);
    let per_iter = UNROLL as u64 * class.ops;
    let instret = |copies: u64, iters: u64| PROLOGUE as u64 + iters * (copies + 3) + 2;
    let probe = 1000;
    let t = time_run(
        &program(class, UNROLL, probe),
        cfg,
        instret(per_iter, probe as u64),
    );
    let iters = ((probe as f64 * TARGET_S / t) as i32).clamp(probe, i32::MAX / 2);
    let body = program(class, UNROLL, iters);
    let empty = program(class, 0, iters);
    // Paired back to back, so drift in a shared host's speed cancels.
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let full = time_run(&body, cfg, instret(per_iter, iters as u64));
            full - time_run(&empty, cfg, instret(0, iters as u64))
        })
        .collect();
    median(&samples) * 1e9 / (iters as u64 * per_iter) as f64
}

/// Median nanoseconds per call of `f` over [`MEM_CALLS`] calls.
fn per_call_ns(mut f: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..MEM_CALLS {
                f(i);
            }
            t.elapsed().as_secs_f64() * 1e9 / MEM_CALLS as f64
        })
        .collect();
    median(&samples)
}

pub fn measure(out: &mut Layers) {
    for class in classes() {
        out.insert(class.metric, op_ns(&class));
    }

    // Capability loads and stores cycle over 64 resident granules.
    let cap = Capability::new_mem(0x1000, 0x1000, Perms::data());
    for (format, read, write) in [
        (
            CapFormat::Cap256,
            "mem.read_cap_ns.cap256",
            "mem.write_cap_ns.cap256",
        ),
        (
            CapFormat::Cap128,
            "mem.read_cap_ns.cap128",
            "mem.write_cap_ns.cap128",
        ),
    ] {
        let mut mem = TaggedMemory::with_format(1 << 16, format, UnrepresentablePolicy::SideTable);
        let slot = |i: u64| (i % 64) * 32;
        out.insert(
            write,
            per_call_ns(|i| mem.write_cap(slot(i), black_box(&cap)).expect("in range")),
        );
        out.insert(
            read,
            per_call_ns(|i| {
                black_box(mem.read_cap(slot(i)).expect("in range"));
            }),
        );
    }
    // Plain 64-bit words over untagged memory.
    let mut mem = TaggedMemory::new(1 << 16);
    let word = |i: u64| 0x8000 + (i % 256) * 8;
    out.insert(
        "mem.write_u64_ns",
        per_call_ns(|i| mem.write_u64(word(i), black_box(i)).expect("in range")),
    );
    out.insert(
        "mem.read_u64_ns",
        per_call_ns(|i| {
            black_box(mem.read_u64(word(i)).expect("in range"));
        }),
    );

    // An L1 hit: the same resident line, again and again.
    let mut cache = Hierarchy::new(HierarchyConfig::fpga_softcore());
    cache.access(0x1000, 8, false);
    out.insert(
        "cache.access_hit_ns",
        per_call_ns(|_| {
            black_box(cache.access(black_box(0x1000), 8, false));
        }),
    );
}
