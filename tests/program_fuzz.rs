//! Robustness at the `Program::from_words` entry point: random instruction
//! images — every opcode, random registers, edge immediates, random entry
//! points, some raw words that do not decode — must never panic the host.
//! Each image either fails to decode with a typed error or runs, under a
//! small random fuel budget, on every backend at both optimization levels,
//! with and without the cache model, under both capability formats. Every
//! run must end exactly like the reference interpreter's: same exit or
//! trap, pc, cycles, instructions, registers, output and cache statistics.
//!
//! The generator is deterministic (seeded from the test name, overridable
//! with `PROPTEST_SEED`), so a failure reproduces from its printed image.

use cheri::cap::{CapFormat, Capability};
use cheri::isa::{encode, Instr, Op, Program};
use cheri::vm::{BackendKind, CacheStats, OptLevel, Vm, VmConfig, VmTrap};
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Images that decode and run per `cargo test` run.
const PROGRAMS: usize = 1_200;

/// Longest image, in instructions.
const MAX_LEN: u64 = 24;

/// Largest fuel budget per run.
const MAX_FUEL: u64 = 200;

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<i64, VmTrap>,
    pc: u64,
    cycles: u64,
    instret: u64,
    regs: Vec<u64>,
    caps: Vec<Capability>,
    output: Vec<u8>,
    cache: Option<CacheStats>,
}

/// Register fields: mostly the zero register, the stack pointer, the
/// capabilities the machine boots with (`c0` is the default data
/// capability, `c11` the stack) and a few scratch registers, so that
/// values flow between instructions; otherwise any register.
fn register(rng: &mut TestRng) -> u8 {
    const LIVE: [u8; 8] = [0, 1, 3, 4, 8, 9, 11, 29];
    if rng.below(10) < 7 {
        LIVE[rng.below(LIVE.len() as u64) as usize]
    } else {
        rng.below(32) as u8
    }
}

/// An immediate: mostly the edges of the encodings and of the shifters,
/// small offsets, in-image branch targets and syscall numbers. Control
/// transfers mostly stay inside the image.
fn immediate(rng: &mut TestRng, op: Op, len: u64) -> i32 {
    let jumps = matches!(
        op,
        Op::Beq | Op::Bne | Op::Blez | Op::Bgtz | Op::Bltz | Op::Bgez | Op::J | Op::Jal
    );
    if jumps && rng.below(10) < 7 {
        return rng.below(len) as i32;
    }
    match rng.below(10) {
        0 => i32::MIN,
        1 => i32::MAX,
        2 => 0,
        3 => 63,
        4 => 64,
        5 | 6 => rng.below(17) as i32 - 8,
        7 => rng.below(len + 2) as i32,
        8 => rng.below(8) as i32,
        _ => rng.next_u64() as i32,
    }
}

/// The integer ops: arithmetic, compares, shifts, branches and jumps.
/// Images drawn from these alone run longer before they trap, which is
/// what exercises block chaining, the peephole pass and the native tier.
fn integer_ops() -> Vec<Op> {
    use cheri::isa::OpKind::*;
    Op::ALL
        .iter()
        .copied()
        .filter(|op| matches!(op.kind(), R3 | I2 | I1 | B2 | B1 | J | Jr | Jalr))
        .collect()
}

/// A random instruction image and entry point. Half the images use every
/// opcode, half only the integer ops.
fn image(rng: &mut TestRng, integer: &[Op]) -> (Vec<u64>, u64) {
    let len = 1 + rng.below(MAX_LEN);
    let pool = if rng.below(2) == 0 { Op::ALL } else { integer };
    let words = (0..len)
        .map(|_| {
            if rng.below(20) == 0 {
                return rng.next_u64();
            }
            let op = pool[rng.below(pool.len() as u64) as usize];
            let (rd, rs, rt) = (register(rng), register(rng), register(rng));
            encode(&Instr::new(op, rd, rs, rt, immediate(rng, op, len)))
        })
        .collect();
    let entry = match rng.below(10) {
        0 => len,
        1 => rng.next_u64(),
        _ => rng.below(len),
    };
    (words, entry)
}

/// A small machine, so booting thousands of them stays cheap.
fn machine(cache: bool, format: CapFormat) -> VmConfig {
    let base = if cache {
        VmConfig::fpga()
    } else {
        VmConfig::functional()
    };
    VmConfig {
        mem_size: 256 << 10,
        stack_size: 16 << 10,
        ..base
    }
    .with_cap_format(format)
}

fn run(p: &Program, cfg: VmConfig, fuel: u64) -> Outcome {
    let mut vm = Vm::new(p.clone(), cfg);
    let result = vm.run(fuel).map(|s| s.code);
    let stats = vm.stats();
    Outcome {
        result,
        pc: vm.pc(),
        cycles: stats.cycles,
        instret: stats.instret,
        regs: (0..32).map(|r| vm.reg(r)).collect(),
        caps: (0..32).map(|c| vm.cap(c)).collect(),
        output: vm.output().to_vec(),
        cache: stats.cache,
    }
}

/// `run`, turning a host panic into a failure that names the image.
fn run_guarded(p: &Program, words: &[u64], cfg: VmConfig, fuel: u64) -> Outcome {
    catch_unwind(AssertUnwindSafe(|| run(p, cfg, fuel))).unwrap_or_else(|_| {
        panic!(
            "host panic: words {words:#x?}, entry {}, fuel {fuel}, {:?}/{:?}",
            p.entry, cfg.backend, cfg.opt
        )
    })
}

#[test]
fn random_images_never_panic_and_match_the_reference() {
    let mut rng = TestRng::deterministic("random_images_never_panic_and_match_the_reference");
    let integer = integer_ops();
    let (mut ran, mut rejected) = (0, 0);
    while ran < PROGRAMS {
        let (words, entry) = image(&mut rng, &integer);
        let Ok(mut p) = Program::from_words(&words) else {
            rejected += 1;
            continue;
        };
        p.entry = entry;
        let fuel = 1 + rng.below(MAX_FUEL);
        for cache in [false, true] {
            for format in [CapFormat::Cap256, CapFormat::Cap128] {
                let cfg = machine(cache, format);
                let reference = cfg
                    .with_backend(BackendKind::Reference)
                    .with_opt_level(OptLevel::None);
                let oracle = run_guarded(&p, &words, reference, fuel);
                for backend in BackendKind::ALL {
                    for opt in [OptLevel::None, OptLevel::Peephole] {
                        let cell = cfg.with_backend(backend).with_opt_level(opt);
                        if cell == reference {
                            continue;
                        }
                        assert_eq!(
                            run_guarded(&p, &words, cell, fuel),
                            oracle,
                            "words {words:#x?}, entry {entry}, fuel {fuel}, \
                             {backend:?}/{opt:?}, cache {cache}, {format:?}"
                        );
                    }
                }
            }
        }
        ran += 1;
    }
    assert!(rejected > 0, "no image exercised the decode errors");
}
