//! Robustness at the `Program::from_words` entry point: random instruction
//! images — every opcode, random registers, edge immediates, random entry
//! points, some raw words that do not decode, half the memory ops aimed at
//! the stack so that they land — must never panic the host.
//! Each image either fails to decode with a typed error or runs, under a
//! small random fuel budget, on every backend at both optimization levels,
//! with and without the cache model, under both capability formats. Every
//! run must end exactly like the reference interpreter's: same exit or
//! trap, pc, cycles, instructions, registers, output, cache statistics
//! and memory: the bytes of every page the guest wrote, and every tag.
//!
//! The generator is deterministic (seeded from the test name, overridable
//! with `PROPTEST_SEED`), so a failure reproduces from its printed image.

use cheri::cap::{CapFormat, Capability};
use cheri::isa::{encode, Instr, Op, OpKind, Program};
use cheri::mem::TaggedMemory;
use cheri::vm::{BackendKind, CacheStats, OptLevel, Vm, VmConfig, VmTrap};
use proptest::test_runner::TestRng;
use std::fmt;
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
    memory: Memory,
}

/// What a run left in memory, at the cost of what the guest touched:
/// the pages it wrote (zero and untagged everywhere else), their bytes,
/// and their tagged granules. A store that writes the wrong bytes or leaves a tag set
/// diverges here even when nothing reads it back.
#[derive(PartialEq)]
struct Memory {
    pages: Vec<(u64, u64)>,
    bytes: Vec<u8>,
    tags: Vec<u64>,
}

impl Memory {
    fn of(mem: &TaggedMemory) -> Memory {
        let pages: Vec<(u64, u64)> = mem.dirty_ranges().collect();
        let (mut bytes, mut tags) = (Vec::new(), Vec::new());
        for &(start, end) in &pages {
            bytes.extend_from_slice(mem.read_bytes(start, end - start).expect("in range"));
            // Only a write sets a tag, so every tag lies in a written page.
            tags.extend(
                (start..end)
                    .step_by(32)
                    .filter(|&g| mem.tag_at(g) == Ok(true)),
            );
        }
        Memory { pages, bytes, tags }
    }
}

/// The written pages' nonzero 8-byte words by address, not their every
/// byte.
impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let addrs = self
            .pages
            .iter()
            .flat_map(|&(start, end)| (start..end).step_by(8));
        let words: Vec<String> = addrs
            .zip(self.bytes.chunks(8))
            .filter(|(_, w)| w.iter().any(|&b| b != 0))
            .map(|(a, w)| format!("{a:#x}: {w:02x?}"))
            .collect();
        f.debug_struct("Memory")
            .field("pages", &self.pages)
            .field("words", &words)
            .field("tags", &self.tags)
            .finish()
    }
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
/// what exercises block chaining and the peephole pass.
fn integer_ops() -> Vec<Op> {
    use cheri::isa::OpKind::*;
    Op::ALL
        .iter()
        .copied()
        .filter(|op| matches!(op.kind(), R3 | I2 | I1 | B2 | B1 | J | Jr | Jalr))
        .collect()
}

/// The register that addresses the stack for a memory op: `sp` for the
/// legacy ones, `c11` for the capability ones.
fn stack_base(op: Op) -> Option<u8> {
    match op.kind() {
        OpKind::Load | OpKind::Store => Some(cheri::isa::SP),
        OpKind::CLoad | OpKind::CStore | OpKind::CMemCap => Some(11),
        _ => None,
    }
}

/// A displacement from the top of the stack frame that stays in bounds:
/// usually a whole granule below it (where `clc`/`csc` may go), otherwise
/// any byte in the 72 around it, so accesses straddle granules.
fn stack_offset(rng: &mut TestRng) -> i32 {
    if rng.below(2) == 0 {
        -32 * (1 + rng.below(2) as i32)
    } else {
        rng.below(72) as i32 - 64
    }
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
            let (mut rd, mut rs, rt) = (register(rng), register(rng), register(rng));
            let mut imm = immediate(rng, op, len);
            if let Some(stack) = stack_base(op) {
                if rng.below(2) == 0 {
                    (rs, imm) = (stack, stack_offset(rng));
                    // Store what is never zero: the stack pointer, or the
                    // stack capability with its tag.
                    rd = match op.kind() {
                        OpKind::Store | OpKind::CStore => cheri::isa::SP,
                        _ if op == Op::Csc => stack,
                        _ => rd,
                    };
                }
            }
            encode(&Instr::new(op, rd, rs, rt, imm))
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
        memory: Memory::of(vm.mem()),
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
