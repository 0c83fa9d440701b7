//! Pieces every workload shares: the seeded generator, the output-check
//! ledger, the traced compile pipeline and the simulated-count roll-up.

use crate::trace::Tracer;
use crate::SETUPS;
use cheri::c::TranslationUnit;
use cheri::compile::{compile_unit, Abi, RUNTIME_SOURCE};
use cheri::isa::{Op, Program};
use cheri::vm::VmStats;
use std::collections::BTreeMap;

/// Per-layer metric values by name; names missing at output time read 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// Fuel ceiling for every guest run; no workload comes near it.
pub const FUEL: u64 = 20_000_000_000;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed always produces the same inputs and order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Walks the request kinds `0..n` in passes, each pass in a fresh seeded
/// order.
#[derive(Default)]
pub struct Passes {
    order: Vec<usize>,
    cursor: usize,
}

impl Passes {
    pub fn next(&mut self, n: usize, rng: &mut Rng) -> usize {
        if self.cursor == 0 {
            self.order = (0..n).collect();
            rng.shuffle(&mut self.order);
        }
        let i = self.order[self.cursor];
        self.cursor = (self.cursor + 1) % n;
        i
    }
}

/// The output oracles' ledger: `error_rate` is `failed / attempted`.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    first_failure: Option<String>,
}

impl Checks {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }

    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }
}

/// `cheri_c::parse`, one span per stage: lex, parse, sema. Returns the
/// unit and its token count.
pub fn front_end(src: &str, tr: &mut Tracer) -> (TranslationUnit, u64) {
    let tokens = tr
        .span("c.lex", || cheri::c::lex(src))
        .expect("benchmark source lexes");
    let mut unit = tr
        .span("c.parse", || cheri::c::parse_tokens(&tokens))
        .expect("benchmark source parses");
    tr.span("c.sema", || cheri::c::check(&mut unit))
        .expect("benchmark source type-checks");
    (unit, tokens.len() as u64)
}

/// A compiled guest plus the front-end work it took.
pub struct Compiled {
    pub program: Program,
    pub tokens: u64,
}

/// `cheri_compile::compile`, split at its layer boundaries so each stage
/// gets its own span: the front end, then codegen.
pub fn compile(src: &str, abi: Abi, tr: &mut Tracer) -> Compiled {
    let (unit, tokens) = front_end(&format!("{src}\n{RUNTIME_SOURCE}"), tr);
    let program = tr
        .span("compile.codegen", || compile_unit(&unit, abi))
        .expect("workload source compiles");
    Compiled { program, tokens }
}

/// The front-end and codegen work of the programs one set-up compiles.
#[derive(Default)]
pub struct CompileTally {
    tokens: u64,
    code_words: u64,
}

impl CompileTally {
    pub fn add(&mut self, c: &Compiled) {
        self.tokens += c.tokens;
        self.code_words += c.program.code.len() as u64;
    }

    /// Front-end and codegen metrics per set-up, from the set-up spans.
    pub fn record(&self, setup: &Tracer, out: &mut Layers) {
        for (metric, span) in [
            ("c.lex_ms", "c.lex"),
            ("c.parse_ms", "c.parse"),
            ("c.sema_ms", "c.sema"),
            ("compile.codegen_ms", "compile.codegen"),
        ] {
            out.insert(metric, setup.ms_per(span, SETUPS));
        }
        out.insert("c.tokens", self.tokens as f64);
        out.insert("compile.code_words", self.code_words as f64);
    }
}

/// The op classes `vm.ops.*` reports retired counts for.
pub const OP_CLASSES: [&str; 10] = [
    "vm.ops.alu",
    "vm.ops.branch",
    "vm.ops.jump",
    "vm.ops.cap_jump",
    "vm.ops.legacy_ldst",
    "vm.ops.cap_ldst",
    "vm.ops.clc",
    "vm.ops.csc",
    "vm.ops.cap_arith",
    "vm.ops.syscall",
];

fn op_class(op: Op) -> usize {
    use Op::*;
    match op {
        Beq | Bne | Blez | Bgtz | Bltz | Bgez => 1,
        J | Jal | Jr | Jalr => 2,
        CJr | CJalr => 3,
        Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Sb | Sh | Sw | Sd => 4,
        Clb | Clbu | Clh | Clhu | Clw | Clwu | Cld | Csb | Csh | Csw | Csd => 5,
        Clc => 6,
        Csc => 7,
        Syscall | Break => 9,
        _ if op.is_capability_op() => 8,
        _ => 0,
    }
}

/// Simulated counts summed over a set of runs. These depend only on the
/// simulated machine, so they must repeat exactly on every run and stay
/// byte-identical across host-only changes.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SimCounts {
    pub instret: u64,
    pub cycles: u64,
    pub fetch_checks: u64,
    pub ops: [u64; 10],
    pub l1_accesses: u64,
    pub l1_misses: u64,
    pub dram_bytes: u64,
    pub cap128_escapes: u64,
}

impl SimCounts {
    pub fn add(&mut self, s: &VmStats) {
        self.instret += s.instret;
        self.cycles += s.cycles;
        self.fetch_checks += s.fetch_checks;
        for &op in Op::ALL {
            self.ops[op_class(op)] += s.op_count(op);
        }
        if let Some(c) = &s.cache {
            self.l1_accesses += c.l1_hits + c.l1_misses;
            self.l1_misses += c.l1_misses;
            self.dram_bytes += c.traffic.dram_bytes();
        }
        if let Some(z) = s.compression {
            self.cap128_escapes += z.attempts - z.successes;
        }
    }

    /// Writes the simulated counts into the per-layer metrics.
    pub fn record(&self, out: &mut Layers) {
        out.insert("vm.instret", self.instret as f64);
        out.insert("vm.fetch_checks", self.fetch_checks as f64);
        for (name, &n) in OP_CLASSES.iter().zip(&self.ops) {
            out.insert(name, n as f64);
        }
        out.insert("cache.l1_accesses", self.l1_accesses as f64);
        out.insert(
            "cache.l1_miss_pct",
            100.0 * self.l1_misses as f64 / self.l1_accesses.max(1) as f64,
        );
        out.insert("cache.dram_bytes", self.dram_bytes as f64);
        if self.l1_accesses > 0 {
            out.insert("cache.sim_cycles", self.cycles as f64);
        }
        out.insert("mem.cap128_escapes", self.cap128_escapes as f64);
    }

    /// One human-readable line of the simulated counts.
    pub fn line(&self, label: &str) -> String {
        format!(
            "{label}: instret {} cycles {} dram_bytes {} cap128_escapes {} fetch_checks {}",
            self.instret, self.cycles, self.dram_bytes, self.cap128_escapes, self.fetch_checks
        )
    }
}
