//! A set of compiled guest programs run to exit as closed-loop requests:
//! the shared engine of `olden-cap` and `scalar-mix`.

use crate::common::{Checks, CompileTally, Layers, Passes, Rng, SimCounts, FUEL};
use crate::trace::Tracer;
use crate::Batch;
use cheri::isa::Program;
use cheri::vm::{Vm, VmConfig, VmStats};

/// One request kind: a program on a machine, with its inputs and oracle.
pub struct GuestRun {
    pub label: String,
    program: Program,
    pub cfg: VmConfig,
    /// `(address, bytes)` poked into the data segment before each run.
    inputs: Vec<(u64, Vec<u8>)>,
    /// The output every run must print.
    pub expected: String,
    /// Statistics of the set-up run; every timed run must reproduce its
    /// instruction and cycle counts exactly.
    pub reference: VmStats,
}

impl GuestRun {
    /// Boots a fresh machine, pokes the inputs and runs to exit. A trap
    /// yields `None`.
    pub fn execute(&self, cfg: VmConfig, tr: &mut Tracer) -> Option<(String, VmStats)> {
        boot_and_run(&self.program, cfg, &self.inputs, tr)
    }
}

/// Boots `program` on `cfg`, pokes `inputs`, and runs it to exit.
pub fn boot_and_run(
    program: &Program,
    cfg: VmConfig,
    inputs: &[(u64, Vec<u8>)],
    tr: &mut Tracer,
) -> Option<(String, VmStats)> {
    let mut vm = tr.span("vm.boot", || Vm::new(program.clone(), cfg));
    for (addr, bytes) in inputs {
        vm.mem_mut()
            .write_bytes(*addr, bytes)
            .expect("input buffer lies in the data segment");
    }
    let status = tr.span("vm.exec", || vm.run(FUEL)).ok()?;
    (status.code == 0).then(|| (vm.output_string(), status.stats))
}

/// The address of global `name` in `program`, checked to hold `len` bytes.
pub fn input_addr(program: &Program, name: &str, len: usize) -> u64 {
    let sym = program
        .symbols
        .iter()
        .find(|s| !s.is_func && s.name == name)
        .unwrap_or_else(|| panic!("guest has no {name:?} buffer"));
    assert!(
        len as u64 <= sym.size,
        "{name}: {len} bytes overflow the buffer"
    );
    sym.value
}

/// The guest programs of one workload plus the front-end work that built
/// them.
#[derive(Default)]
pub struct GuestSet {
    pub runs: Vec<GuestRun>,
    pub compiled: CompileTally,
    passes: Passes,
}

impl GuestSet {
    /// Adds a request kind, running it once to record its reference
    /// statistics and check its output against `expected`.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        label: String,
        program: &Program,
        cfg: VmConfig,
        inputs: Vec<(u64, Vec<u8>)>,
        expected: &str,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) {
        let (output, reference) = boot_and_run(program, cfg, &inputs, tr).unwrap_or_default();
        checks.check(output == expected, || {
            format!("{label}: set-up output {output:?}, oracle {expected:?}")
        });
        self.runs.push(GuestRun {
            label,
            program: program.clone(),
            cfg,
            inputs,
            expected: expected.to_string(),
            reference,
        });
    }

    /// Runs the next request of the current pass, checking its output and
    /// simulated counts.
    pub fn batch(&mut self, rng: &mut Rng, tr: &mut Tracer, checks: &mut Checks) -> Batch {
        let run = &self.runs[self.passes.next(self.runs.len(), rng)];
        let (output, stats) = run.execute(run.cfg, tr).unwrap_or_default();
        checks.check(output == run.expected, || {
            format!(
                "{}: output {output:?}, oracle {:?}",
                run.label, run.expected
            )
        });
        checks.check(
            stats.instret == run.reference.instret && stats.cycles == run.reference.cycles,
            || format!("{}: simulated counts moved between runs", run.label),
        );
        Batch {
            requests: 1,
            sim_instr: stats.instret,
        }
    }

    /// Simulated counts of one pass.
    pub fn sim(&self) -> SimCounts {
        let mut sim = SimCounts::default();
        for run in &self.runs {
            sim.add(&run.reference);
        }
        sim
    }

    /// Front end, codegen, boot and the simulated counts.
    pub fn layers(&self, setup: &Tracer, timed: &Tracer, out: &mut Layers) {
        self.compiled.record(setup, out);
        out.insert("vm.boot_us", timed.us_per_call("vm.boot"));
        self.sim().record(out);
    }

    /// One line per request kind with its simulated counts.
    pub fn summary(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                let mut sim = SimCounts::default();
                sim.add(&r.reference);
                sim.line(&r.label)
            })
            .collect();
        lines.push(self.sim().line("pass total"));
        lines
    }
}
