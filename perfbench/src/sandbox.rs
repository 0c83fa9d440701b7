//! `sandbox-serve`: the `sandboxd` fleet of eight tenants on functional
//! machines, answering a seeded request stream. One client runs a closed
//! loop, sending fixed-size batches to `SandboxService::serve` with one
//! worker per host core. Fork, the work-stealing scheduler and
//! rewind-on-trap dominate; no other workload runs them. The short
//! tenants (table-128, oob-v3) spend about half of each request forking,
//! so fork cost moves this workload mostly through them.

use crate::common::{compile, Checks, CompileTally, Compiled, Layers, Rng};
use crate::report::median;
use crate::trace::Tracer;
use crate::{Batch, Workload, SETUPS};
use cheri::compile::Abi;
use cheri::sandbox::{guests, Outcome, Request, SandboxService, TenantConfig};
use cheri::vm::{CapFormat, TrapCause, Vm, VmConfig, VmTrap};
use std::hint::black_box;
use std::time::Instant;

const TENANTS: usize = 8;
/// Requests per batch. At 64 requests (2 ms) a single host scheduling
/// hiccup set the p99.9 tail, which then spread 30% across runs.
const BATCH: usize = 256;
/// Distinct requests; batches cycle through them, so the oracle is
/// computed once per request at set-up.
const POOL: usize = 512;
/// Per-tenant memory quota, as `sandboxd` runs its fleet.
const TENANT_MEM: u64 = 4 << 20;
const FUEL_SLICE: u64 = 50_000;
/// Per-request instruction budget; no request comes near it.
const FUEL_BUDGET: u64 = 50_000_000;
/// Forks per timing sample in `sandbox.fork_us.*`.
const FORKS: usize = 500;
const REPS: usize = 5;
/// Serves of the whole pool per scheduler and scaling sample set.
const SERVE_REPS: usize = 15;

/// One tenant kind: name, its fork-latency metric, guest, ABI, format.
type Kind = (&'static str, &'static str, String, Abi, CapFormat);

/// The four tenant kinds, in `sandboxd`'s order; tenant `i` is kind `i % 4`.
fn kinds() -> [Kind; 4] {
    [
        (
            "tree-v3",
            "sandbox.fork_us.tree-v3",
            guests::tree_service(8),
            Abi::CheriV3,
            CapFormat::Cap256,
        ),
        (
            "table-128",
            "sandbox.fork_us.table-128",
            guests::table_service(),
            Abi::CheriV3,
            CapFormat::Cap128,
        ),
        (
            "oob-v3",
            "sandbox.fork_us.oob-v3",
            guests::oob_service(),
            Abi::CheriV3,
            CapFormat::Cap256,
        ),
        (
            "tree-mips",
            "sandbox.fork_us.tree-mips",
            guests::tree_service(5),
            Abi::Mips,
            CapFormat::Cap256,
        ),
    ]
}

const OOB_KIND: usize = 2;

fn machine(format: CapFormat) -> VmConfig {
    VmConfig::functional()
        .with_mem_size(TENANT_MEM)
        .with_cap_format(format)
}

/// What a request must come back as.
#[derive(PartialEq, Eq)]
enum Expect {
    Completed { exit: i64, output: String },
    Trapped,
}

/// A tenant kind's program as the oracle boots it cold.
struct ColdGuest {
    program: cheri::isa::Program,
    cfg: VmConfig,
    request_addr: u64,
    len_addr: u64,
}

impl ColdGuest {
    fn new(c: &Compiled, cfg: VmConfig) -> ColdGuest {
        let addr = |name: &str| {
            c.program
                .symbols
                .iter()
                .find(|s| !s.is_func && s.name == name)
                .map(|s| s.value)
                .unwrap_or_else(|| panic!("tenant guest has no {name:?}"))
        };
        ColdGuest {
            program: c.program.clone(),
            cfg,
            request_addr: addr("request"),
            len_addr: addr("request_len"),
        }
    }

    /// Serves `payload` on `vm`, a machine paused at the ready marker.
    fn serve_on(&self, vm: &mut Vm, payload: &[u8], tr: &mut Tracer) -> Option<Expect> {
        let warm_output = vm.output().len();
        vm.mem_mut()
            .write_bytes(self.request_addr, payload)
            .expect("request buffer is in the data segment");
        vm.mem_mut()
            .write_u64(self.len_addr, payload.len() as u64)
            .expect("request_len is in the data segment");
        match tr.span("vm.exec", || vm.run(FUEL_BUDGET)) {
            Ok(status) => Some(Expect::Completed {
                exit: status.code,
                output: String::from_utf8_lossy(&vm.output()[warm_output..]).into_owned(),
            }),
            Err(VmTrap {
                cause: TrapCause::OutOfFuel,
                ..
            }) => None,
            Err(_) => Some(Expect::Trapped),
        }
    }

    /// Boots a fresh machine and runs it to its ready marker.
    fn boot(&self, tr: &mut Tracer) -> Option<Vm> {
        let mut vm = tr.span("vm.boot", || Vm::new(self.program.clone(), self.cfg));
        match vm.run(FUEL_BUDGET) {
            Err(VmTrap {
                pc,
                cause: TrapCause::Breakpoint,
            }) => {
                vm.set_pc(pc + 1);
                Some(vm)
            }
            _ => None,
        }
    }
}

pub struct SandboxServe {
    service: SandboxService,
    pool: Vec<Request>,
    expected: Vec<Expect>,
    cold: Vec<ColdGuest>,
    next_batch: usize,
    workers: usize,
    compiled: CompileTally,
    /// Request-phase instructions the oracle retired per set-up.
    oracle_instret: u64,
}

impl SandboxServe {
    /// Checks one response against the oracle; returns its instructions.
    fn check(&self, index: usize, outcome: &Outcome, checks: &mut Checks) -> u64 {
        let (ok, instret) = match (outcome, &self.expected[index]) {
            (
                Outcome::Completed {
                    exit,
                    output,
                    instret,
                    ..
                },
                Expect::Completed { exit: e, output: o },
            ) => (exit == e && output == o, *instret),
            (Outcome::Trapped { .. }, Expect::Trapped) => (true, 0),
            _ => (false, 0),
        };
        checks.check(ok, || {
            format!("request {index}: served {outcome:?}, cold boot disagrees")
        });
        instret
    }

    fn serve_pool(&self, workers: usize) -> f64 {
        let t = Instant::now();
        black_box(self.service.serve(&self.pool, workers));
        t.elapsed().as_secs_f64()
    }
}

impl Workload for SandboxServe {
    const FORMATS: &'static str = "Cap256,Cap128";
    const PASS: u64 = (POOL / BATCH) as u64;

    fn setup(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> SandboxServe {
        let kinds = kinds();
        let mut service = SandboxService::new();
        for i in 0..TENANTS {
            let (name, _, source, abi, format) = kinds[i % kinds.len()].clone();
            let cfg = TenantConfig::new(&format!("{name}#{i}"), source, abi)
                .with_vm(machine(format))
                .with_fuel_slice(FUEL_SLICE)
                .with_fuel_budget(FUEL_BUDGET);
            tr.span("sandbox.admit", || service.add_tenant(cfg))
                .expect("every tenant boots to its ready marker");
        }

        let mut rng = Rng::new(seed);
        let pool: Vec<Request> = (0..POOL)
            .map(|i| {
                let len = 1 + (rng.next_u64() % 24) as usize;
                Request {
                    tenant: i % TENANTS,
                    payload: (0..len).map(|_| rng.next_u64() as u8).collect(),
                }
            })
            .collect();

        // The oracle: every request on a cold-booted guest.
        let mut compiled = CompileTally::default();
        let cold: Vec<ColdGuest> = kinds
            .iter()
            .map(|(_, _, source, abi, format)| {
                let c = compile(source, *abi, tr);
                compiled.add(&c);
                ColdGuest::new(&c, machine(*format))
            })
            .collect();
        let mut oracle_instret = 0;
        let expected = pool
            .iter()
            .enumerate()
            .map(|(i, req)| {
                let kind = req.tenant % kinds.len();
                let guest = &cold[kind];
                let mut vm = guest.boot(tr).expect("cold guest reaches its ready marker");
                let warm = vm.stats().instret;
                let expect = guest.serve_on(&mut vm, &req.payload, tr);
                oracle_instret += vm.stats().instret - warm;
                let oob = kind == OOB_KIND && req.payload[0] % 2 == 1;
                checks.check(
                    matches!(expect, Some(Expect::Trapped)) == oob && expect.is_some(),
                    || format!("request {i}: only odd-first-byte oob-v3 requests may trap"),
                );
                expect.unwrap_or(Expect::Trapped)
            })
            .collect();
        SandboxServe {
            service,
            pool,
            expected,
            cold,
            next_batch: 0,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            compiled,
            oracle_instret,
        }
    }

    fn batch(&mut self, _rng: &mut Rng, _tr: &mut Tracer, checks: &mut Checks) -> Batch {
        let start = self.next_batch * BATCH % POOL;
        self.next_batch += 1;
        let requests = &self.pool[start..start + BATCH];
        let responses = self.service.serve(requests, self.workers);
        checks.check(responses.len() == BATCH, || {
            "a request went unanswered".into()
        });
        let sim_instr = responses
            .iter()
            .map(|r| self.check(start + r.request, &r.outcome, checks))
            .sum();
        Batch {
            requests: BATCH as u64,
            sim_instr,
        }
    }

    fn layers(
        &mut self,
        setup: &Tracer,
        _timed: &Tracer,
        _batches: u64,
        checks: &mut Checks,
        out: &mut Layers,
    ) {
        self.compiled.record(setup, out);
        out.insert("vm.boot_us", setup.us_per_call("vm.boot"));
        out.insert(
            "vm.exec_ns_per_instr",
            setup.ns("vm.exec") / (SETUPS * self.oracle_instret) as f64,
        );
        out.insert(
            "sandbox.admit_ms",
            setup.ms_per("sandbox.admit", SETUPS * TENANTS as u64),
        );

        // Tenant `k` is of kind `k` for the first four tenants.
        for (kind, (_, metric, ..)) in kinds().iter().enumerate() {
            let samples: Vec<f64> = (0..REPS)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..FORKS {
                        black_box(self.service.fork_tenant(kind));
                    }
                    t.elapsed().as_secs_f64() * 1e6 / FORKS as f64
                })
                .collect();
            out.insert(metric, median(&samples));
        }

        // Scheduler overhead: the pool served on one worker, against the
        // same requests forked and run to completion directly. Each sample
        // runs the three back to back, so drift in a shared host's speed
        // cancels within it.
        let (mut sched_us, mut scaling) = (Vec::new(), Vec::new());
        for _ in 0..SERVE_REPS {
            let mut off = Tracer::new(false);
            let t = Instant::now();
            for req in &self.pool {
                let mut vm = self.service.fork_tenant(req.tenant);
                let guest = &self.cold[req.tenant % self.cold.len()];
                black_box(guest.serve_on(&mut vm, &req.payload, &mut off));
            }
            let direct = t.elapsed().as_secs_f64();
            let one = self.serve_pool(1);
            let many = self.serve_pool(self.workers);
            sched_us.push((one - direct) * 1e6 / POOL as f64);
            scaling.push(one / many);
        }
        out.insert("sandbox.sched_us_per_req", median(&sched_us));
        out.insert("sandbox.worker_scaling", median(&scaling));

        let responses = self.service.serve(&self.pool, self.workers);
        let (mut completed, mut trapped, mut exhausted, mut rejected) = (0u64, 0u64, 0u64, 0u64);
        let (mut instret, mut slices) = (0u64, 0u64);
        for r in &responses {
            instret += self.check(r.request, &r.outcome, checks);
            match &r.outcome {
                Outcome::Completed { slices: s, .. } => {
                    completed += 1;
                    slices += *s as u64;
                }
                Outcome::Trapped { slices: s, .. } => {
                    trapped += 1;
                    slices += *s as u64;
                }
                Outcome::BudgetExhausted { .. } => exhausted += 1,
                Outcome::Rejected { .. } => rejected += 1,
            }
        }
        out.insert(
            "sandbox.req_instret",
            instret as f64 / completed.max(1) as f64,
        );
        out.insert(
            "sandbox.slices_per_req",
            slices as f64 / (completed + trapped).max(1) as f64,
        );
        out.insert("sandbox.completed", completed as f64);
        out.insert("sandbox.trapped", trapped as f64);
        out.insert("sandbox.exhausted", exhausted as f64);
        out.insert("sandbox.rejected", rejected as f64);
    }

    fn summary(&self, _pass_s: f64) -> Vec<String> {
        let trapped = self
            .expected
            .iter()
            .filter(|e| **e == Expect::Trapped)
            .count();
        vec![format!(
            "{TENANTS} tenants, {POOL}-request pool in batches of {BATCH} on {} workers: \
             {} complete, {trapped} trap and rewind; request-phase instret {} per pool",
            self.workers,
            POOL - trapped,
            self.oracle_instret
        )]
    }
}
