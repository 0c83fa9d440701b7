//! The sandbox service driver: boots a tenant fleet (including one
//! deliberately trapping guest), serves a deterministic request stream
//! across work-stealing workers, and reports fork latency vs cold boot
//! plus aggregate throughput.
//!
//! Usage: `sandboxd [requests] [tenants] [workers] [shared]` (defaults 64
//! requests, 8 tenants, 2 workers; tenants and workers at least 1).
//! Passing the literal word `shared` anywhere switches the fleet onto
//! cache-modelled machines (the FPGA soft-core geometry) arbitrating one
//! shared memory system, and adds per-tenant contention columns to the
//! report. Any other argument prints the usage line and exits with
//! status 2.

use cheri_compile::{compile, Abi};
use cheri_sandbox::{Outcome, Request, SandboxService, TenantConfig};
use cheri_vm::{CapFormat, TrapCause, Vm, VmTrap};
use std::time::Instant;

/// Per-tenant memory quota: big enough for the demo guests, small enough
/// that a batch of live forks stays cheap on a CI box.
const TENANT_MEM: u64 = 4 << 20;

fn tenant_fleet(n: usize, shared: bool) -> Vec<TenantConfig> {
    let vm = move |format: CapFormat| {
        // Shared mode needs a memory system to contend on: model each
        // tenant as an FPGA soft core instead of a functional machine.
        let base = if shared {
            cheri_vm::VmConfig::fpga()
        } else {
            cheri_vm::VmConfig::functional()
        };
        base.with_mem_size(TENANT_MEM).with_cap_format(format)
    };
    (0..n)
        .map(|i| {
            let templates = [
                (
                    "tree-v3",
                    cheri_sandbox::guests::tree_service(8),
                    Abi::CheriV3,
                    CapFormat::Cap256,
                ),
                (
                    "table-128",
                    cheri_sandbox::guests::table_service(),
                    Abi::CheriV3,
                    CapFormat::Cap128,
                ),
                (
                    "oob-v3",
                    cheri_sandbox::guests::oob_service(),
                    Abi::CheriV3,
                    CapFormat::Cap256,
                ),
                (
                    "tree-mips",
                    cheri_sandbox::guests::tree_service(5),
                    Abi::Mips,
                    CapFormat::Cap256,
                ),
            ];
            let (name, source, abi, format) = templates[i % templates.len()].clone();
            TenantConfig::new(&format!("{name}#{i}"), source, abi)
                .with_vm(vm(format))
                .with_fuel_slice(50_000)
        })
        .collect()
}

/// A tiny deterministic generator (no host RNG, so every run and every
/// worker count sees the same stream).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn request_stream(n: usize, tenants: usize) -> Vec<Request> {
    let mut rng = Lcg(0x5EED);
    (0..n)
        .map(|i| {
            let len = 1 + (rng.next() as usize % 24);
            let payload: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            Request {
                tenant: i % tenants,
                payload,
            }
        })
        .collect()
}

/// Cold guest initialization: compile nothing (the program is prebuilt),
/// but pay the full `Vm::new` + warm-up run to the ready marker — what a
/// request would cost without snapshot forking.
fn cold_boot(prog: &cheri_isa::Program, cfg: cheri_vm::VmConfig, fuel: u64) -> Vm {
    let mut vm = Vm::new(prog.clone(), cfg);
    match vm.run(fuel) {
        Err(VmTrap {
            pc,
            cause: TrapCause::Breakpoint,
        }) => vm.set_pc(pc + 1),
        other => panic!("guest must reach its ready marker, got {other:?}"),
    }
    vm
}

/// `[requests, tenants, workers]` and whether `shared` was given, or the
/// usage line and exit status 2 on any other argument.
fn parse_args() -> ([usize; 3], bool) {
    let mut numbers = [64, 8, 2];
    let (mut given, mut shared) = (0, false);
    for arg in std::env::args().skip(1) {
        if arg == "shared" {
            shared = true;
            continue;
        }
        // Requests may be 0; tenants and workers may not.
        match arg.parse::<usize>() {
            Ok(n) if given < 3 && (n > 0 || given == 0) => numbers[given] = n,
            _ => {
                eprintln!(
                    "unexpected argument {arg:?}\nusage: sandboxd [requests] [tenants] [workers] [shared]"
                );
                std::process::exit(2);
            }
        }
        given += 1;
    }
    (numbers, shared)
}

fn main() {
    let ([requests, tenants, workers], shared) = parse_args();

    let fleet = tenant_fleet(tenants, shared);
    let mut service = SandboxService::new().with_shared_memory(shared);
    let boot_start = Instant::now();
    for cfg in &fleet {
        service
            .add_tenant(cfg.clone())
            .unwrap_or_else(|e| panic!("admitting {}: {e}", cfg.name));
    }
    println!(
        "booted {tenants} tenants in {:.1} ms (warm images: {})",
        boot_start.elapsed().as_secs_f64() * 1e3,
        (0..tenants)
            .map(|t| format!(
                "{} {} KiB",
                service.tenant_name(t),
                service.warm_bytes(t) >> 10
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Fork vs cold-init latency on tenant 0 (the pointer-heavy tree guest).
    let cfg0 = &fleet[0];
    let prog = compile(&cfg0.source, cfg0.abi).expect("tenant 0 compiles");
    let cold_runs = 20;
    let t = Instant::now();
    for _ in 0..cold_runs {
        std::hint::black_box(cold_boot(&prog, cfg0.vm, cfg0.fuel_budget));
    }
    let cold_us = t.elapsed().as_secs_f64() * 1e6 / cold_runs as f64;
    let fork_runs = 2000;
    let t = Instant::now();
    for _ in 0..fork_runs {
        std::hint::black_box(service.fork_tenant(0));
    }
    let fork_us = t.elapsed().as_secs_f64() * 1e6 / fork_runs as f64;
    println!(
        "fork {:.1} us vs cold init {:.1} us  ({:.0}x faster)",
        fork_us,
        cold_us,
        cold_us / fork_us
    );

    let stream = request_stream(requests, tenants);
    let t = Instant::now();
    let responses = service.serve(&stream, workers);
    let wall = t.elapsed();

    let mut per_tenant = vec![[0u32; 4]; tenants];
    let mut sim_cycles = vec![0u64; tenants];
    let mut sim_waited = vec![0u64; tenants];
    for r in &responses {
        let slot = match &r.outcome {
            Outcome::Completed {
                cycles, contention, ..
            } => {
                sim_cycles[r.tenant] += cycles;
                sim_waited[r.tenant] += contention;
                0
            }
            Outcome::Trapped { .. } => 1,
            Outcome::BudgetExhausted { .. } => 2,
            Outcome::Rejected { .. } => 3,
        };
        per_tenant[r.tenant][slot] += 1;
    }
    let contention_cols = if shared {
        "     cycles  contention"
    } else {
        ""
    };
    println!("tenant                completed  trapped  exhausted  rejected{contention_cols}");
    for (t, counts) in per_tenant.iter().enumerate() {
        print!(
            "{:<22}{:>9}{:>9}{:>11}{:>10}",
            service.tenant_name(t),
            counts[0],
            counts[1],
            counts[2],
            counts[3]
        );
        if shared {
            let pct = if sim_cycles[t] > 0 {
                100.0 * sim_waited[t] as f64 / sim_cycles[t] as f64
            } else {
                0.0
            };
            print!("{:>11}{:>10} ({pct:.1}%)", sim_cycles[t], sim_waited[t]);
        }
        println!();
    }
    let served: u32 = per_tenant.iter().map(|c| c.iter().sum::<u32>()).sum();
    assert_eq!(served as usize, requests, "every request must be answered");
    let trapped: u32 = per_tenant.iter().map(|c| c[1]).sum();
    println!(
        "served {requests} requests across {tenants} tenants on {workers} workers in {:.1} ms  ({:.0} req/s, {trapped} rewound)",
        wall.as_secs_f64() * 1e3,
        requests as f64 / wall.as_secs_f64()
    );
}
