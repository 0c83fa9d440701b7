//! Fork determinism: a request served from a copy-on-write fork of a
//! warmed snapshot must be bit-identical — architectural state, output,
//! retired instructions, simulated cycles, cache and DRAM-traffic
//! ledgers — to the same request served by a cold-booted guest, for every
//! capability format and execution backend. And a batch must produce the
//! same responses under any worker count, because each request runs on
//! its own fork.

use cheri::compile::{compile, Abi};
use cheri::isa::Program;
use cheri::sandbox::{guests, Outcome, Request, SandboxService, TenantConfig};
use cheri::vm::{BackendKind, CapFormat, TrapCause, Vm, VmConfig, VmTrap};

const TENANT_MEM: u64 = 4 << 20;

const BACKENDS: [BackendKind; 4] = [
    BackendKind::Reference,
    BackendKind::Chained,
    BackendKind::Template,
    BackendKind::Native,
];

fn cfg(format: CapFormat, backend: BackendKind) -> VmConfig {
    // The FPGA preset carries the cache model, so the comparison also
    // covers the traffic ledger, not just the architectural state.
    VmConfig::fpga()
        .with_mem_size(TENANT_MEM)
        .with_cap_format(format)
        .with_backend(backend)
}

/// Boots `prog` from scratch and runs it to the guest's ready marker —
/// the path a request would take without snapshot forking.
fn cold_boot(prog: &Program, vm_cfg: VmConfig) -> Vm {
    let mut vm = Vm::new(prog.clone(), vm_cfg);
    match vm.run(u64::MAX) {
        Err(VmTrap {
            pc,
            cause: TrapCause::Breakpoint,
        }) => vm.set_pc(pc + 1),
        other => panic!("guest must reach its ready marker, got {other:?}"),
    }
    vm
}

/// Copies `payload` into the guest's `request` / `request_len` globals,
/// exactly as the service does on a fork.
fn inject(vm: &mut Vm, prog: &Program, payload: &[u8]) {
    let sym = |name: &str| {
        prog.symbols
            .iter()
            .find(|s| !s.is_func && s.name == name)
            .unwrap_or_else(|| panic!("guest has a {name:?} global"))
            .value
    };
    vm.mem_mut().write_bytes(sym("request"), payload).unwrap();
    vm.mem_mut()
        .write_u64(sym("request_len"), payload.len() as u64)
        .unwrap();
}

/// Asserts two machines that ran the same guest are observationally
/// identical: registers, capabilities, output, and the full statistics
/// block (instructions, cycles, fetch checks, cache hit/miss and traffic
/// ledger, compression tallies).
fn assert_vms_identical(a: &Vm, b: &Vm, what: &str) {
    for r in 0..32 {
        assert_eq!(a.reg(r), b.reg(r), "{what}: integer register {r}");
        assert_eq!(a.cap(r), b.cap(r), "{what}: capability register {r}");
    }
    assert_eq!(a.output(), b.output(), "{what}: console output");
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!(sa.instret, sb.instret, "{what}: instructions retired");
    assert_eq!(sa.cycles, sb.cycles, "{what}: simulated cycles");
    assert_eq!(sa.fetch_checks, sb.fetch_checks, "{what}: PCC validations");
    assert_eq!(sa.cache, sb.cache, "{what}: cache stats + traffic ledger");
    assert_eq!(sa.compression, sb.compression, "{what}: compression stats");
}

#[test]
fn fork_matches_cold_boot_across_formats_and_backends() {
    let source = guests::tree_service(6);
    let prog = compile(&source, Abi::CheriV3).unwrap();
    for format in [CapFormat::Cap256, CapFormat::Cap128] {
        for backend in BACKENDS {
            let what = format!("{format:?}/{backend:?}");
            let vm_cfg = cfg(format, backend);

            let mut service = SandboxService::new();
            let tenant = service
                .add_tenant(
                    TenantConfig::new(&format!("tree-{what}"), source.clone(), Abi::CheriV3)
                        .with_vm(vm_cfg),
                )
                .unwrap();

            let mut forked = service.fork_tenant(tenant);
            let mut cold = cold_boot(&prog, vm_cfg);
            assert_vms_identical(&forked, &cold, &format!("{what} at the ready marker"));

            inject(&mut forked, &prog, b"determinism");
            inject(&mut cold, &prog, b"determinism");
            let precompiled = forked.compiled_blocks();
            let exit_forked = forked.run(u64::MAX).expect("forked guest completes");
            let exit_cold = cold.run(u64::MAX).expect("cold guest completes");
            assert_eq!(exit_forked.code, exit_cold.code, "{what}: exit code");
            assert_vms_identical(&forked, &cold, &format!("{what} after the request"));
            // The snapshot compiled the whole request path: serving it
            // compiled nothing more.
            assert_eq!(forked.compiled_blocks(), precompiled, "{what}: compiles");
        }
    }
}

#[test]
fn trapping_fork_matches_trapping_cold_boot() {
    let source = guests::oob_service();
    let prog = compile(&source, Abi::CheriV3).unwrap();
    for format in [CapFormat::Cap256, CapFormat::Cap128] {
        for backend in BACKENDS {
            let what = format!("{format:?}/{backend:?}");
            let vm_cfg = cfg(format, backend);

            let mut service = SandboxService::new();
            let tenant = service
                .add_tenant(
                    TenantConfig::new(&format!("oob-{what}"), source.clone(), Abi::CheriV3)
                        .with_vm(vm_cfg),
                )
                .unwrap();

            // An odd leading byte sends the guest out of bounds: the trap
            // program counter and cause must also be reproducible.
            let mut forked = service.fork_tenant(tenant);
            let mut cold = cold_boot(&prog, vm_cfg);
            inject(&mut forked, &prog, &[9, 1, 2]);
            inject(&mut cold, &prog, &[9, 1, 2]);
            let precompiled = forked.compiled_blocks();
            let trap_forked = forked.run(u64::MAX).expect_err("forked guest traps");
            assert_eq!(forked.compiled_blocks(), precompiled, "{what}: compiles");
            let trap_cold = cold.run(u64::MAX).expect_err("cold guest traps");
            assert_eq!(trap_forked.pc, trap_cold.pc, "{what}: trap pc");
            assert_eq!(trap_forked.cause, trap_cold.cause, "{what}: trap cause");
            assert_vms_identical(&forked, &cold, &format!("{what} after the trap"));
        }
    }
}

#[test]
fn parallel_service_matches_serial_service() {
    let mut service = SandboxService::new();
    let fleet = [
        (
            "tree".to_string(),
            guests::tree_service(6),
            CapFormat::Cap256,
        ),
        (
            "table".to_string(),
            guests::table_service(),
            CapFormat::Cap128,
        ),
        ("oob".to_string(), guests::oob_service(), CapFormat::Cap256),
    ];
    for (name, source, format) in fleet {
        service
            .add_tenant(
                TenantConfig::new(&name, source, Abi::CheriV3)
                    .with_vm(
                        VmConfig::functional()
                            .with_mem_size(TENANT_MEM)
                            .with_cap_format(format),
                    )
                    // A tight quantum, so multi-slice preemption and
                    // re-queueing are actually on the tested path.
                    .with_fuel_slice(1_000),
            )
            .unwrap();
    }
    // Mixed stream: completing, hashing, trapping (odd lead byte) and
    // oversized (rejected) requests, deliberately interleaved.
    let requests: Vec<Request> = (0..48)
        .map(|i| Request {
            tenant: i % 3,
            payload: match i % 4 {
                0 => vec![i as u8; 1 + i % 20],
                1 => vec![2 * i as u8 + 1; 3],
                2 => vec![i as u8],
                _ => vec![0xAB; 1000], // larger than every request buffer
            },
        })
        .collect();

    let serial = service.serve(&requests, 1);
    assert_eq!(serial.len(), requests.len());
    assert!(serial.iter().any(|r| r.outcome.is_completed()));
    assert!(
        serial
            .iter()
            .any(|r| matches!(r.outcome, cheri::sandbox::Outcome::Trapped { .. })),
        "the stream must exercise the rewind path"
    );
    assert!(
        serial
            .iter()
            .any(|r| matches!(r.outcome, cheri::sandbox::Outcome::Rejected { .. })),
        "the stream must exercise payload rejection"
    );
    for workers in [2, 4, 8] {
        let parallel = service.serve(&requests, workers);
        assert_eq!(
            serial, parallel,
            "responses must not depend on {workers}-worker interleaving"
        );
    }
}

/// A 7-instruction quantum ends most slices inside a block, so the next
/// slice enters at a pc no precompiled block starts at: the fork compiles
/// it into a private copy of the shared block table. Served outcomes, and
/// a fork stepped the same way, must still match a cold boot that runs
/// the request in one go, on every backend and capability format.
#[test]
fn mid_block_slices_compile_privately_and_match_cold_boots() {
    let fleet = [
        ("tree", guests::tree_service(5), b"slices".to_vec()),
        ("oob-ok", guests::oob_service(), vec![4, 1]),
        ("oob-trap", guests::oob_service(), vec![9, 1]),
    ];
    for format in [CapFormat::Cap256, CapFormat::Cap128] {
        for backend in BACKENDS {
            for (name, source, payload) in &fleet {
                let what = format!("{name} {format:?}/{backend:?}");
                let vm_cfg = cfg(format, backend);
                let prog = compile(source, Abi::CheriV3).unwrap();
                let mut service = SandboxService::new();
                let tenant = service
                    .add_tenant(
                        TenantConfig::new(name, source.clone(), Abi::CheriV3)
                            .with_vm(vm_cfg)
                            .with_fuel_slice(7),
                    )
                    .unwrap();

                let mut cold = cold_boot(&prog, vm_cfg);
                let (warm, warm_output) = (cold.stats(), cold.output().len());
                inject(&mut cold, &prog, payload);
                let cold_end = cold.run(u64::MAX);
                let cold_output = String::from_utf8_lossy(&cold.output()[warm_output..]);

                let served = service.serve(
                    &[Request {
                        tenant,
                        payload: payload.clone(),
                    }],
                    1,
                );
                match (&cold_end, &served[0].outcome) {
                    (
                        Ok(exit),
                        Outcome::Completed {
                            exit: code,
                            output,
                            instret,
                            cycles,
                            slices,
                            ..
                        },
                    ) => {
                        assert_eq!(*code, exit.code, "{what}: exit code");
                        assert_eq!(*output, cold_output, "{what}: output");
                        assert_eq!(*instret, exit.stats.instret - warm.instret, "{what}");
                        assert_eq!(*cycles, exit.stats.cycles - warm.cycles, "{what}");
                        assert!(*slices > 1, "{what}: the request was sliced");
                    }
                    (
                        Err(trap),
                        Outcome::Trapped {
                            trap: t, output, ..
                        },
                    ) => {
                        assert_eq!((t.pc, t.cause), (trap.pc, trap.cause), "{what}: trap");
                        assert_eq!(*output, cold_output, "{what}: output");
                    }
                    (cold_end, served) => panic!("{what}: cold {cold_end:?}, served {served:?}"),
                }

                let shared = service.fork_tenant(tenant).compiled_blocks();
                let mut fork = service.fork_tenant(tenant);
                inject(&mut fork, &prog, payload);
                let fork_end = loop {
                    match fork.run(7) {
                        Err(VmTrap {
                            cause: TrapCause::OutOfFuel,
                            ..
                        }) => {}
                        end => break end,
                    }
                };
                assert_eq!(
                    fork_end.map(|s| s.code).map_err(|t| (t.pc, t.cause)),
                    cold_end
                        .as_ref()
                        .map(|s| s.code)
                        .map_err(|t| (t.pc, t.cause)),
                    "{what}: fork end"
                );
                assert!(
                    fork.compiled_blocks() > shared,
                    "{what}: mid-block entries compile privately"
                );
                assert_eq!(service.fork_tenant(tenant).compiled_blocks(), shared);
                assert_vms_identical(&fork, &cold, &what);
            }
        }
    }
}
