//! Robustness at the request-payload entry point: random payloads — any
//! bytes, any length from empty to 64 bytes past the guest's request
//! buffer — served to every demo guest, under both capability formats and
//! both backends. Every tenant runs 7-instruction fuel slices, so nearly
//! every slice ends inside a block and single-steps its tail. No payload
//! may panic the host; a payload larger than the buffer is rejected
//! without running and every other one runs; both backends give the same
//! responses; and a batch gets the same responses from one worker as
//! from two.
//!
//! The generator is deterministic (seeded from the test name, overridable
//! with `PROPTEST_SEED`), so a failure reproduces.

use cheri::compile::{compile, Abi};
use cheri::sandbox::{guests, Outcome, Request, Response, SandboxService, TenantConfig};
use cheri::vm::{BackendKind, CapFormat, VmConfig};
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Payloads per guest and capability format.
const PAYLOADS: usize = 256;

/// How far past the request buffer a payload may reach.
const OVERSHOOT: u64 = 64;

/// A payload of any length in `0..=cap + OVERSHOOT`, any bytes.
fn payload(rng: &mut TestRng, cap: u64) -> Vec<u8> {
    let len = rng.below(cap + OVERSHOOT + 1);
    (0..len).map(|_| rng.below(256) as u8).collect()
}

/// The size of the guest's `request` buffer, as the service reads it.
fn request_cap(source: &str) -> u64 {
    let prog = compile(source, Abi::CheriV3).expect("demo guest compiles");
    prog.symbols
        .iter()
        .find(|s| !s.is_func && s.name == "request")
        .expect("demo guest has a request buffer")
        .size
}

/// `service.serve`, turning a host panic into a failure that names `what`.
fn serve_guarded(
    service: &SandboxService,
    requests: &[Request],
    workers: usize,
    what: &str,
) -> Vec<Response> {
    catch_unwind(AssertUnwindSafe(|| service.serve(requests, workers)))
        .unwrap_or_else(|_| panic!("host panic serving {what} on {workers} worker(s)"))
}

#[test]
fn random_payloads_never_panic_and_agree_everywhere() {
    let mut rng = TestRng::deterministic("random_payloads_never_panic_and_agree_everywhere");
    let fleet = [
        ("tree", guests::tree_service(4)),
        ("table", guests::table_service()),
        ("oob", guests::oob_service()),
    ];
    for (name, source) in fleet {
        let cap = request_cap(&source);
        for format in [CapFormat::Cap256, CapFormat::Cap128] {
            let payloads: Vec<Vec<u8>> = (0..PAYLOADS).map(|_| payload(&mut rng, cap)).collect();
            let mut service = SandboxService::new();
            for backend in BackendKind::ALL {
                let vm = VmConfig::functional()
                    .with_mem_size(4 << 20)
                    .with_cap_format(format)
                    .with_backend(backend);
                service
                    .add_tenant(
                        TenantConfig::new(name, source.clone(), Abi::CheriV3)
                            .with_vm(vm)
                            .with_fuel_slice(7),
                    )
                    .unwrap_or_else(|e| panic!("{name}/{format:?}/{backend:?}: {e}"));
            }
            // Every payload to every backend's tenant, interleaved.
            let requests: Vec<Request> = payloads
                .iter()
                .flat_map(|p| {
                    (0..BackendKind::ALL.len()).map(|tenant| Request {
                        tenant,
                        payload: p.clone(),
                    })
                })
                .collect();
            let what = format!("{name}/{format:?}");
            let serial = serve_guarded(&service, &requests, 1, &what);
            let parallel = serve_guarded(&service, &requests, 2, &what);
            assert_eq!(serial, parallel, "{what}: 1 vs 2 workers");

            for (pair, p) in serial.chunks(BackendKind::ALL.len()).zip(&payloads) {
                let outcome = &pair[0].outcome;
                let what = format!("{what}, {}-byte payload {p:?}", p.len());
                for r in &pair[1..] {
                    assert_eq!(&r.outcome, outcome, "{what}: backends disagree");
                }
                let over = p.len() as u64 > cap;
                assert_eq!(
                    matches!(outcome, Outcome::Rejected { .. }),
                    over,
                    "{what}: {outcome:?}"
                );
                // The oob guest strays out of bounds on an odd first
                // byte; every other request runs to completion.
                let strays = name == "oob" && p.first().is_some_and(|b| b % 2 == 1);
                if !over && strays {
                    assert!(
                        matches!(outcome, Outcome::Trapped { .. }),
                        "{what}: {outcome:?}"
                    );
                } else if !over {
                    assert!(outcome.is_completed(), "{what}: {outcome:?}");
                }
            }
        }
    }
}
