//! # `cheri-sandbox` — a multi-tenant sandbox service over the CHERI VM
//!
//! The paper's end goal is running untrusted C at scale on a capability
//! machine; this crate productionizes the single-guest `sandbox` example
//! into a request-serving service in the "secure rewind and discard"
//! mould:
//!
//! * **Copy-on-write guest forks.** A tenant's guest is compiled, booted
//!   and run once up to its *ready marker* (the `break` emitted by the
//!   mini-C `abort()` intrinsic), then captured as a [`cheri_vm::VmSnapshot`].
//!   Every request runs on a fork of that snapshot, which copies only the
//!   4 KiB pages the warm-up actually touched — not the multi-MiB backing
//!   store — and shares the code image and the compiled-block table, which
//!   the snapshot precompiled for the request path. A fork costs a few
//!   microseconds; cold-booting and re-warming the guest costs a few
//!   hundred.
//! * **Work-stealing, fuel-sliced scheduling.** Requests run across
//!   [`scheduler::run_sliced`] workers (std threads + per-worker deques).
//!   A guest that exhausts its preemption quantum is re-queued; a guest
//!   that traps is *rewound* — its fork dropped, its request discarded —
//!   and the tenant keeps serving from the pristine snapshot.
//! * **Per-tenant machine policy.** Each [`TenantConfig`] carries its own
//!   [`cheri_vm::VmConfig`] (execution backend, capability format, cache
//!   geometry, memory quota) and fuel policy (slice + per-request budget).
//!
//! Determinism is a first-class property: a forked request is bit-identical
//! (output, trap pc/cause, instret, simulated cycles, traffic ledger) to
//! running the same request on a cold-booted guest, and a batch served in
//! parallel returns exactly the responses of a serial run — each request
//! owns its fork, so no interleaving can leak state between requests.
//!
//! ```no_run
//! use cheri_compile::Abi;
//! use cheri_sandbox::{guests, Request, SandboxService, TenantConfig};
//!
//! let mut service = SandboxService::new();
//! let t = service
//!     .add_tenant(TenantConfig::new("tree", guests::tree_service(6), Abi::CheriV3))
//!     .unwrap();
//! let requests = vec![Request { tenant: t, payload: b"hello".to_vec() }];
//! let responses = service.serve(&requests, 4);
//! assert!(responses[0].outcome.is_completed());
//! ```

pub mod guests;
pub mod scheduler;
mod service;

pub use service::{Outcome, Request, Response, SandboxError, SandboxService, TenantConfig};
