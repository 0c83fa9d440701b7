//! The tenant table and the request-serving loop.

use crate::scheduler::{run_sliced, Slice};
use cheri_compile::{compile, Abi, CompileError};
use cheri_vm::{LayoutError, SharedHierarchy, TrapCause, Vm, VmConfig, VmSnapshot, VmTrap};
use std::error::Error;
use std::fmt;

/// Everything that defines a tenant: its guest program, ABI, machine
/// configuration (backend, capability format, cache geometry, memory
/// quota) and fuel policy.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Display name, for reports.
    pub name: String,
    /// Mini-C guest source. `main` must warm up, call `abort()` (the
    /// ready marker the service snapshots at), then serve one request
    /// from the `request` / `request_len` globals and return.
    pub source: String,
    /// Compilation ABI (MIPS, CHERIv2 or CHERIv3).
    pub abi: Abi,
    /// The tenant's machine: backend, capability format, cache model and
    /// memory quota all come from here.
    pub vm: VmConfig,
    /// Preemption quantum in retired instructions: a request that has not
    /// finished after a slice is re-queued behind other work.
    pub fuel_slice: u64,
    /// Total retired-instruction budget per request (also bounds the
    /// warm-up run at boot).
    pub fuel_budget: u64,
}

impl TenantConfig {
    /// A tenant with the default fuel policy (200 k-instruction slices,
    /// 50 M budget) on a cache-less machine.
    pub fn new(name: &str, source: String, abi: Abi) -> TenantConfig {
        TenantConfig {
            name: name.to_string(),
            source,
            abi,
            vm: VmConfig::functional(),
            fuel_slice: 200_000,
            fuel_budget: 50_000_000,
        }
    }

    /// The same tenant on `vm`.
    pub fn with_vm(mut self, vm: VmConfig) -> TenantConfig {
        self.vm = vm;
        self
    }

    /// The same tenant with `slice`-instruction preemption quanta.
    pub fn with_fuel_slice(mut self, slice: u64) -> TenantConfig {
        self.fuel_slice = slice;
        self
    }

    /// The same tenant with a `budget`-instruction per-request ceiling.
    pub fn with_fuel_budget(mut self, budget: u64) -> TenantConfig {
        self.fuel_budget = budget;
        self
    }
}

/// Why a tenant could not be admitted to the service.
#[derive(Clone, Debug)]
pub enum SandboxError {
    /// The guest source did not compile.
    Compile(CompileError),
    /// The tenant's memory quota cannot hold the guest's data segment,
    /// stack and a heap.
    Quota(LayoutError),
    /// The guest trapped during warm-up, before reaching its ready marker.
    Boot(VmTrap),
    /// The guest returned from `main` without ever calling `abort()`.
    NoReadyMarker {
        /// The exit code it returned instead.
        exit: i64,
    },
    /// The guest image has no `request` buffer to serve from.
    MissingSymbol(String),
}

impl fmt::Display for SandboxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SandboxError::Compile(e) => write!(f, "guest does not compile: {e}"),
            SandboxError::Quota(e) => write!(f, "guest does not fit its memory quota: {e}"),
            SandboxError::Boot(t) => write!(f, "guest trapped during warm-up: {t}"),
            SandboxError::NoReadyMarker { exit } => {
                write!(f, "guest exited ({exit}) without reaching its ready marker")
            }
            SandboxError::MissingSymbol(s) => write!(f, "guest image has no {s:?} symbol"),
        }
    }
}

impl Error for SandboxError {}

impl From<CompileError> for SandboxError {
    fn from(e: CompileError) -> SandboxError {
        SandboxError::Compile(e)
    }
}

/// One admitted tenant: the warmed snapshot plus everything needed to
/// poke a request into a fork.
#[derive(Clone, Debug)]
struct Tenant {
    name: String,
    snapshot: VmSnapshot,
    request_addr: u64,
    request_cap: u64,
    len_addr: Option<u64>,
    fuel_slice: u64,
    fuel_budget: u64,
    /// Baselines at the snapshot point, subtracted from per-request
    /// reports so a response describes only the request's own work.
    warm_output: usize,
    warm_instret: u64,
    warm_cycles: u64,
}

/// One unit of work: deliver `payload` to tenant `tenant`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Index returned by [`SandboxService::add_tenant`].
    pub tenant: usize,
    /// Bytes copied into the guest's `request` buffer.
    pub payload: Vec<u8>,
}

/// How a request ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The guest served the request and returned.
    Completed {
        /// `main`'s return value.
        exit: i64,
        /// Console output produced by the request phase alone.
        output: String,
        /// Instructions the request phase retired.
        instret: u64,
        /// Simulated cycles the request phase cost.
        cycles: u64,
        /// Cycles (included in `cycles`) the request spent queueing behind
        /// other tenants on shared memory edges. Always 0 unless the
        /// service was built with [`SandboxService::with_shared_memory`].
        contention: u64,
        /// Fuel slices consumed (1 = never preempted).
        slices: u32,
    },
    /// The guest trapped; the fork was discarded (rewind) and the tenant
    /// keeps serving from its pristine snapshot.
    Trapped {
        /// The architectural trap, pc and cause.
        trap: VmTrap,
        /// Console output produced before the trap.
        output: String,
        /// Fuel slices consumed including the trapping one.
        slices: u32,
    },
    /// The request exceeded the tenant's per-request fuel budget.
    BudgetExhausted {
        /// The budget it hit.
        budget: u64,
    },
    /// The request never ran (e.g. payload larger than the guest buffer).
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
}

impl Outcome {
    /// True for [`Outcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed { .. })
    }
}

/// One served request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Index of the request in the batch handed to [`SandboxService::serve`].
    pub request: usize,
    /// The tenant that served it.
    pub tenant: usize,
    /// How it ended.
    pub outcome: Outcome,
}

/// A request mid-flight on the scheduler. The fork is created on the
/// job's first slice, not at submission, so the number of live guest
/// memories is bounded by the worker count, not the batch size.
struct Job<'a> {
    index: usize,
    request: &'a Request,
    vm: Option<Box<Vm>>,
    spent: u64,
    slices: u32,
}

/// The multi-tenant sandbox service: admit tenants once, then serve
/// request batches from copy-on-write forks of their warmed images.
#[derive(Clone, Debug, Default)]
pub struct SandboxService {
    tenants: Vec<Tenant>,
    shared_memory: bool,
}

impl SandboxService {
    /// An empty service.
    pub fn new() -> SandboxService {
        SandboxService::default()
    }

    /// The same service with the shared memory system on or off.
    ///
    /// When on, every [`SandboxService::serve`] batch arbitrates its
    /// requests' L1↔L2 and L2↔DRAM transfers over one pair of shared
    /// edges, as if each fork ran on its own core of a multi-core host
    /// with private caches over a shared memory system. Queueing delays
    /// are charged to the waiting request's cycles and reported as
    /// [`Outcome::Completed::contention`]. Tenants on cache-less machines
    /// are unaffected. Off (the default), forks have independent memory
    /// systems and responses never depend on batch composition.
    pub fn with_shared_memory(mut self, on: bool) -> SandboxService {
        self.shared_memory = on;
        self
    }

    /// Compiles, boots and warms `cfg`'s guest up to its ready marker,
    /// snapshots it, and returns the tenant's index.
    ///
    /// # Errors
    ///
    /// [`SandboxError`] if the guest does not compile, does not fit its
    /// memory quota, traps before the marker, never reaches it, or has no
    /// `request` buffer.
    pub fn add_tenant(&mut self, cfg: TenantConfig) -> Result<usize, SandboxError> {
        let prog = compile(&cfg.source, cfg.abi)?;
        let find = |name: &str| {
            prog.symbols
                .iter()
                .find(|s| !s.is_func && s.name == name)
                .map(|s| (s.value, s.size))
        };
        let (request_addr, request_cap) =
            find("request").ok_or_else(|| SandboxError::MissingSymbol("request".into()))?;
        let len_addr = find("request_len").map(|(addr, _)| addr);
        let mut vm = Vm::try_new(prog, cfg.vm).map_err(SandboxError::Quota)?;
        match vm.run(cfg.fuel_budget) {
            Err(VmTrap {
                pc,
                cause: TrapCause::Breakpoint,
            }) => vm.set_pc(pc + 1),
            Err(trap) => return Err(SandboxError::Boot(trap)),
            Ok(status) => return Err(SandboxError::NoReadyMarker { exit: status.code }),
        }
        let stats = vm.stats();
        let tenant = Tenant {
            name: cfg.name,
            warm_output: vm.output().len(),
            warm_instret: stats.instret,
            warm_cycles: stats.cycles,
            snapshot: vm.snapshot(),
            request_addr,
            request_cap,
            len_addr,
            fuel_slice: cfg.fuel_slice.max(1),
            fuel_budget: cfg.fuel_budget.max(1),
        };
        self.tenants.push(tenant);
        Ok(self.tenants.len() - 1)
    }

    /// Number of admitted tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The display name of tenant `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tenant index.
    pub fn tenant_name(&self, id: usize) -> &str {
        &self.tenants[id].name
    }

    /// Bytes each request fork of tenant `id` copies (the guest's warm
    /// memory footprint).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tenant index.
    pub fn warm_bytes(&self, id: usize) -> u64 {
        self.tenants[id].snapshot.warm_bytes()
    }

    /// Forks a fresh machine from tenant `id`'s warmed snapshot — the
    /// per-request operation, exposed for benchmarks and tests.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tenant index.
    pub fn fork_tenant(&self, id: usize) -> Vm {
        self.tenants[id].snapshot.fork()
    }

    /// Serves every request across `workers` work-stealing workers
    /// (capped at host parallelism; one worker runs inline on the
    /// caller's thread). Responses come back in request order, and are
    /// identical for every worker count and interleaving: each request
    /// runs on its own fork, so tenants share nothing but the read-only
    /// snapshots.
    ///
    /// # Panics
    ///
    /// Panics if a request names a tenant index that does not exist.
    pub fn serve(&self, requests: &[Request], workers: usize) -> Vec<Response> {
        for r in requests {
            assert!(r.tenant < self.tenants.len(), "unknown tenant {}", r.tenant);
        }
        let jobs: Vec<Job<'_>> = requests
            .iter()
            .enumerate()
            .map(|(index, request)| Job {
                index,
                request,
                vm: None,
                spent: 0,
                slices: 0,
            })
            .collect();
        // One contention window per batch: every request fork attaches to
        // the same pair of shared edges, whichever worker steps it.
        let shared = self.shared_memory.then(SharedHierarchy::new);
        let mut responses = run_sliced(jobs, workers, |job| self.step(job, shared.as_ref()));
        responses.sort_unstable_by_key(|r| r.request);
        responses
    }

    /// Runs one fuel slice of `job`.
    fn step<'a>(
        &self,
        mut job: Job<'a>,
        shared: Option<&SharedHierarchy>,
    ) -> Slice<Job<'a>, Response> {
        let tenant = &self.tenants[job.request.tenant];
        let (index, tenant_id) = (job.index, job.request.tenant);
        let done = move |outcome| {
            Slice::Done(Response {
                request: index,
                tenant: tenant_id,
                outcome,
            })
        };
        if job.vm.is_none() {
            let payload = &job.request.payload;
            if payload.len() as u64 > tenant.request_cap {
                return done(Outcome::Rejected {
                    reason: format!(
                        "payload is {} bytes but the request buffer holds {}",
                        payload.len(),
                        tenant.request_cap
                    ),
                });
            }
            let mut vm = tenant.snapshot.fork();
            vm.mem_mut()
                .write_bytes(tenant.request_addr, payload)
                .expect("request buffer is in the data segment");
            if let Some(len_addr) = tenant.len_addr {
                vm.mem_mut()
                    .write_u64(len_addr, payload.len() as u64)
                    .expect("request_len is in the data segment");
            }
            if let Some(sh) = shared {
                vm.attach_shared_hierarchy(sh.clone());
            }
            job.vm = Some(Box::new(vm));
        }
        let vm = job.vm.as_mut().expect("job has a live fork");
        let slice = tenant.fuel_slice.min(tenant.fuel_budget - job.spent);
        job.slices += 1;
        match vm.run(slice) {
            Ok(status) => {
                let stats = status.stats;
                done(Outcome::Completed {
                    exit: status.code,
                    output: String::from_utf8_lossy(&vm.output()[tenant.warm_output..])
                        .into_owned(),
                    instret: stats.instret - tenant.warm_instret,
                    cycles: stats.cycles - tenant.warm_cycles,
                    // The warm-up ran before the shared edges were
                    // attached, so the whole counter belongs to the
                    // request phase — no baseline to subtract.
                    contention: stats.cache.as_ref().map_or(0, |c| c.contention_cycles),
                    slices: job.slices,
                })
            }
            Err(VmTrap {
                cause: TrapCause::OutOfFuel,
                ..
            }) => {
                job.spent += slice;
                if job.spent >= tenant.fuel_budget {
                    done(Outcome::BudgetExhausted {
                        budget: tenant.fuel_budget,
                    })
                } else {
                    Slice::Yield(job)
                }
            }
            // Any other trap: rewind — the fork is dropped with the job,
            // the tenant's snapshot is untouched, the request is discarded.
            Err(trap) => {
                let output =
                    String::from_utf8_lossy(&vm.output()[tenant.warm_output..]).into_owned();
                done(Outcome::Trapped {
                    trap,
                    output,
                    slices: job.slices,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guests;
    use cheri_compile::Abi;

    /// Memory quotas from 4 KiB to 4 MiB, powers of two and the midpoints
    /// between them.
    fn quotas() -> impl Iterator<Item = u64> {
        (12..=22)
            .flat_map(|p| [1u64 << p, 3 << (p - 1)])
            .filter(|&q| q <= 4 << 20)
    }

    #[test]
    fn undersized_quotas_are_typed_errors_never_panics() {
        let fleet = [
            guests::tree_service(4),
            guests::table_service(),
            guests::oob_service(),
        ];
        for source in fleet {
            let mut admitted = 0;
            for quota in quotas() {
                let cfg = TenantConfig::new("quota", source.clone(), Abi::CheriV3)
                    .with_vm(VmConfig::functional().with_mem_size(quota));
                let mut service = SandboxService::new();
                match service.add_tenant(cfg) {
                    Ok(t) => {
                        admitted += 1;
                        let request = Request {
                            tenant: t,
                            payload: vec![2, 4, 6],
                        };
                        let served = service.serve(&[request], 1);
                        assert!(served[0].outcome.is_completed(), "{quota:#x}: {served:?}");
                    }
                    Err(SandboxError::Quota(e)) => {
                        assert!(quota < 2 << 20, "{quota:#x} must fit: {e}");
                        assert!(!e.to_string().is_empty());
                    }
                    Err(e) => panic!("{quota:#x}: unexpected {e}"),
                }
            }
            assert!(admitted > 0, "the larger quotas admit the guest");
        }
    }
}
