//! Machine configuration and memory layout.

use cheri_cache::HierarchyConfig;
use cheri_cap::CapFormat;
use cheri_mem::UnrepresentablePolicy;

/// Size of the unmapped low guard page. Legacy (DDC-relative) accesses
/// below this address fault, modelling the page-protection behaviour that
/// makes null-pointer dereferences crash on conventional machines.
pub const NULL_GUARD_SIZE: u64 = 0x1000;

/// How the block engine behind [`crate::Vm::run`] binds micro-ops. Both
/// kinds are bit-identical in architectural state and statistics
/// (simulated cycles, traps, `fetch_checks`, the traffic ledger); they
/// differ only in host wall-clock speed. See the README's "Execution
/// backends" section.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Every micro-op bound to `Vm::exec_flat`, one block per dispatch —
    /// the reference the template tier is differenced against.
    Reference,
    /// The template tier: each micro-op pre-bound to a monomorphized
    /// handler at block compile time, and a direct branch/jump terminal
    /// chained straight to the already-compiled successor.
    Template,
}

impl BackendKind {
    /// All backends, reference first (differential-suite order).
    pub const ALL: [BackendKind; 2] = [BackendKind::Reference, BackendKind::Template];

    /// Display name, as reports and benchmark stamps print it.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Template => "template",
        }
    }
}

/// IR optimization level applied when a block is compiled. Gated so the
/// unoptimized path stays available as the differential baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// Flatten only; execute the micro-ops exactly as decoded.
    None,
    /// The peephole pass: constant folding into immediates,
    /// redundant-write elision, fused compare-and-branch.
    Peephole,
}

/// Configuration for a [`crate::Vm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VmConfig {
    /// Bytes of physical memory (default 16 MiB).
    pub mem_size: u64,
    /// Data cache model; `None` charges a flat cycle per access.
    pub cache: Option<HierarchyConfig>,
    /// Load address of the data segment.
    pub data_base: u64,
    /// Bytes reserved for the stack at the top of memory.
    pub stack_size: u64,
    /// Bytes of heap handed to the allocator between data and stack.
    pub heap_size: u64,
    /// In-memory capability representation: full 256-bit or low-fat
    /// 128-bit compressed. Affects `TaggedMemory` stores, the allocator's
    /// block shaping and the cache bytes charged by `CLC`/`CSC`.
    pub cap_format: CapFormat,
    /// What a Cap128 capability store does when the capability is not
    /// representable (ignored under [`CapFormat::Cap256`]).
    pub cap128_policy: UnrepresentablePolicy,
    /// How the block engine binds micro-ops. Both kinds are
    /// bit-identical in everything but host speed.
    pub backend: BackendKind,
    /// IR optimization level applied when blocks are compiled.
    pub opt: OptLevel,
    /// Charge instruction fetch through the cache hierarchy, one
    /// transaction per superinstruction block entry (amortized exactly
    /// like the block's base cycles). Off by default: the data-side cost
    /// model stays byte-identical to earlier eras, and fetch traffic
    /// stays out of the ledger. No effect on cache-less configs.
    pub fetch_charging: bool,
}

impl VmConfig {
    /// The paper's softcore-like machine: 16 MiB memory, FPGA cache model,
    /// full 256-bit capabilities.
    pub fn fpga() -> VmConfig {
        VmConfig {
            mem_size: 16 << 20,
            cache: Some(HierarchyConfig::fpga_softcore()),
            data_base: 0x1_0000,
            stack_size: 1 << 20,
            heap_size: 8 << 20,
            cap_format: CapFormat::Cap256,
            cap128_policy: UnrepresentablePolicy::SideTable,
            backend: BackendKind::Template,
            opt: OptLevel::Peephole,
            fetch_charging: false,
        }
    }

    /// A fast functional-only machine (no cache model) for tests.
    pub fn functional() -> VmConfig {
        VmConfig {
            cache: None,
            ..VmConfig::fpga()
        }
    }

    /// The same machine with a `bytes` physical-memory quota. The stack
    /// stays at the top of the (smaller) memory and the heap shrinks to
    /// whatever fits between data segment and stack — the per-tenant
    /// memory-quota knob of the sandbox service.
    pub fn with_mem_size(mut self, bytes: u64) -> VmConfig {
        self.mem_size = bytes;
        self
    }

    /// The same machine with `format` capability storage.
    pub fn with_cap_format(mut self, format: CapFormat) -> VmConfig {
        self.cap_format = format;
        self
    }

    /// The same machine with `cache` as its cache/traffic model.
    pub fn with_cache(mut self, cache: HierarchyConfig) -> VmConfig {
        self.cache = Some(cache);
        self
    }

    /// The same machine with the L1 line narrowed to `bytes` (the 16- or
    /// 32-byte sub-block geometry that stops line rounding from absorbing
    /// the half-width Cap128 stores). No-op on cache-less configs.
    pub fn with_l1_line_bytes(mut self, bytes: u64) -> VmConfig {
        self.cache = self.cache.map(|c| c.with_l1_line_bytes(bytes));
        self
    }

    /// The same machine with `policy` for unrepresentable Cap128 stores.
    pub fn with_cap128_policy(mut self, policy: UnrepresentablePolicy) -> VmConfig {
        self.cap128_policy = policy;
        self
    }

    /// The same machine driven by `backend`.
    pub fn with_backend(mut self, backend: BackendKind) -> VmConfig {
        self.backend = backend;
        self
    }

    /// The same machine with blocks compiled at `opt`.
    pub fn with_opt_level(mut self, opt: OptLevel) -> VmConfig {
        self.opt = opt;
        self
    }

    /// The same machine with instruction fetch charged through the cache
    /// hierarchy (see [`VmConfig::fetch_charging`]).
    pub fn with_fetch_charging(mut self, on: bool) -> VmConfig {
        self.fetch_charging = on;
        self
    }
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig::fpga()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_are_consistent() {
        let c = VmConfig::default();
        assert!(c.data_base >= NULL_GUARD_SIZE);
        assert!(c.heap_size + c.stack_size + c.data_base <= c.mem_size);
        assert!(VmConfig::functional().cache.is_none());
        assert!(VmConfig::fpga().cache.is_some());
    }

    #[test]
    fn builders_set_cache_geometry() {
        let c = VmConfig::fpga().with_l1_line_bytes(16);
        let cache = c.cache.expect("fpga config has a cache model");
        assert_eq!(cache.l1.line_bytes, 16);
        assert!(cache.validate().is_ok());
        assert!(VmConfig::functional()
            .with_l1_line_bytes(16)
            .cache
            .is_none());
        let again = VmConfig::functional().with_cache(HierarchyConfig::desktop());
        assert_eq!(again.cache, Some(HierarchyConfig::desktop()));
    }

    #[test]
    fn builder_sets_memory_quota() {
        let c = VmConfig::functional().with_mem_size(4 << 20);
        assert_eq!(c.mem_size, 4 << 20);
        // The quota leaves the layout consistent: stack fits, heap shrinks.
        assert!(c.data_base + c.stack_size <= c.mem_size);
    }

    #[test]
    fn builders_set_capability_format() {
        let c = VmConfig::functional()
            .with_cap_format(CapFormat::Cap128)
            .with_cap128_policy(UnrepresentablePolicy::Trap);
        assert_eq!(c.cap_format, CapFormat::Cap128);
        assert_eq!(c.cap128_policy, UnrepresentablePolicy::Trap);
        assert_eq!(VmConfig::default().cap_format, CapFormat::Cap256);
    }

    #[test]
    fn builders_choose_backend_and_opt_level() {
        assert_eq!(VmConfig::default().backend, BackendKind::Template);
        assert_eq!(VmConfig::default().opt, OptLevel::Peephole);
        let c = VmConfig::functional()
            .with_backend(BackendKind::Reference)
            .with_opt_level(OptLevel::None);
        assert_eq!((c.backend, c.opt), (BackendKind::Reference, OptLevel::None));
        assert!(!c.fetch_charging, "fetch charging defaults off");
        assert!(c.with_fetch_charging(true).fetch_charging);
        assert_eq!(
            BackendKind::ALL.map(BackendKind::name),
            ["reference", "template"]
        );
    }
}
