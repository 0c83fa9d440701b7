//! Metric definitions, summary statistics and the result line.

use crate::common::Layers;

/// End-to-end metrics, printed on every untraced run, every workload. The
/// batch median is printed but not among them: on mixes of unequal
/// requests it sits on the boundary between two request kinds and flips
/// with the shared host's speed phases (30-57% apart across runs of the
/// same code), while the tail sits on the slowest kind.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_mips", "MIPS"),
    ("req_per_s", "1/s"),
    ("batch_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed on every traced run, every workload. A layer
/// the workload does not exercise reads 0. Front-end and codegen figures
/// are per set-up (guest workloads) or per corpus pass (`corpus-lint`);
/// simulated counts are per pass of the workload's program set.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("c.lex_ms", "ms"),
    ("c.parse_ms", "ms"),
    ("c.sema_ms", "ms"),
    ("c.tokens", "count"),
    ("interp.lower_ms", "ms"),
    ("interp.models_ms", "ms"),
    ("idioms.analyzer_ms", "ms"),
    ("lint.engine_ms", "ms"),
    ("lint.findings", "count"),
    ("compile.codegen_ms", "ms"),
    ("compile.code_words", "count"),
    ("vm.boot_us", "us"),
    ("vm.exec_ns_per_instr", "ns"),
    ("vm.instret", "count"),
    ("vm.fetch_checks", "count"),
    ("vm.ops.alu", "count"),
    ("vm.ops.branch", "count"),
    ("vm.ops.jump", "count"),
    ("vm.ops.cap_jump", "count"),
    ("vm.ops.legacy_ldst", "count"),
    ("vm.ops.cap_ldst", "count"),
    ("vm.ops.clc", "count"),
    ("vm.ops.csc", "count"),
    ("vm.ops.cap_arith", "count"),
    ("vm.ops.syscall", "count"),
    ("vm.op_ns.alu", "ns"),
    ("vm.op_ns.branch", "ns"),
    ("vm.op_ns.jr_jal", "ns"),
    ("vm.op_ns.cld_csd", "ns"),
    ("vm.op_ns.clc_csc.cap256", "ns"),
    ("vm.op_ns.clc_csc.cap128", "ns"),
    ("vm.op_ns.cincoffset", "ns"),
    ("vm.op_ns.syscall", "ns"),
    ("mem.read_cap_ns.cap256", "ns"),
    ("mem.read_cap_ns.cap128", "ns"),
    ("mem.write_cap_ns.cap256", "ns"),
    ("mem.write_cap_ns.cap128", "ns"),
    ("mem.read_u64_ns", "ns"),
    ("mem.write_u64_ns", "ns"),
    ("mem.cap128_escapes", "count"),
    ("cache.model_ns_per_instr", "ns"),
    ("cache.access_hit_ns", "ns"),
    ("cache.l1_accesses", "count"),
    ("cache.l1_miss_pct", "%"),
    ("cache.dram_bytes", "bytes"),
    ("cache.sim_cycles", "cycles"),
    ("sandbox.admit_ms", "ms"),
    ("sandbox.fork_us.tree-v3", "us"),
    ("sandbox.fork_us.table-128", "us"),
    ("sandbox.fork_us.oob-v3", "us"),
    ("sandbox.fork_us.tree-mips", "us"),
    ("sandbox.sched_us_per_req", "us"),
    ("sandbox.req_instret", "count"),
    ("sandbox.slices_per_req", "count"),
    ("sandbox.completed", "count"),
    ("sandbox.trapped", "count"),
    ("sandbox.exhausted", "count"),
    ("sandbox.rejected", "count"),
    ("sandbox.worker_scaling", "x"),
    ("trace.overhead_pct", "%"),
];

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of `xs`: the highest percentile that still has at least ten
/// samples beyond it. Returns `(value, percentile)`; with ten samples or
/// fewer there is no such percentile and the maximum stands in (p100).
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v.last().copied().unwrap_or(0.0), 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Peak resident set size of this process, in MB (10^6 bytes): the
/// kernel's high-water mark for this address space. (`getrusage` would
/// also count the parent's footprint from before `exec`.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib * 1024.0 / 1e6
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not a number: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Every per-layer metric in [`PER_LAYER`] order, 0 where not measured.
/// A name recorded but not declared is a bug in this benchmark.
pub fn per_layer_metrics(layers: &Layers) -> Vec<(&'static str, f64, &'static str)> {
    for name in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "undeclared per-layer metric {name}"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}
