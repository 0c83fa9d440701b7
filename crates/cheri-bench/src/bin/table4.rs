//! Regenerates Table 4: porting effort (annotation vs semantic lines),
//! plus the capability-memory ablation (256-bit vs 128-bit in-memory
//! capabilities: footprint, representability, simulated cycles) and the
//! DRAM-traffic report (per-edge bytes under the bandwidth-aware cache
//! model, both formats, 64B and 16B L1 lines).
//!
//! Usage: `table4 [backend] [contention]` where `backend` is one of
//! `reference` or `template` (default: the machine default,
//! template). Simulated cycles are backend-invariant; the choice
//! only changes host wall-clock time. Passing the literal word
//! `contention` appends the shared-L2 multi-core contention report
//! (1/2/4/8 cores, both formats). An unknown backend name prints the
//! valid names and exits non-zero.
fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let contention = raw.iter().any(|a| a == "contention");
    if let Some(name) = raw.iter().find(|a| *a != "contention") {
        cheri_bench::select_backend(cheri_bench::backend_arg(name));
    }
    print!("{}", cheri_bench::table4_report());
    print!("{}", cheri_bench::cap_memory_report());
    print!("{}", cheri_bench::cap_traffic_report());
    if contention {
        print!("{}", cheri_bench::contention_report());
    }
}
