//! Regenerates Table 4: porting effort (annotation vs semantic lines),
//! plus the capability-memory ablation (256-bit vs 128-bit in-memory
//! capabilities: footprint, representability, simulated cycles) and the
//! DRAM-traffic report (per-edge bytes under the bandwidth-aware cache
//! model, both formats, 64B and 16B L1 lines).
//!
//! Usage: `table4 [contention]`. Passing the literal word `contention`
//! appends the shared-L2 multi-core contention report (1/2/4/8 cores,
//! both formats). Any other argument prints the usage line and exits with
//! status 2.
fn main() {
    let (_, [contention]) = cheri_bench::driver_args("table4 [contention]", ["contention"], 0);
    print!("{}", cheri_bench::table4_report());
    print!("{}", cheri_bench::cap_memory_report());
    print!("{}", cheri_bench::cap_traffic_report());
    if contention {
        print!("{}", cheri_bench::contention_report());
    }
}
