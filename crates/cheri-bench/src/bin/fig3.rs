//! Regenerates Figure 3: tcpdump trace-processing time under the three ABIs.
//!
//! Usage: `fig3 [packets] [fetch]` (default 2000 packets). Passing the
//! literal word `fetch` turns on per-block instruction-fetch charging (a
//! new cycle era; columns gain the fetch share). Any other argument prints
//! the usage line and exits with status 2.
fn main() {
    let (numbers, [fetch]) = cheri_bench::driver_args("fig3 [packets] [fetch]", ["fetch"], 1);
    let packets = numbers.first().copied().unwrap_or(2_000);
    let pts = cheri_bench::fig3_points(packets, 61106, fetch);
    print!(
        "{}",
        cheri_bench::render_abi_points("Figure 3: tcpdump results (smaller is better)", &pts)
    );
}
