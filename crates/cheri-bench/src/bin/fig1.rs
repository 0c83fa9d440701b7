//! Regenerates Figure 1: Olden runtimes under the three ABIs.
//!
//! Usage: `fig1 [scale] [fetch]` (default scale 4). Passing the literal
//! word `fetch` turns on per-block instruction-fetch charging (a new cycle
//! era; columns gain the fetch share). Any other argument prints the usage
//! line and exits with status 2.
fn main() {
    let (numbers, [fetch]) = cheri_bench::driver_args("fig1 [scale] [fetch]", ["fetch"], 1);
    let scale = numbers.first().copied().unwrap_or(4);
    let pts = cheri_bench::fig1_points(scale, fetch);
    print!(
        "{}",
        cheri_bench::render_abi_points("Figure 1: Olden results (smaller is better)", &pts)
    );
}
