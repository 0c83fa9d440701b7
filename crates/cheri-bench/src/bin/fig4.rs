//! Regenerates Figure 4: zlib overhead vs file size, two CHERI configs.
//!
//! Usage: `fig4` (no arguments; any argument prints the usage line and
//! exits with status 2).
fn main() {
    cheri_bench::driver_args("fig4", [], 0);
    let sizes: Vec<u32> = vec![1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17];
    let pts = cheri_bench::fig4_points(&sizes, 61106);
    print!("{}", cheri_bench::render_fig4(&pts));
}
