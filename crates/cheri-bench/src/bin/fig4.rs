//! Regenerates Figure 4: zlib overhead vs file size, two CHERI configs.
//!
//! Usage: `fig4 [backend]` where `backend` is one of `reference` or
//! `template` (default: the machine default, template). Simulated cycles are backend-invariant; the choice only
//! changes host wall-clock time. An unknown backend name prints the
//! valid names and exits non-zero.
fn main() {
    let mut args = std::env::args().skip(1);
    if let Some(name) = args.next() {
        cheri_bench::select_backend(cheri_bench::backend_arg(&name));
    }
    let sizes: Vec<u32> = vec![1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17];
    let pts = cheri_bench::fig4_points(&sizes, 61106);
    print!("{}", cheri_bench::render_fig4(&pts));
}
