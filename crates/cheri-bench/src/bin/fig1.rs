//! Regenerates Figure 1: Olden runtimes under the three ABIs.
//!
//! Usage: `fig1 [scale] [backend] [fetch]` where `backend` is one of
//! `reference` or `template` (default: the machine default,
//! template). Simulated cycles are backend-invariant; the choice
//! only changes host wall-clock time. Passing the literal word `fetch`
//! turns on per-block instruction-fetch charging (a new cycle era;
//! columns gain the fetch share). An unknown backend name prints the
//! valid names and exits non-zero.
fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "fetch") {
        cheri_bench::select_fetch_charging(true);
    }
    let mut args = raw.into_iter().filter(|a| a != "fetch").peekable();
    let scale: u32 = match args.peek().and_then(|s| s.parse().ok()) {
        Some(n) => {
            args.next();
            n
        }
        None => 4,
    };
    if let Some(name) = args.next() {
        cheri_bench::select_backend(cheri_bench::backend_arg(&name));
    }
    let pts = cheri_bench::fig1_points(scale);
    print!(
        "{}",
        cheri_bench::render_abi_points("Figure 1: Olden results (smaller is better)", &pts)
    );
}
