//! Regenerates Table 3: idiom support per memory model, measured live,
//! followed by the static companion matrix (dynamic verdict next to
//! `cheri-lint`'s prediction, with the false-warn rate).
fn main() {
    let cells = cheri_idioms::cases::run_matrix();
    print!("{}", cheri_bench::table3_report(&cells));
    println!();
    print!("{}", cheri_bench::table3_static_report(&cells));
}
