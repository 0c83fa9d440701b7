//! The repository benchmark.
//!
//! ```text
//! cheri-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload sets up (compile, boot, warm up, compute its output
//! oracles) several times, then runs a closed loop of batches for
//! `--seconds`, checking every output. With `--trace 0` the last line of
//! stdout carries the end-to-end metrics; with `--trace 1` the timed phase
//! is split into an untraced and a traced half, the per-op-class and
//! memory microbenches run, and the last line carries the per-layer
//! metrics, including the traced half's slowdown as `trace.overhead_pct`.
//!
//! Workloads, and the layers each one stresses:
//! * `olden-cap` — Olden kernels on CHERIv3 under Cap256 and Cap128 with
//!   the FPGA cache model: the capability memory path and the cache model.
//! * `scalar-mix` — Dhrystone, tcpdump-lite and zlib-lite on MIPS and
//!   CHERIv3 without a cache model: dispatch and plain data accesses.
//! * `sandbox-serve` — an 8-tenant sandbox service answering seeded request
//!   batches: fork, the scheduler and rewind-on-trap.
//! * `corpus-lint` — the Table 1 corpus through the front end, the idiom
//!   analyzer and `cheri-lint`, plus the Table 3 model matrix.

mod common;
mod corpus;
mod guest;
mod micro;
mod olden;
mod report;
mod sandbox;
mod scalar;
mod trace;

use common::{Checks, Layers, Rng};
use report::{median, tail, END_TO_END};
use std::time::Instant;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: u64 = 5;

/// What one closed-loop batch did.
pub struct Batch {
    /// Requests answered.
    pub requests: u64,
    /// Simulated instructions retired answering them.
    pub sim_instr: u64,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Capability formats the workload's machines store capabilities in.
    const FORMATS: &'static str;
    /// Batches per full pass over the workload's request mix. The timed
    /// phase only stops on a pass boundary, so every run weighs each
    /// request kind the same.
    const PASS: u64;

    /// Compiles, boots and warms up, and computes the output oracles.
    fn setup(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Self;

    /// Runs and checks one batch.
    fn batch(&mut self, rng: &mut Rng, tr: &mut Tracer, checks: &mut Checks) -> Batch;

    /// Fills the per-layer metrics from the set-up spans (`SETUPS`
    /// set-ups) and the traced batches (`batches` of them), running any
    /// extra attribution passes the workload needs.
    fn layers(
        &mut self,
        setup: &Tracer,
        timed: &Tracer,
        batches: u64,
        checks: &mut Checks,
        out: &mut Layers,
    );

    /// Human-readable lines printed on every run: the simulated counts,
    /// which must repeat exactly, and workload-specific rates given the
    /// fastest pass's time.
    fn summary(&self, pass_s: f64) -> Vec<String>;
}

/// A timed closed loop of batches.
#[derive(Default)]
struct Timed {
    latencies_s: Vec<f64>,
    /// Duration of each full pass over the request mix.
    passes_s: Vec<f64>,
    requests: u64,
    sim_instr: u64,
}

impl Timed {
    /// The fastest pass. Shared hosts alternate between phases about
    /// 1.6-1.9x apart in speed, lasting from under a second to minutes, so
    /// a run's median pass lands in whichever phase covered more of it:
    /// across runs of the same code the median pass spread 25-35%, the
    /// fastest about 10-17%.
    fn best_pass_s(&self) -> f64 {
        self.passes_s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// A total over the passes, per pass, over the fastest pass's time.
    fn rate(&self, total: u64) -> f64 {
        total as f64 / self.passes_s.len() as f64 / self.best_pass_s()
    }

    /// Runs whole passes of closed-loop batches for at least `seconds`.
    fn run<W: Workload>(
        &mut self,
        w: &mut W,
        seconds: f64,
        rng: &mut Rng,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) {
        let start = Instant::now();
        let mut pass_start = start;
        for batch in 1.. {
            let b0 = Instant::now();
            let b = w.batch(rng, tr, checks);
            self.latencies_s.push(b0.elapsed().as_secs_f64());
            self.requests += b.requests;
            self.sim_instr += b.sim_instr;
            if batch % W::PASS == 0 {
                self.passes_s.push(pass_start.elapsed().as_secs_f64());
                pass_start = Instant::now();
                if start.elapsed().as_secs_f64() >= seconds {
                    return;
                }
            }
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: cheri-perfbench --workload <olden-cap|scalar-mix|sandbox-serve|corpus-lint> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value {value:?} for {flag}")))
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&flag, &value),
            "--seconds" => args.seconds = number(&flag, &value),
            "--trace" => args.trace = number::<u8>(&flag, &value) != 0,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    args
}

/// The context every result is stamped with: host-side numbers compare
/// only across like hosts, builds and simulated-cycle eras.
fn stamp<W: Workload>(args: &Args) -> String {
    let cfg = cheri::vm::VmConfig::fpga();
    let cache = cfg.cache.expect("the FPGA machine has a cache model");
    format!(
        "stamp: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cores\": {}, \"toolchain\": \"{}\", \"build\": \"{}, lto=thin\", \
         \"backend\": \"{}\", \"opt\": \"{:?}\", \"cap_formats\": \"{}\", \
         \"cycle_era\": \"fetch_charging={} mshrs={} store_buffer={} prefetch={:?}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        cfg.backend.name(),
        cfg.opt,
        W::FORMATS,
        cfg.fetch_charging,
        cache.l1.mshrs,
        cache.l1.store_buffer,
        cache.prefetch,
    )
}

fn run<W: Workload>(args: &Args) {
    println!("{}", stamp::<W>(args));
    let mut checks = Checks::default();
    let mut setup_tr = Tracer::new(args.trace);
    let mut setup_s = Vec::new();
    let mut setup = |checks: &mut Checks| {
        let t = Instant::now();
        let w = W::setup(args.seed, &mut setup_tr, checks);
        setup_s.push(t.elapsed().as_secs_f64());
        w
    };
    let mut w = setup(&mut checks);
    let mut rng = Rng::new(args.seed);

    // End-to-end metrics always come from an untraced loop; a traced run
    // spends half its time there so the tracing overhead can be reported.
    // The loop is cut into one segment per set-up, and the later set-ups
    // run between segments, so `setup_s` samples the host across the run
    // rather than in one burst at its start.
    let plain_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut plain = Timed::default();
    let mut off = Tracer::new(false);
    for segment in 0..SETUPS {
        if segment > 0 {
            drop(setup(&mut checks));
        }
        let seconds = plain_s / SETUPS as f64;
        plain.run(&mut w, seconds, &mut rng, &mut off, &mut checks);
    }
    let (tail_s, tail_pct) = tail(&plain.latencies_s);
    let e2e = [
        median(&setup_s),
        plain.rate(plain.sim_instr) / 1e6,
        plain.rate(plain.requests),
        tail_s * 1e3,
        report::peak_rss_mb(),
    ];
    for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
        println!("{name} = {value:.6} {unit}");
    }
    println!(
        "  setup_s is the median of {SETUPS} set-ups: {setup_s:.4?}\n  \
         rates are from the fastest of {} passes; of {} batches, p50 is {:.6} ms and \
         batch_tail_ms is p{tail_pct:.2} (10 batches beyond it)",
        plain.passes_s.len(),
        plain.latencies_s.len(),
        median(&plain.latencies_s) * 1e3,
    );
    for line in w.summary(plain.best_pass_s()) {
        println!("  {line}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut tr = Tracer::new(true);
        let mut traced = Timed::default();
        traced.run(&mut w, args.seconds / 2.0, &mut rng, &mut tr, &mut checks);
        let mut layers = Layers::new();
        let batches = traced.latencies_s.len() as u64;
        w.layers(&setup_tr, &tr, batches, &mut checks, &mut layers);
        micro::measure(&mut layers);
        layers.insert(
            "trace.overhead_pct",
            100.0 * (traced.best_pass_s() / plain.best_pass_s() - 1.0),
        );
        let metrics = report::per_layer_metrics(&layers);
        for (name, value, unit) in &metrics {
            println!("{name} = {value:.6} {unit}");
        }
        metrics
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };

    println!(
        "error_rate = {} ({} of {} checks failed){}",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted,
        checks
            .first_failure()
            .map(|f| format!("; first failure: {f}"))
            .unwrap_or_default()
    );
    println!(
        "{}",
        report::result_json(checks.attempted, checks.failed, &metrics)
    );
}

fn main() {
    let args = parse_args();
    match args.workload.as_str() {
        "olden-cap" => run::<olden::Olden>(&args),
        "scalar-mix" => run::<scalar::ScalarMix>(&args),
        "sandbox-serve" => run::<sandbox::SandboxServe>(&args),
        "corpus-lint" => run::<corpus::CorpusLint>(&args),
        other => usage(&format!("unknown workload {other:?}")),
    }
}
