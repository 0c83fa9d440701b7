//! `scalar-mix`: Dhrystone, tcpdump-lite over a seeded packet trace and
//! zlib-lite over a seeded compressible file, each on MIPS and CHERIv3, on
//! the functional machine. Dispatch and plain or bounds-checked data
//! accesses dominate; capability loads and stores are a small share and
//! there is no cache model, so an optimization of the capability path or
//! the cache model should leave this workload unchanged. Its byte stores
//! over tagged granules expose any cost such an optimization adds to the
//! plain store path.

use crate::common::{compile, Checks, Layers, Rng};
use crate::guest::{boot_and_run, input_addr, GuestSet};
use crate::trace::Tracer;
use crate::{Batch, Workload};
use cheri::compile::Abi;
use cheri::vm::VmConfig;
use cheri::workloads::{inputs, sources};

const DHRYSTONE_RUNS: u32 = 1000;
const PACKETS: u32 = 1500;
const ZLIB_BYTES: u32 = 16 * 1024;

pub struct ScalarMix {
    guests: GuestSet,
}

impl Workload for ScalarMix {
    const FORMATS: &'static str = "Cap256";
    /// Three programs on two ABIs.
    const PASS: u64 = 6;

    fn setup(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> ScalarMix {
        let trace = inputs::packet_trace(PACKETS, seed);
        let file = inputs::compressible_file(ZLIB_BYTES as usize, seed);
        let programs = [
            ("Dhrystone", sources::dhrystone(DHRYSTONE_RUNS), None),
            (
                "tcpdump",
                sources::tcpdump_baseline(),
                Some(("trace", &trace)),
            ),
            (
                "zlib",
                sources::zlib(ZLIB_BYTES, false),
                Some(("input", &file)),
            ),
        ];
        let mut guests = GuestSet::default();
        let cfg = VmConfig::functional();
        for (name, src, input) in programs {
            // The oracle is the MIPS run; CHERIv3 must print the same.
            let mut oracle = None;
            for abi in [Abi::Mips, Abi::CheriV3] {
                let c = compile(&src, abi, tr);
                guests.compiled.add(&c);
                let inputs: Vec<(u64, Vec<u8>)> = input
                    .iter()
                    .map(|(sym, bytes)| (input_addr(&c.program, sym, bytes.len()), bytes.to_vec()))
                    .collect();
                let expected = oracle
                    .get_or_insert_with(|| {
                        boot_and_run(&c.program, cfg, &inputs, tr)
                            .unwrap_or_default()
                            .0
                    })
                    .clone();
                let label = format!("{name} {abi}");
                guests.add(label, &c.program, cfg, inputs, &expected, tr, checks);
            }
            if name == "tcpdump" {
                // tcp, udp, icmp, other and malformed partition the trace.
                let classes: u64 = oracle
                    .unwrap_or_default()
                    .split_whitespace()
                    .take(5)
                    .map(|f| f.parse::<u64>().unwrap_or(0))
                    .sum();
                checks.check(classes == PACKETS as u64, || {
                    format!("tcpdump classes sum to {classes}, trace has {PACKETS}")
                });
            }
        }
        assert_eq!(guests.runs.len() as u64, Self::PASS);
        ScalarMix { guests }
    }

    fn batch(&mut self, rng: &mut Rng, tr: &mut Tracer, checks: &mut Checks) -> Batch {
        self.guests.batch(rng, tr, checks)
    }

    fn layers(
        &mut self,
        setup: &Tracer,
        timed: &Tracer,
        batches: u64,
        _checks: &mut Checks,
        out: &mut Layers,
    ) {
        self.guests.layers(setup, timed, out);
        // The timed loop ends on pass boundaries.
        let instret = self.guests.sim().instret as f64 * (batches / Self::PASS) as f64;
        out.insert("vm.exec_ns_per_instr", timed.ns("vm.exec") / instret);
    }

    fn summary(&self, _pass_s: f64) -> Vec<String> {
        self.guests.summary()
    }
}
