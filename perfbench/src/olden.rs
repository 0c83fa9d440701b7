//! `olden-cap`: the Figure 1 Olden kernels compiled for CHERIv3 and run
//! under both in-memory capability formats on the FPGA machine. Capability
//! loads and stores are up to ~40% of retired instructions here, and every
//! data access pays the cache model, so this is the workload for the
//! capability memory path, the Cap128 codec and the cache model.

use crate::common::{compile, Checks, Layers, Rng};
use crate::guest::{boot_and_run, GuestSet};
use crate::report::median;
use crate::trace::Tracer;
use crate::{Batch, Workload};
use cheri::compile::Abi;
use cheri::vm::{CapFormat, VmConfig};
use cheri::workloads::sources;

const TREEADD_DEPTH: u32 = 11;
const TREEADD_PASSES: u32 = 6;

/// Paired FPGA and functional passes for the cache-model attribution.
const ATTRIBUTION_PASSES: usize = 3;

/// The kernels at the sizes `fig1 4` runs them (`cheri_bench::fig1_points`
/// at scale 4), so `cache.sim_cycles` per kernel can be read against that
/// figure. Scale 4 is the largest that fits the 8 MiB heap: at scale 8
/// Perimeter runs out of heap on the capability ABIs.
fn kernels() -> [(&'static str, String); 5] {
    [
        ("Bisort", sources::bisort(1600)),
        ("MST", sources::mst(96)),
        ("Treeadd", sources::treeadd(TREEADD_DEPTH, TREEADD_PASSES)),
        ("Perimeter", sources::perimeter(7)),
        ("MallocStr", sources::malloc_stress(128, 6)),
    ]
}

pub struct Olden {
    guests: GuestSet,
}

impl Workload for Olden {
    const FORMATS: &'static str = "Cap256,Cap128";
    /// Five kernels under two formats.
    const PASS: u64 = 10;

    fn setup(_seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Olden {
        let mut guests = GuestSet::default();
        for (name, src) in kernels() {
            let mips = compile(&src, Abi::Mips, tr);
            let v3 = compile(&src, Abi::CheriV3, tr);
            guests.compiled.add(&mips);
            guests.compiled.add(&v3);
            // The oracle: the same kernel on the conventional MIPS ABI.
            let (expected, _) =
                boot_and_run(&mips.program, VmConfig::functional(), &[], tr).unwrap_or_default();
            if name == "Treeadd" {
                // Every node holds 1: the sum is passes × (2^depth − 1).
                let closed = TREEADD_PASSES as u64 * ((1 << TREEADD_DEPTH) - 1);
                checks.check(expected.trim() == closed.to_string(), || {
                    format!("Treeadd printed {expected:?}, closed form {closed}")
                });
            }
            for format in [CapFormat::Cap256, CapFormat::Cap128] {
                guests.add(
                    format!("{name} CHERIv3 {format:?}"),
                    &v3.program,
                    VmConfig::fpga().with_cap_format(format),
                    Vec::new(),
                    &expected,
                    tr,
                    checks,
                );
            }
        }
        assert_eq!(guests.runs.len() as u64, Self::PASS);
        Olden { guests }
    }

    fn batch(&mut self, rng: &mut Rng, tr: &mut Tracer, checks: &mut Checks) -> Batch {
        self.guests.batch(rng, tr, checks)
    }

    fn layers(
        &mut self,
        setup: &Tracer,
        timed: &Tracer,
        _batches: u64,
        checks: &mut Checks,
        out: &mut Layers,
    ) {
        self.guests.layers(setup, timed, out);
        // Cache-model attribution: each pass runs on the FPGA machine and
        // then again without the cache model. Instructions and outputs
        // must match; the host-time difference is what the cache model
        // costs. Pairing the two keeps host-speed drift out of it.
        let (mut functional_ns, mut model_ns) = (Vec::new(), Vec::new());
        for _ in 0..ATTRIBUTION_PASSES {
            let (mut fpga, mut functional) = (Tracer::new(true), Tracer::new(true));
            for run in &self.guests.runs {
                run.execute(run.cfg, &mut fpga);
                let cfg = VmConfig::functional().with_cap_format(run.cfg.cap_format);
                let (output, stats) = run.execute(cfg, &mut functional).unwrap_or_default();
                checks.check(
                    output == run.expected && stats.instret == run.reference.instret,
                    || format!("{}: the functional machine diverged", run.label),
                );
            }
            functional_ns.push(functional.ns("vm.exec"));
            model_ns.push(fpga.ns("vm.exec") - functional.ns("vm.exec"));
        }
        let instret = self.guests.sim().instret as f64;
        out.insert("vm.exec_ns_per_instr", median(&functional_ns) / instret);
        out.insert("cache.model_ns_per_instr", median(&model_ns) / instret);
    }

    fn summary(&self, _pass_s: f64) -> Vec<String> {
        self.guests.summary()
    }
}
