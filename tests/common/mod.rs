//! The eleven-substrate runner shared by the differential suites: the
//! seven interpreter memory models, the three compiled ABIs, and CHERIv3
//! re-run on 128-bit compressed capability storage.

use cheri::compile::{compile, Abi};
use cheri::interp::{run_main, ModelKind};
use cheri::vm::{CapFormat, Vm, VmConfig, VmTrap};

/// Fuel for each VM run.
const FUEL: u64 = 50_000_000;

/// Runs `src` on all eleven substrates and returns each one's name and
/// outcome: the seven interpreter models first (in [`ModelKind::ALL`]
/// order), then the three ABIs, then `CHERIv3+Cap128`. Every interpreter
/// model must run the program (a runtime error panics); a VM outcome is
/// the exit code or the trap that stopped the run.
pub fn run_everywhere(src: &str) -> Vec<(String, Result<i64, VmTrap>)> {
    let unit = cheri::c::parse(src).expect("test program parses");
    let mut out: Vec<(String, Result<i64, VmTrap>)> = ModelKind::ALL
        .iter()
        .map(|&m| {
            let r = run_main(&unit, m).unwrap_or_else(|e| panic!("{m}: {e}\n{src}"));
            (m.to_string(), Ok(r.exit_code))
        })
        .collect();
    let mut v3 = None;
    for abi in Abi::ALL {
        let prog = compile(src, abi).unwrap_or_else(|e| panic!("{abi}: {e}\n{src}"));
        if abi == Abi::CheriV3 {
            v3 = Some(prog.clone());
        }
        let mut vm = Vm::new(prog, VmConfig::functional());
        out.push((abi.to_string(), vm.run(FUEL).map(|s| s.code)));
    }
    // The eleventh substrate: the verdict must not depend on the
    // in-memory capability format.
    let cfg = VmConfig::functional().with_cap_format(CapFormat::Cap128);
    let mut vm = Vm::new(v3.expect("Abi::ALL contains CheriV3"), cfg);
    out.push(("CHERIv3+Cap128".to_string(), vm.run(FUEL).map(|s| s.code)));
    out
}

/// Exit codes on all eleven substrates, named as in [`run_everywhere`];
/// panics on any trap (for programs every substrate must run).
pub fn exit_codes_everywhere(src: &str) -> Vec<(String, i64)> {
    run_everywhere(src)
        .into_iter()
        .map(|(name, r)| {
            let code = r.unwrap_or_else(|e| panic!("{name}: {e}\n{src}"));
            (name, code)
        })
        .collect()
}
