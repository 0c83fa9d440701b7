//! Ablation benches for the design choices DESIGN.md calls out:
//! * capability operation microcosts (inc_offset vs inc_base vs checks);
//! * tagged-memory store-clears-tag bookkeeping;
//! * cache-hierarchy geometry (FPGA-like vs desktop-like);
//! * 128-bit compressed capabilities (low-fat) compress/decompress, the
//!   representability rate over allocator outputs, and 128-bit vs 256-bit
//!   capability stores through tagged memory;
//! * the VM fetch path: straight-line execution rides the cached PCC
//!   window, so this measures the per-instruction dispatch floor.
use cheri_cache::{Hierarchy, HierarchyConfig};
use cheri_cap::{CapFormat, Capability, CompressedCapability, CompressionStats, Perms};
use cheri_isa::{Instr, Op, Program};
use cheri_mem::{Allocator, TaggedMemory, UnrepresentablePolicy};
use cheri_vm::{BackendKind, OptLevel, Vm, VmConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// A straight-line program: `n` add-immediates, then exit — nothing but
/// fetch + dispatch, the floor the PCC run cache lowers. Under block
/// dispatch this is one giant superinstruction.
fn straight_line(n: usize) -> Program {
    let mut p = Program::new();
    p.code = vec![Instr::i2(Op::Addiu, 8, 8, 1); n];
    p.code.push(Instr::li(4, 0));
    p.code.push(Instr::syscall(0));
    p
}

/// A counted loop entered ~`n` times: each iteration re-dispatches one
/// small cached block (addiu / slt / bne), so this measures the
/// superinstruction layer's per-block-entry overhead rather than the
/// per-op floor.
fn counted_loop(n: i32) -> Program {
    let mut p = Program::new();
    p.code = vec![
        Instr::li(8, 0),
        Instr::li(9, n),
        Instr::i2(Op::Addiu, 8, 8, 1),    // 2: i += 1
        Instr::r3(Op::Slt, 10, 8, 9),     // 3: t = i < n
        Instr::new(Op::Bne, 0, 10, 0, 2), // 4: loop while t
        Instr::li(4, 0),
        Instr::syscall(0),
    ];
    p
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_substrate");

    // The two legacy dispatch benches stay pinned to the reference
    // binding (every op through `exec_flat`) with the optimizer off; the
    // template tier is measured separately below.
    let reference = VmConfig::functional()
        .with_backend(BackendKind::Reference)
        .with_opt_level(OptLevel::None);
    let prog = straight_line(4096);
    g.bench_function("vm_fetch_straight_line_4k", |b| {
        b.iter(|| {
            let mut vm = Vm::new(prog.clone(), reference);
            let status = vm.run(1 << 20).unwrap();
            assert_eq!(status.stats.fetch_checks, 1);
            status.stats.instret
        })
    });

    let loop_prog = counted_loop(4096);
    g.bench_function("vm_superinstruction_4k", |b| {
        b.iter(|| {
            let mut vm = Vm::new(loop_prog.clone(), reference);
            let status = vm.run(1 << 20).unwrap();
            assert_eq!(status.stats.fetch_checks, 1);
            status.stats.instret
        })
    });

    // The template tier on the same counted loop: chaining removes the
    // per-iteration dispatch lookup and pre-bound handlers remove the
    // per-op decode match. It runs the peephole pass (the default), so
    // the loop body is also compare-and-branch fused.
    let template = VmConfig::functional()
        .with_backend(BackendKind::Template)
        .with_opt_level(OptLevel::Peephole);
    g.bench_function("vm_template_backend_4k", |b| {
        b.iter(|| {
            let mut vm = Vm::new(loop_prog.clone(), template);
            let status = vm.run(1 << 20).unwrap();
            assert_eq!(status.stats.fetch_checks, 1);
            status.stats.instret
        })
    });

    let cap = Capability::new_mem(0x1000, 0x1000, Perms::data());
    g.bench_function("cap_inc_offset", |b| {
        b.iter(|| black_box(cap).inc_offset(black_box(8)).unwrap())
    });
    g.bench_function("cap_inc_base", |b| {
        b.iter(|| black_box(cap).inc_base(black_box(8)).unwrap())
    });
    g.bench_function("cap_check_access", |b| {
        b.iter(|| black_box(cap).check_access(8, Perms::LOAD).unwrap())
    });
    g.bench_function("cap_compress_roundtrip", |b| {
        b.iter(|| CompressedCapability::compress(&black_box(cap)).map(|z| z.decompress()))
    });

    g.bench_function("compression_rate_over_allocs", |b| {
        b.iter(|| {
            let mut heap = Allocator::new(0x1_0000, 1 << 20);
            let mut stats = CompressionStats::default();
            for i in 1..200u64 {
                if let Ok(cp) = heap.alloc_cap(i * 7 % 512 + 1, Perms::data()) {
                    stats.try_compress(&cp);
                }
            }
            stats.success_rate()
        })
    });

    g.bench_function("tagged_store_clears_tag", |b| {
        let mut mem = TaggedMemory::new(1 << 16);
        mem.write_cap(0x40, &cap).unwrap();
        b.iter(|| {
            mem.write_cap(0x40, &cap).unwrap();
            mem.write_u64(0x48, 1).unwrap();
            mem.tag_at(0x40).unwrap()
        })
    });

    for (name, format) in [
        ("cap_store_load_256", CapFormat::Cap256),
        ("cap_store_load_128", CapFormat::Cap128),
    ] {
        g.bench_function(name, |b| {
            let mut mem =
                TaggedMemory::with_format(1 << 16, format, UnrepresentablePolicy::SideTable);
            b.iter(|| {
                mem.write_cap(0x40, &cap).unwrap();
                mem.read_cap(0x40).unwrap()
            })
        });
    }

    for (name, cfg) in [
        ("cache_fpga", HierarchyConfig::fpga_softcore()),
        (
            "cache_fpga_16b_line",
            HierarchyConfig::fpga_softcore().with_l1_line_bytes(16),
        ),
        ("cache_desktop", HierarchyConfig::desktop()),
    ] {
        g.bench_function(name, |b| {
            let mut h = Hierarchy::new(cfg);
            let mut a = 0u64;
            b.iter(|| {
                a = (a + 4097) & 0xF_FFFF;
                h.access(a, 8, a % 3 == 0)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
