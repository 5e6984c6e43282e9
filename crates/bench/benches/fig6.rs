//! Bench for Fig. 6: cpuid latency across the five systems.

use svt_arch::ArchId;
use svt_core::SwitchMode;
use svt_hv::Level;
use svt_workloads::{fig6_grid, run_cpuid, CpuidSpec};

fn main() {
    for b in fig6_grid(ArchId::X86, 100, 1, None).bars {
        println!(
            "Fig6 {}: {:.3}us (speedup {:.2}x)",
            b.label, b.time_us, b.speedup
        );
    }
    let l2 = |mode| CpuidSpec {
        level: Level::L2,
        mode,
        arch: ArchId::X86,
        iters: 50,
    };
    svt_bench::bench_wall("fig6/baseline_l2", 10, || {
        run_cpuid(&l2(SwitchMode::Baseline)).us()
    });
    svt_bench::bench_wall("fig6/sw_svt", 10, || run_cpuid(&l2(SwitchMode::SwSvt)).us());
    svt_bench::bench_wall("fig6/hw_svt", 10, || run_cpuid(&l2(SwitchMode::HwSvt)).us());
}
