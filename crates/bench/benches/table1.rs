//! Bench for Table 1: one baseline nested cpuid round.
//!
//! Prints the reproduced breakdown once, then times the simulator's
//! wall-clock cost of regenerating it.

use svt_arch::ArchId;
use svt_core::SwitchMode;
use svt_hv::Level;
use svt_workloads::{run_cpuid, CpuidSpec};

fn main() {
    let spec = CpuidSpec {
        level: Level::L2,
        mode: SwitchMode::Baseline,
        arch: ArchId::X86,
        iters: 100,
    };
    // Print the paper-comparable rows once.
    for r in run_cpuid(&spec).table1() {
        println!(
            "Table1 part {}: {} = {:.2}us (paper {:.2}us, {:.1}%)",
            r.part, r.label, r.time_us, r.paper_us, r.percent
        );
    }
    svt_bench::bench_wall("table1/nested_cpuid_breakdown_x100", 10, || {
        run_cpuid(&spec).table1()
    });
}
