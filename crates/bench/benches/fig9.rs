//! Bench for Fig. 9: TPC-C throughput per engine.

use svt_core::SwitchMode;
use svt_workloads::{run, RunSpec, Serve};

fn tpcc_tpm(mode: SwitchMode, transactions: u64) -> f64 {
    let spec = RunSpec::new(Serve::Tpcc { transactions }, mode);
    run(&spec, ()).0.tpm().expect("TPC-C reports tpm")
}

fn main() {
    let b0 = tpcc_tpm(SwitchMode::Baseline, 60);
    let s = tpcc_tpm(SwitchMode::SwSvt, 60);
    println!(
        "Fig9 baseline {:.0} tpm, SVt {:.0} tpm ({:.2}x; paper 6370 tpm, 1.18x)",
        b0,
        s,
        s / b0
    );
    svt_bench::bench_wall("fig9/tpcc_baseline_x40", 10, || {
        tpcc_tpm(SwitchMode::Baseline, 40)
    });
}
