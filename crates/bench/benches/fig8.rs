//! Bench for Fig. 8: one memcached sweep point per engine.

use svt_core::SwitchMode;
use svt_workloads::{run, RunSpec, Serve, SmpPoint};

fn memcached_point(mode: SwitchMode, rate_qps: f64, requests: u64) -> SmpPoint {
    run(
        &RunSpec::new(Serve::Memcached { rate_qps, requests }, mode),
        (),
    )
    .0
    .point
}

fn main() {
    for mode in [SwitchMode::Baseline, SwitchMode::SwSvt] {
        let p = memcached_point(mode, 6_000.0, 300);
        println!(
            "Fig8 {} @6kQPS: tput {:.2}kQPS avg {:.1}us p99 {:.1}us",
            mode.label(),
            p.throughput / 1000.0,
            p.avg_ns / 1000.0,
            p.p99_ns / 1000.0
        );
    }
    svt_bench::bench_wall("fig8/memcached_6kqps_x200", 10, || {
        memcached_point(SwitchMode::Baseline, 6_000.0, 200)
    });
}
