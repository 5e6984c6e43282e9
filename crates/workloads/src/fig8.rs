//! Fig. 8 runner: memcached under Facebook's ETC workload.
//!
//! Open-loop load sweep against the in-guest key-value store; reports
//! average and 99th-percentile latency per offered rate, from which the
//! 500 µs-SLA throughput crossover is derived.

use svt_core::SwitchMode;
use svt_stats::{SweepPoint, SweepSeries};

use crate::serve::{run, RunSpec, Serve};

/// The SLA used in the paper (500 µs on the 99th percentile).
pub const SLA_NS: f64 = 500_000.0;

/// Sweeps offered load on one vCPU and returns the latency curve;
/// `seed` is the request-stream seed of every point.
pub fn fig8_series(mode: SwitchMode, rates_kqps: &[f64], requests: u64, seed: u64) -> SweepSeries {
    let mut series = SweepSeries::new(mode.label());
    for &r in rates_kqps {
        let rate_qps = r * 1000.0;
        let spec = RunSpec {
            seed,
            ..RunSpec::new(Serve::Memcached { rate_qps, requests }, mode)
        };
        // Dropped requests never complete; the point may therefore count
        // slightly fewer than `requests`. Use what completed.
        let p = run(&spec, ()).0.point;
        series.push(SweepPoint {
            load: rate_qps,
            throughput: p.throughput,
            avg_ns: p.avg_ns,
            p99_ns: p.p99_ns,
        });
    }
    series
}

/// The default sweep of the paper's Fig. 8 x-axis (2–22.5 kQPS), with
/// finer resolution around the SLA knee.
pub fn default_rates() -> Vec<f64> {
    vec![
        2.0, 4.0, 5.0, 6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.5,
    ]
}
