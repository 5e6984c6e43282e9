//! Pins the serving figures bit for bit: Fig. 8's memcached points and
//! Fig. 9's TPC-C throughput, for every engine, as `f64::to_bits`.
//!
//! The constants were captured from the single-vCPU runners that `run`
//! replaced (`memcached_point` and `tpcc_tpm`); the one-lane serving run
//! must reproduce them exactly. A changed constant is a changed
//! simulation, never a rounding detail.

use svt::core::SwitchMode;
use svt::workloads::{run, RunSpec, Serve};

/// `(mode, rate_qps, requests, [throughput, avg_ns, p99_ns] bits)`.
const MEMCACHED: [(SwitchMode, f64, u64, [u64; 3]); 6] = [
    (
        SwitchMode::Baseline,
        2_000.0,
        150,
        [0x409e5febe0f1cb46, 0x40f96d3d1eb851e9, 0x4105f75ccccccccd],
    ),
    (
        SwitchMode::Baseline,
        7_000.0,
        300,
        [0x40b82c533e854da6, 0x4102cf9041893748, 0x411b808666666666],
    ),
    (
        SwitchMode::SwSvt,
        2_000.0,
        150,
        [0x409e641d9f0207ee, 0x40f6ec24bc6a7ef8, 0x4103eb119999999a],
    ),
    (
        SwitchMode::SwSvt,
        7_000.0,
        300,
        [0x40b869db90b51403, 0x40fff772c083126a, 0x41144a2266666666],
    ),
    (
        SwitchMode::HwSvt,
        2_000.0,
        150,
        [0x409e7a7115662022, 0x40ef797a9fbe76c9, 0x40f60fb000000000],
    ),
    (
        SwitchMode::HwSvt,
        7_000.0,
        300,
        [0x40b8fdcb451553fc, 0x40f246dbd9c54a66, 0x41022b5ccccccccd],
    ),
];

/// `(mode, tpm bits)` at 60 transactions.
const TPCC_60: [(SwitchMode, u64); 3] = [
    (SwitchMode::Baseline, 0x40c37282e106024a),
    (SwitchMode::SwSvt, 0x40c5139a188a36de),
    (SwitchMode::HwSvt, 0x40cdae9bcde30a87),
];

#[test]
fn memcached_points_are_pinned_bit_for_bit() {
    for (mode, rate, requests, want) in MEMCACHED {
        let spec = RunSpec::new(
            Serve::Memcached {
                rate_qps: rate,
                requests,
            },
            mode,
        );
        let p = run(&spec, ()).0.point;
        let got = [
            p.throughput.to_bits(),
            p.avg_ns.to_bits(),
            p.p99_ns.to_bits(),
        ];
        assert_eq!(got, want, "{mode} @ {rate} qps x {requests}");
    }
}

#[test]
fn tpcc_tpm_is_pinned_bit_for_bit() {
    for (mode, want) in TPCC_60 {
        let spec = RunSpec::new(Serve::Tpcc { transactions: 60 }, mode);
        let got = run(&spec, ()).0.tpm().expect("TPC-C reports tpm").to_bits();
        assert_eq!(got, want, "{mode}: {} tpm", f64::from_bits(got));
    }
}
