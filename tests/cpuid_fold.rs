//! Pins the cpuid micro-benchmark bit for bit: the Fig. 6 bars on both
//! ISAs, the Table 1 rows, the per-exit attribution and metrics export
//! of the baseline nested run, and the trap counts the self-benchmark
//! divides by. The constants were captured from the per-variant runners
//! that `run_cpuid`/`fig6_grid` replaced, so any drift in the folded
//! runner shows up here as a changed bit pattern.

use svt::arch::ArchId;
use svt::core::SwitchMode;
use svt::hv::Level;
use svt::sim::snapshot::Fingerprint;
use svt::workloads::{fig6_grid, run_cpuid, CpuidSpec};

const ITERS: u64 = 20;

/// (label, time_us bits, speedup bits) per bar, x86 then riscv.
const X86_BARS: [(&str, u64, u64); 5] = [
    ("L0", 0x3fa999999999999a, 0x3ff0000000000000),
    ("L1", 0x4000eb851eb851eb, 0x3ff0000000000000),
    ("L2", 0x4024cccccccccccd, 0x3ff0000000000000),
    ("SW SVt", 0x4020c28f5c28f5c2, 0x3ff3db575eb3a0b1),
    ("HW SVt", 0x4015d1eb851eb852, 0x3ffe810e503fd2f3),
];
const RISCV_BARS: [(&str, u64, u64); 5] = [
    ("L0", 0x3fa47ae147ae147b, 0x3ff0000000000000),
    ("L1", 0x3fff020c49ba5e35, 0x3ff0000000000000),
    ("L2", 0x402f9d2f1a9fbe76, 0x3ff0000000000000),
    ("SW SVt", 0x4024e5e353f7ced9, 0x3ff83454f740e67e),
    ("HW SVt", 0x401a189374bc6a7e, 0x400362196d667e83),
];

/// (part, label, time_us bits, percent bits, paper_us bits).
const TABLE1: [(usize, &str, u64, u64, u64); 6] = [
    (
        0,
        "L2",
        0x3fa999999999999a,
        0x3fdec4ec4ec4ec4f,
        0x3fa999999999999a,
    ),
    (
        1,
        "Switch L2<->L0",
        0x3fe9eb851eb851eb,
        0x401f276276276276,
        0x3fe9eb851eb851ec,
    ),
    (
        2,
        "Transform vmcs02/vmcs12",
        0x3ff4a3d70a3d70a4,
        0x4028cec4ec4ec4ec,
        0x3ff4a3d70a3d70a4,
    ),
    (
        3,
        "L0 handler",
        0x40138f5c28f5c28f,
        0x4047827627627627,
        0x40138f5c28f5c28f,
    ),
    (
        4,
        "Switch L0<->L1",
        0x3ff6666666666666,
        0x402aec4ec4ec4ec5,
        0x3ff6666666666666,
    ),
    (
        5,
        "L1 handler",
        0x3fff5c28f5c28f5d,
        0x4032d89d89d89d8a,
        0x3fff5c28f5c28f5c,
    ),
];

/// (reason, time_ns bits, count) of the baseline nested run.
const EXITS: [(&str, u64, u64); 1] = [("CPUID", 0x410944c000000000, 20)];

/// FNV fold of the baseline nested run's pretty-printed metrics export.
const METRICS_FP: u64 = 0x7345fc347e1702f2;

/// Traps served per Fig. 6 cell (warm-up included), in bar order.
const TRAPS: [u64; 5] = [0, 21, 21, 21, 21];

const CELLS: [(Level, SwitchMode); 5] = [
    (Level::L0, SwitchMode::Baseline),
    (Level::L1, SwitchMode::Baseline),
    (Level::L2, SwitchMode::Baseline),
    (Level::L2, SwitchMode::SwSvt),
    (Level::L2, SwitchMode::HwSvt),
];

fn spec(level: Level, mode: SwitchMode, arch: ArchId) -> CpuidSpec {
    CpuidSpec {
        level,
        mode,
        arch,
        iters: ITERS,
    }
}

#[test]
fn fig6_bars_are_pinned_on_both_isas() {
    for (arch, pinned) in [(ArchId::X86, X86_BARS), (ArchId::Riscv, RISCV_BARS)] {
        let bars = fig6_grid(arch, ITERS, 2, None).bars;
        assert_eq!(bars.len(), pinned.len());
        for (b, &(label, time, speedup)) in bars.iter().zip(&pinned) {
            assert_eq!(b.label, label, "{arch:?}");
            assert_eq!(b.time_us.to_bits(), time, "{arch:?} {label} time");
            assert_eq!(b.speedup.to_bits(), speedup, "{arch:?} {label} speedup");
        }
        // Each bar is exactly the single run of its spec.
        for (b, &(level, mode)) in bars.iter().zip(&CELLS) {
            assert_eq!(b.time_us, run_cpuid(&spec(level, mode, arch)).us());
        }
    }
}

#[test]
fn table1_rows_and_exit_attribution_are_pinned() {
    let o = run_cpuid(&spec(Level::L2, SwitchMode::Baseline, ArchId::X86));
    let rows = o.table1();
    assert_eq!(rows.len(), TABLE1.len());
    for (r, &(part, label, time, percent, paper)) in rows.iter().zip(&TABLE1) {
        assert_eq!(r.part, part);
        assert_eq!(r.label, label);
        assert_eq!(r.time_us.to_bits(), time, "{label} time");
        assert_eq!(r.percent.to_bits(), percent, "{label} percent");
        assert_eq!(r.paper_us.to_bits(), paper, "{label} paper");
    }
    let exits: Vec<_> = o
        .exits
        .iter()
        .map(|e| (e.reason, e.time_ns.to_bits(), e.count))
        .collect();
    assert_eq!(exits, EXITS);
    let text = o.metrics.to_json().pretty();
    assert_eq!(
        Fingerprint::new().fold_bytes(text.as_bytes()).value(),
        METRICS_FP
    );

    // The report grid carries the same detail from its baseline bar.
    let grid = fig6_grid(ArchId::X86, ITERS, 1, None);
    assert_eq!(grid.table1, rows);
    assert_eq!(grid.exits, o.exits);
    assert_eq!(grid.metrics.pretty(), text);
}

#[test]
fn trap_counts_include_the_warm_up_iteration() {
    for (&(level, mode), &traps) in CELLS.iter().zip(&TRAPS) {
        let o = run_cpuid(&spec(level, mode, ArchId::X86));
        assert_eq!(o.traps, traps, "{level:?} {mode:?}");
    }
}
