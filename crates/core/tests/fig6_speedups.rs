//! Fig. 6 reproduction tests: cpuid latency under each switch engine.
//!
//! The SVt numbers are *emergent* (never calibrated directly), so the
//! assertions use bands around the paper's 1.23× (SW) and 1.94× (HW)
//! speedups rather than exact values — see DESIGN.md § 5.

use svt_core::{nested_machine, SwitchMode};
use svt_hv::{GuestOp, Machine, OpLoop};
use svt_sim::{CostPart, SimDuration};

fn cpuid_ns(m: &mut Machine, iters: u64) -> f64 {
    let d = m.measure(GuestOp::Cpuid, iters).unwrap();
    d.busy_time().as_ns() / iters as f64
}

#[test]
fn sw_svt_speedup_band() {
    let baseline = cpuid_ns(&mut nested_machine(SwitchMode::Baseline), 50);
    let sw = cpuid_ns(&mut nested_machine(SwitchMode::SwSvt), 50);
    let speedup = baseline / sw;
    assert!(
        (1.15..=1.35).contains(&speedup),
        "SW SVt speedup {speedup:.3} (paper: 1.23), sw={sw:.0}ns"
    );
}

#[test]
fn hw_svt_speedup_band() {
    let baseline = cpuid_ns(&mut nested_machine(SwitchMode::Baseline), 50);
    let hw = cpuid_ns(&mut nested_machine(SwitchMode::HwSvt), 50);
    let speedup = baseline / hw;
    assert!(
        (1.8..=2.1).contains(&speedup),
        "HW SVt speedup {speedup:.3} (paper: 1.94), hw={hw:.0}ns"
    );
}

#[test]
fn hw_svt_eliminates_switch_time() {
    let mut m = nested_machine(SwitchMode::HwSvt);
    let d = m.measure(GuestOp::Cpuid, 20).unwrap();
    // Thread stall/resume (40ns) replaces the 810ns/1400ns switches.
    let sw12 = d.part_time(CostPart::SwitchL2L0).as_ns() / 20.0;
    let sw01 = d.part_time(CostPart::SwitchL0L1).as_ns() / 20.0;
    assert!(sw12 < 100.0, "L2<->L0 switch {sw12:.0}ns");
    assert!(sw01 < 100.0, "L0<->L1 switch {sw01:.0}ns");
    // Cross-context register accesses were actually performed.
    assert_eq!(d.counter("ctxtld"), 20);
    assert_eq!(d.counter("ctxtst"), 20 * 4);
}

#[test]
fn sw_svt_replaces_world_switch_with_channel() {
    let mut m = nested_machine(SwitchMode::SwSvt);
    let d = m.measure(GuestOp::Cpuid, 20).unwrap();
    // No L0<->L1 world switches; channel time appears instead.
    assert_eq!(d.part_time(CostPart::SwitchL0L1), SimDuration::ZERO);
    let chan = d.part_time(CostPart::Channel).as_ns() / 20.0;
    assert!(chan > 1_000.0 && chan < 3_000.0, "channel {chan:.0}ns/op");
    // The L2<->L0 path is unchanged from the baseline (same thread).
    let sw12 = d.part_time(CostPart::SwitchL2L0).as_ns() / 20.0;
    assert!((sw12 - 810.0).abs() < 5.0, "L2<->L0 {sw12:.0}ns");
}

#[test]
fn fig6_ordering_native_to_nested() {
    // The five bars of Fig. 6 in order: L0 < L1 < HW SVt < SW SVt < L2.
    use svt_hv::{Level, MachineConfig};
    let l0 = cpuid_ns(
        &mut Machine::baseline(MachineConfig::at_level(Level::L0)),
        20,
    );
    let l1 = cpuid_ns(
        &mut Machine::baseline(MachineConfig::at_level(Level::L1)),
        20,
    );
    let l2 = cpuid_ns(&mut nested_machine(SwitchMode::Baseline), 20);
    let sw = cpuid_ns(&mut nested_machine(SwitchMode::SwSvt), 20);
    let hw = cpuid_ns(&mut nested_machine(SwitchMode::HwSvt), 20);
    assert!(
        l0 < l1 && l1 < hw && hw < sw && sw < l2,
        "{l0} {l1} {hw} {sw} {l2}"
    );
    assert_eq!(l0, 50.0); // the paper's 0.05us native bar
}

#[test]
fn svt_single_effective_thread_invariant() {
    // Under HW SVt only one hardware context ever runs (§ 3.1).
    let mut m = nested_machine(SwitchMode::HwSvt);
    let mut prog = OpLoop::new(GuestOp::Cpuid, 10, 0, SimDuration::ZERO);
    m.run(&mut prog).unwrap();
    assert_eq!(m.core.running_contexts(), 1);
}

#[test]
fn hw_svt_registers_flow_through_shared_prf() {
    use svt_cpu::{CtxId, Gpr};
    let mut m = nested_machine(SwitchMode::HwSvt);
    let mut prog = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut prog).unwrap();
    // L1 wrote the cpuid result into L2's context (ctx2) via ctxtst.
    let expect = svt_hv::cpuid_value(0);
    assert_eq!(m.core.read_gpr(CtxId(2), Gpr::Rax), expect);
    assert_eq!(m.core.read_gpr(CtxId(2), Gpr::Rbx), expect ^ 0x1);
    // The other contexts are untouched.
    assert_eq!(m.core.read_gpr(CtxId(0), Gpr::Rax), 0);
}

#[test]
fn workload_size_shrinks_relative_speedup() {
    // The paper's micro-benchmark surrounds the op with dependent
    // increments; as the surrounding workload grows, the relative benefit
    // of SVt shrinks (Amdahl).
    let inc = SimDuration::from_ns(1);
    let run = |mode, work| {
        let mut m = nested_machine(mode);
        let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
        m.run(&mut warm).unwrap();
        let base = m.clock.snapshot();
        let mut prog = OpLoop::new(GuestOp::Cpuid, 20, work, inc);
        m.run(&mut prog).unwrap();
        m.clock.since_snapshot(&base).busy_time().as_ns()
    };
    let sp_small = run(SwitchMode::Baseline, 0) / run(SwitchMode::HwSvt, 0);
    let sp_large = run(SwitchMode::Baseline, 50_000) / run(SwitchMode::HwSvt, 50_000);
    assert!(sp_small > sp_large, "{sp_small} vs {sp_large}");
    assert!(sp_large > 1.0);
}
