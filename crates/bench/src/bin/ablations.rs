//! Ablation benches for the design choices DESIGN.md calls out:
//! VMCS shadowing, the SW-SVt channel wait mechanism and placement, and
//! cross-context register access granularity.

use svt_bench::{
    cost_model_json, hostprof_begin, hostprof_finish, machine_json, print_header, rule, BenchCli,
};
use svt_core::{
    machine_with, BypassReflector, HwSvtReflector, SwSvtReflector, SwitchMode, WaitMode,
};
use svt_hv::{GuestOp, Level, Machine, MachineConfig, OpLoop};
use svt_obs::{Json, RunReport};
use svt_sim::{CostModel, Placement, SimDuration};

fn cpuid_us(m: &mut Machine, iters: u64) -> f64 {
    let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
    m.run(&mut warm).expect("cpuid runs");
    let base = m.clock.snapshot();
    let mut prog = OpLoop::new(GuestOp::Cpuid, iters, 0, SimDuration::ZERO);
    m.run(&mut prog).expect("cpuid runs");
    m.clock.since_snapshot(&base).busy_time().as_us() / iters as f64
}

fn main() {
    let cli = BenchCli::parse();
    cli.handle_help("svt-bench ablations [--json r.json] [--hostprof]");
    hostprof_begin(&cli);
    cli.require_arch_x86("ablations");
    print_header("Ablations");
    let mut sections: Vec<(String, Vec<(String, f64)>)> = Vec::new();

    println!("\n[1] VMCS shadowing (baseline nested cpuid)");
    rule();
    let mut rows = Vec::new();
    for (label, shadowing) in [("shadowing on", true), ("shadowing off", false)] {
        let mut cfg = MachineConfig::at_level(Level::L2);
        cfg.shadowing = shadowing;
        let mut m = Machine::baseline(cfg);
        let us = cpuid_us(&mut m, 100);
        println!("  {label:<16}{us:>10.2} us/cpuid");
        rows.push((label.to_string(), us));
    }
    sections.push(("vmcs_shadowing".to_string(), rows));

    println!("\n[2] SW SVt channel wait mechanism (SMT placement)");
    rule();
    let mut rows = Vec::new();
    for (label, wait) in [
        ("mwait", WaitMode::Mwait),
        ("polling", WaitMode::Poll),
        ("mutex", WaitMode::Mutex),
    ] {
        let cfg = MachineConfig::at_level(Level::L2);
        let r = Box::new(SwSvtReflector::with_channel(wait, Placement::SmtSibling));
        let mut m = Machine::with_reflector(cfg, r);
        let us = cpuid_us(&mut m, 100);
        println!("  {label:<16}{us:>10.2} us/cpuid");
        rows.push((label.to_string(), us));
    }
    sections.push(("channel_wait".to_string(), rows));

    println!("\n[3] SW SVt thread placement (mwait channel)");
    rule();
    let mut rows = Vec::new();
    for p in Placement::ALL_REMOTE {
        let cfg = MachineConfig::at_level(Level::L2);
        let r = Box::new(SwSvtReflector::with_channel(WaitMode::Mwait, p));
        let mut m = Machine::with_reflector(cfg, r);
        let us = cpuid_us(&mut m, 100);
        println!("  {:<16}{us:>10.2} us/cpuid", p.to_string());
        rows.push((p.to_string(), us));
    }
    sections.push(("placement".to_string(), rows));

    println!("\n[4] SVt context multiplexing (3.1: fewer contexts than levels)");
    rule();
    let mut rows = Vec::new();
    for contexts in [3u8, 2] {
        let cfg = MachineConfig::at_level(Level::L2);
        let mut m = Machine::with_reflector(cfg, Box::new(HwSvtReflector::with_contexts(contexts)));
        let us = cpuid_us(&mut m, 100);
        println!("  {contexts} contexts      {us:>10.2} us/cpuid");
        rows.push((format!("{contexts} contexts"), us));
    }
    sections.push(("context_multiplexing".to_string(), rows));

    println!("\n[5] Design-point spectrum (single-level HW .. full nested HW)");
    rule();
    let mut rows = Vec::new();
    for mode in SwitchMode::ALL {
        let mut m = machine_with(mode, MachineConfig::at_level(Level::L2));
        let us = cpuid_us(&mut m, 100);
        println!("  {:<16}{us:>10.2} us/cpuid", mode.label());
        rows.push((mode.label().to_string(), us));
    }
    let cfg = MachineConfig::at_level(Level::L2);
    let mut m = Machine::with_reflector(cfg, Box::new(BypassReflector::new()));
    let us = cpuid_us(&mut m, 100);
    println!(
        "  {:<16}{us:>10.2} us/cpuid   (3.1's level-bypass extension)",
        "Bypass"
    );
    rows.push(("Bypass".to_string(), us));
    sections.push(("design_spectrum".to_string(), rows));

    let mut report = RunReport::new("ablations", "Design-choice ablations (DESIGN.md)");
    report.machine = Some(machine_json());
    report.cost_model = Some(cost_model_json(&CostModel::default()));
    // cpuid ablations are load-free; the seed is recorded so every bench
    // report carries the same reproducibility field.
    report.results.push((
        "seed".to_string(),
        Json::from(cli.seed_or(svt_workloads::DEFAULT_LANE_SEED)),
    ));
    for (name, rows) in sections {
        report.results.push((
            name,
            Json::Arr(
                rows.into_iter()
                    .map(|(label, us)| {
                        Json::obj([("label", Json::from(label)), ("cpuid_us", Json::Num(us))])
                    })
                    .collect(),
            ),
        ));
    }
    hostprof_finish(&cli, &mut report);
    cli.emit_report(&report);
}
