//! Regenerates Table 1: the time breakdown of one `cpuid` in a nested VM.

use svt_arch::ArchId;
use svt_bench::{
    cost_model_json, hostprof_begin, hostprof_finish, machine_json, print_header, rule, vs_paper,
    BenchCli,
};
use svt_core::SwitchMode;
use svt_hv::Level;
use svt_obs::{Json, PartRow, RunReport};
use svt_sim::CostModel;
use svt_workloads::{run_cpuid, CpuidSpec};

fn main() {
    let cli = BenchCli::parse();
    cli.handle_help("svt-bench table1 [--json r.json] [--hostprof]");
    hostprof_begin(&cli);
    cli.require_arch_x86("table1");
    print_header("Table 1 - cpuid breakdown in a nested VM (baseline)");
    let rows = run_cpuid(&CpuidSpec {
        level: Level::L2,
        mode: SwitchMode::Baseline,
        arch: ArchId::X86,
        iters: 200,
    })
    .table1();
    println!(
        "{:<4}{:<26}{:>34}   {:>7}",
        "Part", "Stage", "Time [us]", "Perc."
    );
    rule();
    let mut total = 0.0;
    let mut paper_total = 0.0;
    for r in &rows {
        println!(
            "{:<4}{:<26}{:>34}   {:>6.2}%",
            r.part,
            r.label,
            vs_paper(r.time_us, r.paper_us),
            r.percent
        );
        total += r.time_us;
        paper_total += r.paper_us;
    }
    rule();
    println!("{:<30}{:>34}", "Total", vs_paper(total, paper_total));

    let mut report = RunReport::new("table1", "cpuid breakdown in a nested VM (Table 1)");
    report.machine = Some(machine_json());
    report.cost_model = Some(cost_model_json(&CostModel::default()));
    // The cpuid micro-benchmark is load-free; the seed is recorded so
    // every bench report carries the same reproducibility field.
    report.results.push((
        "seed".to_string(),
        Json::from(cli.seed_or(svt_workloads::DEFAULT_LANE_SEED)),
    ));
    for r in &rows {
        report.parts.push(PartRow {
            part: r.part as u32,
            label: r.label.clone(),
            time_us: r.time_us,
            paper_us: Some(r.paper_us),
        });
    }
    hostprof_finish(&cli, &mut report);
    cli.emit_report(&report);
}
