//! One-page digest: every headline number of the paper next to this
//! reproduction's measurement. Uses reduced iteration counts; the
//! per-figure binaries produce the full-fidelity versions.

use svt_arch::ArchId;
use svt_bench::{
    cost_model_json, hostprof_begin, hostprof_finish, machine_json, print_header, rule, BenchCli,
};
use svt_core::SwitchMode;
use svt_hv::Level;
use svt_obs::{Json, RunReport, SpeedupRow};
use svt_sim::CostModel;
use svt_workloads::{run, CpuidSpec, RunSpec, Serve};

fn main() {
    let cli = BenchCli::parse();
    cli.handle_help("svt-bench summary [--json r.json] [--hostprof] [--seed n]");
    hostprof_begin(&cli);
    cli.require_arch_x86("summary");
    let seed = cli.seed_or(svt_workloads::DEFAULT_LANE_SEED);
    print_header("SVt reproduction - headline summary (quick settings)");
    let mut report = RunReport::new("summary", "Headline summary (quick settings)");
    report.machine = Some(machine_json());
    report.cost_model = Some(cost_model_json(&CostModel::default()));
    report.results.push(("seed".to_string(), Json::from(seed)));

    // Table 1 / Fig. 6.
    let grid = svt_workloads::fig6_grid(ArchId::X86, 50, 1, None);
    let t1: f64 = grid.table1.iter().map(|r| r.time_us).sum();
    let bars = grid.bars;
    println!("Table 1  nested cpuid total        paper 10.40us   measured {t1:.2}us");
    report
        .results
        .push(("table1_total_us".to_string(), Json::Num(t1)));
    for b in &bars {
        if b.label == "SW SVt" || b.label == "HW SVt" {
            let paper = if b.label == "SW SVt" { 1.23 } else { 1.94 };
            println!(
                "Fig. 6   {:<8} cpuid speedup     paper {paper:.2}x     measured {:.2}x",
                b.label, b.speedup
            );
            report.speedups.push(SpeedupRow {
                name: if b.label == "SW SVt" {
                    "fig6/sw_svt".to_string()
                } else {
                    "fig6/hw_svt".to_string()
                },
                speedup: b.speedup,
            });
        }
    }
    rule();

    // Fig. 7 (scaled down).
    for r in svt_workloads::fig7(8) {
        println!(
            "Fig. 7   {:<22} paper {:>8.0} {:<5} SW {:.2}x/{:.2}x  HW {:.2}x/{:.2}x  base {:.0}",
            r.name, r.paper.0, r.unit, r.sw_speedup, r.paper.1, r.hw_speedup, r.paper.2, r.baseline
        );
        report.speedups.push(SpeedupRow {
            name: format!("fig7/{}/sw_svt", r.name),
            speedup: r.sw_speedup,
        });
        report.speedups.push(SpeedupRow {
            name: format!("fig7/{}/hw_svt", r.name),
            speedup: r.hw_speedup,
        });
    }
    rule();

    // Fig. 8 at one moderate load point.
    let outcome = |serve, mode| {
        let spec = RunSpec {
            seed,
            ..RunSpec::new(serve, mode)
        };
        run(&spec, ()).0
    };
    let memcached = Serve::Memcached {
        rate_qps: 10_000.0,
        requests: 400,
    };
    let b = outcome(memcached, SwitchMode::Baseline).point;
    let s = outcome(memcached, SwitchMode::SwSvt).point;
    println!(
        "Fig. 8   avg latency @10kQPS       paper 1.43x     measured {:.2}x ({:.0}us -> {:.0}us)",
        b.avg_ns / s.avg_ns,
        b.avg_ns / 1000.0,
        s.avg_ns / 1000.0
    );
    report.speedups.push(SpeedupRow {
        name: "fig8/avg_latency_10kqps".to_string(),
        speedup: b.avg_ns / s.avg_ns,
    });

    // Fig. 9.
    let tpcc = Serve::Tpcc { transactions: 60 };
    let tb = outcome(tpcc, SwitchMode::Baseline)
        .tpm()
        .expect("TPC-C reports tpm");
    let ts = outcome(tpcc, SwitchMode::SwSvt)
        .tpm()
        .expect("TPC-C reports tpm");
    println!(
        "Fig. 9   TPC-C speedup             paper 1.18x     measured {:.2}x ({tb:.0} -> {ts:.0} tpm)",
        ts / tb
    );
    report.speedups.push(SpeedupRow {
        name: "fig9/tpcc".to_string(),
        speedup: ts / tb,
    });

    // Fig. 10 at 120 FPS, 60s scaled.
    let vb = svt_workloads::video_playback(SwitchMode::Baseline, 120, 60);
    let vs = svt_workloads::video_playback(SwitchMode::SwSvt, 120, 60);
    println!(
        "Fig. 10  drops @120FPS (5min est)  paper 40 / 26   measured {} / {}",
        vb.dropped * 5,
        vs.dropped * 5
    );
    report.results.push((
        "fig10_drops_120fps".to_string(),
        Json::obj([
            ("baseline", Json::from(vb.dropped * 5)),
            ("sw_svt", Json::from(vs.dropped * 5)),
        ]),
    ));
    rule();
    let cpuid_us = |level| {
        let spec = CpuidSpec {
            level,
            mode: SwitchMode::Baseline,
            arch: ArchId::X86,
            iters: 20,
        };
        svt_workloads::run_cpuid(&spec).us()
    };
    let (l0, l1, l2) = (
        cpuid_us(Level::L0),
        cpuid_us(Level::L1),
        cpuid_us(Level::L2),
    );
    println!("Native L0 cpuid {l0:.2}us | single-level L1 {l1:.2}us | nested L2 {l2:.2}us");
    report.results.push((
        "cpuid_us_by_level".to_string(),
        Json::obj([
            ("l0", Json::Num(l0)),
            ("l1", Json::Num(l1)),
            ("l2", Json::Num(l2)),
        ]),
    ));
    println!("See EXPERIMENTS.md for full-fidelity runs and the deviation discussion.");
    hostprof_finish(&cli, &mut report);
    cli.emit_report(&report);
}
