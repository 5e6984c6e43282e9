//! Chaos campaign: serving throughput under deterministic fault injection.
//!
//! Sweeps the fault rate across engines (baseline vs. SW SVt) on the
//! sharded memcached workload. Every cell reports per-kind injection
//! counts, the protocol's recovery work (retransmits, timeouts,
//! duplicate drops), the degradation state machine's transitions and
//! fallback share, and the causal watchdog verdicts — which must all be
//! zero: injected faults may cost time, never correctness.
//!
//! The `engine × rate` grid fans across `--jobs` sweep workers and
//! merges in grid order, so output is byte-identical at any worker
//! count. `--seed <n>` picks the fault plan's seed (default
//! `0xC4A05EED`); `--smoke` runs the two-point CI variant.
//!
//! Telemetry flags re-run the *worst cell* — SW SVt at the campaign's
//! highest fault rate — with the windowed sampler and flight recorder
//! armed: `--timeline <path>` writes that cell's columnar timeline,
//! `--dump <path>` writes its flight-recorder crash dump (forced
//! fallbacks trip it; `--dump-on-exit` guarantees a dump even when the
//! cell never degrades).

use svt_bench::{
    faults_campaign, faults_report, guard, hostprof_begin, hostprof_finish, print_header, rule,
    BenchCli, FAULTS_DEFAULT_SEED, FAULTS_MODES, FAULTS_N_VCPUS, SERVE_RATE_QPS,
};
use svt_core::SwitchMode;
use svt_sim::FaultPlan;
use svt_workloads::{run, RunSpec, Serve, TelemetryOpts};

fn main() {
    let cli = BenchCli::parse();
    cli.handle_help(
        "svt-bench faults [--smoke] [--json r.json] [--hostprof] [--timeline t.json] \
         [--dump d.json] [--dump-on-exit] [--seed n] [--jobs n] [--checkpoint-dir d] [--resume]",
    );
    guard::install(&cli, "faults");
    hostprof_begin(&cli);
    cli.require_arch_x86("faults");
    let smoke = cli.flag("--smoke");
    let seed = cli.seed_or(FAULTS_DEFAULT_SEED);
    let requests: u64 = if smoke { 60 } else { 150 };
    let rates: &[f64] = if smoke {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.01, 0.05, 0.2]
    };

    print_header("Chaos campaign - memcached under deterministic fault injection");
    println!("fault plan seed: {seed:#x}");
    println!(
        "{:<10}{:>7}{:>12}{:>10}{:>9}{:>9}{:>10}{:>11}",
        "System", "rate", "Tput [rps]", "injected", "retries", "timeout", "fallback", "watchdogs"
    );
    rule();

    let ckpt = cli.checkpoint();
    let cells = faults_campaign(
        &FAULTS_MODES,
        rates,
        requests,
        seed,
        cli.jobs(),
        ckpt.as_ref(),
    );
    for chunk in cells.chunks(rates.len()) {
        for c in chunk {
            let p = &c.point;
            println!(
                "{:<10}{:>7.2}{:>12.0}{:>10}{:>9}{:>9}{:>9.1}%{:>11}",
                c.mode.label(),
                c.rate,
                p.point.throughput,
                p.total_injected,
                p.retransmits,
                p.timeouts,
                p.fallback_rate() * 100.0,
                p.watchdog_violations()
            );
        }
        rule();
    }
    if cli.timeline.is_some() || cli.dump.is_some() || cli.dump_on_exit() {
        let rate = rates.last().copied().unwrap_or(0.0);
        let faults = if rate > 0.0 {
            FaultPlan::uniform(seed, rate)
        } else {
            FaultPlan::none()
        };
        let opts = TelemetryOpts {
            dump_on_exit: cli.dump_on_exit(),
            ..TelemetryOpts::default()
        };
        let spec = RunSpec {
            n_vcpus: FAULTS_N_VCPUS,
            faults,
            ..RunSpec::new(
                Serve::Memcached {
                    rate_qps: SERVE_RATE_QPS,
                    requests,
                },
                SwitchMode::SwSvt,
            )
        };
        let p = run(&spec, opts).1;
        println!(
            "telemetry cell: SW SVt @ rate {rate:.2}: {} windows, {} flight trip(s)",
            p.windows, p.flight_trips
        );
        if let Some(path) = &cli.timeline {
            cli.emit_json("timeline export", path, &p.timeline);
        }
        if let Some(path) = &cli.dump {
            let dump = p.flight.clone().unwrap_or(svt_obs::Json::Null);
            cli.emit_json("flight dump", path, &dump);
        }
    }
    let mut report = faults_report(&cells, seed);
    hostprof_finish(&cli, &mut report);
    cli.emit_report(&report);
}
