//! SMP scaling sweep: sharded memcached throughput over 1..=8 vCPUs.
//!
//! Each vCPU runs on its own physical core with its SVt contexts on the
//! core's SMT sibling, serving its own kv shard from its own virtio lane.
//! The sweep shows that the per-trap savings of SW/HW SVt compound
//! across vCPUs: aggregate throughput stays a roughly constant factor
//! above the baseline at every machine size.
//!
//! The `mode × vCPUs` grid fans across `--jobs` sweep workers and merges
//! in grid order: output is byte-identical at any worker count.
//!
//! Telemetry flags re-run the largest SW-SVt cell, on the `--arch`
//! backend, with the windowed sampler and flight recorder armed:
//! `--timeline <path>` writes its columnar timeline, `--dump <path>`
//! with `--dump-on-exit` writes an end-of-run flight dump (a healthy
//! sweep never trips the recorder on its own).

use svt_arch::ArchId;
use svt_bench::{
    guard, hostprof_begin, hostprof_finish, print_header, rule, smp_report, smp_series, BenchCli,
    SERVE_RATE_QPS, SMP_REQUESTS, SMP_VCPU_COUNTS,
};
use svt_core::SwitchMode;
use svt_workloads::{run, RunSpec, Serve, TelemetryOpts, DEFAULT_LANE_SEED};

fn main() {
    let cli = BenchCli::parse();
    cli.handle_help(
        "svt-bench smp [--json r.json] [--hostprof] [--timeline t.json] [--dump d.json] \
         [--dump-on-exit] [--seed n] [--jobs n] [--arch x86|riscv] [--checkpoint-dir d] \
         [--resume]",
    );
    guard::install(&cli, "smp");
    hostprof_begin(&cli);
    let arch = cli.arch();
    let seed = cli.seed_or(DEFAULT_LANE_SEED);
    match arch {
        ArchId::X86 => print_header("SMP scaling - sharded memcached, per-vCPU open-loop load"),
        ArchId::Riscv => {
            print_header("SMP scaling (riscv) - sharded memcached on the H-extension backend")
        }
    }
    let ckpt = cli.checkpoint();
    let series = smp_series(
        arch,
        &SMP_VCPU_COUNTS,
        SERVE_RATE_QPS,
        SMP_REQUESTS,
        seed,
        cli.jobs(),
        ckpt.as_ref(),
    );
    println!(
        "{:<10}{:>8}{:>14}{:>14}{:>12}",
        "System", "vCPUs", "Tput [rps]", "Avg [us]", "p99 [us]"
    );
    rule();
    for (mode, points) in &series {
        for p in points {
            println!(
                "{:<10}{:>8}{:>14.0}{:>14.1}{:>12.1}",
                mode.label(),
                p.n_vcpus,
                p.throughput,
                p.avg_ns / 1000.0,
                p.p99_ns / 1000.0
            );
        }
        rule();
    }
    if cli.timeline.is_some() || cli.dump.is_some() || cli.dump_on_exit() {
        let n_vcpus = *SMP_VCPU_COUNTS.last().unwrap();
        let opts = TelemetryOpts {
            dump_on_exit: cli.dump_on_exit(),
            ..TelemetryOpts::default()
        };
        let spec = RunSpec {
            arch,
            n_vcpus,
            ..RunSpec::new(
                Serve::Memcached {
                    rate_qps: SERVE_RATE_QPS,
                    requests: SMP_REQUESTS,
                },
                SwitchMode::SwSvt,
            )
        };
        let p = run(&spec, opts).1;
        println!(
            "telemetry cell: SW SVt @ {n_vcpus} vCPUs: {} windows, {} flight trip(s)",
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
    let mut report = smp_report(arch, &series, seed);
    hostprof_finish(&cli, &mut report);
    cli.emit_report(&report);
}
