//! selfperf: wall-clock self-benchmark of the simulator itself.
//!
//! The other binaries report *simulated* time; this one reports how fast
//! the *host* regenerates it. Three representative workloads — the
//! single-vCPU Fig. 6 cpuid grid, the 4-vCPU SMP serving sweep, and the
//! fault-injection chaos grid — each run twice through the parallel
//! sweep engine, at `--jobs 1` and at the per-workload worker count
//! (the `--jobs` request clamped to the grid's cell count, so a 3-cell
//! grid never reports an oversubscribed "speedup"), and the report
//! carries host events/second and nanoseconds/event for both, plus the
//! parallel speedup. The unit of work is the simulated trap (L2
//! vm-exits plus L0 direct exits), counted identically at every worker
//! count — the two passes must agree exactly, and the binary asserts
//! that they do.
//!
//! `BENCH_selfperf.json` in the repo root is a committed reference run
//! (release build); `scripts/ci.sh` smoke-checks the schema and the
//! speedup band against the host's actual parallelism, since wall-clock
//! numbers themselves are host-dependent, and the `perfgate` binary
//! diffs fresh runs against it with explicit noise bands.
//!
//! The measurement machinery lives in `svt_bench::selfperf_rows` so the
//! gate re-runs exactly the grids the baseline was produced from.

use svt_bench::{
    guard, hostprof_begin, hostprof_finish, print_header, rule, selfperf_report, selfperf_rows,
    BenchCli,
};
use svt_workloads::DEFAULT_LANE_SEED;

fn main() {
    let cli = BenchCli::parse();
    cli.handle_help(
        "svt-bench selfperf [--smoke] [--json r.json] [--hostprof] [--seed n] [--jobs n] \
         [--checkpoint-dir d] [--resume]",
    );
    guard::install(&cli, "selfperf");
    hostprof_begin(&cli);
    cli.require_arch_x86("selfperf");
    let smoke = cli.flag("--smoke");
    let seed = cli.seed_or(DEFAULT_LANE_SEED);
    let jobs_n = cli.jobs();
    let host = svt_sim::host_parallelism();

    print_header("selfperf - wall-clock cost of regenerating the simulation");
    println!("host parallelism {host}, comparing --jobs 1 vs --jobs {jobs_n} (clamped per grid)");
    rule();

    let ckpt = cli.checkpoint();
    let rows = selfperf_rows(smoke, seed, cli.jobs, ckpt.as_ref());

    println!(
        "{:<10}{:>6}{:>6}{:>9}{:>13}{:>13}{:>12}{:>11}{:>9}",
        "workload",
        "cells",
        "jobs",
        "traps",
        "j1 [ms]",
        "jN [ms]",
        "ev/s (jN)",
        "ns/ev(jN)",
        "speedup"
    );
    rule();
    for r in &rows {
        // A speedup ratio only means something when two worker counts
        // actually competed; on a 1-core host (or --jobs 1) the two
        // passes are the same configuration and the ratio is run-to-run
        // noise, so the column says so instead of printing ~1.00x.
        let speedup = if r.speedup_meaningful() {
            format!("{:.2}x", r.speedup())
        } else {
            "n/a".to_string()
        };
        println!(
            "{:<10}{:>6}{:>6}{:>9}{:>13.2}{:>13.2}{:>12.0}{:>11.0}{:>9}",
            r.name,
            r.cells,
            r.jobs,
            r.traps,
            r.wall_ns_j1 / 1e6,
            r.wall_ns_jn / 1e6,
            r.events_per_sec(r.wall_ns_jn),
            r.ns_per_event(r.wall_ns_jn),
            speedup
        );
    }
    rule();
    if rows.iter().any(|r| !r.speedup_meaningful()) {
        println!(
            "speedup n/a: both passes ran one worker (host parallelism 1 or --jobs 1), \
             so the j1/jN ratio measures noise, not parallelism"
        );
    }

    let mut report = selfperf_report(&rows, seed, jobs_n);
    hostprof_finish(&cli, &mut report);
    cli.emit_report(&report);
}
