//! perfgate: the perf-regression gate.
//!
//! Re-runs the selfperf wall-clock grids, the fig6 simulated sweep and
//! the hostprof campaign, then diffs the fresh numbers against the
//! committed `BENCH_*.json` baselines with explicit noise bands:
//!
//! * wall-clock metrics (events/sec, ns/trap, parallel speedup) may
//!   regress up to the `--band` ratio (default 1.8×) before the gate
//!   fails — CI hosts are noisy, but a 2× hot-loop regression always
//!   trips;
//! * simulated fig6 speedups must reproduce within 1e-9 — the
//!   simulation is deterministic, so any larger drift is a behavior
//!   change, not noise;
//! * hostprof allocation counters and trap-shape censuses must match
//!   **exactly** (band 0) — this bin installs the counting allocator,
//!   and allocs/event is deterministic at any `--jobs`, so any drift
//!   means the hot path's allocation behavior changed; hostprof wall
//!   columns get the same noise band as selfperf.
//!
//! Exits nonzero (after printing the per-workload delta table) when any
//! metric leaves its band, so `scripts/ci.sh` can gate on it. `--smoke`
//! shrinks the fresh selfperf grids for CI; the ratios stay comparable
//! because both passes of every ratio come from the same run.

use std::path::PathBuf;
use std::process::exit;

use svt_arch::ArchId;
use svt_bench::{
    delta_table, gate_fig6, gate_hostprof, gate_passes, gate_selfperf, hostprof_campaign,
    hostprof_report, print_header, rule, selfperf_report, selfperf_rows, BenchCli, GateBands,
};
use svt_obs::Json;
use svt_workloads::{fig6_grid, DEFAULT_LANE_SEED};

// The allocation columns the gate holds to exact bands only count with
// the counting allocator installed, exactly as in the hostprof bin that
// produced the committed baseline.
#[global_allocator]
static ALLOC: svt_obs::CountingAlloc = svt_obs::CountingAlloc;

/// Iterations of the fig6 grid — always the full count, matching the
/// committed baseline (the simulated result is iteration-exact).
const FIG6_ITERS: u64 = 200;

/// Requests per lane of the hostprof campaign — always the full count,
/// matching the committed baseline (the alloc counters are
/// request-exact, so a smoke-sized campaign would trip the exact bands).
const HOSTPROF_REQUESTS: u64 = 120;

fn load(what: &str, path: &PathBuf) -> Json {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "error: reading {what} baseline {} failed: {e}",
                path.display()
            );
            exit(1);
        }
    };
    match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!(
                "error: parsing {what} baseline {} failed: {e:?}",
                path.display()
            );
            exit(1);
        }
    }
}

fn main() {
    let cli = BenchCli::parse();
    cli.handle_help(
        "svt-bench perfgate [--smoke] [--band r] [--seed n] [--jobs n] [--json r.json] \
         [selfperf_baseline] [fig6_baseline] [hostprof_baseline]",
    );
    cli.require_arch_x86("perfgate");
    let smoke = cli.flag("--smoke");
    let seed = cli.seed_or(DEFAULT_LANE_SEED);
    let mut bands = GateBands::default();
    if let Some(b) = cli.band {
        bands.max_slowdown = b;
    }
    let selfperf_path = PathBuf::from(cli.positional_or(0, "BENCH_selfperf.json".to_string()));
    let fig6_path = PathBuf::from(cli.positional_or(1, "BENCH_fig6.json".to_string()));
    let hostprof_path = PathBuf::from(cli.positional_or(2, "BENCH_hostprof.json".to_string()));

    print_header("perfgate - fresh run vs committed baselines");
    println!(
        "bands: wall-clock <= {:.2}x, fig6 drift <= {:e}, hostprof allocs/shapes exact",
        bands.max_slowdown, bands.fig6_drift
    );
    println!(
        "baselines: {} + {} + {}",
        selfperf_path.display(),
        fig6_path.display(),
        hostprof_path.display()
    );
    rule();

    let base_selfperf = load("selfperf", &selfperf_path);
    let base_fig6 = load("fig6", &fig6_path);
    let base_hostprof = load("hostprof", &hostprof_path);

    let rows = selfperf_rows(smoke, seed, cli.jobs, None);
    let fresh_selfperf = selfperf_report(&rows, seed, cli.jobs()).to_json();
    let fresh_fig6 =
        svt_bench::fig6_report(&fig6_grid(ArchId::X86, FIG6_ITERS, cli.jobs(), None), seed)
            .to_json();
    let arch = cli.arch();
    let hostprof_run = hostprof_campaign(arch, HOSTPROF_REQUESTS, seed, cli.jobs);
    let fresh_hostprof = hostprof_report(&hostprof_run, arch, seed).to_json();

    let mut deltas = match gate_selfperf(&base_selfperf, &fresh_selfperf, &bands) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    };
    match gate_fig6(&base_fig6, &fresh_fig6, &bands) {
        Ok(d) => deltas.extend(d),
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
    match gate_hostprof(&base_hostprof, &fresh_hostprof, &bands) {
        Ok(d) => deltas.extend(d),
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }

    print!("{}", delta_table(&deltas));
    rule();

    if let Some(path) = &cli.json {
        let doc = Json::obj([
            ("kind", Json::from("svt-perfgate")),
            ("band_max_slowdown", Json::Num(bands.max_slowdown)),
            ("band_fig6_drift", Json::Num(bands.fig6_drift)),
            ("pass", Json::from(gate_passes(&deltas))),
            (
                "deltas",
                Json::Arr(
                    deltas
                        .iter()
                        .map(|d| {
                            Json::obj([
                                ("name", Json::from(d.name.clone())),
                                ("metric", Json::from(d.metric)),
                                ("baseline", Json::Num(d.baseline)),
                                ("fresh", Json::Num(d.fresh)),
                                ("ratio", Json::Num(d.ratio)),
                                ("band", Json::Num(d.band)),
                                ("ok", Json::from(d.ok)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        cli.emit_json("perfgate result", path, &doc);
    }

    if gate_passes(&deltas) {
        println!("perfgate: PASS ({} metrics in band)", deltas.len());
    } else {
        let bad = deltas.iter().filter(|d| !d.ok).count();
        println!("perfgate: FAIL ({bad} metric(s) out of band)");
        exit(1);
    }
}
