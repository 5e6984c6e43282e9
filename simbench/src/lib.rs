//! The simulator benchmark: host time, memory and simulated SVt speedups
//! on four workloads, with per-layer attribution.
//!
//! A run repeats its workload's cells in rounds, one cell after another
//! on one thread, until `--seconds` of measuring have passed. Round 0 is
//! the cold round: it sets the reference simulated outputs and its set-up
//! time is reported on its own (`bench.cold_setup_s`). Every later round
//! is timed, and its simulated outputs must equal round 0's bit for bit.
//! See `README.md` beside this package for the metrics and why each
//! workload exists.

mod cell;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use svt_arch::ArchId;
use svt_core::SwitchMode;
use svt_hv::Level;
use svt_obs::{HostAgg, HostPart};

use cell::{Cell, Hist, SimOut, Span, Spans, COUNTS, PARTS};

/// Fig 6 speedups the paper reports for x86 (SW SVt, HW SVt).
const PAPER_SPEEDUP: [f64; 2] = [1.23, 1.94];
/// Bands the x86 cpuid speedups must fall in (SW SVt, HW SVt).
const SPEEDUP_BANDS: [(f64, f64); 2] = [(1.15, 1.35), (1.8, 2.1)];
/// Timed rounds a run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// The Fig 6 cells: L0, L1, L2 baseline, SW SVt, HW SVt.
const FIG6: [(Level, SwitchMode); 5] = [
    (Level::L0, SwitchMode::Baseline),
    (Level::L1, SwitchMode::Baseline),
    (Level::L2, SwitchMode::Baseline),
    (Level::L2, SwitchMode::SwSvt),
    (Level::L2, SwitchMode::HwSvt),
];

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// The five Fig 6 cells of a nested cpuid loop on both ISAs.
    CpuidTrap,
    /// Sharded memcached, 4 vCPUs x 3 engines, open-loop ETC.
    MemcachedEtc,
    /// Sharded TPC-C, 2 vCPUs x 3 engines, WAL on virtio-blk.
    TpccWal,
    /// Memcached, 2 vCPUs x 3 engines, 5% faults, every recorder armed.
    MemcachedChaos,
}

impl Workload {
    /// Every workload.
    const ALL: [Workload; 4] = [
        Workload::CpuidTrap,
        Workload::MemcachedEtc,
        Workload::TpccWal,
        Workload::MemcachedChaos,
    ];

    /// The workload's command-line name.
    fn name(self) -> &'static str {
        match self {
            Workload::CpuidTrap => "cpuid-trap",
            Workload::MemcachedEtc => "memcached-etc",
            Workload::TpccWal => "tpcc-wal",
            Workload::MemcachedChaos => "memcached-chaos",
        }
    }

    /// The workload's cells, in the order a round runs them.
    fn cells(self) -> Vec<Cell> {
        let modes = SwitchMode::ALL;
        match self {
            Workload::CpuidTrap => [ArchId::X86, ArchId::Riscv]
                .into_iter()
                .flat_map(fig6_cells)
                .collect(),
            Workload::MemcachedEtc => modes
                .map(|mode| Cell::Memcached {
                    mode,
                    vcpus: 4,
                    requests: 150,
                    chaos: false,
                })
                .to_vec(),
            Workload::TpccWal => modes
                .map(|mode| Cell::Tpcc {
                    mode,
                    vcpus: 2,
                    transactions: 100,
                })
                .to_vec(),
            Workload::MemcachedChaos => modes
                .map(|mode| Cell::Memcached {
                    mode,
                    vcpus: 2,
                    requests: 100,
                    chaos: true,
                })
                .to_vec(),
        }
    }
}

fn fig6_cells(arch: ArchId) -> Vec<Cell> {
    FIG6.iter()
        .map(|&(level, mode)| Cell::Cpuid { arch, level, mode })
        .collect()
}

/// Command-line arguments of both binaries.
#[derive(Clone, Debug)]
struct Args {
    /// Workload to run.
    workload: Workload,
    /// Seed of the simulated request streams (lane `v` draws from
    /// `seed + v`). cpuid-trap has no random input.
    seed: u64,
    /// Seconds of timed rounds, after the cold round.
    seconds: f64,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s>`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing argument.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or(format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
        })
    }
}

/// Seconds the calibration kernel takes at the reference host speed.
/// Every timed value is rescaled to that speed (see [`Calibrator`]).
const CALIBRATION_REF_S: f64 = 0.6e-3;

/// A fixed CPU kernel that does not touch the simulator: copying 16k
/// integers into a buffer, sorting it, and looking half of them up again
/// by binary search. The
/// host's speed swings by about 1.6x over seconds; the kernel slows down
/// with it, so `CALIBRATION_REF_S / time()` is the factor that turns
/// seconds measured now into seconds at the reference speed. Its buffers
/// are allocated once, before any cell runs, so timing it neither
/// allocates nor depends on the heap a cell leaves behind.
struct Calibrator {
    keys: Vec<u64>,
    sorted: Vec<u64>,
}

impl Calibrator {
    fn new() -> Calibrator {
        let keys: Vec<u64> = (0..1u64 << 14)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 3)
            .collect();
        let sorted = keys.clone();
        Calibrator { keys, sorted }
    }

    /// Seconds one pass of the kernel takes now.
    fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        let found = self
            .keys
            .iter()
            .step_by(2)
            .filter_map(|k| self.sorted.binary_search(k).ok())
            .fold(0usize, usize::wrapping_add);
        std::hint::black_box(found);
        t0.elapsed().as_secs_f64()
    }
}

/// One round: its wall time and spans (rescaled to the reference speed),
/// its raw wall time, and each cell's outcome.
struct Round {
    wall: f64,
    raw_wall: f64,
    spans: Spans,
    outs: Vec<Result<SimOut, String>>,
}

/// Runs every cell once. The calibration kernel runs before the first
/// cell and after each one; a cell's times are rescaled by the mean of
/// the two calibrations around it.
fn run_round(cal: &mut Calibrator, cells: &[Cell], seed: u64) -> Round {
    let mut round = Round {
        wall: 0.0,
        raw_wall: 0.0,
        spans: Spans::default(),
        outs: Vec::with_capacity(cells.len()),
    };
    let mut before = cal.time();
    for &c in cells {
        let mut spans = Spans::default();
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| c.run(seed, &mut spans)))
            .map_err(|p| panic_message(p.as_ref()));
        let wall = t0.elapsed().as_secs_f64();
        let after = cal.time();
        let scale = CALIBRATION_REF_S / ((before + after) / 2.0);
        round.raw_wall += wall;
        round.wall += wall * scale;
        round.spans.add_scaled(&spans, scale);
        round.outs.push(out);
        before = after;
    }
    round
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    let msg = p
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    format!("panicked: {msg}")
}

/// Baseline-relative speedup of `cells[i]` (ratio of the cells' values,
/// oriented so that above 1 means faster than baseline).
fn speedup(cells: &[Cell], outs: &[SimOut], base: usize, i: usize) -> f64 {
    if cells[i].higher_is_better() {
        outs[i].value / outs[base].value
    } else {
        outs[base].value / outs[i].value
    }
}

/// A group's (SW SVt, HW SVt) speedups.
type GroupSpeedups = ((ArchId, Level), [f64; 2]);

/// Speedups of every group of cells (see [`Cell::group`]) that has a
/// baseline, an SW SVt and an HW SVt cell.
fn speedups(cells: &[Cell], outs: &[SimOut]) -> Vec<GroupSpeedups> {
    let find = |group, mode| {
        cells
            .iter()
            .position(|c| c.group() == group && c.mode() == mode)
    };
    let mut groups: Vec<_> = cells.iter().map(|c| c.group()).collect();
    groups.dedup();
    groups
        .into_iter()
        .filter_map(|g| {
            let base = find(g, SwitchMode::Baseline)?;
            let sw = find(g, SwitchMode::SwSvt)?;
            let hw = find(g, SwitchMode::HwSvt)?;
            Some((
                g,
                [
                    speedup(cells, outs, base, sw),
                    speedup(cells, outs, base, hw),
                ],
            ))
        })
        .collect()
}

/// The x86 Fig 6 speedups among `groups`, if the cells are cpuid ones.
fn x86_fig6(cells: &[Cell], groups: &[GroupSpeedups]) -> Option<[f64; 2]> {
    if !matches!(cells.first(), Some(Cell::Cpuid { .. })) {
        return None;
    }
    groups.iter().find(|(g, _)| g.0 == ArchId::X86).map(|g| g.1)
}

/// Cross-cell checks of one round against the reference (round 0)
/// outputs: a cell fails if it erred or panicked, failed an in-cell
/// check, differs from its reference, completed a different count than
/// its baseline, or (x86 cpuid) has a speedup outside its band.
fn check_round(
    cells: &[Cell],
    outs: &[Result<SimOut, String>],
    reference: Option<&[SimOut]>,
) -> Vec<Option<String>> {
    let mut verdicts: Vec<Option<String>> = outs
        .iter()
        .enumerate()
        .map(|(i, o)| match o {
            Err(e) => Some(e.clone()),
            Ok(o) if !o.problems.is_empty() => Some(o.problems.join("; ")),
            Ok(o) if reference.is_some_and(|r| r[i] != *o) => {
                Some("simulated outputs differ from round 0".into())
            }
            Ok(_) => None,
        })
        .collect();
    let Ok(ok) = outs.iter().cloned().collect::<Result<Vec<_>, _>>() else {
        return verdicts;
    };
    for (i, c) in cells.iter().enumerate() {
        let base = cells
            .iter()
            .position(|b| b.group() == c.group() && b.mode() == SwitchMode::Baseline);
        if let Some(base) = base {
            if ok[i].completed != ok[base].completed && verdicts[i].is_none() {
                verdicts[i] = Some(format!(
                    "completed {} but baseline completed {}",
                    ok[i].completed, ok[base].completed
                ));
            }
        }
    }
    if let Some(s) = x86_fig6(cells, &speedups(cells, &ok)) {
        for (k, mode) in [SwitchMode::SwSvt, SwitchMode::HwSvt]
            .into_iter()
            .enumerate()
        {
            let (lo, hi) = SPEEDUP_BANDS[k];
            if !(lo..=hi).contains(&s[k]) {
                let i = cells
                    .iter()
                    .position(|c| c.group() == (ArchId::X86, Level::L2) && c.mode() == mode)
                    .expect("speedups come from existing cells");
                verdicts[i].get_or_insert(format!(
                    "x86 {} speedup {:.4} outside [{lo}, {hi}]",
                    mode.label(),
                    s[k]
                ));
            }
        }
    }
    verdicts
}

/// Largest relative error of the x86 Fig 6 speedups against the paper,
/// in percent.
fn sim_err_pct(x86: [f64; 2]) -> f64 {
    (0..2)
        .map(|k| (x86[k] - PAPER_SPEEDUP[k]).abs() / PAPER_SPEEDUP[k] * 100.0)
        .fold(0.0, f64::max)
}

/// Linear-interpolated quantile of `v` (`q` in [0, 1]).
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`: the statistic every timed metric reports over the
/// calibrated rounds of a run.
fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One metric of the final JSON line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite value is reported
            // as null, which the runner rejects.
            let v = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs the workload named by the command line and prints the report,
/// ending with the one-line JSON result. `traced` selects the per-layer
/// metrics (the caller installs the counting allocator).
pub fn main_with(traced: bool) -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!("usage: simbench --workload <name> --seed <n> --seconds <s>");
            return ExitCode::from(2);
        }
    };
    // Panics are counted as failed cells; keep their messages short.
    std::panic::set_hook(Box::new(|info| eprintln!("simbench: cell {info}")));
    if traced {
        svt_obs::hostprof::set_enabled(true);
    }
    let cells = args.workload.cells();
    let mut cal = Calibrator::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut tally = |verdicts: &[Option<String>], labels: &[String]| {
        attempted += verdicts.len() as u64;
        for (v, label) in verdicts.iter().zip(labels) {
            if let Some(why) = v {
                failed += 1;
                println!("FAILED {label}: {why}");
            }
        }
    };

    let labels: Vec<String> = cells.iter().map(|c| c.label()).collect();
    let cold = run_round(&mut cal, &cells, args.seed);
    tally(&check_round(&cells, &cold.outs, None), &labels);
    // Without a complete cold round there is nothing to compare or report.
    let Ok(reference) = cold.outs.iter().cloned().collect::<Result<Vec<_>, _>>() else {
        println!("{}", json_line(false, attempted, failed, &[]));
        return ExitCode::SUCCESS;
    };
    if traced {
        // Drop the cold round's profile: first-touch faults and lazy
        // initialisation would otherwise land in the per-event columns.
        let _ = svt_obs::hostprof::take_global();
    }

    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let mut r = run_round(&mut cal, &cells, args.seed);
        tally(&check_round(&cells, &r.outs, Some(&reference)), &labels);
        r.outs.clear();
        rounds.push(r);
    }
    let agg = traced.then(svt_obs::hostprof::take_global).flatten();
    let rss = peak_rss_mib();

    // The x86 Fig 6 cells the error metric is computed from. cpuid-trap
    // runs them itself; the other workloads run them once, untimed, after
    // the timed rounds, so that their cold round is the process's first
    // use of the library.
    let anchor = (args.workload != Workload::CpuidTrap).then(|| {
        let cells = fig6_cells(ArchId::X86);
        let round = run_round(&mut cal, &cells, args.seed);
        let labels: Vec<String> = cells.iter().map(|c| c.label()).collect();
        tally(&check_round(&cells, &round.outs, None), &labels);
        (cells, round.outs)
    });

    let traps: u64 = reference.iter().map(SimOut::traps).sum();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall).collect();
    let setups: Vec<f64> = rounds.iter().map(|r| r.spans.setup()).collect();
    let tputs: Vec<f64> = rounds
        .iter()
        .map(|r| traps as f64 / r.spans.get(Span::Run))
        .collect();
    let groups = speedups(&cells, &reference);
    let geo = |k: usize| {
        let logs: f64 = groups.iter().map(|(_, s)| s[k].ln()).sum();
        (logs / groups.len() as f64).exp()
    };
    let x86 = match &anchor {
        Some((cells, outs)) => outs
            .iter()
            .cloned()
            .collect::<Result<Vec<_>, _>>()
            .ok()
            .and_then(|o| x86_fig6(cells, &speedups(cells, &o))),
        None => x86_fig6(&cells, &groups),
    };
    let err = x86.map_or(f64::NAN, sim_err_pct);

    print_report(
        &args,
        &cells,
        &reference,
        &groups,
        anchor.is_some(),
        &rounds,
    );
    println!(
        "fail_frac: {} ratio ({failed} of {attempted} cells failed)",
        failed as f64 / attempted.max(1) as f64
    );

    let metrics = if traced {
        layer_metrics(&cold, &rounds, &reference, agg.as_ref())
    } else {
        vec![
            metric("setup_s", median(&setups), "s"),
            metric("wall_s", median(&walls), "s"),
            metric("traps_per_s", median(&tputs), "1/s"),
            metric("peak_rss_mib", rss, "MiB"),
            metric("sim_speedup_sw_svt", geo(0), "x"),
            metric("sim_speedup_hw_svt", geo(1), "x"),
            metric("sim_err_pct", err, "%"),
        ]
    };
    for m in &metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("{}", json_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

fn print_report(
    args: &Args,
    cells: &[Cell],
    outs: &[SimOut],
    groups: &[GroupSpeedups],
    anchored: bool,
    rounds: &[Round],
) {
    println!(
        "workload {} seed {}: {} cells per round, {} timed rounds",
        args.workload.name(),
        args.seed,
        cells.len(),
        rounds.len()
    );
    for (c, o) in cells.iter().zip(outs) {
        println!(
            "  {:<24} value {:>14.6}  completed {:>7}  traps {:>8}",
            c.label(),
            o.value,
            o.completed,
            o.traps()
        );
    }
    for ((arch, _), s) in groups {
        println!(
            "  {} speedup: SW SVt {:.4}x, HW SVt {:.4}x{}",
            arch.label(),
            s[0],
            s[1],
            if *arch == ArchId::X86 && !anchored {
                " (paper: 1.23x, 1.94x)"
            } else {
                " (unvalidated: no paper reference at this configuration)"
            }
        );
    }
    if anchored {
        println!("  sim_err_pct comes from the x86 Fig 6 cells, run once untimed");
    }
    for (what, pick) in [
        ("raw", (|r: &Round| r.raw_wall) as fn(&Round) -> f64),
        ("calibrated", |r: &Round| r.wall),
    ] {
        let v: Vec<f64> = rounds.iter().map(pick).collect();
        println!(
            "  {what} round wall s: min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
            quantile(&v, 0.0),
            quantile(&v, 0.25),
            quantile(&v, 0.5),
            quantile(&v, 0.75),
            quantile(&v, 1.0)
        );
    }
}

fn layer_metrics(
    cold: &Round,
    rounds: &[Round],
    reference: &[SimOut],
    agg: Option<&HostAgg>,
) -> Vec<Metric> {
    let over_rounds = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut out = Vec::new();
    for span in Span::ALL {
        out.push(metric(
            span.metric(),
            over_rounds(&|r| r.spans.get(span)),
            "s",
        ));
    }
    out.push(metric("bench.cold_setup_s", cold.spans.setup(), "s"));
    out.push(metric(
        "bench.span_coverage",
        over_rounds(&|r| r.spans.total() / r.wall),
        "ratio",
    ));
    out.push(metric(
        "bench.host_speed",
        over_rounds(&|r| r.wall / r.raw_wall),
        "ratio",
    ));
    out.push(metric("bench.wall_s", over_rounds(&|r| r.wall), "s"));
    for (k, name) in COUNTS.iter().enumerate() {
        let total: u64 = reference.iter().map(|o| o.counts[k]).sum();
        out.push(metric(*name, total as f64, "count"));
    }
    let traps: u64 = reference.iter().map(SimOut::traps).sum();
    for (k, (_, name)) in PARTS.iter().enumerate() {
        let ps: u64 = reference.iter().map(|o| o.part_ps[k]).sum();
        out.push(metric(
            format!("sim.cost.{name}_ns_per_trap"),
            ps as f64 / 1e3 / traps.max(1) as f64,
            "sim_ns",
        ));
    }
    let mut hist = Hist::default();
    for o in reference {
        hist.merge(&o.trap_hist);
    }
    for (p, name) in [(50.0, "hv.sim_trap_p50_ns"), (99.0, "hv.sim_trap_p99_ns")] {
        let v = hist.percentile(p).map_or(f64::NAN, |ps| ps as f64 / 1e3);
        out.push(metric(name, v, "sim_ns"));
    }
    let Some(agg) = agg else {
        return out;
    };
    let events = agg.events.max(1) as f64;
    // `HostPart::Other` is skipped: no site in the simulator charges it.
    for part in HostPart::ALL.into_iter().filter(|&p| p != HostPart::Other) {
        let i = part as usize;
        out.push(metric(
            format!("hostprof.{}.ns_per_event", part.label()),
            agg.wall_ns[i] as f64 / events,
            "ns",
        ));
        out.push(metric(
            format!("hostprof.{}.allocs_per_event", part.label()),
            agg.allocs[i] as f64 / events,
            "count",
        ));
    }
    out.push(metric(
        "hostprof.bytes_per_event",
        agg.total_bytes() as f64 / events,
        "B",
    ));
    let timed: f64 = rounds.iter().map(|r| r.raw_wall).sum();
    out.push(metric(
        "hostprof.coverage",
        agg.total_wall_ns() as f64 / 1e9 / timed,
        "ratio",
    ));
    out.push(metric(
        "hostprof.distinct_shapes",
        agg.distinct_shapes() as f64,
        "count",
    ));
    out.push(metric("hostprof.repeat_ratio", agg.repeat_ratio(), "ratio"));
    out
}
