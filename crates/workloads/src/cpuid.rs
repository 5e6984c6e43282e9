//! Fig. 6 and Table 1: the cpuid micro-benchmark.
//!
//! One experiment backs both: a cpuid loop at a given level, under a
//! given engine, on a given ISA ([`CpuidSpec`] → [`run_cpuid`]). The
//! bar time, the Table 1 parts and the per-exit attribution are all
//! views of its [`CpuidOutcome`].

use svt_arch::ArchId;
use svt_core::{nested_machine_on, SwitchMode};
use svt_hv::{GuestOp, Level, Machine, MachineConfig};
use svt_obs::{Json, MetricKey, MetricsRegistry, ObsLevel};
use svt_sim::checkpoint::Checkpoint;
use svt_sim::{
    ClockSnapshot, CostPart, SimCounter, SimDuration, SnapError, SnapReader, SnapWriter,
};

/// One cpuid experiment: `iters` measured cpuid iterations at `level`
/// under `mode` on `arch`. On RISC-V the probe instruction traps as a
/// virtual instruction rather than a `cpuid` exit, and the backend's
/// own cost model applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuidSpec {
    /// Virtualization level the loop runs at.
    pub level: Level,
    /// Reflection engine (only meaningful at L2).
    pub mode: SwitchMode,
    /// ISA backend.
    pub arch: ArchId,
    /// Measured iterations (one warm-up iteration runs before them).
    pub iters: u64,
}

/// Everything one cpuid experiment measured.
#[derive(Debug, Clone)]
pub struct CpuidOutcome {
    /// The experiment that ran.
    pub spec: CpuidSpec,
    /// Busy (non-idle) simulated time of the measured loop.
    pub busy: SimDuration,
    /// Simulated traps served, warm-up included (L2 exits plus
    /// single-level exits): the self-benchmark's unit of work.
    pub traps: u64,
    /// Clock attribution of the measured loop (per part, tag, counter).
    pub delta: ClockSnapshot,
    /// Per-exit-reason attribution of the measured loop.
    pub exits: Vec<ExitAttribution>,
    /// Metrics (counters, gauges, histograms) of the measured loop.
    pub metrics: MetricsRegistry,
}

/// Per-exit-reason attribution of a nested cpuid run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitAttribution {
    /// Exit-reason tag, e.g. `"CPUID"`.
    pub reason: &'static str,
    /// Total time attributed to this reason, nanoseconds.
    pub time_ns: f64,
    /// Number of reflected L2 exits with this reason.
    pub count: u64,
}

/// One bar of Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Bar {
    /// Bar label ("L0", "L1", "L2", "SW SVt", "HW SVt").
    pub label: &'static str,
    /// cpuid latency in microseconds.
    pub time_us: f64,
    /// Speedup vs the baseline L2 bar (1.0 for non-SVt bars).
    pub speedup: f64,
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Part index ⓪–⑤.
    pub part: usize,
    /// Row label.
    pub label: String,
    /// Measured time in microseconds.
    pub time_us: f64,
    /// Share of the total.
    pub percent: f64,
    /// The paper's value in microseconds.
    pub paper_us: f64,
}

/// Runs one cpuid experiment on a freshly built machine.
pub fn run_cpuid(spec: &CpuidSpec) -> CpuidOutcome {
    let mut m = if spec.level == Level::L2 {
        nested_machine_on(spec.mode, spec.arch)
    } else {
        Machine::baseline(MachineConfig::at_level_on(spec.level, spec.arch))
    };
    let delta = m
        .measure(GuestOp::Cpuid, spec.iters)
        .expect("cpuid never blocks");
    let reflector = m.reflector_name();
    let exits = delta
        .tags_by_time()
        .into_iter()
        .map(|(tag, t)| ExitAttribution {
            reason: tag,
            time_ns: t.as_ns(),
            count: m.obs.metrics.counter(
                MetricKey::new("vm_exit")
                    .level(ObsLevel::L2)
                    .exit(tag)
                    .reflector(reflector),
            ),
        })
        .collect();
    // cpuid loops attach no devices, so every L2 exit chain is a trap.
    let traps = m.clock.counter(SimCounter::L2ExitChain.name())
        + m.clock.counter(SimCounter::L1DirectExit.name());
    CpuidOutcome {
        spec: *spec,
        busy: delta.busy_time(),
        traps,
        delta,
        exits,
        metrics: std::mem::take(&mut m.obs.metrics),
    }
}

impl CpuidOutcome {
    /// cpuid latency: busy time per measured iteration, µs.
    pub fn us(&self) -> f64 {
        self.busy.as_us() / self.spec.iters as f64
    }

    /// The Table 1 six-part breakdown of one cpuid, against the paper.
    pub fn table1(&self) -> Vec<Table1Row> {
        let d = &self.delta;
        let paper = [0.05, 0.81, 1.29, 4.89, 1.40, 1.96];
        let total: f64 = CostPart::TABLE1
            .iter()
            .map(|p| d.part_time(*p).as_us())
            .sum();
        CostPart::TABLE1
            .iter()
            .enumerate()
            .map(|(i, p)| Table1Row {
                part: i,
                label: p.to_string(),
                time_us: d.part_time(*p).as_us() / self.spec.iters as f64,
                percent: 100.0 * d.part_time(*p).as_us() / total,
                paper_us: paper[i],
            })
            .collect()
    }
}

/// The five Fig. 6 bars in order: label, level, engine. Each is an
/// independent machine configuration, so the figure sweeps cleanly.
pub const FIG6_CELLS: [(&str, Level, SwitchMode); 5] = [
    ("L0", Level::L0, SwitchMode::Baseline),
    ("L1", Level::L1, SwitchMode::Baseline),
    ("L2", Level::L2, SwitchMode::Baseline),
    ("SW SVt", Level::L2, SwitchMode::SwSvt),
    ("HW SVt", Level::L2, SwitchMode::HwSvt),
];

/// The baseline nested bar: the speedup reference, and the run Table 1
/// and the exit attribution describe.
const BASELINE_BAR: usize = 2;

/// Everything the Fig. 6 report carries: the five bars, plus the Table 1
/// breakdown, the per-exit attribution and the metrics export of the
/// baseline nested bar's run.
#[derive(Debug, Clone)]
pub struct Fig6Grid {
    /// The five Fig. 6 bars, in bar order.
    pub bars: Vec<Fig6Bar>,
    /// The Table 1 six-part breakdown of one nested cpuid.
    pub table1: Vec<Table1Row>,
    /// Per-exit-reason attribution of the baseline nested run.
    pub exits: Vec<ExitAttribution>,
    /// The baseline nested run's metrics export (counters, gauges,
    /// histograms).
    pub metrics: Json,
}

/// The report's detail: Table 1 rows, exit attribution, metrics export.
type Detail = (Vec<Table1Row>, Vec<ExitAttribution>, Json);

/// What a grid cell keeps of its outcome: the bar time, and for the
/// baseline nested bar the report's detail.
struct GridCell {
    time_us: f64,
    detail: Option<Box<Detail>>,
}

fn grid_cell_save(c: &GridCell, w: &mut SnapWriter) {
    w.f64(c.time_us);
    w.bool(c.detail.is_some());
    if let Some(detail) = &c.detail {
        let (rows, exits, metrics) = &**detail;
        w.usize(rows.len());
        for row in rows {
            w.usize(row.part);
            w.str(&row.label);
            w.f64(row.time_us);
            w.f64(row.percent);
            w.f64(row.paper_us);
        }
        w.usize(exits.len());
        for e in exits {
            w.str(e.reason);
            w.f64(e.time_ns);
            w.u64(e.count);
        }
        // The metrics export round-trips through its own canonical JSON
        // text (parse(pretty(j)) == j).
        w.str(&metrics.pretty());
    }
}

fn grid_cell_load(r: &mut SnapReader<'_>) -> Result<GridCell, SnapError> {
    let time_us = r.f64()?;
    if !r.bool()? {
        return Ok(GridCell {
            time_us,
            detail: None,
        });
    }
    let len = r.usize()?;
    let mut rows = Vec::with_capacity(len.min(64));
    for _ in 0..len {
        rows.push(Table1Row {
            part: r.usize()?,
            label: r.str()?.to_string(),
            time_us: r.f64()?,
            percent: r.f64()?,
            paper_us: r.f64()?,
        });
    }
    let len = r.usize()?;
    let mut exits = Vec::with_capacity(len.min(64));
    for _ in 0..len {
        exits.push(ExitAttribution {
            reason: svt_sim::snapshot::intern_static(r.str()?),
            time_ns: r.f64()?,
            count: r.u64()?,
        });
    }
    let text = r.str()?;
    let metrics = Json::parse(text).map_err(|_| SnapError::BadValue {
        what: "fig6 metrics JSON",
        got: text.len() as u64,
    })?;
    Ok(GridCell {
        time_us,
        detail: Some(Box::new((rows, exits, metrics))),
    })
}

/// Runs the Fig. 6 grid on `arch`: the five bars at `iters` measured
/// iterations each, fanned across `jobs` sweep workers and merged in bar
/// order, so the grid is byte-identical for every `jobs` value. With a
/// checkpoint, each bar journals under the `fig6` scope, tagged by its
/// [`CpuidSpec`], and a resume replays the bars journaled for exactly
/// these specs.
pub fn fig6_grid(arch: ArchId, iters: u64, jobs: usize, ckpt: Option<&Checkpoint>) -> Fig6Grid {
    let specs = FIG6_CELLS.map(|(_, level, mode)| CpuidSpec {
        level,
        mode,
        arch,
        iters,
    });
    let baseline = specs[BASELINE_BAR];
    let run = |spec: &CpuidSpec| {
        let o = run_cpuid(spec);
        let detail = (*spec == baseline)
            .then(|| Box::new((o.table1(), o.exits.clone(), o.metrics.to_json())));
        GridCell {
            time_us: o.us(),
            detail,
        }
    };
    let mut cells = svt_sim::checkpoint::sweep(
        ckpt,
        "fig6",
        &specs,
        jobs,
        run,
        grid_cell_save,
        grid_cell_load,
    );
    let l2 = cells[BASELINE_BAR].time_us;
    let bars = FIG6_CELLS
        .iter()
        .zip(&cells)
        .map(|(&(label, _, mode), c)| Fig6Bar {
            label,
            time_us: c.time_us,
            speedup: if mode == SwitchMode::Baseline {
                1.0
            } else {
                l2 / c.time_us
            },
        })
        .collect();
    let (table1, exits, metrics) = *cells[BASELINE_BAR]
        .detail
        .take()
        .expect("the baseline nested bar carries the report detail");
    Fig6Grid {
        bars,
        table1,
        exits,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(level: Level, mode: SwitchMode, iters: u64) -> CpuidSpec {
        CpuidSpec {
            level,
            mode,
            arch: ArchId::X86,
            iters,
        }
    }

    #[test]
    fn fig6_bars_ordered() {
        let bars = fig6_grid(ArchId::X86, 20, 1, None).bars;
        assert_eq!(bars.len(), 5);
        assert_eq!(bars[0].label, "L0");
        // L0 < L1 < HW SVt < SW SVt < L2.
        assert!(bars[0].time_us < bars[1].time_us);
        assert!(bars[1].time_us < bars[4].time_us);
        assert!(bars[4].time_us < bars[3].time_us);
        assert!(bars[3].time_us < bars[2].time_us);
        // Speedups within the DESIGN.md bands.
        assert!(
            (1.15..=1.35).contains(&bars[3].speedup),
            "{}",
            bars[3].speedup
        );
        assert!(
            (1.8..=2.1).contains(&bars[4].speedup),
            "{}",
            bars[4].speedup
        );
    }

    #[test]
    fn fig6_grid_matches_sequential_runs_at_any_worker_count() {
        let grid = fig6_grid(ArchId::X86, 20, 4, None);
        for (bar, &(_, level, mode)) in grid.bars.iter().zip(&FIG6_CELLS) {
            assert_eq!(bar.time_us, run_cpuid(&spec(level, mode, 20)).us());
        }
        let o = run_cpuid(&spec(Level::L2, SwitchMode::Baseline, 20));
        assert_eq!(grid.table1, o.table1());
        assert_eq!(grid.exits, o.exits);
        assert_eq!(grid.metrics.pretty(), o.metrics.to_json().pretty());
        assert_eq!(fig6_grid(ArchId::X86, 20, 3, None).bars, grid.bars);
    }

    #[test]
    fn riscv_svt_speedups_exceed_one() {
        // The paper's claim, restated on the H-extension backend: trap
        // elision comes from scheduling, not VT-x specifics. Without
        // shadowing hardware the baseline pays a trap per vs-CSR access,
        // so both SVt engines must clear 1.0.
        let bars = fig6_grid(ArchId::Riscv, 20, 2, None).bars;
        assert_eq!(bars.len(), 5);
        assert!(bars[0].time_us < bars[2].time_us, "L0 beats nested L2");
        assert!(bars[3].speedup > 1.0, "SW SVt {}", bars[3].speedup);
        assert!(bars[4].speedup > 1.0, "HW SVt {}", bars[4].speedup);
    }

    #[test]
    fn table1_matches_paper_within_five_percent() {
        let rows = run_cpuid(&spec(Level::L2, SwitchMode::Baseline, 50)).table1();
        assert_eq!(rows.len(), 6);
        let total: f64 = rows.iter().map(|r| r.time_us).sum();
        assert!((total - 10.4).abs() / 10.4 < 0.02, "total {total}");
        for r in &rows {
            assert!(
                (r.time_us - r.paper_us).abs() / r.paper_us < 0.05,
                "{}: {} vs paper {}",
                r.label,
                r.time_us,
                r.paper_us
            );
        }
        let pct: f64 = rows.iter().map(|r| r.percent).sum();
        assert!((pct - 100.0).abs() < 1e-6);
    }
}
