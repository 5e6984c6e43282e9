//! Machine-readable run reports.
//!
//! Every `svt-bench` binary emits a [`RunReport`] via `--json <path>`: the
//! simulated machine spec, the cost model, the Table-1 per-part breakdown,
//! per-exit-reason attribution, workload stats and speedups, all in one
//! diffable document. Committed `BENCH_*.json` artifacts are the repo's
//! perf trajectory.

use std::io;
use std::path::Path;

use crate::json::Json;

/// Schema version stamped into every report; bump on breaking layout
/// changes so trajectory tooling can dispatch.
///
/// History: 1 = initial layout; 2 = added the `critical_path` section
/// ([`CriticalPathRow`]); 3 = added the `hostprof` section (host-cost
/// self-profile: per-subsystem wall/alloc attribution + trap shapes).
pub const REPORT_SCHEMA_VERSION: u32 = 3;

/// One row of a per-`CostPart` breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct PartRow {
    /// Part index in paper order (0–5 for the Table 1 rows).
    pub part: u32,
    /// Human label, e.g. `"Switch L2<->L0"`.
    pub label: String,
    /// Measured time in microseconds.
    pub time_us: f64,
    /// The paper's value for this row, if it has one.
    pub paper_us: Option<f64>,
}

/// One per-exit-reason attribution row.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitRow {
    /// Exit-reason name, e.g. `"CPUID"`.
    pub reason: String,
    /// Total time attributed to this reason, nanoseconds.
    pub time_ns: f64,
    /// Number of exits with this reason (0 when only time was attributed).
    pub count: u64,
}

/// One aggregated critical-path bucket: simulated picoseconds the
/// critical paths of completed requests spent in `(vcpu, level, phase)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathRow {
    /// Configuration the row belongs to (e.g. `"baseline"`, `"sw-svt"`).
    pub config: String,
    /// vCPU the bucket ran on.
    pub vcpu: u32,
    /// Virtualization level name (`"L0"`, `"L1"`, `"L2"`, `"machine"`).
    pub level: String,
    /// Phase name, e.g. `"l2_exit"` or `"run"`.
    pub phase: String,
    /// Total critical-path picoseconds attributed to the bucket.
    pub ps: u64,
}

/// One named speedup, e.g. `("sw_svt", 1.25)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Configuration name.
    pub name: String,
    /// Speedup over the baseline (>1 is faster).
    pub speedup: f64,
}

/// A machine-readable run report.
///
/// Built field-by-field by a bench binary, serialized with
/// [`RunReport::to_json`] / [`RunReport::write_file`].
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Bench name, e.g. `"fig6"`.
    pub name: String,
    /// Human title.
    pub title: String,
    /// Simulated machine spec (built by the caller, who owns the type).
    pub machine: Option<Json>,
    /// The cost model's named fields.
    pub cost_model: Option<Json>,
    /// Per-`CostPart` breakdown (Table 1 rows for nested-trap benches).
    pub parts: Vec<PartRow>,
    /// Per-exit-reason time attribution.
    pub exit_reasons: Vec<ExitRow>,
    /// Named speedups over baseline.
    pub speedups: Vec<SpeedupRow>,
    /// Aggregated critical-path buckets from the causal profiler.
    pub critical_path: Vec<CriticalPathRow>,
    /// Workload-specific results (bars, sweep points, grids…).
    pub results: Vec<(String, Json)>,
    /// The metrics registry export, if the bench collected one.
    pub metrics: Option<Json>,
    /// The host-cost self-profile (`--hostprof`), if the bench ran one.
    pub hostprof: Option<Json>,
}

impl RunReport {
    /// A report with just its identity set.
    pub fn new(name: &str, title: &str) -> Self {
        RunReport {
            name: name.to_string(),
            title: title.to_string(),
            ..RunReport::default()
        }
    }

    /// Serializes the full report.
    pub fn to_json(&self) -> Json {
        let parts = self
            .parts
            .iter()
            .map(|p| {
                Json::obj([
                    ("part", Json::from(p.part)),
                    ("label", Json::from(p.label.clone())),
                    ("time_us", Json::Num(p.time_us)),
                    ("paper_us", p.paper_us.map(Json::Num).unwrap_or(Json::Null)),
                ])
            })
            .collect::<Vec<_>>();
        let exits = self
            .exit_reasons
            .iter()
            .map(|e| {
                Json::obj([
                    ("reason", Json::from(e.reason.clone())),
                    ("time_ns", Json::Num(e.time_ns)),
                    ("count", Json::from(e.count)),
                ])
            })
            .collect::<Vec<_>>();
        let speedups = self
            .speedups
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::from(s.name.clone())),
                    ("speedup", Json::Num(s.speedup)),
                ])
            })
            .collect::<Vec<_>>();
        let critical_path = self
            .critical_path
            .iter()
            .map(|c| {
                Json::obj([
                    ("config", Json::from(c.config.clone())),
                    ("vcpu", Json::from(c.vcpu)),
                    ("level", Json::from(c.level.clone())),
                    ("phase", Json::from(c.phase.clone())),
                    ("ps", Json::from(c.ps)),
                ])
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("schema_version", Json::from(REPORT_SCHEMA_VERSION)),
            ("bench", Json::from(self.name.clone())),
            ("title", Json::from(self.title.clone())),
            ("machine", self.machine.clone().unwrap_or(Json::Null)),
            ("cost_model", self.cost_model.clone().unwrap_or(Json::Null)),
            ("parts", Json::Arr(parts)),
            ("exit_reasons", Json::Arr(exits)),
            ("speedups", Json::Arr(speedups)),
            ("critical_path", Json::Arr(critical_path)),
            (
                "results",
                Json::obj(self.results.iter().map(|(k, v)| (k.clone(), v.clone()))),
            ),
            ("metrics", self.metrics.clone().unwrap_or(Json::Null)),
            ("hostprof", self.hostprof.clone().unwrap_or(Json::Null)),
        ])
    }

    /// Writes the report, pretty-printed, to `path` atomically
    /// (write-temp-then-rename, see [`svt_sim::snapshot::atomic_write`]):
    /// a crash or kill mid-write leaves either the old report or the
    /// complete new one, never a torn file.
    pub fn write_file(&self, path: &Path) -> io::Result<()> {
        svt_sim::snapshot::atomic_write(path, self.to_json().pretty().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_all_sections() {
        let mut r = RunReport::new("fig6", "cpuid latency");
        r.machine = Some(Json::obj([("cores", Json::from(8u64))]));
        r.parts.push(PartRow {
            part: 1,
            label: "Switch L2<->L0".into(),
            time_us: 0.81,
            paper_us: Some(0.81),
        });
        r.exit_reasons.push(ExitRow {
            reason: "CPUID".into(),
            time_ns: 10_400.0,
            count: 100,
        });
        r.speedups.push(SpeedupRow {
            name: "hw_svt".into(),
            speedup: 1.9,
        });
        r.critical_path.push(CriticalPathRow {
            config: "sw-svt".into(),
            vcpu: 0,
            level: "L1".into(),
            phase: "l1_handler".into(),
            ps: 123_000,
        });
        r.results
            .push(("bars".into(), Json::arr([Json::Num(10.4)])));
        let j = r.to_json();
        assert_eq!(j.get("bench").unwrap().as_str(), Some("fig6"));
        assert_eq!(
            j.get("schema_version").unwrap().as_i64(),
            Some(REPORT_SCHEMA_VERSION as i64)
        );
        let parts = j.get("parts").unwrap().as_arr().unwrap();
        assert_eq!(parts[0].get("time_us").unwrap().as_f64(), Some(0.81));
        let exits = j.get("exit_reasons").unwrap().as_arr().unwrap();
        assert_eq!(exits[0].get("count").unwrap().as_i64(), Some(100));
        let speedups = j.get("speedups").unwrap().as_arr().unwrap();
        assert_eq!(speedups[0].get("speedup").unwrap().as_f64(), Some(1.9));
        let cp = j.get("critical_path").unwrap().as_arr().unwrap();
        assert_eq!(cp[0].get("phase").unwrap().as_str(), Some("l1_handler"));
        assert_eq!(cp[0].get("ps").unwrap().as_i64(), Some(123_000));
        // Round trip.
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }

    #[test]
    fn write_file_emits_parseable_json() {
        let r = RunReport::new("t", "title");
        let dir = std::env::temp_dir().join("svt-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        r.write_file(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(Json::parse(&text).is_ok());
        std::fs::remove_file(&path).ok();
    }
}
