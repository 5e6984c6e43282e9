//! The crash-dump flight recorder.
//!
//! A post-mortem needs the *tail* of a run: what each vCPU was doing in
//! the moments before an invariant watchdog tripped or the degradation
//! policy fell back to world switches. The recorder reuses the causal
//! graph's existing bounded event ring as its flight buffer — the graph
//! already retains the last few thousand events allocation-free, so
//! arming the recorder adds **zero** hot-path recording cost on top of
//! causal tracing. A trip only pays at dump time: it walks the retained
//! ring backwards for the last K events per vCPU, takes the latest
//! protocol state pushed by the reflector, and serializes a structured
//! JSON crash report of those K·vCPUs events.
//!
//! Three things trip it:
//! - an invariant watchdog violation surfacing in the causal graph
//!   (polled by the machine via [`crate::Obs::watch_flight`]),
//! - the degradation policy being forced into `FallenBack`,
//! - `--dump-on-exit` on the bench bins (an unconditional end-of-run
//!   trip, for capturing healthy tails).
//!
//! Dump-file writes never panic: a bad path is recorded in
//! [`FlightRecorder::write_error`] and reported on stderr, and the dump
//! itself stays available in memory via [`FlightRecorder::last_dump`].

use std::path::PathBuf;

use svt_sim::SimTime;

use crate::causal::{CausalEvent, CausalGraph};
use crate::json::Json;
use crate::registry::MetricsRegistry;

/// Default per-vCPU tail length in a dump.
pub const DEFAULT_FLIGHT_K: usize = 32;

/// Latest reflector-pushed protocol state for one vCPU lane.
#[derive(Debug, Clone, Copy)]
struct VcpuProto {
    ring_depth: u32,
    blocked: bool,
    health: &'static str,
}

impl Default for VcpuProto {
    fn default() -> Self {
        VcpuProto {
            ring_depth: 0,
            blocked: false,
            health: "healthy",
        }
    }
}

/// The flight recorder. Lives on [`crate::Obs`]; the machine polls
/// [`crate::Obs::watch_flight`] and the SW-SVt reflector trips it
/// directly on a forced fallback.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    enabled: bool,
    k: usize,
    proto: Vec<VcpuProto>,
    /// Watchdog violations already attributed to a previous trip, so the
    /// poll stays delta-based and a single violation trips exactly once.
    seen_violations: u64,
    trips: u64,
    last_dump: Option<Json>,
    dump_path: Option<PathBuf>,
    write_error: Option<String>,
}

impl FlightRecorder {
    /// A disarmed recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Arms the recorder with the default per-vCPU tail length.
    pub fn enable(&mut self) {
        self.enable_with(DEFAULT_FLIGHT_K);
    }

    /// Arms the recorder keeping the last `k` events per vCPU in dumps.
    pub fn enable_with(&mut self, k: usize) {
        self.enabled = true;
        self.k = k.max(1);
    }

    /// Whether the recorder is armed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Per-vCPU tail length.
    pub fn k(&self) -> usize {
        if self.k == 0 {
            DEFAULT_FLIGHT_K
        } else {
            self.k
        }
    }

    /// Where dumps are written. In-memory dumps still happen without one.
    pub fn set_dump_path(&mut self, path: impl Into<PathBuf>) {
        self.dump_path = Some(path.into());
    }

    /// Latest reflector-pushed protocol state for a lane. Early-returns
    /// on the armed flag.
    pub fn note_protocol(
        &mut self,
        vcpu: u32,
        ring_depth: u32,
        blocked: bool,
        health: &'static str,
    ) {
        if !self.enabled {
            return;
        }
        let i = vcpu as usize;
        if i >= self.proto.len() {
            self.proto.resize_with(i + 1, VcpuProto::default);
        }
        self.proto[i] = VcpuProto {
            ring_depth,
            blocked,
            health,
        };
    }

    /// Number of trips so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// The most recent dump, if any trip happened.
    pub fn last_dump(&self) -> Option<&Json> {
        self.last_dump.as_ref()
    }

    /// The first dump-file write failure, if any.
    pub fn write_error(&self) -> Option<&str> {
        self.write_error.as_deref()
    }

    /// Polls the causal graph for new watchdog violations and trips on
    /// any. Returns whether a dump was produced.
    pub fn watch(&mut self, now: SimTime, causal: &CausalGraph, metrics: &MetricsRegistry) -> bool {
        if !self.enabled {
            return false;
        }
        let total = causal.total_violations();
        if total <= self.seen_violations {
            return false;
        }
        self.seen_violations = total;
        self.trip("watchdog_violation", now, causal, metrics);
        true
    }

    /// Produces a crash dump now: the last K causal events and protocol
    /// state per vCPU, watchdog verdicts, and every counter total. The
    /// dump is kept in memory and, when a dump path is set, written to
    /// disk (write failures are recorded, never panicked on).
    pub fn trip(
        &mut self,
        reason: &str,
        now: SimTime,
        causal: &CausalGraph,
        metrics: &MetricsRegistry,
    ) {
        if !self.enabled {
            return;
        }
        self.trips += 1;
        // Watchdog state observed at trip time is "seen": an exit-time
        // trip after a watchdog trip must not double-report.
        self.seen_violations = self.seen_violations.max(causal.total_violations());
        let k = self.k();
        let tails = lane_tails(causal, k, self.proto.len());
        let vcpus: Vec<Json> = tails
            .into_iter()
            .enumerate()
            .map(|(v, tail)| {
                let proto = self.proto.get(v).copied().unwrap_or_default();
                let events = tail.iter().rev().map(|e| {
                    Json::obj([
                        ("id", Json::from(e.id.raw())),
                        ("phase", Json::from(e.phase)),
                        ("level", Json::from(e.level.name())),
                        ("at_ps", Json::from(e.at.as_ps())),
                        (
                            "preds",
                            Json::arr(e.preds.iter().map(|p| Json::from(p.raw()))),
                        ),
                    ])
                });
                Json::obj([
                    ("vcpu", Json::from(v)),
                    ("health", Json::from(proto.health)),
                    ("ring_depth", Json::from(proto.ring_depth)),
                    ("svt_blocked", Json::from(proto.blocked)),
                    ("events", Json::arr(events)),
                ])
            })
            .collect();
        let watchdogs = causal.violations().map(|(name, n)| (name, Json::from(n)));
        let counters = metrics
            .iter_counters_sorted()
            .map(|(key, n)| (key.to_string(), Json::from(n)));
        let dump = Json::obj([
            ("kind", Json::from("svt-flight-dump")),
            ("reason", Json::from(reason.to_string())),
            ("at_ps", Json::from(now.as_ps())),
            ("trip", Json::from(self.trips)),
            ("k", Json::from(k)),
            ("vcpus", Json::Arr(vcpus)),
            ("watchdogs", Json::obj(watchdogs)),
            (
                "causal",
                Json::obj([
                    ("recorded", Json::from(causal.recorded())),
                    ("dropped", Json::from(causal.dropped())),
                ]),
            ),
            ("counters", Json::obj(counters)),
        ]);
        let text = dump.pretty();
        if let Some(path) = &self.dump_path {
            if let Err(e) = svt_sim::snapshot::atomic_write(path, text.as_bytes()) {
                let msg = format!("flight dump write to {} failed: {e}", path.display());
                eprintln!("svt-obs: {msg}");
                if self.write_error.is_none() {
                    self.write_error = Some(msg);
                }
            }
        }
        publish_text(text);
        self.last_dump = Some(dump);
    }
}

/// Each lane's last `k` retained events, newest first, for lanes
/// `0..max(highest vCPU retained + 1, min_lanes)`. Walks the ring
/// backwards and stops once every lane the graph has seen holds `k`
/// events, so a trip touches O(k·lanes) events however long the ring is;
/// a lane with fewer than `k` retained events makes it walk the whole
/// ring, still without allocating per event.
fn lane_tails(causal: &CausalGraph, k: usize, min_lanes: usize) -> Vec<Vec<&CausalEvent>> {
    let lanes = causal.lanes();
    let mut tails: Vec<Vec<&CausalEvent>> = vec![Vec::new(); lanes];
    let mut full = 0;
    for e in causal.events().rev() {
        let tail = &mut tails[e.vcpu as usize];
        if tail.len() < k {
            tail.push(e);
            if tail.len() == k {
                full += 1;
                if full == lanes {
                    break;
                }
            }
        }
    }
    // Lanes past the highest one with a retained event are dropped unless
    // the protocol state names them.
    let seen = tails
        .iter()
        .rposition(|t| !t.is_empty())
        .map_or(0, |v| v + 1);
    tails.resize_with(seen.max(min_lanes), Vec::new);
    tails
}

/// The most recent flight dump produced by *any* recorder in the
/// process, pre-rendered to JSON text. Crash guards (panic hooks, signal
/// handlers) persist this at exit time — they cannot reach into the
/// machines owned by sweep worker threads, but every trip publishes
/// here.
static LAST_GLOBAL_DUMP: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);

/// Publishes a dump to the process-global last-dump slot (see
/// [`latest_global_dump`]). Called on every trip; harmless to call
/// directly with a synthesized dump.
pub fn publish_global(dump: &Json) {
    publish_text(dump.pretty());
}

fn publish_text(text: String) {
    let mut guard = LAST_GLOBAL_DUMP.lock().unwrap_or_else(|e| e.into_inner());
    *guard = Some(text);
}

/// The most recent flight dump any recorder in the process produced, as
/// pretty-printed JSON text, if any trip has happened.
pub fn latest_global_dump() -> Option<String> {
    LAST_GLOBAL_DUMP
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ObsLevel;

    fn graph_with_events(n: u64) -> CausalGraph {
        let mut g = CausalGraph::new();
        g.enable();
        for i in 0..n {
            g.set_vcpu((i % 2) as u32);
            g.record("vm_exit", ObsLevel::L2, SimTime::from_ns(10 * (i + 1)));
        }
        g
    }

    #[test]
    fn disarmed_recorder_never_dumps() {
        let mut fr = FlightRecorder::new();
        let g = graph_with_events(4);
        let m = MetricsRegistry::new();
        fr.trip("forced_fallback", SimTime::from_us(1), &g, &m);
        assert!(!fr.watch(SimTime::from_us(1), &g, &m));
        assert_eq!(fr.trips(), 0);
        assert!(fr.last_dump().is_none());
    }

    #[test]
    fn trip_captures_last_k_events_per_vcpu() {
        let mut fr = FlightRecorder::new();
        fr.enable_with(3);
        let g = graph_with_events(20);
        let m = MetricsRegistry::new();
        fr.note_protocol(1, 5, true, "fallen_back");
        fr.trip("forced_fallback", SimTime::from_us(2), &g, &m);
        let dump = fr.last_dump().expect("dump produced");
        assert_eq!(
            dump.get("reason").unwrap().as_str(),
            Some("forced_fallback")
        );
        let vcpus = dump.get("vcpus").unwrap().as_arr().unwrap();
        assert_eq!(vcpus.len(), 2);
        for lane in vcpus {
            let events = lane.get("events").unwrap().as_arr().unwrap();
            assert_eq!(events.len(), 3, "tail is exactly K");
        }
        // Tail keeps the *latest* events: vcpu 1 recorded at 20,40,..,200ns,
        // so its tail ends at the graph's final event.
        let last = vcpus[1]
            .get("events")
            .unwrap()
            .as_arr()
            .unwrap()
            .last()
            .unwrap()
            .clone();
        assert_eq!(
            last.get("at_ps").unwrap().as_i64(),
            Some(SimTime::from_ns(200).as_ps() as i64)
        );
        assert_eq!(
            vcpus[1].get("health").unwrap().as_str(),
            Some("fallen_back")
        );
        assert_eq!(vcpus[1].get("ring_depth").unwrap().as_i64(), Some(5));
        // The dump round-trips through the parser.
        assert_eq!(Json::parse(&dump.to_string()).unwrap(), *dump);
    }

    #[test]
    fn watch_trips_once_per_new_violation() {
        let mut fr = FlightRecorder::new();
        fr.enable();
        let g = graph_with_events(2);
        let m = MetricsRegistry::new();
        // No violations yet: silent.
        assert!(!fr.watch(SimTime::from_us(1), &g, &m));
        assert_eq!(fr.trips(), 0);
    }

    #[test]
    fn dump_write_failure_is_reported_not_panicked() {
        let mut fr = FlightRecorder::new();
        fr.enable();
        fr.set_dump_path("/nonexistent-dir/svt-flight.json");
        let g = graph_with_events(2);
        let m = MetricsRegistry::new();
        fr.trip("dump_on_exit", SimTime::from_us(1), &g, &m);
        assert_eq!(fr.trips(), 1);
        assert!(fr.last_dump().is_some());
        assert!(fr.write_error().unwrap().contains("failed"));
    }
}
