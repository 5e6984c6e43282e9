//! Telemetry runs: serving workloads with the windowed time-series
//! sampler and the flight recorder armed.
//!
//! The runner is the chaos harness with the full observability stack on:
//! causal graph (the flight buffer), timeline sampler at a configurable
//! simulated-time cadence, and the armed flight recorder. Everything the
//! run returns — the serving point, the columnar timeline, the crash
//! dump — is a pure function of `(mode, n_vcpus, rate, requests, seed,
//! fault plan, cadence)`, so timeline reports merge byte-identically
//! across sweep workers exactly like run reports do.

use svt_core::{smp_machine, SwitchMode};
use svt_hv::GuestProgram;
use svt_obs::Json;
use svt_sim::{FaultPlan, SimDuration, SimTime};

use crate::harness::attach_loadgen_for_seeded;
use crate::kvstore::{EtcSource, KvService, KV_WARM_KEYS};
use crate::loadgen::ArrivalMode;
use crate::server::{RrServer, ServerConfig};
use crate::smp::SmpPoint;

/// Knobs of a telemetry run.
#[derive(Debug, Clone)]
pub struct TelemetryOpts {
    /// Timeline window length in simulated time.
    pub cadence: SimDuration,
    /// Per-vCPU causal-tail length in flight dumps.
    pub flight_k: usize,
    /// Trip the flight recorder unconditionally at end of run, capturing
    /// a healthy tail even when nothing went wrong.
    pub dump_on_exit: bool,
}

impl Default for TelemetryOpts {
    fn default() -> Self {
        TelemetryOpts {
            cadence: svt_obs::DEFAULT_TIMELINE_CADENCE,
            flight_k: svt_obs::DEFAULT_FLIGHT_K,
            dump_on_exit: false,
        }
    }
}

/// Everything one telemetry run reports.
#[derive(Debug, Clone)]
pub struct TelemetryPoint {
    /// The serving-side result, as in plain SMP runs.
    pub point: SmpPoint,
    /// Simulated traps served (the self-benchmark's unit of work).
    pub traps: u64,
    /// Windows the timeline emitted.
    pub windows: usize,
    /// The columnar timeline export.
    pub timeline: Json,
    /// The latest flight-recorder dump, if any trip happened.
    pub flight: Option<Json>,
    /// Flight-recorder trips over the run.
    pub flight_trips: u64,
    /// Causal watchdog violations (zero on a healthy run).
    pub watchdog_violations: u64,
    /// Faults the armed plan injected.
    pub total_injected: u64,
    /// Traps served through the classic world-switch fallback.
    pub fallback_traps: u64,
}

/// Sharded memcached under per-vCPU open-loop ETC load with the timeline
/// sampler and flight recorder armed and `plan` installed. Identical
/// load and machine as the chaos runner; only observability differs.
///
/// # Panics
///
/// Panics if `n_vcpus` is zero or exceeds the machine's physical cores,
/// or if no lane completes any request.
pub fn memcached_telemetry(
    mode: SwitchMode,
    n_vcpus: usize,
    rate_qps: f64,
    requests: u64,
    plan: FaultPlan,
    opts: &TelemetryOpts,
) -> TelemetryPoint {
    let mean = SimDuration::from_ns_f64(1e9 / rate_qps);
    let mut m = smp_machine(mode, n_vcpus);
    m.faults = plan;
    m.obs.causal.enable();
    m.obs.timeline.enable_with(opts.cadence);
    m.obs.flight.enable_with(opts.flight_k);
    let cost = m.cost.clone();
    let mut stats = Vec::with_capacity(n_vcpus);
    let mut servers: Vec<RrServer> = Vec::with_capacity(n_vcpus);
    for v in 0..n_vcpus {
        let source = Box::new(EtcSource::new(100_000));
        stats.push(attach_loadgen_for_seeded(
            &mut m,
            v,
            ArrivalMode::OpenLoop {
                mean_interarrival: mean,
            },
            requests,
            source,
            crate::harness::DEFAULT_LANE_SEED,
        ));
        let mut cfg = ServerConfig::rr_on_lane(&cost, u64::MAX, v);
        cfg.timer_rearm_every = 4;
        cfg.replenish_every = 2;
        servers.push(RrServer::new(cfg, Box::new(KvService::new(KV_WARM_KEYS))));
    }
    let horizon = SimTime::ZERO
        + SimDuration::from_ns_f64(requests as f64 * mean.as_ns())
        + SimDuration::from_ms(80);
    let mut progs: Vec<&mut dyn GuestProgram> = servers
        .iter_mut()
        .map(|s| s as &mut dyn GuestProgram)
        .collect();
    m.run_smp(&mut progs, horizon)
        .expect("telemetry run completes");
    if opts.dump_on_exit {
        let now = (0..n_vcpus)
            .map(|i| m.local_now(i))
            .max()
            .unwrap_or(SimTime::ZERO);
        m.obs.flight_trip("dump_on_exit", now);
    }
    let point = crate::smp::collect(n_vcpus, &stats);
    TelemetryPoint {
        point,
        traps: m.obs.metrics.counter_total("vm_exit")
            + m.obs.metrics.counter_total("l0_direct_exit"),
        windows: m.obs.timeline.len(),
        timeline: m.obs.timeline.to_json(),
        flight: m.obs.flight.last_dump().cloned(),
        flight_trips: m.obs.flight.trips(),
        watchdog_violations: m.obs.causal.total_violations(),
        total_injected: m.faults.total_injected(),
        fallback_traps: m.obs.metrics.counter_total("svt_trap_fallback"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_run_matches_plain_smp_and_samples_windows() {
        let plain = crate::smp::memcached_smp(SwitchMode::SwSvt, 2, 2_000.0, 60);
        let t = memcached_telemetry(
            SwitchMode::SwSvt,
            2,
            2_000.0,
            60,
            FaultPlan::none(),
            &TelemetryOpts::default(),
        );
        // Observability never changes simulated behavior.
        assert_eq!(t.point, plain);
        assert!(t.windows > 0, "no timeline windows sampled");
        assert_eq!(
            t.timeline.get("windows").and_then(|w| w.as_i64()),
            Some(t.windows as i64)
        );
        // Fault-free run: no dump unless asked for.
        assert_eq!(t.flight_trips, 0);
        assert!(t.flight.is_none());
        assert_eq!(t.watchdog_violations, 0);
    }

    #[test]
    fn dump_on_exit_captures_a_healthy_tail() {
        let t = memcached_telemetry(
            SwitchMode::SwSvt,
            1,
            2_000.0,
            40,
            FaultPlan::none(),
            &TelemetryOpts {
                dump_on_exit: true,
                ..TelemetryOpts::default()
            },
        );
        assert_eq!(t.flight_trips, 1);
        let dump = t.flight.expect("dump-on-exit produced a dump");
        assert_eq!(dump.get("reason").unwrap().as_str(), Some("dump_on_exit"));
        let vcpus = dump.get("vcpus").unwrap().as_arr().unwrap();
        assert!(!vcpus.is_empty());
        assert!(!vcpus[0].get("events").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn forced_fallback_trips_the_recorder_with_tails() {
        // The chaos smoke's committed operating point: rate 0.05 at this
        // seed drives the policy into FallenBack.
        let t = memcached_telemetry(
            SwitchMode::SwSvt,
            2,
            2_000.0,
            60,
            FaultPlan::uniform(0xC4A0_5EED, 0.05),
            &TelemetryOpts::default(),
        );
        assert!(t.total_injected > 0);
        assert!(t.flight_trips > 0, "no forced-fallback trip");
        let dump = t.flight.expect("trip produced a dump");
        assert_eq!(
            dump.get("reason").unwrap().as_str(),
            Some("forced_fallback")
        );
        let k = dump.get("k").unwrap().as_i64().unwrap() as usize;
        let vcpus = dump.get("vcpus").unwrap().as_arr().unwrap();
        let mut any_events = false;
        for lane in vcpus {
            let events = lane.get("events").unwrap().as_arr().unwrap();
            assert!(events.len() <= k);
            any_events |= !events.is_empty();
        }
        assert!(any_events, "dump carries no causal tail");
    }

    #[test]
    fn identical_configs_produce_identical_timelines() {
        let run = || {
            memcached_telemetry(
                SwitchMode::SwSvt,
                2,
                2_000.0,
                60,
                FaultPlan::uniform(7, 0.05),
                &TelemetryOpts::default(),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.timeline.pretty(), b.timeline.pretty());
        assert_eq!(a.flight.map(|j| j.pretty()), b.flight.map(|j| j.pretty()));
    }
}
