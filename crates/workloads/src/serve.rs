//! The serving experiment: one L2 guest serving requests on per-vCPU
//! virtio lanes through one switch engine (Fig. 8 memcached, Fig. 9
//! TPC-C, the SMP sweep, chaos and telemetry runs).
//!
//! A [`RunSpec`] names the whole experiment — what is served, the
//! engine, the ISA backend, the vCPU count, the request-stream seed and
//! the fault plan — and [`run`] executes it. Each vCPU gets a full
//! private serving lane — its own load-generator NIC (and, for TPC-C, its
//! own virtio-blk WAL device) on its own queue memory and MMIO window,
//! with device completions routed only to that vCPU — plus its own shard
//! of the application (a private [`KvService`] or TPC-C warehouse set, as
//! memcached and most sharded stores deploy on SMP guests). Throughput is
//! the sum over the per-vCPU load generators.
//!
//! What a run records beyond its serving point is chosen by a [`Probe`]:
//! it arms the machine's recorders before the run and reads them back
//! after it, so nothing is armed and then left unread.

use std::cell::RefCell;
use std::rc::Rc;

use svt_arch::ArchId;
use svt_core::{smp_machine_on, SwitchMode};
use svt_hv::{GuestProgram, Machine};
use svt_obs::{folded_stacks, CriticalPath};
use svt_sim::{FaultPlan, SimDuration, SimTime};

use crate::harness::{attach_blk_for, attach_loadgen_for_seeded, DEFAULT_LANE_SEED};
use crate::kvstore::{EtcSource, KvService, KV_WARM_KEYS};
use crate::layout;
use crate::loadgen::{ArrivalMode, LoadStats};
use crate::server::{RrServer, ServerConfig};
use crate::tpcc::{TpccService, TpccSource};

/// What the L2 guest serves on every lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Serve {
    /// Sharded memcached under open-loop ETC load: every lane offers
    /// `rate_qps` until it has issued `requests` requests. Under overload
    /// the RX ring drops requests (as a real NIC does), so the run is
    /// bounded by simulated time, not by a served-request count.
    Memcached {
        /// Offered load per lane, queries/second.
        rate_qps: f64,
        /// Requests each lane issues.
        requests: u64,
    },
    /// Sharded TPC-C: closed-loop clients, every read-write transaction
    /// persisting its WAL record to the lane's virtio-blk device before
    /// replying.
    Tpcc {
        /// Whole TPC-C transactions per lane (each tens of statements on
        /// the wire).
        transactions: u64,
    },
}

/// SQL statements per average TPC-C transaction in the standard mix.
const STATEMENTS_PER_TX: u64 = 34;

/// One serving experiment.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The application and its offered load.
    pub serve: Serve,
    /// The reflection engine.
    pub mode: SwitchMode,
    /// The ISA backend.
    pub arch: ArchId,
    /// vCPUs (and lanes) of the guest.
    pub n_vcpus: usize,
    /// Base seed of the per-lane request streams (lane `v` draws from
    /// `seed + v`).
    pub seed: u64,
    /// The fault plan installed on the machine.
    pub faults: FaultPlan,
}

impl RunSpec {
    /// `serve` under `mode` on one x86 vCPU, with the default request
    /// streams and no faults. Override fields with struct-update syntax.
    pub fn new(serve: Serve, mode: SwitchMode) -> RunSpec {
        RunSpec {
            serve,
            mode,
            arch: ArchId::X86,
            n_vcpus: 1,
            seed: DEFAULT_LANE_SEED,
            faults: FaultPlan::none(),
        }
    }
}

/// Aggregate serving result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpPoint {
    /// vCPUs the guest ran with.
    pub n_vcpus: usize,
    /// Requests (or statements) completed across all lanes.
    pub completed: u64,
    /// Aggregate throughput in completions/second over the union of the
    /// lanes' active windows.
    pub throughput: f64,
    /// Mean end-to-end latency over all lanes, in nanoseconds.
    pub avg_ns: f64,
    /// Worst per-lane 99th-percentile latency, in nanoseconds.
    pub p99_ns: f64,
}

impl SmpPoint {
    /// Serializes the point for campaign checkpoints (bit-exact floats,
    /// see `svt_sim::snapshot`).
    pub fn snap_save(&self, w: &mut svt_sim::SnapWriter) {
        w.usize(self.n_vcpus);
        w.u64(self.completed);
        w.f64(self.throughput);
        w.f64(self.avg_ns);
        w.f64(self.p99_ns);
    }

    /// Decodes a point written by [`SmpPoint::snap_save`].
    ///
    /// # Errors
    ///
    /// Propagates reader errors on truncated or corrupted payloads.
    pub fn snap_load(r: &mut svt_sim::SnapReader<'_>) -> Result<SmpPoint, svt_sim::SnapError> {
        Ok(SmpPoint {
            n_vcpus: r.usize()?,
            completed: r.u64()?,
            throughput: r.f64()?,
            avg_ns: r.f64()?,
            p99_ns: r.f64()?,
        })
    }
}

/// What every run reports, whatever its probe.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The serving-side result.
    pub point: SmpPoint,
    /// Simulated traps served (L2 vm-exits plus L0 direct exits) — the
    /// unit of work the self-benchmarks divide host time by.
    pub traps: u64,
    /// TPC-C transactions committed across all lanes; `None` for
    /// memcached.
    pub committed: Option<u64>,
    /// Seconds from the first request sent to the last reply received.
    window_s: f64,
}

impl RunOutcome {
    /// Committed TPC-C transactions per minute over the measurement
    /// window (Fig. 9); `None` for memcached.
    pub fn tpm(&self) -> Option<f64> {
        self.committed.map(|c| c as f64 / (self.window_s / 60.0))
    }
}

/// What a run records beyond its [`RunOutcome`].
pub trait Probe {
    /// The products read back after the run.
    type Output;

    /// Enables the recorders this probe reads, on the freshly built
    /// machine before any lane is attached.
    fn arm(&self, m: &mut Machine);

    /// Reads the finished machine. `run_smp` has already swept the
    /// causal graph's watchdogs at the end-of-run clock.
    fn harvest(self, m: &mut Machine, out: &RunOutcome) -> Self::Output;
}

/// The plain run: nothing armed, nothing harvested.
impl Probe for () {
    type Output = ();

    fn arm(&self, _: &mut Machine) {}

    fn harvest(self, _: &mut Machine, _: &RunOutcome) {}
}

/// Causal-profiling products of one run: the per-request critical
/// paths extracted from the machine's causal event graph, their folded
/// (FlameGraph-style) rendering, and the watchdog verdicts.
#[derive(Debug, Clone)]
pub struct CausalProfile {
    /// One critical path per completed request, in completion order.
    pub paths: Vec<CriticalPath>,
    /// Folded stacks (`vcpu;LEVEL;phase weight` lines).
    pub folded: String,
    /// `(watchdog name, violation count)` pairs, non-zero entries only.
    pub violations: Vec<(&'static str, u64)>,
    /// Causal events recorded over the run.
    pub events_recorded: u64,
    /// Events evicted by the graph's bounded ring.
    pub events_dropped: u64,
    /// The run's trap-lifecycle spans (for Chrome traces).
    pub spans: Vec<svt_obs::Span>,
    /// Cross-lane causal edges as Chrome flow arrows.
    pub flows: Vec<svt_obs::FlowArrow>,
}

/// Probe arming trap-lifecycle spans and the causal graph; harvests a
/// [`CausalProfile`].
#[derive(Debug, Clone, Copy)]
pub struct ProfileProbe;

impl Probe for ProfileProbe {
    type Output = CausalProfile;

    fn arm(&self, m: &mut Machine) {
        m.obs.spans.enable();
        m.obs.causal.enable();
    }

    fn harvest(self, m: &mut Machine, _: &RunOutcome) -> CausalProfile {
        let paths = m.obs.causal.critical_paths();
        let folded = folded_stacks(&paths);
        let violations = m.obs.causal.violations().filter(|&(_, n)| n > 0).collect();
        CausalProfile {
            paths,
            folded,
            violations,
            events_recorded: m.obs.causal.recorded(),
            events_dropped: m.obs.causal.dropped(),
            spans: m.obs.spans.to_vec(),
            flows: m.obs.causal.flow_arrows(),
        }
    }
}

/// Runs the serving experiment `spec` with `probe` armed. The same spec
/// always produces the same outcome, bit for bit; probes never change
/// simulated behavior.
///
/// # Panics
///
/// Panics if `spec.n_vcpus` is zero or exceeds the machine's physical
/// cores, if the run fails (an injection-survival failure under a fault
/// plan: liveness is part of the contract), or if no lane completes any
/// request.
pub fn run<P: Probe>(spec: &RunSpec, probe: P) -> (RunOutcome, P::Output) {
    let n_vcpus = spec.n_vcpus;
    let mut m = smp_machine_on(spec.mode, spec.arch, n_vcpus);
    m.faults = spec.faults.clone();
    probe.arm(&mut m);
    let cost = m.cost.clone();
    let mut stats = Vec::with_capacity(n_vcpus);
    let mut servers: Vec<RrServer> = Vec::with_capacity(n_vcpus);
    let mut dbs = Vec::new();
    let horizon = match spec.serve {
        Serve::Memcached { rate_qps, requests } => {
            let mean = SimDuration::from_ns_f64(1e9 / rate_qps);
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
                    spec.seed,
                ));
                let mut cfg = ServerConfig::rr_on_lane(&cost, u64::MAX, v);
                // memcached batches several requests per interrupt at
                // load; the timer is rearmed less often than per request.
                cfg.timer_rearm_every = 4;
                cfg.replenish_every = 2;
                // One kv shard per vCPU: no cross-vCPU application state.
                servers.push(RrServer::new(cfg, Box::new(KvService::new(KV_WARM_KEYS))));
            }
            SimTime::ZERO
                + SimDuration::from_ns_f64(requests as f64 * mean.as_ns())
                + SimDuration::from_ms(80)
        }
        Serve::Tpcc { transactions } => {
            let statements = transactions * STATEMENTS_PER_TX;
            for v in 0..n_vcpus {
                let source = Box::new(TpccSource::new(4));
                stats.push(attach_loadgen_for_seeded(
                    &mut m,
                    v,
                    ArrivalMode::ClosedLoop {
                        concurrency: 4,
                        think: SimDuration::from_us(15),
                    },
                    statements,
                    source,
                    spec.seed,
                ));
                attach_blk_for(&mut m, v);
                let mut cfg = ServerConfig::rr_on_lane(&cost, statements, v);
                cfg.blk_mmio = Some(layout::lane(v).blk_mmio);
                cfg.timer_rearm_every = 2;
                cfg.replenish_every = 2;
                // One warehouse set per vCPU, as sharded OLTP deployments do.
                let (service, db) = TpccService::new(4);
                dbs.push(db);
                servers.push(RrServer::new(cfg, Box::new(service)));
            }
            SimTime::MAX
        }
    };
    let mut progs: Vec<&mut dyn GuestProgram> = servers
        .iter_mut()
        .map(|s| s as &mut dyn GuestProgram)
        .collect();
    m.run_smp(&mut progs, horizon)
        .expect("serving run completes");
    let (point, window_s) = collect(n_vcpus, &stats);
    let committed = match spec.serve {
        Serve::Memcached { .. } => None,
        Serve::Tpcc { .. } => Some(dbs.iter().map(|db| db.borrow().committed()).sum()),
    };
    let outcome = RunOutcome {
        point,
        traps: m.obs.metrics.counter_total("vm_exit")
            + m.obs.metrics.counter_total("l0_direct_exit"),
        committed,
        window_s,
    };
    let products = probe.harvest(&mut m, &outcome);
    // Guest memory, EPT webs and the application shards are freed after
    // `run_end` closed the machine's profiling window; attribute that to
    // Teardown.
    svt_obs::hostprof::charge_block(svt_obs::HostPart::Teardown, move || {
        drop(servers);
        drop(dbs);
        drop(m);
    });
    (outcome, products)
}

/// Merges the lanes' statistics; also returns the measurement window in
/// seconds (first request sent to last reply received, over all lanes).
fn collect(n_vcpus: usize, stats: &[Rc<RefCell<LoadStats>>]) -> (SmpPoint, f64) {
    let mut completed = 0;
    let mut lat_sum = 0.0;
    let mut p99 = 0.0f64;
    let mut first: Option<SimTime> = None;
    let mut last: Option<SimTime> = None;
    for s in stats {
        let s = s.borrow();
        completed += s.completed;
        lat_sum += s.latency.mean() * s.completed as f64;
        p99 = p99.max(s.latency.p99());
        first = match (first, s.first_send) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        last = match (last, s.last_reply) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
    let span = last
        .expect("replies received")
        .since(first.expect("requests sent"))
        .as_secs();
    assert!(span > 0.0, "degenerate measurement window");
    let point = SmpPoint {
        n_vcpus,
        completed,
        throughput: completed as f64 / span,
        avg_ns: lat_sum / completed as f64,
        p99_ns: p99,
    };
    (point, span)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memcached(mode: SwitchMode, n_vcpus: usize, rate_qps: f64, requests: u64) -> SmpPoint {
        let spec = RunSpec {
            n_vcpus,
            ..RunSpec::new(Serve::Memcached { rate_qps, requests }, mode)
        };
        run(&spec, ()).0.point
    }

    fn tpcc(mode: SwitchMode, n_vcpus: usize, transactions: u64) -> RunOutcome {
        let spec = RunSpec {
            n_vcpus,
            ..RunSpec::new(Serve::Tpcc { transactions }, mode)
        };
        run(&spec, ()).0
    }

    #[test]
    fn low_load_latency_is_flat_and_finite() {
        let p = memcached(SwitchMode::Baseline, 1, 2_000.0, 150);
        assert!(
            p.avg_ns > 50_000.0 && p.avg_ns < 500_000.0,
            "avg {}",
            p.avg_ns
        );
        assert!(p.p99_ns >= p.avg_ns);
        assert!(p.throughput > 1_000.0);
    }

    #[test]
    fn latency_grows_with_load() {
        let low = memcached(SwitchMode::Baseline, 1, 2_000.0, 150);
        let high = memcached(SwitchMode::Baseline, 1, 9_000.0, 400);
        assert!(
            high.avg_ns > low.avg_ns,
            "low {} high {}",
            low.avg_ns,
            high.avg_ns
        );
    }

    #[test]
    fn svt_extends_the_sla_envelope() {
        // At a rate the baseline struggles with, SW SVt shows lower p99.
        let b = memcached(SwitchMode::Baseline, 1, 7_000.0, 300);
        let s = memcached(SwitchMode::SwSvt, 1, 7_000.0, 300);
        assert!(s.p99_ns < b.p99_ns, "baseline {} sw {}", b.p99_ns, s.p99_ns);
    }

    #[test]
    fn memcached_scales_with_vcpus() {
        let mut prev = 0.0;
        for n in [1usize, 2, 4] {
            let p = memcached(SwitchMode::SwSvt, n, 2_000.0, 80);
            assert!(
                p.throughput > prev,
                "{n} vCPUs: {} not above {prev}",
                p.throughput
            );
            prev = p.throughput;
        }
    }

    #[test]
    fn riscv_memcached_runs_all_engines_cleanly() {
        for mode in SwitchMode::ALL {
            let spec = RunSpec {
                arch: ArchId::Riscv,
                n_vcpus: 2,
                ..RunSpec::new(
                    Serve::Memcached {
                        rate_qps: 2_000.0,
                        requests: 40,
                    },
                    mode,
                )
            };
            let (out, prof) = run(&spec, ProfileProbe);
            let p = out.point;
            assert!(p.completed > 0, "{mode}: no requests completed");
            assert!(
                prof.violations.is_empty(),
                "{mode}: watchdogs tripped {:?}",
                prof.violations
            );
        }
    }

    #[test]
    fn tpcc_throughput_in_plausible_band() {
        // Paper baseline: 6.37 ktpm; we target the same order of magnitude.
        let tpm = tpcc(SwitchMode::Baseline, 1, 120).tpm().unwrap();
        assert!(
            (2_000.0..20_000.0).contains(&tpm),
            "baseline TPC-C {tpm} tpm"
        );
    }

    #[test]
    fn sw_svt_improves_tpcc_throughput() {
        let b = tpcc(SwitchMode::Baseline, 1, 120).tpm().unwrap();
        let s = tpcc(SwitchMode::SwSvt, 1, 120).tpm().unwrap();
        assert!(s > b, "baseline {b} sw {s}");
        // Paper: 1.18x; allow a generous emergent band.
        let speedup = s / b;
        assert!((1.02..1.6).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn tpcc_scales_with_vcpus() {
        let one = tpcc(SwitchMode::HwSvt, 1, 30).point;
        let two = tpcc(SwitchMode::HwSvt, 2, 30).point;
        assert!(
            two.throughput > one.throughput,
            "1 vCPU {} vs 2 vCPUs {}",
            one.throughput,
            two.throughput
        );
        assert_eq!(two.completed, 2 * one.completed);
    }
}
