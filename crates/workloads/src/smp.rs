//! SMP workload runners: sharded memcached and TPC-C on the N-vCPU machine.
//!
//! Each vCPU gets a full private serving lane — its own load-generator
//! NIC (and, for TPC-C, its own virtio-blk WAL device) on its own queue
//! memory and MMIO window, with device completions routed only to that
//! vCPU — plus its own shard of the application (a private [`KvService`]
//! or TPC-C warehouse set, as memcached and most sharded stores deploy on
//! SMP guests). Throughput is the sum over the per-vCPU load generators;
//! with one vCPU the numbers are bit-identical to the single-vCPU runners.

use svt_arch::ArchId;
use svt_core::{smp_machine_on, SwitchMode};
use svt_hv::GuestProgram;
use svt_obs::{folded_stacks, CriticalPath};
use svt_sim::{SimDuration, SimTime};

use crate::harness::{attach_blk_for, attach_loadgen_for_seeded, DEFAULT_LANE_SEED};
use crate::kvstore::{EtcSource, KvService, KV_WARM_KEYS};
use crate::layout;
use crate::loadgen::ArrivalMode;
use crate::server::{RrServer, ServerConfig};
use crate::tpcc::{TpccService, TpccSource};

/// Aggregate result of one SMP serving run.
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

/// Causal-profiling products of one SMP run: the per-request critical
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

/// Sharded memcached under per-vCPU open-loop ETC load.
///
/// Each vCPU serves `rate_qps` of offered load from its own generator
/// until `requests` requests per lane have been issued.
///
/// # Panics
///
/// Panics if `n_vcpus` is zero or exceeds the machine's physical cores,
/// or if no lane completes any request.
pub fn memcached_smp(mode: SwitchMode, n_vcpus: usize, rate_qps: f64, requests: u64) -> SmpPoint {
    memcached_run(
        mode,
        ArchId::X86,
        n_vcpus,
        rate_qps,
        requests,
        false,
        DEFAULT_LANE_SEED,
    )
    .0
}

/// [`memcached_smp`] with an explicit base seed for the per-lane request
/// streams (lane `v` draws from `seed + v`).
///
/// # Panics
///
/// As [`memcached_smp`].
pub fn memcached_smp_seeded(
    mode: SwitchMode,
    n_vcpus: usize,
    rate_qps: f64,
    requests: u64,
    seed: u64,
) -> SmpPoint {
    memcached_run(mode, ArchId::X86, n_vcpus, rate_qps, requests, false, seed).0
}

/// [`memcached_smp_seeded`] on an explicit ISA backend.
///
/// # Panics
///
/// As [`memcached_smp`].
pub fn memcached_smp_seeded_on(
    mode: SwitchMode,
    arch: ArchId,
    n_vcpus: usize,
    rate_qps: f64,
    requests: u64,
    seed: u64,
) -> SmpPoint {
    memcached_run(mode, arch, n_vcpus, rate_qps, requests, false, seed).0
}

/// [`memcached_smp_seeded_on`] with the causal event graph enabled;
/// additionally returns the run's critical-path profile (including the
/// watchdog verdicts the riscv CI smoke checks).
///
/// # Panics
///
/// As [`memcached_smp`].
pub fn memcached_smp_profiled_seeded_on(
    mode: SwitchMode,
    arch: ArchId,
    n_vcpus: usize,
    rate_qps: f64,
    requests: u64,
    seed: u64,
) -> (SmpPoint, CausalProfile) {
    let (p, prof, _) = memcached_run(mode, arch, n_vcpus, rate_qps, requests, true, seed);
    (p, prof.expect("profiled run harvests a causal profile"))
}

/// [`memcached_smp_seeded`] additionally returning the number of
/// simulated traps the run served (L2 vm-exits plus L0 direct exits) —
/// the unit of work the wall-clock self-benchmark divides host time by.
///
/// # Panics
///
/// As [`memcached_smp`].
pub fn memcached_smp_counted_seeded(
    mode: SwitchMode,
    n_vcpus: usize,
    rate_qps: f64,
    requests: u64,
    seed: u64,
) -> (SmpPoint, u64) {
    let (p, _, traps) = memcached_run(mode, ArchId::X86, n_vcpus, rate_qps, requests, false, seed);
    (p, traps)
}

/// [`memcached_smp`] with the causal event graph enabled; additionally
/// returns the run's critical-path profile.
///
/// # Panics
///
/// As [`memcached_smp`].
pub fn memcached_smp_profiled(
    mode: SwitchMode,
    n_vcpus: usize,
    rate_qps: f64,
    requests: u64,
) -> (SmpPoint, CausalProfile) {
    memcached_smp_profiled_seeded(mode, n_vcpus, rate_qps, requests, DEFAULT_LANE_SEED)
}

/// [`memcached_smp_profiled`] with an explicit base seed for the
/// per-lane request streams.
///
/// # Panics
///
/// As [`memcached_smp`].
pub fn memcached_smp_profiled_seeded(
    mode: SwitchMode,
    n_vcpus: usize,
    rate_qps: f64,
    requests: u64,
    seed: u64,
) -> (SmpPoint, CausalProfile) {
    let (p, prof, _) = memcached_run(mode, ArchId::X86, n_vcpus, rate_qps, requests, true, seed);
    (p, prof.expect("profiled run harvests a causal profile"))
}

#[allow(clippy::too_many_arguments)]
fn memcached_run(
    mode: SwitchMode,
    arch: ArchId,
    n_vcpus: usize,
    rate_qps: f64,
    requests: u64,
    profile: bool,
    lane_seed: u64,
) -> (SmpPoint, Option<CausalProfile>, u64) {
    let mean = SimDuration::from_ns_f64(1e9 / rate_qps);
    let mut m = smp_machine_on(mode, arch, n_vcpus);
    if profile {
        m.obs.spans.enable();
        m.obs.causal.enable();
    }
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
            lane_seed,
        ));
        let mut cfg = ServerConfig::rr_on_lane(&cost, u64::MAX, v);
        cfg.timer_rearm_every = 4;
        cfg.replenish_every = 2;
        // One kv shard per vCPU: no cross-vCPU application state.
        servers.push(RrServer::new(cfg, Box::new(KvService::new(KV_WARM_KEYS))));
    }
    let horizon = SimTime::ZERO
        + SimDuration::from_ns_f64(requests as f64 * mean.as_ns())
        + SimDuration::from_ms(80);
    run_servers(&mut m, &mut servers, horizon);
    let prof = profile.then(|| harvest_profile(&m));
    let traps =
        m.obs.metrics.counter_total("vm_exit") + m.obs.metrics.counter_total("l0_direct_exit");
    let point = collect(n_vcpus, &stats);
    // Guest memory, EPT webs and the kv shards are freed after `run_end`
    // closed the machine's profiling window; attribute that to Teardown.
    svt_obs::hostprof::charge_block(svt_obs::HostPart::Teardown, move || {
        drop(servers);
        drop(m);
    });
    (point, prof, traps)
}

/// Sharded TPC-C: per-vCPU closed-loop clients, each lane persisting its
/// WAL to its own virtio-blk device. `transactions` counts whole TPC-C
/// transactions per lane.
///
/// # Panics
///
/// Panics if `n_vcpus` is zero or exceeds the machine's physical cores,
/// or if no lane completes any statement.
pub fn tpcc_smp(mode: SwitchMode, n_vcpus: usize, transactions: u64) -> SmpPoint {
    tpcc_run(mode, n_vcpus, transactions, false, DEFAULT_LANE_SEED).0
}

/// [`tpcc_smp`] with an explicit base seed for the per-lane request
/// streams (lane `v` draws from `seed + v`).
///
/// # Panics
///
/// As [`tpcc_smp`].
pub fn tpcc_smp_seeded(mode: SwitchMode, n_vcpus: usize, transactions: u64, seed: u64) -> SmpPoint {
    tpcc_run(mode, n_vcpus, transactions, false, seed).0
}

/// [`tpcc_smp`] with the causal event graph enabled; additionally
/// returns the run's critical-path profile.
///
/// # Panics
///
/// As [`tpcc_smp`].
pub fn tpcc_smp_profiled(
    mode: SwitchMode,
    n_vcpus: usize,
    transactions: u64,
) -> (SmpPoint, CausalProfile) {
    tpcc_smp_profiled_seeded(mode, n_vcpus, transactions, DEFAULT_LANE_SEED)
}

/// [`tpcc_smp_profiled`] with an explicit base seed for the per-lane
/// request streams.
///
/// # Panics
///
/// As [`tpcc_smp`].
pub fn tpcc_smp_profiled_seeded(
    mode: SwitchMode,
    n_vcpus: usize,
    transactions: u64,
    seed: u64,
) -> (SmpPoint, CausalProfile) {
    let (p, prof) = tpcc_run(mode, n_vcpus, transactions, true, seed);
    (p, prof.expect("profiled run harvests a causal profile"))
}

fn tpcc_run(
    mode: SwitchMode,
    n_vcpus: usize,
    transactions: u64,
    profile: bool,
    lane_seed: u64,
) -> (SmpPoint, Option<CausalProfile>) {
    let statements = transactions * 34;
    let mut m = smp_machine_on(mode, ArchId::X86, n_vcpus);
    if profile {
        m.obs.spans.enable();
        m.obs.causal.enable();
    }
    let cost = m.cost.clone();
    let mut stats = Vec::with_capacity(n_vcpus);
    let mut servers: Vec<RrServer> = Vec::with_capacity(n_vcpus);
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
            lane_seed,
        ));
        attach_blk_for(&mut m, v);
        let mut cfg = ServerConfig::rr_on_lane(&cost, statements, v);
        cfg.blk_mmio = Some(layout::lane(v).blk_mmio);
        cfg.timer_rearm_every = 2;
        cfg.replenish_every = 2;
        // One warehouse set per vCPU, as sharded OLTP deployments do.
        let (service, _db) = TpccService::new(4);
        servers.push(RrServer::new(cfg, Box::new(service)));
    }
    run_servers(&mut m, &mut servers, SimTime::MAX);
    let prof = profile.then(|| harvest_profile(&m));
    let point = collect(n_vcpus, &stats);
    svt_obs::hostprof::charge_block(svt_obs::HostPart::Teardown, move || {
        drop(servers);
        drop(m);
    });
    (point, prof)
}

/// Extracts the causal products after a profiled run. `run_smp` has
/// already swept the graph's watchdogs at the end-of-run clock.
fn harvest_profile(m: &svt_hv::Machine) -> CausalProfile {
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

fn run_servers(m: &mut svt_hv::Machine, servers: &mut [RrServer], horizon: SimTime) {
    let mut progs: Vec<&mut dyn GuestProgram> = servers
        .iter_mut()
        .map(|s| s as &mut dyn GuestProgram)
        .collect();
    m.run_smp(&mut progs, horizon).expect("smp run completes");
}

pub(crate) fn collect(
    n_vcpus: usize,
    stats: &[std::rc::Rc<std::cell::RefCell<crate::loadgen::LoadStats>>],
) -> SmpPoint {
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
    SmpPoint {
        n_vcpus,
        completed,
        throughput: completed as f64 / span,
        avg_ns: lat_sum / completed as f64,
        p99_ns: p99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_vcpu_matches_single_vcpu_memcached() {
        // The SMP runner at n=1 sees the same machine, same lane, same
        // seed as the single-vCPU Fig. 8 runner.
        let smp = memcached_smp(SwitchMode::Baseline, 1, 2_000.0, 120);
        let single = crate::fig8::memcached_point(SwitchMode::Baseline, 2_000.0, 120);
        assert!(
            (smp.throughput - single.throughput).abs() < 1e-6,
            "smp {} vs single {}",
            smp.throughput,
            single.throughput
        );
        assert!((smp.avg_ns - single.avg_ns).abs() < 1e-6);
    }

    #[test]
    fn memcached_scales_with_vcpus() {
        let mut prev = 0.0;
        for n in [1usize, 2, 4] {
            let p = memcached_smp(SwitchMode::SwSvt, n, 2_000.0, 80);
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
            let (p, prof) = memcached_smp_profiled_seeded_on(
                mode,
                ArchId::Riscv,
                2,
                2_000.0,
                40,
                DEFAULT_LANE_SEED,
            );
            assert!(p.completed > 0, "{mode}: no requests completed");
            assert!(
                prof.violations.is_empty(),
                "{mode}: watchdogs tripped {:?}",
                prof.violations
            );
        }
    }

    #[test]
    fn tpcc_scales_with_vcpus() {
        let one = tpcc_smp(SwitchMode::HwSvt, 1, 30);
        let two = tpcc_smp(SwitchMode::HwSvt, 2, 30);
        assert!(
            two.throughput > one.throughput,
            "1 vCPU {} vs 2 vCPUs {}",
            one.throughput,
            two.throughput
        );
        assert_eq!(two.completed, 2 * one.completed);
    }
}
