//! One benchmark cell: build a machine through the public API, attach its
//! devices, warm its application up, run it, harvest its simulated outputs
//! and tear it down. Each of those calls is timed as one layer [`Span`].

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use svt_arch::ArchId;
use svt_core::{nested_machine_on, smp_machine_on, SwitchMode};
use svt_hv::{GuestOp, GuestProgram, Level, Machine, MachineConfig, OpLoop};
use svt_obs::{folded_stacks, HostPart, LogHistogram};
use svt_sim::{CostPart, FaultPlan, SimDuration, SimTime, SnapReader, SnapWriter};
use svt_workloads::{
    attach_blk_for, attach_loadgen_for_seeded, layout, ArrivalMode, EtcSource, KvService,
    LoadStats, RrServer, ServerConfig, TpccService, TpccSource,
};

/// cpuid iterations per Fig 6 cell.
const CPUID_ITERS: u64 = 5_000;
/// Open-loop rate of every memcached lane (the `smp`/`hostprof` setting).
const MEMCACHED_QPS: f64 = 2_000.0;
/// Keyspace of the ETC request source.
const ETC_KEYS: u64 = 100_000;
/// Keys each memcached shard is warmed with before the run.
const WARM_KEYS: u64 = 50_000;
/// TPC-C warehouses per lane.
const TPCC_WAREHOUSES: u64 = 4;
/// Closed-loop TPC-C clients per lane.
const TPCC_CLIENTS: u32 = 4;
/// SQL statements per TPC-C transaction (the `tpcc_smp` conversion).
const STATEMENTS_PER_TX: u64 = 34;
/// Fault-plan seed of the chaos workload.
const CHAOS_FAULT_SEED: u64 = 0xC4A0_5EED;
/// Per-edge fault rate of the chaos workload.
const CHAOS_FAULT_RATE: f64 = 0.05;
/// Divergence-sentinel period of the chaos workload.
const SENTINEL_EVERY: SimDuration = SimDuration::from_ms(10);

/// A layer span: one public call into one layer, timed from outside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `{nested,smp}_machine_on` / `Machine::baseline`, plus arming instruments.
    Construct,
    /// Request sources plus `attach_loadgen_for_seeded` / `attach_blk_for`.
    Attach,
    /// `KvService::new` / `TpccService::new` and the server programs.
    Warmup,
    /// `Machine::run` / `Machine::run_smp`.
    Run,
    /// Lane statistics, counters, and the recorders' exports.
    Harvest,
    /// `Machine::state_fingerprint`.
    Fingerprint,
    /// `Machine::snapshot`.
    Snapshot,
    /// `Machine::restore` of the run's own snapshot.
    Restore,
    /// Dropping the servers and the machine.
    Teardown,
}

impl Span {
    /// Number of spans.
    pub const COUNT: usize = 9;
    /// Every span, in the order a cell passes through them.
    pub const ALL: [Span; Span::COUNT] = [
        Span::Construct,
        Span::Attach,
        Span::Warmup,
        Span::Run,
        Span::Harvest,
        Span::Fingerprint,
        Span::Snapshot,
        Span::Restore,
        Span::Teardown,
    ];

    /// The per-layer metric the span reports under.
    pub fn metric(self) -> &'static str {
        match self {
            Span::Construct => "core.construct_s",
            Span::Attach => "virtio.attach_s",
            Span::Warmup => "workloads.warmup_s",
            Span::Run => "hv.run_s",
            Span::Harvest => "obs.harvest_s",
            Span::Fingerprint => "hv.fingerprint_s",
            Span::Snapshot => "hv.snapshot_s",
            Span::Restore => "hv.restore_s",
            Span::Teardown => "hv.teardown_s",
        }
    }
}

/// Host seconds per span, summed over the cells of one round.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans([f64; Span::COUNT]);

impl Spans {
    /// Runs `f`, charging its wall time to `span`.
    pub fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.0[span as usize] += t0.elapsed().as_secs_f64();
        out
    }

    /// Seconds charged to `span`.
    pub fn get(&self, span: Span) -> f64 {
        self.0[span as usize]
    }

    /// Set-up: machine construct + device attach + application warm-up.
    pub fn setup(&self) -> f64 {
        self.get(Span::Construct) + self.get(Span::Attach) + self.get(Span::Warmup)
    }

    /// Adds `other`'s spans, multiplied by `scale`.
    pub fn add_scaled(&mut self, other: &Spans, scale: f64) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b * scale;
        }
    }

    /// Every span together.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// One machine configuration of a workload.
#[derive(Clone, Copy, Debug)]
pub enum Cell {
    /// A cpuid `OpLoop` at one Fig 6 level and engine, on one ISA.
    Cpuid {
        arch: ArchId,
        level: Level,
        mode: SwitchMode,
    },
    /// Sharded memcached: open-loop ETC on every lane. `chaos` installs
    /// the fault plan and arms every recorder plus the sentinel, and
    /// harvests, fingerprints, snapshots and restores after the run.
    Memcached {
        mode: SwitchMode,
        vcpus: usize,
        requests: u64,
        chaos: bool,
    },
    /// Sharded TPC-C: closed-loop clients per lane, WAL on virtio-blk.
    Tpcc {
        mode: SwitchMode,
        vcpus: usize,
        transactions: u64,
    },
}

impl Cell {
    /// The cell's switch engine.
    pub fn mode(self) -> SwitchMode {
        match self {
            Cell::Cpuid { mode, .. } | Cell::Memcached { mode, .. } | Cell::Tpcc { mode, .. } => {
                mode
            }
        }
    }

    /// The cells a baseline is compared with share a group: the ISA and
    /// level of a cpuid cell; every serving cell is x86 L2.
    pub fn group(self) -> (ArchId, Level) {
        match self {
            Cell::Cpuid { arch, level, .. } => (arch, level),
            Cell::Memcached { .. } | Cell::Tpcc { .. } => (ArchId::X86, Level::L2),
        }
    }

    /// A short label for the report.
    pub fn label(self) -> String {
        match self {
            Cell::Cpuid { arch, level, mode } => match level {
                Level::L2 => format!("{} L2 {}", arch.label(), mode.label()),
                _ => format!("{} {level:?}", arch.label()),
            },
            Cell::Memcached { mode, vcpus, .. } => format!("memcached {vcpus}v {}", mode.label()),
            Cell::Tpcc { mode, vcpus, .. } => format!("tpcc {vcpus}v {}", mode.label()),
        }
    }

    /// Whether a larger [`SimOut::value`] is better (throughput) rather
    /// than worse (latency).
    pub fn higher_is_better(self) -> bool {
        matches!(self, Cell::Tpcc { .. })
    }

    /// Runs the cell once, charging every call to its span.
    ///
    /// # Panics
    ///
    /// Panics where the library does; the caller counts that as a failed
    /// cell.
    pub fn run(self, seed: u64, spans: &mut Spans) -> SimOut {
        match self {
            Cell::Cpuid { arch, level, mode } => run_cpuid(arch, level, mode, spans),
            Cell::Memcached {
                mode,
                vcpus,
                requests,
                chaos,
            } => run_serving(
                Serving::Memcached { requests, chaos },
                mode,
                vcpus,
                seed,
                spans,
            ),
            Cell::Tpcc {
                mode,
                vcpus,
                transactions,
            } => run_serving(Serving::Tpcc { transactions }, mode, vcpus, seed, spans),
        }
    }
}

/// Exact counters a cell reports, by per-layer metric name.
pub const COUNTS: [&str; 13] = [
    "hv.traps",
    "hv.l1_exits",
    "arch.transforms",
    "core.svt_commands",
    "core.fallback_traps",
    "core.retransmits",
    "sim.faults_injected",
    "sim.sentinel_samples",
    "virtio.completed",
    "virtio.dropped",
    "obs.causal_events",
    "obs.causal_dropped",
    "hv.snapshot_bytes",
];
const TRAPS: usize = 0;
const VIRTIO_COMPLETED: usize = 8;
const VIRTIO_DROPPED: usize = 9;
const SNAPSHOT_BYTES: usize = 12;

/// The simulated cost parts reported per trap: Table 1's six rows, the
/// SW-SVt channel and device service.
pub const PARTS: [(CostPart, &str); 8] = [
    (CostPart::L2Guest, "l2_guest"),
    (CostPart::SwitchL2L0, "switch_l2_l0"),
    (CostPart::Transform, "transform"),
    (CostPart::L0Handler, "l0_handler"),
    (CostPart::SwitchL0L1, "switch_l0_l1"),
    (CostPart::L1Handler, "l1_handler"),
    (CostPart::Channel, "channel"),
    (CostPart::Device, "device"),
];

/// Everything simulated a cell produces. Two runs of the same cell and
/// seed must produce equal values, bit for bit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimOut {
    /// cpuid latency (µs), memcached mean request latency (ns) or TPC-C
    /// throughput (statements/s).
    pub value: f64,
    /// Requests sent (cpuid: iterations asked for).
    pub sent: u64,
    /// Requests completed (cpuid: iterations completed).
    pub completed: u64,
    /// Requests dropped for want of an RX buffer.
    pub dropped: u64,
    /// Values of [`COUNTS`], in order.
    pub counts: [u64; COUNTS.len()],
    /// Simulated picoseconds per [`PARTS`] entry, over all vCPUs.
    pub part_ps: [u64; PARTS.len()],
    /// Every `trap_latency_ps` histogram of the machine, merged.
    pub trap_hist: Hist,
    /// Output checks that failed inside the cell.
    pub problems: Vec<String>,
}

impl SimOut {
    /// Simulated traps served.
    pub fn traps(&self) -> u64 {
        self.counts[TRAPS]
    }
}

/// A merge of [`LogHistogram`]s with identical bucketing, built through
/// the histograms' own snapshot codec.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Hist {
    fn absorb(&mut self, h: &LogHistogram) {
        let mut w = SnapWriter::new();
        h.snap_save(&mut w);
        let bytes = w.into_vec();
        let mut r = SnapReader::new(&bytes);
        let parsed = (|| -> Result<Hist, svt_sim::SnapError> {
            let n = r.usize()?;
            let buckets = (0..n).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
            let count = r.u64()?;
            let sum = u128::from(r.u64()?) | (u128::from(r.u64()?) << 64);
            Ok(Hist {
                buckets,
                count,
                sum,
                min: r.u64()?,
                max: r.u64()?,
            })
        })()
        .expect("a histogram decodes its own encoding");
        self.merge(&parsed);
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The `p`-th percentile as [`LogHistogram::percentile`] reports it,
    /// or `None` when nothing was recorded.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let mut w = SnapWriter::new();
        w.usize(self.buckets.len());
        for &b in &self.buckets {
            w.u64(b);
        }
        w.u64(self.count);
        w.u64(self.sum as u64);
        w.u64((self.sum >> 64) as u64);
        w.u64(self.min);
        w.u64(self.max);
        let bytes = w.into_vec();
        let h = LogHistogram::snap_load(&mut SnapReader::new(&bytes))
            .expect("a histogram decodes its own encoding");
        Some(h.percentile(p))
    }
}

/// Counters, cost attribution and trap latencies of a finished machine.
fn harvest_machine(m: &Machine, out: &mut SimOut) {
    let total = |name: &str| m.obs.metrics.counter_total(name);
    let counts = [
        total("vm_exit") + total("l0_direct_exit"),
        total("l1_exit"),
        total("transform_fwd") + total("transform_bwd"),
        total("svt_commands"),
        total("svt_trap_fallback"),
        total("svt_retransmits"),
        m.faults.total_injected(),
        m.sentinel_samples().len() as u64,
        0,
        0,
        m.obs.causal.recorded(),
        m.obs.causal.dropped(),
        0,
    ];
    for (slot, v) in out.counts.iter_mut().zip(counts) {
        *slot += v;
    }
    let parts = m.total_part_time();
    for (slot, (part, _)) in out.part_ps.iter_mut().zip(PARTS) {
        *slot = parts[part as usize].as_ps();
    }
    for (key, h) in m.obs.metrics.iter_histograms_sorted() {
        if key.name == "trap_latency_ps" {
            out.trap_hist.absorb(h);
        }
    }
}

fn teardown(spans: &mut Spans, f: impl FnOnce()) {
    spans.time(Span::Teardown, || {
        svt_obs::hostprof::charge_block(HostPart::Teardown, f)
    });
}

fn run_cpuid(arch: ArchId, level: Level, mode: SwitchMode, spans: &mut Spans) -> SimOut {
    let iters = CPUID_ITERS;
    let mut m = spans.time(Span::Construct, || match level {
        Level::L2 => nested_machine_on(mode, arch),
        _ => Machine::baseline(MachineConfig::at_level_on(level, arch)),
    });
    // No devices and no application: these spans time empty steps.
    spans.time(Span::Attach, || ());
    spans.time(Span::Warmup, || ());
    // As `svt_workloads::cpuid_us_on`: one warm iteration, then the
    // measured loop, timed on the machine's own clock.
    let ran = spans.time(Span::Run, || {
        let mut warm = OpLoop::new(GuestOp::Cpuid, 1, 0, SimDuration::ZERO);
        m.run(&mut warm)?;
        let base = m.clock.snapshot();
        let mut prog = OpLoop::new(GuestOp::Cpuid, iters, 0, SimDuration::ZERO);
        m.run(&mut prog)?;
        Ok::<_, svt_hv::MachineError>((m.clock.since_snapshot(&base).busy_time(), prog.completed()))
    });
    let mut out = SimOut {
        sent: iters,
        ..SimOut::default()
    };
    spans.time(Span::Harvest, || {
        match ran {
            Ok((busy, done)) => {
                out.value = busy.as_us() / iters as f64;
                out.completed = done;
            }
            Err(e) => out.problems.push(format!("run: {e:?}")),
        }
        harvest_machine(&m, &mut out);
    });
    for span in [Span::Fingerprint, Span::Snapshot, Span::Restore] {
        spans.time(span, || ());
    }
    teardown(spans, move || drop(m));
    out
}

#[derive(Clone, Copy)]
enum Serving {
    Memcached { requests: u64, chaos: bool },
    Tpcc { transactions: u64 },
}

fn run_serving(
    kind: Serving,
    mode: SwitchMode,
    vcpus: usize,
    seed: u64,
    spans: &mut Spans,
) -> SimOut {
    let chaos = matches!(kind, Serving::Memcached { chaos: true, .. });
    let mean = SimDuration::from_ns_f64(1e9 / MEMCACHED_QPS);
    let mut m = spans.time(Span::Construct, || {
        let mut m = smp_machine_on(mode, ArchId::X86, vcpus);
        if chaos {
            m.faults = FaultPlan::uniform(CHAOS_FAULT_SEED, CHAOS_FAULT_RATE);
            m.obs.spans.enable();
            m.obs.causal.enable();
            m.obs.timeline.enable();
            m.obs.flight.enable();
            m.enable_sentinel(SENTINEL_EVERY);
        }
        m
    });
    let stats: Vec<Rc<RefCell<LoadStats>>> = spans.time(Span::Attach, || {
        (0..vcpus)
            .map(|v| match kind {
                Serving::Memcached { requests, .. } => attach_loadgen_for_seeded(
                    &mut m,
                    v,
                    ArrivalMode::OpenLoop {
                        mean_interarrival: mean,
                    },
                    requests,
                    Box::new(EtcSource::new(ETC_KEYS)),
                    seed,
                ),
                Serving::Tpcc { transactions } => {
                    let lane = attach_loadgen_for_seeded(
                        &mut m,
                        v,
                        ArrivalMode::ClosedLoop {
                            concurrency: TPCC_CLIENTS,
                            think: SimDuration::from_us(15),
                        },
                        transactions * STATEMENTS_PER_TX,
                        Box::new(TpccSource::new(TPCC_WAREHOUSES)),
                        seed,
                    );
                    attach_blk_for(&mut m, v);
                    lane
                }
            })
            .collect()
    });
    let cost = m.cost.clone();
    let mut servers: Vec<RrServer> = spans.time(Span::Warmup, || {
        (0..vcpus)
            .map(|v| match kind {
                Serving::Memcached { .. } => {
                    let mut cfg = ServerConfig::rr_on_lane(&cost, u64::MAX, v);
                    cfg.timer_rearm_every = 4;
                    cfg.replenish_every = 2;
                    RrServer::new(cfg, Box::new(KvService::new(WARM_KEYS)))
                }
                Serving::Tpcc { transactions } => {
                    let mut cfg =
                        ServerConfig::rr_on_lane(&cost, transactions * STATEMENTS_PER_TX, v);
                    cfg.blk_mmio = Some(layout::lane(v).blk_mmio);
                    cfg.timer_rearm_every = 2;
                    cfg.replenish_every = 2;
                    RrServer::new(cfg, Box::new(TpccService::new(TPCC_WAREHOUSES).0))
                }
            })
            .collect()
    });
    let horizon = match kind {
        Serving::Memcached { requests, .. } => {
            SimTime::ZERO
                + SimDuration::from_ns_f64(requests as f64 * mean.as_ns())
                + SimDuration::from_ms(80)
        }
        Serving::Tpcc { .. } => SimTime::MAX,
    };
    let ran = spans.time(Span::Run, || {
        let mut progs: Vec<&mut dyn GuestProgram> = servers
            .iter_mut()
            .map(|s| s as &mut dyn GuestProgram)
            .collect();
        m.run_smp(&mut progs, horizon)
    });
    let mut out = SimOut::default();
    spans.time(Span::Harvest, || {
        if let Err(e) = ran {
            out.problems.push(format!("run_smp: {e:?}"));
        }
        harvest_lanes(&stats, matches!(kind, Serving::Tpcc { .. }), &mut out);
        harvest_machine(&m, &mut out);
        if chaos {
            harvest_recorders(&mut m, &mut out);
        }
    });
    if chaos {
        spans.time(Span::Fingerprint, || black_box(m.state_fingerprint()));
        let blob = spans.time(Span::Snapshot, || m.snapshot());
        out.counts[SNAPSHOT_BYTES] = blob.len() as u64;
        // `restore` re-derives the state fingerprint and rejects a mismatch.
        spans.time(Span::Restore, || {
            if let Err(e) = m.restore(&blob) {
                out.problems.push(format!("restore of own snapshot: {e:?}"));
            }
        });
    } else {
        for span in [Span::Fingerprint, Span::Snapshot, Span::Restore] {
            spans.time(span, || ());
        }
    }
    teardown(spans, move || {
        drop(servers);
        drop(m);
    });
    out
}

/// Per-lane request accounting: sums, the completion check, and the
/// cell's headline value (mean latency, or throughput for TPC-C).
fn harvest_lanes(stats: &[Rc<RefCell<LoadStats>>], throughput: bool, out: &mut SimOut) {
    let mut lat_sum = 0.0;
    let mut first: Option<SimTime> = None;
    let mut last: Option<SimTime> = None;
    for s in stats {
        let s = s.borrow();
        out.sent += s.sent;
        out.completed += s.completed;
        out.dropped += s.dropped;
        if s.completed > 0 {
            lat_sum += s.latency.mean() * s.completed as f64;
        }
        first = match (first, s.first_send) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        last = last.max(s.last_reply);
    }
    out.counts[VIRTIO_COMPLETED] = out.completed;
    out.counts[VIRTIO_DROPPED] = out.dropped;
    if out.completed + out.dropped != out.sent {
        out.problems.push(format!(
            "{} completed + {} dropped != {} sent",
            out.completed, out.dropped, out.sent
        ));
    }
    if out.completed == 0 {
        out.problems.push("no request completed".into());
        return;
    }
    out.value = if throughput {
        match (first, last) {
            (Some(a), Some(b)) if b > a => out.completed as f64 / b.since(a).as_secs(),
            _ => f64::NAN,
        }
    } else {
        lat_sum / out.completed as f64
    };
}

/// Harvests what a chaos report carries: critical paths and folded
/// stacks, the Chrome trace, the timeline and an end-of-run flight dump.
/// A watchdog violation fails the cell.
fn harvest_recorders(m: &mut Machine, out: &mut SimOut) {
    let paths = m.obs.causal.critical_paths();
    let folded = folded_stacks(&paths);
    let trace =
        svt_obs::chrome_trace_with_flows(&m.obs.spans.to_vec(), &m.obs.causal.flow_arrows());
    let timeline = m.obs.timeline.to_json();
    let now = (0..m.n_vcpus())
        .map(|i| m.local_now(i))
        .max()
        .unwrap_or(SimTime::ZERO);
    m.obs.flight_trip("dump_on_exit", now);
    let dump = m.obs.flight.last_dump().map(|d| d.to_string());
    black_box((
        folded.len(),
        trace.to_string().len(),
        timeline.to_string().len(),
        dump.map(|d| d.len()),
    ));
    let violations = m.obs.causal.total_violations();
    if violations > 0 {
        out.problems
            .push(format!("{violations} causal watchdog violations"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_histograms_match_one_histogram_of_all_samples() {
        let (mut a, mut b, mut all) = (
            LogHistogram::new(),
            LogHistogram::new(),
            LogHistogram::new(),
        );
        for v in 1..=5_000u64 {
            let v = v * v % 100_003;
            if v % 3 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            all.record(v);
        }
        let mut merged = Hist::default();
        merged.absorb(&a);
        merged.absorb(&b);
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(merged.percentile(p), Some(all.percentile(p)), "p{p}");
        }
        assert_eq!(Hist::default().percentile(50.0), None);
    }
}
