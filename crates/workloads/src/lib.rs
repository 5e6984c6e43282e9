//! Workloads reproducing the SVt paper's evaluation.
//!
//! Every experiment of § 6 has a runner here:
//!
//! * [`run_cpuid`] — the cpuid micro-benchmark: one [`CpuidSpec`] (level,
//!   engine, ISA, iterations) whose [`CpuidOutcome`] yields the Fig. 6
//!   bar time and the Table 1 breakdown; [`fig6_grid`] sweeps the five
//!   bars;
//! * [`channel_study`] — the § 6.1 communication-channel feasibility study;
//! * [`fig7`] — the I/O subsystem benchmarks (netperf TCP_RR/TCP_STREAM,
//!   ioping, fio);
//! * [`run`] — the serving experiment: one [`RunSpec`] (memcached under
//!   Facebook's ETC workload or TPC-C-lite with WAL persistence, any
//!   engine, ISA, vCPU count, seed and fault plan) and one [`Probe`]
//!   choosing what is recorded (Figs. 8 and 9, the SMP sweep, chaos and
//!   telemetry runs); [`fig8_series`] sweeps it for Fig. 8's 500 µs SLA
//!   curve;
//! * [`video_playback`] — frame-deadline playback (Fig. 10).
//!
//! The guest-side programs are real: an in-memory key-value store, a
//! five-transaction TPC-C engine, virtqueue-driving network and disk
//! clients — all issuing genuine architectural operations against the
//! simulated nested stack.
//!
//! # Examples
//!
//! ```
//! use svt_arch::ArchId;
//! use svt_core::SwitchMode;
//! use svt_hv::Level;
//! use svt_workloads::{run_cpuid, CpuidSpec};
//!
//! // The Fig. 6 baseline bar: one nested cpuid costs ~10.4us.
//! let spec = CpuidSpec { level: Level::L2, mode: SwitchMode::Baseline, arch: ArchId::X86, iters: 10 };
//! let t = run_cpuid(&spec).us();
//! assert!((t - 10.4).abs() < 0.3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod channel;
mod chaos;
mod cpuid;
mod disk;
mod fig10;
mod fig7;
mod fig8;
mod harness;
mod kvstore;
pub mod layout;
mod loadgen;
mod serve;
mod server;
mod stream;
mod telemetry;
mod tpcc;
mod video;

pub use channel::{
    channel_cell, channel_study, default_workloads, simulate_channel_round_ns, ChannelCell,
    Mechanism, POLL_SMT_STEAL_RATIO,
};
pub use chaos::{ChaosPoint, ChaosProbe};
pub use cpuid::{
    fig6_grid, run_cpuid, CpuidOutcome, CpuidSpec, ExitAttribution, Fig6Bar, Fig6Grid, Table1Row,
    FIG6_CELLS,
};
pub use disk::{DiskBench, DiskMode};
pub use fig10::{video_playback, PlaybackResult};
pub use fig7::{
    disk_bandwidth_kb_s, disk_latency_us, fig7, net_rr_latency_us, net_stream_mbps, IoRow,
};
pub use fig8::{default_rates, fig8_series, SLA_NS};
pub use harness::{
    attach_blk, attach_blk_for, attach_loadgen_for_seeded, rr_arrival, rr_machine,
    DEFAULT_LANE_SEED, QUEUE_SIZE,
};
pub use kvstore::{EtcSource, KvService, KvStore, KV_WARM_KEYS, OP_GET, OP_SET};
pub use loadgen::{
    regs, ArrivalMode, FixedSource, LoadGenConfig, LoadGenNet, LoadStats, Request, RequestSource,
    PAYLOAD_HEADER,
};
pub use serve::{run, CausalProfile, Probe, ProfileProbe, RunOutcome, RunSpec, Serve, SmpPoint};
pub use server::{
    EchoService, ParsedRequest, RrServer, ServeOutput, ServerConfig, ServiceModel, VECTOR_BLK,
};
pub use stream::StreamSender;
pub use telemetry::{TelemetryOpts, TelemetryPoint};
pub use tpcc::{TpccDb, TpccService, TpccSource, TxType};
pub use video::{VideoConfig, VideoPlayer};
