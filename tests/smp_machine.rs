//! SMP machine integration: per-vCPU nested stacks sharing one scheduler.

use svt::arch::{ArchId, ExitReason};
use svt::core::{smp_machine, smp_machine_on, SwitchMode};
use svt::hv::{GuestOp, GuestProgram, Machine, OpLoop};
use svt::mem::Hpa;
use svt::obs::ObsLevel;
use svt::sim::{SimDuration, SimTime};
use svt::workloads::{attach_loadgen_for_seeded, layout, ArrivalMode, EtcSource};

/// Base of vCPU 0's SW-SVt ring pair and the per-vCPU stride (one ring
/// pair per 64 KiB ivshmem slice; see `svt_core::sw`).
const RING_BASE: u64 = 0x10_0000;
const RING_STRIDE: u64 = 0x1_0000;

/// Two SW-SVt vCPUs trapping back-to-back must not corrupt each other's
/// command rings. Each vCPU's reflector owns a private ring pair in a
/// disjoint ivshmem slice; a shared or clobbered ring would trip the
/// protocol's command-type checks (failing the run) or skew the per-lane
/// push counts checked below.
#[test]
fn per_vcpu_sw_svt_rings_do_not_interfere() {
    const TRAPS: u64 = 40;
    let mut m = smp_machine(SwitchMode::SwSvt, 2);
    // Different surrounding work per vCPU so their traps interleave
    // rather than proceeding in lockstep.
    let mut p0 = OpLoop::new(GuestOp::Cpuid, TRAPS, 120, SimDuration::from_ns(10));
    let mut p1 = OpLoop::new(GuestOp::Cpuid, TRAPS, 77, SimDuration::from_ns(10));
    let mut progs: Vec<&mut dyn GuestProgram> = vec![&mut p0, &mut p1];
    m.run_smp(&mut progs, SimTime::MAX)
        .expect("both vCPUs complete their trap loops");

    // Every trap crossed the ring protocol (trap command + resume
    // command), on both lanes.
    assert_eq!(
        m.obs.metrics.counter_total("svt_commands"),
        2 * 2 * TRAPS,
        "each of the two vCPUs' {TRAPS} traps costs one trap + one resume command"
    );

    // Both ring pairs live in guest memory at their own slice, and each
    // saw exactly the same protocol traffic: head == tail (quiescent, no
    // torn command left behind) and identical push counts per lane.
    let mut heads = Vec::new();
    for vcpu in 0..2u64 {
        let base = RING_BASE + vcpu * RING_STRIDE;
        let head = m.ram.read_u32(Hpa(base)).unwrap();
        let tail = m.ram.read_u32(Hpa(base + 64)).unwrap();
        assert_eq!(head, tail, "vCPU {vcpu}: command left in flight");
        assert!(head > 0, "vCPU {vcpu}: ring never used");
        heads.push(head);
    }
    assert_eq!(
        heads[0], heads[1],
        "symmetric trap loops must drive symmetric ring traffic"
    );
}

/// A single-vCPU machine built through the SMP constructor behaves
/// exactly like the historical single-vCPU machine: same ring base, same
/// trap cost.
#[test]
fn one_vcpu_smp_machine_is_the_single_vcpu_machine() {
    let mut smp = smp_machine(SwitchMode::SwSvt, 1);
    let mut p = OpLoop::new(GuestOp::Cpuid, 10, 0, SimDuration::ZERO);
    smp.run(&mut p).unwrap();
    let smp_end = smp.clock.now();

    let mut single = svt::core::nested_machine(SwitchMode::SwSvt);
    let mut p = OpLoop::new(GuestOp::Cpuid, 10, 0, SimDuration::ZERO);
    single.run(&mut p).unwrap();
    assert_eq!(smp_end, single.clock.now(), "n=1 must be bit-identical");

    // The lone ring pair sits at the historical ivshmem address.
    assert!(smp.ram.read_u32(Hpa(RING_BASE)).unwrap() > 0);
}

/// Lane count of the attach-invariant machines below.
const LANES: usize = 4;

/// `(state_fingerprint(), snapshot().len())` of a 4-vCPU machine with a
/// seeded load-generator NIC on every lane, per ISA and engine (in
/// `SwitchMode::ALL` order). Recorded when every device attach still
/// recomposed EPT02 once per vCPU: attaching must leave exactly the same
/// machine behind however often the shared composition runs.
const ATTACHED: [(ArchId, [(u64, usize); 3]); 2] = [
    (
        ArchId::X86,
        [
            (5019616031483894753, 233751),
            (5019616031483894753, 233999),
            (8946286676311785565, 233751),
        ],
    ),
    (
        ArchId::Riscv,
        [
            (10884193495313882529, 233640),
            (10884193495313882529, 233888),
            (6956710411721855981, 233640),
        ],
    ),
];

fn attached_machine(mode: SwitchMode, arch: ArchId) -> Machine {
    let mut m = smp_machine_on(mode, arch, LANES);
    for v in 0..LANES {
        attach_loadgen_for_seeded(
            &mut m,
            v,
            ArrivalMode::OpenLoop {
                mean_interarrival: SimDuration::from_us(50),
            },
            8,
            Box::new(EtcSource::new(1000)),
            7,
        );
    }
    m
}

/// Attaching one NIC per lane on a 4-vCPU nested machine yields the
/// recorded machine state on all three engines and both ISAs, and the
/// shared EPT02 already marks lane 0's MMIO page for every vCPU: an
/// access to it from vCPU 3 exits to L1 for emulation with no lazy EPT02
/// fill on the way.
#[test]
fn per_lane_attach_leaves_the_recorded_machine() {
    for (arch, expected) in ATTACHED {
        for (mode, (fp, snap_len)) in SwitchMode::ALL.into_iter().zip(expected) {
            let mut m = attached_machine(mode, arch);
            let got = (m.state_fingerprint(), m.snapshot().len());
            assert_eq!(got, (fp, snap_len), "{arch:?} {mode:?}");

            let gpa = layout::lane(0).net_mmio;
            let mut idle: Vec<OpLoop> = (0..LANES - 1)
                .map(|_| OpLoop::new(GuestOp::Cpuid, 0, 0, SimDuration::ZERO))
                .collect();
            let mut probe = OpLoop::new(GuestOp::MmioRead { gpa }, 1, 0, SimDuration::ZERO);
            let mut progs: Vec<&mut dyn GuestProgram> = idle
                .iter_mut()
                .map(|p| p as &mut dyn GuestProgram)
                .collect();
            progs.push(&mut probe);
            m.run_smp(&mut progs, SimTime::MAX)
                .expect("probe run completes");
            let tag = arch.tag(ExitReason::EptMisconfig { gpa });
            let exits: u64 = m
                .obs
                .metrics
                .iter_counters_sorted()
                .filter(|(k, _)| {
                    k.name == "vm_exit"
                        && k.level == Some(ObsLevel::L2)
                        && k.exit_reason == Some(tag)
                })
                .map(|(_, n)| n)
                .sum();
            assert_eq!(exits, 1, "{arch:?} {mode:?}: vCPU 3's MMIO read must exit");
            assert_eq!(
                m.obs.metrics.counter_total("l0_direct_exit"),
                0,
                "{arch:?} {mode:?}: the attach composed lane 0's page into EPT02 up front"
            );
        }
    }
}
