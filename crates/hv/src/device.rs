//! The device bus interface between the machine and device models.
//!
//! Device models (virtio-net, virtio-blk) are registered on the machine
//! with their MMIO ranges. In the nested configuration they are *L1's*
//! devices — QEMU/vhost running inside the guest hypervisor — so the
//! machine charges their service time while executing in L1's context and
//! routes their completion interrupts down the full L0→L1→L2 injection
//! chain.

use std::fmt;

use svt_mem::{Gpa, GuestMemory};
use svt_sim::{SimDuration, SimTime};

/// What a device wants done after servicing an access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceOutcome {
    /// Device-model (backend) service time.
    pub service: SimDuration,
    /// Number of additional privileged operations the L1 backend performs
    /// against *its* hypervisor (vhost kicks, EOIs, …); each costs a full
    /// L1↔L0 exit round trip.
    pub backend_l1_exits: u32,
    /// Completions to schedule: `(when, token)` pairs delivered back to
    /// the device via [`DeviceModel::complete`].
    pub schedule: Vec<(SimTime, u64)>,
}

impl DeviceOutcome {
    /// An outcome with only service time.
    pub fn service(d: SimDuration) -> Self {
        DeviceOutcome {
            service: d,
            ..DeviceOutcome::default()
        }
    }
}

/// A completed asynchronous request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Interrupt vector to inject into the guest that owns the device.
    pub vector: u8,
    /// Completion-side service time in the backend.
    pub service: SimDuration,
    /// Further privileged backend operations (see
    /// [`DeviceOutcome::backend_l1_exits`]).
    pub backend_l1_exits: u32,
    /// Follow-up completions to schedule.
    pub schedule: Vec<(SimTime, u64)>,
}

/// A memory-mapped device model.
///
/// Devices receive the guest memory on every call: virtqueue state
/// (descriptor tables, available/used rings) lives in guest RAM, exactly
/// as with real virtio.
pub trait DeviceModel: fmt::Debug {
    /// The MMIO ranges `(base, len)` this device occupies in its guest's
    /// physical address space.
    fn ranges(&self) -> Vec<(Gpa, u64)>;

    /// Guest stored `value` at `gpa` (e.g. rang a virtqueue doorbell).
    fn mmio_write(
        &mut self,
        gpa: Gpa,
        value: u64,
        mem: &mut GuestMemory,
        now: SimTime,
    ) -> DeviceOutcome;

    /// Guest loaded from `gpa`. Returns the value read and the outcome.
    fn mmio_read(&mut self, gpa: Gpa, mem: &mut GuestMemory, now: SimTime) -> (u64, DeviceOutcome);

    /// A scheduled completion token fired.
    fn complete(&mut self, token: u64, mem: &mut GuestMemory, now: SimTime) -> Option<Completion>;

    /// Device-internal observability counters as `(name, value)` pairs
    /// (doorbell kicks, completion interrupts, queue depths, …). Values
    /// are absolute totals; the machine harvests them into its metrics
    /// registry via [`crate::Machine::harvest_device_metrics`]. Devices
    /// with nothing to report can rely on this default.
    fn obs_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Serializes the device's mutable state for `svt_sim::snapshot`.
    /// Stateless device models (the default) write nothing; devices with
    /// in-flight state (queue cursors, pending tables, token counters)
    /// override both this and [`DeviceModel::snap_load`] symmetrically.
    fn snap_save(&self, _w: &mut svt_sim::SnapWriter) {}

    /// Restores state written by [`DeviceModel::snap_save`] into a device
    /// of the same kind.
    ///
    /// # Errors
    ///
    /// Typed `SnapError` on truncation or malformed device state.
    fn snap_load(&mut self, _r: &mut svt_sim::SnapReader<'_>) -> Result<(), svt_sim::SnapError> {
        Ok(())
    }
}

/// The MMIO routing table: every attached device's claimed ranges,
/// recorded once at attach so routing an access never calls
/// [`DeviceModel::ranges`] (which allocates).
#[derive(Debug, Default)]
pub(crate) struct MmioMap {
    // (base, len, device index), in attach order: the first match is the
    // lowest-indexed claiming device.
    ranges: Vec<(Gpa, u64, usize)>,
}

impl MmioMap {
    /// Records that device `idx` occupies `ranges`.
    pub(crate) fn claim(&mut self, idx: usize, ranges: &[(Gpa, u64)]) {
        self.ranges
            .extend(ranges.iter().map(|&(base, len)| (base, len, idx)));
    }

    /// The index of the first device whose ranges contain `gpa`.
    pub(crate) fn device_at(&self, gpa: Gpa) -> Option<usize> {
        self.ranges
            .iter()
            .find(|(base, len, _)| gpa.0 >= base.0 && gpa.0 < base.0 + len)
            .map(|&(_, _, idx)| idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Dummy;

    impl DeviceModel for Dummy {
        fn ranges(&self) -> Vec<(Gpa, u64)> {
            vec![(Gpa(0x1000), 0x100), (Gpa(0x3000), 0x10)]
        }
        fn mmio_write(
            &mut self,
            _gpa: Gpa,
            _value: u64,
            _mem: &mut GuestMemory,
            _now: SimTime,
        ) -> DeviceOutcome {
            DeviceOutcome::service(SimDuration::from_ns(5))
        }
        fn mmio_read(
            &mut self,
            _gpa: Gpa,
            _mem: &mut GuestMemory,
            _now: SimTime,
        ) -> (u64, DeviceOutcome) {
            (7, DeviceOutcome::default())
        }
        fn complete(
            &mut self,
            _token: u64,
            _mem: &mut GuestMemory,
            _now: SimTime,
        ) -> Option<Completion> {
            None
        }
    }

    #[test]
    fn range_claiming() {
        let mut map = MmioMap::default();
        map.claim(0, &Dummy.ranges());
        map.claim(1, &[(Gpa(0x1080), 0x100)]);
        assert_eq!(map.device_at(Gpa(0x1000)), Some(0));
        assert_eq!(map.device_at(Gpa(0x10ff)), Some(0));
        assert_eq!(map.device_at(Gpa(0x1100)), Some(1));
        assert_eq!(map.device_at(Gpa(0x1180)), None);
        assert_eq!(map.device_at(Gpa(0x3008)), Some(0));
        assert_eq!(map.device_at(Gpa(0x0fff)), None);
    }

    #[test]
    fn outcome_service_constructor() {
        let o = DeviceOutcome::service(SimDuration::from_us(1));
        assert_eq!(o.service, SimDuration::from_us(1));
        assert_eq!(o.backend_l1_exits, 0);
        assert!(o.schedule.is_empty());
    }
}
