//! The simulation clock with cost attribution.
//!
//! Every primitive charged through [`Clock::charge`] advances simulated
//! time and is attributed to the current [`CostPart`] — the same six-part
//! decomposition the paper uses in Table 1 — plus an optional free-form
//! tag (used for the per-exit-reason profiling claims in § 6.2/6.3).
//! [`Clock::count`] bumps a typed [`SimCounter`]. All three are dense
//! arrays, so the per-trap bookkeeping neither hashes nor allocates.

use std::collections::HashMap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Attribution bucket matching Table 1 of the paper, plus buckets for the
/// parts of the system the paper's breakdown does not time (devices, the
/// SW-SVt channel, idling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CostPart {
    /// Part ⓪ — useful guest work in L2.
    L2Guest,
    /// Part ① — hardware+thunk switches between L2 and L0.
    SwitchL2L0,
    /// Part ② — vmcs02↔vmcs12 transformations.
    Transform,
    /// Part ③ — L0 handler software.
    L0Handler,
    /// Part ④ — switches between L0 and L1.
    SwitchL0L1,
    /// Part ⑤ — L1 handler software (including its own nested traps).
    L1Handler,
    /// Useful guest work in L1 (single-level runs).
    L1Guest,
    /// Native work in L0 (bare-metal runs).
    L0Native,
    /// SW-SVt shared-memory channel communication and waiting.
    Channel,
    /// Device-model service time.
    Device,
    /// Wire/NIC time to the load generator.
    Wire,
    /// CPU idle (waiting for events).
    Idle,
    /// Anything not otherwise attributed.
    Other,
}

impl CostPart {
    /// The six Table 1 rows, in paper order ⓪–⑤.
    pub const TABLE1: [CostPart; 6] = [
        CostPart::L2Guest,
        CostPart::SwitchL2L0,
        CostPart::Transform,
        CostPart::L0Handler,
        CostPart::SwitchL0L1,
        CostPart::L1Handler,
    ];

    /// Every attribution bucket, in declaration order. The clock stores
    /// per-part time in a dense array indexed by discriminant, so this
    /// list must stay in sync with the enum (the `COUNT` assertion below
    /// catches drift at compile time).
    pub const ALL: [CostPart; CostPart::COUNT] = [
        CostPart::L2Guest,
        CostPart::SwitchL2L0,
        CostPart::Transform,
        CostPart::L0Handler,
        CostPart::SwitchL0L1,
        CostPart::L1Handler,
        CostPart::L1Guest,
        CostPart::L0Native,
        CostPart::Channel,
        CostPart::Device,
        CostPart::Wire,
        CostPart::Idle,
        CostPart::Other,
    ];

    /// Number of attribution buckets (the size of the dense time array).
    pub const COUNT: usize = 13;

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

// Every variant must appear in ALL exactly once at its own discriminant,
// otherwise dense indexing would misattribute time.
const _: () = {
    let mut i = 0;
    while i < CostPart::COUNT {
        assert!(CostPart::ALL[i] as usize == i);
        i += 1;
    }
};

impl fmt::Display for CostPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CostPart::L2Guest => "L2",
            CostPart::SwitchL2L0 => "Switch L2<->L0",
            CostPart::Transform => "Transform vmcs02/vmcs12",
            CostPart::L0Handler => "L0 handler",
            CostPart::SwitchL0L1 => "Switch L0<->L1",
            CostPart::L1Handler => "L1 handler",
            CostPart::L1Guest => "L1",
            CostPart::L0Native => "L0",
            CostPart::Channel => "SVt channel",
            CostPart::Device => "Device",
            CostPart::Wire => "Wire",
            CostPart::Idle => "Idle",
            CostPart::Other => "Other",
        };
        f.write_str(s)
    }
}

macro_rules! sim_counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// A named event counter kept by the [`Clock`] (VMCS accesses,
        /// reflected exits, SW-SVt protocol events, IPIs, …).
        ///
        /// Counters are a closed set so the clock can keep them in a dense
        /// array: [`Clock::count`] is one indexed add, no hashing. Variants
        /// are declared in name order, so iterating [`SimCounter::ALL`]
        /// yields counters sorted by name (checked at compile time).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum SimCounter {
            $($(#[$doc])* $variant,)*
        }

        impl SimCounter {
            /// Every counter, in declaration (= name) order.
            pub const ALL: [SimCounter; SimCounter::COUNT] = [$(SimCounter::$variant,)*];

            /// Number of counters (the size of the dense counter array).
            pub const COUNT: usize = [$($name,)*].len();

            /// The counter's stable snake_case name, as reported by
            /// [`Clock::counters`] and written into snapshots.
            pub const fn name(self) -> &'static str {
                match self {
                    $(SimCounter::$variant => $name,)*
                }
            }
        }
    };
}

sim_counters! {
    /// Context-block loads by HW SVt / the bypass engine.
    Ctxtld => "ctxtld",
    /// Context-block stores by HW SVt / the bypass engine.
    Ctxtst => "ctxtst",
    /// IPIs whose ICR value did not decode.
    IpiBadIcr => "ipi_bad_icr",
    /// IPIs lost to an injected fault.
    IpiDropped => "ipi_dropped",
    /// Duplicate IPI deliveries absorbed by the receiver.
    IpiDuplicatesAbsorbed => "ipi_duplicates_absorbed",
    /// IPIs delivered to a vCPU.
    IpiReceived => "ipi_received",
    /// IPIs resent after a loss.
    IpiRetransmits => "ipi_retransmits",
    /// IPIs sent.
    IpiSent => "ipi_sent",
    /// Virtual interrupts delivered to the guest program.
    IrqDelivered => "irq_delivered",
    /// Exit rounds of a single-level guest (guest → L0 → guest).
    L1DirectExit => "l1_direct_exit",
    /// L1→L0 exits.
    L1Exit => "l1_exit",
    /// IPIs delivered straight to L1.
    L1IpiDirect => "l1_ipi_direct",
    /// L1 VMREADs that trapped into L0.
    L1VmreadExit => "l1_vmread_exit",
    /// L1 VMWRITEs that trapped into L0.
    L1VmwriteExit => "l1_vmwrite_exit",
    /// L2 exits taken on a nested machine.
    L2ExitChain => "l2_exit_chain",
    /// L1 VMREADs served by VMCS shadowing.
    ShadowVmread => "shadow_vmread",
    /// L1 VMWRITEs served by VMCS shadowing.
    ShadowVmwrite => "shadow_vmwrite",
    /// SW-SVt traps that blocked on the sibling.
    SvtBlocked => "svt_blocked",
    /// SW-SVt commands corrupted in the ring.
    SvtCmdsCorrupted => "svt_cmds_corrupted",
    /// SW-SVt commands duplicated in the ring.
    SvtCmdsDuplicated => "svt_cmds_duplicated",
    /// SW-SVt commands lost before reaching the ring.
    SvtCmdsLost => "svt_cmds_lost",
    /// Stale or duplicate SW-SVt commands dropped by a receiver.
    SvtDuplicatesDropped => "svt_duplicates_dropped",
    /// SW-SVt ring pairing hypercalls.
    SvtPairingHypercall => "svt_pairing_hypercall",
    /// SW-SVt legs failed by a protocol error.
    SvtProtocolErrors => "svt_protocol_errors",
    /// SW-SVt resumes that fell back to the trap path.
    SvtResumeFallback => "svt_resume_fallback",
    /// SW-SVt command retransmissions.
    SvtRetransmits => "svt_retransmits",
    /// SW-SVt pushes that met a full ring.
    SvtRingFull => "svt_ring_full",
    /// SW-SVt traps delayed by a busy sibling.
    SvtSiblingDelays => "svt_sibling_delays",
    /// SW-SVt premature doorbell wake-ups.
    SvtSpuriousWakeups => "svt_spurious_wakeups",
    /// Stale SW-SVt ring entries discarded to make room.
    SvtStaleDiscarded => "svt_stale_discarded",
    /// SW-SVt degradation state transitions.
    SvtStateTransition => "svt_state_transition",
    /// SW-SVt waits that timed out.
    SvtTimeouts => "svt_timeouts",
    /// SW-SVt traps that fell back to the baseline path.
    SvtTrapFallback => "svt_trap_fallback",
    /// SW-SVt traps handled over the ring.
    SvtTrapRing => "svt_trap_ring",
    /// Backward transforms, vmcs12 → vmcs02 (Algorithm 1 line 14).
    TransformBwd => "transform_bwd",
    /// Forward transforms, vmcs02 → vmcs12 (Algorithm 1 line 3).
    TransformFwd => "transform_fwd",
    /// Charged `vmread`s (`Machine::vm_read`).
    Vmread => "vmread",
    /// Charged `vmwrite`s (`Machine::vm_write`).
    Vmwrite => "vmwrite",
}

// Dense indexing needs ALL[i] at discriminant i; sorted output needs
// the names in strictly ascending byte order.
const _: () = {
    const fn name_lt(a: &str, b: &str) -> bool {
        let (a, b) = (a.as_bytes(), b.as_bytes());
        let mut i = 0;
        while i < a.len() && i < b.len() {
            if a[i] != b[i] {
                return a[i] < b[i];
            }
            i += 1;
        }
        a.len() < b.len()
    }
    let mut i = 0;
    while i < SimCounter::COUNT {
        assert!(SimCounter::ALL[i] as usize == i);
        if i > 0 {
            assert!(name_lt(
                SimCounter::ALL[i - 1].name(),
                SimCounter::ALL[i].name()
            ));
        }
        i += 1;
    }
};

impl SimCounter {
    /// The counter called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<SimCounter> {
        SimCounter::ALL
            .binary_search_by(|c| c.name().cmp(name))
            .ok()
            .map(|i| SimCounter::ALL[i])
    }
}

/// The simulation clock: current instant, per-part time attribution,
/// per-tag time attribution and typed event counters.
///
/// # Examples
///
/// ```
/// use svt_sim::{Clock, CostPart, SimDuration};
///
/// let mut clock = Clock::new();
/// clock.push_part(CostPart::L0Handler);
/// clock.charge(SimDuration::from_ns(150));
/// clock.pop_part(CostPart::L0Handler);
/// assert_eq!(clock.part_time(CostPart::L0Handler), SimDuration::from_ns(150));
/// ```
#[derive(Debug)]
pub struct Clock {
    now: SimTime,
    part_stack: Vec<CostPart>,
    // Dense: one slot per CostPart, indexed by discriminant. `charge` is
    // the hottest function in the simulator (every primitive cost passes
    // through it), so attribution must not pay a map lookup per call.
    part_time: [SimDuration; CostPart::COUNT],
    // Tags are dense too: `push_tag` resolves a tag to its index in
    // `tag_names` (once per trap), the stack holds indices, and `charge`
    // adds into `tag_time[id]`. `None` marks a known tag not charged
    // since the last reset; a tag charged zero time is `Some(ZERO)` and
    // is reported.
    tag_stack: Vec<usize>,
    tag_names: Vec<&'static str>,
    tag_time: Vec<Option<SimDuration>>,
    counters: [u64; SimCounter::COUNT],
}

impl Default for Clock {
    fn default() -> Self {
        Clock {
            now: SimTime::default(),
            part_stack: Vec::new(),
            part_time: [SimDuration::ZERO; CostPart::COUNT],
            tag_stack: Vec::new(),
            tag_names: Vec::new(),
            tag_time: Vec::new(),
            counters: [0; SimCounter::COUNT],
        }
    }
}

impl Clock {
    /// A clock at boot time with empty attribution.
    pub fn new() -> Self {
        Clock::default()
    }

    /// The current simulated instant.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances time by `d`, attributing it to the current part and tag.
    #[inline]
    pub fn charge(&mut self, d: SimDuration) {
        self.now += d;
        let part = self.part_stack.last().copied().unwrap_or(CostPart::Other);
        self.part_time[part.index()] += d;
        if let Some(&id) = self.tag_stack.last() {
            *self.tag_time[id].get_or_insert(SimDuration::ZERO) += d;
        }
    }

    /// Advances time by `d`, attributing it to an explicit part regardless
    /// of the current stack (used for asynchronous costs like wire time).
    pub fn charge_as(&mut self, part: CostPart, d: SimDuration) {
        self.push_part(part);
        self.charge(d);
        self.pop_part(part);
    }

    /// Jumps forward to `t`, attributing the gap to [`CostPart::Idle`].
    /// Jumping to the past is a no-op (the event was already due).
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            let gap = t.since(self.now);
            self.now = t;
            self.part_time[CostPart::Idle.index()] += gap;
        }
    }

    /// Enters an attribution part; nested parts shadow outer ones.
    #[inline]
    pub fn push_part(&mut self, part: CostPart) {
        self.part_stack.push(part);
    }

    /// Leaves an attribution part.
    ///
    /// # Panics
    ///
    /// Panics if `part` is not the innermost entered part (push/pop must
    /// nest).
    #[inline]
    pub fn pop_part(&mut self, part: CostPart) {
        let top = self.part_stack.pop();
        assert_eq!(top, Some(part), "mismatched CostPart pop");
    }

    /// Enters a free-form attribution tag (e.g. an exit-reason name).
    pub fn push_tag(&mut self, tag: &'static str) {
        let id = self.tag_id(tag);
        self.tag_stack.push(id);
    }

    /// Leaves a free-form attribution tag.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is not the innermost entered tag.
    pub fn pop_tag(&mut self, tag: &'static str) {
        let top = self.tag_stack.pop().map(|id| self.tag_names[id]);
        assert_eq!(top, Some(tag), "mismatched tag pop");
    }

    /// The dense slot of `tag`, added on first sight. The tag universe is
    /// the small fixed set of exit-reason names, so a scan beats hashing.
    fn tag_id(&mut self, tag: &'static str) -> usize {
        self.find_tag(tag).unwrap_or_else(|| {
            self.tag_names.push(tag);
            self.tag_time.push(None);
            self.tag_names.len() - 1
        })
    }

    fn find_tag(&self, tag: &str) -> Option<usize> {
        self.tag_names.iter().position(|&t| t == tag)
    }

    /// Total time attributed to `part` so far.
    #[inline]
    pub fn part_time(&self, part: CostPart) -> SimDuration {
        self.part_time[part.index()]
    }

    /// Total time attributed to `tag` so far.
    pub fn tag_time(&self, tag: &str) -> SimDuration {
        self.find_tag(tag)
            .and_then(|id| self.tag_time[id])
            .unwrap_or_default()
    }

    /// Every tag charged since the last reset, in no particular order.
    fn charged_tags(&self) -> impl Iterator<Item = (&'static str, SimDuration)> + '_ {
        self.tag_names
            .iter()
            .zip(&self.tag_time)
            .filter_map(|(&name, t)| t.map(|t| (name, t)))
    }

    /// Every charged tag, sorted by name (the serialized order).
    fn tags_by_name(&self) -> Vec<(&'static str, SimDuration)> {
        let mut v: Vec<_> = self.charged_tags().collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// All tags with attributed time, sorted by descending time.
    pub fn tags_by_time(&self) -> Vec<(&'static str, SimDuration)> {
        let mut v: Vec<_> = self.charged_tags().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v
    }

    /// All parts with attributed time, sorted by descending time (used by
    /// report emitters that want the full attribution, not just Table 1).
    pub fn parts_by_time(&self) -> Vec<(CostPart, SimDuration)> {
        let mut v: Vec<_> = CostPart::ALL
            .iter()
            .map(|&p| (p, self.part_time[p.index()]))
            .filter(|(_, d)| !d.is_zero())
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Increments a counter.
    #[inline]
    pub fn count(&mut self, counter: SimCounter) {
        self.counters[counter as usize] += 1;
    }

    /// Current value of the counter called `name` (0 for unknown names).
    pub fn counter(&self, name: &str) -> u64 {
        SimCounter::from_name(name).map_or(0, |c| self.counters[c as usize])
    }

    /// Every counted counter with its value, in name order.
    fn counted(&self) -> impl Iterator<Item = (SimCounter, u64)> + '_ {
        SimCounter::ALL
            .iter()
            .map(|&c| (c, self.counters[c as usize]))
            .filter(|&(_, v)| v != 0)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.counted().map(|(c, v)| (c.name(), v)).collect()
    }

    /// Resets attribution and counters but keeps the current instant
    /// (used to discard warm-up iterations).
    pub fn reset_attribution(&mut self) {
        self.part_time = [SimDuration::ZERO; CostPart::COUNT];
        self.tag_time.fill(None);
        self.counters = [0; SimCounter::COUNT];
    }

    /// Serializes the full clock state (instant, stacks, attribution,
    /// counters) for [`crate::snapshot`]. Tags and counters are written
    /// by name in sorted order so identical clocks serialize to identical
    /// bytes.
    pub fn snap_save(&self, w: &mut crate::snapshot::SnapWriter) {
        w.u64(self.now.as_ps());
        w.usize(self.part_stack.len());
        for p in &self.part_stack {
            w.u8(p.index() as u8);
        }
        for d in &self.part_time {
            w.u64(d.as_ps());
        }
        w.usize(self.tag_stack.len());
        for &id in &self.tag_stack {
            w.str(self.tag_names[id]);
        }
        let tags = self.tags_by_name();
        w.usize(tags.len());
        for (k, v) in tags {
            w.str(k);
            w.u64(v.as_ps());
        }
        w.usize(self.counted().count());
        for (c, v) in self.counted() {
            w.str(c.name());
            w.u64(v);
        }
    }

    /// Restores state written by [`Clock::snap_save`]. Tag names come
    /// back as interned `&'static str`s.
    ///
    /// # Errors
    ///
    /// Typed [`crate::snapshot::SnapError`] on truncation, an
    /// out-of-range part index or an unknown counter name.
    pub fn snap_load(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        use crate::snapshot::{intern_static, SnapError};
        self.now = SimTime::from_ps(r.u64()?);
        let n = r.usize()?;
        self.part_stack.clear();
        for _ in 0..n {
            let idx = r.u8()? as usize;
            let part = *CostPart::ALL.get(idx).ok_or(SnapError::BadValue {
                what: "CostPart",
                got: idx as u64,
            })?;
            self.part_stack.push(part);
        }
        for slot in self.part_time.iter_mut() {
            *slot = SimDuration::from_ps(r.u64()?);
        }
        let n = r.usize()?;
        self.tag_stack.clear();
        for _ in 0..n {
            let id = self.tag_id(intern_static(r.str()?));
            self.tag_stack.push(id);
        }
        let n = r.usize()?;
        self.tag_time.fill(None);
        for _ in 0..n {
            let id = self.tag_id(intern_static(r.str()?));
            self.tag_time[id] = Some(SimDuration::from_ps(r.u64()?));
        }
        let n = r.usize()?;
        self.counters = [0; SimCounter::COUNT];
        for _ in 0..n {
            let name = r.str()?;
            let c = SimCounter::from_name(name).ok_or_else(|| SnapError::UnknownName {
                what: "clock counter",
                name: name.to_owned(),
            })?;
            self.counters[c as usize] = r.u64()?;
        }
        Ok(())
    }

    /// Folds the clock's externally observable state into a fingerprint:
    /// the instant, every part bucket, and every counter/tag in sorted
    /// order.
    pub fn snap_fingerprint(&self, fp: &mut crate::snapshot::Fingerprint) {
        fp.fold(self.now.as_ps());
        for d in &self.part_time {
            fp.fold(d.as_ps());
        }
        for (k, v) in self.tags_by_name() {
            fp.fold_bytes(k.as_bytes());
            fp.fold(v.as_ps());
        }
        for (c, v) in self.counted() {
            fp.fold_bytes(c.name().as_bytes());
            fp.fold(v);
        }
    }

    /// Takes a snapshot of the attribution state for later differencing.
    ///
    /// The snapshot keeps the public `HashMap` shape (the dense arrays
    /// are an internal representation); only parts with non-zero time
    /// appear.
    pub fn snapshot(&self) -> ClockSnapshot {
        ClockSnapshot {
            now: self.now,
            part_time: CostPart::ALL
                .iter()
                .map(|&p| (p, self.part_time[p.index()]))
                .filter(|(_, d)| !d.is_zero())
                .collect(),
            tag_time: self.charged_tags().collect(),
            counters: self.counters().into_iter().collect(),
        }
    }

    /// Attribution accumulated since `base` was snapshot. Every bucket
    /// saturates at zero, so a [`Clock::reset_attribution`] between the
    /// snapshot and the diff yields empty buckets rather than wrapping.
    pub fn since_snapshot(&self, base: &ClockSnapshot) -> ClockSnapshot {
        ClockSnapshot {
            now: self.now,
            part_time: CostPart::ALL
                .iter()
                .map(|&p| {
                    let prev = base.part_time.get(&p).copied().unwrap_or_default();
                    (p, self.part_time[p.index()].saturating_sub(prev))
                })
                .filter(|(_, v)| !v.is_zero())
                .collect(),
            tag_time: self
                .charged_tags()
                .map(|(k, v)| (k, v.saturating_sub(base.tag_time(k))))
                .filter(|(_, v)| !v.is_zero())
                .collect(),
            counters: self
                .counted()
                .map(|(c, v)| (c.name(), v.saturating_sub(base.counter(c.name()))))
                .filter(|(_, v)| *v != 0)
                .collect(),
        }
    }
}

/// A frozen view of the clock's attribution state.
#[derive(Debug, Clone, Default)]
pub struct ClockSnapshot {
    /// Instant at which the snapshot was taken.
    pub now: SimTime,
    /// Per-part accumulated time.
    pub part_time: HashMap<CostPart, SimDuration>,
    /// Per-tag accumulated time.
    pub tag_time: HashMap<&'static str, SimDuration>,
    /// Counter values.
    pub counters: HashMap<&'static str, u64>,
}

impl ClockSnapshot {
    /// Time attributed to `part` in this snapshot.
    pub fn part_time(&self, part: CostPart) -> SimDuration {
        self.part_time.get(&part).copied().unwrap_or_default()
    }

    /// Time attributed to `tag` in this snapshot.
    pub fn tag_time(&self, tag: &str) -> SimDuration {
        self.tag_time.get(tag).copied().unwrap_or_default()
    }

    /// Counter value in this snapshot.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All parts with attributed time, sorted by descending time.
    pub fn parts_by_time(&self) -> Vec<(CostPart, SimDuration)> {
        let mut v: Vec<_> = self.part_time.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// All tags with attributed time, sorted by descending time.
    pub fn tags_by_time(&self) -> Vec<(&'static str, SimDuration)> {
        let mut v: Vec<_> = self.tag_time.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        v
    }

    /// All counters, sorted by name.
    pub fn counters_sorted(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.counters.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Sum of all attributed (non-idle) time.
    pub fn busy_time(&self) -> SimDuration {
        self.part_time
            .iter()
            .filter(|(p, _)| **p != CostPart::Idle)
            .map(|(_, d)| *d)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_attributes_to_current_part() {
        let mut c = Clock::new();
        c.push_part(CostPart::Transform);
        c.charge(SimDuration::from_ns(100));
        c.pop_part(CostPart::Transform);
        c.charge(SimDuration::from_ns(7));
        assert_eq!(c.part_time(CostPart::Transform), SimDuration::from_ns(100));
        assert_eq!(c.part_time(CostPart::Other), SimDuration::from_ns(7));
        assert_eq!(c.now(), SimTime::from_ns(107));
    }

    #[test]
    fn nested_parts_shadow() {
        let mut c = Clock::new();
        c.push_part(CostPart::L0Handler);
        c.charge(SimDuration::from_ns(10));
        c.push_part(CostPart::Transform);
        c.charge(SimDuration::from_ns(20));
        c.pop_part(CostPart::Transform);
        c.charge(SimDuration::from_ns(5));
        c.pop_part(CostPart::L0Handler);
        assert_eq!(c.part_time(CostPart::L0Handler), SimDuration::from_ns(15));
        assert_eq!(c.part_time(CostPart::Transform), SimDuration::from_ns(20));
    }

    #[test]
    #[should_panic(expected = "mismatched CostPart pop")]
    fn mismatched_pop_panics() {
        let mut c = Clock::new();
        c.push_part(CostPart::L2Guest);
        c.pop_part(CostPart::L1Handler);
    }

    #[test]
    fn advance_to_charges_idle() {
        let mut c = Clock::new();
        c.charge(SimDuration::from_ns(10));
        c.advance_to(SimTime::from_ns(50));
        assert_eq!(c.part_time(CostPart::Idle), SimDuration::from_ns(40));
        // Jumping backwards is a no-op.
        c.advance_to(SimTime::from_ns(1));
        assert_eq!(c.now(), SimTime::from_ns(50));
    }

    #[test]
    fn tags_accumulate_independently() {
        let mut c = Clock::new();
        c.push_part(CostPart::L0Handler);
        c.push_tag("EPT_MISCONFIG");
        c.charge(SimDuration::from_ns(30));
        c.pop_tag("EPT_MISCONFIG");
        c.push_tag("MSR_WRITE");
        c.charge(SimDuration::from_ns(10));
        c.pop_tag("MSR_WRITE");
        c.pop_part(CostPart::L0Handler);
        assert_eq!(c.tag_time("EPT_MISCONFIG"), SimDuration::from_ns(30));
        assert_eq!(c.tag_time("MSR_WRITE"), SimDuration::from_ns(10));
        assert_eq!(c.part_time(CostPart::L0Handler), SimDuration::from_ns(40));
        let by_time = c.tags_by_time();
        assert_eq!(by_time[0].0, "EPT_MISCONFIG");
    }

    #[test]
    fn counters_count() {
        let mut c = Clock::new();
        c.count(SimCounter::L1Exit);
        c.count(SimCounter::L1Exit);
        for _ in 0..5 {
            c.count(SimCounter::Vmread);
        }
        assert_eq!(c.counter("l1_exit"), 2);
        assert_eq!(c.counter("vmread"), 5);
        assert_eq!(c.counter("missing"), 0);
        assert_eq!(c.counters(), vec![("l1_exit", 2), ("vmread", 5)]);
    }

    #[test]
    fn counter_names_round_trip() {
        for c in SimCounter::ALL {
            assert_eq!(SimCounter::from_name(c.name()), Some(c));
        }
        assert_eq!(SimCounter::from_name("vm_exit"), None);
    }

    #[test]
    fn zero_charge_still_reports_the_tag() {
        let mut c = Clock::new();
        c.push_tag("HLT");
        c.charge(SimDuration::ZERO);
        c.pop_tag("HLT");
        c.push_tag("PAUSE");
        c.pop_tag("PAUSE");
        assert_eq!(c.tags_by_time(), vec![("HLT", SimDuration::ZERO)]);
    }

    #[test]
    fn unknown_counter_name_is_a_typed_snapshot_error() {
        use crate::snapshot::{SnapError, SnapReader, SnapWriter};
        let mut w = SnapWriter::new();
        Clock::new().snap_save(&mut w);
        let mut bytes = w.into_vec();
        // Replace the empty counter list with one unknown name.
        bytes.truncate(bytes.len() - 8);
        let mut tail = SnapWriter::new();
        tail.usize(1);
        tail.str("vm_exit");
        tail.u64(1);
        bytes.extend(tail.into_vec());
        let err = Clock::new().snap_load(&mut SnapReader::new(&bytes));
        assert_eq!(
            err,
            Err(SnapError::UnknownName {
                what: "clock counter",
                name: "vm_exit".into()
            })
        );
    }

    #[test]
    fn snapshot_differencing() {
        let mut c = Clock::new();
        c.push_part(CostPart::L2Guest);
        c.charge(SimDuration::from_ns(10));
        let snap = c.snapshot();
        c.charge(SimDuration::from_ns(15));
        c.count(SimCounter::L1Exit);
        c.pop_part(CostPart::L2Guest);
        let d = c.since_snapshot(&snap);
        assert_eq!(d.part_time(CostPart::L2Guest), SimDuration::from_ns(15));
        assert_eq!(d.counter("l1_exit"), 1);
        assert_eq!(d.busy_time(), SimDuration::from_ns(15));
    }

    #[test]
    fn since_snapshot_saturates_across_a_reset() {
        let mut c = Clock::new();
        c.push_tag("CPUID");
        c.charge(SimDuration::from_ns(40));
        for _ in 0..3 {
            c.count(SimCounter::L1Exit);
        }
        let base = c.snapshot();
        c.reset_attribution();
        c.charge(SimDuration::from_ns(10));
        c.count(SimCounter::L1Exit);
        c.count(SimCounter::Vmread);
        c.pop_tag("CPUID");
        let d = c.since_snapshot(&base);
        assert_eq!(d.counter("l1_exit"), 0);
        assert_eq!(d.counter("vmread"), 1);
        assert_eq!(d.tag_time("CPUID"), SimDuration::ZERO);
        assert_eq!(d.part_time(CostPart::Other), SimDuration::ZERO);
    }

    #[test]
    fn charge_as_is_stack_neutral() {
        let mut c = Clock::new();
        c.push_part(CostPart::L2Guest);
        c.charge_as(CostPart::Wire, SimDuration::from_ns(100));
        c.charge(SimDuration::from_ns(1));
        c.pop_part(CostPart::L2Guest);
        assert_eq!(c.part_time(CostPart::Wire), SimDuration::from_ns(100));
        assert_eq!(c.part_time(CostPart::L2Guest), SimDuration::from_ns(1));
    }

    #[test]
    fn reset_attribution_keeps_time() {
        let mut c = Clock::new();
        c.charge(SimDuration::from_ns(42));
        c.count(SimCounter::Ctxtld);
        c.reset_attribution();
        assert_eq!(c.now(), SimTime::from_ns(42));
        assert_eq!(c.counter("ctxtld"), 0);
        assert_eq!(c.part_time(CostPart::Other), SimDuration::ZERO);
    }
}
