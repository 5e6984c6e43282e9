//! Export cost: a flight-recorder trip renders each lane's last K events,
//! never one JSON node per retained causal event.
//!
//! SW SVt trips the recorder on every forced fallback, mid-run, with a
//! causal ring holding tens of thousands of events. The allocation check
//! is deterministic: the test binary installs the counting allocator and
//! compares one trip on a ~1k-event graph with one on a ~50k-event graph.
//! A trip whose cost grows with the ring makes tens of thousands more
//! allocations on the larger graph; a K-tail trip makes at most a few
//! more (its output `String` grows once or twice for the wider numbers).
//!
//! The selection checks compare every dump lane with a local copy of the
//! straightforward forward scan that keeps the last K events per lane.

use svt::obs::hostprof::{thread_alloc_totals, CountingAlloc};
use svt::obs::{CausalGraph, FlightRecorder, Json, MetricsRegistry, ObsLevel};
use svt::sim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation slack between the small and the large graph's trip.
const MAX_EXTRA_ALLOCS: u64 = 8;

/// A graph with `n` events on `lanes` (round robin), every fifth one a
/// routed machine event whose cause is the previous event.
fn graph(capacity: usize, n: u64, lanes: &[u32]) -> CausalGraph {
    let mut g = CausalGraph::with_capacity(capacity);
    g.enable();
    let mut prev = None;
    for i in 0..n {
        let vcpu = lanes[(i % lanes.len() as u64) as usize];
        let at = SimTime::from_ns(10 * (i + 1));
        prev = if i % 5 == 4 {
            g.route("ipi_send", vcpu, at, prev)
        } else {
            g.set_vcpu(vcpu);
            g.record("vm_exit", ObsLevel::L2, at)
        };
    }
    g
}

fn armed(k: usize) -> FlightRecorder {
    let mut fr = FlightRecorder::new();
    fr.enable_with(k);
    fr
}

fn trip_allocs(g: &CausalGraph) -> u64 {
    let mut fr = armed(svt::obs::DEFAULT_FLIGHT_K);
    let m = MetricsRegistry::new();
    let (before, _) = thread_alloc_totals();
    fr.trip("forced_fallback", SimTime::from_us(1_000), g, &m);
    let (after, _) = thread_alloc_totals();
    assert_eq!(fr.trips(), 1);
    after - before
}

#[test]
fn flight_trip_allocations_do_not_grow_with_the_causal_ring() {
    let small = graph(1 << 16, 1_000, &[0, 1]);
    let large = graph(1 << 16, 50_000, &[0, 1]);
    assert_eq!(large.len(), 50_000, "the large ring retains every event");
    let (a_small, a_large) = (trip_allocs(&small), trip_allocs(&large));
    assert!(a_small > 0, "the counting allocator is installed");
    assert!(
        a_large <= a_small + MAX_EXTRA_ALLOCS,
        "trip on 50k events made {a_large} allocations vs {a_small} on 1k"
    );
}

/// Each lane's event objects as the forward scan with `remove(0)` picks
/// and renders them.
fn reference_tails(g: &CausalGraph, k: usize, proto_lanes: usize) -> Vec<Vec<Json>> {
    let n = g
        .events()
        .map(|e| e.vcpu as usize + 1)
        .max()
        .unwrap_or(0)
        .max(proto_lanes);
    let mut tails: Vec<Vec<Json>> = vec![Vec::new(); n];
    for e in g.events() {
        let lane = &mut tails[e.vcpu as usize];
        if lane.len() == k {
            lane.remove(0);
        }
        lane.push(Json::obj([
            ("id", Json::from(e.id.raw())),
            ("phase", Json::from(e.phase)),
            ("level", Json::from(e.level.name())),
            ("at_ps", Json::from(e.at.as_ps())),
            (
                "preds",
                Json::arr(e.preds.iter().map(|p| Json::from(p.raw()))),
            ),
        ]));
    }
    tails
}

fn dump_tails(fr: &FlightRecorder) -> Vec<Vec<Json>> {
    let dump = fr.last_dump().expect("trip produced a dump");
    dump.get("vcpus")
        .and_then(Json::as_arr)
        .expect("vcpus array")
        .iter()
        .enumerate()
        .map(|(v, lane)| {
            assert_eq!(lane.get("vcpu").and_then(Json::as_i64), Some(v as i64));
            lane.get("events").and_then(Json::as_arr).unwrap().to_vec()
        })
        .collect()
}

/// Trips a K-recorder on `g`, with protocol state noted for `proto_lanes`
/// lanes, and compares every lane with the reference scan.
fn assert_tails_match(g: &CausalGraph, k: usize, proto_lanes: usize) -> Vec<Vec<Json>> {
    let mut fr = armed(k);
    if proto_lanes > 0 {
        fr.note_protocol(proto_lanes as u32 - 1, 3, false, "degraded");
    }
    fr.trip(
        "forced_fallback",
        SimTime::from_us(1_000),
        g,
        &MetricsRegistry::new(),
    );
    let got = dump_tails(&fr);
    assert_eq!(got, reference_tails(g, k, proto_lanes));
    got
}

#[test]
fn tails_match_the_forward_scan_after_ring_eviction() {
    // 1000 events through a 100-slot ring; lane 3 only records early and
    // is evicted entirely, so the graph has seen more lanes than it keeps.
    let mut g = graph(100, 40, &[0, 1, 2, 3]);
    for i in 0..960 {
        g.set_vcpu((i % 3) as u32);
        g.record("vm_entry", ObsLevel::L1, SimTime::from_us(1 + i));
    }
    assert!(g.dropped() > 0);
    assert_eq!(g.lanes(), 4);
    let tails = assert_tails_match(&g, 32, 0);
    assert_eq!(tails.len(), 3, "a fully evicted lane is not dumped");
    assert!(tails.iter().all(|t| t.len() == 32));
}

#[test]
fn tails_match_the_forward_scan_for_a_short_lane() {
    // Lane 2 keeps 4 events, fewer than K: the walk covers the whole ring.
    let mut g = graph(1 << 16, 4, &[2]);
    let more = graph(1 << 16, 500, &[0, 1]);
    for e in more.events() {
        g.set_vcpu(e.vcpu);
        g.record(e.phase, e.level, SimTime::from_ps(e.at.as_ps() + 1_000_000));
    }
    let tails = assert_tails_match(&g, 32, 0);
    assert_eq!(tails.iter().map(Vec::len).collect::<Vec<_>>(), [32, 32, 4]);
    assert_tails_match(&g, 3, 0);
    assert_tails_match(&g, 1000, 0);
}

#[test]
fn tails_match_the_forward_scan_across_a_vcpu_index_gap() {
    let g = graph(1 << 16, 300, &[0, 3]);
    let tails = assert_tails_match(&g, 32, 0);
    assert_eq!(
        tails.iter().map(Vec::len).collect::<Vec<_>>(),
        [32, 0, 0, 32]
    );
}

#[test]
fn tails_cover_protocol_lanes_beyond_the_vcpus_seen() {
    let g = graph(1 << 16, 300, &[0, 1]);
    let tails = assert_tails_match(&g, 32, 6);
    assert_eq!(tails.len(), 6);
    assert!(tails[2..].iter().all(Vec::is_empty));
    // An empty graph still dumps the protocol lanes.
    let empty = graph(1 << 16, 0, &[0]);
    assert_eq!(assert_tails_match(&empty, 32, 2).len(), 2);
}
