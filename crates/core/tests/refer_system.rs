//! System-level tests of the full REFER protocol on the simulator.

use kautz::KautzId;
use refer::cells::corner_kids;
use refer::{ReferConfig, ReferProtocol};
use std::collections::{BTreeMap, HashMap};
use wsan_sim::config::in_unit_disk;
use wsan_sim::{runner, NodeId, Point, SimConfig, SimDuration};

fn smoke_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::smoke();
    cfg.seed = seed;
    cfg
}

fn run_refer(cfg: SimConfig) -> (wsan_sim::RunSummary, ReferProtocol) {
    runner::run_owned(cfg, ReferProtocol::new(ReferConfig::default()))
}

#[test]
fn construction_builds_all_four_cells() {
    let (_, refer) = run_refer(smoke_cfg(1));
    let layout = refer.layout().expect("quincunx forms cells");
    assert_eq!(layout.cells.len(), 4);
    assert_eq!(refer.stats.cells_ready, 4);
    for cell in 0..4 {
        let roster = refer.roster(cell).expect("cell exists");
        assert_eq!(roster.len(), 12, "complete K(2,3): 3 actuators + 9 sensors");
    }
}

#[test]
fn rosters_cover_the_whole_kautz_graph() {
    let (_, refer) = run_refer(smoke_cfg(2));
    let graph = kautz::KautzGraph::new(2, 3).expect("valid");
    for cell in 0..4 {
        let roster = refer.roster(cell).expect("cell exists");
        for v in graph.nodes() {
            assert!(roster.contains_key(&v), "cell {cell} missing {v}");
        }
    }
}

/// The message-driven embedding places every node at most once: a sensor
/// holds at most one `(cell, KID)`, and an actuator holds exactly the
/// corner KID of its color in each cell it is a corner of, as each cell
/// stood at its `CellReady`.
#[test]
fn construction_embeds_each_node_at_most_once() {
    for seed in 1..=3 {
        let cfg = smoke_cfg(seed);
        let (_, refer) = run_refer(cfg.clone());
        let layout = refer.layout().expect("quincunx forms cells");
        assert_eq!(refer.snapshots.len(), layout.cells.len(), "seed {seed}");
        let mut held: BTreeMap<NodeId, Vec<(usize, KautzId)>> = BTreeMap::new();
        for snap in &refer.snapshots {
            for &(kid, node, _, is_actuator) in &snap.members {
                // The runner numbers the sensors first, then the actuators.
                assert_eq!(is_actuator, node.index() >= cfg.sensors, "seed {seed}: {node:?}");
                held.entry(node).or_default().push((snap.cell, kid));
            }
        }
        for (node, places) in held.range(..NodeId(cfg.sensors as u32)) {
            assert!(places.len() <= 1, "seed {seed}: sensor {node:?} holds {places:?}");
        }
        let corners = corner_kids(2);
        for (a, color) in layout.colors.iter().enumerate() {
            let node = NodeId((cfg.sensors + a) as u32);
            let expected: Vec<(usize, KautzId)> = layout
                .cells
                .iter()
                .enumerate()
                .filter(|(_, cell)| cell.corners.contains(&a))
                .map(|(c, _)| (c, corners[usize::from(color.expect("a corner has a color"))]))
                .collect();
            let mut got = held.get(&node).cloned().unwrap_or_default();
            got.sort();
            assert_eq!(got, expected, "seed {seed}: actuator {node:?}");
        }
    }
}

/// How many of each cell's 24 Kautz arcs `u -> v` were physical links at
/// the cell's `CellReady`: `v`'s owner within the radio range of `u`'s
/// owner (actuator or sensor range). Pinned per seed and cell; the
/// TTL=2 queries and the coordinator's fallback link 17–22 of the 24.
#[test]
fn embedded_arcs_that_are_physical_links_are_pinned() {
    const LINKED: [[usize; 4]; 3] = [[19, 22, 19, 21], [18, 22, 17, 18], [19, 18, 21, 17]];
    let graph = kautz::KautzGraph::new(2, 3).expect("valid");
    let arcs: Vec<(KautzId, KautzId)> = graph.arcs().collect();
    assert_eq!(arcs.len(), 24);
    let mut got = [[0; 4]; 3];
    for (seed, row) in (1..=3).zip(got.iter_mut()) {
        let cfg = smoke_cfg(seed);
        let (_, refer) = run_refer(cfg.clone());
        assert_eq!(refer.snapshots.len(), 4, "seed {seed}");
        for snap in &refer.snapshots {
            let at: HashMap<KautzId, (Point, bool)> =
                snap.members.iter().map(|&(kid, _, pos, act)| (kid, (pos, act))).collect();
            row[snap.cell] = arcs
                .iter()
                .filter(|(u, v)| {
                    let ((pu, actuator), (pv, _)) = (at[u], at[v]);
                    let range = if actuator { cfg.actuator_range } else { cfg.sensor_range };
                    in_unit_disk(pu.distance(&pv), range)
                })
                .count();
        }
    }
    assert_eq!(got, LINKED);
}

#[test]
fn delivers_most_packets_without_faults() {
    let (summary, refer) = run_refer(smoke_cfg(3));
    assert!(
        summary.delivery_ratio > 0.7,
        "REFER should deliver most packets: {summary:?}, stats {:?}",
        refer.stats
    );
    assert!(summary.mean_delay_s > 0.0 && summary.mean_delay_s < 0.6);
}

#[test]
fn fault_injection_triggers_alternate_paths() {
    let mut cfg = smoke_cfg(4);
    cfg.faults.count = 10;
    let (summary, refer) = run_refer(cfg);
    assert!(
        refer.stats.alt_path_switches > 0,
        "failures should divert onto disjoint paths: {:?}",
        refer.stats
    );
    assert!(summary.delivery_ratio > 0.3, "{summary:?}");
}

#[test]
fn mobility_triggers_replacements() {
    let mut cfg = smoke_cfg(5);
    cfg.mobility.max_speed = 5.0;
    cfg.duration = SimDuration::from_secs(120);
    let (summary, refer) = run_refer(cfg);
    assert!(
        summary.handovers > 0,
        "members drifting out of range must hand off their KIDs: {:?}",
        refer.stats
    );
}

#[test]
fn construction_energy_is_separated_from_communication() {
    let (summary, _) = run_refer(smoke_cfg(6));
    assert!(summary.energy_construction_j > 0.0, "queries and notifications cost energy");
    assert!(summary.energy_communication_j > 0.0, "data and beacons cost energy");
    // Figure 11's observation: construction is a small fraction of total.
    assert!(
        summary.energy_construction_j < summary.energy_communication_j,
        "construction {} < communication {}",
        summary.energy_construction_j,
        summary.energy_communication_j
    );
}

#[test]
fn cross_cell_traffic_rides_the_can_tier() {
    let rcfg = ReferConfig { cross_cell_fraction: 0.5, ..Default::default() };
    let mut cfg = smoke_cfg(7);
    cfg.traffic.rate_bps = 40_000.0;
    let (summary, refer) = runner::run_owned(cfg, ReferProtocol::new(rcfg));
    assert!(refer.stats.inter_cell_hops > 0, "half the packets go remote: {:?}", refer.stats);
    assert!(summary.delivery_ratio > 0.3, "{summary:?}");
}

#[test]
fn same_seed_is_deterministic() {
    let (a, _) = run_refer(smoke_cfg(8));
    let (b, _) = run_refer(smoke_cfg(8));
    assert_eq!(a, b);
}

#[test]
fn sparse_deployment_degrades_gracefully() {
    // Two actuators cannot form a triangle: every packet is dropped, none
    // delivered, and the protocol does not panic.
    let mut cfg = smoke_cfg(9);
    cfg.actuators = 2;
    cfg.duration = SimDuration::from_secs(20);
    let (summary, refer) = run_refer(cfg);
    assert!(refer.layout().is_none());
    assert_eq!(summary.delivery_ratio, 0.0);
    assert!(summary.drop_no_access > 0);
}

#[test]
fn qos_deliveries_meet_the_deadline() {
    let (summary, _) = run_refer(smoke_cfg(10));
    assert!(summary.qos_delivery_ratio <= summary.delivery_ratio);
    assert!(summary.mean_delay_s <= 0.6, "QoS mean delay respects the deadline");
}
