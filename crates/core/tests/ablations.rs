//! Ablation tests for the design choices DESIGN.md calls out: the
//! awake/sleep maintenance scheme and the Kautz degree of the cells.

use refer::{ReferConfig, ReferProtocol};
use wsan_sim::{runner, SimConfig, SimDuration};

fn mobile_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::smoke();
    cfg.mobility.max_speed = 4.0;
    cfg.warmup = SimDuration::from_secs(20);
    cfg.duration = SimDuration::from_secs(150);
    cfg.seed = seed;
    cfg
}

#[test]
fn maintenance_keeps_the_topology_alive_under_mobility() {
    // Section III-B4's node replacement is load-bearing: without it the
    // embedded graph decays as members walk away from their neighbors.
    let with = {
        let cfg = mobile_cfg(21);
        let (s, p) = runner::run_owned(cfg, ReferProtocol::new(ReferConfig::default()));
        assert!(s.handovers > 0, "maintenance must fire: {:?}", p.stats);
        s
    };
    let without = {
        let cfg = mobile_cfg(21);
        let rcfg = ReferConfig { maintenance_enabled: false, ..Default::default() };
        let (s, _) = runner::run_owned(cfg, ReferProtocol::new(rcfg));
        assert_eq!(s.handovers, 0, "ablated runs must not replace");
        s
    };
    assert!(
        with.qos_delivery_ratio > without.qos_delivery_ratio,
        "maintained {} vs ablated {}",
        with.qos_delivery_ratio,
        without.qos_delivery_ratio
    );
}

#[test]
fn ablated_maintenance_spends_less_on_control_but_loses_data() {
    let cfg = mobile_cfg(22);
    let (with_s, _) = runner::run_owned(cfg.clone(), ReferProtocol::new(ReferConfig::default()));
    let rcfg = ReferConfig { maintenance_enabled: false, ..Default::default() };
    let (without_s, _) = runner::run_owned(cfg, ReferProtocol::new(rcfg));
    // The ablation delivers less...
    assert!(without_s.delivery_ratio < with_s.delivery_ratio + 1e-9);
    // ...and both still deliver something (direct/alternate fallbacks).
    assert!(without_s.delivery_ratio > 0.1, "{without_s:?}");
}

#[test]
fn degree_three_cells_build_and_route() {
    // The paper's future work: K(d, 3) with varying d. A K(3, 3) cell has
    // 36 vertices (3 actuators + 33 sensors), so give the deployment
    // enough sensors and let the embedding (queries + logical fallback)
    // fill all four cells.
    let rcfg = ReferConfig { degree: 3, ..Default::default() };
    let mut cfg = SimConfig::smoke();
    cfg.sensors = 220;
    cfg.warmup = SimDuration::from_secs(20);
    cfg.duration = SimDuration::from_secs(60);
    cfg.seed = 23;
    let (summary, p) = runner::run_owned(cfg, ReferProtocol::new(rcfg));
    assert_eq!(p.stats.cells_ready, 4);
    for cell in 0..4 {
        assert_eq!(
            p.roster(cell).expect("cell exists").len(),
            36,
            "complete K(3,3) roster"
        );
    }
    assert!(summary.delivery_ratio > 0.5, "{summary:?} {:?}", p.stats);
}

#[test]
fn degree_choice_trades_construction_energy_for_path_diversity() {
    // Larger d embeds more sensors per cell (more construction energy) but
    // gives every relay more disjoint alternatives.
    let run = |degree: u8, seed: u64| {
        let rcfg = ReferConfig { degree, ..Default::default() };
        let mut cfg = SimConfig::smoke();
        cfg.sensors = 220;
        cfg.warmup = SimDuration::from_secs(20);
        cfg.duration = SimDuration::from_secs(60);
        cfg.seed = seed;
        runner::run_owned(cfg, ReferProtocol::new(rcfg))
    };
    let (d2, _) = run(2, 24);
    let (d3, _) = run(3, 24);
    assert!(
        d3.energy_construction_j > d2.energy_construction_j,
        "K(3,3) embeds 3x the sensors: {} vs {}",
        d3.energy_construction_j,
        d2.energy_construction_j
    );
}
