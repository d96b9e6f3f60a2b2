//! System tests for the discovered-failure robustness layer: REFER running
//! without the fault oracle, and Section III-B4 maintenance keeping a cell
//! alive while members drain their batteries.

use refer::{ReferConfig, ReferProtocol};
use wsan_sim::{runner, FaultModel, SimConfig, SimDuration};

fn smoke_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::smoke();
    cfg.seed = seed;
    cfg
}

fn run_refer(cfg: SimConfig, rcfg: ReferConfig) -> (wsan_sim::RunSummary, ReferProtocol) {
    runner::run_owned(cfg, ReferProtocol::new(rcfg))
}

#[test]
fn discovered_mode_survives_faults_without_the_oracle() {
    let mut cfg = smoke_cfg(11);
    cfg.faults.count = 10;
    cfg.faults.model = FaultModel::Discovered;
    let (summary, refer) = run_refer(cfg, ReferConfig::default());
    assert_eq!(
        summary.oracle_queries, 0,
        "an honest discovered-mode run never consults the fault oracle"
    );
    assert!(
        summary.delivery_ratio > 0.3,
        "retransmission + diversion sustain delivery under faults: {summary:?}, stats {:?}",
        refer.stats
    );
    assert!(summary.retransmissions > 0, "silent peers force retries: {summary:?}");
    assert!(
        refer.stats.expiry_diversions > 0,
        "expired frames get diverted onto other paths: {:?}",
        refer.stats
    );
    assert!(
        summary.detections > 0,
        "ACK timeouts and missed heartbeats expose broken members: {summary:?}"
    );
    assert!(summary.mean_detection_latency_s > 0.0);
}

#[test]
fn oracle_mode_still_consults_the_oracle() {
    // The contrast that makes the zero above meaningful.
    let mut cfg = smoke_cfg(11);
    cfg.faults.count = 10;
    cfg.faults.model = FaultModel::Oracle;
    let (summary, _) = run_refer(cfg, ReferConfig::default());
    assert!(summary.oracle_queries > 0, "{summary:?}");
    assert_eq!(summary.retransmissions, 0, "oracle sends need no ACK layer");
}

#[test]
fn discovered_runs_stay_deterministic() {
    let mut cfg = smoke_cfg(12);
    cfg.faults.count = 10;
    cfg.faults.model = FaultModel::Discovered;
    let (a, _) = run_refer(cfg.clone(), ReferConfig::default());
    let (b, _) = run_refer(cfg, ReferConfig::default());
    assert_eq!(a, b);
}

/// Battery-drain scenario shared by the maintenance tests: small batteries,
/// permanent depletion, a run long enough for members to die mid-flight.
fn drain_cfg(seed: u64) -> SimConfig {
    let mut cfg = smoke_cfg(seed);
    cfg.faults.battery_death = true;
    cfg.initial_battery = 400.0;
    cfg.duration = SimDuration::from_secs(120);
    cfg
}

#[test]
fn maintenance_hands_over_kids_as_batteries_drain() {
    let (summary, refer) = run_refer(drain_cfg(13), ReferConfig::default());
    assert!(
        summary.handovers >= 1,
        "draining members must hand their KIDs to fresh candidates: {:?}",
        refer.stats
    );
}

#[test]
fn handovers_keep_delivery_above_a_static_membership() {
    let maintained = run_refer(drain_cfg(13), ReferConfig::default()).0;
    let static_cfg = ReferConfig { maintenance_enabled: false, ..Default::default() };
    let frozen = run_refer(drain_cfg(13), static_cfg).0;
    assert!(maintained.handovers >= 1);
    assert_eq!(frozen.handovers, 0, "static membership performs no handovers");
    assert!(
        maintained.delivery_ratio > frozen.delivery_ratio,
        "replacement keeps the cell routing ({}) above the static control ({})",
        maintained.delivery_ratio,
        frozen.delivery_ratio
    );
}
