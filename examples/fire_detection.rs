//! Fire detection: the paper's motivating application (Section I).
//!
//! Smoke detectors densely deployed in a building report to sprinkler
//! actuators. A fire front progressively destroys sensors (fault
//! injection), so the routing layer must keep alarm packets flowing within
//! the real-time deadline while nodes die around the event.
//!
//! The example contrasts *how* REFER and DaTree recover: REFER switches to
//! an alternate disjoint path locally (no extra messages), DaTree
//! broadcasts toward its root and retransmits from the source.
//!
//! ```text
//! cargo run --example fire_detection --release
//! ```

use refer_wsan::refer::{ReferConfig, ReferProtocol};
use refer_wsan::refer_baselines::DaTreeProtocol;
use refer_wsan::wsan_sim::{runner, SimConfig, SimDuration};

/// Builds the "instrumented building" scenario: static, very dense smoke
/// detectors, with `damaged` of them burned out at any time.
fn building(damaged: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper();
    cfg.sensors = 240;
    cfg.mobility.max_speed = 0.0; // detectors are bolted to the ceiling
    cfg.faults.count = damaged;
    cfg.faults.rotation = SimDuration::from_secs(10); // the front advances
    cfg.warmup = SimDuration::from_secs(20);
    cfg.duration = SimDuration::from_secs(120);
    cfg.traffic.rate_bps = 400_000.0; // alarm bursts
    cfg.seed = seed;
    cfg
}

fn main() {
    println!("fire detection: alarm delivery while the fire destroys detectors\n");
    println!(
        "{:>8} | {:>7} {:>7} {:>9} {:>10} | {:>7} {:>7} {:>9} {:>12}",
        "damaged", "REFER%", "delay", "reroutes", "repl.", "DaTr.%", "delay", "repairs", "retransmits"
    );
    for damaged in [0usize, 15, 30, 60] {
        let (r, refer) =
            runner::run_owned(building(damaged, 5), ReferProtocol::new(ReferConfig::default()));
        let (d, datree) = runner::run_owned(building(damaged, 5), DaTreeProtocol::default());
        println!(
            "{:>8} | {:>6.1}% {:>5.0}ms {:>9} {:>10} | {:>6.1}% {:>5.0}ms {:>9} {:>12}",
            damaged,
            r.qos_delivery_ratio * 100.0,
            r.mean_delay_s * 1e3,
            refer.stats.alt_path_switches,
            r.handovers,
            d.qos_delivery_ratio * 100.0,
            d.mean_delay_s * 1e3,
            datree.stats.repairs,
            datree.stats.retransmissions,
        );
    }
    println!("\nREFER absorbs each dead detector with a local alternate-path switch");
    println!("(zero recovery messages); every DaTree repair is a broadcast toward");
    println!("the root plus a source retransmission — energy and latency per event.");
}
