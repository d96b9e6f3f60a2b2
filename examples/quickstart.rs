//! Quickstart: the Kautz theory in five lines, then a full REFER
//! simulation of the paper's scenario at reduced duration.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use refer_wsan::kautz::{disjoint_paths, greedy_path, KautzGraph, KautzId};
use refer_wsan::refer::{ReferConfig, ReferProtocol};
use refer_wsan::wsan_sim::{runner, SimConfig, SimDuration};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The Kautz graph K(2, 3): the paper's per-cell overlay. ------
    let graph = KautzGraph::new(2, 3).expect("valid parameters");
    println!(
        "K(2,3): {} vertices, {} arcs, Moore bound {}",
        graph.node_count(),
        graph.edge_count(),
        graph.moore_bound()
    );

    // --- 2. ID-only routing (Theorem 3.8). ------------------------------
    let u = KautzId::parse("0123", 4)?;
    let v = KautzId::parse("2301", 4)?;
    let shortest = greedy_path(&u, &v)?;
    println!(
        "shortest {u} -> {v}: {}",
        shortest.iter().map(ToString::to_string).collect::<Vec<_>>().join(" -> ")
    );
    println!("all {} disjoint paths, straight from the IDs:", u.degree());
    for plan in disjoint_paths(&u, &v)? {
        println!(
            "  via {} in {} hops ({:?}{})",
            plan.successor,
            plan.length,
            plan.class,
            plan.forced_digit
                .map(|d| format!(", forced digit {d}"))
                .unwrap_or_default()
        );
    }

    // --- 3. A REFER simulation (the paper's scenario, shortened). -------
    let mut cfg = SimConfig::paper();
    cfg.warmup = SimDuration::from_secs(20);
    cfg.duration = SimDuration::from_secs(100);
    cfg.seed = 7;
    let mut protocol = ReferProtocol::new(ReferConfig::default());
    let summary = runner::run(cfg, &mut protocol);
    println!("\nREFER, 200 sensors / 5 actuators / 4 cells of K(2,3), 100 s:");
    println!("  cells built:        {}", protocol.stats.cells_ready);
    println!("  QoS throughput:     {:.0} B/s", summary.throughput_bps);
    println!("  mean delay:         {:.1} ms", summary.mean_delay_s * 1e3);
    println!("  delivery ratio:     {:.1} %", summary.delivery_ratio * 100.0);
    println!("  energy (comm):      {:.0} J", summary.energy_communication_j);
    println!("  energy (construct): {:.0} J", summary.energy_construction_j);
    println!("  alternate paths:    {}", protocol.stats.alt_path_switches);
    println!("  node replacements:  {}", summary.handovers);
    Ok(())
}
