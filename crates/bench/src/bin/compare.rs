//! Quick side-by-side comparison of the four systems on one scenario.
//!
//! ```text
//! cargo run -p refer-bench --release --bin compare -- --faults 4 --mobility 3
//! ```
//!
//! Its flags are `FLAGS` below; a usage error prints them and exits 2.
//! The defaults are the paper scenario at `--scale 0.2 --seed 17`.
//!
//! Prints one row per system with throughput, delay, energy split,
//! delivery ratio and load-balance metrics, plus the robustness counters
//! (retransmissions, detections, handovers, oracle consultations). A
//! matrix `--workload` appends the congestion
//! columns (queue-delay percentiles, hot-link utilization, queue drops).
//! Useful for eyeballing a configuration before committing to a full
//! sweep.
//!
//! `--fabric D,K` switches to the heavy-traffic fabric comparison: the
//! whole network is one Kautz graph `K(D, K)` (sensors = vertices), run on
//! the *sharded* engine under both routing strategies at 1 and
//! `--threads` worker threads — the two summaries must agree bit for bit —
//! and the congestion metrics are printed per strategy. This is the
//! scenario where Faber–Streib regular routing beats greedy shortest
//! routing on the queue-delay tail under all-to-all load.

use kautz::{KautzGraph, KautzId};
use refer_bench::cli::{exit_usage, Args, Command, MAX_SENSORS, SHARED, SIZE};
use refer_bench::{or_dash, run_system, ScenarioFlags, LOAD_ROUTINGS, SYSTEMS};
use refer_baselines::{fabric_config, KautzFabricProtocol};
use wsan_sim::{run_engine, Engine, ShardedConfig};

const FLAGS: Command = Command {
    name: "compare",
    positional: "",
    flags: &[&["--seed N"], SIZE, SHARED, &["--fabric D,K", "--threads T"]],
};

/// What one `compare` run does, read from its flags.
struct Run {
    scenario: ScenarioFlags,
    fabric: Option<(u8, usize)>,
    threads: usize,
}

impl Run {
    fn read(args: &Args) -> Result<Run, String> {
        Ok(Run {
            scenario: ScenarioFlags::read(args, 0.2, 17)?,
            fabric: args.value("fabric", fabric_shape)?,
            threads: args.get("threads")?.unwrap_or(2),
        })
    }
}

/// Reads `--fabric D,K`: a Kautz graph `K(D, K)` that `ArcTable::new`
/// builds, of at most [`MAX_SENSORS`] vertices, checked before anything
/// is allocated.
fn fabric_shape(v: &str) -> Result<(u8, usize), String> {
    let shape = v.split_once(',').and_then(|(d, k)| {
        Some((d.trim().parse::<u8>().ok()?, k.trim().parse::<usize>().ok()?))
    });
    let (d, k) = shape.ok_or_else(|| format!("--fabric expects D,K (e.g. 4,7), got {v:?}"))?;
    // `KautzGraph::node_count`, `(D + 1)·D^(K-1)`, with every step checked.
    let vertices = KautzGraph::new(d, k)
        .and_then(|_| usize::from(d).checked_pow(k as u32 - 1)?.checked_mul(usize::from(d) + 1));
    if vertices.is_some_and(|n| n <= MAX_SENSORS) {
        Ok((d, k))
    } else {
        Err(format!(
            "--fabric {v}: K(D, K) needs D >= 1, 1 <= K <= {} and at most \
             {MAX_SENSORS} vertices",
            KautzId::MAX_K
        ))
    }
}

fn main() {
    let run = FLAGS.parse(std::env::args().skip(1)).and_then(|args| Run::read(&args));
    let run = run.unwrap_or_else(|e| exit_usage(&e, &[&FLAGS]));
    if let Some((d, k)) = run.fabric {
        return run_fabric(&run, d, k);
    }
    let cfg = &run.scenario.config;
    let matrix = cfg.traffic.pattern.is_matrix();

    println!(
        "scenario: {} sensors, mobility [0,{}] m/s, {} faulty ({:?}), \
         link pdr {}, workload {} ({:?} routing, {} pps), scale {}, seed {}\n",
        cfg.sensors,
        cfg.mobility.max_speed,
        cfg.faults.count,
        cfg.faults.model,
        cfg.radio.link_pdr,
        cfg.traffic.pattern.name(),
        cfg.routing,
        cfg.traffic.offered_pps,
        run.scenario.scale,
        cfg.seed
    );
    print!(
        "{:>15} {:>13} {:>9} {:>8} {:>8} {:>8} {:>6} {:>12} {:>12} {:>7} {:>9} {:>9} {:>7} {:>7} {:>6} {:>8}",
        "system", "QoS thr(B/s)", "delay", "p50(ms)", "p95(ms)", "p99(ms)", "miss", "comm(J)",
        "constr(J)", "deliv", "hotspot", "fairness", "retx", "detect", "handover", "oracle"
    );
    if matrix {
        print!(
            " {:>9} {:>9} {:>9} {:>8} {:>7}",
            "q_p50(ms)", "q_p99(ms)", "q_max(ms)", "hotlink", "cdrops"
        );
    }
    println!();
    for system in SYSTEMS {
        let s = run_system(cfg, system);
        print!(
            "{:>15} {:>13.0} {:>9} {:>8} {:>8} {:>8} {:>6} {:>12.0} {:>12.0} {:>7} {:>8.0}J {:>9.2} {:>7} {:>6} {:>8} {:>7}",
            system.name(),
            s.throughput_bps,
            or_dash(s.mean_delay_s * 1e3, 1, "ms"),
            or_dash(s.delay_p50_s * 1e3, 1, ""),
            or_dash(s.delay_p95_s * 1e3, 1, ""),
            or_dash(s.delay_p99_s * 1e3, 1, ""),
            or_dash(s.deadline_miss_ratio * 100.0, 1, "%"),
            s.energy_communication_j,
            s.energy_construction_j,
            or_dash(s.delivery_ratio * 100.0, 1, "%"),
            s.hotspot_energy_j,
            s.energy_fairness,
            s.retransmissions,
            s.detections,
            s.handovers,
            s.oracle_queries,
        );
        if matrix {
            print!(
                " {:>9} {:>9} {:>9} {:>8} {:>7}",
                or_dash(s.queue_delay_p50_s * 1e3, 1, ""),
                or_dash(s.queue_delay_p99_s * 1e3, 1, ""),
                or_dash(s.queue_max_s * 1e3, 1, ""),
                or_dash(s.hot_link_utilization, 3, ""),
                s.congestion_drops,
            );
        }
        println!();
    }
}

/// `--fabric D,K`: the heavy-traffic Kautz-fabric comparison on the
/// sharded engine. Each routing strategy runs at 1 worker thread and at
/// `--threads` workers; the summaries must be bit-identical (the sharded
/// engine's output is a pure function of the config), and the 1-thread row
/// is printed.
fn run_fabric(run: &Run, d: u8, k: usize) {
    let scenario = &run.scenario.config;
    let offered = scenario.traffic.offered_pps;
    let offered = if offered > 0.0 { offered } else { 20_000.0 };
    let mut cfg = fabric_config(d, k, offered);
    if scenario.traffic.pattern.is_matrix() {
        cfg.traffic.pattern = scenario.traffic.pattern;
    }
    cfg.duration = scenario.duration;
    cfg.warmup = scenario.warmup;
    cfg.seed = scenario.seed;
    println!(
        "fabric: K({d}, {k}) = {} sensors, workload {} at {offered} pps, \
         sharded engine (1 vs {} threads), scale {}, seed {}\n",
        cfg.sensors,
        cfg.traffic.pattern.name(),
        run.threads,
        run.scenario.scale,
        scenario.seed
    );
    println!(
        "{:>16} {:>8} {:>9} {:>9} {:>9} {:>9} {:>8} {:>6} {:>8} {:>9}",
        "routing", "deliv", "p99(ms)", "q_p50(ms)", "q_p99(ms)", "q_max(ms)", "hotlink", "miss",
        "cdrops", "sharded"
    );
    for routing in LOAD_ROUTINGS {
        cfg.routing = routing;
        cfg.engine = Engine::Sharded(ShardedConfig { shards: 0, threads: 1, window_micros: 0 });
        let s1 = run_engine(cfg.clone(), &mut KautzFabricProtocol::new(d, k));
        cfg.engine = Engine::Sharded(ShardedConfig {
            shards: 0,
            threads: run.threads,
            window_micros: 0,
        });
        let st = run_engine(cfg.clone(), &mut KautzFabricProtocol::new(d, k));
        assert_eq!(
            s1, st,
            "sharded summaries diverged between 1 and {} threads",
            run.threads
        );
        println!(
            "{:>16} {:>8} {:>9} {:>9} {:>9} {:>9} {:>8} {:>6} {:>8} {:>9}",
            format!("KFabric/{routing:?}"),
            or_dash(s1.delivery_ratio * 100.0, 1, "%"),
            or_dash(s1.delay_p99_s * 1e3, 1, ""),
            or_dash(s1.queue_delay_p50_s * 1e3, 1, ""),
            or_dash(s1.queue_delay_p99_s * 1e3, 1, ""),
            or_dash(s1.queue_max_s * 1e3, 1, ""),
            or_dash(s1.hot_link_utilization, 3, ""),
            or_dash(s1.deadline_miss_ratio * 100.0, 1, "%"),
            s1.congestion_drops,
            format!("1≡{}", run.threads),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bound is checked on the parsed shape alone: no graph is built.
    #[test]
    fn fabric_shape_rejects_graphs_arc_table_refuses_or_too_large() {
        assert_eq!(fabric_shape("2,10"), Ok((2, 10)));
        // K(2, 19): 786 432 vertices, the largest binary fabric allowed.
        assert_eq!(fabric_shape("2,19"), Ok((2, 19)));
        for shape in ["2,0", "0,3", "2,20", "4,10", "9,9", "255,22", "2,23"] {
            let err = fabric_shape(shape).expect_err(shape);
            assert!(err.starts_with("--fabric"), "{err}");
        }
        assert!(fabric_shape("2").expect_err("no K").contains("D,K"));
    }
}
