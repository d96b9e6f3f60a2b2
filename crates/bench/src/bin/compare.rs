//! Quick side-by-side comparison of the four systems on one scenario.
//!
//! ```text
//! cargo run -p refer-bench --release --bin compare -- \
//!     [--scale 0.2] [--seed 17] [--mobility 3] [--faults 0] [--sensors 200] \
//!     [--fault-model oracle|discovered|byzantine] \
//!     [--attacker-fraction F] [--link-pdr P] \
//!     [--workload paper|all2all|hotspot] \
//!     [--routing shortest|regular] [--offered-load PPS] \
//!     [--fabric D,K] [--threads T]
//! ```
//!
//! Prints one row per system with throughput, delay, energy split,
//! delivery ratio and load-balance metrics, plus the robustness counters
//! (retransmissions, detections, handovers, oracle consultations; under
//! `byzantine` also misroutes, forged ACKs, slander, wrongful evictions
//! and attacker containment). A matrix `--workload` appends the congestion
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

use refer_bench::{base_config, or_dash, run_system, ScenarioFlags, LOAD_ROUTINGS, SYSTEMS};
use refer_baselines::{fabric_config, KautzFabricProtocol};
use wsan_sim::{run_engine, Engine, FaultModel, ShardedConfig, SimDuration};

/// Exits with the CLI's usage error code for a malformed flag value.
fn bail(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

struct Args {
    scale: f64,
    seed: u64,
    mobility: f64,
    faults: usize,
    sensors: usize,
    scenario: ScenarioFlags,
    fabric: Option<(u8, usize)>,
    threads: usize,
}

/// Parses one flag value, bailing with the flag's name when it is malformed.
fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| bail(format!("{flag}: cannot parse {v:?}")))
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.2,
        seed: 17,
        mobility: 3.0,
        faults: 0,
        sensors: 200,
        scenario: ScenarioFlags::default(),
        fabric: None,
        threads: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        // The scenario knobs shared by every CLI live in one parser.
        if args.scenario.accept(&a, &mut it).unwrap_or_else(|e| bail(e)) {
            continue;
        }
        let mut next = || it.next().unwrap_or_else(|| bail(format!("{a} needs a value")));
        match a.as_str() {
            "--scale" => args.scale = parse(&a, &next()),
            "--seed" => args.seed = parse(&a, &next()),
            "--mobility" => args.mobility = parse(&a, &next()),
            "--faults" => args.faults = parse(&a, &next()),
            "--sensors" => args.sensors = parse(&a, &next()),
            "--threads" => args.threads = parse(&a, &next()),
            "--fabric" => {
                let v = next();
                let parsed = v.split_once(',').and_then(|(d, k)| {
                    Some((d.trim().parse().ok()?, k.trim().parse().ok()?))
                });
                args.fabric = Some(parsed.unwrap_or_else(|| {
                    bail(format!("--fabric expects D,K (e.g. 4,7), got {v:?}"))
                }));
            }
            other => bail(format!("unknown argument {other:?}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if args.fabric.is_some() {
        run_fabric(&args);
        return;
    }
    let mut cfg = base_config(args.scale);
    cfg.mobility.max_speed = args.mobility;
    cfg.faults.count = args.faults;
    cfg.sensors = args.sensors;
    cfg.seed = args.seed;
    args.scenario.apply(&mut cfg);
    let byzantine = cfg.faults.model == FaultModel::Byzantine;
    let matrix = cfg.traffic.pattern.is_matrix();

    println!(
        "scenario: {} sensors, mobility [0,{}] m/s, {} faulty ({:?}), \
         attacker fraction {}, link pdr {}, workload {} ({:?} routing, {} pps), scale {}, seed {}\n",
        cfg.sensors,
        cfg.mobility.max_speed,
        cfg.faults.count,
        cfg.faults.model,
        cfg.faults.byzantine.attacker_fraction,
        cfg.radio.link_pdr,
        cfg.traffic.pattern.name(),
        cfg.routing,
        cfg.traffic.offered_pps,
        args.scale,
        cfg.seed
    );
    print!(
        "{:>15} {:>13} {:>9} {:>8} {:>8} {:>8} {:>6} {:>12} {:>12} {:>7} {:>9} {:>9} {:>7} {:>7} {:>6} {:>8}",
        "system", "QoS thr(B/s)", "delay", "p50(ms)", "p95(ms)", "p99(ms)", "miss", "comm(J)",
        "constr(J)", "deliv", "hotspot", "fairness", "retx", "detect", "handover", "oracle"
    );
    if byzantine {
        print!(
            " {:>8} {:>7} {:>8} {:>9} {:>9} {:>10}",
            "misroute", "forged", "slander", "wrongful", "contained", "contain(s)"
        );
    }
    if matrix {
        print!(
            " {:>9} {:>9} {:>9} {:>8} {:>7}",
            "q_p50(ms)", "q_p99(ms)", "q_max(ms)", "hotlink", "cdrops"
        );
    }
    println!();
    for system in SYSTEMS {
        let s = run_system(&cfg, system);
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
        if byzantine {
            print!(
                " {:>8} {:>7} {:>8} {:>9} {:>9} {:>10}",
                s.misroutes,
                s.forged_acks,
                s.slander_events,
                s.wrongful_evictions,
                s.attackers_contained,
                or_dash(s.mean_containment_time_s, 1, "")
            );
        }
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
fn run_fabric(args: &Args) {
    let (d, k) = args.fabric.expect("checked by caller");
    let scenario = &args.scenario;
    let offered = if scenario.offered_pps > 0.0 { scenario.offered_pps } else { 20_000.0 };
    let mut cfg = fabric_config(d, k, offered);
    if scenario.workload.is_matrix() {
        cfg.traffic.pattern = scenario.workload;
    }
    cfg.duration = SimDuration::from_secs_f64((1000.0 * args.scale).max(20.0));
    cfg.warmup = SimDuration::from_secs_f64((100.0 * args.scale).max(10.0));
    cfg.seed = args.seed;
    println!(
        "fabric: K({d}, {k}) = {} sensors, workload {} at {offered} pps, \
         sharded engine (1 vs {} threads), scale {}, seed {}\n",
        cfg.sensors,
        cfg.traffic.pattern.name(),
        args.threads,
        args.scale,
        args.seed
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
            threads: args.threads,
            window_micros: 0,
        });
        let st = run_engine(cfg.clone(), &mut KautzFabricProtocol::new(d, k));
        assert_eq!(
            s1, st,
            "sharded summaries diverged between 1 and {} threads",
            args.threads
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
            format!("1≡{}", args.threads),
        );
    }
}
