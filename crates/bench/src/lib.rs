//! Figure-reproduction harness for the REFER evaluation (Section IV).
//!
//! The paper's eight figures come from three parameter sweeps over the same
//! scenario (mobility for Figures 4-5, faulty nodes for Figures 6-7,
//! network size for Figures 8-11), each comparing four systems. This crate
//! runs those sweeps deterministically over a seed list and renders each
//! figure's series; the `figures` binary drives it from the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod json;
pub mod svgplot;

pub use cli::ScenarioFlags;

use refer::{ReferConfig, ReferProtocol};
use refer_baselines::{DaTreeProtocol, DdearProtocol, KautzOverlayProtocol};
use wsan_sim::harness::{aggregate, AggregateSummary};
use wsan_sim::{
    runner, FaultModel, RoutingStrategy, RunSummary, SimConfig, SimDuration, TrafficPattern,
};

/// The four systems of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// REFER (this paper).
    Refer,
    /// DaTree \[2\], tree-based.
    DaTree,
    /// D-DEAR \[8\], cluster/mesh-based.
    Ddear,
    /// Kautz-overlay \[20\], application-layer Kautz graph.
    KautzOverlay,
}

/// All four systems, in the paper's plotting order.
pub const SYSTEMS: [System; 4] =
    [System::Refer, System::DaTree, System::Ddear, System::KautzOverlay];

impl System {
    /// Display name used in figure legends.
    pub fn name(self) -> &'static str {
        match self {
            System::Refer => "REFER",
            System::DaTree => "DaTree",
            System::Ddear => "D-DEAR",
            System::KautzOverlay => "Kautz-overlay",
        }
    }
}

/// Runs one simulation of `system` under `cfg`.
pub fn run_system(cfg: &SimConfig, system: System) -> RunSummary {
    run_system_with_sinks(cfg, system, Vec::new()).0
}

/// [`run_system`] with streaming trace sinks attached for the run; the
/// sinks come back flushed (see
/// [`runner::run_with_sinks`]).
pub fn run_system_with_sinks(
    cfg: &SimConfig,
    system: System,
    sinks: Vec<Box<dyn wsan_sim::TraceSink>>,
) -> (RunSummary, Vec<Box<dyn wsan_sim::TraceSink>>) {
    let cfg = cfg.clone();
    match system {
        System::Refer => {
            runner::run_with_sinks(cfg, &mut ReferProtocol::new(ReferConfig::default()), sinks)
        }
        System::DaTree => runner::run_with_sinks(cfg, &mut DaTreeProtocol::default(), sinks),
        System::Ddear => runner::run_with_sinks(cfg, &mut DdearProtocol::default(), sinks),
        System::KautzOverlay => {
            runner::run_with_sinks(cfg, &mut KautzOverlayProtocol::default(), sinks)
        }
    }
}

/// Which parameter sweep a figure belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Figures 4-5: node speed drawn from `[0, x]` m/s, x in 1..=5; the
    /// plotted x-axis is the mean speed `x/2`.
    Mobility,
    /// Figures 6-7: 2x faulty sensors, x in 1..=5, rotated every 10 s.
    Faults,
    /// Figures 8-11: network size 100..=400 sensors.
    Size,
    /// Byzantine degradation curve (not a paper figure): fraction of
    /// compromised sensors 0..=0.3 under [`FaultModel::Byzantine`], all
    /// other parameters at the paper's defaults.
    Attackers,
    /// Heavy-traffic load curve (not a paper figure): aggregate offered
    /// load in packets/second under a traffic matrix (all-to-all unless
    /// the scenario flags pick another matrix), comparing REFER under
    /// [`RoutingStrategy::Shortest`] against
    /// [`RoutingStrategy::Regular`] instead of the four systems.
    Load,
}

/// The two routing strategies a [`Sweep::Load`] point compares, in column
/// order.
pub const LOAD_ROUTINGS: [RoutingStrategy; 2] =
    [RoutingStrategy::Shortest, RoutingStrategy::Regular];

impl Sweep {
    /// The sweep's x values (simulation parameter, not the plotted axis).
    pub fn x_values(self) -> Vec<f64> {
        match self {
            Sweep::Mobility => vec![1.0, 2.0, 3.0, 4.0, 5.0],
            Sweep::Faults => vec![2.0, 4.0, 6.0, 8.0, 10.0],
            Sweep::Size => vec![100.0, 200.0, 300.0, 400.0],
            Sweep::Attackers => vec![0.0, 0.1, 0.2, 0.3],
            Sweep::Load => vec![250.0, 500.0, 1000.0, 2000.0],
        }
    }

    /// The plotted x-axis value for a simulation parameter.
    pub fn axis_value(self, x: f64) -> f64 {
        match self {
            Sweep::Mobility => x / 2.0, // mean of U[0, x]
            _ => x,
        }
    }

    /// The x-axis label of the paper's plots.
    pub fn axis_label(self) -> &'static str {
        match self {
            Sweep::Mobility => "mean node speed (m/s)",
            Sweep::Faults => "number of faulty nodes",
            Sweep::Size => "number of sensors",
            Sweep::Attackers => "fraction of compromised sensors",
            Sweep::Load => "offered load (packets/s)",
        }
    }

    /// Applies the sweep parameter to a scenario. [`Sweep::Attackers`]
    /// forces [`FaultModel::Byzantine`] (a compromised fraction is
    /// meaningless under the other models), which is why [`run_sweep`]
    /// applies the scenario flags *before* calling this.
    pub fn configure(self, cfg: &mut SimConfig, x: f64) {
        match self {
            Sweep::Mobility => cfg.mobility.max_speed = x,
            Sweep::Faults => cfg.faults.count = x as usize,
            Sweep::Size => cfg.sensors = x as usize,
            Sweep::Attackers => {
                cfg.faults.model = FaultModel::Byzantine;
                cfg.faults.byzantine.attacker_fraction = x;
            }
            Sweep::Load => {
                // A load point needs a matrix workload; if the flags left
                // the paper trickle in place, all-to-all is the default.
                if !cfg.traffic.pattern.is_matrix() {
                    cfg.traffic.pattern = TrafficPattern::All2All;
                }
                cfg.traffic.offered_pps = x;
            }
        }
    }
}

/// The metric a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// QoS throughput, bytes/second.
    Throughput,
    /// Mean QoS delay, seconds.
    Delay,
    /// Communication energy, Joules.
    EnergyCommunication,
    /// Construction energy, Joules.
    EnergyConstruction,
    /// Total energy, Joules.
    EnergyTotal,
}

impl Metric {
    /// Extracts the metric from an aggregated summary.
    pub fn pick(self, agg: &AggregateSummary) -> wsan_sim::stats::CiStat {
        match self {
            Metric::Throughput => agg.throughput_bps,
            Metric::Delay => agg.mean_delay_s,
            Metric::EnergyCommunication => agg.energy_communication_j,
            Metric::EnergyConstruction => agg.energy_construction_j,
            Metric::EnergyTotal => agg.energy_total_j,
        }
    }

    /// Unit label.
    pub fn unit(self) -> &'static str {
        match self {
            Metric::Throughput => "B/s",
            Metric::Delay => "s",
            _ => "J",
        }
    }
}

/// One of the paper's evaluation figures.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Figure number in the paper (4..=11).
    pub id: u32,
    /// The underlying sweep.
    pub sweep: Sweep,
    /// The plotted metric.
    pub metric: Metric,
    /// Figure caption (paraphrased).
    pub title: &'static str,
}

/// Every evaluation figure of the paper.
pub const FIGURES: [Figure; 8] = [
    Figure { id: 4, sweep: Sweep::Mobility, metric: Metric::Throughput, title: "Throughput vs. node mobility" },
    Figure { id: 5, sweep: Sweep::Mobility, metric: Metric::EnergyCommunication, title: "Energy consumed in communication vs. node mobility" },
    Figure { id: 6, sweep: Sweep::Faults, metric: Metric::Delay, title: "Transmission delay vs. number of faulty nodes" },
    Figure { id: 7, sweep: Sweep::Faults, metric: Metric::Throughput, title: "Throughput vs. number of faulty nodes" },
    Figure { id: 8, sweep: Sweep::Size, metric: Metric::Delay, title: "Transmission delay vs. network size" },
    Figure { id: 9, sweep: Sweep::Size, metric: Metric::EnergyCommunication, title: "Energy consumed in communication vs. network size" },
    Figure { id: 10, sweep: Sweep::Size, metric: Metric::EnergyConstruction, title: "Energy consumed in topology construction vs. network size" },
    Figure { id: 11, sweep: Sweep::Size, metric: Metric::EnergyTotal, title: "Total energy consumption vs. network size" },
];

/// Returns the figure spec for a paper figure number.
pub fn figure(id: u32) -> Option<Figure> {
    FIGURES.iter().copied().find(|f| f.id == id)
}

/// The base scenario for a sweep at a fidelity scale.
///
/// `scale` multiplies the measured duration (1.0 = the paper's 1000 s) and
/// scales warmup proportionally; the offered traffic rate is kept at the
/// paper's 1 Mb/s. Scales below 1.0 trade confidence for wall-clock time.
pub fn base_config(scale: f64) -> SimConfig {
    let mut cfg = SimConfig::paper();
    let duration = (1000.0 * scale).max(20.0);
    let warmup = (100.0 * scale).max(10.0);
    cfg.duration = SimDuration::from_secs_f64(duration);
    cfg.warmup = SimDuration::from_secs_f64(warmup);
    cfg
}

/// One aggregated data point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The simulation parameter value.
    pub x: f64,
    /// The plotted x-axis value.
    pub axis: f64,
    /// Aggregates per system, in [`SYSTEMS`] order.
    pub systems: Vec<AggregateSummary>,
}

/// A full sweep result (feeds several figures).
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Which sweep.
    pub sweep: Sweep,
    /// The data points.
    pub points: Vec<SweepPoint>,
    /// The seeds used.
    pub seeds: Vec<u64>,
    /// The duration scale used.
    pub scale: f64,
    /// The fault model the sweep's configured runs used
    /// ([`Sweep::Attackers`] always forces `Byzantine`).
    pub fault_model: FaultModel,
    /// `git rev-parse HEAD` of the tree that produced the dump, or
    /// `"unknown"` outside a git checkout.
    pub git_commit: String,
}

/// The commit hash of the working tree, for provenance stamps in dumps;
/// `"unknown"` when git is unavailable.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `x` with `digits` decimals and a `unit` suffix, or `—` when `x` is
/// undefined (NaN: nothing delivered to take a percentile of, 0 of 0
/// offered, an aggregate no seed defined). Every CLI table formats such
/// cells through this.
pub fn or_dash(x: f64, digits: usize, unit: &str) -> String {
    if x.is_finite() {
        format!("{x:.digits$}{unit}")
    } else {
        "—".to_string()
    }
}

/// The scenario of one sweep point, before its column and seed: the
/// flags' [`config`](ScenarioFlags::config), then the sweep parameter
/// ([`Sweep::configure`] — so [`Sweep::Attackers`] overrides the fault
/// model and compromised fraction per point).
fn point_config(sweep: Sweep, flags: &ScenarioFlags, x: f64) -> SimConfig {
    let mut cfg = flags.config.clone();
    sweep.configure(&mut cfg, x);
    cfg
}

/// Runs a full sweep at the flags' scale: every x value, every column,
/// every seed.
///
/// Each point runs its `point_config` scenario. The columns are the four
/// [`SYSTEMS`]; a [`Sweep::Load`] point instead runs REFER once per
/// [`LOAD_ROUTINGS`] strategy, which overrides the flags' routing.
///
/// The seeds of each (x, column) batch run concurrently on scoped threads;
/// every trial is an isolated simulation deterministically seeded by
/// `cfg.seed`, so the per-seed summaries are bit-identical to a serial
/// sweep and aggregate in seed order.
///
/// `progress` is invoked after each completed batch, once per simulation,
/// with a human-readable label (the `figures` binary prints these).
pub fn run_sweep(
    sweep: Sweep,
    seeds: &[u64],
    flags: &ScenarioFlags,
    mut progress: impl FnMut(&str),
) -> SweepResult {
    // The load curve compares routing strategies within REFER, not the
    // four systems: the question is how the same fabric behaves under
    // shortest vs. regular next hops as pressure grows.
    let columns: Vec<(System, Option<RoutingStrategy>)> = if sweep == Sweep::Load {
        LOAD_ROUTINGS.iter().map(|&routing| (System::Refer, Some(routing))).collect()
    } else {
        SYSTEMS.iter().map(|&system| (system, None)).collect()
    };
    let mut fault_model = FaultModel::default();
    let mut points = Vec::new();
    for x in sweep.x_values() {
        let cfg = point_config(sweep, flags, x);
        fault_model = cfg.faults.model;
        let mut systems = Vec::with_capacity(columns.len());
        for &(system, routing) in &columns {
            let mut cfg = cfg.clone();
            let tag = match routing {
                Some(routing) => {
                    cfg.routing = routing;
                    format!("{}/{routing:?}", system.name())
                }
                None => system.name().to_string(),
            };
            let runs: Vec<RunSummary> = std::thread::scope(|scope| {
                let trials: Vec<_> = seeds
                    .iter()
                    .map(|&seed| {
                        let mut cfg = cfg.clone();
                        cfg.seed = seed;
                        scope.spawn(move || run_system(&cfg, system))
                    })
                    .collect();
                trials.into_iter().map(|t| t.join().expect("every trial completes")).collect()
            });
            for &seed in seeds {
                progress(&format!("{sweep:?} x={x} {tag} seed={seed}"));
            }
            systems.push(aggregate(&runs));
        }
        points.push(SweepPoint { x, axis: sweep.axis_value(x), systems });
    }
    SweepResult {
        sweep,
        points,
        seeds: seeds.to_vec(),
        scale: flags.scale,
        fault_model,
        git_commit: git_commit(),
    }
}

/// Renders one figure's series from a sweep result as an aligned text
/// table (one row per x value, one mean±ci column per system; a space
/// separates every pair of columns, however wide a cell). A cell no
/// seed defined (a NaN aggregate, e.g. the delay of a system that
/// delivered nothing in time) prints as `—`.
pub fn render_figure(fig: &Figure, sweep: &SweepResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "Figure {}: {}", fig.id, fig.title).expect("write to string");
    write!(out, "{:>24}", fig.sweep.axis_label()).expect("write to string");
    for system in SYSTEMS {
        write!(out, " {:>25}", system.name()).expect("write to string");
    }
    writeln!(out).expect("write to string");
    for point in &sweep.points {
        write!(out, "{:>24}", format!("{:.1}", point.axis)).expect("write to string");
        for agg in &point.systems {
            let stat = fig.metric.pick(agg);
            let cell = if stat.mean.is_finite() {
                format!("{:.3} ± {:.3} {}", stat.mean, stat.ci95, fig.metric.unit())
            } else {
                "—".to_string()
            };
            write!(out, " {cell:>25}").expect("write to string");
        }
        writeln!(out).expect("write to string");
    }
    out
}

/// Renders the Byzantine degradation table from an [`Sweep::Attackers`]
/// result: delivery, wrongful evictions and attacker containment per
/// system at each compromised fraction. Undefined cells (a NaN aggregate:
/// nothing delivered, or no attacker ever contained) print as `—`.
pub fn render_degradation(sweep: &SweepResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "Byzantine degradation (fault model {:?})", sweep.fault_model)
        .expect("write to string");
    writeln!(
        out,
        "{:>10} {:>15} {:>9} {:>9} {:>9} {:>9} {:>10} {:>11}",
        "fraction", "system", "deliv", "thr(B/s)", "wrongful", "slander", "contained", "contain(s)"
    )
    .expect("write to string");
    for point in &sweep.points {
        for (system, agg) in SYSTEMS.iter().zip(&point.systems) {
            writeln!(
                out,
                "{:>10} {:>15} {:>9} {:>9} {:>9} {:>9} {:>10} {:>11}",
                format!("{:.2}", point.x),
                system.name(),
                or_dash(agg.delivery_ratio.mean, 3, ""),
                or_dash(agg.throughput_bps.mean, 0, ""),
                or_dash(agg.wrongful_evictions.mean, 1, ""),
                or_dash(agg.slander_events.mean, 1, ""),
                or_dash(agg.attackers_contained.mean, 1, ""),
                or_dash(agg.containment_time_s.mean, 1, ""),
            )
            .expect("write to string");
        }
    }
    out
}

/// Renders the heavy-traffic load table from a [`Sweep::Load`] result:
/// congestion metrics per routing strategy at each offered load. Undefined
/// cells (a NaN aggregate: nothing delivered, or no queueing observed)
/// print as `—`.
pub fn render_load(sweep: &SweepResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "Heavy-traffic load response (fault model {:?})", sweep.fault_model)
        .expect("write to string");
    writeln!(
        out,
        "{:>10} {:>16} {:>8} {:>10} {:>10} {:>10} {:>9} {:>9} {:>8}",
        "load(pps)", "routing", "deliv", "q_p50(ms)", "q_p99(ms)", "q_max(ms)", "hotlink", "miss", "cdrops"
    )
    .expect("write to string");
    for point in &sweep.points {
        for (routing, agg) in LOAD_ROUTINGS.iter().zip(&point.systems) {
            writeln!(
                out,
                "{:>10} {:>16} {:>8} {:>10} {:>10} {:>10} {:>9} {:>9} {:>8}",
                format!("{:.0}", point.x),
                format!("REFER/{routing:?}"),
                or_dash(agg.delivery_ratio.mean, 3, ""),
                or_dash(agg.queue_delay_p50_s.mean * 1e3, 2, ""),
                or_dash(agg.queue_delay_p99_s.mean * 1e3, 2, ""),
                or_dash(agg.queue_max_s.mean * 1e3, 1, ""),
                or_dash(agg.hot_link_utilization.mean, 3, ""),
                or_dash(agg.deadline_miss_ratio.mean, 3, ""),
                or_dash(agg.congestion_drops.mean, 0, ""),
            )
            .expect("write to string");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_has_a_spec() {
        for id in 4..=11 {
            assert!(figure(id).is_some(), "figure {id}");
        }
        assert!(figure(3).is_none());
        assert!(figure(12).is_none());
    }

    #[test]
    fn sweeps_cover_the_paper_ranges() {
        assert_eq!(Sweep::Mobility.x_values().len(), 5);
        assert_eq!(Sweep::Size.x_values(), vec![100.0, 200.0, 300.0, 400.0]);
        assert_eq!(Sweep::Mobility.axis_value(5.0), 2.5);
        assert_eq!(Sweep::Faults.axis_value(10.0), 10.0);
    }

    #[test]
    fn base_config_scales_duration() {
        let full = base_config(1.0);
        assert_eq!(full.duration.as_secs_f64(), 1000.0);
        let tiny = base_config(0.05);
        assert_eq!(tiny.duration.as_secs_f64(), 50.0);
        assert_eq!(tiny.warmup.as_secs_f64(), 10.0);
    }

    #[test]
    fn configure_applies_parameters() {
        let mut cfg = base_config(0.1);
        Sweep::Size.configure(&mut cfg, 300.0);
        assert_eq!(cfg.sensors, 300);
        Sweep::Faults.configure(&mut cfg, 8.0);
        assert_eq!(cfg.faults.count, 8);
        Sweep::Mobility.configure(&mut cfg, 4.0);
        assert_eq!(cfg.mobility.max_speed, 4.0);
        Sweep::Attackers.configure(&mut cfg, 0.2);
        assert_eq!(cfg.faults.model, FaultModel::Byzantine);
        assert_eq!(cfg.faults.byzantine.attacker_fraction, 0.2);
    }

    #[test]
    fn fault_model_and_fraction_flags_parse_with_clean_errors() {
        let model = |name| flags(&["--fault-model", name]).config.faults.model;
        assert_eq!(model("byzantine"), FaultModel::Byzantine);
        assert_eq!(model("oracle"), FaultModel::Oracle);
        let err = read(&["--fault-model", "bogus"]).expect_err("rejects");
        assert!(err.contains("bogus") && err.contains("byzantine"), "{err}");

        assert_eq!(flags(&["--link-pdr", "0.25"]).config.radio.link_pdr, 0.25);
        let err = read(&["--attacker-fraction", "1.5"]).expect_err("rejects");
        assert!(err.contains("--attacker-fraction") && err.contains("[0, 1]"), "{err}");
        let err = read(&["--link-pdr", "lossy"]).expect_err("rejects");
        assert!(err.contains("--link-pdr"), "{err}");
    }

    #[test]
    fn load_sweep_forces_a_matrix_workload() {
        let mut cfg = base_config(0.1);
        Sweep::Load.configure(&mut cfg, 1000.0);
        assert!(cfg.traffic.pattern.is_matrix());
        assert_eq!(cfg.traffic.offered_pps, 1000.0);
        // An explicit matrix choice survives the upgrade.
        let mut cfg = base_config(0.1);
        let hotspot = TrafficPattern::parse("hotspot").expect("known workload");
        cfg.traffic.pattern = hotspot;
        Sweep::Load.configure(&mut cfg, 500.0);
        assert_eq!(cfg.traffic.pattern, hotspot);
        assert_eq!(cfg.traffic.offered_pps, 500.0);
    }

    #[test]
    fn workload_and_routing_flags_parse_with_clean_errors() {
        let pattern = flags(&["--workload", "all2all"]).config.traffic.pattern;
        assert_eq!(pattern, TrafficPattern::All2All);
        let err = read(&["--workload", "bursty"]).expect_err("rejects");
        assert!(err.contains("bursty") && err.contains("all2all"), "{err}");
        assert_eq!(flags(&["--routing", "regular"]).config.routing, RoutingStrategy::Regular);
        assert_eq!(flags(&["--routing", "shortest"]).config.routing, RoutingStrategy::Shortest);
        let err = read(&["--routing", "fastest"]).expect_err("rejects");
        assert!(err.contains("fastest") && err.contains("regular"), "{err}");
        assert_eq!(flags(&["--offered-load", "2500"]).config.traffic.offered_pps, 2500.0);
        assert!(read(&["--offered-load", "-1"]).is_err());
        assert!(read(&["--offered-load", "many"]).is_err());
    }

    #[test]
    fn or_dash_formats_defined_values_and_dashes_undefined_ones() {
        assert_eq!(or_dash(0.01234 * 1e3, 1, ""), "12.3");
        assert_eq!(or_dash(0.9876 * 100.0, 1, "%"), "98.8%");
        assert_eq!(or_dash(0.0042 * 1e3, 1, "ms"), "4.2ms");
        assert_eq!(or_dash(624225.4, 0, ""), "624225");
        for undefined in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(or_dash(undefined, 3, "%"), "—");
        }
    }

    /// The scenario flags of `args` at scale 0.02, as `figures` reads them.
    fn read(args: &[&str]) -> Result<ScenarioFlags, String> {
        const FLAGS: cli::Command =
            cli::Command { name: "figures", positional: "", flags: &[&["--scale F"], cli::SHARED] };
        ScenarioFlags::read(&FLAGS.parse(args.iter().copied())?, 0.02, 1)
    }

    fn flags(args: &[&str]) -> ScenarioFlags {
        read(args).unwrap_or_else(|e| panic!("{args:?}: {e}"))
    }

    /// A point's scenario is `base_config`, then the given flags, then the
    /// sweep parameter — and nothing else.
    #[test]
    fn point_config_is_base_config_plus_flags_plus_the_sweep_parameter() {
        for (args, model, link_pdr) in [
            (&[][..], FaultModel::Oracle, 0.0),
            (&["--fault-model", "discovered", "--link-pdr", "0.1"][..], FaultModel::Discovered, 0.1),
        ] {
            let flags = flags(args);
            for x in Sweep::Faults.x_values() {
                let mut want = base_config(0.02);
                want.faults.count = x as usize;
                want.faults.model = model;
                want.radio.link_pdr = link_pdr;
                assert_eq!(point_config(Sweep::Faults, &flags, x), want, "{args:?} x={x}");
            }
        }
        // The sweep parameter wins over a flag that sets the same knob.
        let cfg = point_config(Sweep::Attackers, &flags(&["--fault-model", "oracle"]), 0.2);
        assert_eq!(cfg.faults.model, FaultModel::Byzantine);
    }

    /// Pins what `run_sweep` runs end to end: each (x, system) cell is the
    /// aggregate of hand-built per-seed `run_system` runs. The flags are
    /// ones that change every system's runs yet keep the debug build quick
    /// (any non-Oracle model costs the Kautz overlay ~7 s a run there).
    #[test]
    fn run_sweep_aggregates_hand_built_runs() {
        let (seeds, scale) = ([1, 2], 0.02);
        let flags = flags(&["--routing", "regular", "--link-pdr", "0.02"]);
        let result = run_sweep(Sweep::Faults, &seeds, &flags, |_| {});
        assert_eq!(result.fault_model, FaultModel::Oracle);
        let xs: Vec<f64> = result.points.iter().map(|p| p.x).collect();
        assert_eq!(xs, Sweep::Faults.x_values());
        for point in &result.points {
            for (&system, agg) in SYSTEMS.iter().zip(&point.systems) {
                let runs: Vec<RunSummary> = std::thread::scope(|scope| {
                    let handles: Vec<_> = seeds
                        .iter()
                        .map(|&seed| {
                            let mut cfg = base_config(scale);
                            cfg.faults.count = point.x as usize;
                            cfg.routing = RoutingStrategy::Regular;
                            cfg.radio.link_pdr = 0.02;
                            cfg.seed = seed;
                            scope.spawn(move || run_system(&cfg, system))
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("run completes")).collect()
                });
                // Debug text, so an undefined (NaN) column equals itself.
                assert_eq!(
                    format!("{:?}", aggregate(&runs)),
                    format!("{agg:?}"),
                    "x={} {}",
                    point.x,
                    system.name()
                );
            }
        }
    }

    #[test]
    fn render_degradation_prints_an_aggregate_no_seed_defined_as_a_dash() {
        // At fraction 0 nothing is compromised, so no seed contains anyone.
        let uncontained =
            RunSummary { mean_containment_time_s: f64::NAN, ..RunSummary::default() };
        let contained =
            RunSummary { mean_containment_time_s: 14.5, attackers_contained: 2, ..uncontained.clone() };
        let point = |x: f64, run: &RunSummary| SweepPoint {
            x,
            axis: x,
            systems: vec![aggregate(&[run.clone(), run.clone()]); SYSTEMS.len()],
        };
        let result = SweepResult {
            sweep: Sweep::Attackers,
            points: vec![point(0.0, &uncontained), point(0.1, &contained)],
            seeds: vec![1, 2],
            scale: 0.02,
            fault_model: FaultModel::Byzantine,
            git_commit: "test".to_string(),
        };
        let table = render_degradation(&result);
        let rows: Vec<&str> = table.lines().skip(2).collect();
        assert_eq!(rows.len(), 2 * SYSTEMS.len(), "{table}");
        for row in &rows[..SYSTEMS.len()] {
            assert!(row.trim_start().starts_with("0.00") && row.ends_with(" —"), "{row}");
        }
        for row in &rows[SYSTEMS.len()..] {
            assert!(row.ends_with(" 2.0        14.5"), "{row}");
        }
    }

    #[test]
    fn render_figure_spaces_every_column_and_dashes_an_undefined_cell() {
        // Two seeds far apart make each throughput cell wider than its
        // column; neither seed delivered a packet in time.
        let run = |throughput_bps| RunSummary {
            throughput_bps,
            mean_delay_s: f64::NAN,
            ..RunSummary::default()
        };
        let systems = vec![aggregate(&[run(1.0e6), run(2.0e5)]); SYSTEMS.len()];
        let result = SweepResult {
            sweep: Sweep::Mobility,
            points: vec![SweepPoint { x: 1.0, axis: 0.5, systems }],
            seeds: vec![1, 2],
            scale: 0.02,
            fault_model: FaultModel::Oracle,
            git_commit: "test".to_string(),
        };
        let row = |id| {
            let fig = figure(id).expect("a paper figure");
            render_figure(&fig, &result).lines().nth(2).expect("one row").to_string()
        };
        let throughput = row(4);
        let cells: Vec<&str> = throughput.split_whitespace().collect();
        // The axis, then `mean ± ci B/s` per system: nothing glued.
        assert_eq!(cells.len(), 1 + 4 * SYSTEMS.len(), "{throughput}");
        assert_eq!((cells[0], cells[1]), ("0.5", "600000.000"), "{throughput}");
        assert!(throughput.chars().count() > 24 + 26 * SYSTEMS.len(), "wide cells: {throughput}");
        let delay = row(6);
        let cells: Vec<&str> = delay.split_whitespace().collect();
        assert_eq!(cells, [vec!["0.5"], vec!["—"; SYSTEMS.len()]].concat(), "{delay}");
    }

    #[test]
    fn git_commit_is_nonempty() {
        assert!(!git_commit().is_empty());
    }
}
