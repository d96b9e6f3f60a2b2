//! The six workloads: what each runs, at which size, and why.
//!
//! Every workload is a pure function of `(seed, size)`: the seed goes
//! into `SimConfig::seed` (placement, traffic, mobility and fault draws
//! all derive from it) and nothing else varies between repetitions, so
//! every repetition's [`Outcome`] must equal the first one's bit for bit.
//!
//! The benchmark uses the default scheduler and neighbor index and the
//! serial engine everywhere except the two workloads that say otherwise
//! (`fabric_all2all`, `flood_local_sharded`).

use crate::engine_loop;
use crate::probe::{Probe, SimShim};
use refer::{ReferConfig, ReferProtocol};
use refer_baselines::{fabric_config, KautzFabricProtocol};
use wsan_sim::flood::FloodProtocol;
use wsan_sim::{
    runner, ActuatorPlacement, Area, Ctx, DataId, Engine, Message, NodeId, Protocol,
    RoutingStrategy, RunSummary, SensorPlacement, ShardedConfig, SimConfig, SimDuration, SimTime,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperRefer,
    FabricAll2All,
    FloodLocal,
    FloodLocalSharded,
    Timers1m,
    EngineLoop,
}

/// `Full` is what the benchmark measures; `Smoke` is the same code path
/// at a size the crate's tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Everything a repetition produced that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The simulator's summary (compared bitwise, NaNs included).
    pub summary: Option<RunSummary>,
    /// Exact counts the summary does not carry, by name.
    pub counts: Vec<(&'static str, u64)>,
}

impl Outcome {
    pub fn count(&self, name: &str) -> Option<u64> {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Completed ÷ attempted simulated operations: packets on the
    /// packet workloads, timer fires on `timers_1m`.
    pub fn delivery_ratio(&self) -> f64 {
        match (&self.summary, self.count("fires"), self.count("offered")) {
            (_, Some(fires), _) => fires as f64 / self.count("fires_expected").unwrap_or(0) as f64,
            (_, _, Some(offered)) => self.count("delivered").unwrap_or(0) as f64 / offered as f64,
            (Some(s), _, _) => s.delivery_ratio,
            (None, None, None) => f64::NAN,
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::PaperRefer,
        Workload::FabricAll2All,
        Workload::FloodLocal,
        Workload::FloodLocalSharded,
        Workload::Timers1m,
        Workload::EngineLoop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRefer => "paper_refer",
            Workload::FabricAll2All => "fabric_all2all",
            Workload::FloodLocal => "flood_local",
            Workload::FloodLocalSharded => "flood_local_sharded",
            Workload::Timers1m => "timers_1m",
            Workload::EngineLoop => "engine_loop",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The metric-name prefix of this workload's protocol hooks.
    pub fn handler_layer(self) -> &'static str {
        match self {
            Workload::PaperRefer | Workload::EngineLoop => "core.protocol",
            Workload::FabricAll2All => "baselines.fabric",
            Workload::FloodLocal | Workload::FloodLocalSharded => "sim.flood",
            Workload::Timers1m => "bench.duty",
        }
    }

    /// Threads that run handlers at once.
    pub fn worker_threads(self) -> usize {
        match self {
            Workload::FloodLocalSharded => SHARDED_THREADS,
            _ => 1,
        }
    }

    /// Whether the workload's process runs on a single CPU (see
    /// [`host::pin_to_one_cpu`](crate::host::pin_to_one_cpu)).
    pub fn single_cpu(self) -> bool {
        self == Workload::FabricAll2All
    }

    /// Whether delay, deadline and energy figures of the simulated
    /// network apply (a radio model and a simulated clock exist).
    pub fn has_simulated_network(self) -> bool {
        !matches!(self, Workload::Timers1m | Workload::EngineLoop)
    }

    /// The set-up a user of this workload pays before the first event:
    /// protocol `new` plus `runner::construct` to the warm-up horizon.
    /// The sharded engine has no public construct entry, so there it is
    /// a whole run truncated to one simulated millisecond; `engine_loop`
    /// pays what every daemon pays at boot, nineteen times.
    pub fn setup(self, seed: u64, size: Size) {
        match self {
            Workload::PaperRefer => {
                let cfg = paper_config(seed, size);
                let horizon = cfg.warmup;
                let mut proto = ReferProtocol::new(ReferConfig::default());
                std::hint::black_box(runner::construct(cfg, &mut proto, horizon));
            }
            Workload::FabricAll2All => {
                let mut cfg = fabric_cfg(seed, size);
                truncate(&mut cfg);
                let (d, k) = fabric_shape(size);
                std::hint::black_box(wsan_sim::run_engine(
                    cfg,
                    &mut KautzFabricProtocol::new(d, k),
                ));
            }
            Workload::FloodLocal => {
                let cfg = flood_config(seed, size);
                let horizon = cfg.warmup;
                std::hint::black_box(runner::construct(
                    cfg,
                    &mut FloodProtocol::new(FLOOD_TTL),
                    horizon,
                ));
            }
            Workload::FloodLocalSharded => {
                let mut cfg = flood_sharded_config(seed, size, SHARDED_THREADS);
                truncate(&mut cfg);
                std::hint::black_box(wsan_sim::run_engine(
                    cfg,
                    &mut FloodProtocol::new(FLOOD_TTL),
                ));
            }
            Workload::Timers1m => {
                let cfg = timers_config(seed, size);
                let horizon = cfg.warmup;
                std::hint::black_box(runner::construct(cfg, &mut DutyCycle::default(), horizon));
            }
            Workload::EngineLoop => {
                std::hint::black_box(engine_loop::boot());
            }
        }
    }

    /// One repetition, set-up included. `probed` wraps the protocol in
    /// [`Probe`] (and REFER's driver in `SpanCtx`); the outcome must not
    /// depend on it.
    pub fn run(self, seed: u64, size: Size, probed: bool) -> Outcome {
        match self {
            Workload::PaperRefer => {
                let cfg = paper_config(seed, size);
                let mut refer = ReferProtocol::new(ReferConfig::default());
                sim_outcome(if probed {
                    let from = SimTime::ZERO + cfg.warmup;
                    runner::run(cfg, &mut SimShim(Probe::new(refer, from)))
                } else {
                    runner::run(cfg, &mut refer)
                })
            }
            Workload::FabricAll2All => {
                let (d, k) = fabric_shape(size);
                run_shardable(
                    fabric_cfg(seed, size),
                    KautzFabricProtocol::new(d, k),
                    probed,
                )
            }
            Workload::FloodLocal => run_shardable(
                flood_config(seed, size),
                FloodProtocol::new(FLOOD_TTL),
                probed,
            ),
            Workload::FloodLocalSharded => run_shardable(
                flood_sharded_config(seed, size, SHARDED_THREADS),
                FloodProtocol::new(FLOOD_TTL),
                probed,
            ),
            Workload::Timers1m => {
                let cfg = timers_config(seed, size);
                let expected = DutyCycle::expected_fires(&cfg);
                let (summary, fires) = if probed {
                    let mut p = Probe::new(DutyCycle::default(), SimTime::ZERO);
                    (runner::run(cfg, &mut p), p.inner().fires)
                } else {
                    let mut p = DutyCycle::default();
                    (runner::run(cfg, &mut p), p.fires)
                };
                Outcome {
                    summary: Some(summary),
                    counts: vec![("fires", fires), ("fires_expected", expected)],
                }
            }
            Workload::EngineLoop => engine_loop::run(seed, size, probed),
        }
    }
}

fn sim_outcome(summary: RunSummary) -> Outcome {
    Outcome {
        summary: Some(summary),
        counts: Vec::new(),
    }
}

fn run_shardable<P>(cfg: SimConfig, mut protocol: P, probed: bool) -> Outcome
where
    P: wsan_sim::ShardableProtocol,
    P::Payload: Clone + Send,
{
    sim_outcome(if probed {
        let from = SimTime::ZERO + cfg.warmup;
        wsan_sim::run_engine(cfg, &mut Probe::new(protocol, from))
    } else {
        wsan_sim::run_engine(cfg, &mut protocol)
    })
}

/// Cuts a run down to one simulated millisecond: construction and engine
/// start-up, no traffic worth the name.
fn truncate(cfg: &mut SimConfig) {
    cfg.warmup = SimDuration::ZERO;
    cfg.duration = SimDuration::from_millis(1);
}

/// The paper's area grown so that `n` sensors keep the paper's density.
fn scaled_area(n: usize) -> Area {
    let side = 500.0 * (n as f64 / 200.0).sqrt();
    Area::new(side, side)
}

/// Section IV as published: 200 sensors, 5 actuators, 500 m square,
/// five 1 Mb/s sources per 10 s round, 100 s warm-up and 1000 s measured,
/// 10 rotating faults, speeds up to 3 m/s.
pub fn paper_config(seed: u64, size: Size) -> SimConfig {
    let mut cfg = SimConfig::paper();
    cfg.faults.count = 10;
    cfg.mobility.max_speed = 3.0;
    if size == Size::Smoke {
        cfg.traffic.rate_bps = 80_000.0;
        cfg.warmup = SimDuration::from_secs(30);
        cfg.duration = SimDuration::from_secs(60);
    }
    cfg.seed = seed;
    cfg
}

fn fabric_shape(size: Size) -> (u8, usize) {
    match size {
        Size::Full => (2, 10),
        Size::Smoke => (2, 5),
    }
}

/// All-to-all on one Kautz graph at 8.6 packets/s per vertex (past the
/// point where shortest routing's hottest vertex saturates), regular
/// routing, on the sharded engine at one thread as in BENCH_8/9.
fn fabric_cfg(seed: u64, size: Size) -> SimConfig {
    let (d, k) = fabric_shape(size);
    let vertices = (usize::from(d) + 1) * usize::from(d).pow(k as u32 - 1);
    let mut cfg = fabric_config(d, k, 8.6 * vertices as f64);
    cfg.routing = RoutingStrategy::Regular;
    let (warmup, measured) = match size {
        Size::Full => (2, 6),
        Size::Smoke => (1, 2),
    };
    cfg.warmup = SimDuration::from_secs(warmup);
    cfg.duration = SimDuration::from_secs(measured);
    cfg.engine = Engine::Sharded(ShardedConfig {
        shards: 0,
        threads: 1,
        window_micros: 0,
    });
    cfg.seed = seed;
    cfg
}

const FLOOD_TTL: u8 = 4;

/// Many local floods: sensors at the paper's density, one actuator per
/// hundred sensors placed uniformly, one source per 200 nodes sending a
/// packet a second, 1 % faults, speeds up to 3 m/s.
pub fn flood_config(seed: u64, size: Size) -> SimConfig {
    let n = match size {
        Size::Full => 25_000,
        Size::Smoke => 1_000,
    };
    let mut cfg = SimConfig::paper();
    cfg.sensors = n;
    cfg.actuators = n / 100;
    cfg.placement = ActuatorPlacement::UniformRandom;
    cfg.area = scaled_area(n);
    cfg.sensor_placement = SensorPlacement::UniformArea;
    cfg.mobility.max_speed = 3.0;
    cfg.warmup = SimDuration::from_secs(1);
    cfg.duration = SimDuration::from_secs(2);
    cfg.traffic.rate_bps = 8_000.0;
    cfg.traffic.sources_per_round = n / 200;
    cfg.traffic.round_interval = SimDuration::from_secs(5);
    cfg.faults.count = n / 100;
    cfg.seed = seed;
    cfg
}

/// Worker threads of `flood_local_sharded`: the cores of the reference
/// host.
pub const SHARDED_THREADS: usize = 2;

pub fn flood_sharded_config(seed: u64, size: Size, threads: usize) -> SimConfig {
    let mut cfg = flood_config(seed, size);
    cfg.engine = Engine::Sharded(ShardedConfig {
        shards: 0,
        threads,
        window_micros: 0,
    });
    cfg
}

/// Static sensors that only keep timers: no traffic, one mobility tick
/// and no faults inside the run, so the scheduler is what is measured.
fn timers_config(seed: u64, size: Size) -> SimConfig {
    let n = match size {
        Size::Full => 1_000_000,
        Size::Smoke => 10_000,
    };
    let mut cfg = SimConfig::paper();
    cfg.sensors = n;
    cfg.area = scaled_area(n);
    cfg.sensor_placement = SensorPlacement::UniformArea;
    cfg.mobility.max_speed = 0.0;
    cfg.mobility.tick = SimDuration::from_secs(3600);
    cfg.faults.count = 0;
    cfg.warmup = SimDuration::ZERO;
    cfg.duration = SimDuration::from_secs(1);
    cfg.traffic.sources_per_round = 0;
    cfg.traffic.round_interval = SimDuration::from_secs(3600);
    cfg.seed = seed;
    cfg
}

/// perfbench's duty-cycle protocol: one timer armed per node at all
/// times, phases staggered so every wheel slot stays populated.
#[derive(Debug, Default)]
pub struct DutyCycle {
    pub fires: u64,
}

impl DutyCycle {
    const PERIOD_US: u64 = 250_000;

    fn phase(node: u32) -> u64 {
        (u64::from(node) * 7919) % Self::PERIOD_US
    }

    fn period(node: u32) -> u64 {
        Self::PERIOD_US + (u64::from(node) * 104_729) % 1_024
    }

    /// How many timers must fire by the end of a run under `cfg`: the
    /// workload's attempted operations, computed without the engine.
    pub fn expected_fires(cfg: &SimConfig) -> u64 {
        let end = cfg.total_time().as_micros();
        (0..(cfg.sensors + cfg.actuators) as u32)
            .filter(|&node| Self::phase(node) <= end)
            .map(|node| 1 + (end - Self::phase(node)) / Self::period(node))
            .sum()
    }
}

impl Protocol for DutyCycle {
    type Payload = DataId;

    fn name(&self) -> &'static str {
        "DutyCycle"
    }

    fn on_init(&mut self, ctx: &mut Ctx<DataId>) {
        let ids: Vec<NodeId> = ctx.node_ids().collect();
        for id in ids {
            ctx.set_timer(id, SimDuration::from_micros(Self::phase(id.0)), 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<DataId>, node: NodeId, _tag: u64) {
        self.fires += 1;
        ctx.set_timer(node, SimDuration::from_micros(Self::period(node.0)), 0);
    }

    fn on_app_data(&mut self, ctx: &mut Ctx<DataId>, _src: NodeId, data: DataId) {
        ctx.drop_data(data);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<DataId>, _at: NodeId, _msg: Message<DataId>) {}
}
