//! # wsan-sim — a discrete-event wireless sensor/actuator network simulator
//!
//! The substrate on which the REFER reproduction runs its evaluation
//! (standing in for ns-2 in Section IV of Li & Shen, ICDCS 2012). It
//! provides:
//!
//! * a deterministic discrete-event engine with microsecond integer time
//!   ([`SimTime`], seeded [`rand::rngs::StdRng`]);
//! * sensor/actuator nodes with unit-disk radios, per-node transmission
//!   ranges, random-waypoint mobility and rotating fault injection;
//! * a queueing radio model: per-frame service time at the channel bitrate
//!   plus MAC overhead and contention jitter, with transmissions queueing
//!   behind each node's earlier traffic — hot relays congest, which is what
//!   separates the systems in the paper's figures;
//! * per-packet energy metering at the paper's prices (2 J tx / 0.75 J rx)
//!   split into *construction* and *communication* ledgers;
//! * application traffic generation (5 random sources every 10 s at
//!   1 Mb/s) and QoS-deadline throughput and delay metrics, one
//!   [`RunSummary`] per run.
//!
//! Systems implement [`Protocol`] and are driven by [`runner::run`]:
//!
//! ```
//! use wsan_sim::{flood::FloodProtocol, runner, SimConfig, SimDuration};
//!
//! let mut cfg = SimConfig::smoke();
//! cfg.duration = SimDuration::from_secs(20);
//! cfg.traffic.rate_bps = 8_000.0; // one packet per second per source
//! cfg.traffic.sources_per_round = 2;
//! cfg.seed = 7;
//! let mut protocol = FloodProtocol::new(6);
//! let summary = runner::run(cfg, &mut protocol);
//! assert!(summary.delivery_ratio > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acks;
pub mod config;
mod ctx;
mod energy;
pub mod flood;
mod geometry;
pub mod grid;
pub mod hist;
mod message;
mod metrics;
mod node;
mod protocol;
pub mod runner;
pub mod shard;
mod time;
pub mod trace;
pub mod traffic;
mod wheel;

pub use config::{
    ActuatorPlacement, ByzantineConfig, Engine, FaultConfig, FaultModel, MobilityConfig,
    RadioConfig, RoutingStrategy, SensorPlacement, ShardedConfig, SimConfig, TrafficConfig,
};
pub use ctx::Ctx;
pub use energy::{EnergyAccount, EnergyLedger, EnergyModel};
pub use geometry::{centroid, Area, Point};
pub use grid::SpatialGrid;
pub use hist::LogHistogram;
pub use message::{DataId, DataRecord, Message};
pub use metrics::{jain_fairness, DropReason, Metrics, RunSummary};
pub use node::{NodeId, NodeKind, NodeState};
pub use protocol::Protocol;
pub use shard::{run_engine, run_sharded, run_sharded_with_sinks, ShardableProtocol};
pub use time::{SimDuration, SimTime};
pub use trace::{HopReason, TraceEvent, TraceSink};
pub use traffic::TrafficPattern;
