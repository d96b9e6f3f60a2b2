//! # refer — a Kautz-based real-time, fault-tolerant, energy-efficient WSAN
//!
//! A from-scratch reproduction of *REFER* (Li & Shen, ICDCS 2012). The
//! system embeds a Kautz graph `K(d, 3)` into each cell of a wireless
//! sensor/actuator network so that overlay neighbors are physical
//! neighbors, connects cells through a CAN DHT over the actuators, and
//! routes around failures using only node IDs (Theorem 3.8 of the paper —
//! implemented in the [`kautz`] crate and driven here).
//!
//! Main entry points:
//!
//! * [`ReferProtocol`] — the full system as a [`wsan_sim::Protocol`]: plug
//!   it into [`wsan_sim::runner::run`] to simulate. Each node's own state
//!   is a private `NodeLocal` row whose methods are its local handlers.
//! * [`cells`] — the starting server's cell partitioning (triangles, CIDs,
//!   vertex coloring).
//! * [`embedding`] — the `K(d, 3)` embedding plan: which KIDs each stage
//!   assigns, in what order.
//! * [`routing`] — per-relay next-hop selection over the `d` disjoint
//!   paths, with the conflict-node forced digit.
//! * [`tier`] — the CAN-based inter-cell tier.
//! * [`maintenance`] — duty states and the replacement rule.
//! * [`roster`] — who holds which KID, per cell and per node; the
//!   Kautz-overlay baseline keeps its rosters here too.
//!
//! ```
//! use refer::{ReferConfig, ReferProtocol};
//! use wsan_sim::{runner, SimConfig, SimDuration};
//!
//! let mut cfg = SimConfig::smoke();
//! cfg.duration = SimDuration::from_secs(20);
//! let mut refer = ReferProtocol::new(ReferConfig::default());
//! let summary = runner::run(cfg, &mut refer);
//! assert!(refer.stats.cells_ready >= 1, "cells built during init");
//! assert!(summary.delivery_ratio > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod cells;
mod config;
pub mod embedding;
mod local;
pub mod maintenance;
pub mod protocol;
pub mod roster;
pub mod routing;
pub mod tier;

pub use addr::{consistent_hash, CellId};
pub use config::ReferConfig;
pub use protocol::{CellSnapshot, DataFrame, ReferMsg, ReferProtocol, ReferStats};
pub use tier::DhtTier;
