//! # refer-baselines — the comparison systems of the REFER evaluation
//!
//! Section IV of the paper compares REFER against three systems, all
//! implemented here on the same [`wsan_sim`] substrate:
//!
//! * [`DaTreeProtocol`] — DaTree \[2\]: one broadcast-built tree per
//!   actuator; failures re-attach by broadcasting toward the root and the
//!   source retransmits.
//! * [`DdearProtocol`] — D-DEAR \[8\]: energy-based 2-hop clustering; heads
//!   keep flooding-discovered multi-hop paths to the closest actuator and
//!   rebuild them by broadcast on failure.
//! * [`KautzOverlayProtocol`] — Kautz-overlay \[20\]: REFER's cell structure
//!   and routing protocol, but with KIDs on random sensors (application
//!   layer), so every overlay arc is a flooding-built multi-hop physical
//!   path.
//!
//! The shared [`flood`] module implements the charged route-discovery
//! flood they all recover with (the "topological routing" of \[35\]).
//!
//! [`KautzFabricProtocol`] is not one of the paper's comparison systems:
//! it is the heavy-traffic testbed where the whole network is a single
//! Kautz graph, used to compare shortest against Faber–Streib regular
//! routing under traffic matrices.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datree;
pub mod ddear;
pub mod fabric;
pub mod flood;
pub mod kautz_overlay;

pub use datree::{DaTreeProtocol, DaTreeStats};
pub use ddear::{DdearProtocol, DdearStats};
pub use fabric::{fabric_config, FabricFrame, KautzFabricProtocol};
pub use kautz_overlay::{KautzOverlayProtocol, OverlayStats};
