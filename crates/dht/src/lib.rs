//! # can-dht — a Content-Addressable Network
//!
//! A from-scratch implementation of the CAN structured overlay (Ratnasamy
//! et al., SIGCOMM 2001) over the 2-dimensional unit square: zone
//! partitioning with halving splits on join, CAN neighbor sets and greedy
//! coordinate routing. Members only join: REFER builds its tier once, and
//! the reproduction's actuators never fail (the paper's fault sweeps fail
//! sensors only), so each member owns exactly one zone.
//!
//! REFER (Li & Shen, ICDCS 2012, Section III-B3) builds its upper tier by
//! placing every actuator into a CAN keyed by cell ID: "REFER builds
//! actuators into a CAN by directly using CID as CAN ID … when an actuator
//! receives a message destined to a cell, it forwards the message to its
//! neighboring actuator with the CID closest to the cell's CID." The
//! `refer` crate maps CIDs onto unit-square coordinates and drives this
//! structure.
//!
//! ```
//! use can_dht::{CanNetwork, Coord};
//!
//! # fn main() -> Result<(), can_dht::CanError> {
//! let mut net = CanNetwork::new();
//! let a = net.join(Coord::new(0.2, 0.2))?;
//! let _b = net.join(Coord::new(0.8, 0.2))?;
//! let _c = net.join(Coord::new(0.5, 0.8))?;
//! let path = net.route(a, &Coord::new(0.8, 0.2)).expect("owner exists");
//! assert!(path.len() >= 2);
//! net.check_invariants().map_err(|e| panic!("{e}")).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod network;
mod space;

pub use error::CanError;
pub use network::{CanId, CanNetwork, CanNode};
pub use space::{Coord, Zone};
