//! # kautz — Kautz digraph theory for REFER
//!
//! This crate implements the graph-theoretic core of *REFER: A Kautz-based
//! Real-time and Energy-Efficient Wireless Sensor and Actuator Network*
//! (Li & Shen, ICDCS 2012):
//!
//! * [`KautzId`] — validated vertex labels `u_1 ... u_k` over the alphabet
//!   `[0, d]` with `u_i != u_{i+1}`, plus the label arithmetic the paper's
//!   protocols are built from (`L(U, V)` overlap, shift-append successors,
//!   left rotation).
//! * [`KautzGraph`] — the digraph `K(d, k)` as a whole: enumeration, node
//!   and arc counts (Lemma 3.1), the Moore bound and the measured diameter.
//!   Its tests check Proposition 3.1's comparisons against de Bruijn
//!   graphs and hypercubes over their closed-form sizes. The physical
//!   embedding (`refer::embedding`) lays each cell out by stage paths, so
//!   nothing here builds Hamiltonian cycles.
//! * [`routing`] — the greedy shortest protocol (next hop and full path
//!   from IDs alone) and the Faber–Streib *regular* protocol, which trades
//!   up to one extra hop for uniform per-arc load under all-to-all traffic.
//! * [`disjoint`] — **Theorem 3.8**: the `d` vertex-disjoint `U -> V`
//!   paths, their successors, lengths and the conflict-node rule
//!   (Propositions 3.3–3.7), computed purely from the two identifiers.
//! * [`table`] — [`RouteTable`]: dense precomputed successor / next-hop /
//!   Theorem 3.8 tables giving allocation-free O(1) lookups for forwarding
//!   hot paths.
//! * [`brute`] — brute-force reference algorithms (BFS, DFTR-style route
//!   generation) used to verify the theorem and as the ablation baseline.
//!
//! # Quick example
//!
//! ```
//! use kautz::{KautzId, disjoint::disjoint_paths};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let u = KautzId::parse("0123", 4)?;
//! let v = KautzId::parse("2301", 4)?;
//! // A relay that fails to reach its shortest-path successor immediately
//! // knows every alternative and its exact length:
//! for plan in disjoint_paths(&u, &v)? {
//!     println!("via {} in {} hops", plan.successor, plan.length);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod disjoint;
mod error;
mod graph;
mod id;
pub mod routing;
pub mod table;

pub use disjoint::{disjoint_paths, PathClass, PathPlan};
pub use error::{KautzIdError, RoutingError};
pub use graph::{KautzGraph, Nodes};
pub use id::KautzId;
pub use routing::{greedy_next_hop, greedy_path, regular_next_hop, regular_path};
pub use table::{PlanSet, RouteTable, TablePlan};
