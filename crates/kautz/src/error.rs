//! Error types for Kautz identifier construction and parsing.

use std::error::Error;
use std::fmt;

/// Error produced when constructing a [`KautzId`](crate::KautzId) from raw
/// digits or text.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KautzIdError {
    /// The digit string was empty; a Kautz identifier has length `k >= 1`.
    Empty,
    /// The degree was zero; a Kautz graph needs an alphabet of at least two
    /// letters (`d + 1 >= 2`).
    ZeroDegree,
    /// A digit exceeded the alphabet `[0, d]`.
    DigitOutOfRange {
        /// Position of the offending digit (0-based).
        index: usize,
        /// The offending digit value.
        digit: u8,
        /// The graph degree `d`; valid digits are `0..=d`.
        degree: u8,
    },
    /// Two adjacent digits were equal, violating the Kautz constraint
    /// `u_i != u_{i+1}`.
    AdjacentEqual {
        /// Position of the first of the two equal digits (0-based).
        index: usize,
        /// The repeated digit value.
        digit: u8,
    },
    /// A character in a textual identifier was not a digit in `[0, 9]`.
    InvalidChar {
        /// Position of the offending character (0-based).
        index: usize,
        /// The offending character.
        ch: char,
    },
    /// The label is longer than an identifier holds
    /// ([`KautzId::MAX_K`](crate::KautzId::MAX_K)).
    TooLong {
        /// The length asked for.
        len: usize,
        /// The longest label supported.
        max: usize,
    },
}

impl fmt::Display for KautzIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KautzIdError::Empty => write!(f, "kautz identifier must not be empty"),
            KautzIdError::ZeroDegree => {
                write!(f, "kautz graph degree must be at least 1")
            }
            KautzIdError::DigitOutOfRange { index, digit, degree } => write!(
                f,
                "digit {digit} at position {index} exceeds alphabet bound {degree}"
            ),
            KautzIdError::AdjacentEqual { index, digit } => write!(
                f,
                "adjacent digits at positions {index} and {} are both {digit}",
                index + 1
            ),
            KautzIdError::InvalidChar { index, ch } => {
                write!(f, "invalid character {ch:?} at position {index}")
            }
            KautzIdError::TooLong { len, max } => {
                write!(f, "kautz identifier of {len} digits exceeds the supported length {max}")
            }
        }
    }
}

impl Error for KautzIdError {}

/// Error produced by routing operations on mismatched identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RoutingError {
    /// The two identifiers belong to different Kautz graphs (their degree or
    /// length differ), so no route between them is defined.
    IncompatibleIds {
        /// `(degree, length)` of the source identifier.
        source: (u8, usize),
        /// `(degree, length)` of the destination identifier.
        dest: (u8, usize),
    },
    /// Source and destination are the same node; there is nothing to route.
    SameNode,
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::IncompatibleIds { source, dest } => write!(
                f,
                "identifiers live in different Kautz graphs: source K({}, {}) vs dest K({}, {})",
                source.0, source.1, dest.0, dest.1
            ),
            RoutingError::SameNode => {
                write!(f, "source and destination are the same node")
            }
        }
    }
}

impl Error for RoutingError {}
