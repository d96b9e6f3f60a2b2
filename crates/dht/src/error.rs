//! The error a CAN join can return.

use crate::space::Zone;
use std::error::Error;
use std::fmt;

/// Error produced by [`CanNetwork::join`](crate::CanNetwork::join).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum CanError {
    /// The zone containing the join coordinate is below the split
    /// resolution floor.
    ZoneTooSmall {
        /// The unsplittable zone.
        zone: Zone,
    },
}

impl fmt::Display for CanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanError::ZoneTooSmall { zone } => {
                write!(f, "zone {zone} is too small to split")
            }
        }
    }
}

impl Error for CanError {}
