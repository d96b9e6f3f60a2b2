//! Order-independent event-stream hashing.
//!
//! `trace verify` needs to prove that a serial run and a parallel run (or
//! a record and a replay) produced *the same multiset of events* without
//! holding either stream in memory. Each event line is hashed with
//! FNV-1a, and the per-line hashes are folded with commutative
//! operations, so the digest is independent of the order in which the
//! lines were observed and two streams can be compared by their digests
//! alone.
//!
//! An [`EventHash`] is itself a [`TraceSink`]: a run attaches it shared
//! as `Arc<Mutex<EventHash>>` and reads the digest afterwards.

use crate::codec::to_jsonl_line;
use wsan_sim::trace::{TraceEvent, TraceSink};

/// 64-bit FNV-1a of a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A commutative multiset digest of an event stream.
///
/// Folds per-line FNV-1a hashes with order-independent combiners (count,
/// wrapping sum, XOR, and a sum of squares to separate multisets the
/// linear sum cannot). Two streams with the same lines in any order give
/// equal digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventHash {
    /// Number of lines observed.
    pub count: u64,
    sum: u64,
    xor: u64,
    sum_sq: u64,
}

impl EventHash {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event line into the digest.
    pub fn update(&mut self, line: &str) {
        let h = fnv1a64(line.as_bytes());
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h;
        self.sum_sq = self.sum_sq.wrapping_add(h.wrapping_mul(h));
    }

    /// Merges another digest (the union of both multisets).
    pub fn merge(&mut self, other: &EventHash) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.xor ^= other.xor;
        self.sum_sq = self.sum_sq.wrapping_add(other.sum_sq);
    }

    /// The digest as a compact printable form.
    pub fn digest(&self) -> String {
        format!("{:016x}-{:016x}-{:016x}x{}", self.sum, self.xor, self.sum_sq, self.count)
    }
}

/// Folds every event's JSONL line into the digest; constant memory.
impl TraceSink for EventHash {
    fn on_event(&mut self, event: &TraceEvent) {
        self.update(&to_jsonl_line(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_independent() {
        let lines = ["a", "bb", "ccc", "dddd"];
        let mut fwd = EventHash::new();
        let mut rev = EventHash::new();
        for l in lines {
            fwd.update(l);
        }
        for l in lines.iter().rev() {
            rev.update(l);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.digest(), rev.digest());
    }

    #[test]
    fn multiset_sensitive() {
        // Same set, different multiplicities, must differ.
        let mut once = EventHash::new();
        once.update("a");
        once.update("b");
        let mut twice = EventHash::new();
        twice.update("a");
        twice.update("a");
        twice.update("b");
        assert_ne!(once, twice);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut whole = EventHash::new();
        for l in ["x", "y", "z"] {
            whole.update(l);
        }
        let mut left = EventHash::new();
        left.update("x");
        let mut right = EventHash::new();
        right.update("y");
        right.update("z");
        left.merge(&right);
        assert_eq!(whole, left);
    }

    #[test]
    fn different_content_differs() {
        let mut a = EventHash::new();
        a.update("alpha");
        let mut b = EventHash::new();
        b.update("beta");
        assert_ne!(a.digest(), b.digest());
    }
}
