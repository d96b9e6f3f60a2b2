//! Kautz identifiers: digit strings labelling the vertices of `K(d, k)`.
//!
//! A vertex of the Kautz digraph `K(d, k)` is a word `u_1 u_2 ... u_k` over
//! the alphabet `{0, 1, ..., d}` (that is, `d + 1` letters) in which no two
//! adjacent letters are equal. [`KautzId`] holds such a word inline — a
//! fixed-length word by the paper's construction, so a `Copy` value with no
//! heap part — together with its degree `d`, and enforces the invariant at
//! construction.

use crate::error::KautzIdError;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// A validated Kautz vertex label `u_1 u_2 ... u_k` over the alphabet
/// `[0, d]` with `u_i != u_{i+1}`.
///
/// The identifier knows the degree `d` of the graph it belongs to; two
/// identifiers are comparable / routable only when both their degree and
/// length agree.
///
/// Equality, ordering and hashing are those of the pair
/// `(digits slice, degree)` — exactly what a `(Vec<u8>, u8)` would give —
/// so ordered rosters (`BTreeMap<KautzId, _>`) iterate in digit order.
///
/// # Examples
///
/// ```
/// # use kautz::KautzId;
/// # fn main() -> Result<(), kautz::KautzIdError> {
/// let u = KautzId::new([1, 2, 0], 2)?;
/// assert_eq!(u.k(), 3);
/// assert_eq!(u.degree(), 2);
/// assert_eq!(u.to_string(), "120");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct KautzId {
    /// `digits[..len]` is the word; the tail stays zero so the derived
    /// equality is equality of the words.
    digits: [u8; KautzId::MAX_K],
    len: u8,
    degree: u8,
}

impl KautzId {
    /// The longest label an identifier can hold: `k <= MAX_K`. Covers every
    /// graph the repository builds (`k = 3` in a cell, 13 in the `K(2, 13)`
    /// fabric) and keeps the value at 24 bytes.
    pub const MAX_K: usize = 22;

    /// Creates an identifier from raw digits, validating the Kautz
    /// constraints.
    ///
    /// # Errors
    ///
    /// Returns [`KautzIdError`] if the digit string is empty or longer than
    /// [`MAX_K`](Self::MAX_K), the degree is zero, any digit exceeds
    /// `degree`, or two adjacent digits are equal.
    pub fn new(digits: impl Into<Vec<u8>>, degree: u8) -> Result<Self, KautzIdError> {
        Self::from_slice(&digits.into(), degree)
    }

    /// [`KautzId::new`] over borrowed digits: no allocation, for callers
    /// that already hold the word (decoders, tables).
    ///
    /// # Errors
    ///
    /// As [`KautzId::new`].
    pub fn from_slice(digits: &[u8], degree: u8) -> Result<Self, KautzIdError> {
        if degree == 0 {
            return Err(KautzIdError::ZeroDegree);
        }
        if digits.is_empty() {
            return Err(KautzIdError::Empty);
        }
        if digits.len() > Self::MAX_K {
            return Err(KautzIdError::TooLong { len: digits.len(), max: Self::MAX_K });
        }
        for (index, &digit) in digits.iter().enumerate() {
            if digit > degree {
                return Err(KautzIdError::DigitOutOfRange { index, digit, degree });
            }
            if index + 1 < digits.len() && digits[index + 1] == digit {
                return Err(KautzIdError::AdjacentEqual { index, digit });
            }
        }
        let mut word = [0; Self::MAX_K];
        word[..digits.len()].copy_from_slice(digits);
        Ok(KautzId { digits: word, len: digits.len() as u8, degree })
    }

    /// Parses a decimal digit string such as `"201"` into an identifier of
    /// the given degree.
    ///
    /// # Errors
    ///
    /// Returns [`KautzIdError`] on non-digit characters, more than
    /// [`MAX_K`](Self::MAX_K) digits, or any violation of the Kautz
    /// constraints.
    ///
    /// # Examples
    ///
    /// ```
    /// # use kautz::KautzId;
    /// # fn main() -> Result<(), kautz::KautzIdError> {
    /// let v = KautzId::parse("2301", 4)?;
    /// assert_eq!(v.digits(), &[2, 3, 0, 1]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn parse(s: &str, degree: u8) -> Result<Self, KautzIdError> {
        let (word, len) = parse_digits(s)?;
        Self::from_slice(&word[..len], degree)
    }

    /// The label length `k`, i.e. the diameter of the graph this vertex
    /// belongs to.
    #[inline]
    pub fn k(&self) -> usize {
        self.len as usize
    }

    /// The graph degree `d`; the alphabet is `[0, d]`.
    #[inline]
    pub fn degree(&self) -> u8 {
        self.degree
    }

    /// The raw digits `u_1 ... u_k`.
    #[inline]
    pub fn digits(&self) -> &[u8] {
        &self.digits[..self.len as usize]
    }

    /// The first digit `u_1`.
    #[inline]
    pub fn first(&self) -> u8 {
        self.digits[0]
    }

    /// The last digit `u_k`.
    #[inline]
    pub fn last(&self) -> u8 {
        self.digits[self.len as usize - 1]
    }

    /// Whether `self` and `other` label vertices of the same graph
    /// (equal degree and length).
    #[inline]
    pub fn same_graph(&self, other: &KautzId) -> bool {
        self.degree == other.degree && self.len == other.len
    }

    /// `L(U, V)`: the length of the longest *proper-or-full* suffix of `self`
    /// that appears as a prefix of `other` (Section III-B of the paper).
    ///
    /// `L(U, U) == k`, so [`routing_distance`](Self::routing_distance) of a
    /// node to itself is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// # use kautz::KautzId;
    /// # fn main() -> Result<(), kautz::KautzIdError> {
    /// let u = KautzId::parse("120", 2)?;
    /// let v = KautzId::parse("201", 2)?;
    /// assert_eq!(u.overlap(&v), 2); // suffix "20" == prefix "20"
    /// # Ok(())
    /// # }
    /// ```
    pub fn overlap(&self, other: &KautzId) -> usize {
        let (mine, theirs) = (self.digits(), other.digits());
        let k = mine.len().min(theirs.len());
        for l in (1..=k).rev() {
            if mine[mine.len() - l..] == theirs[..l] {
                return l;
            }
        }
        0
    }

    /// The Kautz routing distance `k - L(U, V)`: the length of the unique
    /// shortest path from `self` to `other` in the digraph.
    ///
    /// Returns `0` when the identifiers are equal.
    pub fn routing_distance(&self, other: &KautzId) -> usize {
        debug_assert!(self.same_graph(other), "distance across different graphs");
        other.k() - self.overlap(other)
    }

    /// Shift-append: drops `u_1` and appends `digit`, producing the successor
    /// `u_2 ... u_k digit` reached by the arc labelled `digit`.
    ///
    /// # Errors
    ///
    /// Returns [`KautzIdError`] if `digit` exceeds the alphabet or equals the
    /// current last digit (no self-loop arcs exist in a Kautz graph).
    pub fn shift_append(&self, digit: u8) -> Result<Self, KautzIdError> {
        if digit > self.degree {
            return Err(KautzIdError::DigitOutOfRange {
                index: self.k(),
                digit,
                degree: self.degree,
            });
        }
        if digit == self.last() {
            return Err(KautzIdError::AdjacentEqual { index: self.k() - 1, digit });
        }
        Ok(self.shifted_left(digit))
    }

    /// `u_2 ... u_k last`: the word moved one place left with `last`
    /// entering at the end (unchecked).
    fn shifted_left(&self, last: u8) -> Self {
        let k = self.k();
        let mut out = *self;
        out.digits.copy_within(1..k, 0);
        out.digits[k - 1] = last;
        out
    }

    /// All `d` out-neighbors (successors) of this vertex, in increasing
    /// order of their appended digit.
    pub fn successors(&self) -> Vec<KautzId> {
        (0..=self.degree)
            .filter(|&digit| digit != self.last())
            .map(|digit| self.shifted_left(digit))
            .collect()
    }

    /// All `d` in-neighbors (predecessors): vertices `beta u_1 ... u_{k-1}`
    /// with `beta != u_1`.
    pub fn predecessors(&self) -> Vec<KautzId> {
        let k = self.k();
        (0..=self.degree)
            .filter(|&beta| beta != self.first())
            .map(|beta| {
                let mut out = *self;
                out.digits.copy_within(0..k - 1, 1);
                out.digits[0] = beta;
                out
            })
            .collect()
    }

    /// Whether there is an arc `self -> other` in the Kautz digraph, i.e.
    /// `other = u_2 ... u_k x` for some letter `x != u_k`.
    pub fn is_arc_to(&self, other: &KautzId) -> bool {
        self.same_graph(other)
            && self != other
            && self.digits()[1..] == other.digits()[..other.k() - 1]
    }

    /// Left rotation `u_2 u_3 ... u_k u_1`, written `kid_l` in the paper; the
    /// embedding protocol defines the *successor actuator* of actuator `kid`
    /// as the actuator labelled `rotate_left(kid)`.
    ///
    /// Rotation preserves validity whenever `u_1 != u_k`, which holds for the
    /// actuator labels used by the embedding (e.g. `012 -> 120 -> 201`).
    ///
    /// # Errors
    ///
    /// Returns [`KautzIdError::AdjacentEqual`] when `u_1 == u_k`, in which
    /// case the rotation is not a valid Kautz word.
    pub fn rotate_left(&self) -> Result<Self, KautzIdError> {
        if self.first() == self.last() && self.k() > 1 {
            return Err(KautzIdError::AdjacentEqual {
                index: self.k() - 1,
                digit: self.first(),
            });
        }
        Ok(self.shifted_left(self.first()))
    }

    /// A dense index of this vertex in `0..(d+1)*d^(k-1)`, the mixed-radix
    /// encoding used for compact tables: the first digit picks one of `d+1`
    /// letters and each later digit one of the `d` letters differing from its
    /// predecessor.
    pub fn to_index(&self) -> usize {
        let d = self.degree as usize;
        let mut index = self.digits[0] as usize;
        for w in self.digits().windows(2) {
            let (prev, cur) = (w[0], w[1]);
            // Rank of `cur` among letters != prev, i.e. cur adjusted down by
            // one when it sorts after prev.
            let rank = if cur > prev { cur as usize - 1 } else { cur as usize };
            index = index * d + rank;
        }
        index
    }

    /// Inverse of [`to_index`](Self::to_index).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for `K(degree, k)`, `degree == 0`,
    /// `k == 0` or `k >` [`MAX_K`](Self::MAX_K) — graph parameters come
    /// from the program, not from input; [`KautzGraph::new`] and
    /// [`RouteTable::new`] refuse such a `k` before any vertex is built.
    ///
    /// [`KautzGraph::new`]: crate::KautzGraph::new
    /// [`RouteTable::new`]: crate::RouteTable::new
    pub fn from_index(mut index: usize, degree: u8, k: usize) -> Self {
        assert!(degree >= 1 && k >= 1, "degenerate Kautz graph");
        assert!(k <= Self::MAX_K, "{}", KautzIdError::TooLong { len: k, max: Self::MAX_K });
        let d = degree as usize;
        // A vertex count past `usize` (K(8, 22)) puts every index in range.
        let count = d.checked_pow((k - 1) as u32).and_then(|p| p.checked_mul(d + 1));
        assert!(
            count.is_none_or(|count| index < count),
            "index {index} out of range for K({degree}, {k})"
        );
        // Peel the ranks off last digit first, then turn each rank into the
        // letter it names among those differing from its predecessor.
        let mut digits = [0; Self::MAX_K];
        for slot in digits[1..k].iter_mut().rev() {
            *slot = (index % d) as u8;
            index /= d;
        }
        digits[0] = index as u8;
        for i in 1..k {
            if digits[i] >= digits[i - 1] {
                digits[i] += 1;
            }
        }
        KautzId { digits, len: k as u8, degree }
    }
}

// What the hot paths rely on: a KID is a `Copy` value of at most 24 bytes,
// and the K(2, 13) fabric's labels fit.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<KautzId>();
    assert!(std::mem::size_of::<KautzId>() <= 24);
    assert!(KautzId::MAX_K >= 16);
};

/// Decimal digits of `s` into an inline word, diagnosing the first
/// non-digit and a string past [`KautzId::MAX_K`].
fn parse_digits(s: &str) -> Result<([u8; KautzId::MAX_K], usize), KautzIdError> {
    let mut word = [0; KautzId::MAX_K];
    let mut len = 0;
    for (index, ch) in s.chars().enumerate() {
        let digit = ch.to_digit(10).ok_or(KautzIdError::InvalidChar { index, ch })? as u8;
        if index == KautzId::MAX_K {
            return Err(KautzIdError::TooLong { len: s.chars().count(), max: KautzId::MAX_K });
        }
        word[index] = digit;
        len = index + 1;
    }
    Ok((word, len))
}

impl PartialOrd for KautzId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KautzId {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.digits(), self.degree).cmp(&(other.digits(), other.degree))
    }
}

impl Hash for KautzId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.digits().hash(state);
        self.degree.hash(state);
    }
}

impl fmt::Display for KautzId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &digit in self.digits() {
            write!(f, "{digit}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for KautzId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KautzId({self} /K({}, {}))", self.degree, self.len)
    }
}

impl AsRef<[u8]> for KautzId {
    fn as_ref(&self) -> &[u8] {
        self.digits()
    }
}

/// Parses a digit string into an identifier whose degree is the smallest
/// degree containing every digit (i.e. `max(digits).max(1)`).
///
/// Prefer [`KautzId::parse`] when the graph degree is known; `FromStr` is a
/// convenience for tests and examples.
impl FromStr for KautzId {
    type Err = KautzIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (word, len) = parse_digits(s)?;
        let digits = &word[..len];
        let degree = digits.iter().copied().max().unwrap_or(1).max(1);
        Self::from_slice(digits, degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str, d: u8) -> KautzId {
        KautzId::parse(s, d).expect("valid id in test")
    }

    #[test]
    fn new_validates_alphabet() {
        assert!(matches!(
            KautzId::new([0, 3], 2),
            Err(KautzIdError::DigitOutOfRange { index: 1, digit: 3, degree: 2 })
        ));
    }

    #[test]
    fn new_rejects_adjacent_equal() {
        assert!(matches!(
            KautzId::new([0, 1, 1], 2),
            Err(KautzIdError::AdjacentEqual { index: 1, digit: 1 })
        ));
    }

    #[test]
    fn new_rejects_empty_and_zero_degree() {
        assert_eq!(KautzId::new(Vec::new(), 2), Err(KautzIdError::Empty));
        assert_eq!(KautzId::new([0, 1], 0), Err(KautzIdError::ZeroDegree));
    }

    /// A word of `len` alternating digits `0101…`.
    fn alternating(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 2) as u8).collect()
    }

    #[test]
    fn labels_past_max_k_are_a_diagnosed_reject() {
        let longest = alternating(KautzId::MAX_K);
        let id = KautzId::new(longest.clone(), 2).expect("MAX_K digits fit");
        assert_eq!(id.digits(), longest);
        let text: String = longest.iter().map(|d| d.to_string()).collect();
        assert_eq!(KautzId::parse(&text, 2), Ok(id));
        assert_eq!(text.parse::<KautzId>().expect("fits").digits(), longest);

        for len in [KautzId::MAX_K + 1, 64, 10_000] {
            let too_long = KautzIdError::TooLong { len, max: KautzId::MAX_K };
            let digits = alternating(len);
            assert_eq!(KautzId::new(digits.clone(), 2), Err(too_long.clone()));
            assert_eq!(KautzId::from_slice(&digits, 2), Err(too_long.clone()));
            let text: String = digits.iter().map(|d| d.to_string()).collect();
            assert_eq!(KautzId::parse(&text, 2), Err(too_long.clone()));
            assert_eq!(text.parse::<KautzId>(), Err(too_long));
        }
        // The first bad character still wins over the length.
        let text = format!("{}x", "01".repeat(4));
        assert!(matches!(text.parse::<KautzId>(), Err(KautzIdError::InvalidChar { index: 8, .. })));
    }

    #[test]
    #[should_panic(expected = "exceeds the supported length")]
    fn from_index_refuses_a_diameter_past_max_k() {
        KautzId::from_index(0, 2, KautzId::MAX_K + 1);
    }

    #[test]
    fn from_index_reaches_max_k() {
        let k = KautzId::MAX_K;
        let count = 3 * 2usize.pow(k as u32 - 1);
        for index in [0, 1, count / 2, count - 1] {
            let id = KautzId::from_index(index, 2, k);
            assert_eq!(id.k(), k);
            assert_eq!(id.to_index(), index);
            assert_eq!(KautzId::new(id.digits(), 2), Ok(id));
        }
    }

    #[test]
    fn parse_rejects_non_digits() {
        assert!(matches!(
            KautzId::parse("0a1", 2),
            Err(KautzIdError::InvalidChar { index: 1, ch: 'a' })
        ));
    }

    #[test]
    fn overlap_matches_paper_example() {
        // Paper Section III-B: distance(120, 201) = k - L = 3 - 2 = 1.
        let u = id("120", 2);
        let v = id("201", 2);
        assert_eq!(u.overlap(&v), 2);
        assert_eq!(u.routing_distance(&v), 1);
    }

    #[test]
    fn overlap_of_self_is_k() {
        let u = id("0123", 4);
        assert_eq!(u.overlap(&u), 4);
        assert_eq!(u.routing_distance(&u), 0);
    }

    #[test]
    fn overlap_is_zero_for_disjoint_words() {
        assert_eq!(id("210", 2).overlap(&id("212", 2)), 0);
    }

    #[test]
    fn figure_2a_distance() {
        // Paper Figure 2(a): U = 0123, V = 2301 share "23", so l = 2 and the
        // shortest path has length k - l = 2.
        let u = id("0123", 4);
        let v = id("2301", 4);
        assert_eq!(u.overlap(&v), 2);
        assert_eq!(u.routing_distance(&v), 2);
    }

    #[test]
    fn shift_append_produces_successor() {
        let u = id("0123", 4);
        let s = u.shift_append(0).expect("0 != last digit 3");
        assert_eq!(s.to_string(), "1230");
        assert!(u.is_arc_to(&s));
    }

    #[test]
    fn shift_append_rejects_last_digit() {
        let u = id("0123", 4);
        assert!(u.shift_append(3).is_err());
        assert!(u.shift_append(5).is_err());
    }

    #[test]
    fn successors_count_is_degree() {
        let u = id("0123", 4);
        let succ = u.successors();
        assert_eq!(succ.len(), 4);
        for s in &succ {
            assert!(u.is_arc_to(s));
        }
    }

    #[test]
    fn predecessors_are_inverse_of_successors() {
        let u = id("120", 2);
        for p in u.predecessors() {
            assert!(p.is_arc_to(&u));
            assert!(p.successors().contains(&u));
        }
        assert_eq!(u.predecessors().len(), 2);
    }

    #[test]
    fn rotate_left_cycles_actuator_labels() {
        // The embedding's actuator successor chain: 012 -> 120 -> 201 -> 012.
        let a = id("012", 2);
        let b = a.rotate_left().expect("rotation of 012 valid");
        assert_eq!(b.to_string(), "120");
        let c = b.rotate_left().expect("rotation of 120 valid");
        assert_eq!(c.to_string(), "201");
        assert_eq!(c.rotate_left().expect("rotation of 201 valid"), a);
    }

    #[test]
    fn rotate_left_rejects_equal_endpoints() {
        assert!(id("010", 2).rotate_left().is_err());
    }

    #[test]
    fn index_round_trips() {
        for d in 1..=4u8 {
            for k in 1..=3usize {
                let count = (d as usize + 1) * (d as usize).pow((k - 1) as u32);
                for index in 0..count {
                    let v = KautzId::from_index(index, d, k);
                    assert_eq!(v.to_index(), index, "round trip in K({d}, {k})");
                    assert_eq!(v.k(), k);
                }
            }
        }
    }

    #[test]
    fn adjacency_is_directional() {
        let u = id("012", 2);
        let s = id("120", 2);
        assert!(u.is_arc_to(&s));
        assert!(!s.is_arc_to(&u));
    }

    #[test]
    fn display_and_from_str_round_trip() {
        let u: KautzId = "2301".parse().expect("valid literal");
        assert_eq!(u.to_string(), "2301");
        assert_eq!(u.degree(), 3);
    }
}
