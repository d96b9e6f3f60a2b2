//! The 2-dimensional CAN coordinate space and its rectangular zones.

use std::fmt;

/// A point in the unit square `[0, 1) x [0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Coord {
    /// First coordinate, in `[0, 1)`.
    pub x: f64,
    /// Second coordinate, in `[0, 1)`.
    pub y: f64,
}

impl Coord {
    /// Creates a coordinate, clamping into `[0, 1)`.
    pub fn new(x: f64, y: f64) -> Self {
        const TOP: f64 = 1.0 - f64::EPSILON;
        Coord { x: x.clamp(0.0, TOP), y: y.clamp(0.0, TOP) }
    }

}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

/// An axis-aligned half-open rectangle `[lo_x, hi_x) x [lo_y, hi_y)` owned
/// by one CAN node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zone {
    /// Inclusive lower x bound.
    pub lo_x: f64,
    /// Inclusive lower y bound.
    pub lo_y: f64,
    /// Exclusive upper x bound.
    pub hi_x: f64,
    /// Exclusive upper y bound.
    pub hi_y: f64,
}

impl Zone {
    /// The whole unit square.
    pub const UNIT: Zone = Zone { lo_x: 0.0, lo_y: 0.0, hi_x: 1.0, hi_y: 1.0 };

    /// Whether the zone contains a coordinate (half-open semantics).
    pub fn contains(&self, c: &Coord) -> bool {
        c.x >= self.lo_x && c.x < self.hi_x && c.y >= self.lo_y && c.y < self.hi_y
    }

    /// The zone's center.
    pub fn center(&self) -> Coord {
        Coord::new((self.lo_x + self.hi_x) / 2.0, (self.lo_y + self.hi_y) / 2.0)
    }

    /// The zone's area.
    pub fn area(&self) -> f64 {
        (self.hi_x - self.lo_x) * (self.hi_y - self.lo_y)
    }

    /// Splits the zone in half along its longer side (ties split on x),
    /// keeping the CAN invariant that zones stay close to square. Returns
    /// `(kept, given)` where `given` is handed to the joining node.
    pub fn split(&self) -> (Zone, Zone) {
        if (self.hi_x - self.lo_x) >= (self.hi_y - self.lo_y) {
            let mid = (self.lo_x + self.hi_x) / 2.0;
            (Zone { hi_x: mid, ..*self }, Zone { lo_x: mid, ..*self })
        } else {
            let mid = (self.lo_y + self.hi_y) / 2.0;
            (Zone { hi_y: mid, ..*self }, Zone { lo_y: mid, ..*self })
        }
    }

    /// Whether two zones abut: they share a border segment of positive
    /// length along one axis and overlap in the other (CAN's neighbor
    /// relation).
    pub fn is_neighbor(&self, other: &Zone) -> bool {
        let x_overlap = overlap_len(self.lo_x, self.hi_x, other.lo_x, other.hi_x);
        let y_overlap = overlap_len(self.lo_y, self.hi_y, other.lo_y, other.hi_y);
        let x_abut = self.hi_x == other.lo_x || other.hi_x == self.lo_x;
        let y_abut = self.hi_y == other.lo_y || other.hi_y == self.lo_y;
        (x_abut && y_overlap > 0.0) || (y_abut && x_overlap > 0.0)
    }

    /// Distance from this zone to a coordinate: zero if contained,
    /// otherwise the distance to the zone's nearest edge point.
    pub fn distance_to(&self, c: &Coord) -> f64 {
        let dx = if c.x < self.lo_x {
            self.lo_x - c.x
        } else if c.x >= self.hi_x {
            c.x - self.hi_x
        } else {
            0.0
        };
        let dy = if c.y < self.lo_y {
            self.lo_y - c.y
        } else if c.y >= self.hi_y {
            c.y - self.hi_y
        } else {
            0.0
        };
        (dx * dx + dy * dy).sqrt()
    }
}

fn overlap_len(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64) -> f64 {
    (a_hi.min(b_hi) - a_lo.max(b_lo)).max(0.0)
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.3}, {:.3}) x [{:.3}, {:.3})",
            self.lo_x, self.hi_x, self.lo_y, self.hi_y
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_zone_contains_all_coords() {
        let z = Zone::UNIT;
        assert!(z.contains(&Coord::new(0.0, 0.0)));
        assert!(z.contains(&Coord::new(0.999, 0.5)));
        // Coord::new clamps 1.0 just below 1, so it is still contained.
        assert!(z.contains(&Coord::new(1.0, 1.0)));
        assert_eq!(z.area(), 1.0);
    }

    #[test]
    fn split_halves_area_and_partitions() {
        let (a, b) = Zone::UNIT.split();
        assert_eq!(a.area(), 0.5);
        assert_eq!(b.area(), 0.5);
        let p = Coord::new(0.25, 0.7);
        assert!(a.contains(&p) ^ b.contains(&p));
        // First split cuts x (square tie), second split of a half cuts y.
        let (c, d) = a.split();
        assert_eq!(c.hi_y, 0.5);
        assert_eq!(d.lo_y, 0.5);
    }

    #[test]
    fn neighbors_share_borders() {
        let (a, b) = Zone::UNIT.split();
        assert!(a.is_neighbor(&b));
        assert!(b.is_neighbor(&a));
        let (c, d) = a.split();
        assert!(c.is_neighbor(&d));
        assert!(c.is_neighbor(&b), "quarter abuts the right half");
        assert!(!c.is_neighbor(&c));
    }

    #[test]
    fn corner_touch_is_not_neighbor() {
        let (a, b) = Zone::UNIT.split();
        let (a_bot, _a_top) = a.split();
        let (_b_bot, b_top) = b.split();
        // a_bot = [0,.5)x[0,.5), b_top = [.5,1)x[.5,1): touch only at a point.
        assert!(!a_bot.is_neighbor(&b_top));
    }

    #[test]
    fn distance_to_is_zero_inside_and_positive_outside() {
        let (a, b) = Zone::UNIT.split();
        let p = Coord::new(0.75, 0.5);
        assert_eq!(b.distance_to(&p), 0.0);
        assert!(a.distance_to(&p) > 0.0);
        assert!((a.distance_to(&Coord::new(0.75, 0.5)) - 0.25).abs() < 1e-12);
    }

}
