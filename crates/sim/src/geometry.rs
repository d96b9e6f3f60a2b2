//! Planar geometry for node placement, mobility and unit-disk connectivity.

use std::fmt;

/// A position in the deployment area, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate, meters.
    pub x: f64,
    /// Vertical coordinate, meters.
    pub y: f64,
}

impl Point {
    /// Creates a point from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Midpoint of the segment to `other`.
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Moves `step` meters from `self` toward `target`, stopping at the
    /// target if it is closer than `step`.
    pub fn step_toward(&self, target: &Point, step: f64) -> Point {
        let d = self.distance(target);
        if d <= step || d == 0.0 {
            return *target;
        }
        let f = step / d;
        Point::new(self.x + (target.x - self.x) * f, self.y + (target.y - self.y) * f)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// The rectangular deployment area `[0, width] x [0, height]`, in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Area {
    /// Width of the area, meters.
    pub width: f64,
    /// Height of the area, meters.
    pub height: f64,
}

impl Area {
    /// Creates an area.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is non-positive or not finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width.is_finite() && height.is_finite() && width > 0.0 && height > 0.0,
            "invalid area {width} x {height}"
        );
        Area { width, height }
    }

    /// Whether a point lies inside the area (inclusive of edges).
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= 0.0 && p.y >= 0.0 && p.x <= self.width && p.y <= self.height
    }

    /// Clamps a point into the area.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(p.x.clamp(0.0, self.width), p.y.clamp(0.0, self.height))
    }

    /// The geometric center of the area.
    pub fn center(&self) -> Point {
        Point::new(self.width / 2.0, self.height / 2.0)
    }
}

/// Centroid of a set of points. Returns the origin for an empty slice.
pub fn centroid(points: &[Point]) -> Point {
    if points.is_empty() {
        return Point::default();
    }
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
    Point::new(sx / points.len() as f64, sy / points.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(b.distance(&a), 5.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn step_toward_stops_at_target() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        assert_eq!(a.step_toward(&b, 4.0), Point::new(4.0, 0.0));
        assert_eq!(a.step_toward(&b, 20.0), b);
        assert_eq!(b.step_toward(&b, 1.0), b);
    }

    #[test]
    fn area_contains_and_clamps() {
        let area = Area::new(500.0, 500.0);
        assert!(area.contains(&Point::new(0.0, 500.0)));
        assert!(!area.contains(&Point::new(-1.0, 10.0)));
        assert_eq!(area.clamp(Point::new(-5.0, 600.0)), Point::new(0.0, 500.0));
        assert_eq!(area.center(), Point::new(250.0, 250.0));
    }

    #[test]
    #[should_panic(expected = "invalid area")]
    fn zero_area_panics() {
        let _ = Area::new(0.0, 100.0);
    }

    #[test]
    fn centroid_averages() {
        let pts = [Point::new(0.0, 0.0), Point::new(2.0, 0.0), Point::new(1.0, 3.0)];
        let c = centroid(&pts);
        assert!((c.x - 1.0).abs() < 1e-12 && (c.y - 1.0).abs() < 1e-12);
        assert_eq!(centroid(&[]), Point::default());
    }
}
