//! Points and rectangles in window coordinates.

/// A point, in pixels. X uses signed 16-bit positions; we use `i32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Point {
    /// Horizontal coordinate, growing rightward.
    pub x: i32,
    /// Vertical coordinate, growing downward.
    pub y: i32,
}

impl Point {
    /// Creates a point.
    pub fn new(x: i32, y: i32) -> Self {
        Point { x, y }
    }

    /// Component-wise sum.
    pub fn offset(self, dx: i32, dy: i32) -> Self {
        Point::new(self.x + dx, self.y + dy)
    }
}

/// An axis-aligned rectangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Rect {
    /// Left edge.
    pub x: i32,
    /// Top edge.
    pub y: i32,
    /// Width in pixels.
    pub w: u32,
    /// Height in pixels.
    pub h: u32,
}

impl Rect {
    /// Creates a rectangle.
    pub const fn new(x: i32, y: i32, w: u32, h: u32) -> Self {
        Rect { x, y, w, h }
    }

    /// True if `p` lies inside (inclusive of the top-left edge,
    /// exclusive of the bottom-right edge, like X).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x
            && p.y >= self.y
            && p.x < self.x + self.w as i32
            && p.y < self.y + self.h as i32
    }

    /// Intersection, or `None` if the rectangles are disjoint.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let x1 = self.x.max(other.x);
        let y1 = self.y.max(other.y);
        let x2 = (self.x + self.w as i32).min(other.x + other.w as i32);
        let y2 = (self.y + self.h as i32).min(other.y + other.h as i32);
        if x2 > x1 && y2 > y1 {
            Some(Rect::new(x1, y1, (x2 - x1) as u32, (y2 - y1) as u32))
        } else {
            None
        }
    }

    /// The rectangle translated by `(dx, dy)`.
    pub fn translated(&self, dx: i32, dy: i32) -> Rect {
        Rect::new(self.x + dx, self.y + dy, self.w, self.h)
    }

    /// Area in pixels.
    pub fn area(&self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// The smallest rectangle covering both. An empty rectangle is the
    /// identity, so damage accumulation can start from `Rect::default()`.
    pub fn union(&self, other: &Rect) -> Rect {
        if self.w == 0 || self.h == 0 {
            return *other;
        }
        if other.w == 0 || other.h == 0 {
            return *self;
        }
        let x1 = self.x.min(other.x);
        let y1 = self.y.min(other.y);
        let x2 = (self.x + self.w as i32).max(other.x + other.w as i32);
        let y2 = (self.y + self.h as i32).max(other.y + other.h as i32);
        Rect::new(x1, y1, (x2 - x1) as u32, (y2 - y1) as u32)
    }

    /// True if `other` lies entirely inside this rectangle (empty
    /// rectangles are contained everywhere).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        if other.w == 0 || other.h == 0 {
            return true;
        }
        other.x >= self.x
            && other.y >= self.y
            && other.x + other.w as i32 <= self.x + self.w as i32
            && other.y + other.h as i32 <= self.y + self.h as i32
    }

    /// The rectangle grown by `m` pixels on every side (window borders).
    pub fn inflated(&self, m: u32) -> Rect {
        Rect::new(
            self.x - m as i32,
            self.y - m as i32,
            self.w + 2 * m,
            self.h + 2 * m,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_edges() {
        let r = Rect::new(10, 10, 5, 5);
        assert!(r.contains(Point::new(10, 10)));
        assert!(r.contains(Point::new(14, 14)));
        assert!(!r.contains(Point::new(15, 14)));
        assert!(!r.contains(Point::new(9, 10)));
    }

    #[test]
    fn intersections() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        assert_eq!(a.intersect(&b), Some(Rect::new(5, 5, 5, 5)));
        let c = Rect::new(20, 20, 3, 3);
        assert_eq!(a.intersect(&c), None);
        // Touching edges do not intersect.
        let d = Rect::new(10, 0, 5, 5);
        assert_eq!(a.intersect(&d), None);
    }

    #[test]
    fn translation_and_area() {
        let r = Rect::new(1, 2, 3, 4);
        assert_eq!(r.translated(10, 20), Rect::new(11, 22, 3, 4));
        assert_eq!(r.area(), 12);
    }

    #[test]
    fn point_offset() {
        assert_eq!(Point::new(1, 2).offset(3, -1), Point::new(4, 1));
    }

    #[test]
    fn union_covers_both_and_empty_is_identity() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(20, 5, 4, 4);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, Rect::new(0, 0, 24, 10));
        assert_eq!(Rect::default().union(&a), a);
        assert_eq!(a.union(&Rect::default()), a);
    }

    #[test]
    fn contains_rect_edges() {
        let a = Rect::new(0, 0, 10, 10);
        assert!(a.contains_rect(&Rect::new(0, 0, 10, 10)));
        assert!(a.contains_rect(&Rect::new(3, 3, 2, 2)));
        assert!(!a.contains_rect(&Rect::new(5, 5, 10, 2)));
        assert!(a.contains_rect(&Rect::new(50, 50, 0, 3)), "empty rect");
    }

    #[test]
    fn inflate_grows_every_side() {
        assert_eq!(Rect::new(5, 5, 10, 10).inflated(2), Rect::new(3, 3, 14, 14));
    }
}
