//! Axis-aligned bounding boxes in image coordinates.

/// An axis-aligned bounding box in image pixel coordinates.
///
/// `x` grows rightward, `y` grows downward (standard image convention).
/// A box is *valid* when `x0 <= x1 && y0 <= y1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Left edge.
    pub x0: f64,
    /// Top edge.
    pub y0: f64,
    /// Right edge.
    pub x1: f64,
    /// Bottom edge.
    pub y1: f64,
}

impl BBox {
    /// Creates a box from its edges.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the edges are inverted.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        debug_assert!(
            x0 <= x1 && y0 <= y1,
            "inverted bbox ({x0},{y0})-({x1},{y1})"
        );
        BBox { x0, y0, x1, y1 }
    }

    /// Creates a box from its center and size.
    pub fn from_center(cx: f64, cy: f64, w: f64, h: f64) -> Self {
        BBox::new(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)
    }

    /// Box width in pixels.
    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    /// Box height in pixels.
    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    /// Box area in square pixels.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point `(cx, cy)`.
    pub fn center(&self) -> (f64, f64) {
        ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)
    }

    /// Bottom-center point — the ground-contact point used by the
    /// image-to-ground transform.
    pub fn bottom_center(&self) -> (f64, f64) {
        ((self.x0 + self.x1) / 2.0, self.y1)
    }

    /// Intersection area with `other`.
    pub fn intersection_area(&self, other: &BBox) -> f64 {
        let w = (self.x1.min(other.x1) - self.x0.max(other.x0)).max(0.0);
        let h = (self.y1.min(other.y1) - self.y0.max(other.y0)).max(0.0);
        w * h
    }

    /// Intersection-over-Union with `other` (0 when either box is empty).
    ///
    /// The paper uses IoU ≥ 60 % as the "correctly detected" threshold
    /// (§VI-A).
    pub fn iou(&self, other: &BBox) -> f64 {
        let inter = self.intersection_area(other);
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// The box translated by `(dx, dy)` pixels.
    pub fn translated(&self, dx: f64, dy: f64) -> BBox {
        BBox {
            x0: self.x0 + dx,
            y0: self.y0 + dy,
            x1: self.x1 + dx,
            y1: self.y1 + dy,
        }
    }

    /// The box clipped to an image of `width`×`height` pixels, or `None`
    /// when nothing remains inside.
    pub fn clipped(&self, width: f64, height: f64) -> Option<BBox> {
        let x0 = self.x0.max(0.0);
        let y0 = self.y0.max(0.0);
        let x1 = self.x1.min(width);
        let y1 = self.y1.min(height);
        (x0 < x1 && y0 < y1).then(|| BBox::new(x0, y0, x1, y1))
    }

    /// Euclidean distance between the two box centers.
    pub fn center_distance(&self, other: &BBox) -> f64 {
        let (ax, ay) = self.center();
        let (bx, by) = other.center();
        (ax - bx).hypot(ay - by)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_accessors() {
        let b = BBox::new(10.0, 20.0, 30.0, 60.0);
        assert_eq!(b.width(), 20.0);
        assert_eq!(b.height(), 40.0);
        assert_eq!(b.area(), 800.0);
        assert_eq!(b.center(), (20.0, 40.0));
        assert_eq!(b.bottom_center(), (20.0, 60.0));
    }

    #[test]
    fn from_center_roundtrip() {
        let b = BBox::from_center(50.0, 40.0, 10.0, 20.0);
        assert_eq!(b, BBox::new(45.0, 30.0, 55.0, 50.0));
    }

    #[test]
    fn iou_identical_is_one() {
        let b = BBox::new(0.0, 0.0, 10.0, 10.0);
        assert!((b.iou(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iou_disjoint_is_zero() {
        let a = BBox::new(0.0, 0.0, 10.0, 10.0);
        let b = BBox::new(20.0, 20.0, 30.0, 30.0);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        let a = BBox::new(0.0, 0.0, 10.0, 10.0);
        let b = BBox::new(5.0, 0.0, 15.0, 10.0);
        // intersection 50, union 150.
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn translated_moves_box() {
        let b = BBox::new(0.0, 0.0, 10.0, 10.0).translated(5.0, -2.0);
        assert_eq!(
            b,
            BBox {
                x0: 5.0,
                y0: -2.0,
                x1: 15.0,
                y1: 8.0
            }
        );
    }

    #[test]
    fn clipped_behaviour() {
        let b = BBox::new(-5.0, -5.0, 10.0, 10.0);
        assert_eq!(
            b.clipped(100.0, 100.0).unwrap(),
            BBox::new(0.0, 0.0, 10.0, 10.0)
        );
        let out = BBox::new(200.0, 200.0, 300.0, 300.0);
        assert!(out.clipped(100.0, 100.0).is_none());
    }

    #[test]
    fn center_distance() {
        let a = BBox::from_center(0.0, 0.0, 2.0, 2.0);
        let b = BBox::from_center(3.0, 4.0, 2.0, 2.0);
        assert!((a.center_distance(&b) - 5.0).abs() < 1e-12);
    }
}
