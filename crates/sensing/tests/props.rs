//! Property-based tests for the sensor models.

use av_sensing::bbox::BBox;
use av_sensing::camera::Camera;
use av_sensing::image::Raster;
use av_simkit::actor::{Actor, ActorId, ActorKind};
use av_simkit::behavior::Behavior;
use av_simkit::math::Vec2;
use proptest::prelude::*;

fn arb_bbox() -> impl Strategy<Value = BBox> {
    (0.0..1800.0f64, 0.0..1000.0f64, 1.0..200.0f64, 1.0..200.0f64)
        .prop_map(|(x, y, w, h)| BBox::new(x, y, x + w, y + h))
}

proptest! {
    #[test]
    fn iou_is_bounded_and_symmetric(a in arb_bbox(), b in arb_bbox()) {
        let i1 = a.iou(&b);
        let i2 = b.iou(&a);
        prop_assert!((0.0..=1.0).contains(&i1));
        prop_assert!((i1 - i2).abs() < 1e-12);
    }

    #[test]
    fn iou_with_self_is_one(a in arb_bbox()) {
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn translation_preserves_shape_and_shifts_center(
        a in arb_bbox(), dx in -500.0..500.0f64, dy in -500.0..500.0f64
    ) {
        let t = a.translated(dx, dy);
        prop_assert!((t.width() - a.width()).abs() < 1e-9);
        prop_assert!((t.height() - a.height()).abs() < 1e-9);
        let (cx, cy) = a.center();
        let (tx, ty) = t.center();
        prop_assert!((tx - cx - dx).abs() < 1e-9);
        prop_assert!((ty - cy - dy).abs() < 1e-9);
    }

    #[test]
    fn intersection_never_exceeds_either_area(a in arb_bbox(), b in arb_bbox()) {
        let i = a.intersection_area(&b);
        prop_assert!(i >= 0.0);
        prop_assert!(i <= a.area() + 1e-9);
        prop_assert!(i <= b.area() + 1e-9);
    }

    #[test]
    fn clipped_box_is_inside_the_image(a in arb_bbox(), w in 100.0..2000.0f64, h in 100.0..1200.0f64) {
        if let Some(c) = a.clipped(w, h) {
            prop_assert!(c.x0 >= 0.0 && c.y0 >= 0.0);
            prop_assert!(c.x1 <= w && c.y1 <= h);
            prop_assert!(c.area() <= a.area() + 1e-9);
        }
    }

    /// Projection followed by height-based back-projection recovers the
    /// object position (the transform the perception stack relies on).
    #[test]
    fn project_back_project_height_roundtrip(
        x in 15.0..120.0f64, y in -5.0..5.0f64
    ) {
        let camera = Camera::default();
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 10.0, Behavior::Ego);
        let target = Actor::new(ActorId(1), ActorKind::Car, Vec2::new(x, y), 0.0, Behavior::Parked);
        if let Some((bbox, _)) = camera.project(&ego, &target) {
            // Skip boxes clipped by the image border (lossy by design).
            if bbox.x0 > 1.0 && bbox.x1 < camera.width - 1.0
                && bbox.y0 > 1.0 && bbox.y1 < camera.height - 1.0
            {
                let pos = camera
                    .back_project_with_height(&bbox, target.size.height)
                    .expect("in range");
                prop_assert!((pos.x - x).abs() < 0.5, "x {} vs {x}", pos.x);
                prop_assert!((pos.y - y).abs() < 0.3, "y {} vs {y}", pos.y);
            }
        }
    }

    /// Farther objects never project larger.
    #[test]
    fn projected_size_decreases_with_depth(x in 10.0..70.0f64, dx in 5.0..60.0f64) {
        let camera = Camera::default();
        let ego = Actor::new(ActorId(0), ActorKind::Car, Vec2::ZERO, 10.0, Behavior::Ego);
        let near = Actor::new(ActorId(1), ActorKind::Car, Vec2::new(x, 0.0), 0.0, Behavior::Parked);
        let far = Actor::new(ActorId(2), ActorKind::Car, Vec2::new(x + dx, 0.0), 0.0, Behavior::Parked);
        if let (Some((nb, _)), Some((fb, _))) =
            (camera.project(&ego, &near), camera.project(&ego, &far))
        {
            prop_assert!(nb.area() >= fb.area() - 1e-9);
        }
    }

    #[test]
    fn raster_bytes_roundtrip(w in 1usize..64, h in 1usize..64, v in 0.0..1.0f32) {
        let mut r = Raster::new(w, h, v);
        r.set(w / 2, h / 2, 1.0 - v);
        let restored = Raster::from_bytes(&r.to_bytes()).expect("valid payload");
        prop_assert_eq!(r, restored);
    }

    /// The malformed-payload contract: `from_bytes` must reject (not
    /// panic on) arbitrary garbage, including truncated headers.
    #[test]
    fn raster_from_bytes_never_panics_on_arbitrary_bytes(
        payload in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        let _ = Raster::from_bytes(&payload);
    }

    /// Hostile well-formed headers: any claimed dimensions (including those
    /// whose `w * h * 4` overflows) with a body of the wrong length must be
    /// rejected without panicking — previously a debug-build multiply
    /// overflow.
    #[test]
    fn raster_from_bytes_never_panics_on_hostile_headers(
        w in any::<u32>(),
        h in any::<u32>(),
        body in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        let mut buf = Vec::with_capacity(8 + body.len());
        buf.extend_from_slice(&w.to_le_bytes());
        buf.extend_from_slice(&h.to_le_bytes());
        buf.extend_from_slice(&body);
        if let Some(r) = Raster::from_bytes(&buf) {
            // Only accepted when the body length matches the header exactly.
            prop_assert_eq!(r.width(), w as usize);
            prop_assert_eq!(r.height(), h as usize);
            prop_assert_eq!(body.len(), (w as usize) * (h as usize) * 4);
        }
    }

    /// `reset` is equivalent to constructing a fresh raster.
    #[test]
    fn raster_reset_matches_new(
        w0 in 0usize..48, h0 in 0usize..48,
        w1 in 0usize..48, h1 in 0usize..48,
        v in 0.0..1.0f32
    ) {
        let mut r = Raster::new(w0, h0, 1.0 - v);
        r.reset(w1, h1, v);
        prop_assert_eq!(r, Raster::new(w1, h1, v));
    }

    #[test]
    fn raster_l1_distance_is_a_metric(w in 1usize..32, h in 1usize..32, v in 0.0..1.0f32) {
        let a = Raster::new(w, h, v);
        let mut b = a.clone();
        b.add(0, 0, 0.25);
        prop_assert_eq!(a.l1_distance(&a), 0.0);
        prop_assert!((a.l1_distance(&b) - b.l1_distance(&a)).abs() < 1e-9);
        prop_assert!(a.l1_distance(&b) >= 0.0);
    }
}
