//! Low-resolution luminance raster for the pixel-space attack demonstration.
//!
//! Rendering full 1920×1080 frames at 15 Hz for thousands of runs is wasted
//! work — the campaigns operate on ground-truth image boxes. The raster
//! exists to demonstrate that the bbox translations the trajectory hijacker
//! computes are *pixel-realizable* (the paper perturbs real pixels, §IV-C):
//! the patch optimizer in `robotack::patch` works on this raster against a
//! pixel-driven detector.

use crate::bbox::BBox;

/// Downscale factor from camera pixels to raster cells.
pub const RASTER_SCALE: f64 = 10.0;

/// A grayscale image with `f32` luminance values in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Raster {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Raster {
    /// Creates a raster filled with `background` luminance.
    pub fn new(width: usize, height: usize, background: f32) -> Self {
        Raster {
            width,
            height,
            data: vec![background; width * height],
        }
    }

    /// Re-dimensions the raster and fills it with `background`, reusing the
    /// existing allocation — the 15 Hz capture loop's alternative to
    /// [`Raster::new`].
    pub fn reset(&mut self, width: usize, height: usize, background: f32) {
        self.width = width;
        self.height = height;
        self.data.clear();
        self.data.resize(width * height, background);
    }

    /// Raster width in cells.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Raster height in cells.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Luminance at `(x, y)`; returns 0 outside the raster.
    pub fn get(&self, x: usize, y: usize) -> f32 {
        if x < self.width && y < self.height {
            self.data[y * self.width + x]
        } else {
            0.0
        }
    }

    /// Sets the luminance at `(x, y)` (clamped to `[0, 1]`); out-of-range
    /// coordinates are ignored.
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        if x < self.width && y < self.height {
            self.data[y * self.width + x] = v.clamp(0.0, 1.0);
        }
    }

    /// Adds `dv` to the luminance at `(x, y)` (clamped to `[0, 1]`).
    pub fn add(&mut self, x: usize, y: usize, dv: f32) {
        if x < self.width && y < self.height {
            let i = y * self.width + x;
            self.data[i] = (self.data[i] + dv).clamp(0.0, 1.0);
        }
    }

    /// Fills the axis-aligned rectangle given in *camera pixel* coordinates
    /// with luminance `v` (the rectangle is downscaled by [`RASTER_SCALE`]).
    pub fn fill_camera_rect(&mut self, bbox: &BBox, v: f32) {
        let x0 = (bbox.x0 / RASTER_SCALE).floor().max(0.0) as usize;
        let y0 = (bbox.y0 / RASTER_SCALE).floor().max(0.0) as usize;
        let x1 = ((bbox.x1 / RASTER_SCALE).ceil() as usize).min(self.width);
        let y1 = ((bbox.y1 / RASTER_SCALE).ceil() as usize).min(self.height);
        for y in y0..y1 {
            for x in x0..x1 {
                self.data[y * self.width + x] = v.clamp(0.0, 1.0);
            }
        }
    }

    /// Mean luminance inside a camera-pixel rectangle (0 if degenerate).
    pub fn mean_in_camera_rect(&self, bbox: &BBox) -> f32 {
        let x0 = (bbox.x0 / RASTER_SCALE).floor().max(0.0) as usize;
        let y0 = (bbox.y0 / RASTER_SCALE).floor().max(0.0) as usize;
        let x1 = ((bbox.x1 / RASTER_SCALE).ceil() as usize).min(self.width);
        let y1 = ((bbox.y1 / RASTER_SCALE).ceil() as usize).min(self.height);
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for y in y0..y1 {
            for x in x0..x1 {
                sum += f64::from(self.data[y * self.width + x]);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            (sum / n as f64) as f32
        }
    }

    /// Sum of absolute per-cell differences with `other` — the perturbation
    /// "energy" budget checked by the stealthiness tests.
    ///
    /// # Panics
    ///
    /// Panics if the rasters have different dimensions.
    pub fn l1_distance(&self, other: &Raster) -> f64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "raster dimensions differ"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| f64::from((a - b).abs()))
            .sum()
    }

    /// Serializes the raster into a little-endian byte payload: the width
    /// and height as `u32`, then every cell as `f32`, row-major.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + self.data.len() * 4);
        buf.extend_from_slice(&(self.width as u32).to_le_bytes());
        buf.extend_from_slice(&(self.height as u32).to_le_bytes());
        for v in &self.data {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Deserializes a payload produced by [`Raster::to_bytes`].
    ///
    /// Returns `None` on a malformed payload.
    pub fn from_bytes(payload: &[u8]) -> Option<Raster> {
        let (width, rest) = payload.split_first_chunk::<4>()?;
        let (height, body) = rest.split_first_chunk::<4>()?;
        let width = u32::from_le_bytes(*width) as usize;
        let height = u32::from_le_bytes(*height) as usize;
        // A hostile header can claim dimensions whose product overflows
        // `usize` (panics in debug builds) or is absurdly large; validate
        // the size arithmetic before trusting it or allocating anything.
        let cells = width.checked_mul(height)?;
        let expected_bytes = cells.checked_mul(4)?;
        if body.len() != expected_bytes {
            return None;
        }
        let data = body
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunks of four")))
            .collect();
        Some(Raster {
            width,
            height,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_uniform_background() {
        let r = Raster::new(4, 3, 0.25);
        assert_eq!(r.width(), 4);
        assert_eq!(r.height(), 3);
        assert!((0..3).all(|y| (0..4).all(|x| r.get(x, y) == 0.25)));
    }

    #[test]
    fn set_and_add_clamp() {
        let mut r = Raster::new(2, 2, 0.5);
        r.set(0, 0, 2.0);
        assert_eq!(r.get(0, 0), 1.0);
        r.add(1, 1, -3.0);
        assert_eq!(r.get(1, 1), 0.0);
        // Out-of-range access is a no-op / zero.
        r.set(9, 9, 1.0);
        assert_eq!(r.get(9, 9), 0.0);
    }

    #[test]
    fn fill_camera_rect_covers_downscaled_cells() {
        let mut r = Raster::new(192, 108, 0.1);
        let bbox = BBox::new(100.0, 200.0, 300.0, 400.0);
        r.fill_camera_rect(&bbox, 0.9);
        assert_eq!(r.get(15, 25), 0.9); // inside
        assert!((r.get(5, 5) - 0.1).abs() < 1e-6); // outside
        assert!((r.mean_in_camera_rect(&bbox) - 0.9).abs() < 1e-5);
    }

    #[test]
    fn l1_distance_counts_changes() {
        let a = Raster::new(4, 4, 0.0);
        let mut b = a.clone();
        b.set(1, 1, 0.5);
        b.set(2, 2, 0.25);
        assert!((a.l1_distance(&b) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut r = Raster::new(8, 6, 0.3);
        r.set(3, 2, 0.77);
        let payload = r.to_bytes();
        let r2 = Raster::from_bytes(&payload).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn from_bytes_rejects_malformed() {
        assert!(Raster::from_bytes(&[1, 2, 3]).is_none());
        let mut r = Raster::new(2, 2, 0.0).to_bytes();
        r.pop(); // truncate
        assert!(Raster::from_bytes(&r).is_none());
    }

    /// An 8-byte header claiming `width` × `height`, then `body`.
    fn payload(width: u32, height: u32, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + body.len());
        buf.extend_from_slice(&width.to_le_bytes());
        buf.extend_from_slice(&height.to_le_bytes());
        buf.extend_from_slice(body);
        buf
    }

    #[test]
    fn from_bytes_rejects_overflowing_header() {
        // width * height * 4 overflows usize: must return None, not panic
        // (previously a debug-build multiply-overflow panic).
        assert!(Raster::from_bytes(&payload(u32::MAX, u32::MAX, &[0; 4])).is_none());
        // Huge-but-non-overflowing dims with a tiny payload are rejected too.
        assert!(Raster::from_bytes(&payload(1 << 16, 1 << 16, &[])).is_none());
    }

    #[test]
    fn reset_matches_new() {
        let mut r = Raster::new(8, 6, 0.3);
        r.set(3, 2, 0.77);
        r.reset(4, 5, 0.2);
        assert_eq!(r, Raster::new(4, 5, 0.2));
        r.reset(10, 2, 0.9);
        assert_eq!(r, Raster::new(10, 2, 0.9));
    }
}
