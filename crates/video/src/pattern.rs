//! Deterministic synthetic camera frames.
//!
//! Stand-in for the live camera: a moving pattern with smooth gradients
//! (good DPCM behaviour) plus a travelling bright blob (motion for the
//! tear and frame-rate experiments). Fully deterministic in
//! (width, height, frame index).
//!
//! The real camera writes the framestore on a second port and costs the
//! box's processors nothing (§3.6), so the stand-in has to be near-free
//! too: a frame is one row copy per line out of a precomputed ramp, and
//! the transcendental only inside the small box the blob can reach.

/// Period of the diagonal ramp, in pixels.
const RAMP_PERIOD: usize = 256;

/// Half-side of the box around the blob centre that is evaluated per
/// pixel. A pixel further than this from the centre on either axis has
/// `d2 > 400`, so its blob term is below `120 * exp(-400 / 60) < 0.16`;
/// the ramp term is a multiple of 0.5, so adding less than 0.5 to it
/// never changes the truncated grey level.
const BLOB_REACH: f64 = 20.0;

/// A synthetic camera producing 8-bit greyscale frames.
#[derive(Debug, Clone)]
pub struct TestPattern {
    width: u32,
    height: u32,
    /// `ramp[i] == (i % 256) / 2` for `i` in `0..256 + width`: every row
    /// of every frame, blob aside, is a `width`-long window of it.
    ramp: Vec<u8>,
}

impl TestPattern {
    /// Creates a pattern generator for `width` × `height` frames.
    pub fn new(width: u32, height: u32) -> Self {
        let ramp = (0..RAMP_PERIOD + width as usize)
            .map(|i| ((i % RAMP_PERIOD) / 2) as u8)
            .collect();
        TestPattern {
            width,
            height,
            ramp,
        }
    }

    /// Renders frame `n`.
    pub fn frame(&self, n: u64) -> Vec<u8> {
        let mut out = vec![0u8; self.width as usize * self.height as usize];
        self.render_into(n, &mut out);
        out
    }

    /// Renders frame `n` over `out`, row-major.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly `width * height` bytes.
    pub fn render_into(&self, n: u64, out: &mut [u8]) {
        let w = self.width as usize;
        let h = self.height as usize;
        assert_eq!(out.len(), w * h, "frame size mismatch");
        if out.is_empty() {
            return;
        }
        // A diagonal gradient that drifts one pixel per frame.
        let shift = (n % RAMP_PERIOD as u64) as usize;
        for (y, row) in out.chunks_exact_mut(w).enumerate() {
            let off = (y + shift) % RAMP_PERIOD;
            row.copy_from_slice(&self.ramp[off..off + w]);
        }
        // A blob circling the frame, added where it can change a pixel.
        let cx = (w as f64 / 2.0) * (1.0 + 0.7 * ((n as f64) * 0.1).cos());
        let cy = (h as f64 / 2.0) * (1.0 + 0.7 * ((n as f64) * 0.1).sin());
        let reach = |c: f64, len: usize| {
            let lo = (c - BLOB_REACH).floor().max(0.0) as usize;
            let hi = ((c + BLOB_REACH).ceil() as usize + 1).min(len);
            lo..hi
        };
        for y in reach(cy, h) {
            for x in reach(cx, w) {
                let g = ((x + y + shift) % RAMP_PERIOD) as f64 * 0.5;
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                let d2 = dx * dx + dy * dy;
                let blob = 120.0 * (-d2 / 60.0).exp();
                out[y * w + x] = (g + blob).min(255.0) as u8;
            }
        }
    }

    /// Frame width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height.
    pub fn height(&self) -> u32 {
        self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: every pixel from the defining expression, no table and
    /// no blob box.
    fn per_pixel_frame(w: usize, h: usize, n: u64) -> Vec<u8> {
        let mut out = vec![0u8; w * h];
        let shift = (n % 256) as usize;
        let cx = (w as f64 / 2.0) * (1.0 + 0.7 * ((n as f64) * 0.1).cos());
        let cy = (h as f64 / 2.0) * (1.0 + 0.7 * ((n as f64) * 0.1).sin());
        for y in 0..h {
            for x in 0..w {
                let g = ((x + y + shift) % 256) as f64 * 0.5;
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                let d2 = dx * dx + dy * dy;
                let blob = 120.0 * (-d2 / 60.0).exp();
                out[y * w + x] = (g + blob).min(255.0) as u8;
            }
        }
        out
    }

    #[test]
    fn render_matches_per_pixel_oracle() {
        // 32×24 is narrower than the blob box; 17×9, 300×5 and 1×1 clip it
        // on every edge; 2000 frames wrap `shift` seven times and carry
        // the blob round its circle thirty-odd times.
        for (w, h) in [
            (768, 288),
            (128, 96),
            (64, 48),
            (32, 24),
            (17, 9),
            (300, 5),
            (1, 1),
        ] {
            let p = TestPattern::new(w, h);
            let mut got = vec![0u8; (w * h) as usize];
            for n in 0..2000 {
                // Render over the previous frame, as the camera does.
                p.render_into(n, &mut got);
                assert!(
                    got == per_pixel_frame(w as usize, h as usize, n),
                    "{w}x{h} frame {n} differs from the oracle"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "frame size mismatch")]
    fn render_into_wrong_size_panics() {
        TestPattern::new(8, 8).render_into(0, &mut [0u8; 63]);
    }

    #[test]
    fn empty_geometry_renders_nothing() {
        assert!(TestPattern::new(0, 7).frame(3).is_empty());
        assert!(TestPattern::new(7, 0).frame(3).is_empty());
    }

    #[test]
    fn deterministic() {
        let p = TestPattern::new(32, 24);
        assert_eq!(p.frame(5), p.frame(5));
    }

    #[test]
    fn frames_differ_over_time() {
        let p = TestPattern::new(32, 24);
        assert_ne!(p.frame(0), p.frame(1));
    }

    #[test]
    fn correct_dimensions() {
        let p = TestPattern::new(17, 9);
        assert_eq!(p.frame(0).len(), 17 * 9);
    }

    #[test]
    fn has_contrast() {
        let p = TestPattern::new(64, 48);
        let f = p.frame(0);
        let min = *f.iter().min().unwrap();
        let max = *f.iter().max().unwrap();
        assert!(max - min > 100, "contrast {min}..{max}");
    }
}
