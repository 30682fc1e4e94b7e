//! The video framestore and display-scan model (§3.6).
//!
//! The capture board reads rectangular blocks out of a double-ported
//! framestore that the camera writes continuously; reads are "carefully
//! timed so that the data from the camera being written continuously on a
//! second port does not update any part of a block while it is being
//! read". The same scan geometry is used on the display side to avoid
//! tears.

/// A rectangle within a frame (pixel units, top-left origin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    /// Left edge.
    pub x: u32,
    /// Top edge.
    pub y: u32,
    /// Width in pixels.
    pub width: u32,
    /// Height in lines.
    pub height: u32,
}

impl Rect {
    /// Builds a rectangle.
    pub const fn new(x: u32, y: u32, width: u32, height: u32) -> Self {
        Rect {
            x,
            y,
            width,
            height,
        }
    }

    /// Number of pixels covered.
    pub fn area(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Returns `true` if `self` and `other` share any pixel.
    pub fn overlaps(&self, other: &Rect) -> bool {
        u64::from(self.x) < other.right()
            && u64::from(other.x) < self.right()
            && u64::from(self.y) < other.bottom()
            && u64::from(other.y) < self.bottom()
    }

    /// Returns `true` if the rectangle fits a `width` × `height` frame.
    pub fn fits(&self, width: u32, height: u32) -> bool {
        self.right() <= u64::from(width) && self.bottom() <= u64::from(height)
    }

    /// One past the last column. Offsets and sizes arrive in segment
    /// headers off the wire, so the sum is taken where it cannot wrap.
    fn right(&self) -> u64 {
        u64::from(self.x) + u64::from(self.width)
    }

    /// One past the last line; see [`Rect::right`].
    fn bottom(&self) -> u64 {
        u64::from(self.y) + u64::from(self.height)
    }
}

/// An 8-bit greyscale framestore.
///
/// PAL-ish geometry by default (768 × 288 per field at 25 Hz); the paper's
/// hardware stored 16-bit colour, but the transport and timing behaviour
/// under study is pixel-format-independent (see DESIGN.md §2).
#[derive(Debug, Clone)]
pub struct FrameStore {
    width: u32,
    height: u32,
    /// Row-major, `width * height` once written; empty (and owning no
    /// memory) while the store still holds its initial zeroes.
    pixels: Vec<u8>,
    /// Generation counter: the camera frame number the store holds,
    /// counted from 1 (0 is the zeroed store before any write).
    generation: u64,
}

/// Default framestore width.
pub const DEFAULT_WIDTH: u32 = 768;
/// Default framestore height.
pub const DEFAULT_HEIGHT: u32 = 288;
/// The full camera frame rate (25 Hz).
pub const FULL_FRAME_RATE_HZ: u32 = 25;
/// Nanoseconds per full-rate frame (40 ms).
pub const FRAME_PERIOD_NANOS: u64 = 1_000_000_000 / FULL_FRAME_RATE_HZ as u64;

impl FrameStore {
    /// Creates a zeroed framestore. Its pixels are backed by memory on
    /// the first write: a box that never captures or displays video pays
    /// nothing for the two stores it is built with.
    pub fn new(width: u32, height: u32) -> Self {
        FrameStore {
            width,
            height,
            pixels: Vec::new(),
            generation: 0,
        }
    }

    /// Pixels in a whole frame.
    fn area(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// The pixels, backed with zeroes if this is the first write.
    fn backed(&mut self) -> &mut [u8] {
        if self.pixels.is_empty() {
            self.pixels = vec![0; self.area()];
        }
        &mut self.pixels
    }

    /// Creates the default-geometry framestore.
    pub fn standard() -> Self {
        FrameStore::new(DEFAULT_WIDTH, DEFAULT_HEIGHT)
    }

    /// Framestore width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Framestore height in lines.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The camera frame the store holds: frames scanned when it was last
    /// written (0 before any write).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Overwrites the whole store with a camera frame.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not exactly `width * height` bytes.
    pub fn write_frame(&mut self, frame: &[u8]) {
        assert_eq!(frame.len(), self.area(), "frame size mismatch");
        self.write_frame_with(self.generation + 1, |pixels| pixels.copy_from_slice(frame));
    }

    /// Overwrites the whole store in place as camera frame `generation`:
    /// `render` is handed the store's `width * height` pixels, row-major,
    /// and must fill them. A camera that develops only the frames someone
    /// reads skips generations; the store then still names the frame it
    /// holds.
    pub fn write_frame_with(&mut self, generation: u64, render: impl FnOnce(&mut [u8])) {
        render(self.backed());
        self.generation = generation;
    }

    /// Reads a rectangle, row-major.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle does not fit the store.
    pub fn read_rect(&self, rect: Rect) -> Vec<u8> {
        assert!(
            rect.fits(self.width, self.height),
            "rect out of range: {rect:?}"
        );
        if self.pixels.is_empty() {
            return vec![0; rect.area()];
        }
        let mut out = Vec::with_capacity(rect.area());
        for row in rect.y..rect.y + rect.height {
            let start = row as usize * self.width as usize + rect.x as usize;
            out.extend_from_slice(&self.pixels[start..start + rect.width as usize]);
        }
        out
    }

    /// The lines under `rect` where they lie: the pixels from the
    /// rectangle's first one on and the distance between the starts of
    /// consecutive lines, or `None` while the store still holds its
    /// initial zeroes (and owns nothing to borrow).
    ///
    /// # Panics
    ///
    /// Panics if the rectangle does not fit the store.
    pub(crate) fn rect_lines(&self, rect: Rect) -> Option<(&[u8], usize)> {
        assert!(
            rect.fits(self.width, self.height),
            "rect out of range: {rect:?}"
        );
        let stride = self.width as usize;
        let first = rect.y as usize * stride + rect.x as usize;
        // (A rectangle of no lines may start below the last one.)
        (!self.pixels.is_empty()).then(|| (self.pixels.get(first..).unwrap_or(&[]), stride))
    }

    /// Writes a rectangle (the display mixer's blit).
    ///
    /// # Panics
    ///
    /// Panics if the rectangle does not fit or `data` has the wrong size.
    pub fn write_rect(&mut self, rect: Rect, data: &[u8]) {
        assert!(
            rect.fits(self.width, self.height),
            "rect out of range: {rect:?}"
        );
        assert_eq!(data.len(), rect.area(), "data size mismatch for {rect:?}");
        let width = self.width as usize;
        let pixels = self.backed();
        for (i, row) in (rect.y..rect.y + rect.height).enumerate() {
            let start = row as usize * width + rect.x as usize;
            let src = i * rect.width as usize;
            pixels[start..start + rect.width as usize]
                .copy_from_slice(&data[src..src + rect.width as usize]);
        }
    }
}

/// The raster-scan timing model shared by camera writes and display reads.
///
/// At 25 Hz over `height` lines, line `y` is being scanned during
/// `[frame_start + y*line_period, frame_start + (y+1)*line_period)`.
#[derive(Debug, Clone, Copy)]
pub struct ScanModel {
    height: u32,
    frame_period_ns: u64,
}

impl ScanModel {
    /// Builds the scan model for a store of `height` lines.
    pub fn new(height: u32, frame_period_ns: u64) -> Self {
        assert!(height > 0, "height must be non-zero");
        ScanModel {
            height,
            frame_period_ns,
        }
    }

    /// The standard 25 Hz scan for the default framestore.
    pub fn standard() -> Self {
        ScanModel::new(DEFAULT_HEIGHT, FRAME_PERIOD_NANOS)
    }

    /// Time the scan spends on one line.
    pub(crate) fn line_period_ns(&self) -> u64 {
        self.frame_period_ns / self.height as u64
    }

    /// Whether the scan is inside `rect`'s rows during
    /// `[t_ns, t_ns + duration_ns)`.
    pub(crate) fn scan_hits_rect(&self, rect: Rect, t_ns: u64, duration_ns: u64) -> bool {
        // Walk whole line intervals covered by the window.
        let lp = self.line_period_ns();
        let first = t_ns / lp;
        let last = (t_ns + duration_ns.max(1) - 1) / lp;
        for li in first..=last {
            let line = (li % self.height as u64) as u32;
            if line >= rect.y && u64::from(line) < rect.bottom() {
                return true;
            }
        }
        false
    }

    /// Earliest delay from `t_ns` at which a copy of `duration_ns` into
    /// `rect` avoids the scan — "copying frames both in front of and
    /// behind the scan if necessary".
    ///
    /// Returns 0 if the copy is already safe now. Searches line-by-line
    /// within one frame period; if the copy is longer than the scan's time
    /// away from the rect, the copy cannot be made safe and 0 is returned
    /// with the caller accepting the tear (the paper's hardware never hit
    /// this because blits are fast relative to the scan).
    pub fn safe_blit_delay(&self, rect: Rect, t_ns: u64, duration_ns: u64) -> u64 {
        let lp = self.line_period_ns();
        let mut delay = 0u64;
        // Try successive line-aligned start times within one frame.
        for _ in 0..=self.height {
            if !self.scan_hits_rect(rect, t_ns + delay, duration_ns) {
                return delay;
            }
            // Jump to the start of the next line interval.
            let into_line = (t_ns + delay) % lp;
            delay += lp - into_line;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_geometry() {
        let r = Rect::new(10, 20, 30, 40);
        assert_eq!(r.area(), 1200);
        assert!(r.overlaps(&Rect::new(35, 55, 10, 10)));
        assert!(!r.overlaps(&Rect::new(40, 20, 5, 5)));
        assert!(r.fits(100, 100));
        assert!(!r.fits(39, 100));
    }

    #[test]
    fn rect_sums_do_not_wrap() {
        // x + width and y + height both wrap to 60 in u32.
        let far = Rect::new(u32::MAX - 3, u32::MAX - 3, 64, 64);
        assert!(!far.fits(768, 288));
        assert!(!far.overlaps(&Rect::new(0, 0, 768, 288)));
        assert!(far.overlaps(&Rect::new(u32::MAX - 1, u32::MAX - 1, 1, 1)));
        let scan = ScanModel::new(100, 40_000_000);
        assert!(!scan.scan_hits_rect(far, 0, 40_000_000));
        assert!(scan.scan_hits_rect(Rect::new(0, 99, 1, u32::MAX), 0, 40_000_000));
    }

    #[test]
    fn read_write_rect_round_trip() {
        let mut fs = FrameStore::new(16, 16);
        let rect = Rect::new(2, 3, 4, 5);
        let data: Vec<u8> = (0..rect.area() as u8).collect();
        fs.write_rect(rect, &data);
        assert_eq!(fs.read_rect(rect), data);
        // Outside the rect is untouched.
        assert_eq!(fs.read_rect(Rect::new(0, 0, 2, 2)), vec![0; 4]);
    }

    #[test]
    fn unwritten_store_owns_no_memory_and_reads_zero() {
        let mut fs = FrameStore::standard();
        assert_eq!(fs.pixels.capacity(), 0);
        assert_eq!(fs.read_rect(Rect::new(700, 200, 68, 88)), vec![0; 68 * 88]);
        assert_eq!(fs.pixels.capacity(), 0, "a read backed the store");
        // One write backs it: what was written, zeroes around it.
        fs.write_rect(Rect::new(1, 1, 2, 2), &[9, 8, 7, 6]);
        assert_eq!(fs.pixels.len(), 768 * 288);
        assert_eq!(
            fs.read_rect(Rect::new(0, 0, 4, 4)),
            vec![0, 0, 0, 0, 0, 9, 8, 0, 0, 7, 6, 0, 0, 0, 0, 0]
        );
        assert_eq!(fs.read_rect(Rect::new(0, 287, 768, 1)), vec![0; 768]);
    }

    #[test]
    fn write_frame_bumps_generation() {
        let mut fs = FrameStore::new(4, 4);
        assert_eq!(fs.generation(), 0);
        fs.write_frame(&[7; 16]);
        assert_eq!(fs.generation(), 1);
        assert_eq!(fs.read_rect(Rect::new(0, 0, 4, 4)), vec![7; 16]);
    }

    #[test]
    #[should_panic(expected = "rect out of range")]
    fn out_of_range_read_panics() {
        let fs = FrameStore::new(8, 8);
        let _ = fs.read_rect(Rect::new(4, 4, 8, 8));
    }

    #[test]
    fn scan_hits_rect_detection() {
        let scan = ScanModel::new(100, 40_000_000);
        let rect = Rect::new(0, 50, 10, 10); // Lines 50-59.
                                             // At t=0 the scan is at line 0: a short copy misses the rect.
        assert!(!scan.scan_hits_rect(rect, 0, 1_000_000));
        // Scanning line 50 at t = 50*400us = 20ms.
        assert!(scan.scan_hits_rect(rect, 20_000_000, 1_000));
        // A copy spanning lines 45-52 hits.
        assert!(scan.scan_hits_rect(rect, 18_000_000, 3_000_000));
    }

    #[test]
    fn safe_blit_defers_past_scan() {
        let scan = ScanModel::new(100, 40_000_000);
        let rect = Rect::new(0, 0, 10, 5); // Lines 0-4.
                                           // At t=0 the scan is inside the rect: must wait ~5 lines (2ms).
        let d = scan.safe_blit_delay(rect, 0, 100_000);
        assert!(d >= 2_000_000, "delay {d}");
        assert!(!scan.scan_hits_rect(rect, d, 100_000));
        // Far from the rect: no delay.
        assert_eq!(scan.safe_blit_delay(rect, 20_000_000, 100_000), 0);
    }
}
