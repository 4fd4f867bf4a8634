//! The screen framebuffer and drawing operations.
//!
//! Widgets draw through a display list per window (retained mode, so
//! exposes can replay) and the display flushes display lists into a real
//! RGB framebuffer. For golden tests an ASCII snapshot renders the same
//! display lists into a character grid — the reproduction's stand-in for
//! the paper's screenshots (Figures 2, 3 and 6).

use crate::color::Pixel;
use crate::font::FontId;
use crate::geometry::Rect;

/// One retained drawing operation, in window-relative coordinates.
#[derive(Debug, Clone, PartialEq)]
pub enum DrawOp {
    /// Fill a rectangle with a colour.
    FillRect {
        /// Target area.
        rect: Rect,
        /// Fill colour.
        pixel: Pixel,
    },
    /// Outline a rectangle.
    DrawRect {
        /// Target area.
        rect: Rect,
        /// Line colour.
        pixel: Pixel,
    },
    /// Draw a horizontal or vertical (or general) line.
    DrawLine {
        /// Start x.
        x1: i32,
        /// Start y.
        y1: i32,
        /// End x.
        x2: i32,
        /// End y.
        y2: i32,
        /// Line colour.
        pixel: Pixel,
    },
    /// Draw a string; `y` is the baseline, as in X.
    DrawText {
        /// Left edge of the first glyph.
        x: i32,
        /// Baseline.
        y: i32,
        /// Text to draw.
        text: String,
        /// Ink colour.
        pixel: Pixel,
        /// Font to use.
        font: FontId,
    },
    /// Copy a bitmap/pixmap image; pixels carry their own colours.
    PutImage {
        /// Destination x.
        x: i32,
        /// Destination y.
        y: i32,
        /// Image width.
        w: u32,
        /// Image height.
        h: u32,
        /// Row-major pixels (len == w*h).
        data: std::rc::Rc<Vec<Pixel>>,
    },
}

/// An RGB framebuffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framebuffer {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    pixels: Vec<Pixel>,
}

impl Framebuffer {
    /// Creates a framebuffer cleared to the given colour.
    pub fn new(width: u32, height: u32, clear: Pixel) -> Self {
        Framebuffer {
            width,
            height,
            pixels: vec![clear; (width * height) as usize],
        }
    }

    /// True for the zero-sized placeholder a headless display holds
    /// before its pixel buffer is materialized.
    pub fn is_empty(&self) -> bool {
        self.width == 0 || self.height == 0
    }

    /// Copies the pixels of a rectangle (clipped to the buffer),
    /// row-major — the payload of a display-protocol damage rect.
    pub fn rect_pixels(&self, rect: Rect) -> Vec<Pixel> {
        let bounds = Rect::new(0, 0, self.width, self.height);
        let r = match rect.intersect(&bounds) {
            Some(r) => r,
            None => return Vec::new(),
        };
        let mut out = Vec::with_capacity((r.w * r.h) as usize);
        for y in r.y..r.y + r.h as i32 {
            let row = (y as u32 * self.width + r.x as u32) as usize;
            out.extend_from_slice(&self.pixels[row..row + r.w as usize]);
        }
        out
    }

    /// Reads one pixel; out-of-bounds reads return black.
    pub fn get(&self, x: i32, y: i32) -> Pixel {
        if x < 0 || y < 0 || x as u32 >= self.width || y as u32 >= self.height {
            return 0;
        }
        self.pixels[(y as u32 * self.width + x as u32) as usize]
    }

    /// Writes one pixel; out-of-bounds writes are clipped.
    pub fn put(&mut self, x: i32, y: i32, p: Pixel) {
        if x < 0 || y < 0 || x as u32 >= self.width || y as u32 >= self.height {
            return;
        }
        self.pixels[(y as u32 * self.width + x as u32) as usize] = p;
    }

    /// Fills a rectangle, clipped to the buffer and to `clip`.
    pub fn fill_rect(&mut self, rect: Rect, clip: Rect, p: Pixel) {
        let target = match rect.intersect(&clip) {
            Some(r) => r,
            None => return,
        };
        for y in target.y..target.y + target.h as i32 {
            for x in target.x..target.x + target.w as i32 {
                self.put(x, y, p);
            }
        }
    }

    /// Outlines a rectangle, clipped.
    pub fn draw_rect(&mut self, rect: Rect, clip: Rect, p: Pixel) {
        let (x2, y2) = (rect.x + rect.w as i32 - 1, rect.y + rect.h as i32 - 1);
        self.draw_line(rect.x, rect.y, x2, rect.y, clip, p);
        self.draw_line(rect.x, y2, x2, y2, clip, p);
        self.draw_line(rect.x, rect.y, rect.x, y2, clip, p);
        self.draw_line(x2, rect.y, x2, y2, clip, p);
    }

    /// Draws a line (Bresenham), clipped.
    pub fn draw_line(&mut self, x1: i32, y1: i32, x2: i32, y2: i32, clip: Rect, p: Pixel) {
        let (mut x, mut y) = (x1, y1);
        let dx = (x2 - x1).abs();
        let dy = -(y2 - y1).abs();
        let sx = if x1 < x2 { 1 } else { -1 };
        let sy = if y1 < y2 { 1 } else { -1 };
        let mut err = dx + dy;
        loop {
            if clip.contains(crate::geometry::Point::new(x, y)) {
                self.put(x, y, p);
            }
            if x == x2 && y == y2 {
                break;
            }
            let e2 = 2 * err;
            if e2 >= dy {
                err += dy;
                x += sx;
            }
            if e2 <= dx {
                err += dx;
                y += sy;
            }
        }
    }

    /// Renders text with the 5×7 bitmap font, one glyph per cell. The
    /// glyph top sits a fixed 7 rows above the baseline (the bitmap's
    /// height), whatever the nominal font ascent; wide cells centre it.
    pub fn draw_text_blocks(
        &mut self,
        x: i32,
        baseline: i32,
        text: &str,
        clip: Rect,
        p: Pixel,
        char_width: u32,
    ) {
        let top = baseline - 7;
        let pad = (char_width.saturating_sub(5) / 2) as i32;
        for (i, c) in text.chars().enumerate() {
            let gx = x + (i as u32 * char_width) as i32 + pad;
            for (col, row) in crate::font5x7::lit_pixels(c) {
                let px = gx + col as i32;
                let py = top + row as i32;
                if clip.contains(crate::geometry::Point::new(px, py)) {
                    self.put(px, py, p);
                }
            }
        }
    }

    /// Copies an image, clipped.
    pub fn put_image(&mut self, x: i32, y: i32, w: u32, h: u32, data: &[Pixel], clip: Rect) {
        for row in 0..h {
            for col in 0..w {
                let px = x + col as i32;
                let py = y + row as i32;
                if clip.contains(crate::geometry::Point::new(px, py)) {
                    self.put(px, py, data[(row * w + col) as usize]);
                }
            }
        }
    }

    /// Counts pixels with exactly the given value (test helper).
    pub fn count_pixels(&self, p: Pixel) -> usize {
        self.pixels.iter().filter(|&&v| v == p).count()
    }

    /// Writes the framebuffer as a binary PPM (P6) image — the
    /// reproduction's way of producing real screenshot files for the
    /// paper's figures.
    pub fn write_ppm<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        writeln!(out, "P6\n{} {}\n255", self.width, self.height)?;
        let mut bytes = Vec::with_capacity(self.pixels.len() * 3);
        for p in &self.pixels {
            bytes.push((p >> 16) as u8);
            bytes.push((p >> 8) as u8);
            bytes.push(*p as u8);
        }
        out.write_all(&bytes)
    }
}

/// A character-cell canvas for ASCII screenshots.
///
/// Cells are 8x16 pixels: window-relative pixel coordinates divide down
/// to cells. Text lands as itself; fills as background shading; borders
/// as box-drawing strokes.
#[derive(Debug, Clone)]
pub struct AsciiCanvas {
    /// Width in character cells.
    pub cols: usize,
    /// Height in character cells.
    pub rows: usize,
    cells: Vec<char>,
}

/// Pixel width of one ASCII cell.
pub const CELL_W: i32 = 8;
/// Pixel height of one ASCII cell.
pub const CELL_H: i32 = 16;

impl AsciiCanvas {
    /// Creates a blank canvas covering `width`x`height` pixels.
    pub fn new(width: u32, height: u32) -> Self {
        let cols = (width as i32 / CELL_W).max(1) as usize;
        let rows = (height as i32 / CELL_H).max(1) as usize;
        AsciiCanvas {
            cols,
            rows,
            cells: vec![' '; cols * rows],
        }
    }

    /// Puts a character at a cell position.
    pub fn put(&mut self, col: i32, row: i32, c: char) {
        if col < 0 || row < 0 || col as usize >= self.cols || row as usize >= self.rows {
            return;
        }
        self.cells[row as usize * self.cols + col as usize] = c;
    }

    /// Writes text starting at a pixel position.
    pub fn text_at_pixel(&mut self, x: i32, y: i32, text: &str) {
        let col0 = x / CELL_W;
        let row = y / CELL_H;
        for (i, c) in text.chars().enumerate() {
            self.put(col0 + i as i32, row, c);
        }
    }

    /// Draws a box outline for a pixel rectangle.
    pub fn box_at_pixel(&mut self, rect: Rect) {
        let c0 = rect.x / CELL_W;
        let r0 = rect.y / CELL_H;
        let c1 = (rect.x + rect.w as i32 - 1) / CELL_W;
        let r1 = (rect.y + rect.h as i32 - 1) / CELL_H;
        if c1 <= c0 || r1 <= r0 {
            return;
        }
        for c in c0..=c1 {
            self.put(c, r0, '-');
            self.put(c, r1, '-');
        }
        for r in r0..=r1 {
            self.put(c0, r, '|');
            self.put(c1, r, '|');
        }
        self.put(c0, r0, '+');
        self.put(c1, r0, '+');
        self.put(c0, r1, '+');
        self.put(c1, r1, '+');
    }

    /// Renders the canvas as lines, right-trimmed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in 0..self.rows {
            let line: String = self.cells[r * self.cols..(r + 1) * self.cols]
                .iter()
                .collect();
            out.push_str(line.trim_end());
            out.push('\n');
        }
        // Drop trailing blank lines.
        while out.ends_with("\n\n") {
            out.pop();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_read() {
        let mut fb = Framebuffer::new(20, 10, 0xffffff);
        let clip = Rect::new(0, 0, 20, 10);
        fb.fill_rect(Rect::new(2, 2, 3, 3), clip, 0xff0000);
        assert_eq!(fb.get(2, 2), 0xff0000);
        assert_eq!(fb.get(4, 4), 0xff0000);
        assert_eq!(fb.get(5, 5), 0xffffff);
        assert_eq!(fb.count_pixels(0xff0000), 9);
    }

    #[test]
    fn clipping() {
        let mut fb = Framebuffer::new(10, 10, 0);
        let clip = Rect::new(0, 0, 5, 5);
        fb.fill_rect(Rect::new(0, 0, 10, 10), clip, 7);
        assert_eq!(fb.count_pixels(7), 25);
        // Out-of-bounds put/get are safe.
        fb.put(-1, -1, 9);
        assert_eq!(fb.get(-1, -1), 0);
        assert_eq!(fb.get(100, 100), 0);
    }

    #[test]
    fn lines_and_rect_outline() {
        let mut fb = Framebuffer::new(10, 10, 0);
        let clip = Rect::new(0, 0, 10, 10);
        fb.draw_line(0, 0, 9, 0, clip, 1);
        assert_eq!(fb.count_pixels(1), 10);
        let mut fb2 = Framebuffer::new(10, 10, 0);
        fb2.draw_rect(Rect::new(0, 0, 4, 4), clip, 2);
        // 4x4 outline = 12 pixels.
        assert_eq!(fb2.count_pixels(2), 12);
    }

    #[test]
    fn diagonal_line() {
        let mut fb = Framebuffer::new(10, 10, 0);
        let clip = Rect::new(0, 0, 10, 10);
        fb.draw_line(0, 0, 9, 9, clip, 3);
        for i in 0..10 {
            assert_eq!(fb.get(i, i), 3);
        }
    }

    #[test]
    fn text_blocks_ink() {
        let mut fb = Framebuffer::new(60, 20, 0xffffff);
        let clip = Rect::new(0, 0, 60, 20);
        fb.draw_text_blocks(0, 13, "ab", clip, 0, 6);
        assert!(fb.count_pixels(0) > 0);
    }

    #[test]
    fn ascii_canvas_text_and_box() {
        let mut c = AsciiCanvas::new(160, 64);
        c.text_at_pixel(16, 16, "hello");
        c.box_at_pixel(Rect::new(0, 0, 160, 64));
        let out = c.render();
        assert!(out.contains("hello"));
        assert!(out.contains('+'));
        assert!(out.lines().next().unwrap().starts_with('+'));
    }

    #[test]
    fn ascii_canvas_clips() {
        let mut c = AsciiCanvas::new(80, 32);
        c.text_at_pixel(1000, 1000, "off");
        c.put(-1, -1, 'x');
        assert!(!c.render().contains("off"));
    }

    #[test]
    fn put_image() {
        let mut fb = Framebuffer::new(4, 4, 0);
        let clip = Rect::new(0, 0, 4, 4);
        fb.put_image(1, 1, 2, 2, &[1, 2, 3, 4], clip);
        assert_eq!(fb.get(1, 1), 1);
        assert_eq!(fb.get(2, 2), 4);
    }
}
