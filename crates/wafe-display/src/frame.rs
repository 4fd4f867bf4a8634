//! Display frames: damage rectangles plus their pixels.
//!
//! Wire layout (big-endian, checksum trailer — see [`crate::wire`]):
//!
//! ```text
//! "WFRM"  u32 version  u64 seq  u32 width  u32 height  u8 full
//! u32 nrects
//!   nrects × { i32 x  i32 y  u32 w  u32 h  u8 encoding  payload }
//! u32 fnv1a-checksum
//! ```
//!
//! `encoding` 0 carries `w*h` raw `u32` pixels; encoding 1 carries
//! `u32 nruns` then `nruns × {u32 count, u32 pixel}` run-length pairs
//! whose counts must sum to exactly `w*h`. The builder picks whichever
//! is strictly smaller (raw wins ties), so the same framebuffer and
//! damage always produce the same bytes — the canonical-codec property
//! the test suite pins: `encode ∘ decode` is the identity in both
//! directions.

use wafe_xproto::damage::Damage;
use wafe_xproto::framebuffer::Framebuffer;
use wafe_xproto::geometry::Rect;
use wafe_xproto::Pixel;

use crate::wire::{DecodeError, Reader, Writer};

/// Leading tag of a frame message.
pub const FRAME_MAGIC: [u8; 4] = *b"WFRM";
/// The protocol version this codec speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// How a rectangle's pixels are carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PixelData {
    /// Row-major pixels, one `u32` each.
    Raw(Vec<Pixel>),
    /// Run-length pairs `(count, pixel)`; counts sum to the rect area.
    Rle(Vec<(u32, Pixel)>),
}

impl PixelData {
    /// Number of pixels carried.
    pub fn pixel_count(&self) -> u64 {
        match self {
            PixelData::Raw(p) => p.len() as u64,
            PixelData::Rle(runs) => runs.iter().map(|(n, _)| *n as u64).sum(),
        }
    }

    /// Expands to the flat row-major pixel vector.
    pub fn expand(&self) -> Vec<Pixel> {
        match self {
            PixelData::Raw(p) => p.clone(),
            PixelData::Rle(runs) => {
                let mut out = Vec::with_capacity(self.pixel_count() as usize);
                for (n, p) in runs {
                    out.extend(std::iter::repeat_n(*p, *n as usize));
                }
                out
            }
        }
    }

    /// Encoded payload size in bytes (excluding the rect header).
    fn encoded_len(&self) -> usize {
        match self {
            PixelData::Raw(p) => 4 * p.len(),
            PixelData::Rle(runs) => 4 + 8 * runs.len(),
        }
    }
}

/// One damaged rectangle and its pixels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRect {
    /// Screen area this patch covers.
    pub rect: Rect,
    /// The pixels, raw or run-length encoded.
    pub data: PixelData,
}

/// One display frame: everything that changed since the previous one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Monotonic frame sequence number.
    pub seq: u64,
    /// Screen width.
    pub width: u32,
    /// Screen height.
    pub height: u32,
    /// True when this frame repaints the whole screen (resync).
    pub full: bool,
    /// Damage patches, in the tracker's canonical order.
    pub rects: Vec<FrameRect>,
}

/// Run-length encodes a rectangle straight from the framebuffer's rows
/// (runs continue across row ends, the rect read row-major). Gives up
/// with `None` once the runs would encode no smaller than raw pixels —
/// they only grow, so raw has already won.
fn rle_runs(fb: &Framebuffer, rect: Rect) -> Option<Vec<(u32, Pixel)>> {
    let raw_len = 4 * rect.area() as usize;
    let mut runs = Vec::new();
    let (mut n, mut cur) = (0u32, 0);
    for row in fb.rows(rect) {
        let mut rest = row;
        while let Some(&p) = rest.first() {
            let len = rest.iter().position(|&q| q != p).unwrap_or(rest.len());
            rest = &rest[len..];
            if n > 0 && p == cur {
                n += len as u32;
                continue;
            }
            if n > 0 {
                runs.push((n, cur));
                if 4 + 8 * runs.len() >= raw_len {
                    return None;
                }
            }
            (n, cur) = (len as u32, p);
        }
    }
    if n > 0 {
        runs.push((n, cur));
    }
    (4 + 8 * runs.len() < raw_len).then_some(runs)
}

impl Frame {
    /// Builds the frame for `damage` from a composited framebuffer.
    /// Full damage becomes a single screen-sized rect; each rect's
    /// pixels are RLE-compressed iff that is strictly smaller than raw,
    /// and copied out raw only when raw wins.
    pub fn build(fb: &Framebuffer, damage: &Damage, seq: u64) -> Frame {
        let screen = Rect::new(0, 0, fb.width, fb.height);
        let full = [screen];
        let rects = if damage.full {
            &full[..]
        } else {
            &damage.rects[..]
        };
        let rects = rects
            .iter()
            .filter_map(|r| r.intersect(&screen))
            .map(|rect| {
                let data = match rle_runs(fb, rect) {
                    Some(runs) => PixelData::Rle(runs),
                    None => PixelData::Raw(fb.rect_pixels(rect)),
                };
                FrameRect { rect, data }
            })
            .collect();
        Frame {
            seq,
            width: fb.width,
            height: fb.height,
            full: damage.full,
            rects,
        }
    }

    /// Serializes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        w.put_bytes(&FRAME_MAGIC);
        w.put_u32(PROTOCOL_VERSION);
        w.put_u64(self.seq);
        w.put_u32(self.width);
        w.put_u32(self.height);
        w.put_u8(self.full as u8);
        w.put_u32(self.rects.len() as u32);
        for fr in &self.rects {
            w.put_i32(fr.rect.x);
            w.put_i32(fr.rect.y);
            w.put_u32(fr.rect.w);
            w.put_u32(fr.rect.h);
            match &fr.data {
                PixelData::Raw(pixels) => {
                    w.put_u8(0);
                    for p in pixels {
                        w.put_u32(*p);
                    }
                }
                PixelData::Rle(runs) => {
                    w.put_u8(1);
                    w.put_u32(runs.len() as u32);
                    for (n, p) in runs {
                        w.put_u32(*n);
                        w.put_u32(*p);
                    }
                }
            }
        }
        w.finish()
    }

    /// Encoded size in bytes, without serializing.
    pub fn encoded_len(&self) -> usize {
        // magic + version + seq + w + h + full + nrects + trailer.
        let mut n = 4 + 4 + 8 + 4 + 4 + 1 + 4 + 4;
        for fr in &self.rects {
            n += 16 + 1 + fr.data.encoded_len();
        }
        n
    }

    /// Decodes and validates a frame. Every corruption mode —
    /// truncation, bit flip, wrong magic or version, payload/area
    /// mismatch, trailing bytes — fails loudly.
    pub fn decode(bytes: &[u8]) -> Result<Frame, DecodeError> {
        let mut r = Reader::checked(bytes)?;
        r.expect_magic(&FRAME_MAGIC)?;
        let version = r.u32()?;
        if version != PROTOCOL_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let seq = r.u64()?;
        let width = r.u32()?;
        let height = r.u32()?;
        if width > 16_384 || height > 16_384 {
            return Err(DecodeError::BadValue("screen size"));
        }
        let full = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(DecodeError::BadValue("full flag")),
        };
        let nrects = r.u32()?;
        let mut rects = Vec::new();
        for _ in 0..nrects {
            let x = r.i32()?;
            let y = r.i32()?;
            let w = r.u32()?;
            let h = r.u32()?;
            let rect = Rect::new(x, y, w, h);
            let area = rect.area();
            if area == 0 || area > (16_384u64 * 16_384) {
                return Err(DecodeError::BadValue("rect area"));
            }
            let data = match r.u8()? {
                0 => {
                    let mut pixels = Vec::with_capacity(area as usize);
                    for _ in 0..area {
                        pixels.push(r.u32()?);
                    }
                    PixelData::Raw(pixels)
                }
                1 => {
                    let nruns = r.u32()?;
                    let mut runs = Vec::with_capacity(nruns as usize);
                    let mut covered: u64 = 0;
                    for _ in 0..nruns {
                        let n = r.u32()?;
                        let p = r.u32()?;
                        if n == 0 {
                            return Err(DecodeError::BadValue("zero-length run"));
                        }
                        covered += n as u64;
                        runs.push((n, p));
                    }
                    if covered != area {
                        return Err(DecodeError::BadValue("run coverage"));
                    }
                    PixelData::Rle(runs)
                }
                _ => return Err(DecodeError::BadValue("pixel encoding")),
            };
            rects.push(FrameRect { rect, data });
        }
        r.done()?;
        Ok(Frame {
            seq,
            width,
            height,
            full,
            rects,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Frame {
        Frame {
            seq: 9,
            width: 64,
            height: 48,
            full: false,
            rects: vec![
                FrameRect {
                    rect: Rect::new(2, 3, 2, 2),
                    data: PixelData::Raw(vec![1, 2, 3, 4]),
                },
                FrameRect {
                    rect: Rect::new(10, 10, 8, 4),
                    data: PixelData::Rle(vec![(30, 0xffffff), (2, 0)]),
                },
            ],
        }
    }

    #[test]
    fn encode_decode_is_identity() {
        let f = sample_frame();
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn build_picks_smaller_encoding() {
        let mut fb = Framebuffer::new(32, 32, 0xaaaaaa);
        // A flat region compresses; a noisy one stays raw.
        for i in 0..16 {
            fb.put(i, 1, (i as u32) * 7919);
        }
        let damage = Damage {
            full: false,
            rects: vec![Rect::new(0, 8, 16, 2), Rect::new(0, 0, 16, 2)],
        };
        let f = Frame::build(&fb, &damage, 1);
        assert!(matches!(f.rects[0].data, PixelData::Rle(_)), "flat → RLE");
        assert!(matches!(f.rects[1].data, PixelData::Raw(_)), "noisy → raw");
        for fr in &f.rects {
            assert_eq!(fr.data.pixel_count(), fr.rect.area());
            assert_eq!(fr.data.expand(), fb.rect_pixels(fr.rect));
        }
    }

    #[test]
    fn build_full_damage_is_one_screen_rect() {
        let fb = Framebuffer::new(16, 8, 0x123456);
        let f = Frame::build(&fb, &Damage::full(), 3);
        assert!(f.full);
        assert_eq!(f.rects.len(), 1);
        assert_eq!(f.rects[0].rect, Rect::new(0, 0, 16, 8));
        assert_eq!(f.rects[0].data.expand(), vec![0x123456; 16 * 8]);
    }

    #[test]
    fn corrupt_frames_fail_loudly() {
        let bytes = sample_frame().encode();
        assert_eq!(
            Frame::decode(&bytes[..bytes.len() - 1]).unwrap_err(),
            DecodeError::BadChecksum
        );
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(Frame::decode(&wrong_magic).is_err());
        // A frame claiming runs that do not cover its rect.
        let mut f = sample_frame();
        f.rects[1].data = PixelData::Rle(vec![(5, 0)]);
        assert_eq!(
            Frame::decode(&f.encode()).unwrap_err(),
            DecodeError::BadValue("run coverage")
        );
    }

    #[test]
    fn future_version_is_rejected() {
        let mut f = sample_frame();
        f.rects.clear();
        let mut bytes = f.encode();
        // Patch the version field (offset 4) and re-checksum.
        bytes[7] = 2;
        let body_len = bytes.len() - 4;
        let sum = crate::wire::fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_be_bytes());
        assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            DecodeError::BadVersion(2)
        );
    }
}
