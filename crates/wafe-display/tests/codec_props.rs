//! Property suite for the display protocol, pinning the three claims
//! the subsystem rests on:
//!
//! * the codec is canonical — `encode ∘ decode` is the identity in both
//!   directions, for arbitrary frames, built frames and input events;
//! * damage coalescing never loses a dirty pixel — every rect ever
//!   added to a [`DamageTracker`] is covered by what `take()` returns,
//!   however the tracker merged, capped or fell back to full;
//! * corruption fails loudly — every truncation and every single-bit
//!   flip of a valid message is rejected, never decoded best-effort.

use wafe_display::{Frame, FrameRect, InputEvent, PixelData};
use wafe_prop::{cases, Rng};
use wafe_xproto::framebuffer::Framebuffer;
use wafe_xproto::{DamageTracker, Rect};

fn arbitrary_rect(rng: &mut Rng, max_w: u32, max_h: u32) -> Rect {
    Rect::new(
        rng.range_i64(-20, 60) as i32,
        rng.range_i64(-20, 60) as i32,
        rng.range_u32(1, max_w),
        rng.range_u32(1, max_h),
    )
}

/// A structurally valid frame with arbitrary (not necessarily
/// canonical) encoding choices — decode must accept every valid
/// message, not just the ones the builder emits.
fn arbitrary_frame(rng: &mut Rng) -> Frame {
    let rects = rng.vec(0, 4, |rng| {
        let rect = arbitrary_rect(rng, 8, 8);
        let area = rect.area();
        let data = if rng.chance() {
            PixelData::Raw((0..area).map(|_| rng.next_u64() as u32).collect())
        } else {
            let mut runs = Vec::new();
            let mut left = area;
            while left > 0 {
                let n = rng.range(1, left as usize + 1) as u32;
                runs.push((n, rng.next_u64() as u32));
                left -= n as u64;
            }
            PixelData::Rle(runs)
        };
        FrameRect { rect, data }
    });
    Frame {
        seq: rng.next_u64(),
        width: rng.range_u32(1, 2048),
        height: rng.range_u32(1, 2048),
        full: rng.chance(),
        rects,
    }
}

fn arbitrary_event(rng: &mut Rng) -> InputEvent {
    match rng.below(5) {
        0 => InputEvent::Key {
            name: rng.ascii_string(12),
            modifiers: rng.below(8) as u8,
        },
        1 => InputEvent::Button {
            button: rng.range_u32(1, 5) as u8,
            press: rng.chance(),
            x: rng.range_i64(-100, 2000) as i32,
            y: rng.range_i64(-100, 2000) as i32,
        },
        2 => InputEvent::Motion {
            x: rng.range_i64(-100, 2000) as i32,
            y: rng.range_i64(-100, 2000) as i32,
        },
        3 => InputEvent::Resize {
            width: rng.range_u32(1, 4096),
            height: rng.range_u32(1, 4096),
        },
        _ => InputEvent::Text {
            text: rng.unicode_string(0, 8),
        },
    }
}

#[test]
fn frame_codec_round_trips_arbitrary_frames() {
    cases(300, |rng| {
        let f = arbitrary_frame(rng);
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.encode(), bytes, "re-encode reproduces the bytes");
    });
}

#[test]
fn built_frames_round_trip_and_carry_the_framebuffer_pixels() {
    cases(200, |rng| {
        let (w, h) = (rng.range_u32(4, 64), rng.range_u32(4, 64));
        let mut fb = Framebuffer::new(w, h, 0xbebebe);
        for _ in 0..rng.below(200) {
            fb.put(
                rng.below(w as u64) as i32,
                rng.below(h as u64) as i32,
                rng.next_u64() as u32,
            );
        }
        let mut tracker = DamageTracker::new(w, h);
        for _ in 0..rng.range(1, 6) {
            tracker.add(arbitrary_rect(rng, w, h));
        }
        let damage = tracker.take();
        let frame = Frame::build(&fb, &damage, rng.next_u64());
        let back = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(back, frame);
        for fr in &back.rects {
            let raw = fb.rect_pixels(fr.rect);
            assert_eq!(
                fr.data.expand(),
                raw,
                "decoded pixels must match the framebuffer at {:?}",
                fr.rect
            );
            // Canonical choice: RLE exactly when it is strictly smaller.
            let runs = 1 + raw.windows(2).filter(|p| p[0] != p[1]).count();
            assert_eq!(
                matches!(fr.data, PixelData::Rle(_)),
                4 + 8 * runs < 4 * raw.len(),
                "encoding choice at {:?}",
                fr.rect
            );
        }
    });
}

#[test]
fn coalescing_never_loses_a_dirty_pixel() {
    cases(400, |rng| {
        let (w, h) = (rng.range_u32(16, 200), rng.range_u32(16, 200));
        let bounds = Rect::new(0, 0, w, h);
        let mut tracker = DamageTracker::new(w, h);
        let mut added = Vec::new();
        for _ in 0..rng.range(1, 40) {
            let r = arbitrary_rect(rng, w, h);
            tracker.add(r);
            if let Some(clipped) = r.intersect(&bounds) {
                added.push(clipped);
            }
        }
        let damage = tracker.take();
        for r in &added {
            assert!(
                damage.covers(r),
                "dirty rect {r:?} lost by coalescing into {damage:?}"
            );
        }
        assert!(tracker.take().is_empty(), "take drains the tracker");
    });
}

#[test]
fn event_codec_round_trips_arbitrary_events() {
    cases(400, |rng| {
        let ev = arbitrary_event(rng);
        let bytes = ev.encode();
        let back = InputEvent::decode(&bytes).unwrap();
        assert_eq!(back, ev);
        assert_eq!(back.encode(), bytes);
    });
}

#[test]
fn every_truncation_of_a_valid_message_fails_loudly() {
    cases(40, |rng| {
        let bytes = arbitrary_frame(rng).encode();
        for n in 0..bytes.len() {
            assert!(
                Frame::decode(&bytes[..n]).is_err(),
                "frame truncated to {n} of {} bytes decoded",
                bytes.len()
            );
        }
        let bytes = arbitrary_event(rng).encode();
        for n in 0..bytes.len() {
            assert!(
                InputEvent::decode(&bytes[..n]).is_err(),
                "event truncated to {n} of {} bytes decoded",
                bytes.len()
            );
        }
    });
}

#[test]
fn every_single_bit_flip_fails_loudly() {
    cases(15, |rng| {
        let bytes = arbitrary_frame(rng).encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert!(
                    Frame::decode(&flipped).is_err(),
                    "bit {bit} of byte {i} flipped and the frame still decoded"
                );
            }
        }
    });
}
