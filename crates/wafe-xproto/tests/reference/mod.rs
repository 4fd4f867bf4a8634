//! X's paint, restated pixel by pixel: an oracle that shares no code
//! with the display's paint walk. Every write goes through
//! `Framebuffer::put`, lines are walked with Bresenham, and clipping is
//! a per-pixel `contains` test.
//!
//! The rules are X11's:
//! - a window's border is filled, all `border_width` pixels of it;
//! - a window, border included, shows only inside the content of every
//!   ancestor;
//! - a window's display list shows only inside its own content;
//! - siblings paint bottom-most first, children above their parent;
//! - a point belongs to the window whose content or border pixel is
//!   painted last there, or to the root.
//!
//! The display's own property tests use this module, and the paint
//! fixture of the command layer checks its hashes against it through a
//! `#[path]` module.
#![allow(dead_code)]

use wafe_xproto::display::Display;
use wafe_xproto::font5x7::glyph;
use wafe_xproto::geometry::{Point, Rect};
use wafe_xproto::{DrawOp, Framebuffer, Pixel, WindowId, SCREEN_H, SCREEN_W};

/// The whole screen painted by the X rules.
pub fn reference_paint(d: &Display) -> Framebuffer {
    let mut fb = Framebuffer::new(SCREEN_W, SCREEN_H, 0xbebebe);
    reference_window(d, d.root(), &mut fb);
    fb
}

/// The intersection of the screen and the content of every ancestor of
/// `id`, found by climbing the tree: where `id` may show.
fn ancestors_clip(d: &Display, id: WindowId) -> Option<Rect> {
    let mut clip = Rect::new(0, 0, SCREEN_W, SCREEN_H);
    let mut cur = d.window(id).and_then(|w| w.parent);
    while let Some(p) = cur {
        clip = clip.intersect(&d.abs_rect(p))?;
        cur = d.window(p).and_then(|w| w.parent);
    }
    Some(clip)
}

/// The window whose content or border pixel the reference paints at
/// `p`, or the root: the window the pointer is "in" at `p` by the X11
/// protocol's containment rule.
pub fn reference_owner(d: &Display, p: Point) -> WindowId {
    let mut owner = d.root();
    owner_walk(d, d.root(), p, &mut owner);
    owner
}

/// Walks `id`'s subtree in paint order, recording each window that
/// paints `p` over the one before.
fn owner_walk(d: &Display, id: WindowId, p: Point, owner: &mut WindowId) {
    let Some(w) = d.window(id) else { return };
    if !w.mapped {
        return;
    }
    let Some(clip) = ancestors_clip(d, id) else {
        return;
    };
    let b = w.border_width as i32;
    let content = d.abs_rect(id);
    let paints_p = p.x >= content.x - b
        && p.x < content.x + content.w as i32 + b
        && p.y >= content.y - b
        && p.y < content.y + content.h as i32 + b
        && clip.contains(p);
    if paints_p {
        *owner = id;
    }
    for &c in &w.children {
        owner_walk(d, c, p, owner);
    }
}

fn reference_window(d: &Display, id: WindowId, fb: &mut Framebuffer) {
    let Some(w) = d.window(id) else { return };
    if !w.mapped {
        return;
    }
    let Some(clip) = ancestors_clip(d, id) else {
        return;
    };
    let content = d.abs_rect(id);
    let b = w.border_width as i32;
    for y in content.y - b..content.y + content.h as i32 + b {
        for x in content.x - b..content.x + content.w as i32 + b {
            let at = Point::new(x, y);
            if clip.contains(at) {
                let p = if content.contains(at) {
                    w.background
                } else {
                    w.border_pixel
                };
                fb.put(x, y, p);
            }
        }
    }
    let Some(clip) = content.intersect(&clip) else {
        return;
    };
    let (ox, oy) = (content.x, content.y);
    for op in &w.display_list {
        match op {
            DrawOp::FillRect { rect, pixel } => {
                reference_fill(fb, rect.translated(ox, oy), clip, *pixel)
            }
            DrawOp::DrawRect { rect, pixel } => {
                reference_outline(fb, rect.translated(ox, oy), clip, *pixel)
            }
            DrawOp::DrawLine {
                x1,
                y1,
                x2,
                y2,
                pixel,
            } => reference_line(fb, ox + x1, oy + y1, ox + x2, oy + y2, clip, *pixel),
            DrawOp::DrawText {
                x,
                y,
                text,
                pixel,
                font,
            } => {
                let cw = d.fonts.get(*font).char_width;
                reference_text(fb, ox + x, oy + y, text, clip, *pixel, cw);
            }
            DrawOp::PutImage {
                x,
                y,
                w: iw,
                h: ih,
                data,
            } => reference_image(fb, ox + x, oy + y, *iw, *ih, data, clip),
        }
    }
    for &c in &w.children {
        reference_window(d, c, fb);
    }
}

#[allow(clippy::too_many_arguments)]
pub fn reference_text(
    fb: &mut Framebuffer,
    x: i32,
    baseline: i32,
    text: &str,
    clip: Rect,
    p: Pixel,
    cw: u32,
) {
    let (top, pad) = (baseline - 7, (cw.saturating_sub(5) / 2) as i32);
    for (i, c) in text.chars().enumerate() {
        let gx = x + (i as u32 * cw) as i32 + pad;
        let cols = glyph(c).copied().unwrap_or([0x7f; 5]);
        for (col, bits) in cols.iter().enumerate() {
            for row in 0..7 {
                let at = Point::new(gx + col as i32, top + row);
                if bits & (1 << row) != 0 && clip.contains(at) {
                    fb.put(at.x, at.y, p);
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
pub fn reference_image(
    fb: &mut Framebuffer,
    x: i32,
    y: i32,
    w: u32,
    h: u32,
    data: &[Pixel],
    clip: Rect,
) {
    for row in 0..h {
        for col in 0..w {
            let at = Point::new(x + col as i32, y + row as i32);
            if clip.contains(at) {
                fb.put(at.x, at.y, data[(row * w + col) as usize]);
            }
        }
    }
}

pub fn reference_fill(fb: &mut Framebuffer, rect: Rect, clip: Rect, p: Pixel) {
    for y in rect.y..rect.y + rect.h as i32 {
        for x in rect.x..rect.x + rect.w as i32 {
            if clip.contains(Point::new(x, y)) {
                fb.put(x, y, p);
            }
        }
    }
}

pub fn reference_outline(fb: &mut Framebuffer, r: Rect, clip: Rect, p: Pixel) {
    let (x2, y2) = (r.x + r.w as i32 - 1, r.y + r.h as i32 - 1);
    reference_line(fb, r.x, r.y, x2, r.y, clip, p);
    reference_line(fb, r.x, y2, x2, y2, clip, p);
    reference_line(fb, r.x, r.y, r.x, y2, clip, p);
    reference_line(fb, x2, r.y, x2, y2, clip, p);
}

#[allow(clippy::too_many_arguments)]
pub fn reference_line(
    fb: &mut Framebuffer,
    x1: i32,
    y1: i32,
    x2: i32,
    y2: i32,
    clip: Rect,
    p: Pixel,
) {
    let (mut x, mut y) = (x1, y1);
    let (dx, dy) = ((x2 - x1).abs(), -(y2 - y1).abs());
    let (sx, sy) = (if x1 < x2 { 1 } else { -1 }, if y1 < y2 { 1 } else { -1 });
    let mut err = dx + dy;
    loop {
        if clip.contains(Point::new(x, y)) {
            fb.put(x, y, p);
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
