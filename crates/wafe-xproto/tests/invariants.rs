//! Property tests over the display server: hit-testing, event delivery
//! and framebuffer invariants under random window trees and event
//! streams.

use std::rc::Rc;

use wafe_prop::{cases, Rng};
use wafe_xproto::display::{Display, WindowAttributes};
use wafe_xproto::geometry::{Point, Rect};
use wafe_xproto::{DrawOp, EventKind, FontId, Framebuffer, Pixel, WindowId};

mod reference;
use reference::{
    reference_fill, reference_image, reference_line, reference_outline, reference_owner,
    reference_paint, reference_text,
};

/// Draws one random window spec: (x, y, w, h, mapped).
fn random_spec(rng: &mut Rng) -> (i32, i32, u8, u8, bool) {
    (
        rng.range_i64(0, 200) as i32,
        rng.range_i64(0, 160) as i32,
        rng.range(1, 40) as u8,
        rng.range(1, 30) as u8,
        rng.chance(),
    )
}

/// Builds a random two-level window tree; returns all created windows.
fn build_tree(d: &mut Display, spec: &[(i32, i32, u8, u8, bool)]) -> Vec<WindowId> {
    let mut wins = Vec::new();
    for &(x, y, w, h, mapped) in spec {
        let id = d.create_window(
            d.root(),
            WindowAttributes {
                rect: Rect::new(x, y, w.max(1) as u32 * 4, h.max(1) as u32 * 4),
                border_width: 1,
                background: 0xffffff,
                override_redirect: false,
            },
        );
        if mapped {
            d.map_window(id);
        }
        wins.push(id);
    }
    wins
}

/// `window_at` always returns a viewable window (or the root), and
/// that window is the one whose pixel the X reference paints at the
/// point, border included.
#[test]
fn window_at_is_consistent() {
    cases(256, |rng| {
        let spec = rng.vec(0, 8, random_spec);
        let px = rng.range_i64(0, 250) as i32;
        let py = rng.range_i64(0, 200) as i32;
        let mut d = Display::open(":0");
        build_tree(&mut d, &spec);
        let hit = d.window_at(Point::new(px, py));
        assert!(d.is_viewable(hit));
        assert_eq!(hit, reference_owner(&d, Point::new(px, py)));
    });
}

/// Clicking any point delivers press+release to the same window with
/// consistent relative coordinates.
#[test]
fn click_coordinates_consistent() {
    cases(256, |rng| {
        let spec = rng.vec(1, 6, random_spec);
        let px = rng.range_i64(0, 250) as i32;
        let py = rng.range_i64(0, 200) as i32;
        let mut d = Display::open(":0");
        build_tree(&mut d, &spec);
        while d.next_event().is_some() {}
        d.inject_click(px, py, 1);
        let events: Vec<_> = std::iter::from_fn(|| d.next_event()).collect();
        let press = events
            .iter()
            .find(|e| e.kind == EventKind::ButtonPress)
            .unwrap();
        let release = events
            .iter()
            .find(|e| e.kind == EventKind::ButtonRelease)
            .unwrap();
        assert_eq!(press.window, release.window);
        assert_eq!(press.x_root, px);
        assert_eq!(press.y_root, py);
        let abs = d.abs_rect(press.window);
        assert_eq!(press.x, px - abs.x);
        assert_eq!(press.y, py - abs.y);
    });
}

/// Typing arbitrary ASCII produces balanced press/release pairs whose
/// ascii concatenation equals the input (for keys the map supports).
#[test]
fn key_injection_balanced() {
    cases(256, |rng| {
        let text = rng.ascii_string(21);
        let mut d = Display::open(":0");
        while d.next_event().is_some() {}
        d.inject_key_text(&text);
        let events: Vec<_> = std::iter::from_fn(|| d.next_event()).collect();
        let presses = events
            .iter()
            .filter(|e| e.kind == EventKind::KeyPress)
            .count();
        let releases = events
            .iter()
            .filter(|e| e.kind == EventKind::KeyRelease)
            .count();
        assert_eq!(presses, releases);
        let typed: String = events
            .iter()
            .filter(|e| e.kind == EventKind::KeyPress)
            .map(|e| e.ascii.as_str())
            .collect();
        assert_eq!(typed, text);
    });
}

/// destroy_window never leaves dangling children and never double
/// counts.
#[test]
fn destroy_is_complete() {
    cases(256, |rng| {
        let spec = rng.vec(1, 8, random_spec);
        let victim = rng.range(0, 8);
        let mut d = Display::open(":0");
        let wins = build_tree(&mut d, &spec);
        let before = d.window_count();
        let victim = wins[victim % wins.len()];
        d.destroy_window(victim);
        assert_eq!(d.window_count(), before - 1);
        // Double destroy is harmless.
        d.destroy_window(victim);
        assert_eq!(d.window_count(), before - 1);
    });
}

/// `expose` checks viewability once and then follows mapped children:
/// a window under an unmapped one gets no `Expose`, and the rest come in
/// preorder, as X reports them.
#[test]
fn expose_reports_viewable_windows_in_preorder() {
    let mut d = Display::open(":0");
    let win = |d: &mut Display, parent| d.create_window(parent, attrs(100, 100, 40, 30, 0, 0));
    let root = d.root();
    let top = win(&mut d, root);
    let a = win(&mut d, top);
    let a1 = win(&mut d, a);
    let a2 = win(&mut d, a);
    let b = win(&mut d, top);
    let b1 = win(&mut d, b);
    let c = win(&mut d, top);
    // `b` stays unmapped, so neither it nor its mapped child is viewable.
    for w in [top, a, a1, a2, b1, c] {
        d.map_window(w);
    }
    while d.next_event().is_some() {}
    d.configure_window(top, Rect::new(100, 100, 60, 50));
    let events: Vec<(EventKind, WindowId)> = std::iter::from_fn(|| d.next_event())
        .map(|e| (e.kind, e.window))
        .collect();
    use EventKind::{ConfigureNotify, Expose};
    assert_eq!(
        events,
        [
            (ConfigureNotify, top),
            (Expose, top),
            (Expose, a),
            (Expose, a1),
            (Expose, a2),
            (Expose, c),
        ]
    );
    d.expose(b1);
    assert_eq!(
        d.pending(),
        0,
        "a window under an unmapped one is not exposed"
    );
}

/// The framebuffer flush never panics and keeps its dimensions.
#[test]
fn flush_is_safe() {
    cases(256, |rng| {
        let spec = rng.vec(0, 10, |r| {
            (
                r.range_i64(-20, 250) as i32,
                r.range_i64(-20, 200) as i32,
                r.range(0, 60) as u8,
                r.range(0, 50) as u8,
                r.chance(),
            )
        });
        let mut d = Display::open(":0");
        build_tree(&mut d, &spec);
        d.flush();
        let fb = d.framebuffer();
        assert_eq!(fb.width, 1024);
        assert_eq!(fb.height, 768);
    });
}

#[test]
fn enter_leave_pairing_over_random_walk() {
    let mut d = Display::open(":0");
    let w = d.create_window(
        d.root(),
        WindowAttributes {
            rect: Rect::new(100, 100, 100, 100),
            ..Default::default()
        },
    );
    d.map_window(w);
    while d.next_event().is_some() {}
    // Walk the pointer in and out repeatedly.
    let mut enters = 0;
    let mut leaves = 0;
    for step in 0..40 {
        let inside = step % 2 == 0;
        let (x, y) = if inside { (150, 150) } else { (10, 10) };
        d.inject_pointer_move(x, y);
        while let Some(e) = d.next_event() {
            if e.window == w {
                match e.kind {
                    EventKind::EnterNotify => enters += 1,
                    EventKind::LeaveNotify => leaves += 1,
                    _ => {}
                }
            }
        }
    }
    assert_eq!(enters, 20);
    assert_eq!(leaves, 20);
}

// ----- the paint contract ----------------------------------------------
//
// A flush repaints only the damage: inside it every pixel must end as a
// whole-screen paint leaves it, and outside it nothing may change. A
// whole-screen paint follows X (`reference/mod.rs`): borders are filled,
// and every window, border included, is clipped to its ancestors.

const PALETTE: [Pixel; 7] = [
    0x000000, 0xffffff, 0xff0000, 0x00a000, 0x0000ff, 0xffd700, 0x808080,
];

/// `None` when equal, else the number of differing pixels and the first.
fn pixel_diff(a: &Framebuffer, b: &Framebuffer) -> Option<String> {
    if a == b {
        return None;
    }
    let mut first = None;
    let mut n = 0;
    for y in 0..a.height as i32 {
        for x in 0..a.width as i32 {
            if a.get(x, y) != b.get(x, y) {
                n += 1;
                first.get_or_insert((x, y));
            }
        }
    }
    Some(format!("{n} pixels differ, first at {first:?}"))
}

fn random_rect(rng: &mut Rng) -> Rect {
    Rect::new(
        rng.range_i64(-30, 240) as i32,
        rng.range_i64(-30, 180) as i32,
        rng.range_u32(0, 140),
        rng.range_u32(0, 110),
    )
}

/// A random display list using every op: fills and outlines (empty
/// ones too), axis-aligned and diagonal lines, text in every font (with
/// a non-ASCII box glyph now and then), and images, all free to spill
/// past the window.
fn random_ops(rng: &mut Rng, fonts: &[FontId]) -> Vec<DrawOp> {
    let coord = |rng: &mut Rng| rng.range_i64(-15, 120) as i32;
    (0..rng.range(0, 6))
        .map(|_| {
            let pixel = *rng.pick(&PALETTE);
            match rng.range(0, 5) {
                0 => DrawOp::FillRect {
                    rect: Rect::new(
                        coord(rng),
                        coord(rng),
                        rng.range_u32(0, 60),
                        rng.range_u32(0, 40),
                    ),
                    pixel,
                },
                1 => DrawOp::DrawRect {
                    rect: Rect::new(
                        coord(rng),
                        coord(rng),
                        rng.range_u32(0, 60),
                        rng.range_u32(0, 40),
                    ),
                    pixel,
                },
                2 => {
                    let (x1, y1) = (coord(rng), coord(rng));
                    let (x2, y2) = match rng.range(0, 3) {
                        0 => (coord(rng), y1),
                        1 => (x1, coord(rng)),
                        _ => (coord(rng), coord(rng)),
                    };
                    DrawOp::DrawLine {
                        x1,
                        y1,
                        x2,
                        y2,
                        pixel,
                    }
                }
                3 => {
                    let mut text = rng.ascii_string(14);
                    if rng.range(0, 3) == 0 {
                        text.push('é');
                    }
                    DrawOp::DrawText {
                        x: coord(rng),
                        y: coord(rng),
                        text,
                        pixel,
                        font: *rng.pick(fonts),
                    }
                }
                _ => {
                    let (w, h) = (rng.range_u32(1, 14), rng.range_u32(1, 14));
                    let data = (0..w * h).map(|_| *rng.pick(&PALETTE)).collect();
                    DrawOp::PutImage {
                        x: coord(rng),
                        y: coord(rng),
                        w,
                        h,
                        data: Rc::new(data),
                    }
                }
            }
        })
        .collect()
}

fn test_fonts(d: &Display) -> Vec<FontId> {
    ["fixed", "9x15", "*-lucida-*"]
        .iter()
        .map(|name| d.fonts.resolve(name).unwrap_or(d.fonts.default_font()))
        .collect()
}

/// Creates a window under the root or a random live window: any
/// position (children may spill out of their parents and overlap their
/// siblings), border 0-3, a random display list, mapped 3 times in 4.
fn random_window(rng: &mut Rng, d: &mut Display, wins: &[WindowId]) -> WindowId {
    let parent = if wins.is_empty() || rng.range(0, 2) == 0 {
        d.root()
    } else {
        *rng.pick(wins)
    };
    // A child mostly straddles its parent's edges, so most windows are
    // clipped by their parent, often through the border alone.
    let rect = match d.window_rect(parent) {
        Some(p) if parent != d.root() && rng.range(0, 4) > 0 => Rect::new(
            rng.range_i64(-12, p.w as i64 + 1) as i32,
            rng.range_i64(-12, p.h as i64 + 1) as i32,
            rng.range_u32(0, p.w + 24),
            rng.range_u32(0, p.h + 24),
        ),
        _ => random_rect(rng),
    };
    let id = d.create_window(
        parent,
        WindowAttributes {
            rect,
            border_width: rng.range_u32(0, 4),
            background: *rng.pick(&PALETTE),
            override_redirect: false,
        },
    );
    d.set_window_attrs(id, None, Some(*rng.pick(&PALETTE)), None);
    let fonts = test_fonts(d);
    d.set_display_list(id, random_ops(rng, &fonts));
    if rng.range(0, 3) > 0 {
        d.map_window(id);
    }
    id
}

/// One random mutation of a live window (or the root's background).
fn random_mutation(rng: &mut Rng, d: &mut Display, wins: &mut Vec<WindowId>) {
    wins.retain(|&w| d.window(w).is_some());
    if wins.is_empty() || rng.range(0, 9) == 0 {
        let w = random_window(rng, d, wins);
        wins.push(w);
        return;
    }
    let w = *rng.pick(wins);
    match rng.range(0, 9) {
        0 => {
            let bg = rng.chance().then(|| *rng.pick(&PALETTE));
            let border = rng.chance().then(|| *rng.pick(&PALETTE));
            let width = rng.chance().then(|| rng.range_u32(0, 4));
            d.set_window_attrs(w, bg, border, width);
        }
        1 => d.configure_window(w, random_rect(rng)),
        2 => {
            let r = d.window_rect(w).expect("live window");
            let (dx, dy) = (rng.range_i64(-8, 8) as i32, rng.range_i64(-8, 8) as i32);
            d.configure_window(w, r.translated(dx, dy));
        }
        3 => d.map_window(w),
        4 => d.unmap_window(w),
        5 => d.raise_window(w),
        6 => {
            let fonts = test_fonts(d);
            d.set_display_list(w, random_ops(rng, &fonts));
        }
        7 => d.destroy_window(w),
        _ => d.set_window_attrs(d.root(), Some(*rng.pick(&PALETTE)), None, None),
    }
}

/// The paint oracle. Random trees under random mutations; after every
/// flush the incrementally painted framebuffer equals a whole-screen
/// repaint of the same display, and no pixel outside the flushed damage
/// changed. At the end of each case both equal the reference paint.
#[test]
fn incremental_flush_matches_full_repaint_and_stays_in_the_damage() {
    cases(40, |rng| {
        let mut d = Display::open(":0");
        let mut wins = Vec::new();
        for _ in 0..rng.range(1, 10) {
            let w = random_window(rng, &mut d, &wins);
            wins.push(w);
        }
        d.set_compositing(true);
        d.flush();
        let _ = d.take_frame_damage();
        let mut incremental = 0;
        for step in 0..12 {
            for _ in 0..rng.range(1, 3) {
                random_mutation(rng, &mut d, &mut wins);
            }
            let before = d.framebuffer().clone();
            d.flush();
            let damage = d.take_frame_damage();
            let after = d.framebuffer().clone();
            if !damage.full {
                incremental += 1;
                let mut expect = before;
                for r in &damage.rects {
                    expect.put_image(r.x, r.y, r.w, r.h, &after.rect_pixels(*r), *r);
                }
                if let Some(diff) = pixel_diff(&expect, &after) {
                    panic!("step {step}: the flush wrote outside its damage: {diff}");
                }
            }
            let mut twin = d.clone();
            twin.request_full_frame();
            twin.flush();
            if let Some(diff) = pixel_diff(twin.framebuffer(), &after) {
                panic!("step {step}: incremental flush != full repaint: {diff}");
            }
        }
        assert!(incremental > 0, "no step exercised an incremental flush");
        if let Some(diff) = pixel_diff(&reference_paint(&d), d.framebuffer()) {
            panic!("full repaint != reference paint: {diff}");
        }
    });
}

/// Builds the sibling-overlap scene: bordered A with child C, and
/// sibling B stacked above A over A's bottom-right border.
fn overlap_scene() -> (Display, WindowId) {
    let mut d = Display::open(":0");
    let attrs = |x, y, w, h, bw, background| WindowAttributes {
        rect: Rect::new(x, y, w, h),
        border_width: bw,
        background,
        override_redirect: false,
    };
    let a = d.create_window(d.root(), attrs(10, 10, 100, 100, 3, 0xffffff));
    let c = d.create_window(a, attrs(5, 5, 40, 40, 1, 0x00a000));
    let b = d.create_window(d.root(), attrs(60, 60, 100, 100, 1, 0x0000ff));
    for w in [a, c, b] {
        d.map_window(w);
    }
    (d, c)
}

/// A's 3-px border lies under B; recolouring C (inside A, nowhere near
/// B) must not repaint A's border over B. The border is filled whole.
#[test]
fn border_under_sibling_survives_incremental_repaint() {
    let (mut incremental, c) = overlap_scene();
    incremental.flush();
    let _ = incremental.framebuffer(); // Materialize: full paint.
    incremental.set_window_attrs(c, Some(0xff0000), None, None);
    incremental.flush();

    let (mut full, c) = overlap_scene();
    full.set_window_attrs(c, Some(0xff0000), None, None);
    full.flush();
    let full = full.framebuffer().clone(); // First paint is whole-screen.
    if let Some(diff) = pixel_diff(&full, incremental.framebuffer()) {
        panic!("incremental repaint corrupted the overlap: {diff}");
    }
    if let Some(diff) = pixel_diff(&reference_paint(&incremental), &full) {
        panic!("the paint differs from the X reference: {diff}");
    }
    let fb = incremental.framebuffer();
    for x in 10..13 {
        assert_eq!(fb.get(x, 50), 0x000000, "A's border is filled at x={x}");
    }
    assert_eq!(fb.get(114, 114), 0x0000ff, "B covers A's border");
}

/// Every framebuffer primitive writes exactly the pixels of its
/// per-pixel statement, whatever the shape, the clip and the buffer
/// edges (a small buffer, so shapes and clips hang off every side).
#[test]
fn framebuffer_primitives_match_per_pixel_reference() {
    cases(2000, |rng| {
        let (w, h) = (rng.range_u32(1, 40), rng.range_u32(1, 30));
        let coord = |rng: &mut Rng| rng.range_i64(-12, 45) as i32;
        let clip = Rect::new(
            coord(rng),
            coord(rng),
            rng.range_u32(0, 50),
            rng.range_u32(0, 40),
        );
        let (x, y) = (coord(rng), coord(rng));
        let (x2, y2) = match rng.range(0, 3) {
            0 => (coord(rng), y),
            1 => (x, coord(rng)),
            _ => (coord(rng), coord(rng)),
        };
        let rect = Rect::new(x, y, rng.range_u32(0, 30), rng.range_u32(0, 30));
        let p = *rng.pick(&PALETTE);
        let mut fast = Framebuffer::new(w, h, 0xbebebe);
        let mut slow = fast.clone();
        match rng.range(0, 5) {
            0 => {
                fast.fill_rect(rect, clip, p);
                reference_fill(&mut slow, rect, clip, p);
            }
            1 => {
                fast.draw_rect(rect, clip, p);
                reference_outline(&mut slow, rect, clip, p);
            }
            2 => {
                fast.draw_line(x, y, x2, y2, clip, p);
                reference_line(&mut slow, x, y, x2, y2, clip, p);
            }
            3 => {
                let mut text = rng.ascii_string(8);
                if rng.chance() {
                    text.push('\u{e9}');
                }
                let cw = rng.range_u32(0, 10);
                fast.draw_text_blocks(x, y, &text, clip, p, cw);
                reference_text(&mut slow, x, y, &text, clip, p, cw);
            }
            _ => {
                let (iw, ih) = (rng.range_u32(1, 20), rng.range_u32(1, 20));
                let data: Vec<Pixel> = (0..iw * ih).map(|_| *rng.pick(&PALETTE)).collect();
                fast.put_image(x, y, iw, ih, &data, clip);
                reference_image(&mut slow, x, y, iw, ih, &data, clip);
            }
        }
        if let Some(diff) = pixel_diff(&slow, &fast) {
            panic!("primitive differs from its reference: {diff}");
        }
    });
}

/// Compares an incrementally flushed display with a whole-screen
/// repaint of its clone and with the X reference.
fn assert_paints_agree(d: &mut Display, what: &str) {
    let mut full = d.clone();
    full.request_full_frame();
    full.flush();
    if let Some(diff) = pixel_diff(full.framebuffer(), d.framebuffer()) {
        panic!("{what}: incremental != full repaint: {diff}");
    }
    if let Some(diff) = pixel_diff(&reference_paint(d), d.framebuffer()) {
        panic!("{what}: paint != X reference: {diff}");
    }
}

fn attrs(x: i32, y: i32, w: u32, h: u32, border_width: u32, background: Pixel) -> WindowAttributes {
    WindowAttributes {
        rect: Rect::new(x, y, w, h),
        border_width,
        background,
        override_redirect: false,
    }
}

/// A child moved so that it straddles its parent's edge is clipped to
/// the parent's content, border included: past the edge the sibling
/// below shows, also after that sibling repaints.
#[test]
fn border_moved_past_its_parent_is_clipped_to_it() {
    let mut d = Display::open(":0");
    let below = d.create_window(d.root(), attrs(40, 40, 20, 20, 0, 0x0000ff));
    let a = d.create_window(d.root(), attrs(10, 10, 20, 20, 1, 0xffffff));
    let c = d.create_window(a, attrs(0, 0, 5, 5, 3, 0xff0000));
    for w in [below, a, c] {
        d.map_window(w);
    }
    d.set_compositing(true);
    d.flush();
    // C's outer rect becomes (26,26)..=(51,51); A's content is
    // (11,11)..=(30,30), so only (26,26)..=(30,30) of C shows.
    d.configure_window(c, Rect::new(15, 15, 20, 20));
    d.flush();
    assert_paints_agree(&mut d, "after the move");
    d.set_window_attrs(below, Some(0x00a000), None, None);
    d.flush();
    assert_paints_agree(&mut d, "after the sibling below repainted");
    let fb = d.framebuffer();
    assert_eq!(fb.get(27, 27), 0x000000, "C's border, inside A");
    assert_eq!(fb.get(30, 30), 0xff0000, "C's content, inside A");
    assert_eq!(fb.get(31, 28), 0x000000, "A's own border");
    assert_eq!(fb.get(35, 35), 0xbebebe, "root: C is clipped to A");
    assert_eq!(fb.get(51, 45), 0x00a000, "the sibling, not C's border");
}

/// A new border width moves a window's content and its whole subtree:
/// the border is filled at its new width, the grandchild moves with
/// the content and stays clipped to it, and its old place is cleared.
#[test]
fn border_width_change_repaints_the_moved_subtree() {
    let mut d = Display::open(":0");
    let below = d.create_window(d.root(), attrs(43, 30, 10, 10, 0, 0x0000ff));
    let z = d.create_window(d.root(), attrs(0, 0, 30, 30, 0, 0xffffff));
    let a = d.create_window(z, attrs(5, 5, 20, 20, 1, 0xffd700));
    let c = d.create_window(a, attrs(15, 15, 20, 20, 1, 0xff0000));
    for w in [below, z, a, c] {
        d.map_window(w);
    }
    d.set_compositing(true);
    d.flush();
    assert_eq!(d.framebuffer().get(21, 23), 0x000000, "C's border");
    // A's content moves from (6,6) to (9,9), and C's outer rect from
    // (21,21) to (24,24); both stay clipped to A's content.
    d.set_window_attrs(a, None, None, Some(4));
    d.flush();
    assert_paints_agree(&mut d, "after the border change");
    d.set_window_attrs(below, Some(0x00a000), None, None);
    d.flush();
    assert_paints_agree(&mut d, "after the sibling below repainted");
    let fb = d.framebuffer();
    for x in 5..9 {
        assert_eq!(fb.get(x, 15), 0x000000, "A's 4-px border at x={x}");
    }
    assert_eq!(fb.get(21, 23), 0xffd700, "C's old border place: A");
    assert_eq!(fb.get(24, 26), 0x000000, "C's border at its new place");
    assert_eq!(fb.get(26, 26), 0xff0000, "C's content");
    assert_eq!(fb.get(45, 35), 0x00a000, "the sibling, not C's border");
}

/// A child's border is clipped to its window, and unmapping the window
/// takes the whole subtree off the screen.
#[test]
fn a_descendant_border_is_clipped_to_the_window_and_unmapped_with_it() {
    let mut d = Display::open(":0");
    let a = d.create_window(d.root(), attrs(10, 10, 20, 20, 1, 0xffffff));
    let c = d.create_window(a, attrs(15, 15, 20, 20, 1, 0xff0000));
    for w in [a, c] {
        d.map_window(w);
    }
    d.set_compositing(true);
    d.flush();
    assert_paints_agree(&mut d, "mapped");
    let fb = d.framebuffer();
    assert_eq!(fb.get(26, 28), 0x000000, "C's border, inside A");
    assert_eq!(fb.get(29, 29), 0xff0000, "C's content, inside A");
    assert_eq!(fb.get(47, 40), 0xbebebe, "root: C is clipped to A");
    d.unmap_window(a);
    d.flush();
    assert_paints_agree(&mut d, "unmapped");
    assert_eq!(d.framebuffer().get(26, 28), 0xbebebe, "root background");
}

/// Raising a window brings its whole subtree to the top, clipped to
/// the window: past its edge the sibling it was raised over still
/// shows.
#[test]
fn raise_lifts_the_subtree_clipped_to_the_window() {
    let mut d = Display::open(":0");
    let a = d.create_window(d.root(), attrs(10, 10, 20, 20, 1, 0xffffff));
    let c = d.create_window(a, attrs(15, 15, 20, 20, 1, 0xff0000));
    let above = d.create_window(d.root(), attrs(28, 28, 20, 20, 0, 0x0000ff));
    for w in [a, c, above] {
        d.map_window(w);
    }
    d.set_compositing(true);
    d.flush();
    assert_eq!(d.framebuffer().get(29, 29), 0x0000ff, "covered");
    assert_eq!(d.framebuffer().get(40, 40), 0x0000ff, "covered");
    d.raise_window(a);
    d.flush();
    assert_paints_agree(&mut d, "raised");
    let fb = d.framebuffer();
    assert_eq!(fb.get(29, 29), 0xff0000, "C's content on top");
    assert_eq!(fb.get(31, 29), 0x000000, "A's border on top");
    assert_eq!(fb.get(40, 40), 0x0000ff, "C does not escape A");
}

/// A child with a 3-px border straddles its parent's right edge: the
/// parent's border and the sibling beside it show past the parent's
/// content, never the child.
#[test]
fn a_straddling_child_border_is_clipped_to_its_parent() {
    let mut d = Display::open(":0");
    let p = d.create_window(d.root(), attrs(10, 10, 40, 40, 2, 0xffffff));
    let beside = d.create_window(d.root(), attrs(54, 0, 30, 60, 0, 0x0000ff));
    let c = d.create_window(p, attrs(30, 10, 20, 10, 3, 0xff0000));
    d.set_window_attrs(p, None, Some(0xffd700), None);
    for w in [p, beside, c] {
        d.map_window(w);
    }
    d.set_compositing(true);
    d.flush();
    // P's content is (12,12)..=(51,51), its border reaches x=53. C's
    // outer rect is (42,22)..=(67,37).
    assert_paints_agree(&mut d, "mapped");
    let check = |d: &mut Display| {
        let fb = d.framebuffer();
        assert_eq!(fb.get(44, 22), 0x000000, "C's border, inside P");
        assert_eq!(fb.get(50, 30), 0xff0000, "C's content, inside P");
        assert_eq!(fb.get(53, 22), 0xffd700, "P's border, not C's");
        assert_eq!(fb.get(60, 22), 0x0000ff, "the sibling, not C's border");
        assert_eq!(fb.get(67, 30), 0x0000ff, "the sibling, not C's border");
    };
    check(&mut d);
    // The same after incremental repaints of the child and the sibling.
    d.set_window_attrs(c, None, Some(0x000000), Some(3));
    d.set_display_list(
        c,
        vec![DrawOp::FillRect {
            rect: Rect::new(-5, -5, 40, 20),
            pixel: 0xff0000,
        }],
    );
    d.set_window_attrs(beside, Some(0x0000fe), None, None);
    d.set_window_attrs(beside, Some(0x0000ff), None, None);
    d.flush();
    assert_paints_agree(&mut d, "repainted");
    check(&mut d);
}

/// Hit-testing in nested, straddling trees under random mutations:
/// every point goes to the window whose pixel the X reference paints
/// there, so a window's border takes clicks and a child takes none
/// where its parent clips it.
#[test]
fn window_at_is_the_reference_owner_in_nested_trees() {
    cases(40, |rng| {
        let mut d = Display::open(":0");
        let mut wins = Vec::new();
        for _ in 0..rng.range(1, 10) {
            let w = random_window(rng, &mut d, &wins);
            wins.push(w);
        }
        for _ in 0..rng.range(0, 6) {
            random_mutation(rng, &mut d, &mut wins);
        }
        for _ in 0..64 {
            let p = Point::new(
                rng.range_i64(-30, 260) as i32,
                rng.range_i64(-30, 200) as i32,
            );
            assert_eq!(d.window_at(p), reference_owner(&d, p), "at {p:?}");
        }
    });
}

/// X's rule for border pixels: a click on a window's 3-px border goes
/// to that window, with a negative window-relative `x`; a click on the
/// parent's border, where a straddling child is clipped, goes to the
/// parent; past the parent it goes to the root, not the child.
#[test]
fn a_border_takes_clicks_and_a_clipped_child_does_not() {
    let mut d = Display::open(":0");
    let p = d.create_window(d.root(), attrs(10, 10, 40, 40, 2, 0xffffff));
    let c = d.create_window(p, attrs(30, 10, 20, 10, 3, 0xff0000));
    for w in [p, c] {
        d.map_window(w);
    }
    // P's content is (12,12)..=(51,51), its border reaches x=53. C's
    // content starts at (45,25); its outer rect is (42,22)..=(67,37).
    let mut press_at = |x, y| {
        while d.next_event().is_some() {}
        d.inject_click(x, y, 1);
        std::iter::from_fn(|| d.next_event())
            .find(|e| e.kind == EventKind::ButtonPress)
            .expect("a press")
    };
    let on_c_border = press_at(43, 30);
    assert_eq!(on_c_border.window, c, "C's left border is C's");
    assert_eq!((on_c_border.x, on_c_border.y), (-2, 5));
    let on_p_border = press_at(53, 30);
    assert_eq!(on_p_border.window, p, "P's border, where C is clipped");
    assert_eq!((on_p_border.x, on_p_border.y), (41, 18));
    let past_p = press_at(60, 30);
    assert_eq!(past_p.window, d.root(), "C does not show past P");
}
