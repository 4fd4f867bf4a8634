//! The display: window tree, event queue, injection, grabs, selections.

use std::collections::{HashMap, VecDeque};

use crate::color::{Pixel, WHITE};
use crate::damage::{Damage, DamageTracker};
use crate::event::{Event, EventKind, Modifiers};
use crate::font::FontDb;
use crate::framebuffer::{AsciiCanvas, DrawOp, Framebuffer};
use crate::geometry::{Point, Rect};
use crate::keysym::{key_for_char, key_for_name, KeyInfo};
use crate::window::{Window, WindowId};

/// An interned atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Atom(pub u32);

/// Grab kinds, matching `XtGrabKind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrabKind {
    /// No grab: events flow normally (`XtGrabNone`).
    None,
    /// Events are confined to the grab subtree (`XtGrabExclusive`).
    Exclusive,
    /// Spring-loaded addition to the grab list (`XtGrabNonexclusive`).
    Nonexclusive,
}

/// Creation-time attributes for a window.
#[derive(Debug, Clone)]
pub struct WindowAttributes {
    /// Geometry relative to the parent.
    pub rect: Rect,
    /// Border width in pixels.
    pub border_width: u32,
    /// Background fill.
    pub background: Pixel,
    /// True to bypass window management (menus, override shells).
    pub override_redirect: bool,
}

impl Default for WindowAttributes {
    fn default() -> Self {
        WindowAttributes {
            rect: Rect::new(0, 0, 100, 100),
            border_width: 1,
            background: WHITE,
            override_redirect: false,
        }
    }
}

/// A simulated X display (one screen, TrueColor).
pub struct Display {
    /// The display name it was opened with (e.g. `:0`, `dec4:0`).
    pub name: String,
    windows: HashMap<WindowId, Window>,
    root: WindowId,
    next_id: u64,
    queue: VecDeque<Event>,
    serial: u64,
    pointer: Point,
    pointer_window: WindowId,
    focus: Option<WindowId>,
    grabs: Vec<(WindowId, GrabKind)>,
    /// The font database for this display.
    pub fonts: FontDb,
    atoms: Vec<String>,
    selections: HashMap<Atom, (WindowId, String)>,
    framebuffer: Framebuffer,
    blocked_events: u64,
    held_modifiers: Modifiers,
    /// Damage pending since the last flush: every visible mutation
    /// records a rectangle here; [`Self::flush`] takes and repaints it.
    damage: DamageTracker,
    /// Flushed damage not yet shipped to an attached display client —
    /// frames coalesce here when the outbound queue is busy.
    pending_frame: DamageTracker,
    /// A remote display client is attached: flushes composite into the
    /// persistent framebuffer and accumulate frame damage.
    compositing: bool,
    /// Monotonic sequence number of shipped display frames.
    frame_seq: u64,
}

/// Default screen size.
pub const SCREEN_W: u32 = 1024;
/// Default screen height.
pub const SCREEN_H: u32 = 768;

impl Display {
    /// Opens a display with an empty root window.
    pub fn open(name: &str) -> Self {
        let root = WindowId(1);
        let mut windows = HashMap::new();
        let mut root_win = Window::new(root, None, Rect::new(0, 0, SCREEN_W, SCREEN_H));
        root_win.mapped = true;
        root_win.background = 0xbebebe; // Root weave grey.
        windows.insert(root, root_win);
        Display {
            name: name.to_string(),
            windows,
            root,
            next_id: 2,
            queue: VecDeque::new(),
            serial: 0,
            pointer: Point::new(0, 0),
            pointer_window: root,
            focus: None,
            grabs: Vec::new(),
            fonts: FontDb::new(),
            atoms: Vec::new(),
            selections: HashMap::new(),
            // Materialized only when pixels are actually needed (a
            // display client attaches, or `framebuffer()` is read):
            // headless sessions (wafe-serve runs thousands) never
            // composite, and the 1024x768 pixel buffer is ~3 MB per
            // display. A headless flush only moves damage rectangles.
            framebuffer: Framebuffer::new(0, 0, 0xbebebe),
            blocked_events: 0,
            held_modifiers: Modifiers::NONE,
            damage: {
                let mut d = DamageTracker::new(SCREEN_W, SCREEN_H);
                d.add_full();
                d
            },
            pending_frame: DamageTracker::new(SCREEN_W, SCREEN_H),
            compositing: false,
            frame_seq: 0,
        }
    }

    /// The root window.
    pub fn root(&self) -> WindowId {
        self.root
    }

    /// Number of live (non-destroyed) windows, including the root.
    pub fn window_count(&self) -> usize {
        self.windows.values().filter(|w| !w.destroyed).count()
    }

    /// Events dropped because an exclusive grab confined input.
    pub fn blocked_event_count(&self) -> u64 {
        self.blocked_events
    }

    // ----- window management -------------------------------------------

    /// Creates a window.
    pub fn create_window(&mut self, parent: WindowId, attrs: WindowAttributes) -> WindowId {
        let id = WindowId(self.next_id);
        self.next_id += 1;
        let mut w = Window::new(id, Some(parent), attrs.rect);
        w.border_width = attrs.border_width;
        w.background = attrs.background;
        w.override_redirect = attrs.override_redirect;
        self.windows.insert(id, w);
        if let Some(p) = self.windows.get_mut(&parent) {
            p.children.push(id);
        }
        id
    }

    /// Records the on-screen footprint of a window (content plus
    /// border) as damaged, if it is currently visible.
    fn damage_window(&mut self, id: WindowId) {
        let border = match self.windows.get(&id) {
            Some(w) if !w.destroyed => w.border_width,
            _ => return,
        };
        if !self.is_viewable(id) {
            return;
        }
        let r = self.abs_rect(id).inflated(border);
        self.damage.add(r);
    }

    /// Destroys a window and its subtree, generating `DestroyNotify` for
    /// each, depth-first.
    pub fn destroy_window(&mut self, id: WindowId) {
        if id == self.root {
            return;
        }
        self.damage_window(id);
        let children = match self.windows.get(&id) {
            Some(w) if !w.destroyed => w.children.clone(),
            _ => return,
        };
        for c in children {
            self.destroy_window(c);
        }
        if let Some(w) = self.windows.get_mut(&id) {
            w.destroyed = true;
            w.mapped = false;
            let parent = w.parent;
            if let Some(p) = parent.and_then(|p| self.windows.get_mut(&p)) {
                p.children.retain(|&c| c != id);
            }
        }
        self.grabs.retain(|(g, _)| *g != id);
        if self.focus == Some(id) {
            self.focus = None;
        }
        self.push(Event::new(EventKind::DestroyNotify, id));
    }

    /// Maps a window, generating `MapNotify` and an `Expose`.
    pub fn map_window(&mut self, id: WindowId) {
        let ok = matches!(self.windows.get(&id), Some(w) if !w.destroyed && !w.mapped);
        if !ok {
            return;
        }
        self.windows.get_mut(&id).unwrap().mapped = true;
        self.damage_window(id);
        self.push(Event::new(EventKind::MapNotify, id));
        self.expose(id);
        self.update_pointer_window();
    }

    /// Unmaps a window, generating `UnmapNotify`.
    pub fn unmap_window(&mut self, id: WindowId) {
        let ok = matches!(self.windows.get(&id), Some(w) if w.mapped);
        if !ok {
            return;
        }
        self.damage_window(id);
        self.windows.get_mut(&id).unwrap().mapped = false;
        self.push(Event::new(EventKind::UnmapNotify, id));
        self.update_pointer_window();
    }

    /// True if a window is mapped (and every ancestor is, making it
    /// viewable).
    pub fn is_viewable(&self, id: WindowId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            match self.windows.get(&c) {
                Some(w) if w.mapped && !w.destroyed => cur = w.parent,
                _ => return false,
            }
        }
        true
    }

    /// Moves/resizes a window, generating `ConfigureNotify` (and an
    /// `Expose` when the size changed).
    pub fn configure_window(&mut self, id: WindowId, rect: Rect) {
        let changed = match self.windows.get(&id) {
            Some(w) if !w.destroyed => w.rect != rect,
            _ => return,
        };
        if changed {
            self.damage_window(id); // Old footprint: parent must repaint it.
        }
        let resized = match self.windows.get_mut(&id) {
            Some(w) => {
                let resized = w.rect.w != rect.w || w.rect.h != rect.h;
                w.rect = rect;
                resized
            }
            None => return,
        };
        if changed {
            self.damage_window(id); // New footprint.
            let mut e = Event::new(EventKind::ConfigureNotify, id);
            e.x = rect.x;
            e.y = rect.y;
            self.push(e);
            if resized && self.is_viewable(id) {
                self.expose(id);
            }
            self.update_pointer_window();
        }
    }

    /// Reads back a window's geometry.
    pub fn window_rect(&self, id: WindowId) -> Option<Rect> {
        self.windows
            .get(&id)
            .filter(|w| !w.destroyed)
            .map(|w| w.rect)
    }

    /// The server-side record of a live window: geometry, attributes,
    /// mapping and the retained display list.
    pub fn window(&self, id: WindowId) -> Option<&Window> {
        self.windows.get(&id).filter(|w| !w.destroyed)
    }

    /// Window border width.
    pub fn border_width(&self, id: WindowId) -> u32 {
        self.windows.get(&id).map(|w| w.border_width).unwrap_or(0)
    }

    /// Sets background/border attributes.
    pub fn set_window_attrs(
        &mut self,
        id: WindowId,
        background: Option<Pixel>,
        border_pixel: Option<Pixel>,
        border_width: Option<u32>,
    ) {
        // Damage only on a real change: the toolkit re-syncs attributes
        // for whole subtrees after a layout pass, and an unchanged
        // window must not dirty the screen.
        let changed = match self.windows.get(&id) {
            Some(w) => {
                background.is_some_and(|b| b != w.background)
                    || border_pixel.is_some_and(|b| b != w.border_pixel)
                    || border_width.is_some_and(|b| b != w.border_width)
            }
            None => false,
        };
        if !changed {
            return;
        }
        self.damage_window(id); // Old footprint (border width may shrink).
        if let Some(w) = self.windows.get_mut(&id) {
            if let Some(b) = background {
                w.background = b;
            }
            if let Some(b) = border_pixel {
                w.border_pixel = b;
            }
            if let Some(b) = border_width {
                w.border_width = b;
            }
        }
        self.damage_window(id);
    }

    /// Raises a window to the top of its siblings' stacking order.
    pub fn raise_window(&mut self, id: WindowId) {
        self.damage_window(id);
        let parent = match self.windows.get(&id) {
            Some(w) => w.parent,
            None => return,
        };
        if let Some(p) = parent.and_then(|p| self.windows.get_mut(&p)) {
            p.children.retain(|&c| c != id);
            p.children.push(id);
        }
    }

    /// The absolute (root-relative) position of a window's origin.
    pub fn abs_position(&self, id: WindowId) -> Point {
        let mut p = Point::new(0, 0);
        let mut cur = Some(id);
        while let Some(c) = cur {
            match self.windows.get(&c) {
                Some(w) => {
                    p = p.offset(
                        w.rect.x + w.border_width as i32,
                        w.rect.y + w.border_width as i32,
                    );
                    cur = w.parent;
                }
                None => break,
            }
        }
        p
    }

    /// The absolute rectangle of a window.
    pub fn abs_rect(&self, id: WindowId) -> Rect {
        let p = self.abs_position(id);
        let r = self.window_rect(id).unwrap_or_default();
        Rect::new(p.x, p.y, r.w, r.h)
    }

    /// The deepest viewable window containing the root-relative point.
    pub fn window_at(&self, p: Point) -> WindowId {
        self.descend(self.root, p)
    }

    fn descend(&self, win: WindowId, p: Point) -> WindowId {
        let w = &self.windows[&win];
        // Children are stored bottom-most first; hit-test topmost first.
        for &c in w.children.iter().rev() {
            match self.windows.get(&c) {
                Some(cw) if cw.mapped && !cw.destroyed => {}
                _ => continue,
            }
            let abs = self.abs_rect(c);
            if abs.contains(p) {
                return self.descend(c, p);
            }
        }
        win
    }

    // ----- drawing ------------------------------------------------------

    /// Replaces a window's retained display list. Damages the window
    /// only when the list actually changed — redisplay passes rebuild
    /// whole subtrees, and identical output must not dirty the screen.
    pub fn set_display_list(&mut self, id: WindowId, ops: Vec<DrawOp>) {
        if let Some(w) = self.windows.get_mut(&id) {
            if w.display_list == ops {
                return;
            }
            w.display_list = ops;
        }
        self.damage_window(id);
    }

    /// Generates `Expose` for a window and its viewable descendants.
    pub fn expose(&mut self, id: WindowId) {
        if !self.is_viewable(id) {
            return;
        }
        let rect = self.window_rect(id).unwrap_or_default();
        let mut e = Event::new(EventKind::Expose, id);
        e.x = 0;
        e.y = 0;
        e.x_root = rect.w as i32; // Expose carries width/height in x_root/y_root slots.
        e.y_root = rect.h as i32;
        self.push(e);
        let children = self.windows[&id].children.clone();
        for c in children {
            self.expose(c);
        }
    }

    /// Composites pending damage into the framebuffer. Damage tracked
    /// twice over: a no-op when nothing changed since the last flush,
    /// and only the damaged regions are repainted when something did.
    /// A headless display (no client attached, pixels never read) only
    /// moves damage rectangles here — the pixel buffer stays
    /// unallocated.
    pub fn flush(&mut self) {
        if !self.damage.is_dirty() {
            return;
        }
        let damage = self.damage.take();
        if self.compositing || !self.framebuffer.is_empty() {
            self.repaint(&damage);
        }
        // Whatever changed on screen is owed to an attached client.
        self.pending_frame.merge(&damage);
    }

    /// Repaints the damaged regions into the persistent framebuffer,
    /// materializing it (with a full paint) on first use. `paint`
    /// starts at the root, whose background covers every clip, so a
    /// damaged region needs no separate clear.
    fn repaint(&mut self, damage: &Damage) {
        let mut fb = std::mem::replace(&mut self.framebuffer, Framebuffer::new(0, 0, 0));
        let first = fb.is_empty();
        if first {
            fb = Framebuffer::new(SCREEN_W, SCREEN_H, 0xbebebe);
        }
        if first || damage.full {
            self.paint(self.root, Rect::new(0, 0, SCREEN_W, SCREEN_H), &mut fb);
        } else {
            for r in &damage.rects {
                self.paint(self.root, *r, &mut fb);
            }
        }
        self.framebuffer = fb;
    }

    fn paint(&self, id: WindowId, clip: Rect, fb: &mut Framebuffer) {
        let w = &self.windows[&id];
        if !w.mapped || w.destroyed {
            return;
        }
        let abs = self.abs_rect(id);
        let clip = match abs.intersect(&clip) {
            Some(c) => c,
            None => return,
        };
        if w.border_width > 0 {
            let b = w.border_width as i32;
            let border = Rect::new(
                abs.x - b,
                abs.y - b,
                abs.w + 2 * w.border_width,
                abs.h + 2 * w.border_width,
            );
            fb.draw_rect(border, border, w.border_pixel);
        }
        fb.fill_rect(abs, clip, w.background);
        for op in &w.display_list {
            match op {
                DrawOp::FillRect { rect, pixel } => {
                    fb.fill_rect(rect.translated(abs.x, abs.y), clip, *pixel);
                }
                DrawOp::DrawRect { rect, pixel } => {
                    fb.draw_rect(rect.translated(abs.x, abs.y), clip, *pixel);
                }
                DrawOp::DrawLine {
                    x1,
                    y1,
                    x2,
                    y2,
                    pixel,
                } => {
                    fb.draw_line(abs.x + x1, abs.y + y1, abs.x + x2, abs.y + y2, clip, *pixel);
                }
                DrawOp::DrawText {
                    x,
                    y,
                    text,
                    pixel,
                    font,
                } => {
                    let f = self.fonts.get(*font);
                    fb.draw_text_blocks(abs.x + x, abs.y + y, text, clip, *pixel, f.char_width);
                }
                DrawOp::PutImage {
                    x,
                    y,
                    w: iw,
                    h: ih,
                    data,
                } => {
                    fb.put_image(abs.x + x, abs.y + y, *iw, *ih, data, clip);
                }
            }
        }
        for &c in &w.children.clone() {
            self.paint(c, clip, fb);
        }
    }

    /// Access to the composited framebuffer (call [`Self::flush`]
    /// first). Reading the pixels materializes the buffer on first use;
    /// until then a display is pure bookkeeping.
    pub fn framebuffer(&mut self) -> &Framebuffer {
        if self.framebuffer.is_empty() {
            self.repaint(&Damage::full());
        }
        &self.framebuffer
    }

    // ----- remote display (frame damage) --------------------------------

    /// Turns compositing on or off. While on, every flush repaints the
    /// persistent framebuffer and accumulates frame damage for an
    /// attached remote client; turning it on schedules a full repaint
    /// so the client's first frame covers the whole screen.
    pub fn set_compositing(&mut self, on: bool) {
        self.compositing = on;
        if on {
            self.damage.add_full();
            self.pending_frame = DamageTracker::new(SCREEN_W, SCREEN_H);
        }
    }

    /// Whether a remote display client is compositing this display.
    pub fn compositing(&self) -> bool {
        self.compositing
    }

    /// Whether the pixel buffer has been allocated.
    pub fn is_materialized(&self) -> bool {
        !self.framebuffer.is_empty()
    }

    /// Whether flushed damage is waiting to be shipped as a frame.
    pub fn has_pending_frame(&self) -> bool {
        self.pending_frame.is_dirty()
    }

    /// Takes the accumulated frame damage for encoding.
    pub fn take_frame_damage(&mut self) -> Damage {
        self.pending_frame.take()
    }

    /// Requests that the next shipped frame cover the whole screen —
    /// the client-side resync path after a rejected frame.
    pub fn request_full_frame(&mut self) {
        self.damage.add_full();
    }

    /// Sequence number of the last allocated display frame.
    pub fn frame_seq(&self) -> u64 {
        self.frame_seq
    }

    /// Allocates the next frame sequence number.
    pub fn next_frame_seq(&mut self) -> u64 {
        self.frame_seq += 1;
        self.frame_seq
    }

    /// The damage state a session snapshot carries: `(frame_seq,
    /// compositing, pending-full flag, pending rects)`. Un-flushed
    /// damage is flushed into the pending frame first so nothing is
    /// lost across a park.
    pub fn damage_state(&mut self) -> (u64, bool, bool, Vec<Rect>) {
        self.flush();
        (
            self.frame_seq,
            self.compositing,
            self.pending_frame.is_full(),
            self.pending_frame.rects().to_vec(),
        )
    }

    /// Restores the state captured by [`Self::damage_state`].
    pub fn restore_damage_state(
        &mut self,
        seq: u64,
        compositing: bool,
        full: bool,
        rects: &[Rect],
    ) {
        self.frame_seq = seq;
        self.compositing = compositing;
        self.pending_frame = DamageTracker::new(SCREEN_W, SCREEN_H);
        if full {
            self.pending_frame.add_full();
        }
        for r in rects {
            self.pending_frame.add(*r);
        }
    }

    /// Renders an ASCII screenshot of the viewable window tree — the
    /// reproduction's stand-in for the paper's figures. Two passes:
    /// window boxes first, then all text, so borders never overwrite
    /// labels.
    pub fn snapshot_ascii(&self, area: Rect) -> String {
        let mut canvas = AsciiCanvas::new(area.w, area.h);
        self.snap(self.root, area, &mut canvas, false);
        self.snap(self.root, area, &mut canvas, true);
        canvas.render()
    }

    fn snap(&self, id: WindowId, area: Rect, canvas: &mut AsciiCanvas, text_pass: bool) {
        let w = &self.windows[&id];
        if !w.mapped || w.destroyed {
            return;
        }
        let abs = self.abs_rect(id);
        if !text_pass && id != self.root && w.border_width > 0 {
            canvas.box_at_pixel(abs.translated(-area.x, -area.y));
        }
        if text_pass {
            for op in &w.display_list {
                if let DrawOp::DrawText {
                    x, y, text, font, ..
                } = op
                {
                    let f = self.fonts.get(*font);
                    canvas.text_at_pixel(
                        abs.x + x - area.x,
                        abs.y + y - f.ascent as i32 / 2 - area.y,
                        text,
                    );
                }
            }
        }
        for &c in &w.children {
            self.snap(c, area, canvas, text_pass);
        }
    }

    // ----- event queue and injection -------------------------------------

    fn push(&mut self, mut e: Event) {
        self.serial += 1;
        e.serial = self.serial;
        self.queue.push_back(e);
    }

    /// Takes the next queued event.
    pub fn next_event(&mut self) -> Option<Event> {
        self.queue.pop_front()
    }

    /// Number of queued events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Current pointer position (root-relative).
    pub fn pointer(&self) -> Point {
        self.pointer
    }

    /// Assigns keyboard focus.
    pub fn set_input_focus(&mut self, id: Option<WindowId>) {
        self.focus = id;
    }

    fn update_pointer_window(&mut self) {
        let now = self.window_at(self.pointer);
        let was = self.pointer_window;
        if now != was {
            // Leave the old, enter the new (no virtual crossing chain —
            // sufficient for the toolkit's translation matching).
            if self.windows.contains_key(&was) {
                let abs = self.abs_rect(was);
                let mut e = Event::new(EventKind::LeaveNotify, was);
                e.x = self.pointer.x - abs.x;
                e.y = self.pointer.y - abs.y;
                e.x_root = self.pointer.x;
                e.y_root = self.pointer.y;
                e.modifiers = self.held_modifiers;
                self.deliver(e);
            }
            self.pointer_window = now;
            let abs = self.abs_rect(now);
            let mut e = Event::new(EventKind::EnterNotify, now);
            e.x = self.pointer.x - abs.x;
            e.y = self.pointer.y - abs.y;
            e.x_root = self.pointer.x;
            e.y_root = self.pointer.y;
            e.modifiers = self.held_modifiers;
            self.deliver(e);
        }
    }

    /// Moves the pointer, generating Enter/Leave (and Motion on the
    /// target window).
    pub fn inject_pointer_move(&mut self, x: i32, y: i32) {
        self.pointer = Point::new(x, y);
        self.update_pointer_window();
        let target = self.pointer_window;
        let abs = self.abs_rect(target);
        let mut e = Event::new(EventKind::MotionNotify, target);
        e.x = x - abs.x;
        e.y = y - abs.y;
        e.x_root = x;
        e.y_root = y;
        e.modifiers = self.held_modifiers;
        self.deliver(e);
    }

    /// Presses or releases a pointer button at the current position.
    pub fn inject_button(&mut self, button: u8, press: bool) {
        let target = self.pointer_window;
        let abs = self.abs_rect(target);
        let mut e = Event::new(
            if press {
                EventKind::ButtonPress
            } else {
                EventKind::ButtonRelease
            },
            target,
        );
        e.button = button;
        e.x = self.pointer.x - abs.x;
        e.y = self.pointer.y - abs.y;
        e.x_root = self.pointer.x;
        e.y_root = self.pointer.y;
        e.modifiers = self.held_modifiers;
        self.deliver(e);
    }

    /// Convenience: move the pointer and click (press + release).
    pub fn inject_click(&mut self, x: i32, y: i32, button: u8) {
        self.inject_pointer_move(x, y);
        self.inject_button(button, true);
        self.inject_button(button, false);
    }

    fn key_event(&mut self, info: &KeyInfo, press: bool) {
        let target = self.focus.unwrap_or(self.pointer_window);
        let abs = self.abs_rect(target);
        let mut e = Event::new(
            if press {
                EventKind::KeyPress
            } else {
                EventKind::KeyRelease
            },
            target,
        );
        e.keycode = info.keycode;
        e.keysym = info.keysym.clone();
        e.ascii = info.ascii.clone();
        e.x = self.pointer.x - abs.x;
        e.y = self.pointer.y - abs.y;
        e.x_root = self.pointer.x;
        e.y_root = self.pointer.y;
        e.modifiers = self.held_modifiers;
        self.deliver(e);
    }

    /// Types a string: every character becomes its key press/release
    /// sequence, with `Shift_L` wrapped around shifted symbols — typing
    /// `w!` reproduces the paper's `w`, `Shift_L`, `exclam` sequence.
    pub fn inject_key_text(&mut self, text: &str) {
        for c in text.chars() {
            let info = match key_for_char(c) {
                Some(i) => i,
                None => continue,
            };
            if info.shifted {
                let shift = key_for_name("Shift_L").unwrap();
                self.held_modifiers.shift = false;
                self.key_event(&shift, true);
                self.held_modifiers.shift = true;
                self.key_event(&info, true);
                self.key_event(&info, false);
                self.held_modifiers.shift = false;
                self.key_event(&shift, false);
            } else {
                self.key_event(&info, true);
                self.key_event(&info, false);
            }
        }
    }

    /// Presses (and releases) a named key, e.g. `Return`.
    pub fn inject_key_named(&mut self, name: &str, modifiers: Modifiers) {
        if let Some(info) = key_for_name(name) {
            let saved = self.held_modifiers;
            self.held_modifiers = modifiers;
            self.key_event(&info, true);
            self.key_event(&info, false);
            self.held_modifiers = saved;
        }
    }

    fn deliver(&mut self, e: Event) {
        if self.grab_allows(e.window) {
            self.push(e);
        } else {
            self.blocked_events += 1;
        }
    }

    fn grab_allows(&self, target: WindowId) -> bool {
        // Find the most recent exclusive grab; targets must descend from
        // it or from a later (spring-loaded) grab entry.
        let last_exclusive = self
            .grabs
            .iter()
            .rposition(|(_, k)| *k == GrabKind::Exclusive);
        let start = match last_exclusive {
            Some(i) => i,
            None => return true, // Only nonexclusive (or no) grabs: all events flow.
        };
        self.grabs[start..]
            .iter()
            .any(|(g, _)| self.is_ancestor_or_self(*g, target))
    }

    fn is_ancestor_or_self(&self, anc: WindowId, mut w: WindowId) -> bool {
        loop {
            if w == anc {
                return true;
            }
            match self.windows.get(&w).and_then(|x| x.parent) {
                Some(p) => w = p,
                None => return false,
            }
        }
    }

    // ----- grabs ----------------------------------------------------------

    /// Adds a window to the grab list (`XtAddGrab`).
    pub fn add_grab(&mut self, id: WindowId, kind: GrabKind) {
        if kind != GrabKind::None {
            self.grabs.push((id, kind));
        }
    }

    /// Removes a window (and everything stacked above it) from the grab
    /// list (`XtRemoveGrab`).
    pub fn remove_grab(&mut self, id: WindowId) {
        if let Some(pos) = self.grabs.iter().position(|(g, _)| *g == id) {
            self.grabs.truncate(pos);
        }
    }

    /// Current grab stack depth.
    pub fn grab_depth(&self) -> usize {
        self.grabs.len()
    }

    // ----- atoms and selections --------------------------------------------

    /// Interns an atom by name.
    pub fn intern_atom(&mut self, name: &str) -> Atom {
        if let Some(i) = self.atoms.iter().position(|a| a == name) {
            return Atom(i as u32);
        }
        self.atoms.push(name.to_string());
        Atom((self.atoms.len() - 1) as u32)
    }

    /// Name of an interned atom.
    pub fn atom_name(&self, atom: Atom) -> Option<&str> {
        self.atoms.get(atom.0 as usize).map(String::as_str)
    }

    /// Takes ownership of a selection with its current value.
    pub fn own_selection(&mut self, atom: Atom, owner: WindowId, value: String) {
        self.selections.insert(atom, (owner, value));
    }

    /// Reads a selection's value.
    pub fn get_selection(&self, atom: Atom) -> Option<&str> {
        self.selections.get(&atom).map(|(_, v)| v.as_str())
    }

    /// Clears a selection if owned by `owner`.
    pub fn clear_selection(&mut self, atom: Atom, owner: WindowId) {
        if self.selections.get(&atom).map(|(o, _)| *o) == Some(owner) {
            self.selections.remove(&atom);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Display, WindowId, WindowId) {
        let mut d = Display::open(":0");
        let top = d.create_window(
            d.root(),
            WindowAttributes {
                rect: Rect::new(100, 100, 200, 150),
                ..Default::default()
            },
        );
        let child = d.create_window(
            top,
            WindowAttributes {
                rect: Rect::new(10, 10, 50, 20),
                ..Default::default()
            },
        );
        d.map_window(top);
        d.map_window(child);
        while d.next_event().is_some() {}
        (d, top, child)
    }

    #[test]
    fn create_map_generates_events() {
        let mut d = Display::open(":0");
        let w = d.create_window(d.root(), WindowAttributes::default());
        d.map_window(w);
        let e1 = d.next_event().unwrap();
        assert_eq!(e1.kind, EventKind::MapNotify);
        let e2 = d.next_event().unwrap();
        assert_eq!(e2.kind, EventKind::Expose);
        assert_eq!(e2.window, w);
    }

    #[test]
    fn child_not_viewable_until_parent_mapped() {
        let mut d = Display::open(":0");
        let p = d.create_window(d.root(), WindowAttributes::default());
        let c = d.create_window(p, WindowAttributes::default());
        d.map_window(c);
        assert!(!d.is_viewable(c));
        d.map_window(p);
        assert!(d.is_viewable(c));
    }

    #[test]
    fn window_at_finds_deepest() {
        let (d, top, child) = setup();
        // Child occupies (111..161, 111..131) in root coords (borders 1px).
        assert_eq!(d.window_at(Point::new(120, 120)), child);
        assert_eq!(d.window_at(Point::new(250, 200)), top);
        assert_eq!(d.window_at(Point::new(5, 5)), d.root());
    }

    #[test]
    fn click_delivers_relative_coords() {
        let (mut d, _, child) = setup();
        d.inject_click(120, 120, 1);
        let events: Vec<Event> = std::iter::from_fn(|| d.next_event()).collect();
        let press = events
            .iter()
            .find(|e| e.kind == EventKind::ButtonPress)
            .unwrap();
        assert_eq!(press.window, child);
        assert_eq!(press.button, 1);
        assert_eq!(press.x_root, 120);
        assert_eq!(press.y_root, 120);
        // abs position of child = 100+1 (top border) + 10 + 1 (child border) = 112.
        assert_eq!(press.x, 120 - 112);
        assert!(events.iter().any(|e| e.kind == EventKind::ButtonRelease));
    }

    #[test]
    fn pointer_move_generates_enter_leave() {
        let (mut d, top, child) = setup();
        d.inject_pointer_move(120, 120); // into child
        d.inject_pointer_move(250, 200); // into top (out of child)
        let events: Vec<Event> = std::iter::from_fn(|| d.next_event()).collect();
        let enters: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind == EventKind::EnterNotify)
            .collect();
        let leaves: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind == EventKind::LeaveNotify)
            .collect();
        assert!(enters.iter().any(|e| e.window == child));
        assert!(enters.iter().any(|e| e.window == top));
        assert!(leaves.iter().any(|e| e.window == child));
    }

    #[test]
    fn key_text_with_shift_sequence() {
        let (mut d, _, child) = setup();
        d.inject_pointer_move(120, 120);
        while d.next_event().is_some() {}
        d.set_input_focus(Some(child));
        d.inject_key_text("w!");
        let presses: Vec<Event> = std::iter::from_fn(|| d.next_event())
            .filter(|e| e.kind == EventKind::KeyPress)
            .collect();
        let syms: Vec<&str> = presses.iter().map(|e| e.keysym.as_str()).collect();
        assert_eq!(syms, vec!["w", "Shift_L", "exclam"]);
        assert!(presses[2].modifiers.shift);
        assert!(!presses[0].modifiers.shift);
    }

    #[test]
    fn exclusive_grab_blocks_outside_events() {
        let (mut d, _top, _child) = setup();
        let menu = d.create_window(
            d.root(),
            WindowAttributes {
                rect: Rect::new(400, 400, 100, 100),
                ..Default::default()
            },
        );
        d.map_window(menu);
        while d.next_event().is_some() {}
        d.add_grab(menu, GrabKind::Exclusive);
        // Click inside the menu: delivered.
        d.inject_click(450, 450, 1);
        let got: Vec<Event> = std::iter::from_fn(|| d.next_event()).collect();
        assert!(got
            .iter()
            .any(|e| e.kind == EventKind::ButtonPress && e.window == menu));
        // Click outside: blocked.
        let blocked_before = d.blocked_event_count();
        d.inject_click(120, 120, 1);
        assert!(d.blocked_event_count() > blocked_before);
        assert!(d.next_event().into_iter().all(|e| e.window == menu));
        // Remove the grab: events flow again.
        d.remove_grab(menu);
        while d.next_event().is_some() {}
        d.inject_click(120, 120, 1);
        assert!(std::iter::from_fn(|| d.next_event()).any(|e| e.kind == EventKind::ButtonPress));
    }

    #[test]
    fn nonexclusive_grab_allows_all() {
        let (mut d, _top, child) = setup();
        let menu = d.create_window(d.root(), WindowAttributes::default());
        d.map_window(menu);
        while d.next_event().is_some() {}
        d.add_grab(menu, GrabKind::Nonexclusive);
        d.inject_click(120, 120, 1);
        assert!(std::iter::from_fn(|| d.next_event())
            .any(|e| e.kind == EventKind::ButtonPress && e.window == child));
    }

    #[test]
    fn destroy_removes_subtree() {
        let (mut d, top, child) = setup();
        let before = d.window_count();
        d.destroy_window(top);
        assert_eq!(d.window_count(), before - 2);
        assert!(d.window_rect(child).is_none());
        let kinds: Vec<EventKind> = std::iter::from_fn(|| d.next_event())
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == EventKind::DestroyNotify)
                .count(),
            2
        );
    }

    #[test]
    fn configure_generates_events() {
        let (mut d, top, _) = setup();
        d.configure_window(top, Rect::new(100, 100, 300, 150));
        let kinds: Vec<EventKind> = std::iter::from_fn(|| d.next_event())
            .map(|e| e.kind)
            .collect();
        assert!(kinds.contains(&EventKind::ConfigureNotify));
        assert!(kinds.contains(&EventKind::Expose));
        // Same geometry again: no event.
        d.configure_window(top, Rect::new(100, 100, 300, 150));
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn flush_composites_background() {
        let (mut d, top, _) = setup();
        d.set_window_attrs(top, Some(0xff0000), None, None);
        d.flush();
        let fb = d.framebuffer();
        // A pixel inside top (but outside child) is red.
        assert_eq!(fb.get(250, 200), 0xff0000);
        // A pixel outside is root grey.
        assert_eq!(fb.get(5, 5), 0xbebebe);
    }

    #[test]
    fn display_list_text_in_snapshot() {
        let (mut d, top, _) = setup();
        let font = d.fonts.default_font();
        d.set_display_list(
            top,
            vec![DrawOp::DrawText {
                x: 8,
                y: 72,
                text: "hello".into(),
                pixel: 0,
                font,
            }],
        );
        let snap = d.snapshot_ascii(Rect::new(0, 0, 400, 300));
        assert!(snap.contains("hello"), "snapshot was:\n{snap}");
    }

    #[test]
    fn atoms_and_selections() {
        let mut d = Display::open(":0");
        let a = d.intern_atom("PRIMARY");
        let b = d.intern_atom("PRIMARY");
        assert_eq!(a, b);
        assert_eq!(d.atom_name(a), Some("PRIMARY"));
        let w = d.create_window(d.root(), WindowAttributes::default());
        d.own_selection(a, w, "the selection".into());
        assert_eq!(d.get_selection(a), Some("the selection"));
        d.clear_selection(a, w);
        assert_eq!(d.get_selection(a), None);
    }

    #[test]
    fn raise_changes_hit_testing() {
        let mut d = Display::open(":0");
        let a = d.create_window(
            d.root(),
            WindowAttributes {
                rect: Rect::new(0, 0, 100, 100),
                border_width: 0,
                ..Default::default()
            },
        );
        let b = d.create_window(
            d.root(),
            WindowAttributes {
                rect: Rect::new(0, 0, 100, 100),
                border_width: 0,
                ..Default::default()
            },
        );
        d.map_window(a);
        d.map_window(b);
        assert_eq!(d.window_at(Point::new(50, 50)), b);
        d.raise_window(a);
        assert_eq!(d.window_at(Point::new(50, 50)), a);
    }

    #[test]
    fn headless_flush_never_materializes() {
        let (mut d, top, _) = setup();
        d.set_window_attrs(top, Some(0xff0000), None, None);
        d.flush();
        d.configure_window(top, Rect::new(50, 60, 200, 150));
        d.flush();
        assert!(
            !d.is_materialized(),
            "a headless session must not allocate a pixel buffer on flush"
        );
        // Flushed damage still accumulates for a future attach.
        assert!(d.has_pending_frame());
    }

    #[test]
    fn incremental_repaint_matches_full_paint() {
        let (mut d, top, child) = setup();
        d.framebuffer(); // Materialize, full paint of the initial tree.
        d.flush();
        // A series of damaging mutations, each incrementally repainted.
        d.set_window_attrs(top, Some(0xff0000), None, None);
        d.flush();
        d.set_window_attrs(child, Some(0x00ff00), None, None);
        d.flush();
        d.configure_window(child, Rect::new(30, 40, 60, 25));
        d.flush();
        d.unmap_window(child);
        d.flush();
        d.map_window(child);
        d.flush();
        let incremental = d.framebuffer().clone();
        // A fresh display replaying the same end state, painted once.
        let mut fresh = Display::open(":0");
        let top2 = fresh.create_window(
            fresh.root(),
            WindowAttributes {
                rect: Rect::new(100, 100, 200, 150),
                background: 0xff0000,
                ..Default::default()
            },
        );
        let child2 = fresh.create_window(
            top2,
            WindowAttributes {
                rect: Rect::new(30, 40, 60, 25),
                background: 0x00ff00,
                ..Default::default()
            },
        );
        fresh.map_window(top2);
        fresh.map_window(child2);
        fresh.flush();
        let full = fresh.framebuffer();
        for y in 0..SCREEN_H as i32 {
            for x in 0..SCREEN_W as i32 {
                assert_eq!(
                    incremental.get(x, y),
                    full.get(x, y),
                    "pixel ({x},{y}) diverged between incremental and full paint"
                );
            }
        }
    }

    #[test]
    fn frame_damage_accumulates_across_flushes() {
        let (mut d, top, _) = setup();
        d.set_compositing(true);
        d.flush();
        // Attach scheduled a full frame.
        let first = d.take_frame_damage();
        assert!(first.full);
        assert!(!d.has_pending_frame());
        // Two small mutations, two flushes, one coalesced frame.
        d.set_window_attrs(top, Some(0xff0000), None, None);
        d.flush();
        d.configure_window(top, Rect::new(100, 100, 210, 150));
        d.flush();
        let frame = d.take_frame_damage();
        assert!(!frame.is_empty());
        // Footprint of the old geometry (border outer edge at 100,100).
        assert!(frame.covers(&Rect::new(100, 100, 202, 152)));
        // Resync path: a requested full frame arrives on the next flush.
        d.request_full_frame();
        d.flush();
        assert!(d.take_frame_damage().full);
    }

    #[test]
    fn multiple_displays_are_independent() {
        // The paper: `applicationShell top2 dec4:0` maps children onto a
        // second display.
        let mut d1 = Display::open(":0");
        let mut d2 = Display::open("dec4:0");
        let w1 = d1.create_window(d1.root(), WindowAttributes::default());
        let w2 = d2.create_window(d2.root(), WindowAttributes::default());
        d1.map_window(w1);
        assert!(d1.pending() > 0);
        assert_eq!(d2.pending(), 0);
        d2.map_window(w2);
        assert_eq!(d2.name, "dec4:0");
        assert!(d1.is_viewable(w1));
        assert!(d2.is_viewable(w2));
    }
}
