//! Server-side window records.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::color::Pixel;
use crate::framebuffer::DrawOp;
use crate::geometry::Rect;

/// A window resource id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WindowId(pub u64);

/// The display's window table. Ids are sequential integers the display
/// allocates itself (never taken from input, so nobody can craft
/// colliding keys), and one multiply spreads them over the table: the
/// paint walk and hit-tests look up every window they visit, and
/// SipHash would dominate that.
pub(crate) type WindowMap = HashMap<WindowId, Window, BuildHasherDefault<WindowIdHasher>>;

/// Fibonacci hashing of a [`WindowId`]'s integer.
#[derive(Default)]
pub(crate) struct WindowIdHasher(u64);

impl Hasher for WindowIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64((self.0 << 8) | b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A server-side window.
#[derive(Debug, Clone)]
pub struct Window {
    /// This window's id.
    pub id: WindowId,
    /// Parent window (`None` for a root window).
    pub parent: Option<WindowId>,
    /// Children in stacking order, bottom-most first.
    pub children: Vec<WindowId>,
    /// Geometry relative to the parent (border excluded, like X).
    pub rect: Rect,
    /// Border width in pixels.
    pub border_width: u32,
    /// Border colour.
    pub border_pixel: Pixel,
    /// Background colour.
    pub background: Pixel,
    /// True once `map` has been called.
    pub mapped: bool,
    /// True if this window bypasses any window manager (menus).
    pub override_redirect: bool,
    /// The retained display list: what the client drew here last.
    pub display_list: Vec<DrawOp>,
    /// True if destroyed (kept to detect stale ids).
    pub destroyed: bool,
}

impl Window {
    /// Creates an unmapped window.
    pub fn new(id: WindowId, parent: Option<WindowId>, rect: Rect) -> Self {
        Window {
            id,
            parent,
            children: Vec::new(),
            rect,
            border_width: 0,
            border_pixel: crate::color::BLACK,
            background: crate::color::WHITE,
            mapped: false,
            override_redirect: false,
            display_list: Vec::new(),
            destroyed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_window_is_unmapped() {
        let w = Window::new(WindowId(5), Some(WindowId(1)), Rect::new(0, 0, 10, 10));
        assert!(!w.mapped);
        assert!(!w.destroyed);
        assert!(w.children.is_empty());
        assert_eq!(w.parent, Some(WindowId(1)));
    }
}
