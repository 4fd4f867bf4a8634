//! A simulated X display server.
//!
//! The Wafe paper runs on a real X11R5 server; this machine has none, and
//! the reproduction substitutes a deterministic in-process display server
//! that exercises the same code paths the X Toolkit depends on:
//!
//! * a window tree with mapping, stacking and per-window geometry,
//! * a core event set (button, key, crossing, expose, configure) with a
//!   queue and *synthetic event injection* standing in for the user,
//! * pointer tracking that generates Enter/Leave pairs,
//! * exclusive/nonexclusive grabs with the delivery semantics popup
//!   menus rely on,
//! * the X11 colour-name database and `#rgb` parsing,
//! * synthetic fonts with XLFD-style pattern matching,
//! * XBM and XPM image parsing (the paper ships an Xpm converter),
//! * atoms and selections, and
//! * a real RGB framebuffer per screen plus a per-window display list so
//!   tests can take deterministic ASCII "screenshots" of the figures.
//!
//! Everything is single-threaded and deterministic: injecting the same
//! events always produces the same queue and the same framebuffer.

pub mod color;
pub mod damage;
pub mod display;
pub mod event;
pub mod font;
pub mod font5x7;
pub mod framebuffer;
pub mod geometry;
pub mod keysym;
pub mod pixmap;
pub mod window;

pub use color::{lookup_color, Pixel};
pub use damage::{Damage, DamageTracker, FULL_COVERAGE_PERMILLE, MAX_DAMAGE_RECTS};
pub use display::{Atom, Display, GrabKind, WindowAttributes, SCREEN_H, SCREEN_W};
pub use event::{Event, EventKind, Modifiers};
pub use font::{Font, FontDb, FontId};
pub use framebuffer::{DrawOp, Framebuffer};
pub use geometry::{Point, Rect};
pub use keysym::KeyInfo;
pub use pixmap::{parse_xbm, parse_xpm, Pixmap};
pub use window::WindowId;
