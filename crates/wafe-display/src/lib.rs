//! The wafe remote display protocol.
//!
//! The paper separates the GUI frontend from the application over a
//! textual channel; this crate extends that separation one hop further
//! and puts the *pixels* on the wire too, so a waferd session's
//! simulated X screen can be watched (and driven) by a remote client —
//! in practice the static HTML `<canvas>` page waferd serves.
//!
//! Three pieces:
//!
//! * [`Frame`] — damage rectangles plus raw/RLE pixel batches, built
//!   from the composited [`Framebuffer`](wafe_xproto::Framebuffer) and
//!   the [`Damage`](wafe_xproto::Damage) taken from the display's
//!   tracker. Canonical: the same screen and damage always encode to
//!   the same bytes, and `encode ∘ decode` is the identity.
//! * [`InputEvent`] — key/button/motion/resize/text events posted back
//!   by the client, decoded into the display's injection API.
//! * [`wire`] — the big-endian primitives both share: length-prefixed
//!   strings, an FNV-1a checksum trailer (any bit flip fails loudly),
//!   and the hex transport used to ride the `%`-line channel.
//!
//! Frames travel as `!display frame <hex>` notice lines; events arrive
//! as `%display event <hex>` commands. Versioning is strict: a reader
//! rejects any version it does not speak, and the sender answers a
//! rejected frame with a full-frame resync.

pub mod event;
pub mod frame;
pub mod wire;

pub use event::{
    modifier_mask, modifiers_from_mask, InputEvent, EVENT_MAGIC, MOD_CONTROL, MOD_META, MOD_SHIFT,
};
pub use frame::{Frame, FrameRect, PixelData, FRAME_MAGIC, PROTOCOL_VERSION};
pub use wire::{from_hex, hex_line, to_hex, DecodeError};
