//! Wafe — Widget\[Athena\]FrontEnd — the paper's primary contribution.
//!
//! ```text
//! Wafe = Tcl + (Intrinsics + Widgets + Converters + Ext)
//!            + (Memory Management + Communication)
//! ```
//!
//! This crate is the part the paper itself contributes on top of the
//! substrates: the Tcl command layer over Xt/Xaw/Motif. It provides:
//!
//! * the [`naming`] rules (`XtDestroyWidget` → `destroyWidget`,
//!   `XmCommandAppendValue` → `mCommandAppendValue`),
//! * the [`spec`] language and parser — the code generator that produces
//!   "about 60%" of the command layer from high-level descriptions,
//! * the [`percent`] substitution engine for callback clientData and the
//!   `exec` action's event codes,
//! * command-line [`args`] splitting (`--*` → frontend, X args →
//!   toolkit, rest → application), and
//! * the [`session::WafeSession`], the embeddable frontend with all
//!   commands registered, the automatic `topLevel` shell, virtual-time
//!   timeouts and the host-call pump.
//!
//! Interactive mode, file mode and frontend mode are thin wrappers over
//! the session; frontend-mode process plumbing lives in `wafe-ipc`.

pub mod args;
pub mod commands;
pub mod image;
pub mod naming;
pub mod natives;
pub mod percent;
pub mod session;
pub mod snapshot;
pub mod spec;

pub use args::{split_args, SplitArgs};
pub use image::ToolkitImage;
pub use session::{ControlHandler, Flavor, WafeSession};
pub use snapshot::{RestoreReport, SessionSnapshot, WidgetSnap, FORMAT_VERSION};
