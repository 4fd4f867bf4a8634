//! A reimplementation of the X Toolkit Intrinsics (Xt).
//!
//! Wafe sits directly on the X11R5 Intrinsics; this crate rebuilds the
//! Intrinsics model the paper depends on:
//!
//! * **Widget classes** with flattened resource lists, class methods
//!   (initialize / redisplay / layout / preferred size) and class action
//!   tables ([`widget`]).
//! * **The resource manager**: typed resource values with per-widget
//!   storage and Wafe's memory-accounting discipline ("every time a
//!   string resource, a callback - or other objects larger than one word
//!   - are updated, the old value is freed") ([`resource`], [`memstats`]).
//! * **The Xrm database** with tight/loose bindings, class vs instance
//!   components and precedence — what `mergeResources` and resource
//!   files merge into ([`xrm`]).
//! * **Type converters** from string to every resource type, extensible
//!   exactly like `XtAppAddConverter` ([`converter`]).
//! * **The translation manager**: parsing of translation tables
//!   (`<EnterWindow>: PopupMenu()`), override/augment/replace merging and
//!   event matching ([`translation`]).
//! * **Actions and callback lists**, including the predefined popup
//!   callbacks of the paper's table (none/exclusive/nonexclusive/
//!   popdown/position/positionCursor) ([`action`], [`callback`]).
//! * **The application context** tying widget tree, displays, realize,
//!   geometry management, popups with grab kinds, and the event dispatch
//!   loop together ([`app`]).
//!
//! Application-level code (Tcl scripts in Wafe) is invoked through a
//! host-call queue: actions and callbacks that belong to the embedding
//! are queued as [`app::HostCall`]s, which the Wafe layer drains and
//! hands to its interpreter — the analogue of Xt calling back into C
//! application code.

pub mod action;
pub mod app;
pub mod callback;
pub mod converter;
pub mod dnd;
pub mod memstats;
pub mod resource;
pub mod translation;
pub mod widget;
pub mod xrm;

pub use app::{HostCall, XtApp, XtError};
pub use callback::{CallbackItem, PredefinedCallback};
pub use memstats::MemStats;
pub use resource::{ResType, ResourceSpec, ResourceValue};
pub use translation::{MergeMode, TranslationTable};
pub use widget::{SetValuesNeeds, WidgetClass, WidgetId, WidgetOps};
pub use xrm::XrmDb;
