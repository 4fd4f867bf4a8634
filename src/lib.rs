//! Wafe — an X Toolkit based frontend for application programs in
//! various programming languages — reproduced in Rust.
//!
//! This is the umbrella crate: it re-exports every layer of the
//! reproduction and hosts the `wafe` binary, the runnable examples and
//! the cross-crate integration tests.
//!
//! # Layers
//!
//! | crate | role |
//! |---|---|
//! | [`tcl`] (`wafe-tcl`) | the embeddable Tcl command language |
//! | [`xproto`] (`wafe-xproto`) | the simulated X display server |
//! | [`xt`] (`wafe-xt`) | the X Toolkit Intrinsics |
//! | [`xaw`] (`wafe-xaw`) | the Athena widget set (Xaw3d flavour) |
//! | [`motif`] (`wafe-motif`) | the OSF/Motif subset and XmString |
//! | [`core`] (`wafe-core`) | Wafe itself: the spec-generated command layer |
//! | [`ipc`] (`wafe-ipc`) | the `%`-line protocol, line codec and fault plans |
//! | [`serve`] (`wafe-serve`) | the event loop: frontend mode's supervised backend, and the multi-session server |
//!
//! # Quickstart
//!
//! ```
//! use wafe::core::{Flavor, WafeSession};
//!
//! let mut session = WafeSession::new(Flavor::Athena);
//! session
//!     .eval("command hello topLevel label {Wafe new World} callback {echo Goodbye; quit}")
//!     .unwrap();
//! session.eval("realize").unwrap();
//! assert!(session.app.borrow().lookup("hello").is_some());
//! ```

pub use wafe_core as core;
pub use wafe_ipc as ipc;
pub use wafe_motif as motif;
pub use wafe_serve as serve;
pub use wafe_tcl as tcl;
pub use wafe_xaw as xaw;
pub use wafe_xproto as xproto;
pub use wafe_xt as xt;

/// Clicks the middle of a named widget's window — the synthetic-user
/// helper shared by examples, tests and benchmarks.
pub fn click_widget(session: &mut core::WafeSession, name: &str) -> bool {
    let ok = {
        let mut app = session.app.borrow_mut();
        match app.lookup(name) {
            Some(w) => match app.widget(w).window {
                Some(win) => {
                    let abs = app.displays[0].abs_rect(win);
                    app.displays[0].inject_click(
                        abs.x + (abs.w as i32 / 2).max(1),
                        abs.y + (abs.h as i32 / 2).max(1),
                        1,
                    );
                    true
                }
                None => false,
            },
            None => false,
        }
    };
    if ok {
        session.pump();
    }
    ok
}

/// Types text with the keyboard focused on a named widget.
pub fn type_into_widget(session: &mut core::WafeSession, name: &str, text: &str) -> bool {
    let ok = {
        let mut app = session.app.borrow_mut();
        match app.lookup(name) {
            Some(w) => match app.widget(w).window {
                Some(win) => {
                    app.displays[0].set_input_focus(Some(win));
                    app.displays[0].inject_key_text(text);
                    true
                }
                None => false,
            },
            None => false,
        }
    };
    if ok {
        session.pump();
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_handle_missing_widgets() {
        let mut s = core::WafeSession::new(core::Flavor::Athena);
        assert!(!click_widget(&mut s, "ghost"));
        assert!(!type_into_widget(&mut s, "ghost", "x"));
        // Created but unrealized widgets have no window yet.
        s.eval("label l topLevel").unwrap();
        assert!(!click_widget(&mut s, "l"));
        s.eval("realize").unwrap();
        assert!(click_widget(&mut s, "l"));
    }
}
