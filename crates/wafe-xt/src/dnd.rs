//! An Rdd-style drag-and-drop library.
//!
//! The paper lists the Rdd drag-and-drop library among the Xt-based
//! extensions Wafe picked up easily ("it was easy to extend Wafe with
//! other Xt based widgets, widget sets or libraries such as Xpm or for
//! example a drag and drop library (Rdd)"). This module is that
//! extension: any widget can become a drag *source* (carrying a string
//! value) or a drop *target* (running a host script with the dropped
//! value as the `%v` percent code).
//!
//! Protocol: button 2 pressed on a source picks its value up; button 2
//! released over a target drops it there.

use std::collections::HashMap;

use crate::app::{HostCall, HostCallKind, XtApp};
use crate::translation::{MergeMode, TranslationTable};
use crate::widget::WidgetId;

/// State key holding a source widget's drag value.
const SOURCE_VALUE: &str = "rdd_value";
/// State key holding a target widget's drop script.
const TARGET_SCRIPT: &str = "rdd_script";

/// Installs the Rdd actions into the application's global action table.
/// Idempotent; called by the registration helpers below.
pub fn install(app: &mut XtApp) {
    if app.global_actions.get("RddStartDrag").is_some() {
        return;
    }
    app.add_global_action("RddStartDrag", |app, w, _event, _args| {
        let value = app.state(w, SOURCE_VALUE);
        app.dnd_payload = if value.is_empty() { None } else { Some(value) };
    });
    app.add_global_action("RddDrop", |app, w, _event, _args| {
        let payload = match app.dnd_payload.take() {
            Some(p) => p,
            None => return,
        };
        let script = app.state(w, TARGET_SCRIPT);
        if script.is_empty() {
            return;
        }
        let mut data = HashMap::new();
        data.insert('v', payload);
        let widget_name = app.widget(w).name.clone();
        app.queue_host_call(HostCall {
            widget: w,
            widget_name,
            script,
            event: None,
            data,
            kind: HostCallKind::Callback("rddDrop".into()),
        });
    });
}

/// Makes a widget a drag source carrying `value`.
pub fn make_drag_source(app: &mut XtApp, w: WidgetId, value: &str) {
    install(app);
    app.set_state(w, SOURCE_VALUE, value);
    let t = TranslationTable::parse("<Btn2Down>: RddStartDrag()").expect("static translation");
    app.merge_translations(w, t, MergeMode::Augment);
}

/// Makes a widget a drop target running `script` (with `%v`) on drop.
pub fn make_drop_target(app: &mut XtApp, w: WidgetId, script: &str) {
    install(app);
    app.set_state(w, TARGET_SCRIPT, script);
    let t = TranslationTable::parse("<Btn2Up>: RddDrop()").expect("static translation");
    app.merge_translations(w, t, MergeMode::Augment);
}

/// The value currently in flight, if a drag is active.
pub fn current_payload(app: &XtApp) -> Option<&str> {
    app.dnd_payload.as_deref()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::widget::core_class;

    fn app_with_widgets() -> (XtApp, WidgetId, WidgetId) {
        let mut app = XtApp::new();
        app.register_class(core_class("Shell", true, true));
        app.register_class(core_class("Core", false, false));
        let top = app
            .create_widget(
                "top",
                "Shell",
                None,
                0,
                &[
                    ("width".into(), "400".into()),
                    ("height".into(), "300".into()),
                ],
                true,
            )
            .unwrap();
        let src = app
            .create_widget(
                "src",
                "Core",
                Some(top),
                0,
                &[
                    ("width".into(), "50".into()),
                    ("height".into(), "20".into()),
                ],
                true,
            )
            .unwrap();
        let dst = app
            .create_widget(
                "dst",
                "Core",
                Some(top),
                0,
                &[
                    ("x".into(), "100".into()),
                    ("width".into(), "50".into()),
                    ("height".into(), "20".into()),
                ],
                true,
            )
            .unwrap();
        app.realize(top);
        app.dispatch_pending();
        (app, src, dst)
    }

    fn center(app: &XtApp, w: WidgetId) -> (i32, i32) {
        let abs = app.displays[0].abs_rect(app.widget(w).window.unwrap());
        (abs.x + abs.w as i32 / 2, abs.y + abs.h as i32 / 2)
    }

    #[test]
    fn drag_and_drop_delivers_value() {
        let (mut app, src, dst) = app_with_widgets();
        make_drag_source(&mut app, src, "file.txt");
        make_drop_target(&mut app, dst, "echo dropped %v on %w");
        let (sx, sy) = center(&app, src);
        let (dx, dy) = center(&app, dst);
        app.displays[0].inject_pointer_move(sx, sy);
        app.displays[0].inject_button(2, true);
        app.dispatch_pending();
        assert_eq!(current_payload(&app), Some("file.txt"));
        app.displays[0].inject_pointer_move(dx, dy);
        app.displays[0].inject_button(2, false);
        app.dispatch_pending();
        let calls = app.take_host_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].script, "echo dropped %v on %w");
        assert_eq!(
            calls[0].data.get(&'v').map(String::as_str),
            Some("file.txt")
        );
        assert_eq!(calls[0].widget_name, "dst");
        assert_eq!(current_payload(&app), None, "payload consumed by the drop");
    }

    #[test]
    fn drop_without_drag_is_noop() {
        let (mut app, _src, dst) = app_with_widgets();
        make_drop_target(&mut app, dst, "echo dropped %v");
        let (dx, dy) = center(&app, dst);
        app.displays[0].inject_pointer_move(dx, dy);
        app.displays[0].inject_button(2, true);
        app.displays[0].inject_button(2, false);
        app.dispatch_pending();
        assert!(app.take_host_calls().is_empty());
    }

    #[test]
    fn release_outside_target_keeps_quiet_and_next_drag_resets() {
        let (mut app, src, dst) = app_with_widgets();
        make_drag_source(&mut app, src, "first");
        make_drop_target(&mut app, dst, "echo %v");
        let (sx, sy) = center(&app, src);
        app.displays[0].inject_pointer_move(sx, sy);
        app.displays[0].inject_button(2, true);
        // Release over the shell background: no target, nothing fires.
        app.displays[0].inject_pointer_move(sx, sy + 100);
        app.displays[0].inject_button(2, false);
        app.dispatch_pending();
        assert!(app.take_host_calls().is_empty());
        // A new drag replaces the stale payload.
        app.set_state(src, SOURCE_VALUE, "second");
        app.displays[0].inject_pointer_move(sx, sy);
        app.displays[0].inject_button(2, true);
        app.dispatch_pending();
        assert_eq!(current_payload(&app), Some("second"));
    }

    #[test]
    fn install_is_idempotent() {
        let (mut app, src, _) = app_with_widgets();
        install(&mut app);
        install(&mut app);
        make_drag_source(&mut app, src, "v");
        assert!(app.global_actions.get("RddStartDrag").is_some());
        assert!(app.global_actions.get("RddDrop").is_some());
    }
}
