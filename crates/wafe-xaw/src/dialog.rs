//! The Dialog widget: a Form with a label, an optional value field and
//! button children.

use std::rc::Rc;

use wafe_xt::action::ActionTable;
use wafe_xt::resource::{ResType, ResourceSpec, ResourceValue};
use wafe_xt::translation::TranslationTable;
use wafe_xt::widget::{Arrangement, SetValuesNeeds, WidgetClass, WidgetId, WidgetOps};
use wafe_xt::XtApp;

use crate::form::{form_constraints, form_resources, FormOps};

/// Dialog's resources: Form's plus `label` and `value`.
pub fn dialog_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = form_resources();
    v.push(ResourceSpec::new("label", "Label", String, ""));
    v.push(ResourceSpec::new("value", "Value", String, ""));
    v.push(ResourceSpec::new("icon", "Icon", Pixmap, ""));
    v
}

/// Dialog class methods: on initialise, create the internal label (and
/// value text if `value` is non-empty), then lay out like a Form.
pub struct DialogOps;

impl WidgetOps for DialogOps {
    fn initialize(&self, app: &mut XtApp, w: WidgetId) {
        let name = app.widget(w).name.clone();
        let label_text = app.str_resource(w, "label");
        let value_text = app.str_resource(w, "value");
        let label_name = format!("{name}.label");
        let _ = app.create_widget(
            &label_name,
            "Label",
            Some(w),
            0,
            &[
                ("label".to_string(), label_text),
                ("borderWidth".to_string(), "0".to_string()),
            ],
            true,
        );
        if !value_text.is_empty() {
            let value_name = format!("{name}.value");
            let _ = app.create_widget(
                &value_name,
                "AsciiText",
                Some(w),
                0,
                &[
                    ("string".to_string(), value_text),
                    ("editType".to_string(), "edit".to_string()),
                    ("fromVert".to_string(), label_name.clone()),
                    ("width".to_string(), "150".to_string()),
                ],
                true,
            );
        }
    }

    fn arrange(&self, app: &XtApp, w: WidgetId) -> Option<Arrangement> {
        FormOps.arrange(app, w)
    }

    fn set_values(&self, app: &mut XtApp, w: WidgetId, changed: &[String]) -> SetValuesNeeds {
        if changed.iter().any(|c| c == "label") {
            let name = app.widget(w).name.clone();
            let text = app.str_resource(w, "label");
            if let Some(l) = app.lookup(&format!("{name}.label")) {
                app.put_resource(l, "label", ResourceValue::Str(text));
                app.mark_redisplay(l);
            }
        }
        SetValuesNeeds::REDISPLAY
    }
}

/// `XawDialogGetValueString`: the current text of the value field.
pub fn dialog_get_value(app: &XtApp, w: WidgetId) -> String {
    let name = &app.widget(w).name;
    match app.lookup(&format!("{name}.value")) {
        Some(v) => app.str_resource(v, "string"),
        None => String::new(),
    }
}

/// `XawDialogAddButton`: adds a Command button below the value area.
pub fn dialog_add_button(
    app: &mut XtApp,
    dialog: WidgetId,
    name: &str,
    callback: &str,
) -> Result<WidgetId, wafe_xt::XtError> {
    let dname = app.widget(dialog).name.clone();
    let anchor = if app.lookup(&format!("{dname}.value")).is_some() {
        format!("{dname}.value")
    } else {
        format!("{dname}.label")
    };
    let prev_button = app.widget(dialog).children.iter().rev().find_map(|c| {
        let n = app.widget(*c).name.clone();
        if app.widget(*c).class.name == "Command" {
            Some(n)
        } else {
            None
        }
    });
    let mut init = vec![
        ("label".to_string(), name.to_string()),
        ("callback".to_string(), callback.to_string()),
        ("fromVert".to_string(), anchor),
    ];
    if let Some(p) = prev_button {
        init.push(("fromHoriz".to_string(), p));
    }
    app.create_widget(
        &format!("{dname}.{name}"),
        "Command",
        Some(dialog),
        0,
        &init,
        true,
    )
}

/// Registers the Dialog class.
pub fn register(app: &mut XtApp) {
    app.register_class(WidgetClass {
        name: "Dialog".into(),
        resources: dialog_resources(),
        constraint_resources: form_constraints(),
        actions: ActionTable::new(),
        default_translations: TranslationTable::new(),
        ops: Rc::new(DialogOps),
        is_shell: false,
        is_composite: true,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> XtApp {
        let mut a = XtApp::new();
        crate::shell::register(&mut a);
        crate::label::register(&mut a);
        crate::command::register(&mut a);
        crate::text::register(&mut a);
        crate::form::register(&mut a);
        register(&mut a);
        a
    }

    #[test]
    fn dialog_builds_label_and_value() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let d = a
            .create_widget(
                "dlg",
                "Dialog",
                Some(top),
                0,
                &[
                    ("label".into(), "Name:".into()),
                    ("value".into(), "initial".into()),
                ],
                true,
            )
            .unwrap();
        a.realize(top);
        assert!(a.lookup("dlg.label").is_some());
        assert!(a.lookup("dlg.value").is_some());
        assert_eq!(dialog_get_value(&a, d), "initial");
    }

    #[test]
    fn dialog_without_value_has_no_text() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let d = a
            .create_widget(
                "dlg",
                "Dialog",
                Some(top),
                0,
                &[("label".into(), "Msg".into())],
                true,
            )
            .unwrap();
        assert!(a.lookup("dlg.value").is_none());
        assert_eq!(dialog_get_value(&a, d), "");
    }

    #[test]
    fn add_buttons_side_by_side() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let d = a
            .create_widget(
                "dlg",
                "Dialog",
                Some(top),
                0,
                &[("label".into(), "Q?".into())],
                true,
            )
            .unwrap();
        let ok = dialog_add_button(&mut a, d, "ok", "echo ok").unwrap();
        let cancel = dialog_add_button(&mut a, d, "cancel", "echo cancel").unwrap();
        a.realize(top);
        assert_eq!(a.pos_resource(ok, "y"), a.pos_resource(cancel, "y"));
        assert!(a.pos_resource(cancel, "x") > a.pos_resource(ok, "x"));
    }

    #[test]
    fn set_label_updates_child() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let d = a
            .create_widget(
                "dlg",
                "Dialog",
                Some(top),
                0,
                &[("label".into(), "Old".into())],
                true,
            )
            .unwrap();
        a.realize(top);
        a.set_resource(d, "label", "New").unwrap();
        let l = a.lookup("dlg.label").unwrap();
        assert_eq!(a.str_resource(l, "label"), "New");
    }
}
