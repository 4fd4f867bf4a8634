//! Paned, Grip and Viewport container widgets.

use std::rc::Rc;

use wafe_xt::action::ActionTable;
use wafe_xt::resource::{core_resources, ResType, ResourceSpec};
use wafe_xt::translation::TranslationTable;
use wafe_xt::widget::{Arrangement, Placement, WidgetClass, WidgetId, WidgetOps};
use wafe_xt::XtApp;

/// Paned's resources.
pub fn paned_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = core_resources();
    v.push(ResourceSpec::new(
        "internalBorderWidth",
        "BorderWidth",
        Dimension,
        "1",
    ));
    v.push(ResourceSpec::new(
        "orientation",
        "Orientation",
        Orientation,
        "vertical",
    ));
    v.push(ResourceSpec::new(
        "gripIndent",
        "GripIndent",
        Position,
        "10",
    ));
    v
}

/// Paned constraint resources on children.
pub fn paned_constraints() -> Vec<ResourceSpec> {
    use ResType::*;
    vec![
        ResourceSpec::new("min", "Min", Dimension, "1"),
        ResourceSpec::new("max", "Max", Dimension, "100000"),
        ResourceSpec::new("showGrip", "ShowGrip", Boolean, "true"),
        ResourceSpec::new("skipAdjust", "Boolean", Boolean, "false"),
        ResourceSpec::new("preferredPaneSize", "PreferredPaneSize", Dimension, "0"),
    ]
}

/// Paned class methods: children stacked, separated by the internal
/// border, each full width.
pub struct PanedOps;

impl WidgetOps for PanedOps {
    /// Stacks managed children `internalBorderWidth` apart, each
    /// stretched to the pane's width.
    fn arrange(&self, app: &XtApp, w: WidgetId) -> Option<Arrangement> {
        let ib = app.dim_resource(w, "internalBorderWidth");
        let width = app.dim_resource(w, "width");
        let mut plan = Arrangement::default();
        let (mut widest, mut y) = (0u32, 0u32);
        for &c in &app.widget(w).children {
            if !app.widget(c).managed {
                continue;
            }
            let bw = app.dim_resource(c, "borderWidth");
            plan.placements.push(Placement {
                width: Some(width.saturating_sub(2 * bw).max(1)),
                ..Placement::at(c, 0, y as i32)
            });
            widest = widest.max(app.dim_resource(c, "width") + 2 * bw);
            y += app.dim_resource(c, "height") + 2 * bw + ib;
        }
        plan.width = widest.max(1);
        plan.height = y.max(1);
        Some(plan)
    }
}

/// Grip — the little handle between panes (leaf, draggable in real Xaw).
pub fn grip_class() -> WidgetClass {
    let mut resources = core_resources();
    resources.push(ResourceSpec::new(
        "callback",
        "Callback",
        ResType::Callback,
        "",
    ));
    let mut actions = ActionTable::new();
    actions.add("GripAction", |app, w, _, args| {
        let mut data = std::collections::HashMap::new();
        data.insert('a', args.join(" "));
        app.call_callbacks(w, "callback", data);
    });
    WidgetClass {
        name: "Grip".into(),
        resources,
        constraint_resources: Vec::new(),
        actions,
        default_translations: TranslationTable::parse("<Btn1Down>: GripAction(Start)").unwrap(),
        ops: Rc::new(wafe_xt::widget::CoreOps),
        is_shell: false,
        is_composite: false,
    }
}

/// Viewport's resources.
pub fn viewport_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = core_resources();
    v.push(ResourceSpec::new("allowHoriz", "Boolean", Boolean, "false"));
    v.push(ResourceSpec::new("allowVert", "Boolean", Boolean, "false"));
    v.push(ResourceSpec::new("forceBars", "Boolean", Boolean, "false"));
    v.push(ResourceSpec::new("useBottom", "Boolean", Boolean, "false"));
    v
}

/// Viewport: clips a single child; scroll offset in instance state.
pub struct ViewportOps;

impl WidgetOps for ViewportOps {
    /// Shows the first child scrolled by the offsets; the viewport needs
    /// that child's size, clamped to 300x200.
    fn arrange(&self, app: &XtApp, w: WidgetId) -> Option<Arrangement> {
        let yoff: i32 = app.state(w, "yoff").parse().unwrap_or(0);
        let xoff: i32 = app.state(w, "xoff").parse().unwrap_or(0);
        Some(match app.widget(w).children.first() {
            Some(&c) => Arrangement {
                width: app.dim_resource(c, "width").clamp(1, 300),
                height: app.dim_resource(c, "height").clamp(1, 200),
                placements: vec![Placement::at(c, -xoff, -yoff)],
            },
            None => Arrangement {
                width: 100,
                height: 100,
                placements: Vec::new(),
            },
        })
    }
}

/// Scrolls a viewport to the given offsets (used by scrollbar callbacks
/// and the directory-browser demo).
pub fn viewport_scroll(app: &mut XtApp, viewport: WidgetId, xoff: i32, yoff: i32) {
    app.set_state(viewport, "xoff", xoff.to_string());
    app.set_state(viewport, "yoff", yoff.to_string());
    app.mark_layout(viewport);
    app.settle();
}

/// Registers Paned, Grip and Viewport.
pub fn register(app: &mut XtApp) {
    app.register_class(WidgetClass {
        name: "Paned".into(),
        resources: paned_resources(),
        constraint_resources: paned_constraints(),
        actions: ActionTable::new(),
        default_translations: TranslationTable::new(),
        ops: Rc::new(PanedOps),
        is_shell: false,
        is_composite: true,
    });
    app.register_class(grip_class());
    app.register_class(WidgetClass {
        name: "Viewport".into(),
        resources: viewport_resources(),
        constraint_resources: Vec::new(),
        actions: ActionTable::new(),
        default_translations: TranslationTable::new(),
        ops: Rc::new(ViewportOps),
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
        register(&mut a);
        a
    }

    #[test]
    fn paned_stacks_full_width() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let p = a
            .create_widget("p", "Paned", Some(top), 0, &[], true)
            .unwrap();
        let one = a
            .create_widget(
                "one",
                "Label",
                Some(p),
                0,
                &[
                    ("width".into(), "120".into()),
                    ("height".into(), "30".into()),
                ],
                true,
            )
            .unwrap();
        let two = a
            .create_widget(
                "two",
                "Label",
                Some(p),
                0,
                &[
                    ("width".into(), "80".into()),
                    ("height".into(), "30".into()),
                ],
                true,
            )
            .unwrap();
        a.realize(top);
        assert_eq!(a.pos_resource(one, "y"), 0);
        assert!(a.pos_resource(two, "y") >= 30);
        // Both get the pane's full width.
        assert_eq!(a.dim_resource(one, "width"), a.dim_resource(two, "width"));
    }

    #[test]
    fn viewport_scrolls_child() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let vp = a
            .create_widget(
                "vp",
                "Viewport",
                Some(top),
                0,
                &[
                    ("width".into(), "100".into()),
                    ("height".into(), "50".into()),
                ],
                true,
            )
            .unwrap();
        let big = a
            .create_widget(
                "big",
                "Label",
                Some(vp),
                0,
                &[
                    ("width".into(), "100".into()),
                    ("height".into(), "500".into()),
                ],
                true,
            )
            .unwrap();
        a.realize(top);
        assert_eq!(a.pos_resource(big, "y"), 0);
        viewport_scroll(&mut a, vp, 0, 120);
        assert_eq!(a.pos_resource(big, "y"), -120);
    }

    #[test]
    fn grip_action_fires_callback() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let g = a
            .create_widget(
                "g",
                "Grip",
                Some(top),
                0,
                &[
                    ("callback".into(), "echo grip".into()),
                    ("width".into(), "10".into()),
                    ("height".into(), "10".into()),
                ],
                true,
            )
            .unwrap();
        a.realize(top);
        a.dispatch_pending();
        let _ = a.take_host_calls();
        let win = a.widget(g).window.unwrap();
        let abs = a.displays[0].abs_rect(win);
        a.displays[0].inject_click(abs.x + 2, abs.y + 2, 1);
        a.dispatch_pending();
        let calls = a.take_host_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].data.get(&'a').map(String::as_str), Some("Start"));
    }
}
