//! Shell widget classes.
//!
//! Shells are the windows the window manager sees: the automatically
//! created `topLevel` ApplicationShell, additional application shells on
//! other displays, transient dialog shells and override-redirect menu
//! shells.

use std::rc::Rc;

use wafe_xt::action::ActionTable;
use wafe_xt::resource::{core_resources, ResType, ResourceSpec};
use wafe_xt::translation::TranslationTable;
use wafe_xt::widget::{Arrangement, Placement, WidgetClass, WidgetId, WidgetOps};
use wafe_xt::XtApp;

/// Shell class methods: size to the managed child, lay the child out to
/// fill the shell.
pub struct ShellOps;

impl WidgetOps for ShellOps {
    /// Stretches every managed child over the shell; the shell needs its
    /// first managed child's size.
    fn arrange(&self, app: &XtApp, w: WidgetId) -> Option<Arrangement> {
        let width = app.dim_resource(w, "width");
        let height = app.dim_resource(w, "height");
        let mut plan = Arrangement {
            width: 1,
            height: 1,
            placements: Vec::new(),
        };
        for &c in &app.widget(w).children {
            if !app.widget(c).managed {
                continue;
            }
            let bw = app.dim_resource(c, "borderWidth");
            if plan.placements.is_empty() {
                plan.width = app.dim_resource(c, "width") + 2 * bw;
                plan.height = app.dim_resource(c, "height") + 2 * bw;
            }
            plan.placements.push(Placement {
                child: c,
                x: 0,
                y: 0,
                width: Some(width.saturating_sub(2 * bw).max(1)),
                height: Some(height.saturating_sub(2 * bw).max(1)),
            });
        }
        Some(plan)
    }
}

fn shell_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = core_resources();
    v.extend([
        ResourceSpec::new("title", "Title", String, ""),
        ResourceSpec::new("iconName", "IconName", String, ""),
        ResourceSpec::new("allowShellResize", "AllowShellResize", Boolean, "true"),
        ResourceSpec::new("geometry", "Geometry", String, ""),
        // InitCom: the paper's startup-command resource for frontend mode.
        ResourceSpec::new("initCom", "InitCom", String, ""),
    ]);
    v
}

fn make_shell(name: &str) -> WidgetClass {
    WidgetClass {
        name: name.to_string(),
        resources: shell_resources(),
        constraint_resources: Vec::new(),
        actions: ActionTable::new(),
        default_translations: TranslationTable::new(),
        ops: Rc::new(ShellOps),
        is_shell: true,
        is_composite: true,
    }
}

/// Registers the shell classes.
pub fn register(app: &mut XtApp) {
    app.register_class(make_shell("TopLevelShell"));
    app.register_class(make_shell("ApplicationShell"));
    app.register_class(make_shell("TransientShell"));
    app.register_class(make_shell("OverrideShell"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shell_sizes_to_child() {
        let mut app = XtApp::new();
        register(&mut app);
        crate::label::register(&mut app);
        let top = app
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        app.create_widget(
            "l",
            "Label",
            Some(top),
            0,
            &[("label".into(), "hello world".into())],
            true,
        )
        .unwrap();
        app.realize(top);
        // 11 chars * 6px + margins; the shell wraps the child.
        let w = app.dim_resource(top, "width");
        assert!(w >= 66, "shell width {w}");
        let l = app.lookup("l").unwrap();
        assert_eq!(app.pos_resource(l, "x"), 0);
        assert_eq!(
            app.dim_resource(l, "width") + 2 * app.dim_resource(l, "borderWidth"),
            w
        );
    }

    #[test]
    fn explicit_shell_size_wins() {
        let mut app = XtApp::new();
        register(&mut app);
        let top = app
            .create_widget(
                "topLevel",
                "TopLevelShell",
                None,
                0,
                &[
                    ("width".into(), "300".into()),
                    ("height".into(), "200".into()),
                ],
                true,
            )
            .unwrap();
        app.realize(top);
        assert_eq!(app.dim_resource(top, "width"), 300);
        assert_eq!(app.dim_resource(top, "height"), 200);
    }

    #[test]
    fn shell_has_init_com_resource() {
        let mut app = XtApp::new();
        register(&mut app);
        let top = app
            .create_widget("topLevel", "ApplicationShell", None, 0, &[], true)
            .unwrap();
        assert_eq!(app.get_resource_string(top, "initCom").unwrap(), "");
        app.set_resource(top, "initCom", "[myapp], widget_tree, read_loop.")
            .unwrap();
        assert!(app
            .get_resource_string(top, "initCom")
            .unwrap()
            .contains("myapp"));
    }
}
