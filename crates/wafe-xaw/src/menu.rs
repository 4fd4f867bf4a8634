//! SimpleMenu and its SmeBSB entries.
//!
//! SimpleMenu is the override shell `PopupMenu()` pops up; SmeBSB
//! entries fire their `callback` resource and pop the menu down.

use std::collections::HashMap;
use std::rc::Rc;

use wafe_xproto::framebuffer::DrawOp;
use wafe_xt::action::ActionTable;
use wafe_xt::resource::{core_resources, ResType, ResourceSpec};
use wafe_xt::translation::TranslationTable;
use wafe_xt::widget::{Arrangement, Placement, WidgetClass, WidgetId, WidgetOps};
use wafe_xt::XtApp;

/// SimpleMenu's resources.
pub fn simplemenu_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = core_resources();
    v.extend([
        ResourceSpec::new("label", "Label", String, ""),
        ResourceSpec::new("rowHeight", "RowHeight", Dimension, "0"),
        ResourceSpec::new("topMargin", "VerticalMargins", Dimension, "2"),
        ResourceSpec::new("bottomMargin", "VerticalMargins", Dimension, "2"),
        ResourceSpec::new("popupOnEntry", "Widget", Widget, ""),
    ]);
    v
}

/// SimpleMenu: a vertical stack of entries in an override shell.
pub struct SimpleMenuOps;

impl WidgetOps for SimpleMenuOps {
    /// Stacks managed entries below `topMargin`, each as wide as the
    /// menu; the menu needs its widest entry and `bottomMargin` below
    /// the last.
    fn arrange(&self, app: &XtApp, w: WidgetId) -> Option<Arrangement> {
        let width = app.dim_resource(w, "width");
        let mut plan = Arrangement::default();
        let (mut widest, mut y) = (0u32, app.dim_resource(w, "topMargin"));
        for &c in &app.widget(w).children {
            if !app.widget(c).managed {
                continue;
            }
            plan.placements.push(Placement {
                width: Some(width),
                ..Placement::at(c, 0, y as i32)
            });
            widest = widest.max(app.dim_resource(c, "width"));
            y += app.dim_resource(c, "height");
        }
        plan.width = widest.max(20);
        plan.height = (y + app.dim_resource(w, "bottomMargin")).max(4);
        Some(plan)
    }
}

/// SmeBSB's resources (a menu entry with a string label).
pub fn sme_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = core_resources();
    v.extend([
        ResourceSpec::new("label", "Label", String, ""),
        ResourceSpec::new("font", "Font", Font, "fixed"),
        ResourceSpec::new("foreground", "Foreground", Pixel, "black"),
        ResourceSpec::new("leftMargin", "HorizontalMargins", Dimension, "4"),
        ResourceSpec::new("rightMargin", "HorizontalMargins", Dimension, "4"),
        ResourceSpec::new("vertSpace", "VertSpace", Dimension, "2"),
        ResourceSpec::new("callback", "Callback", Callback, ""),
    ]);
    v
}

/// SmeBSB entry class methods.
pub struct SmeOps;

impl WidgetOps for SmeOps {
    fn preferred_size(&self, app: &XtApp, w: WidgetId) -> (u32, u32) {
        let font = app.fonts_of(w).get(app.font_resource(w, "font")).clone();
        let text = app.str_resource(w, "label");
        let lm = app.dim_resource(w, "leftMargin");
        let rm = app.dim_resource(w, "rightMargin");
        let vs = app.dim_resource(w, "vertSpace");
        (font.text_width(&text) + lm + rm, font.height() + 2 * vs)
    }

    fn redisplay(&self, app: &XtApp, w: WidgetId) -> Vec<DrawOp> {
        let font_id = app.font_resource(w, "font");
        let font = app.fonts_of(w).get(font_id).clone();
        let text = app.str_resource(w, "label");
        let lm = app.dim_resource(w, "leftMargin") as i32;
        let vs = app.dim_resource(w, "vertSpace") as i32;
        let fg = app.pixel_resource(w, "foreground");
        let mut ops = Vec::new();
        if app.state(w, "highlighted") == "1" {
            let width = app.dim_resource(w, "width");
            let height = app.dim_resource(w, "height");
            ops.push(DrawOp::DrawRect {
                rect: wafe_xproto::Rect::new(0, 0, width, height),
                pixel: fg,
            });
        }
        if !text.is_empty() {
            ops.push(DrawOp::DrawText {
                x: lm,
                y: vs + font.ascent as i32,
                text,
                pixel: fg,
                font: font_id,
            });
        }
        ops
    }
}

fn sme_actions() -> ActionTable {
    let mut t = ActionTable::new();
    t.add("highlight", |app, w, _, _| {
        app.set_state(w, "highlighted", "1");
        app.redisplay_widget(w);
    });
    t.add("unhighlight", |app, w, _, _| {
        app.set_state(w, "highlighted", "0");
        app.redisplay_widget(w);
    });
    t.add("notify", |app, w, _, _| {
        let mut data = HashMap::new();
        data.insert('l', app.str_resource(w, "label"));
        app.call_callbacks(w, "callback", data);
    });
    t.add("MenuPopdown", |app, w, _, _| {
        // Pop down the menu shell this entry sits in.
        if let Some(menu) = app.widget(w).parent {
            app.popdown(menu);
        }
    });
    t
}

/// SmeLine — the separator entry between menu sections.
pub fn smeline_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = core_resources();
    v.push(ResourceSpec::new("lineWidth", "LineWidth", Dimension, "1"));
    v.push(ResourceSpec::new(
        "foreground",
        "Foreground",
        Pixel,
        "black",
    ));
    v
}

/// SmeLine class methods: a horizontal rule.
pub struct SmeLineOps;

impl WidgetOps for SmeLineOps {
    fn preferred_size(&self, app: &XtApp, w: WidgetId) -> (u32, u32) {
        (20, app.dim_resource(w, "lineWidth").max(1) + 2)
    }

    fn redisplay(&self, app: &XtApp, w: WidgetId) -> Vec<DrawOp> {
        let width = app.dim_resource(w, "width");
        let y = app.dim_resource(w, "height") as i32 / 2;
        vec![DrawOp::DrawLine {
            x1: 1,
            y1: y,
            x2: width as i32 - 2,
            y2: y,
            pixel: app.pixel_resource(w, "foreground"),
        }]
    }
}

/// Registers SimpleMenu and SmeBSB.
pub fn register(app: &mut XtApp) {
    app.register_class(WidgetClass {
        name: "SimpleMenu".into(),
        resources: simplemenu_resources(),
        constraint_resources: Vec::new(),
        actions: ActionTable::new(),
        default_translations: TranslationTable::new(),
        ops: Rc::new(SimpleMenuOps),
        is_shell: true,
        is_composite: true,
    });
    app.register_class(WidgetClass {
        name: "SmeLine".into(),
        resources: smeline_resources(),
        constraint_resources: Vec::new(),
        actions: ActionTable::new(),
        default_translations: TranslationTable::new(),
        ops: Rc::new(SmeLineOps),
        is_shell: false,
        is_composite: false,
    });
    app.register_class(WidgetClass {
        name: "SmeBSB".into(),
        resources: sme_resources(),
        constraint_resources: Vec::new(),
        actions: sme_actions(),
        default_translations: TranslationTable::parse(
            "<EnterWindow>: highlight()\n\
             <LeaveWindow>: unhighlight()\n\
             <BtnUp>: notify() MenuPopdown()",
        )
        .expect("static translations"),
        ops: Rc::new(SmeOps),
        is_shell: false,
        is_composite: false,
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
        register(&mut a);
        a
    }

    #[test]
    fn menu_stacks_entries() {
        let mut a = app();
        let menu = a
            .create_widget("menu", "SimpleMenu", None, 0, &[], true)
            .unwrap();
        let e1 = a
            .create_widget(
                "e1",
                "SmeBSB",
                Some(menu),
                0,
                &[("label".into(), "Open".into())],
                true,
            )
            .unwrap();
        let e2 = a
            .create_widget(
                "e2",
                "SmeBSB",
                Some(menu),
                0,
                &[("label".into(), "Quit".into())],
                true,
            )
            .unwrap();
        a.popup(menu, wafe_xproto::GrabKind::Exclusive);
        assert!(a.pos_resource(e2, "y") > a.pos_resource(e1, "y"));
        assert_eq!(a.dim_resource(e1, "width"), a.dim_resource(e2, "width"));
    }

    #[test]
    fn entry_click_notifies_and_pops_down() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        a.realize(top);
        let menu = a
            .create_widget("menu", "SimpleMenu", None, 0, &[], true)
            .unwrap();
        let e1 = a
            .create_widget(
                "e1",
                "SmeBSB",
                Some(menu),
                0,
                &[
                    ("label".into(), "Open".into()),
                    ("callback".into(), "echo open".into()),
                ],
                true,
            )
            .unwrap();
        a.popup(menu, wafe_xproto::GrabKind::Exclusive);
        a.dispatch_pending();
        let _ = a.take_host_calls();
        let win = a.widget(e1).window.unwrap();
        let abs = a.displays[0].abs_rect(win);
        a.displays[0].inject_click(abs.x + 3, abs.y + 3, 1);
        a.dispatch_pending();
        let calls = a.take_host_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].script, "echo open");
        assert_eq!(calls[0].data.get(&'l').map(String::as_str), Some("Open"));
        assert!(!a.is_popped_up(menu), "menu pops down after selection");
        assert_eq!(a.displays[0].grab_depth(), 0);
    }

    #[test]
    fn entry_highlight_on_crossing() {
        let mut a = app();
        let menu = a
            .create_widget("menu", "SimpleMenu", None, 0, &[], true)
            .unwrap();
        let e1 = a
            .create_widget(
                "e1",
                "SmeBSB",
                Some(menu),
                0,
                &[("label".into(), "Open".into())],
                true,
            )
            .unwrap();
        a.popup(menu, wafe_xproto::GrabKind::None);
        a.dispatch_pending();
        let win = a.widget(e1).window.unwrap();
        let abs = a.displays[0].abs_rect(win);
        a.displays[0].inject_pointer_move(abs.x + 2, abs.y + 2);
        a.dispatch_pending();
        assert_eq!(a.state(e1, "highlighted"), "1");
        a.displays[0].inject_pointer_move(900, 700);
        a.dispatch_pending();
        assert_eq!(a.state(e1, "highlighted"), "0");
    }
}

#[cfg(test)]
mod smeline_tests {
    use super::*;

    #[test]
    fn separator_renders_one_line() {
        let mut a = XtApp::new();
        crate::shell::register(&mut a);
        register(&mut a);
        let menu = a
            .create_widget("menu", "SimpleMenu", None, 0, &[], true)
            .unwrap();
        a.create_widget(
            "e1",
            "SmeBSB",
            Some(menu),
            0,
            &[("label".into(), "Open".into())],
            true,
        )
        .unwrap();
        let sep = a
            .create_widget("sep", "SmeLine", Some(menu), 0, &[], true)
            .unwrap();
        let e2 = a
            .create_widget(
                "e2",
                "SmeBSB",
                Some(menu),
                0,
                &[("label".into(), "Quit".into())],
                true,
            )
            .unwrap();
        a.popup(menu, wafe_xproto::GrabKind::None);
        let ops = SmeLineOps.redisplay(&a, sep);
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0], DrawOp::DrawLine { .. }));
        // The separator sits between the entries.
        assert!(a.pos_resource(sep, "y") > a.pos_resource(a.lookup("e1").unwrap(), "y"));
        assert!(a.pos_resource(e2, "y") > a.pos_resource(sep, "y"));
    }
}
