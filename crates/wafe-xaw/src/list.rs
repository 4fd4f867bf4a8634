//! The List widget.
//!
//! The paper documents the List callback's percent codes — `%w` widget
//! name, `%i` index, `%s` active element — and uses
//! `sV chooseLst callback "sV confirmLab label %s"` as its example.
//! Selecting an item fires the `callback` resource with that clientData.

use std::collections::HashMap;
use std::rc::Rc;

use wafe_xproto::framebuffer::DrawOp;
use wafe_xproto::geometry::Rect;
use wafe_xt::action::ActionTable;
use wafe_xt::resource::{ResType, ResourceSpec, ResourceValue};
use wafe_xt::translation::TranslationTable;
use wafe_xt::widget::{WidgetClass, WidgetId, WidgetOps};
use wafe_xt::XtApp;

use crate::common::simple_base;

/// List's resources.
pub fn list_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = simple_base();
    v.extend([
        ResourceSpec::new("list", "List", StringList, ""),
        ResourceSpec::new("numberStrings", "NumberStrings", Int, "0"),
        ResourceSpec::new("defaultColumns", "Columns", Int, "1"),
        ResourceSpec::new("forceColumns", "Columns", Boolean, "false"),
        ResourceSpec::new("verticalList", "Boolean", Boolean, "true"),
        ResourceSpec::new("font", "Font", Font, "fixed"),
        ResourceSpec::new("foreground", "Foreground", Pixel, "black"),
        ResourceSpec::new("internalWidth", "Width", Dimension, "4"),
        ResourceSpec::new("internalHeight", "Height", Dimension, "2"),
        ResourceSpec::new("rowSpacing", "Spacing", Dimension, "2"),
        ResourceSpec::new("columnSpacing", "Spacing", Dimension, "6"),
        ResourceSpec::new("callback", "Callback", Callback, ""),
        ResourceSpec::new("longest", "Longest", Int, "0"),
    ]);
    v
}

fn items(app: &XtApp, w: WidgetId) -> Vec<String> {
    match app.widget(w).resource("list") {
        Some(ResourceValue::StrList(l)) => l.clone(),
        _ => Vec::new(),
    }
}

fn row_height(app: &XtApp, w: WidgetId) -> u32 {
    let font = app.fonts_of(w).get(app.font_resource(w, "font")).clone();
    font.height() + app.dim_resource(w, "rowSpacing")
}

/// The item index under a window-relative point, if any.
pub fn item_at(app: &XtApp, w: WidgetId, y: i32) -> Option<usize> {
    let ih = app.dim_resource(w, "internalHeight") as i32;
    let rh = row_height(app, w) as i32;
    if y < ih || rh == 0 {
        return None;
    }
    let idx = ((y - ih) / rh) as usize;
    if idx < items(app, w).len() {
        Some(idx)
    } else {
        None
    }
}

/// List class methods.
pub struct ListOps;

impl WidgetOps for ListOps {
    fn preferred_size(&self, app: &XtApp, w: WidgetId) -> (u32, u32) {
        let font = app.fonts_of(w).get(app.font_resource(w, "font")).clone();
        let iw = app.dim_resource(w, "internalWidth");
        let ih = app.dim_resource(w, "internalHeight");
        let list = items(app, w);
        let longest = list.iter().map(|i| font.text_width(i)).max().unwrap_or(20);
        let rows = list.len().max(1) as u32;
        (longest + 2 * iw, rows * row_height(app, w) + 2 * ih)
    }

    fn redisplay(&self, app: &XtApp, w: WidgetId) -> Vec<DrawOp> {
        let font_id = app.font_resource(w, "font");
        let font = app.fonts_of(w).get(font_id).clone();
        let fg = app.pixel_resource(w, "foreground");
        let bg = app.pixel_resource(w, "background");
        let iw = app.dim_resource(w, "internalWidth") as i32;
        let ih = app.dim_resource(w, "internalHeight") as i32;
        let rh = row_height(app, w) as i32;
        let width = app.dim_resource(w, "width");
        let selected: i64 = app.state(w, "selected").parse().unwrap_or(-1);
        let mut ops = Vec::new();
        for (i, item) in items(app, w).iter().enumerate() {
            let y = ih + i as i32 * rh;
            if i as i64 == selected {
                ops.push(DrawOp::FillRect {
                    rect: Rect::new(0, y, width, rh as u32),
                    pixel: fg,
                });
                ops.push(DrawOp::DrawText {
                    x: iw,
                    y: y + font.ascent as i32,
                    text: item.clone(),
                    pixel: bg,
                    font: font_id,
                });
            } else {
                ops.push(DrawOp::DrawText {
                    x: iw,
                    y: y + font.ascent as i32,
                    text: item.clone(),
                    pixel: fg,
                    font: font_id,
                });
            }
        }
        ops
    }
}

fn list_actions() -> ActionTable {
    let mut t = ActionTable::new();
    t.add("Set", |app, w, e, _| {
        if let Some(idx) = item_at(app, w, e.y) {
            app.set_state(w, "selected", idx.to_string());
            app.redisplay_widget(w);
        }
    });
    t.add("Unset", |app, w, _, _| {
        app.set_state(w, "selected", "-1");
        app.redisplay_widget(w);
    });
    t.add("Notify", |app, w, _, _| {
        let sel: i64 = app.state(w, "selected").parse().unwrap_or(-1);
        if sel < 0 {
            return;
        }
        let list = items(app, w);
        let item = list.get(sel as usize).cloned().unwrap_or_default();
        let mut data = HashMap::new();
        data.insert('i', sel.to_string());
        data.insert('s', item);
        app.call_callbacks(w, "callback", data);
    });
    t
}

/// Programmatic selection: `XawListHighlight`.
pub fn list_highlight(app: &mut XtApp, w: WidgetId, index: usize) {
    app.set_state(w, "selected", index.to_string());
    app.redisplay_widget(w);
}

/// Programmatic unselection: `XawListUnhighlight`.
pub fn list_unhighlight(app: &mut XtApp, w: WidgetId) {
    app.set_state(w, "selected", "-1");
    app.redisplay_widget(w);
}

/// `XawListShowCurrent`: returns `(index, item)`; index -1 when nothing
/// is selected.
pub fn list_show_current(app: &XtApp, w: WidgetId) -> (i64, String) {
    let sel: i64 = app.state(w, "selected").parse().unwrap_or(-1);
    if sel < 0 {
        return (-1, String::new());
    }
    let item = items(app, w).get(sel as usize).cloned().unwrap_or_default();
    (sel, item)
}

/// `XawListChange`: replaces the item list.
pub fn list_change(app: &mut XtApp, w: WidgetId, new_items: Vec<String>) {
    app.put_resource(w, "list", ResourceValue::StrList(new_items));
    app.set_state(w, "selected", "-1");
    app.mark_redisplay(w);
    app.settle();
}

/// Builds the List class.
pub fn list_class() -> WidgetClass {
    WidgetClass {
        name: "List".into(),
        resources: list_resources(),
        constraint_resources: Vec::new(),
        actions: list_actions(),
        default_translations: TranslationTable::parse("<Btn1Down>: Set()\n<Btn1Up>: Notify()")
            .expect("static translations"),
        ops: Rc::new(ListOps),
        is_shell: false,
        is_composite: false,
    }
}

/// Registers the List class.
pub fn register(app: &mut XtApp) {
    app.register_class(list_class());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> XtApp {
        let mut a = XtApp::new();
        crate::shell::register(&mut a);
        register(&mut a);
        a
    }

    fn make_list(a: &mut XtApp) -> WidgetId {
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let l = a
            .create_widget(
                "chooseLst",
                "List",
                Some(top),
                0,
                &[
                    ("list".into(), "alpha,beta,gamma".into()),
                    ("callback".into(), "sV confirmLab label %s".into()),
                ],
                true,
            )
            .unwrap();
        a.realize(top);
        a.dispatch_pending();
        let _ = a.take_host_calls();
        l
    }

    #[test]
    fn click_selects_and_notifies_with_index_and_item() {
        let mut a = app();
        let l = make_list(&mut a);
        let win = a.widget(l).window.unwrap();
        let abs = a.displays[0].abs_rect(win);
        // Click the second row.
        let rh = 15; // 13px font + 2 spacing
        a.displays[0].inject_click(abs.x + 5, abs.y + 2 + rh + 3, 1);
        a.dispatch_pending();
        let calls = a.take_host_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].data.get(&'i').map(String::as_str), Some("1"));
        assert_eq!(calls[0].data.get(&'s').map(String::as_str), Some("beta"));
        assert_eq!(calls[0].script, "sV confirmLab label %s");
    }

    #[test]
    fn click_outside_items_is_no_selection() {
        let mut a = app();
        let l = make_list(&mut a);
        assert_eq!(item_at(&a, l, 1000), None);
        assert_eq!(item_at(&a, l, 0), None);
        assert_eq!(item_at(&a, l, 5), Some(0));
    }

    #[test]
    fn programmatic_highlight_and_show_current() {
        let mut a = app();
        let l = make_list(&mut a);
        assert_eq!(list_show_current(&a, l), (-1, String::new()));
        list_highlight(&mut a, l, 2);
        assert_eq!(list_show_current(&a, l), (2, "gamma".into()));
        list_unhighlight(&mut a, l);
        assert_eq!(list_show_current(&a, l).0, -1);
    }

    #[test]
    fn list_change_replaces_items() {
        let mut a = app();
        let l = make_list(&mut a);
        list_change(&mut a, l, vec!["one".into(), "two".into()]);
        assert_eq!(items(&a, l), vec!["one", "two"]);
        assert_eq!(list_show_current(&a, l).0, -1);
    }

    #[test]
    fn preferred_size_tracks_items() {
        let mut a = app();
        let l = make_list(&mut a);
        let (w, h) = ListOps.preferred_size(&a, l);
        assert!(w >= 30); // "gamma" = 5 chars * 6px + margins
        assert!(h >= 3 * 15);
    }

    #[test]
    fn selected_item_rendered_inverted() {
        let mut a = app();
        let l = make_list(&mut a);
        list_highlight(&mut a, l, 0);
        let ops = ListOps.redisplay(&a, l);
        assert!(ops.iter().any(|op| matches!(op, DrawOp::FillRect { .. })));
    }
}
