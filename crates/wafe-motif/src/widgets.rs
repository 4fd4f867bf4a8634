//! The Motif widget classes: XmLabel, XmPushButton, XmCascadeButton,
//! XmCommand.

use std::collections::HashMap;
use std::rc::Rc;

use wafe_xproto::framebuffer::DrawOp;
use wafe_xt::action::ActionTable;
use wafe_xt::resource::{core_resources, ResType, ResourceSpec, ResourceValue};
use wafe_xt::translation::TranslationTable;
use wafe_xt::widget::{WidgetClass, WidgetId, WidgetOps};
use wafe_xt::XtApp;

use crate::xmstring::{parse_font_list, parse_xmstring, segment_font};

/// Base resources of Motif primitives.
fn primitive_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = core_resources();
    v.extend([
        ResourceSpec::new("foreground", "Foreground", Pixel, "black"),
        ResourceSpec::new("shadowThickness", "ShadowThickness", Dimension, "2"),
        ResourceSpec::new("highlightThickness", "HighlightThickness", Dimension, "2"),
        ResourceSpec::new("traversalOn", "TraversalOn", Boolean, "true"),
    ]);
    v
}

/// XmLabel's resources.
pub fn label_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = primitive_resources();
    v.extend([
        ResourceSpec::new("labelString", "XmString", Compound, ""),
        ResourceSpec::new("fontList", "FontList", String, "fixed"),
        ResourceSpec::new("alignment", "Alignment", String, "center"),
        ResourceSpec::new("marginWidth", "MarginWidth", Dimension, "2"),
        ResourceSpec::new("marginHeight", "MarginHeight", Dimension, "2"),
        ResourceSpec::new("stringDirection", "StringDirection", String, "l_to_r"),
    ]);
    v
}

fn segments(app: &XtApp, w: WidgetId) -> Vec<wafe_xt::resource::CompoundSegment> {
    match app.widget(w).resource("labelString") {
        Some(ResourceValue::Compound(segs)) => segs.clone(),
        Some(ResourceValue::Str(s)) => parse_xmstring(s),
        _ => Vec::new(),
    }
}

/// Draws a compound string with per-segment fonts and direction.
pub fn draw_compound(app: &XtApp, w: WidgetId) -> Vec<DrawOp> {
    let fonts = app.fonts_of(w);
    let fallback = fonts.default_font();
    let fl = parse_font_list(fonts, &app.str_resource(w, "fontList"));
    let fg = app.pixel_resource(w, "foreground");
    let mw = app.dim_resource(w, "marginWidth") as i32;
    let mh = app.dim_resource(w, "marginHeight") as i32;
    let mut ops = Vec::new();
    let mut x = mw;
    for seg in segments(app, w) {
        let fid = segment_font(&fl, &seg, fallback);
        let f = fonts.get(fid).clone();
        let text = if seg.right_to_left {
            seg.text.chars().rev().collect::<String>()
        } else {
            seg.text.clone()
        };
        let width = f.text_width(&text) as i32;
        ops.push(DrawOp::DrawText {
            x,
            y: mh + f.ascent as i32,
            text,
            pixel: fg,
            font: fid,
        });
        x += width;
    }
    ops
}

fn compound_size(app: &XtApp, w: WidgetId) -> (u32, u32) {
    let fonts = app.fonts_of(w);
    let fallback = fonts.default_font();
    let fl = parse_font_list(fonts, &app.str_resource(w, "fontList"));
    let mw = app.dim_resource(w, "marginWidth");
    let mh = app.dim_resource(w, "marginHeight");
    let st = app.dim_resource(w, "shadowThickness");
    let mut width = 0u32;
    let mut height = 13u32;
    for seg in segments(app, w) {
        let f = fonts.get(segment_font(&fl, &seg, fallback)).clone();
        width += f.text_width(&seg.text);
        height = height.max(f.height());
    }
    (width.max(10) + 2 * mw + 2 * st, height + 2 * mh + 2 * st)
}

/// XmLabel class methods.
pub struct XmLabelOps;

impl WidgetOps for XmLabelOps {
    fn preferred_size(&self, app: &XtApp, w: WidgetId) -> (u32, u32) {
        compound_size(app, w)
    }

    fn redisplay(&self, app: &XtApp, w: WidgetId) -> Vec<DrawOp> {
        draw_compound(app, w)
    }
}

/// XmPushButton's resources: XmLabel's plus the three Motif callbacks.
pub fn pushbutton_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = label_resources();
    v.extend([
        ResourceSpec::new("activateCallback", "Callback", Callback, ""),
        ResourceSpec::new("armCallback", "Callback", Callback, ""),
        ResourceSpec::new("disarmCallback", "Callback", Callback, ""),
        ResourceSpec::new("fillOnArm", "FillOnArm", Boolean, "true"),
    ]);
    v
}

fn pushbutton_actions() -> ActionTable {
    let mut t = ActionTable::new();
    t.add("Arm", |app, w, _, _| {
        app.set_state(w, "armed", "1");
        app.call_callbacks(w, "armCallback", HashMap::new());
        app.redisplay_widget(w);
    });
    t.add("Activate", |app, w, _, _| {
        if app.state(w, "armed") == "1" {
            app.call_callbacks(w, "activateCallback", HashMap::new());
        }
    });
    t.add("Disarm", |app, w, _, _| {
        app.set_state(w, "armed", "0");
        app.call_callbacks(w, "disarmCallback", HashMap::new());
        app.redisplay_widget(w);
    });
    t
}

/// XmPushButton class methods.
pub struct XmPushButtonOps;

impl WidgetOps for XmPushButtonOps {
    fn preferred_size(&self, app: &XtApp, w: WidgetId) -> (u32, u32) {
        compound_size(app, w)
    }

    fn redisplay(&self, app: &XtApp, w: WidgetId) -> Vec<DrawOp> {
        let mut ops = draw_compound(app, w);
        if app.state(w, "armed") == "1" && app.bool_resource(w, "fillOnArm") {
            let width = app.dim_resource(w, "width");
            let height = app.dim_resource(w, "height");
            ops.push(DrawOp::DrawRect {
                rect: wafe_xproto::Rect::new(
                    1,
                    1,
                    width.saturating_sub(2),
                    height.saturating_sub(2),
                ),
                pixel: app.pixel_resource(w, "foreground"),
            });
        }
        ops
    }
}

/// XmCascadeButton's resources.
pub fn cascade_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = pushbutton_resources();
    v.extend([
        ResourceSpec::new("subMenuId", "MenuWidget", Widget, ""),
        ResourceSpec::new("cascadingCallback", "Callback", Callback, ""),
        ResourceSpec::new("mappingDelay", "MappingDelay", Int, "180"),
    ]);
    v
}

/// `XmCascadeButtonHighlight(widget, highlight)` — the paper's example of
/// a spec-generated two-argument command.
pub fn cascade_button_highlight(app: &mut XtApp, w: WidgetId, highlight: bool) {
    app.set_state(w, "highlighted", if highlight { "1" } else { "0" });
    app.redisplay_widget(w);
}

/// XmCascadeButton class methods.
pub struct XmCascadeButtonOps;

impl WidgetOps for XmCascadeButtonOps {
    fn preferred_size(&self, app: &XtApp, w: WidgetId) -> (u32, u32) {
        compound_size(app, w)
    }

    fn redisplay(&self, app: &XtApp, w: WidgetId) -> Vec<DrawOp> {
        let mut ops = draw_compound(app, w);
        if app.state(w, "highlighted") == "1" {
            let width = app.dim_resource(w, "width");
            let height = app.dim_resource(w, "height");
            ops.push(DrawOp::DrawRect {
                rect: wafe_xproto::Rect::new(0, 0, width, height),
                pixel: app.pixel_resource(w, "foreground"),
            });
        }
        ops
    }
}

/// XmCommand's resources (command-entry box with history).
pub fn command_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = primitive_resources();
    v.extend([
        ResourceSpec::new("command", "XmString", String, ""),
        ResourceSpec::new("historyItems", "Items", StringList, ""),
        ResourceSpec::new("historyMaxItems", "MaxItems", Int, "100"),
        ResourceSpec::new("promptString", "XmString", String, ">"),
        ResourceSpec::new("commandEnteredCallback", "Callback", Callback, ""),
        ResourceSpec::new("commandChangedCallback", "Callback", Callback, ""),
    ]);
    v
}

/// `XmCommandAppendValue`: appends text to the current command line.
pub fn command_append_value(app: &mut XtApp, w: WidgetId, text: &str) {
    let mut cur = app.str_resource(w, "command");
    cur.push_str(text);
    app.put_resource(w, "command", ResourceValue::Str(cur));
    app.call_callbacks(w, "commandChangedCallback", HashMap::new());
    app.redisplay_widget(w);
}

/// `XmCommandError`: shows an error in the history area.
pub fn command_error(app: &mut XtApp, w: WidgetId, message: &str) {
    let mut items = match app.widget(w).resource("historyItems") {
        Some(ResourceValue::StrList(l)) => l.clone(),
        _ => Vec::new(),
    };
    items.push(format!("ERROR: {message}"));
    app.put_resource(w, "historyItems", ResourceValue::StrList(items));
    app.redisplay_widget(w);
}

/// XmCommand class methods.
pub struct XmCommandOps;

impl WidgetOps for XmCommandOps {
    fn preferred_size(&self, app: &XtApp, w: WidgetId) -> (u32, u32) {
        let _ = (app, w);
        (250, 120)
    }

    fn redisplay(&self, app: &XtApp, w: WidgetId) -> Vec<DrawOp> {
        let fonts = app.fonts_of(w);
        let fid = fonts.default_font();
        let f = fonts.get(fid).clone();
        let fg = app.pixel_resource(w, "foreground");
        let mut ops = Vec::new();
        let items = match app.widget(w).resource("historyItems") {
            Some(ResourceValue::StrList(l)) => l.clone(),
            _ => Vec::new(),
        };
        for (i, item) in items.iter().rev().take(5).rev().enumerate() {
            ops.push(DrawOp::DrawText {
                x: 2,
                y: 2 + (i as i32 + 1) * f.height() as i32,
                text: item.clone(),
                pixel: fg,
                font: fid,
            });
        }
        let prompt = app.str_resource(w, "promptString");
        let cmd = app.str_resource(w, "command");
        ops.push(DrawOp::DrawText {
            x: 2,
            y: app.dim_resource(w, "height") as i32 - f.descent as i32 - 2,
            text: format!("{prompt} {cmd}"),
            pixel: fg,
            font: fid,
        });
        ops
    }
}

/// Registers the Motif classes.
pub fn register(app: &mut XtApp) {
    app.register_class(WidgetClass {
        name: "XmLabel".into(),
        resources: label_resources(),
        constraint_resources: Vec::new(),
        actions: ActionTable::new(),
        default_translations: TranslationTable::new(),
        ops: Rc::new(XmLabelOps),
        is_shell: false,
        is_composite: false,
    });
    app.register_class(WidgetClass {
        name: "XmPushButton".into(),
        resources: pushbutton_resources(),
        constraint_resources: Vec::new(),
        actions: pushbutton_actions(),
        default_translations: TranslationTable::parse(
            "<Btn1Down>: Arm()\n<Btn1Up>: Activate() Disarm()",
        )
        .expect("static translations"),
        ops: Rc::new(XmPushButtonOps),
        is_shell: false,
        is_composite: false,
    });
    app.register_class(WidgetClass {
        name: "XmCascadeButton".into(),
        resources: cascade_resources(),
        constraint_resources: Vec::new(),
        actions: pushbutton_actions(),
        default_translations: TranslationTable::parse(
            "<Btn1Down>: Arm()\n<Btn1Up>: Activate() Disarm()",
        )
        .expect("static translations"),
        ops: Rc::new(XmCascadeButtonOps),
        is_shell: false,
        is_composite: false,
    });
    app.register_class(WidgetClass {
        name: "XmCommand".into(),
        resources: command_resources(),
        constraint_resources: Vec::new(),
        actions: ActionTable::new(),
        default_translations: TranslationTable::new(),
        ops: Rc::new(XmCommandOps),
        is_shell: false,
        is_composite: false,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafe_xt::converter::ConvertCtx;

    fn app() -> XtApp {
        let mut a = XtApp::new();
        // A shell to parent things under.
        a.register_class(wafe_xt::widget::core_class("Shell", true, true));
        register(&mut a);
        // Install the XmString converter for the Compound type, like the
        // mofe binary does.
        a.add_converter(wafe_xt::ResType::Compound, |s, _ctx: &ConvertCtx<'_>| {
            Ok(ResourceValue::Compound(parse_xmstring(s)))
        });
        a
    }

    #[test]
    fn figure3_label_renders_with_fonts_and_direction() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "Shell", None, 0, &[], true)
            .unwrap();
        let l = a
            .create_widget(
                "l",
                "XmLabel",
                Some(top),
                0,
                &[
                    (
                        "fontList".into(),
                        "*b&h-lucida-medium-r*14*=ft,*b&h-lucida-bold-r*14*=bft".into(),
                    ),
                    (
                        "labelString".into(),
                        "I'm&bft bold&ft and&rl strange".into(),
                    ),
                ],
                true,
            )
            .unwrap();
        a.realize(top);
        let ops = XmLabelOps.redisplay(&a, l);
        let texts: Vec<&str> = ops
            .iter()
            .filter_map(|op| match op {
                DrawOp::DrawText { text, .. } => Some(text.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(texts, vec!["I'm", " bold", " and", "egnarts "]);
        // The bold segment uses a different font.
        let fonts: Vec<_> = ops
            .iter()
            .filter_map(|op| match op {
                DrawOp::DrawText { font, .. } => Some(*font),
                _ => None,
            })
            .collect();
        assert_ne!(fonts[0], fonts[1]);
        assert_eq!(fonts[0], fonts[2]);
    }

    #[test]
    fn pushbutton_arm_activate_callbacks() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "Shell", None, 0, &[], true)
            .unwrap();
        let b = a
            .create_widget(
                "pressMe",
                "XmPushButton",
                Some(top),
                0,
                &[
                    ("labelString".into(), "Press me".into()),
                    ("armCallback".into(), "echo armed".into()),
                    ("activateCallback".into(), "echo activated".into()),
                ],
                true,
            )
            .unwrap();
        a.realize(top);
        a.dispatch_pending();
        let _ = a.take_host_calls();
        let win = a.widget(b).window.unwrap();
        let abs = a.displays[0].abs_rect(win);
        a.displays[0].inject_click(abs.x + 2, abs.y + 2, 1);
        a.dispatch_pending();
        let scripts: Vec<String> = a.take_host_calls().into_iter().map(|c| c.script).collect();
        assert_eq!(scripts, vec!["echo armed", "echo activated"]);
    }

    #[test]
    fn cascade_button_highlight_function() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "Shell", None, 0, &[], true)
            .unwrap();
        let cb = a
            .create_widget("casc", "XmCascadeButton", Some(top), 0, &[], true)
            .unwrap();
        a.realize(top);
        cascade_button_highlight(&mut a, cb, true);
        assert_eq!(a.state(cb, "highlighted"), "1");
        cascade_button_highlight(&mut a, cb, false);
        assert_eq!(a.state(cb, "highlighted"), "0");
    }

    #[test]
    fn command_append_value_builds_command() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "Shell", None, 0, &[], true)
            .unwrap();
        let c = a
            .create_widget(
                "cmd",
                "XmCommand",
                Some(top),
                0,
                &[("commandChangedCallback".into(), "echo changed".into())],
                true,
            )
            .unwrap();
        a.realize(top);
        command_append_value(&mut a, c, "ls ");
        command_append_value(&mut a, c, "-la");
        assert_eq!(a.str_resource(c, "command"), "ls -la");
        assert_eq!(a.take_host_calls().len(), 2);
        command_error(&mut a, c, "no such file");
        match a.widget(c).resource("historyItems") {
            Some(ResourceValue::StrList(l)) => assert!(l[0].contains("no such file")),
            _ => panic!(),
        }
    }
}
