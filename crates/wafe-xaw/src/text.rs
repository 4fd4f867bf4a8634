//! The AsciiText widget — a real editable text buffer.
//!
//! The paper's prime-factors example creates
//! `asciiText input top editType edit width 200` and overrides
//! `<Key>Return` with an `exec` action; every other key edits the buffer
//! through the standard text actions. The mass-transfer example sets the
//! `string` resource of an asciiText from a 100000-byte channel payload.

use std::rc::Rc;

use wafe_xproto::framebuffer::DrawOp;
use wafe_xproto::geometry::Rect;
use wafe_xt::action::ActionTable;
use wafe_xt::resource::{ResType, ResourceSpec, ResourceValue};
use wafe_xt::translation::TranslationTable;
use wafe_xt::widget::{WidgetClass, WidgetId, WidgetOps};
use wafe_xt::XtApp;

use crate::common::simple_base;

/// AsciiText's resources.
pub fn text_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = simple_base();
    v.extend([
        ResourceSpec::new("string", "String", String, ""),
        ResourceSpec::new("editType", "EditType", String, "read"),
        ResourceSpec::new("font", "Font", Font, "fixed"),
        ResourceSpec::new("foreground", "Foreground", Pixel, "black"),
        ResourceSpec::new("displayCaret", "Output", Boolean, "true"),
        ResourceSpec::new("insertPosition", "TextPosition", Int, "0"),
        ResourceSpec::new("leftMargin", "Margin", Dimension, "2"),
        ResourceSpec::new("topMargin", "Margin", Dimension, "2"),
        ResourceSpec::new("wrap", "Wrap", String, "never"),
        ResourceSpec::new("scrollVertical", "Scroll", String, "never"),
        ResourceSpec::new("scrollHorizontal", "Scroll", String, "never"),
        ResourceSpec::new("length", "Length", Int, "0"),
    ]);
    v
}

fn cursor(app: &XtApp, w: WidgetId) -> usize {
    app.state(w, "pos").parse().unwrap_or(0)
}

fn set_cursor(app: &mut XtApp, w: WidgetId, pos: usize) {
    let len = app.str_resource(w, "string").chars().count();
    app.set_state(w, "pos", pos.min(len).to_string());
}

fn editable(app: &XtApp, w: WidgetId) -> bool {
    matches!(app.str_resource(w, "editType").as_str(), "edit" | "append")
}

fn splice(app: &mut XtApp, w: WidgetId, at: usize, del: usize, ins: &str) {
    let s = app.str_resource(w, "string");
    let chars: Vec<char> = s.chars().collect();
    let at = at.min(chars.len());
    let end = (at + del).min(chars.len());
    let mut out: String = chars[..at].iter().collect();
    out.push_str(ins);
    out.extend(&chars[end..]);
    app.put_resource(w, "string", ResourceValue::Str(out));
    app.redisplay_widget(w);
}

/// AsciiText class methods.
pub struct TextOps;

impl WidgetOps for TextOps {
    fn preferred_size(&self, app: &XtApp, w: WidgetId) -> (u32, u32) {
        let font = app.fonts_of(w).get(app.font_resource(w, "font")).clone();
        let s = app.str_resource(w, "string");
        let lines: Vec<&str> = s.split('\n').collect();
        let longest = lines.iter().map(|l| font.text_width(l)).max().unwrap_or(0);
        let lm = app.dim_resource(w, "leftMargin");
        let tm = app.dim_resource(w, "topMargin");
        (
            longest.max(100) + 2 * lm,
            (lines.len().max(1) as u32) * font.height() + 2 * tm,
        )
    }

    fn redisplay(&self, app: &XtApp, w: WidgetId) -> Vec<DrawOp> {
        let font_id = app.font_resource(w, "font");
        let font = app.fonts_of(w).get(font_id).clone();
        let fg = app.pixel_resource(w, "foreground");
        let lm = app.dim_resource(w, "leftMargin") as i32;
        let tm = app.dim_resource(w, "topMargin") as i32;
        let s = app.str_resource(w, "string");
        let mut ops = Vec::new();
        let mut consumed = 0usize;
        let caret = cursor(app, w);
        for (row, line) in s.split('\n').enumerate() {
            let y = tm + row as i32 * font.height() as i32 + font.ascent as i32;
            if !line.is_empty() {
                ops.push(DrawOp::DrawText {
                    x: lm,
                    y,
                    text: line.to_string(),
                    pixel: fg,
                    font: font_id,
                });
            }
            // Caret on this line?
            let line_len = line.chars().count();
            if app.bool_resource(w, "displayCaret")
                && caret >= consumed
                && caret <= consumed + line_len
            {
                let cx = lm + ((caret - consumed) as u32 * font.char_width) as i32;
                ops.push(DrawOp::FillRect {
                    rect: Rect::new(cx, y - font.ascent as i32, 1, font.height()),
                    pixel: fg,
                });
            }
            consumed += line_len + 1;
        }
        ops
    }
}

/// Converts a window-relative point to a buffer position.
fn position_at(app: &XtApp, w: WidgetId, x: i32, y: i32) -> usize {
    let font = app.fonts_of(w).get(app.font_resource(w, "font")).clone();
    let lm = app.dim_resource(w, "leftMargin") as i32;
    let tm = app.dim_resource(w, "topMargin") as i32;
    let row = ((y - tm).max(0) / font.height() as i32) as usize;
    let col = ((x - lm).max(0) / font.char_width as i32) as usize;
    let s = app.str_resource(w, "string");
    let mut pos = 0usize;
    for (r, line) in s.split('\n').enumerate() {
        let len = line.chars().count();
        if r == row {
            return pos + col.min(len);
        }
        pos += len + 1;
        if r > row {
            break;
        }
    }
    s.chars().count()
}

fn text_actions() -> ActionTable {
    let mut t = ActionTable::new();
    t.add("select-start", |app, w, e, _| {
        let pos = position_at(app, w, e.x, e.y);
        set_cursor(app, w, pos);
        app.set_state(w, "sel_anchor", pos.to_string());
        app.redisplay_widget(w);
    });
    t.add("select-end", |app, w, e, _| {
        // Owns PRIMARY with the dragged range, like Xaw's extend-end.
        let anchor: usize = app.state(w, "sel_anchor").parse().unwrap_or(0);
        let pos = position_at(app, w, e.x, e.y);
        let (lo, hi) = (anchor.min(pos), anchor.max(pos));
        if lo == hi {
            return;
        }
        let s = app.str_resource(w, "string");
        let selected: String = s.chars().skip(lo).take(hi - lo).collect();
        let di = app.widget(w).display_idx;
        let win = app.widget(w).window;
        if let Some(win) = win {
            let atom = app.displays[di].intern_atom("PRIMARY");
            app.displays[di].own_selection(atom, win, selected);
        }
        app.set_state(w, "sel_lo", lo.to_string());
        app.set_state(w, "sel_hi", hi.to_string());
    });
    t.add("insert-selection", |app, w, _, _| {
        // Middle-click paste: inserts PRIMARY at the cursor.
        if !editable(app, w) {
            return;
        }
        let di = app.widget(w).display_idx;
        let atom = app.displays[di].intern_atom("PRIMARY");
        let text = app.displays[di]
            .get_selection(atom)
            .unwrap_or("")
            .to_string();
        if text.is_empty() {
            return;
        }
        let at = cursor(app, w);
        splice(app, w, at, 0, &text);
        set_cursor(app, w, at + text.chars().count());
    });
    t.add("insert-char", |app, w, e, _| {
        if !editable(app, w) || e.ascii.is_empty() {
            return;
        }
        let c = e.ascii.clone();
        // Only printable characters insert; control keys have their own
        // actions.
        if c.chars().any(|ch| ch.is_control()) {
            return;
        }
        let at = cursor(app, w);
        splice(app, w, at, 0, &c);
        set_cursor(app, w, at + c.chars().count());
    });
    t.add("insert-string", |app, w, _, args| {
        if !editable(app, w) {
            return;
        }
        let s = args.join(",");
        let at = cursor(app, w);
        splice(app, w, at, 0, &s);
        set_cursor(app, w, at + s.chars().count());
    });
    t.add("delete-previous-character", |app, w, _, _| {
        if !editable(app, w) {
            return;
        }
        let at = cursor(app, w);
        if at > 0 {
            splice(app, w, at - 1, 1, "");
            set_cursor(app, w, at - 1);
        }
    });
    t.add("delete-next-character", |app, w, _, _| {
        if !editable(app, w) {
            return;
        }
        let at = cursor(app, w);
        splice(app, w, at, 1, "");
    });
    t.add("newline", |app, w, _, _| {
        if !editable(app, w) {
            return;
        }
        let at = cursor(app, w);
        splice(app, w, at, 0, "\n");
        set_cursor(app, w, at + 1);
    });
    t.add("forward-character", |app, w, _, _| {
        let at = cursor(app, w);
        set_cursor(app, w, at + 1);
    });
    t.add("backward-character", |app, w, _, _| {
        let at = cursor(app, w);
        set_cursor(app, w, at.saturating_sub(1));
    });
    t.add("beginning-of-line", |app, w, _, _| {
        let s = app.str_resource(w, "string");
        let chars: Vec<char> = s.chars().collect();
        let mut at = cursor(app, w).min(chars.len());
        while at > 0 && chars[at - 1] != '\n' {
            at -= 1;
        }
        set_cursor(app, w, at);
    });
    t.add("end-of-line", |app, w, _, _| {
        let s = app.str_resource(w, "string");
        let chars: Vec<char> = s.chars().collect();
        let mut at = cursor(app, w).min(chars.len());
        while at < chars.len() && chars[at] != '\n' {
            at += 1;
        }
        set_cursor(app, w, at);
    });
    t.add("kill-to-end-of-line", |app, w, _, _| {
        if !editable(app, w) {
            return;
        }
        let s = app.str_resource(w, "string");
        let chars: Vec<char> = s.chars().collect();
        let at = cursor(app, w).min(chars.len());
        let mut end = at;
        while end < chars.len() && chars[end] != '\n' {
            end += 1;
        }
        if end == at && end < chars.len() {
            end += 1; // Kill the newline itself when at end of line.
        }
        splice(app, w, at, end - at, "");
    });
    t
}

/// Builds the AsciiText class.
pub fn text_class() -> WidgetClass {
    WidgetClass {
        name: "AsciiText".into(),
        resources: text_resources(),
        constraint_resources: Vec::new(),
        actions: text_actions(),
        default_translations: TranslationTable::parse(
            "<Btn1Down>: select-start()\n\
             <Btn1Up>: select-end()\n\
             <Btn2Down>: insert-selection()\n\
             <Key>Return: newline()\n\
             <Key>BackSpace: delete-previous-character()\n\
             <Key>Delete: delete-previous-character()\n\
             <Key>Left: backward-character()\n\
             <Key>Right: forward-character()\n\
             <Key>Home: beginning-of-line()\n\
             <Key>End: end-of-line()\n\
             Ctrl<Key>k: kill-to-end-of-line()\n\
             Ctrl<Key>a: beginning-of-line()\n\
             Ctrl<Key>e: end-of-line()\n\
             <Key>: insert-char()",
        )
        .expect("static translations"),
        ops: Rc::new(TextOps),
        is_shell: false,
        is_composite: false,
    }
}

/// Registers the AsciiText class.
pub fn register(app: &mut XtApp) {
    app.register_class(text_class());
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

    fn make_text(a: &mut XtApp, edit_type: &str) -> WidgetId {
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let t = a
            .create_widget(
                "input",
                "AsciiText",
                Some(top),
                0,
                &[
                    ("editType".into(), edit_type.into()),
                    ("width".into(), "200".into()),
                ],
                true,
            )
            .unwrap();
        a.realize(top);
        a.dispatch_pending();
        t
    }

    fn focus_and_type(a: &mut XtApp, t: WidgetId, text: &str) {
        let win = a.widget(t).window.unwrap();
        a.displays[0].set_input_focus(Some(win));
        a.displays[0].inject_key_text(text);
        a.dispatch_pending();
    }

    #[test]
    fn typing_inserts_characters() {
        let mut a = app();
        let t = make_text(&mut a, "edit");
        focus_and_type(&mut a, t, "360");
        assert_eq!(a.str_resource(t, "string"), "360");
        assert_eq!(cursor(&a, t), 3);
    }

    #[test]
    fn read_only_ignores_typing() {
        let mut a = app();
        let t = make_text(&mut a, "read");
        focus_and_type(&mut a, t, "nope");
        assert_eq!(a.str_resource(t, "string"), "");
    }

    #[test]
    fn backspace_deletes() {
        let mut a = app();
        let t = make_text(&mut a, "edit");
        focus_and_type(&mut a, t, "abc");
        let win = a.widget(t).window.unwrap();
        a.displays[0].set_input_focus(Some(win));
        a.displays[0].inject_key_named("BackSpace", wafe_xproto::Modifiers::NONE);
        a.dispatch_pending();
        assert_eq!(a.str_resource(t, "string"), "ab");
    }

    #[test]
    fn return_makes_newline_by_default() {
        let mut a = app();
        let t = make_text(&mut a, "edit");
        focus_and_type(&mut a, t, "ab\ncd");
        assert_eq!(a.str_resource(t, "string"), "ab\ncd");
    }

    #[test]
    fn override_return_with_exec_blocks_newline() {
        // The paper's idiom: action input override {<Key>Return: exec(...)}.
        let mut a = app();
        let t = make_text(&mut a, "edit");
        let fired = Rc::new(std::cell::Cell::new(false));
        let f = fired.clone();
        a.add_global_action("exec", move |_, _, _, _| f.set(true));
        let table = TranslationTable::parse("<Key>Return: exec(echo [gV input string])").unwrap();
        a.merge_translations(t, table, wafe_xt::MergeMode::Override);
        focus_and_type(&mut a, t, "42\n");
        assert_eq!(
            a.str_resource(t, "string"),
            "42",
            "Return must not insert a newline"
        );
        assert!(fired.get(), "exec action must fire on Return");
    }

    #[test]
    fn cursor_movement_and_kill() {
        let mut a = app();
        let t = make_text(&mut a, "edit");
        focus_and_type(&mut a, t, "hello");
        let ev =
            wafe_xproto::Event::new(wafe_xproto::EventKind::KeyPress, wafe_xproto::WindowId(0));
        a.run_action(t, "beginning-of-line", &[], &ev);
        assert_eq!(cursor(&a, t), 0);
        a.run_action(t, "forward-character", &[], &ev);
        a.run_action(t, "forward-character", &[], &ev);
        assert_eq!(cursor(&a, t), 2);
        a.run_action(t, "kill-to-end-of-line", &[], &ev);
        assert_eq!(a.str_resource(t, "string"), "he");
        a.run_action(t, "backward-character", &[], &ev);
        assert_eq!(cursor(&a, t), 1);
        a.run_action(t, "end-of-line", &[], &ev);
        assert_eq!(cursor(&a, t), 2);
    }

    #[test]
    fn set_string_resource_resets_display() {
        // The mass-transfer example: sV text string $C.
        let mut a = app();
        let t = make_text(&mut a, "edit");
        let big = "x".repeat(1000);
        a.set_resource(t, "string", &big).unwrap();
        assert_eq!(a.str_resource(t, "string").len(), 1000);
    }

    #[test]
    fn renders_text_in_snapshot() {
        let mut a = app();
        let t = make_text(&mut a, "edit");
        focus_and_type(&mut a, t, "visible");
        let _ = t;
        let snap = a.displays[0].snapshot_ascii(Rect::new(0, 0, 400, 100));
        assert!(snap.contains("visible"), "snapshot:\n{snap}");
    }

    #[test]
    fn shifted_characters_insert() {
        let mut a = app();
        let t = make_text(&mut a, "edit");
        focus_and_type(&mut a, t, "A!");
        assert_eq!(a.str_resource(t, "string"), "A!");
    }
}

#[cfg(test)]
mod pointer_tests {
    use super::*;

    fn app() -> XtApp {
        let mut a = XtApp::new();
        crate::shell::register(&mut a);
        register(&mut a);
        a
    }

    fn make(a: &mut XtApp, content: &str) -> WidgetId {
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let t = a
            .create_widget(
                "t",
                "AsciiText",
                Some(top),
                0,
                &[
                    ("editType".into(), "edit".into()),
                    ("string".into(), content.into()),
                    ("width".into(), "300".into()),
                ],
                true,
            )
            .unwrap();
        a.realize(top);
        a.dispatch_pending();
        t
    }

    #[test]
    fn click_positions_cursor() {
        let mut a = app();
        let t = make(&mut a, "hello world");
        let abs = a.displays[0].abs_rect(a.widget(t).window.unwrap());
        // Click at column 6 ("w"): leftMargin 2 + 6*6px + middle of cell.
        a.displays[0].inject_click(abs.x + 2 + 6 * 6 + 1, abs.y + 5, 1);
        a.dispatch_pending();
        assert_eq!(cursor(&a, t), 6);
    }

    #[test]
    fn click_on_second_line() {
        let mut a = app();
        let t = make(&mut a, "line one\nline two");
        let abs = a.displays[0].abs_rect(a.widget(t).window.unwrap());
        // Row 1 (second line), column 0: position = 9.
        a.displays[0].inject_click(abs.x + 3, abs.y + 2 + 13 + 4, 1);
        a.dispatch_pending();
        assert_eq!(cursor(&a, t), 9);
    }

    #[test]
    fn click_past_end_clamps() {
        let mut a = app();
        let t = make(&mut a, "ab");
        let abs = a.displays[0].abs_rect(a.widget(t).window.unwrap());
        a.displays[0].inject_click(abs.x + 250, abs.y + 5, 1);
        a.dispatch_pending();
        assert_eq!(cursor(&a, t), 2);
    }

    #[test]
    fn drag_selection_owns_primary() {
        let mut a = app();
        let t = make(&mut a, "hello world");
        let abs = a.displays[0].abs_rect(a.widget(t).window.unwrap());
        // Press at col 0, release at col 5: selects "hello".
        a.displays[0].inject_pointer_move(abs.x + 3, abs.y + 5);
        a.displays[0].inject_button(1, true);
        a.displays[0].inject_pointer_move(abs.x + 2 + 5 * 6 + 1, abs.y + 5);
        a.displays[0].inject_button(1, false);
        a.dispatch_pending();
        let atom = a.displays[0].intern_atom("PRIMARY");
        assert_eq!(a.displays[0].get_selection(atom), Some("hello"));
    }

    #[test]
    fn middle_click_pastes_primary() {
        let mut a = app();
        let t = make(&mut a, "start:");
        // Something else owns PRIMARY.
        let root = a.displays[0].root();
        let atom = a.displays[0].intern_atom("PRIMARY");
        a.displays[0].own_selection(atom, root, "pasted".into());
        // Put the cursor at the end, then middle-click.
        let ev =
            wafe_xproto::Event::new(wafe_xproto::EventKind::KeyPress, wafe_xproto::WindowId(0));
        a.run_action(t, "end-of-line", &[], &ev);
        let abs = a.displays[0].abs_rect(a.widget(t).window.unwrap());
        a.displays[0].inject_pointer_move(abs.x + 3, abs.y + 5);
        a.displays[0].inject_button(2, true);
        a.displays[0].inject_button(2, false);
        a.dispatch_pending();
        // insert-selection pastes at the (click-set) cursor; Btn1 was not
        // pressed, so the cursor stayed where end-of-line put it? No: the
        // Btn2Down translation does not move the cursor, so the paste
        // lands at position 6.
        assert_eq!(a.str_resource(t, "string"), "start:pasted");
    }

    #[test]
    fn paste_into_readonly_is_ignored() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let t = a
            .create_widget(
                "t",
                "AsciiText",
                Some(top),
                0,
                &[("string".into(), "ro".into())],
                true,
            )
            .unwrap();
        a.realize(top);
        a.dispatch_pending();
        let atom = a.displays[0].intern_atom("PRIMARY");
        let root = a.displays[0].root();
        a.displays[0].own_selection(atom, root, "xx".into());
        let abs = a.displays[0].abs_rect(a.widget(t).window.unwrap());
        a.displays[0].inject_pointer_move(abs.x + 3, abs.y + 5);
        a.displays[0].inject_button(2, true);
        a.displays[0].inject_button(2, false);
        a.dispatch_pending();
        assert_eq!(a.str_resource(t, "string"), "ro");
    }
}
