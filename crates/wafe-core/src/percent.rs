//! Percent-code substitution for callbacks and actions.
//!
//! Two tables in the paper define these:
//!
//! **Actions** (the `exec` action): `%t` event type, `%w` widget, `%b`
//! button number (button events), `%x %y` coordinates, `%X %Y` root
//! coordinates, `%a` ascii character / `%k` keycode / `%s` keysym (key
//! events). "The %t code will expand to `unknown`, if the event is not
//! included in the list" of the six supported types. Codes applied to an
//! event type that does not carry the information are left untouched —
//! "It is the programmer's responsibility to ensure … that a percent code
//! substitution occurs only with a valid event type."
//!
//! **Callbacks**: `%w` is always available ("can be used in any callback
//! function to obtain the widget's name"); other codes are class-specific
//! clientData (Athena List: `%i` index, `%s` active element).

use std::collections::HashMap;
use std::fmt::Write;

use wafe_xproto::{Event, EventKind};

/// Copies `script`, letting `replace` write the text for each `%c` code
/// into the output. `%%` is `%`; a code `replace` does not know (it
/// returns false) stays `%c`, and a trailing `%` stays too.
fn substitute(script: &str, replace: impl Fn(char, &mut String) -> bool) -> String {
    let mut out = String::with_capacity(script.len());
    let mut rest = script;
    while let Some(i) = rest.find('%') {
        out.push_str(&rest[..i]);
        let mut tail = rest[i + 1..].chars();
        match tail.next() {
            None | Some('%') => out.push('%'),
            Some(code) => {
                if !replace(code, &mut out) {
                    out.push('%');
                    out.push(code);
                }
            }
        }
        rest = tail.as_str();
    }
    out.push_str(rest);
    out
}

/// Substitutes action percent codes using the triggering event. A code
/// the event does not carry is left untouched, per the paper.
pub fn substitute_action(script: &str, widget_name: &str, event: &Event) -> String {
    let is_button = matches!(
        event.kind,
        EventKind::ButtonPress | EventKind::ButtonRelease
    );
    let is_key = matches!(event.kind, EventKind::KeyPress | EventKind::KeyRelease);
    let is_crossing = matches!(event.kind, EventKind::EnterNotify | EventKind::LeaveNotify);
    let has_coords = is_button || is_key || is_crossing;
    substitute(script, |code, out| {
        // Writing to a `String` cannot fail.
        let _ = match code {
            't' => write!(out, "{}", event.wafe_type_name()),
            'w' => write!(out, "{widget_name}"),
            'b' if is_button => write!(out, "{}", event.button),
            'x' if has_coords => write!(out, "{}", event.x),
            'y' if has_coords => write!(out, "{}", event.y),
            'X' if has_coords => write!(out, "{}", event.x_root),
            'Y' if has_coords => write!(out, "{}", event.y_root),
            'a' if is_key => write!(out, "{}", event.ascii),
            'k' if is_key => write!(out, "{}", event.keycode),
            's' if is_key => write!(out, "{}", event.keysym),
            _ => return false,
        };
        true
    })
}

/// Substitutes callback percent codes: `%w` plus class clientData.
pub fn substitute_callback(
    script: &str,
    widget_name: &str,
    data: &HashMap<char, String>,
) -> String {
    substitute(script, |code, out| {
        let text = match code {
            'w' => widget_name,
            _ => match data.get(&code) {
                Some(v) => v,
                None => return false,
            },
        };
        out.push_str(text);
        true
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafe_xproto::WindowId;

    fn key_event() -> Event {
        let mut e = Event::new(EventKind::KeyPress, WindowId(1));
        e.keycode = 198;
        e.keysym = "w".into();
        e.ascii = "w".into();
        e.x = 10;
        e.y = 20;
        e.x_root = 110;
        e.y_root = 220;
        e
    }

    fn button_event() -> Event {
        let mut e = Event::new(EventKind::ButtonPress, WindowId(1));
        e.button = 3;
        e.x = 5;
        e.y = 6;
        e.x_root = 105;
        e.y_root = 206;
        e
    }

    #[test]
    fn paper_xev_example() {
        // {<KeyPress>: exec(echo %k %a %s)} prints keycode, ascii, keysym.
        let out = substitute_action("echo %k %a %s", "xev", &key_event());
        assert_eq!(out, "echo 198 w w");
    }

    #[test]
    fn button_codes() {
        let out = substitute_action("%t %w %b %x %y %X %Y", "btn", &button_event());
        assert_eq!(out, "ButtonPress btn 3 5 6 105 206");
    }

    #[test]
    fn key_codes_have_no_button() {
        // %b is invalid for key events: left untouched.
        let out = substitute_action("%b", "w", &key_event());
        assert_eq!(out, "%b");
    }

    #[test]
    fn button_has_no_key_codes() {
        let out = substitute_action("%a %k %s", "w", &button_event());
        assert_eq!(out, "%a %k %s");
    }

    #[test]
    fn crossing_has_coords_but_no_detail() {
        let mut e = Event::new(EventKind::EnterNotify, WindowId(1));
        e.x = 1;
        e.y = 2;
        assert_eq!(
            substitute_action("%t %x %y %b %a", "w", &e),
            "EnterNotify 1 2 %b %a"
        );
    }

    #[test]
    fn unknown_event_type_is_unknown() {
        // The paper: "%t will expand to unknown" for unlisted events.
        let e = Event::new(EventKind::Expose, WindowId(1));
        assert_eq!(substitute_action("%t", "w", &e), "unknown");
    }

    #[test]
    fn percent_percent_literal() {
        assert_eq!(
            substitute_action("100%% done", "w", &key_event()),
            "100% done"
        );
        // Trailing single percent.
        assert_eq!(substitute_action("odd%", "w", &key_event()), "odd%");
    }

    #[test]
    fn callback_w_and_clientdata() {
        // The paper's List example: sV confirmLab label %s.
        let mut data = HashMap::new();
        data.insert('s', "active element".to_string());
        data.insert('i', "4".to_string());
        let out = substitute_callback("sV confirmLab label %s (#%i from %w)", "chooseLst", &data);
        assert_eq!(
            out,
            "sV confirmLab label active element (#4 from chooseLst)"
        );
    }

    #[test]
    fn callback_i_am_w_example() {
        // The paper's c1/c2 example: callback "echo i am %w.".
        let out = substitute_callback("echo i am %w.", "c1", &HashMap::new());
        assert_eq!(out, "echo i am c1.");
        let out = substitute_callback("echo i am %w.", "c2", &HashMap::new());
        assert_eq!(out, "echo i am c2.");
    }

    #[test]
    fn callback_unknown_code_untouched() {
        let out = substitute_callback("%z stays", "w", &HashMap::new());
        assert_eq!(out, "%z stays");
    }
}
