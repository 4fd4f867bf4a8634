//! Keycodes, keysyms and the keyboard map.
//!
//! The paper's `xev`-style example binds `<KeyPress>` and prints
//! `%k %a %s` — keycode, ascii character and keysym name. Typing `w!`
//! produces three key presses (`w`, `Shift_L`, `exclam`). This module
//! provides the deterministic keyboard map that reproduces that
//! behaviour: every ASCII character maps to a keycode, a keysym name and
//! a shift requirement.

/// Everything the event layer needs to synthesise a key press.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyInfo {
    /// The device keycode (deterministic, stable across runs).
    pub keycode: u8,
    /// The keysym name, e.g. `w`, `exclam`, `Return`, `Shift_L`.
    pub keysym: String,
    /// The ASCII text the key produces (empty for modifiers and
    /// function keys).
    pub ascii: String,
    /// True if reaching this symbol requires the Shift modifier.
    pub shifted: bool,
}

/// Keycode of the left Shift key.
pub const KEYCODE_SHIFT_L: u8 = 174;

/// Names of shifted ASCII punctuation, indexed by character.
fn punct_name(c: char) -> Option<(&'static str, bool)> {
    Some(match c {
        ' ' => ("space", false),
        '!' => ("exclam", true),
        '"' => ("quotedbl", true),
        '#' => ("numbersign", true),
        '$' => ("dollar", true),
        '%' => ("percent", true),
        '&' => ("ampersand", true),
        '\'' => ("apostrophe", false),
        '(' => ("parenleft", true),
        ')' => ("parenright", true),
        '*' => ("asterisk", true),
        '+' => ("plus", true),
        ',' => ("comma", false),
        '-' => ("minus", false),
        '.' => ("period", false),
        '/' => ("slash", false),
        ':' => ("colon", true),
        ';' => ("semicolon", false),
        '<' => ("less", true),
        '=' => ("equal", false),
        '>' => ("greater", true),
        '?' => ("question", true),
        '@' => ("at", true),
        '[' => ("bracketleft", false),
        '\\' => ("backslash", false),
        ']' => ("bracketright", false),
        '^' => ("asciicircum", true),
        '_' => ("underscore", true),
        '`' => ("grave", false),
        '{' => ("braceleft", true),
        '|' => ("bar", true),
        '}' => ("braceright", true),
        '~' => ("asciitilde", true),
        _ => return None,
    })
}

/// Maps an ASCII character to its key info.
///
/// Lower-case letters and digits are unshifted; upper-case letters and
/// shifted punctuation require Shift. Control characters map to their
/// named keys (`\n` → `Return`, `\t` → `Tab`, `\x1b` → `Escape`,
/// `\x7f`/`\x08` → `Delete`/`BackSpace`).
///
/// # Examples
///
/// ```
/// use wafe_xproto::keysym::key_for_char;
/// let w = key_for_char('w').unwrap();
/// assert_eq!(w.keysym, "w");
/// assert!(!w.shifted);
/// let bang = key_for_char('!').unwrap();
/// assert_eq!(bang.keysym, "exclam");
/// assert!(bang.shifted);
/// ```
pub fn key_for_char(c: char) -> Option<KeyInfo> {
    // Deterministic keycode assignment: base 8 + offset per class, in the
    // flavour of real X servers (keycodes 8..=255).
    match c {
        'a'..='z' => Some(KeyInfo {
            keycode: 190 + (c as u8 - b'a') / 4, // A few keys share rows; uniqueness is not required by X.
            keysym: c.to_string(),
            ascii: c.to_string(),
            shifted: false,
        }),
        'A'..='Z' => {
            let lower = c.to_ascii_lowercase();
            Some(KeyInfo {
                keycode: 190 + (lower as u8 - b'a') / 4,
                keysym: c.to_string(),
                ascii: c.to_string(),
                shifted: true,
            })
        }
        '0'..='9' => Some(KeyInfo {
            keycode: 100 + (c as u8 - b'0'),
            keysym: c.to_string(),
            ascii: c.to_string(),
            shifted: false,
        }),
        '\n' | '\r' => Some(KeyInfo {
            keycode: 150,
            keysym: "Return".into(),
            ascii: "\r".into(),
            shifted: false,
        }),
        '\t' => Some(KeyInfo {
            keycode: 151,
            keysym: "Tab".into(),
            ascii: "\t".into(),
            shifted: false,
        }),
        '\x1b' => Some(KeyInfo {
            keycode: 152,
            keysym: "Escape".into(),
            ascii: "\x1b".into(),
            shifted: false,
        }),
        '\x08' => Some(KeyInfo {
            keycode: 153,
            keysym: "BackSpace".into(),
            ascii: "\x08".into(),
            shifted: false,
        }),
        '\x7f' => Some(KeyInfo {
            keycode: 154,
            keysym: "Delete".into(),
            ascii: "\x7f".into(),
            shifted: false,
        }),
        _ => {
            let (name, shifted) = punct_name(c)?;
            Some(KeyInfo {
                keycode: 160 + (c as u8 % 32),
                keysym: name.into(),
                ascii: c.to_string(),
                shifted,
            })
        }
    }
}

/// Key info for a named keysym (`Return`, `Escape`, `Shift_L`, `F1`…).
pub fn key_for_name(name: &str) -> Option<KeyInfo> {
    match name {
        "Return" => key_for_char('\n'),
        "Tab" => key_for_char('\t'),
        "Escape" => key_for_char('\x1b'),
        "BackSpace" => key_for_char('\x08'),
        "Delete" => key_for_char('\x7f'),
        "space" => key_for_char(' '),
        "Shift_L" => Some(KeyInfo {
            keycode: KEYCODE_SHIFT_L,
            keysym: "Shift_L".into(),
            ascii: String::new(),
            shifted: false,
        }),
        "Shift_R" => Some(KeyInfo {
            keycode: 175,
            keysym: "Shift_R".into(),
            ascii: String::new(),
            shifted: false,
        }),
        "Control_L" => Some(KeyInfo {
            keycode: 176,
            keysym: "Control_L".into(),
            ascii: String::new(),
            shifted: false,
        }),
        "Up" | "Down" | "Left" | "Right" | "Home" | "End" => Some(KeyInfo {
            keycode: 180
                + match name {
                    "Up" => 0,
                    "Down" => 1,
                    "Left" => 2,
                    "Right" => 3,
                    "Home" => 4,
                    _ => 5,
                },
            keysym: name.into(),
            ascii: String::new(),
            shifted: false,
        }),
        _ => {
            // Single-character names are the character's own keysym.
            let mut chars = name.chars();
            if let (Some(c), None) = (chars.next(), chars.next()) {
                return key_for_char(c);
            }
            if let Some(num) = name.strip_prefix('F') {
                if let Ok(n) = num.parse::<u8>() {
                    if (1..=12).contains(&n) {
                        return Some(KeyInfo {
                            keycode: 110 + n,
                            keysym: name.into(),
                            ascii: String::new(),
                            shifted: false,
                        });
                    }
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_and_digits() {
        let a = key_for_char('a').unwrap();
        assert_eq!(a.keysym, "a");
        assert_eq!(a.ascii, "a");
        assert!(!a.shifted);
        let z = key_for_char('Z').unwrap();
        assert_eq!(z.keysym, "Z");
        assert!(z.shifted);
        let five = key_for_char('5').unwrap();
        assert_eq!(five.keysym, "5");
    }

    #[test]
    fn paper_w_exclam_sequence() {
        // Typing "w!" in the paper's example prints keysyms w, Shift_L,
        // exclam. Verify the pieces.
        let w = key_for_char('w').unwrap();
        assert_eq!(w.keysym, "w");
        assert!(!w.shifted);
        let bang = key_for_char('!').unwrap();
        assert_eq!(bang.keysym, "exclam");
        assert!(bang.shifted);
        let shift = key_for_name("Shift_L").unwrap();
        assert_eq!(shift.keycode, KEYCODE_SHIFT_L);
        assert_eq!(shift.ascii, "");
    }

    #[test]
    fn named_keys() {
        assert_eq!(key_for_name("Return").unwrap().keysym, "Return");
        assert_eq!(key_for_name("Escape").unwrap().keysym, "Escape");
        assert_eq!(key_for_name("F5").unwrap().keysym, "F5");
        assert_eq!(key_for_name("q").unwrap().keysym, "q");
        assert!(key_for_name("NoSuchKey").is_none());
        assert!(key_for_name("F99").is_none());
    }

    #[test]
    fn control_chars() {
        assert_eq!(key_for_char('\n').unwrap().keysym, "Return");
        assert_eq!(key_for_char('\t').unwrap().keysym, "Tab");
        assert_eq!(key_for_char('\x7f').unwrap().keysym, "Delete");
    }

    #[test]
    fn punctuation_coverage() {
        for c in "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~ ".chars() {
            let k = key_for_char(c).unwrap();
            assert!(!k.keysym.is_empty(), "{c}");
            assert_eq!(k.ascii, c.to_string());
        }
        assert!(key_for_char('\u{1F600}').is_none());
    }

    #[test]
    fn keycodes_in_x_range() {
        for c in ('a'..='z').chain('0'..='9') {
            let k = key_for_char(c).unwrap();
            assert!(k.keycode >= 8, "keycode {} for {c}", k.keycode);
        }
    }
}
