//! Lexical helpers of the script compiler ([`mod@crate::compile`]), the
//! crate's only lexer of substitutions: matching-delimiter searches,
//! variable-name scans and backslash processing.

use crate::error::{TclError, TclResult};

/// Processes the backslash sequence starting at `chars[pos]` (which is the
/// backslash itself). Returns the replacement text and the index of the
/// first character after the sequence.
///
/// Supported sequences follow the Tcl book: `\b \f \n \r \t \v`, octal
/// `\ddd`, hex `\xhh`, and backslash-newline (plus following white space)
/// which collapses to a single space. Any other `\c` yields `c`.
pub(crate) fn parse_backslash(chars: &[char], pos: usize) -> (String, usize) {
    debug_assert_eq!(chars[pos], '\\');
    if pos + 1 >= chars.len() {
        return ("\\".into(), pos + 1);
    }
    let c = chars[pos + 1];
    match c {
        'b' => ("\u{8}".into(), pos + 2),
        'f' => ("\u{c}".into(), pos + 2),
        'n' => ("\n".into(), pos + 2),
        'r' => ("\r".into(), pos + 2),
        't' => ("\t".into(), pos + 2),
        'v' => ("\u{b}".into(), pos + 2),
        '\n' => {
            let mut j = pos + 2;
            while j < chars.len() && (chars[j] == ' ' || chars[j] == '\t') {
                j += 1;
            }
            (" ".into(), j)
        }
        'x' => {
            let mut j = pos + 2;
            let mut val: u32 = 0;
            let mut any = false;
            while j < chars.len() && chars[j].is_ascii_hexdigit() && j - (pos + 2) < 2 {
                val = val * 16 + chars[j].to_digit(16).unwrap();
                any = true;
                j += 1;
            }
            if any {
                (char::from_u32(val).unwrap_or('\u{fffd}').to_string(), j)
            } else {
                ("x".into(), pos + 2)
            }
        }
        '0'..='7' => {
            let mut j = pos + 1;
            let mut val: u32 = 0;
            while j < chars.len() && ('0'..='7').contains(&chars[j]) && j - (pos + 1) < 3 {
                val = val * 8 + chars[j].to_digit(8).unwrap();
                j += 1;
            }
            (char::from_u32(val).unwrap_or('\u{fffd}').to_string(), j)
        }
        other => (other.to_string(), pos + 2),
    }
}

/// Finds the index of the `}` matching the `{` at `chars[pos]`.
///
/// Braces nest; a backslash escapes the following character.
pub(crate) fn find_matching_brace(chars: &[char], pos: usize) -> TclResult<usize> {
    debug_assert_eq!(chars[pos], '{');
    let mut depth = 1usize;
    let mut i = pos + 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 1,
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Ok(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    Err(TclError::error("missing close-brace"))
}

/// Finds the index of the `]` matching the `[` at `chars[pos]`.
///
/// Skips nested brackets, braced blocks, double-quoted strings and
/// backslash escapes — the scan mirrors how Tcl finds the end of a command
/// substitution.
pub(crate) fn find_matching_bracket(chars: &[char], pos: usize) -> TclResult<usize> {
    debug_assert_eq!(chars[pos], '[');
    let mut depth = 1usize;
    let mut i = pos + 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 1,
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Ok(i);
                }
            }
            '{' => i = find_matching_brace(chars, i)?,
            '"' => {
                i += 1;
                while i < chars.len() && chars[i] != '"' {
                    if chars[i] == '\\' {
                        i += 1;
                    }
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    Err(TclError::error("missing close-bracket"))
}

/// Scans a variable name starting just after a `$` at `chars[pos]`.
///
/// Returns `(name, array_index_text, next_pos)`. The array index text (the
/// raw text between parentheses, still needing substitution) is `None` for
/// scalars. If no valid name follows, `name` is empty and the caller
/// treats the `$` literally.
pub(crate) fn scan_varname(chars: &[char], pos: usize) -> (String, Option<String>, usize) {
    let mut i = pos;
    if i < chars.len() && chars[i] == '{' {
        // ${name}: everything to the close brace, verbatim.
        let mut j = i + 1;
        while j < chars.len() && chars[j] != '}' {
            j += 1;
        }
        if j < chars.len() {
            return (chars[i + 1..j].iter().collect(), None, j + 1);
        }
        return (String::new(), None, pos);
    }
    let start = i;
    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
        i += 1;
    }
    if i == start {
        return (String::new(), None, pos);
    }
    let name: String = chars[start..i].iter().collect();
    if i < chars.len() && chars[i] == '(' {
        let mut depth = 1usize;
        let mut j = i + 1;
        while j < chars.len() {
            match chars[j] {
                '\\' => j += 1,
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j < chars.len() {
            let idx: String = chars[i + 1..j].iter().collect();
            return (name, Some(idx), j + 1);
        }
    }
    (name, None, i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cv(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    #[test]
    fn backslash_simple() {
        let c = cv("\\n");
        assert_eq!(parse_backslash(&c, 0), ("\n".into(), 2));
        let c = cv("\\q");
        assert_eq!(parse_backslash(&c, 0), ("q".into(), 2));
    }

    #[test]
    fn backslash_newline_eats_whitespace() {
        let c = cv("\\\n   x");
        let (s, p) = parse_backslash(&c, 0);
        assert_eq!(s, " ");
        assert_eq!(c[p], 'x');
    }

    #[test]
    fn backslash_octal_and_hex() {
        let c = cv("\\101");
        assert_eq!(parse_backslash(&c, 0), ("A".into(), 4));
        let c = cv("\\x41");
        assert_eq!(parse_backslash(&c, 0), ("A".into(), 4));
        let c = cv("\\x4");
        assert_eq!(parse_backslash(&c, 0).0, "\u{4}");
    }

    #[test]
    fn brace_matching() {
        let c = cv("{a{b}c}");
        assert_eq!(find_matching_brace(&c, 0).unwrap(), 6);
        let c = cv("{a\\}b}");
        assert_eq!(find_matching_brace(&c, 0).unwrap(), 5);
        let c = cv("{unclosed");
        assert!(find_matching_brace(&c, 0).is_err());
    }

    #[test]
    fn bracket_matching() {
        let c = cv("[a [b] c]");
        assert_eq!(find_matching_bracket(&c, 0).unwrap(), 8);
        let c = cv("[set x {]}]");
        assert_eq!(find_matching_bracket(&c, 0).unwrap(), 10);
        let c = cv("[set x \"]\"]");
        assert_eq!(find_matching_bracket(&c, 0).unwrap(), 10);
        let c = cv("[oops");
        assert!(find_matching_bracket(&c, 0).is_err());
    }

    #[test]
    fn varname_scan() {
        let c = cv("abc rest");
        assert_eq!(scan_varname(&c, 0), ("abc".into(), None, 3));
        let c = cv("arr(i,j) x");
        assert_eq!(scan_varname(&c, 0), ("arr".into(), Some("i,j".into()), 8));
        let c = cv("{strange name}x");
        assert_eq!(scan_varname(&c, 0), ("strange name".into(), None, 14));
        let c = cv(" not");
        assert_eq!(scan_varname(&c, 0).0, "");
    }
}
