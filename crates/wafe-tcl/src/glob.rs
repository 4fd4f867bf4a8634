//! Glob-style pattern matching (`Tcl_StringMatch`).
//!
//! Used by `string match`, `lsearch`, `switch -glob` and the `info` and
//! `array names` pattern filters. The toolkit crates' Xrm database
//! matches its own way and does not call it.
//!
//! Every pattern element other than `*` matches exactly one character, so
//! a failed match only ever needs to retry the most recent `*` one
//! character further on: matching takes O(|pattern|·|text|) time and
//! constant extra space, however many stars the pattern holds
//! (<https://research.swtch.com/glob>).

/// Matches `s` against a glob `pattern`.
///
/// Supported metacharacters: `*` (any run, including empty), `?` (any one
/// character), `[...]` (character set with ranges, leading `^` negates)
/// and `\x` (literal `x`; a trailing `\` is a literal backslash).
///
/// # Examples
///
/// ```
/// use wafe_tcl::glob::glob_match;
/// assert!(glob_match("*.tcl", "hello.tcl"));
/// assert!(glob_match("a[0-9]c", "a7c"));
/// assert!(!glob_match("a?c", "ac"));
/// ```
pub fn glob_match(pattern: &str, s: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = s.chars().collect();
    let (mut pi, mut ti) = (0, 0);
    // The pattern position just past the last `*` seen, and the text
    // position that star's run ends at on the current attempt.
    let mut star: Option<(usize, usize)> = None;
    while pi < p.len() || ti < t.len() {
        if pi < p.len() {
            if p[pi] == '*' {
                while pi < p.len() && p[pi] == '*' {
                    pi += 1;
                }
                if pi == p.len() {
                    return true;
                }
                star = Some((pi, ti));
                continue;
            }
            if let Some(next) = match_one(&p, pi, t.get(ti).copied()) {
                pi = next;
                ti += 1;
                continue;
            }
        }
        // A mismatch: let the last star swallow one more character.
        match star {
            Some((sp, st)) if st < t.len() => {
                star = Some((sp, st + 1));
                pi = sp;
                ti = st + 1;
            }
            _ => return false,
        }
    }
    true
}

/// Matches the one-character element at `p[pi]` (anything but `*`)
/// against `c`, the next text character if any. Returns the pattern
/// index just past the element on a match.
fn match_one(p: &[char], pi: usize, c: Option<char>) -> Option<usize> {
    let c = c?;
    match p[pi] {
        '?' => Some(pi + 1),
        '[' => match match_set(p, pi, c) {
            (true, next) => Some(next),
            (false, _) => None,
        },
        '\\' => {
            let lit = p.get(pi + 1).copied().unwrap_or('\\');
            (c == lit).then_some((pi + 2).min(p.len()))
        }
        lit => (c == lit).then_some(pi + 1),
    }
}

/// Matches one character against a `[...]` set starting at `p[pi]` (the
/// `[`). Returns (matched, index just past the closing `]`).
fn match_set(p: &[char], pi: usize, c: char) -> (bool, usize) {
    let mut i = pi + 1;
    let negate = i < p.len() && (p[i] == '^' || p[i] == '!');
    if negate {
        i += 1;
    }
    let mut matched = false;
    let mut first = true;
    while i < p.len() && (p[i] != ']' || first) {
        first = false;
        let lo = p[i];
        if i + 2 < p.len() && p[i + 1] == '-' && p[i + 2] != ']' {
            let hi = p[i + 2];
            if lo <= c && c <= hi {
                matched = true;
            }
            i += 3;
        } else {
            if lo == c {
                matched = true;
            }
            i += 1;
        }
    }
    let end = if i < p.len() { i + 1 } else { i };
    (matched != negate, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_match() {
        assert!(glob_match("abc", "abc"));
        assert!(!glob_match("abc", "abd"));
        assert!(!glob_match("abc", "ab"));
        assert!(!glob_match("ab", "abc"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "a"));
    }

    #[test]
    fn star() {
        assert!(glob_match("*", ""));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a*c", "abbbc"));
        assert!(glob_match("a*c", "ac"));
        assert!(glob_match("*.tcl", "x.tcl"));
        assert!(!glob_match("*.tcl", "x.tc"));
        assert!(glob_match("a**b", "ab"));
        assert!(glob_match("*a*b*", "xxaxxbxx"));
    }

    #[test]
    fn question() {
        assert!(glob_match("a?c", "abc"));
        assert!(!glob_match("a?c", "ac"));
        assert!(!glob_match("?", ""));
    }

    #[test]
    fn sets() {
        assert!(glob_match("[abc]", "b"));
        assert!(!glob_match("[abc]", "d"));
        assert!(glob_match("[a-z]x", "qx"));
        assert!(!glob_match("[a-z]", "A"));
        assert!(glob_match("[^abc]", "d"));
        assert!(!glob_match("[^abc]", "a"));
        assert!(glob_match("x[0-9][0-9]", "x42"));
    }

    #[test]
    fn escapes() {
        assert!(glob_match("a\\*c", "a*c"));
        assert!(!glob_match("a\\*c", "abc"));
        assert!(glob_match("\\[x\\]", "[x]"));
        assert!(glob_match("a\\", "a\\"));
        assert!(!glob_match("a\\", "a"));
        assert!(glob_match("*\\", "ab\\"));
    }

    #[test]
    fn wafe_resource_patterns() {
        // The flavour of pattern the Xrm layer leans on.
        assert!(glob_match("*Font", "topLevel.form.label.Font"));
        assert!(glob_match(
            "*b&h-lucida-medium-r*14*",
            "-b&h-lucida-medium-r-normal--14-"
        ));
    }
}
