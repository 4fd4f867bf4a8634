//! A small regular-expression engine for `regexp` and `regsub`.
//!
//! Tcl 6.x shipped Henry Spencer's regexp package; this module
//! reimplements the same dialect: `^ $ . * + ? [] [^] () |` with up to
//! nine capturing groups, backtracking semantics, leftmost match with
//! greedy quantifiers.

/// A parsed regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    root: Node,
    /// Number of capturing groups.
    pub groups: usize,
    nocase: bool,
}

#[derive(Debug, Clone)]
enum Node {
    /// Sequence of nodes.
    Seq(Vec<Node>),
    /// Alternation.
    Alt(Vec<Node>),
    /// A literal character.
    Char(char),
    /// Any character (`.`).
    Any,
    /// Character class; bool = negated.
    Class(Vec<(char, char)>, bool),
    /// Start anchor.
    Bol,
    /// End anchor.
    Eol,
    /// Greedy repetition: (node, min, max).
    Repeat(Box<Node>, usize, Option<usize>),
    /// Capturing group.
    Group(Box<Node>, usize),
}

/// A successful match: byte-free char-index spans, `spans[0]` is the
/// whole match, `spans[i]` the i-th group (None if unmatched).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Char-index ranges for the match and each group.
    pub spans: Vec<Option<(usize, usize)>>,
}

impl Regex {
    /// Compiles a pattern.
    pub fn compile(pattern: &str, nocase: bool) -> Result<Regex, String> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut p = Parser {
            chars: &chars,
            pos: 0,
            groups: 0,
            depth: 0,
            pieces: 0,
        };
        let root = p.parse_alt()?;
        if p.pos != p.chars.len() {
            return Err(format!("couldn't parse pattern near position {}", p.pos));
        }
        Ok(Regex {
            root,
            groups: p.groups,
            nocase,
        })
    }

    /// Finds the leftmost match in `text`.
    pub fn find(&self, text: &str) -> Option<Match> {
        let chars: Vec<char> = if self.nocase {
            text.chars().flat_map(|c| c.to_lowercase()).collect()
        } else {
            text.chars().collect()
        };
        for start in 0..=chars.len() {
            let mut caps = vec![None; self.groups + 1];
            if let Some(end) = self.match_node(&self.root, &chars, start, &mut caps) {
                caps[0] = Some((start, end));
                return Some(Match { spans: caps });
            }
        }
        None
    }

    /// True if the pattern matches anywhere in `text`.
    pub fn is_match(&self, text: &str) -> bool {
        self.find(text).is_some()
    }

    fn match_node(
        &self,
        node: &Node,
        t: &[char],
        pos: usize,
        caps: &mut Vec<Option<(usize, usize)>>,
    ) -> Option<usize> {
        match node {
            Node::Seq(items) => self.match_seq(items, t, pos, caps),
            Node::Alt(branches) => {
                for b in branches {
                    let saved = caps.clone();
                    if let Some(end) = self.match_node(b, t, pos, caps) {
                        return Some(end);
                    }
                    *caps = saved;
                }
                None
            }
            Node::Char(c) => {
                let c = if self.nocase {
                    c.to_lowercase().next().unwrap_or(*c)
                } else {
                    *c
                };
                if pos < t.len() && t[pos] == c {
                    Some(pos + 1)
                } else {
                    None
                }
            }
            Node::Any => {
                if pos < t.len() {
                    Some(pos + 1)
                } else {
                    None
                }
            }
            Node::Class(ranges, negated) => {
                if pos >= t.len() {
                    return None;
                }
                let c = t[pos];
                let inside = ranges.iter().any(|(lo, hi)| *lo <= c && c <= *hi);
                if inside != *negated {
                    Some(pos + 1)
                } else {
                    None
                }
            }
            Node::Bol => {
                if pos == 0 {
                    Some(pos)
                } else {
                    None
                }
            }
            Node::Eol => {
                if pos == t.len() {
                    Some(pos)
                } else {
                    None
                }
            }
            Node::Repeat(inner, min, max) => {
                self.match_repeat(inner, *min, *max, &[], t, pos, caps)
            }
            Node::Group(inner, idx) => {
                let end = self.match_node(inner, t, pos, caps)?;
                caps[*idx] = Some((pos, end));
                Some(end)
            }
        }
    }

    fn match_seq(
        &self,
        mut items: &[Node],
        t: &[char],
        mut pos: usize,
        caps: &mut Vec<Option<(usize, usize)>>,
    ) -> Option<usize> {
        // Items that match at one place run in a loop; only an item that
        // can backtrack passes the rest of the sequence on in a call. (A
        // sequence holds pieces: a group, a repeat or a single-place
        // atom, never an alternation.)
        loop {
            match items.split_first() {
                None => return Some(pos),
                Some((Node::Repeat(inner, min, max), rest)) => {
                    return self.match_repeat(inner, *min, *max, rest, t, pos, caps)
                }
                // Groups containing alternations/repeats also need the
                // continuation threaded through.
                Some((Node::Group(inner, idx), rest)) => {
                    let saved = caps.clone();
                    if let Some(end) = self.match_group_then(inner, *idx, rest, t, pos, caps) {
                        return Some(end);
                    }
                    *caps = saved;
                    return None;
                }
                Some((first, rest)) => {
                    pos = self.match_node(first, t, pos, caps)?;
                    items = rest;
                }
            }
        }
    }

    fn match_group_then(
        &self,
        inner: &Node,
        idx: usize,
        rest: &[Node],
        t: &[char],
        pos: usize,
        caps: &mut Vec<Option<(usize, usize)>>,
    ) -> Option<usize> {
        // Enumerate the group's possible ends via alternation branches.
        if let Node::Alt(branches) = inner {
            for b in branches {
                let saved = caps.clone();
                if let Some(mid) = self.match_node(b, t, pos, caps) {
                    caps[idx] = Some((pos, mid));
                    if let Some(end) = self.match_seq(rest, t, mid, caps) {
                        return Some(end);
                    }
                }
                *caps = saved;
            }
            None
        } else {
            let mid = self.match_node(inner, t, pos, caps)?;
            caps[idx] = Some((pos, mid));
            self.match_seq(rest, t, mid, caps)
        }
    }

    /// Greedy repetition with backtracking into the continuation `rest`.
    #[allow(clippy::too_many_arguments)]
    fn match_repeat(
        &self,
        inner: &Node,
        min: usize,
        max: Option<usize>,
        rest: &[Node],
        t: &[char],
        pos: usize,
        caps: &mut Vec<Option<(usize, usize)>>,
    ) -> Option<usize> {
        // Collect all reachable end positions greedily.
        let mut ends = vec![pos];
        let mut cur = pos;
        loop {
            if let Some(m) = max {
                if ends.len() > m {
                    break;
                }
            }
            match self.match_node(inner, t, cur, caps) {
                Some(next) if next > cur || ends.len() <= min => {
                    if next == cur {
                        break; // Zero-width repetition: stop.
                    }
                    ends.push(next);
                    cur = next;
                }
                _ => break,
            }
        }
        // Try longest first (greedy), at least `min` repetitions.
        while ends.len() > min {
            let end = *ends.last().unwrap();
            let saved = caps.clone();
            if let Some(fin) = self.match_seq(rest, t, end, caps) {
                return Some(fin);
            }
            *caps = saved;
            ends.pop();
        }
        if ends.len() > min {
            let end = ends[min];
            return self.match_seq(rest, t, end, caps);
        }
        None
    }
}

/// How deep groups may nest. Parsing and matching recurse once per
/// level.
pub const MAX_GROUP_DEPTH: usize = 100;

/// How many groups, quantifiers and `|` branches one pattern may hold.
/// Matching recurses through each of them in a sequence (a literal run
/// matches in a loop), so this bounds the matcher's native stack the way
/// Spencer's "regexp too big" bounded his program size.
pub const MAX_PIECES: usize = 1000;

struct Parser<'a> {
    chars: &'a [char],
    pos: usize,
    groups: usize,
    /// Groups open at the scan position.
    depth: usize,
    /// Groups, quantifiers and branches so far.
    pieces: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    /// Counts one group, quantifier or branch against [`MAX_PIECES`].
    fn piece(&mut self) -> Result<(), String> {
        self.pieces += 1;
        if self.pieces > MAX_PIECES {
            return Err(format!(
                "regexp too big: more than {MAX_PIECES} groups, quantifiers and branches"
            ));
        }
        Ok(())
    }

    fn parse_alt(&mut self) -> Result<Node, String> {
        let mut branches = vec![self.parse_seq()?];
        while self.peek() == Some('|') {
            self.pos += 1;
            self.piece()?;
            branches.push(self.parse_seq()?);
        }
        if branches.len() == 1 {
            Ok(branches.pop().unwrap())
        } else {
            Ok(Node::Alt(branches))
        }
    }

    fn parse_seq(&mut self) -> Result<Node, String> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.parse_piece()?);
        }
        Ok(Node::Seq(items))
    }

    fn parse_piece(&mut self) -> Result<Node, String> {
        let atom = self.parse_atom()?;
        if matches!(self.peek(), Some('*' | '+' | '?')) {
            self.piece()?;
        }
        match self.peek() {
            Some('*') => {
                self.pos += 1;
                Ok(Node::Repeat(Box::new(atom), 0, None))
            }
            Some('+') => {
                self.pos += 1;
                Ok(Node::Repeat(Box::new(atom), 1, None))
            }
            Some('?') => {
                self.pos += 1;
                Ok(Node::Repeat(Box::new(atom), 0, Some(1)))
            }
            _ => Ok(atom),
        }
    }

    fn parse_atom(&mut self) -> Result<Node, String> {
        let c = self.peek().ok_or("unexpected end of pattern")?;
        self.pos += 1;
        match c {
            '(' => {
                self.piece()?;
                self.depth += 1;
                if self.depth > MAX_GROUP_DEPTH {
                    return Err(format!("groups nested deeper than {MAX_GROUP_DEPTH}"));
                }
                self.groups += 1;
                let idx = self.groups;
                let inner = self.parse_alt()?;
                if self.peek() != Some(')') {
                    return Err("unmatched (".into());
                }
                self.pos += 1;
                self.depth -= 1;
                Ok(Node::Group(Box::new(inner), idx))
            }
            '[' => self.parse_class(),
            '.' => Ok(Node::Any),
            '^' => Ok(Node::Bol),
            '$' => Ok(Node::Eol),
            '\\' => {
                let e = self.peek().ok_or("trailing backslash")?;
                self.pos += 1;
                Ok(Node::Char(match e {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    other => other,
                }))
            }
            '*' | '+' | '?' => Err(format!("quantifier '{c}' with nothing to repeat")),
            other => Ok(Node::Char(other)),
        }
    }

    fn parse_class(&mut self) -> Result<Node, String> {
        let negated = self.peek() == Some('^');
        if negated {
            self.pos += 1;
        }
        let mut ranges = Vec::new();
        let mut first = true;
        loop {
            let c = self.peek().ok_or("unmatched [")?;
            if c == ']' && !first {
                self.pos += 1;
                break;
            }
            first = false;
            self.pos += 1;
            let lo = if c == '\\' {
                let e = self.peek().ok_or("trailing backslash in class")?;
                self.pos += 1;
                e
            } else {
                c
            };
            if self.peek() == Some('-')
                && self
                    .chars
                    .get(self.pos + 1)
                    .map(|&c| c != ']')
                    .unwrap_or(false)
            {
                self.pos += 1;
                let hi = self.peek().ok_or("unterminated range")?;
                self.pos += 1;
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        Ok(Node::Class(ranges, negated))
    }
}

/// Expands a `regsub` substitution spec: `&` is the whole match,
/// `\1`..`\9` are groups, `\&` and `\\` are literals.
pub fn expand_subspec(spec: &str, text: &[char], m: &Match) -> String {
    let mut out = String::new();
    let mut it = spec.chars().peekable();
    let span_text = |s: Option<(usize, usize)>| -> String {
        match s {
            Some((a, b)) => text[a..b].iter().collect(),
            None => String::new(),
        }
    };
    while let Some(c) = it.next() {
        match c {
            '&' => out.push_str(&span_text(m.spans[0])),
            '\\' => match it.next() {
                Some(d @ '1'..='9') => {
                    let idx = d.to_digit(10).unwrap() as usize;
                    if idx < m.spans.len() {
                        out.push_str(&span_text(m.spans[idx]));
                    }
                }
                Some('0') => out.push_str(&span_text(m.spans[0])),
                Some(other) => out.push(other),
                None => out.push('\\'),
            },
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(pattern: &str, text: &str) -> Option<Vec<Option<(usize, usize)>>> {
        Regex::compile(pattern, false)
            .unwrap()
            .find(text)
            .map(|m| m.spans)
    }

    fn matched(pattern: &str, text: &str) -> bool {
        Regex::compile(pattern, false).unwrap().is_match(text)
    }

    #[test]
    fn literals_and_any() {
        assert!(matched("abc", "xxabcxx"));
        assert!(!matched("abc", "abd"));
        assert!(matched("a.c", "axc"));
        assert!(!matched("a.c", "ac"));
    }

    #[test]
    fn anchors() {
        assert!(matched("^abc", "abcdef"));
        assert!(!matched("^bc", "abc"));
        assert!(matched("def$", "abcdef"));
        assert!(!matched("de$", "abcdef"));
        assert!(matched("^$", ""));
        assert!(!matched("^$", "x"));
    }

    #[test]
    fn quantifiers() {
        assert!(matched("ab*c", "ac"));
        assert!(matched("ab*c", "abbbc"));
        assert!(matched("ab+c", "abc"));
        assert!(!matched("ab+c", "ac"));
        assert!(matched("ab?c", "ac"));
        assert!(matched("ab?c", "abc"));
        assert!(!matched("ab?c", "abbc"));
    }

    #[test]
    fn greedy_with_backtracking() {
        // `.*c` must backtrack to let the final c match.
        let s = spans(".*c", "abcabc").unwrap();
        assert_eq!(s[0], Some((0, 6)));
        let s = spans("a.*b", "aXbYb").unwrap();
        assert_eq!(s[0], Some((0, 5)));
    }

    #[test]
    fn classes() {
        assert!(matched("[abc]+", "cab"));
        assert!(!matched("[abc]+", "xyz"));
        assert!(matched("[a-z0-9]+", "abc123"));
        assert!(matched("[^0-9]+", "abc"));
        assert!(!matched("^[^0-9]+$", "ab1c"));
        assert!(matched("[]]", "]"));
        assert!(matched("a[-x]b", "a-b"));
    }

    #[test]
    fn alternation() {
        assert!(matched("cat|dog", "hotdog"));
        assert!(matched("^(cat|dog)$", "cat"));
        assert!(!matched("^(cat|dog)$", "cow"));
        let s = spans("(a+|b+)c", "bbbc").unwrap();
        assert_eq!(s[1], Some((0, 3)));
    }

    #[test]
    fn groups_capture() {
        let s = spans("(a+)(b+)", "xaabbby").unwrap();
        assert_eq!(s[0], Some((1, 6)));
        assert_eq!(s[1], Some((1, 3)));
        assert_eq!(s[2], Some((3, 6)));
    }

    #[test]
    fn nested_groups() {
        let s = spans("((a|b)+)c", "ababc").unwrap();
        assert_eq!(s[0], Some((0, 5)));
        assert_eq!(s[1], Some((0, 4)));
    }

    #[test]
    fn leftmost_match_wins() {
        let s = spans("a+", "xxaaayaa").unwrap();
        assert_eq!(s[0], Some((2, 5)));
    }

    #[test]
    fn nocase() {
        let r = Regex::compile("hello", true).unwrap();
        assert!(r.is_match("say HELLO there"));
        let r = Regex::compile("[a-z]+", true).unwrap();
        assert!(r.is_match("ABC"));
    }

    #[test]
    fn escapes() {
        assert!(matched("a\\.b", "a.b"));
        assert!(!matched("a\\.b", "axb"));
        assert!(matched("a\\*", "a*"));
        assert!(matched("\\\\", "\\"));
    }

    #[test]
    fn compile_errors() {
        assert!(Regex::compile("(", false).is_err());
        assert!(Regex::compile("[abc", false).is_err());
        assert!(Regex::compile("*x", false).is_err());
        assert!(Regex::compile("a)", false).is_err());
        assert!(Regex::compile("a\\", false).is_err());
    }

    #[test]
    fn subspec_expansion() {
        let text: Vec<char> = "hello world".chars().collect();
        let m = Regex::compile("(w[a-z]+)", false)
            .unwrap()
            .find("hello world")
            .unwrap();
        assert_eq!(expand_subspec("<&>", &text, &m), "<world>");
        assert_eq!(expand_subspec("[\\1]", &text, &m), "[world]");
        assert_eq!(expand_subspec("\\&", &text, &m), "&");
        assert_eq!(expand_subspec("\\\\", &text, &m), "\\");
    }

    #[test]
    fn zero_width_star_terminates() {
        // (x?)* style patterns must not loop forever.
        assert!(matched("(x?)*y", "y"));
        // A dangling second quantifier is a compile error in this dialect.
        assert!(Regex::compile("a**", false).is_err());
    }
}
