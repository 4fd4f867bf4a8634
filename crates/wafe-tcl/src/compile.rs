//! Parse-once compilation of Tcl scripts.
//!
//! Tcl 6.x re-parses every piece of script each time it runs — the paper
//! concedes this as the frontend's main performance limitation, and the
//! E18 benchmark demonstrates it. This module removes the re-parse: a
//! script is lexed a single time into a [`CompiledScript`] — a list of
//! commands, each a list of word [`Token`]s — and only the *substitution*
//! step (`$var`, `[cmd]`, already-folded backslashes) runs per
//! evaluation.
//!
//! What is decided at compile time:
//!
//! * command boundaries (newlines, semicolons, comments, backslash-newline
//!   continuations),
//! * word boundaries and word kind (braced, quoted, bare),
//! * backslash sequences (they are position-independent, so they fold
//!   into literal text),
//! * the structure of every `$name`, `$name(index)` and `[script]`
//!   substitution — bracketed scripts compile recursively, array-index
//!   text compiles to its own token list.
//!
//! What still happens per evaluation: variable reads, nested-script
//! evaluation for `[...]`, and the concatenation of compound words.
//!
//! Compilation is a pure function of the script text: it never touches
//! interpreter state, so compiled scripts are shared freely (`Rc`) between
//! the interpreter's script cache, proc definitions and loop bodies.
//!
//! Scripts that fail to compile (unbalanced braces, unterminated quotes)
//! are *not* errors at this layer's call sites: the interpreter falls back
//! to the legacy parse-as-you-go evaluator so that a syntax error in the
//! third command still lets the first two run, exactly as Tcl behaves.

use std::rc::Rc;

use crate::error::{TclError, TclResult};
use crate::interp::MAX_NESTING_DEPTH;
use crate::parser::{find_matching_brace, find_matching_bracket, parse_backslash, scan_varname};
use crate::value::Value;

/// One substitution unit of a compiled word.
#[derive(Debug, Clone)]
pub enum Token {
    /// Verbatim text: braced words, and literal runs of quoted/bare words
    /// with backslash sequences already folded in. Stored as a shared
    /// [`Value`] so every evaluation of the script reuses the same object
    /// — cached numeric reps and interned command names accumulate across
    /// loop iterations instead of being re-derived.
    Literal(Value),
    /// `$name` or `$name(index)`; the index text is itself a compiled
    /// token list (it undergoes one round of substitution per read).
    VarSub(String, Option<Vec<Token>>),
    /// `[script]`: the bracketed script, compiled recursively.
    BracketSub(Rc<CompiledScript>),
    /// A word assembled from several parts, e.g. `a$b[c]` or `"x $y"`.
    Compound(Vec<Token>),
}

/// One command: a list of word tokens (`words[0]` names the command).
#[derive(Debug, Clone)]
pub struct CompiledCommand {
    /// The command's words, in order; each is one [`Token`].
    pub words: Vec<Token>,
    /// When every word is a literal, the fully-substituted argv —
    /// evaluation invokes it directly with zero per-iteration allocation
    /// (the common case: `incr d`, `while {..} {..}`, braced bodies).
    /// The `Value`s are shared with `words`, so rep caches persist.
    pub literal: Option<Vec<Value>>,
}

impl CompiledCommand {
    fn new(words: Vec<Token>) -> CompiledCommand {
        let literal = words
            .iter()
            .map(|t| match t {
                Token::Literal(s) => Some(s.clone()),
                _ => None,
            })
            .collect::<Option<Vec<Value>>>();
        CompiledCommand { words, literal }
    }
}

/// A whole script: the commands it runs, in order.
#[derive(Debug, Clone, Default)]
pub struct CompiledScript {
    /// The commands; separators and comments are already gone.
    pub commands: Vec<CompiledCommand>,
    /// The script's bytecode form, produced lazily by the first bytecode
    /// execution and shared by everything that shares this script (the
    /// text cache, `Value` script reps, proc bodies). See [`crate::bc`].
    pub(crate) bc: std::cell::RefCell<crate::bc::BcSlot>,
}

/// Compiles a script into its parse-once form.
///
/// Fails on structural errors (unbalanced delimiters, text after a close
/// brace/quote) — callers fall back to the legacy evaluator in that case
/// so error *timing* matches Tcl's lazy parser.
pub fn compile(script: &str) -> TclResult<CompiledScript> {
    let chars: Vec<char> = script.chars().collect();
    compile_chars(&chars, 0)
}

fn compile_chars(chars: &[char], depth: usize) -> TclResult<CompiledScript> {
    if depth > MAX_NESTING_DEPTH {
        // Too deeply nested to compile safely; the legacy evaluator's
        // runtime depth limit reports this case.
        return Err(TclError::error("script too deeply nested to compile"));
    }
    let mut commands = Vec::new();
    let mut pos = 0usize;
    while pos < chars.len() {
        let (words, next) = compile_command(chars, pos, depth)?;
        pos = next;
        if !words.is_empty() {
            commands.push(CompiledCommand::new(words));
        }
    }
    Ok(CompiledScript {
        commands,
        bc: Default::default(),
    })
}

/// Compiles one command starting at `pos`; mirrors
/// `Interp::parse_command` word for word, but builds tokens instead of
/// performing substitutions.
fn compile_command(chars: &[char], mut pos: usize, depth: usize) -> TclResult<(Vec<Token>, usize)> {
    let mut words: Vec<Token> = Vec::new();
    // Skip leading white space (not newlines — those terminate).
    loop {
        while pos < chars.len() && (chars[pos] == ' ' || chars[pos] == '\t') {
            pos += 1;
        }
        if pos + 1 < chars.len() && chars[pos] == '\\' && chars[pos + 1] == '\n' {
            let (_, next) = parse_backslash(chars, pos);
            pos = next;
            continue;
        }
        break;
    }
    if pos >= chars.len() {
        return Ok((words, pos));
    }
    if chars[pos] == '\n' || chars[pos] == ';' {
        return Ok((words, pos + 1));
    }
    if chars[pos] == '#' {
        // Comment to end of line; backslash-newline continues it.
        while pos < chars.len() && chars[pos] != '\n' {
            if chars[pos] == '\\' && pos + 1 < chars.len() {
                pos += 1;
            }
            pos += 1;
        }
        return Ok((words, (pos + 1).min(chars.len())));
    }
    loop {
        // Compile one word.
        let word;
        match chars[pos] {
            '{' => {
                let end = find_matching_brace(chars, pos)?;
                word = Token::Literal(Value::from(chars[pos + 1..end].iter().collect::<String>()));
                pos = end + 1;
                if pos < chars.len()
                    && !matches!(chars[pos], ' ' | '\t' | '\n' | ';')
                    && !(chars[pos] == '\\' && pos + 1 < chars.len() && chars[pos + 1] == '\n')
                {
                    return Err(TclError::error("extra characters after close-brace"));
                }
            }
            '"' => {
                let (w, next) = compile_quoted(chars, pos + 1, depth)?;
                word = w;
                pos = next;
                if pos < chars.len()
                    && !matches!(chars[pos], ' ' | '\t' | '\n' | ';')
                    && !(chars[pos] == '\\' && pos + 1 < chars.len() && chars[pos + 1] == '\n')
                {
                    return Err(TclError::error("extra characters after close-quote"));
                }
            }
            _ => {
                let (w, next) = compile_bare(chars, pos, depth)?;
                word = w;
                pos = next;
            }
        }
        words.push(word);
        // Skip intra-command white space.
        loop {
            while pos < chars.len() && (chars[pos] == ' ' || chars[pos] == '\t') {
                pos += 1;
            }
            if pos + 1 < chars.len() && chars[pos] == '\\' && chars[pos + 1] == '\n' {
                let (_, next) = parse_backslash(chars, pos);
                pos = next;
                continue;
            }
            break;
        }
        if pos >= chars.len() {
            return Ok((words, pos));
        }
        if chars[pos] == '\n' || chars[pos] == ';' {
            return Ok((words, pos + 1));
        }
    }
}

/// Collects token parts into the final word token, folding the
/// single-part and empty cases.
fn finish_word(mut parts: Vec<Token>) -> Token {
    match parts.len() {
        0 => Token::Literal(Value::empty()),
        1 => parts.pop().expect("len checked"),
        _ => Token::Compound(parts),
    }
}

/// Pushes an accumulated literal run onto `parts`, if non-empty.
fn flush_literal(parts: &mut Vec<Token>, lit: &mut String) {
    if !lit.is_empty() {
        parts.push(Token::Literal(Value::from(std::mem::take(lit))));
    }
}

/// Compiles a double-quoted word starting just after the opening quote.
fn compile_quoted(chars: &[char], mut pos: usize, depth: usize) -> TclResult<(Token, usize)> {
    let mut parts: Vec<Token> = Vec::new();
    let mut lit = String::new();
    while pos < chars.len() {
        match chars[pos] {
            '"' => {
                flush_literal(&mut parts, &mut lit);
                return Ok((finish_word(parts), pos + 1));
            }
            '\\' => {
                let (s, next) = parse_backslash(chars, pos);
                lit.push_str(&s);
                pos = next;
            }
            '$' => {
                let (tok, next) = compile_dollar(chars, pos, depth)?;
                push_sub(&mut parts, &mut lit, tok);
                pos = next;
            }
            '[' => {
                let end = find_matching_bracket(chars, pos)?;
                flush_literal(&mut parts, &mut lit);
                let inner = compile_chars(&chars[pos + 1..end], depth + 1)?;
                parts.push(Token::BracketSub(Rc::new(inner)));
                pos = end + 1;
            }
            c => {
                lit.push(c);
                pos += 1;
            }
        }
    }
    Err(TclError::error("missing \""))
}

/// Compiles a bare word starting at `pos`.
fn compile_bare(chars: &[char], mut pos: usize, depth: usize) -> TclResult<(Token, usize)> {
    let mut parts: Vec<Token> = Vec::new();
    let mut lit = String::new();
    while pos < chars.len() {
        match chars[pos] {
            ' ' | '\t' | '\n' | ';' => break,
            '\\' => {
                if pos + 1 < chars.len() && chars[pos + 1] == '\n' {
                    break; // Backslash-newline ends the word (acts as separator).
                }
                let (s, next) = parse_backslash(chars, pos);
                lit.push_str(&s);
                pos = next;
            }
            '$' => {
                let (tok, next) = compile_dollar(chars, pos, depth)?;
                push_sub(&mut parts, &mut lit, tok);
                pos = next;
            }
            '[' => {
                let end = find_matching_bracket(chars, pos)?;
                flush_literal(&mut parts, &mut lit);
                let inner = compile_chars(&chars[pos + 1..end], depth + 1)?;
                parts.push(Token::BracketSub(Rc::new(inner)));
                pos = end + 1;
            }
            c => {
                lit.push(c);
                pos += 1;
            }
        }
    }
    flush_literal(&mut parts, &mut lit);
    Ok((finish_word(parts), pos))
}

/// Adds a compiled `$`-substitution to the parts, merging the "`$` with
/// no name is a literal dollar" case back into the literal run.
fn push_sub(parts: &mut Vec<Token>, lit: &mut String, tok: Token) {
    match tok {
        Token::Literal(s) => lit.push_str(&s),
        other => {
            flush_literal(parts, lit);
            parts.push(other);
        }
    }
}

/// Compiles a `$`-form starting at `chars[pos]` (the `$`).
fn compile_dollar(chars: &[char], pos: usize, depth: usize) -> TclResult<(Token, usize)> {
    let (name, index, next) = scan_varname(chars, pos + 1);
    if name.is_empty() {
        return Ok((Token::Literal("$".into()), pos + 1));
    }
    match index {
        None => Ok((Token::VarSub(name, None), next)),
        Some(raw) => {
            let raw_chars: Vec<char> = raw.chars().collect();
            let idx = compile_subst(&raw_chars, depth)?;
            Ok((Token::VarSub(name, Some(idx)), next))
        }
    }
}

/// Compiles free-form text under full-substitution rules (the behaviour
/// of `Interp::substitute_all`: backslash, `$`, `[]`; everything else is
/// literal). Used for array-index text.
fn compile_subst(chars: &[char], depth: usize) -> TclResult<Vec<Token>> {
    let mut parts: Vec<Token> = Vec::new();
    let mut lit = String::new();
    let mut pos = 0usize;
    while pos < chars.len() {
        match chars[pos] {
            '\\' => {
                let (s, next) = parse_backslash(chars, pos);
                lit.push_str(&s);
                pos = next;
            }
            '$' => {
                let (tok, next) = compile_dollar(chars, pos, depth)?;
                push_sub(&mut parts, &mut lit, tok);
                pos = next;
            }
            '[' => {
                let end = find_matching_bracket(chars, pos)?;
                flush_literal(&mut parts, &mut lit);
                let inner = compile_chars(&chars[pos + 1..end], depth + 1)?;
                parts.push(Token::BracketSub(Rc::new(inner)));
                pos = end + 1;
            }
            c => {
                lit.push(c);
                pos += 1;
            }
        }
    }
    flush_literal(&mut parts, &mut lit);
    Ok(parts)
}

/// A bounded, least-recently-used cache from script/expression text to
/// its compiled form. Keys are the full source text, so a cache hit is
/// exact: same text, same parse.
///
/// Entries sit in a doubly linked recency list threaded through a slab,
/// so a hit, an insert and an eviction each cost O(1) — a protocol line
/// seen once is a miss plus an eviction, and must not pay a scan of the
/// whole cache.
pub(crate) struct LruCache<V> {
    map: crate::hash::FnvMap<Rc<str>, usize>,
    slots: Vec<Option<LruNode<V>>>,
    free: Vec<usize>,
    /// Most and least recently used slots ([`NIL`] when empty).
    head: usize,
    tail: usize,
    limit: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct LruNode<V> {
    key: Rc<str>,
    value: V,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl<V: Clone> LruCache<V> {
    pub fn new(limit: usize) -> Self {
        LruCache {
            map: crate::hash::FnvMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            limit,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn node(&mut self, slot: usize) -> &mut LruNode<V> {
        self.slots[slot].as_mut().expect("linked slot is occupied")
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = {
            let n = self.node(slot);
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node(n).prev = prev,
        }
    }

    fn push_front(&mut self, slot: usize) {
        let head = self.head;
        {
            let n = self.node(slot);
            n.prev = NIL;
            n.next = head;
        }
        match head {
            NIL => self.tail = slot,
            h => self.node(h).prev = slot,
        }
        self.head = slot;
    }

    /// Looks up `key`, refreshing its recency and counting hit/miss.
    pub fn get(&mut self, key: &str) -> Option<V> {
        match self.map.get(key).copied() {
            Some(slot) => {
                self.hits += 1;
                self.unlink(slot);
                self.push_front(slot);
                Some(self.node(slot).value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `key`, evicting the least-recently-used entry when full.
    pub fn insert(&mut self, key: &str, value: V) {
        if self.limit == 0 {
            return;
        }
        if let Some(slot) = self.map.get(key).copied() {
            self.node(slot).value = value;
            self.unlink(slot);
            self.push_front(slot);
            return;
        }
        while self.map.len() >= self.limit {
            self.evict_one();
        }
        let key: Rc<str> = Rc::from(key);
        let node = LruNode {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(node);
                slot
            }
            None => {
                self.slots.push(Some(node));
                self.slots.len() - 1
            }
        };
        self.push_front(slot);
        self.map.insert(key, slot);
    }

    fn evict_one(&mut self) {
        let slot = self.tail;
        if slot == NIL {
            return;
        }
        self.unlink(slot);
        let node = self.slots[slot].take().expect("tail slot is occupied");
        self.map.remove(&node.key);
        self.free.push(slot);
        self.evictions += 1;
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Changes the bound, trimming down to it immediately.
    pub fn set_limit(&mut self, limit: usize) {
        self.limit = limit;
        if limit == 0 {
            self.clear();
        } else {
            while self.map.len() > limit {
                self.evict_one();
            }
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(s: &str) -> CompiledScript {
        compile(s).expect("compiles")
    }

    #[test]
    fn literal_words() {
        let c = compiled("set x hello");
        assert_eq!(c.commands.len(), 1);
        assert_eq!(c.commands[0].words.len(), 3);
        assert!(matches!(&c.commands[0].words[0], Token::Literal(s) if s == "set"));
        assert!(matches!(&c.commands[0].words[2], Token::Literal(s) if s == "hello"));
    }

    #[test]
    fn braced_word_is_verbatim() {
        let c = compiled("set x {$a [b] \\n}");
        assert!(matches!(&c.commands[0].words[2], Token::Literal(s) if s == "$a [b] \\n"));
    }

    #[test]
    fn separators_and_comments_vanish() {
        let c = compiled("# comment\nset a 1; set b 2\n\n;\nset c 3");
        assert_eq!(c.commands.len(), 3);
    }

    #[test]
    fn varsub_forms() {
        let c = compiled("set r $a");
        assert!(matches!(&c.commands[0].words[2], Token::VarSub(n, None) if n == "a"));
        let c = compiled("set r ${strange name}");
        assert!(matches!(&c.commands[0].words[2], Token::VarSub(n, None) if n == "strange name"));
        let c = compiled("set r $arr(k)");
        match &c.commands[0].words[2] {
            Token::VarSub(n, Some(idx)) => {
                assert_eq!(n, "arr");
                assert!(matches!(&idx[0], Token::Literal(s) if s == "k"));
            }
            other => panic!("expected VarSub, got {other:?}"),
        }
    }

    #[test]
    fn dynamic_array_index_compiles_to_tokens() {
        let c = compiled("set r $arr($key)");
        match &c.commands[0].words[2] {
            Token::VarSub(_, Some(idx)) => {
                assert!(matches!(&idx[0], Token::VarSub(n, None) if n == "key"));
            }
            other => panic!("expected VarSub, got {other:?}"),
        }
    }

    #[test]
    fn bracket_sub_compiles_recursively() {
        let c = compiled("set r [set x 5]");
        match &c.commands[0].words[2] {
            Token::BracketSub(inner) => assert_eq!(inner.commands.len(), 1),
            other => panic!("expected BracketSub, got {other:?}"),
        }
    }

    #[test]
    fn compound_word_parts() {
        let c = compiled("set r a$b[c]d");
        match &c.commands[0].words[2] {
            Token::Compound(parts) => {
                assert_eq!(parts.len(), 4);
                assert!(matches!(&parts[0], Token::Literal(s) if s == "a"));
                assert!(matches!(&parts[1], Token::VarSub(n, None) if n == "b"));
                assert!(matches!(&parts[2], Token::BracketSub(_)));
                assert!(matches!(&parts[3], Token::Literal(s) if s == "d"));
            }
            other => panic!("expected Compound, got {other:?}"),
        }
    }

    #[test]
    fn backslashes_fold_into_literals() {
        let c = compiled("set x a\\tb");
        assert!(matches!(&c.commands[0].words[2], Token::Literal(s) if s == "a\tb"));
        let c = compiled("set x \"a\\x41b\"");
        assert!(matches!(&c.commands[0].words[2], Token::Literal(s) if s == "aAb"));
    }

    #[test]
    fn lone_dollar_stays_literal() {
        let c = compiled("set x a$");
        assert!(matches!(&c.commands[0].words[2], Token::Literal(s) if s == "a$"));
    }

    #[test]
    fn structural_errors_fail_compile() {
        assert!(compile("set x {unclosed").is_err());
        assert!(compile("set x \"unclosed").is_err());
        assert!(compile("set x [unclosed").is_err());
        assert!(compile("set x {a}b").is_err());
    }

    #[test]
    fn empty_quoted_word_is_kept() {
        let c = compiled("cmd \"\"");
        assert_eq!(c.commands[0].words.len(), 2);
        assert!(matches!(&c.commands[0].words[1], Token::Literal(s) if s.is_empty()));
    }

    #[test]
    fn lru_bound_and_counters() {
        let mut c: LruCache<u32> = LruCache::new(2);
        assert_eq!(c.get("a"), None);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get("a"), Some(1));
        c.insert("c", 3); // Evicts "b", the least recently used.
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.get("c"), Some(3));
        assert_eq!(c.evictions(), 1);
        assert!(c.hits() >= 3);
        assert!(c.misses() >= 2);
        c.set_limit(1);
        assert_eq!(c.len(), 1);
        c.set_limit(0);
        assert_eq!(c.len(), 0);
        c.insert("d", 4);
        assert_eq!(c.len(), 0, "limit 0 disables insertion");
    }
}
