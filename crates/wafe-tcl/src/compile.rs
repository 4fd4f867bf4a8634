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
//! This is the only lexer of substitutions: `expr` operands (`$a(i)`,
//! `[...]`, `"..."`, `{...}`) compile to the same tokens through
//! `compile_operand`, and `subst` text through `compile_subst`.
//!
//! Compilation is a pure function of the script text: it never touches
//! interpreter state, so compiled scripts are shared freely (`Rc`) between
//! the interpreter's script cache, proc definitions and loop bodies.
//!
//! Compilation never fails. A structural error (an unbalanced `{`, `"`
//! or `[`, text after a close brace or quote, nesting deeper than
//! [`MAX_NESTING_DEPTH`]) becomes a [`Token::Error`] placed exactly where
//! Tcl's lazy parser raises it, and scanning stops there. Everything
//! scanned before it stays: earlier commands, earlier words of the
//! failing command and earlier substitutions of the failing word. So a
//! syntax error in the third command still lets the first two run, and
//! `foo [incr a] "unterminated` still increments `a` before it fails,
//! exactly as Tcl behaves.

use std::rc::Rc;

use crate::error::{TclError, TclResult};
use crate::interp::{MAX_NESTING_DEPTH, NESTING_ERROR};
use crate::parser::{find_matching_brace, find_matching_bracket, parse_backslash, scan_varname};
use crate::value::Value;
use wafe_trace::{Metric, Telemetry};

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
    /// A syntax error, with its message: substituting it raises the
    /// error. It is always the last part scanned, so everything before
    /// it runs first.
    Error(Rc<str>),
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
    /// True when the last command ends in a [`Token::Error`], directly or
    /// inside a `[...]` or array index: running the script always raises
    /// that syntax error once the commands before it have run.
    pub(crate) syntax_error: bool,
    /// True when a command of the script, or of a `[...]` script inside
    /// it, starts with a literal `while`, `for` or `foreach`: such a
    /// script is lowered to bytecode on its first run, not its second.
    pub(crate) iterates: bool,
    /// The script's bytecode form, produced lazily once the script runs
    /// again (or iterates) and shared by everything that shares this
    /// script (the text cache, `Value` script reps, proc bodies). See
    /// [`crate::bc`].
    pub(crate) bc: std::cell::RefCell<crate::bc::BcSlot>,
}

/// Compiles a script into its parse-once form. Total: a structural
/// error compiles to a [`Token::Error`] (see the module docs).
pub fn compile(script: &str) -> CompiledScript {
    let chars: Vec<char> = script.chars().collect();
    compile_chars(&chars, 0)
}

/// Compiles free-form text under full-substitution rules (backslash,
/// `$`, `[]`; everything else is literal) into the parts to substitute
/// and concatenate — the text of `subst`. Total, like [`compile`].
pub(crate) fn compile_subst(text: &str) -> Vec<Token> {
    let chars: Vec<char> = text.chars().collect();
    compile_subst_chars(&chars, 0).unwrap_or_else(|parts| parts)
}

/// The outcome of scanning one item: the item and the position after
/// it, or — when scanning hit a syntax error — the item as far as it got,
/// ending in a [`Token::Error`]. Nothing after an error is scanned.
type Scan<T> = Result<(T, usize), T>;

fn error_token(msg: &str) -> Token {
    Token::Error(Rc::from(msg))
}

fn delimiter_error(e: TclError) -> Token {
    error_token(&e.message())
}

fn compile_chars(chars: &[char], depth: usize) -> CompiledScript {
    let mut commands = Vec::new();
    let mut syntax_error = false;
    if depth > MAX_NESTING_DEPTH {
        // The runtime nesting limit stops evaluation before this point;
        // the token keeps compilation bounded and the message the same.
        commands.push(CompiledCommand::new(vec![error_token(NESTING_ERROR)]));
        syntax_error = true;
    }
    let mut pos = 0usize;
    while !syntax_error && pos < chars.len() {
        match compile_command(chars, pos, depth) {
            Ok((words, next)) => {
                pos = next;
                if !words.is_empty() {
                    commands.push(CompiledCommand::new(words));
                }
            }
            Err(words) => {
                commands.push(CompiledCommand::new(words));
                syntax_error = true;
            }
        }
    }
    let iterates = commands.iter().any(|c| {
        matches!(c.words.first(), Some(Token::Literal(w)) if matches!(w.as_str(), "while" | "for" | "foreach"))
            || c.words.iter().any(token_iterates)
    });
    CompiledScript {
        commands,
        syntax_error,
        iterates,
        bc: Default::default(),
    }
}

/// True when `token` holds a `[...]` script that iterates.
fn token_iterates(token: &Token) -> bool {
    match token {
        Token::BracketSub(inner) => inner.iterates,
        Token::Compound(parts) | Token::VarSub(_, Some(parts)) => parts.iter().any(token_iterates),
        Token::Literal(_) | Token::VarSub(_, None) | Token::Error(_) => false,
    }
}

/// Skips white space that separates words (not newlines — those end the
/// command), including backslash-newline continuations.
fn skip_blanks(chars: &[char], mut pos: usize) -> usize {
    loop {
        while pos < chars.len() && (chars[pos] == ' ' || chars[pos] == '\t') {
            pos += 1;
        }
        if pos + 1 < chars.len() && chars[pos] == '\\' && chars[pos + 1] == '\n' {
            pos = parse_backslash(chars, pos).1;
            continue;
        }
        return pos;
    }
}

/// True when `pos` may follow a braced or quoted word: the end of the
/// text, white space, a command separator or a backslash-newline.
fn at_word_end(chars: &[char], pos: usize) -> bool {
    match chars.get(pos) {
        None | Some(' ' | '\t' | '\n' | ';') => true,
        Some('\\') => chars.get(pos + 1) == Some(&'\n'),
        Some(_) => false,
    }
}

/// Compiles one command starting at `pos`: its words and the position
/// just past its terminator. An empty word list means the segment held
/// only a separator or comment.
fn compile_command(chars: &[char], pos: usize, depth: usize) -> Scan<Vec<Token>> {
    let mut words: Vec<Token> = Vec::new();
    let mut pos = skip_blanks(chars, pos);
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
        let word = match chars[pos] {
            '{' => compile_braced(chars, pos),
            '"' => compile_quoted(chars, pos + 1, depth),
            _ => compile_bare(chars, pos, depth),
        };
        match word {
            Ok((w, next)) => {
                words.push(w);
                pos = skip_blanks(chars, next);
            }
            Err(w) => {
                words.push(w);
                return Err(words);
            }
        }
        if pos >= chars.len() {
            return Ok((words, pos));
        }
        if chars[pos] == '\n' || chars[pos] == ';' {
            return Ok((words, pos + 1));
        }
    }
}

/// Compiles a braced word starting at its `{`: verbatim text.
fn compile_braced(chars: &[char], pos: usize) -> Scan<Token> {
    let (text, next) = braced(chars, pos).map_err(delimiter_error)?;
    if !at_word_end(chars, next) {
        return Err(error_token("extra characters after close-brace"));
    }
    Ok((text, next))
}

/// The braced text starting at the `{` at `chars[pos]`, as a literal,
/// and the position after its close brace.
fn braced(chars: &[char], pos: usize) -> TclResult<(Token, usize)> {
    let end = find_matching_brace(chars, pos)?;
    let text: String = chars[pos + 1..end].iter().collect();
    Ok((Token::Literal(Value::from(text)), end + 1))
}

/// Compiles a double-quoted word starting just after the opening quote.
fn compile_quoted(chars: &[char], pos: usize, depth: usize) -> Scan<Token> {
    let mut word = Word::default();
    match word.scan(chars, pos, depth, |c, p| c[p] == '"') {
        Some(end) if end == chars.len() => Err(word.fail("missing \"")),
        Some(end) if at_word_end(chars, end + 1) => Ok((word.finish(), end + 1)),
        Some(_) => Err(word.fail("extra characters after close-quote")),
        None => Err(word.finish()),
    }
}

/// Compiles one `expr` operand starting at `chars[pos]` — a `$`-form,
/// `[script]`, `"quoted text"` or `{braced text}` — into the token a
/// script word of that form compiles to, and the position after it. The
/// script's word-end rule does not apply: an operator may follow.
///
/// `Err` is an expression syntax error, raised before anything is
/// evaluated: the operand's own close delimiter is missing, a `$` has
/// no name, or a quoted operand holds a syntax error (its close quote
/// cannot be found past one). A syntax error inside a `[...]` operand or
/// an array index stays in the token, as in a script word, and raises
/// when the operand is substituted.
pub(crate) fn compile_operand(chars: &[char], pos: usize) -> TclResult<(Token, usize)> {
    match chars[pos] {
        '$' => var_sub(chars, pos, 0)
            .ok_or_else(|| TclError::error("\"$\" without variable name in expression")),
        '[' => bracket_sub(chars, pos, 0),
        '{' => braced(chars, pos),
        _ => {
            let mut word = Word::default();
            match word.scan(chars, pos + 1, 0, |c, p| c[p] == '"') {
                Some(end) if end == chars.len() => Err(TclError::error("missing \" in expression")),
                Some(end) => Ok((word.finish(), end + 1)),
                None => {
                    let word = word.finish();
                    Err(TclError::error(
                        syntax_error(&word).expect("stops at an error"),
                    ))
                }
            }
        }
    }
}

/// Compiles a bare word starting at `pos`; white space, a command
/// separator or a backslash-newline ends it.
fn compile_bare(chars: &[char], pos: usize, depth: usize) -> Scan<Token> {
    let mut word = Word::default();
    match word.scan(chars, pos, depth, at_word_end) {
        Some(end) => Ok((word.finish(), end)),
        None => Err(word.finish()),
    }
}

/// Compiles substitution text; `Err` holds the parts when they end in a
/// syntax error.
fn compile_subst_chars(chars: &[char], depth: usize) -> Result<Vec<Token>, Vec<Token>> {
    let mut word = Word::default();
    match word.scan(chars, 0, depth, |_, _| false) {
        Some(_) => Ok(word.into_parts()),
        None => Err(word.into_parts()),
    }
}

/// The `$`-form starting at the `$` at `chars[pos]`, with its array
/// index compiled as substitution text, and the position after it.
/// `None` when no variable name follows the `$`.
fn var_sub(chars: &[char], pos: usize, depth: usize) -> Option<(Token, usize)> {
    let (name, index, next) = scan_varname(chars, pos + 1);
    if name.is_empty() {
        return None;
    }
    let index = index.map(|raw| {
        let raw: Vec<char> = raw.chars().collect();
        compile_subst_chars(&raw, depth).unwrap_or_else(|parts| parts)
    });
    Some((Token::VarSub(name, index), next))
}

/// The `[script]` starting at `chars[pos]`, compiled, and the position
/// after its `]`. `Err` when the `[` has no matching `]`.
fn bracket_sub(chars: &[char], pos: usize, depth: usize) -> TclResult<(Token, usize)> {
    let end = find_matching_bracket(chars, pos)?;
    let inner = compile_chars(&chars[pos + 1..end], depth + 1);
    Ok((Token::BracketSub(Rc::new(inner)), end + 1))
}

/// The message of the syntax error substituting `token` raises, if any:
/// the [`Token::Error`] it is or ends in (scanning stops at the first
/// error, so a failing part is always the last one).
pub(crate) fn syntax_error(token: &Token) -> Option<&str> {
    match token {
        Token::Error(msg) => Some(msg),
        Token::BracketSub(inner) if inner.syntax_error => {
            syntax_error(inner.commands.last()?.words.last()?)
        }
        Token::Compound(parts) | Token::VarSub(_, Some(parts)) => syntax_error(parts.last()?),
        _ => None,
    }
}

/// The parts of one word, or of substitution text, as they are scanned:
/// the finished tokens plus the literal run in progress.
#[derive(Default)]
struct Word {
    parts: Vec<Token>,
    lit: String,
}

impl Word {
    /// Ends the literal run in progress, if any.
    fn flush(&mut self) {
        if !self.lit.is_empty() {
            let lit = std::mem::take(&mut self.lit);
            self.parts.push(Token::Literal(Value::from(lit)));
        }
    }

    fn push(&mut self, tok: Token) {
        self.flush();
        self.parts.push(tok);
    }

    /// Scans text from `pos` into this word, up to the first position
    /// where `end` holds or the end of the text, and returns that
    /// position; `None` when a substitution ended in a syntax error (then
    /// the word's last part).
    fn scan(
        &mut self,
        chars: &[char],
        mut pos: usize,
        depth: usize,
        end: impl Fn(&[char], usize) -> bool,
    ) -> Option<usize> {
        while pos < chars.len() && !end(chars, pos) {
            match chars[pos] {
                '\\' | '$' | '[' => pos = self.substitution(chars, pos, depth)?,
                c => {
                    self.lit.push(c);
                    pos += 1;
                }
            }
        }
        Some(pos)
    }

    /// Compiles the backslash sequence, `$`-form or `[script]` at
    /// `chars[pos]` into this word. Returns the position after it, or
    /// `None` when it ended in a syntax error (then the word's last
    /// part).
    fn substitution(&mut self, chars: &[char], pos: usize, depth: usize) -> Option<usize> {
        let (tok, next) = match chars[pos] {
            '\\' => {
                let (s, next) = parse_backslash(chars, pos);
                self.lit.push_str(&s);
                return Some(next);
            }
            '$' => match var_sub(chars, pos, depth) {
                Some(sub) => sub,
                None => {
                    // `$` with no name is a literal dollar.
                    self.lit.push('$');
                    return Some(pos + 1);
                }
            },
            _ => match bracket_sub(chars, pos, depth) {
                Ok(sub) => sub,
                Err(e) => {
                    self.push(delimiter_error(e));
                    return None;
                }
            },
        };
        let failed = syntax_error(&tok).is_some();
        self.push(tok);
        (!failed).then_some(next)
    }

    /// Ends the word with a syntax error.
    fn fail(mut self, msg: &str) -> Token {
        self.push(error_token(msg));
        self.finish()
    }

    fn into_parts(mut self) -> Vec<Token> {
        self.flush();
        self.parts
    }

    /// The word's token, folding the single-part and empty cases.
    fn finish(self) -> Token {
        let mut parts = self.into_parts();
        match parts.len() {
            0 => Token::Literal(Value::empty()),
            1 => parts.pop().expect("len checked"),
            _ => Token::Compound(parts),
        }
    }
}

/// Keys longer than this are neither kept nor counted: the caches are
/// meant for hot loop bodies, proc calls and guards, not one-shot
/// `source` text (which still compiles once for its own run).
const MAX_CACHED_KEY_LEN: usize = 1 << 16;

/// A bounded, least-recently-used cache from script/expression text to
/// its compiled form. Keys are the full source text, so a cache hit is
/// exact: same text, same parse. At limit 0, or for a key longer than
/// [`MAX_CACHED_KEY_LEN`], the cache keeps and counts nothing.
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
    /// The store counters of this cache's hits, misses and evictions.
    metrics: [Metric; 3],
}

struct LruNode<V> {
    key: Rc<str>,
    value: V,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl<V: Clone> LruCache<V> {
    /// An empty cache counting into `[hits, misses, evictions]`.
    pub fn new(limit: usize, metrics: [Metric; 3]) -> Self {
        LruCache {
            map: crate::hash::FnvMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            limit,
            metrics,
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

    /// True when `key` bypasses the cache: neither kept nor counted.
    fn bypassed(&self, key: &str) -> bool {
        self.limit == 0 || key.len() > MAX_CACHED_KEY_LEN
    }

    /// Looks up `key`, refreshing its recency and counting hit/miss.
    pub fn get(&mut self, key: &str, tel: &Telemetry) -> Option<V> {
        if self.bypassed(key) {
            return None;
        }
        match self.map.get(key).copied() {
            Some(slot) => {
                tel.count(self.metrics[0]);
                self.unlink(slot);
                self.push_front(slot);
                Some(self.node(slot).value.clone())
            }
            None => {
                tel.count(self.metrics[1]);
                None
            }
        }
    }

    /// Looks up `key`, building and inserting its value on a miss.
    pub fn get_or_insert_with(
        &mut self,
        key: &str,
        tel: &Telemetry,
        make: impl FnOnce() -> V,
    ) -> V {
        if let Some(v) = self.get(key, tel) {
            return v;
        }
        let v = make();
        self.insert(key, v.clone(), tel);
        v
    }

    /// Inserts `key`, evicting the least-recently-used entry when full.
    pub fn insert(&mut self, key: &str, value: V, tel: &Telemetry) {
        if self.bypassed(key) {
            return;
        }
        if let Some(slot) = self.map.get(key).copied() {
            self.node(slot).value = value;
            self.unlink(slot);
            self.push_front(slot);
            return;
        }
        while self.map.len() >= self.limit {
            self.evict_one(tel);
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

    fn evict_one(&mut self, tel: &Telemetry) {
        let slot = self.tail;
        if slot == NIL {
            return;
        }
        self.unlink(slot);
        let node = self.slots[slot].take().expect("tail slot is occupied");
        self.map.remove(&node.key);
        self.free.push(slot);
        tel.count(self.metrics[2]);
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
    pub fn set_limit(&mut self, limit: usize, tel: &Telemetry) {
        self.limit = limit;
        if limit == 0 {
            self.clear();
        } else {
            while self.map.len() > limit {
                self.evict_one(tel);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(s: &str) -> CompiledScript {
        let c = compile(s);
        assert!(!c.syntax_error, "{s:?} compiles cleanly");
        c
    }

    /// The message of the error token that ends `c`.
    fn error_message(c: &CompiledScript) -> Option<String> {
        syntax_error(c.commands.last()?.words.last()?).map(str::to_string)
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
    fn structural_errors_compile_to_error_tokens() {
        for (script, msg) in [
            ("set x {unclosed", "missing close-brace"),
            ("set x \"unclosed", "missing \""),
            ("set x [unclosed", "missing close-bracket"),
            ("set x {a}b", "extra characters after close-brace"),
        ] {
            let c = compile(script);
            assert!(c.syntax_error, "{script:?}");
            assert_eq!(error_message(&c).as_deref(), Some(msg), "{script:?}");
        }
    }

    #[test]
    fn scanning_stops_at_the_error_and_keeps_what_came_before() {
        let c = compile("incr a; foo [incr a] \"x $b [incr a] unterminated\nnever run");
        assert!(c.syntax_error);
        assert_eq!(c.commands.len(), 2, "nothing after the error is compiled");
        let words = &c.commands[1].words;
        assert_eq!(words.len(), 3);
        assert!(matches!(&words[1], Token::BracketSub(_)));
        match &words[2] {
            Token::Compound(parts) => {
                assert!(matches!(&parts[1], Token::VarSub(n, None) if n == "b"));
                assert!(matches!(&parts[3], Token::BracketSub(_)));
                assert!(matches!(parts.last(), Some(Token::Error(m)) if &**m == "missing \""));
            }
            other => panic!("expected Compound, got {other:?}"),
        }
    }

    #[test]
    fn errors_inside_brackets_and_indices_end_the_enclosing_script() {
        for (script, msg) in [
            ("set x [set y {]", "missing close-brace"),
            ("set x [a; b \"c]", "missing close-bracket"),
            ("set x a[b \"c\"d] e", "extra characters after close-quote"),
            ("set x $arr([y)", "missing close-bracket"),
        ] {
            let c = compile(script);
            assert!(c.syntax_error, "{script:?}");
            assert_eq!(c.commands.len(), 1, "{script:?}");
            assert_eq!(error_message(&c).as_deref(), Some(msg), "{script:?}");
        }
        // A braced body is only text here: its errors belong to whoever
        // evaluates it later.
        assert!(!compile("while 1 {set x \"oops}").syntax_error);
    }

    #[test]
    fn nesting_past_the_limit_compiles_to_the_runtime_message() {
        let deep = format!(
            "{}x{}",
            "[".repeat(MAX_NESTING_DEPTH + 1),
            "]".repeat(MAX_NESTING_DEPTH + 1)
        );
        let c = compile(&deep);
        assert!(c.syntax_error);
        assert_eq!(error_message(&c).as_deref(), Some(NESTING_ERROR));
        let limit = format!(
            "{}x{}",
            "[".repeat(MAX_NESTING_DEPTH),
            "]".repeat(MAX_NESTING_DEPTH)
        );
        assert!(!compile(&limit).syntax_error);
    }

    #[test]
    fn empty_quoted_word_is_kept() {
        let c = compiled("cmd \"\"");
        assert_eq!(c.commands[0].words.len(), 2);
        assert!(matches!(&c.commands[0].words[1], Token::Literal(s) if s.is_empty()));
    }

    #[test]
    fn lru_bound_and_counters() {
        use Metric::{TclCacheSubstEvictions, TclCacheSubstHits, TclCacheSubstMisses};
        let t = Telemetry::new();
        let mut c: LruCache<u32> = LruCache::new(
            2,
            [
                TclCacheSubstHits,
                TclCacheSubstMisses,
                TclCacheSubstEvictions,
            ],
        );
        assert_eq!(c.get("a", &t), None);
        c.insert("a", 1, &t);
        c.insert("b", 2, &t);
        assert_eq!(c.get("a", &t), Some(1));
        c.insert("c", 3, &t); // Evicts "b", the least recently used.
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("b", &t), None);
        assert_eq!(c.get("a", &t), Some(1));
        assert_eq!(c.get("c", &t), Some(3));
        assert_eq!(t.value(TclCacheSubstEvictions), 1);
        assert!(t.value(TclCacheSubstHits) >= 3);
        assert!(t.value(TclCacheSubstMisses) >= 2);
        c.set_limit(1, &t);
        assert_eq!(c.len(), 1);
        let (hits, misses) = (t.value(TclCacheSubstHits), t.value(TclCacheSubstMisses));
        c.set_limit(0, &t);
        assert_eq!(c.len(), 0);
        c.insert("d", 4, &t);
        assert_eq!(c.len(), 0, "limit 0 disables insertion");
        assert_eq!(c.get("d", &t), None);
        c.set_limit(2, &t);
        let long = "x".repeat(MAX_CACHED_KEY_LEN + 1);
        c.insert(&long, 5, &t);
        assert_eq!(c.get(&long, &t), None);
        assert_eq!(c.len(), 0, "an over-long key is not kept");
        assert_eq!(t.value(TclCacheSubstHits), hits, "bypasses count no hit");
        assert_eq!(
            t.value(TclCacheSubstMisses),
            misses,
            "bypasses count no miss"
        );
    }
}
