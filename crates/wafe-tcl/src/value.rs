//! Dual-representation Tcl values.
//!
//! Wafe inherits Tcl 6's strings-only data model; this module gives the
//! interpreter the Tcl 8 `Tcl_Obj` leap: a [`Value`] is a cheaply clonable
//! handle (`Rc`) to a string representation plus a lazily computed, cached
//! internal representation (integer, double, boolean, parsed list, or
//! compiled script). The string rep stays authoritative — "everything is a
//! string" semantics are observable at the Tcl level exactly as before —
//! but repeated numeric or list use of the same value no longer re-parses
//! text on every touch ("shimmering").
//!
//! Invalidation rule: a `Value` is immutable. Mutation in the interpreter
//! (e.g. `set`, `lappend`) replaces the variable's `Value` with a new one,
//! so a cached rep can never go stale. Commands that build a new string
//! from an old value construct a fresh `Value`.

use std::borrow::Borrow;
use std::cell::{OnceCell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::compile::CompiledScript;
use crate::error::TclResult;
use crate::list::parse_list;
use wafe_trace::{Metric, Telemetry};

/// Internal (cached) representation of a value. `None` means only the
/// string rep exists so far.
#[derive(Debug, Clone, Default)]
pub enum IntRep {
    #[default]
    None,
    /// Canonical decimal integer (round-trips to the identical string).
    Int(i64),
    /// Floating point value; rendered form matches the string rep.
    Double(f64),
    /// Boolean literal (`0/1/true/false/yes/no/on/off`).
    Bool(bool),
    /// Parsed Tcl list; shared so `lindex`/`foreach` etc. are O(1) re-use.
    List(Rc<Vec<Value>>),
    /// Compiled script body (cached by `eval`/proc bodies).
    Script(Rc<CompiledScript>),
}

struct Inner {
    /// String representation. Always set for string-born values; computed
    /// on demand for value-born (int/list/…) ones.
    str_rep: OnceCell<Rc<str>>,
    /// Cached internal representation.
    int_rep: RefCell<IntRep>,
    /// Cached command-table resolution (epoch, handle) when this value is
    /// used as argv[0]; validated against the interpreter's epoch counter
    /// (bumped on register/rename/unregister/proc).
    cmd: RefCell<Option<(u64, crate::interp::CmdIntern)>>,
}

/// A shared, dual-representation Tcl value. Clone is an `Rc` bump.
#[derive(Clone)]
pub struct Value(Rc<Inner>);

// ---------------------------------------------------------------------------
// Shimmer telemetry. `Value` methods cannot reach an `Interp`, so they
// count into the store of the interpreter running the current top-level
// evaluation, which installs it through `count_into` (single-threaded,
// like the rest of the interpreter). Outside any evaluation nothing is
// counted.
// ---------------------------------------------------------------------------

thread_local! {
    static STORE: RefCell<Option<Telemetry>> = const { RefCell::new(None) };
}

/// Makes `tel` the store shimmer counts go to until the guard drops,
/// which reinstates the previous one.
pub(crate) fn count_into(tel: &Telemetry) -> StoreGuard {
    StoreGuard(STORE.with(|s| s.replace(Some(tel.clone()))))
}

/// Restores the previously installed shimmer store on drop.
pub(crate) struct StoreGuard(Option<Telemetry>);

impl Drop for StoreGuard {
    fn drop(&mut self) {
        // `try_with`: a guard dropped during thread teardown must not panic.
        let _ = STORE.try_with(|s| *s.borrow_mut() = self.0.take());
    }
}

fn stat(m: Metric) {
    STORE.with(|s| {
        if let Some(tel) = &*s.borrow() {
            tel.count(m);
        }
    });
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

impl Value {
    /// An empty-string value.
    pub fn empty() -> Value {
        Value::from("")
    }

    fn from_parts(str_rep: Option<Rc<str>>, rep: IntRep) -> Value {
        let cell = OnceCell::new();
        if let Some(s) = str_rep {
            let _ = cell.set(s);
        }
        Value(Rc::new(Inner {
            str_rep: cell,
            int_rep: RefCell::new(rep),
            cmd: RefCell::new(None),
        }))
    }

    /// A value born from an integer: carries the Int rep, renders lazily.
    pub fn from_int(n: i64) -> Value {
        Value::from_parts(None, IntRep::Int(n))
    }

    /// A value born from a double; rendered via Tcl's double formatting.
    /// Non-finite values stay string-only: `expr`'s coercion treats
    /// "NaN"/"Inf" as strings, and a cached Double rep would change that.
    pub fn from_double(d: f64) -> Value {
        if d.is_finite() {
            Value::from_parts(None, IntRep::Double(d))
        } else {
            Value::from(crate::expr::format_double(d))
        }
    }

    /// A value born from a parsed list; renders via `list_join` lazily.
    pub fn from_list(elems: Vec<Value>) -> Value {
        Value::from_parts(None, IntRep::List(Rc::new(elems)))
    }

    /// A value sharing an existing list rep.
    pub fn from_list_rc(elems: Rc<Vec<Value>>) -> Value {
        Value::from_parts(None, IntRep::List(elems))
    }

    // -----------------------------------------------------------------
    // Checkpoint support (session snapshots)
    // -----------------------------------------------------------------

    /// The value's parts for checkpointing: the string rep *if already
    /// computed* and a clone of the cached internal rep. Reading never
    /// forces a render or a parse, so capturing a snapshot cannot
    /// shimmer the value it reads.
    pub fn snapshot_parts(&self) -> (Option<Rc<str>>, IntRep) {
        (
            self.0.str_rep.get().cloned(),
            self.0.int_rep.borrow().clone(),
        )
    }

    /// Rebuilds a value from checkpointed parts, re-validating the rep
    /// against the string rep: a corrupt (or hand-edited) snapshot must
    /// not plant a cached rep the normal `as_int`/`as_double` canonical
    /// checks would have refused. Anything non-canonical falls back to
    /// the string-only form; `Script` reps are never restored (compiled
    /// bodies are rebuilt lazily on first eval).
    pub fn from_snapshot_parts(str_rep: Option<Rc<str>>, rep: IntRep) -> Value {
        let rep = match rep {
            IntRep::Script(_) => IntRep::None,
            IntRep::Int(n) => match &str_rep {
                Some(s) if !canonical_int(s, n) => IntRep::None,
                _ => IntRep::Int(n),
            },
            IntRep::Double(d) => {
                let ok = d.is_finite()
                    && match &str_rep {
                        Some(s) => crate::expr::format_double(d) == **s,
                        None => true,
                    };
                if ok {
                    IntRep::Double(d)
                } else {
                    IntRep::None
                }
            }
            IntRep::Bool(b) => match &str_rep {
                None => IntRep::Bool(b),
                Some(s) if (**s == *"1") == b && (**s == *"1" || **s == *"0") => IntRep::Bool(b),
                Some(_) => IntRep::None,
            },
            other => other,
        };
        if str_rep.is_none() && matches!(rep, IntRep::None) {
            return Value::empty();
        }
        Value::from_parts(str_rep, rep)
    }

    // -----------------------------------------------------------------
    // String representation
    // -----------------------------------------------------------------

    /// The string representation, rendering it from the internal rep if
    /// this value was value-born.
    pub fn as_str(&self) -> &str {
        self.str_rc()
    }

    fn str_rc(&self) -> &Rc<str> {
        self.0.str_rep.get_or_init(|| {
            stat(Metric::TclShimmerRenders);
            let rep = self.0.int_rep.borrow();
            let rendered: String = match &*rep {
                IntRep::Int(n) => n.to_string(),
                IntRep::Double(d) => crate::expr::format_double(*d),
                IntRep::Bool(b) => if *b { "1" } else { "0" }.to_string(),
                IntRep::List(elems) => join_values(elems),
                IntRep::Script(_) | IntRep::None => String::new(),
            };
            Rc::from(rendered.as_str())
        })
    }

    /// The shared `Rc<str>` string rep (cheap to clone).
    pub fn shared_str(&self) -> Rc<str> {
        self.str_rc().clone()
    }

    /// True when the string rep has already been computed.
    pub fn has_str_rep(&self) -> bool {
        self.0.str_rep.get().is_some()
    }

    // -----------------------------------------------------------------
    // Numeric reps
    // -----------------------------------------------------------------

    /// The cached integer rep, if present and valid.
    pub fn cached_int(&self) -> Option<i64> {
        match &*self.0.int_rep.borrow() {
            IntRep::Int(n) => {
                stat(Metric::TclShimmerRepHits);
                Some(*n)
            }
            _ => None,
        }
    }

    /// The cached double rep, if present.
    pub fn cached_double(&self) -> Option<f64> {
        match &*self.0.int_rep.borrow() {
            IntRep::Double(d) => {
                stat(Metric::TclShimmerRepHits);
                Some(*d)
            }
            IntRep::Int(n) => {
                stat(Metric::TclShimmerRepHits);
                Some(*n as f64)
            }
            _ => None,
        }
    }

    /// Parse as integer, caching the rep when the textual form is the
    /// canonical decimal rendering (so caching can never change how other
    /// consumers — e.g. `incr`'s strict parser — see the value).
    pub fn as_int(&self) -> Option<i64> {
        if let Some(n) = self.cached_int() {
            return Some(n);
        }
        let s = self.as_str();
        let n: i64 = s.trim().parse().ok()?;
        if canonical_int(s, n) {
            stat(Metric::TclShimmerIntParses);
            self.set_rep(IntRep::Int(n));
        }
        Some(n)
    }

    /// Parse as double (no caching unless canonical is certain; the expr
    /// layer formats doubles in its own canonical way, so we only cache
    /// when round-trip matches).
    pub fn as_double(&self) -> Option<f64> {
        if let Some(d) = self.cached_double() {
            return Some(d);
        }
        let s = self.as_str();
        let d: f64 = s.trim().parse().ok()?;
        if d.is_finite() && crate::expr::format_double(d) == s {
            stat(Metric::TclShimmerDoubleParses);
            self.set_rep(IntRep::Double(d));
        }
        Some(d)
    }

    /// Cache an integer rep iff the string rep is the canonical decimal
    /// rendering of `n` (used by `expr`'s coercion after a parse).
    pub fn cache_int_canonical(&self, n: i64) {
        if canonical_int(self.as_str(), n) {
            stat(Metric::TclShimmerIntParses);
            self.set_rep(IntRep::Int(n));
        }
    }

    /// Cache a double rep iff the string rep round-trips exactly through
    /// Tcl's double formatting (and the value is finite — non-finite
    /// spellings coerce as strings).
    pub fn cache_double_canonical(&self, d: f64) {
        if d.is_finite() && crate::expr::format_double(d) == self.as_str() {
            stat(Metric::TclShimmerDoubleParses);
            self.set_rep(IntRep::Double(d));
        }
    }

    fn set_rep(&self, rep: IntRep) {
        // Never clobber a List/Script rep with a numeric one; those are
        // the expensive ones to rebuild.
        let mut cur = self.0.int_rep.borrow_mut();
        if matches!(&*cur, IntRep::None) {
            *cur = rep;
        }
    }

    // -----------------------------------------------------------------
    // List rep
    // -----------------------------------------------------------------

    /// The parsed list rep, parsing and caching on first use.
    pub fn as_list(&self) -> TclResult<Rc<Vec<Value>>> {
        if let IntRep::List(elems) = &*self.0.int_rep.borrow() {
            stat(Metric::TclShimmerRepHits);
            return Ok(elems.clone());
        }
        let parsed = parse_list(self.as_str())?;
        let elems: Rc<Vec<Value>> = Rc::new(parsed.into_iter().map(Value::from).collect());
        stat(Metric::TclShimmerListParses);
        let mut cur = self.0.int_rep.borrow_mut();
        if !matches!(&*cur, IntRep::Script(_)) {
            *cur = IntRep::List(elems.clone());
        }
        Ok(elems)
    }

    /// Sole-owner rep steal for amortized O(1) `lappend`.
    ///
    /// When exactly two handles reference this value — the variable slot
    /// being rewritten and the caller's clone of it — the cached list rep
    /// is moved out so the underlying vector has a single owner and can be
    /// extended in place. The slot is about to be overwritten with the
    /// extended list, so the brief rep-less window is unobservable. Any
    /// other sharing (`set b $l`, `lappend l $l`, …) returns `None` and
    /// the caller falls back to a counted copy-on-write clone.
    pub(crate) fn list_rep_for_update(&self) -> Option<Rc<Vec<Value>>> {
        if Rc::strong_count(&self.0) != 2 {
            return None;
        }
        let mut cur = self.0.int_rep.borrow_mut();
        if matches!(&*cur, IntRep::List(_)) {
            if let IntRep::List(rc) = std::mem::take(&mut *cur) {
                stat(Metric::TclShimmerRepHits);
                return Some(rc);
            }
        }
        None
    }

    // -----------------------------------------------------------------
    // Script rep
    // -----------------------------------------------------------------

    /// The cached compiled-script rep, if present.
    pub fn cached_script(&self) -> Option<Rc<CompiledScript>> {
        match &*self.0.int_rep.borrow() {
            IntRep::Script(c) => {
                stat(Metric::TclShimmerRepHits);
                Some(c.clone())
            }
            _ => None,
        }
    }

    /// Cache a compiled-script rep (only onto a rep-less value).
    pub fn cache_script(&self, compiled: Rc<CompiledScript>) {
        self.set_rep(IntRep::Script(compiled));
    }

    // -----------------------------------------------------------------
    // Command interning
    // -----------------------------------------------------------------

    pub(crate) fn cached_cmd(&self, epoch: u64) -> Option<crate::interp::CmdIntern> {
        let cmd = self.0.cmd.borrow();
        match &*cmd {
            Some((e, c)) if *e == epoch => {
                stat(Metric::TclShimmerCmdInternHits);
                Some(c.clone())
            }
            _ => None,
        }
    }

    pub(crate) fn intern_cmd(&self, epoch: u64, intern: crate::interp::CmdIntern) {
        *self.0.cmd.borrow_mut() = Some((epoch, intern));
    }
}

/// True when `s` is exactly the canonical decimal rendering of `n`.
fn canonical_int(s: &str, n: i64) -> bool {
    // Cheap check without allocating for the common small-digit case:
    // itoa-free comparison via a stack buffer would be ideal; a short
    // to_string is fine here because this runs once per distinct value.
    s == n.to_string()
}

/// Join values into a canonical Tcl list string. Produces exactly what
/// [`list_join`] yields for the same element texts, without the
/// intermediate `Vec<String>`.
pub fn join_values(elems: &[Value]) -> String {
    let mut out = String::new();
    for (i, v) in elems.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&crate::list::list_quote(v.as_str()));
    }
    out
}

/// Record a copy-on-write list clone (called by the list commands).
pub(crate) fn note_list_cow() {
    stat(Metric::TclShimmerListCow);
}

// ---------------------------------------------------------------------------
// Trait plumbing: make `Value` behave like a string almost everywhere.
// ---------------------------------------------------------------------------

impl Default for Value {
    fn default() -> Value {
        Value::empty()
    }
}

impl std::ops::Deref for Value {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Value {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Value {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        Rc::ptr_eq(&self.0, &other.0) || self.as_str() == other.as_str()
    }
}

impl Eq for Value {}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Value> for str {
    fn eq(&self, other: &Value) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Value> for String {
    fn eq(&self, other: &Value) -> bool {
        self.as_str() == other.as_str()
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::from_parts(Some(Rc::from(s.as_str())), IntRep::None)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::from_parts(Some(Rc::from(s)), IntRep::None)
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Value {
        Value::from(s.as_str())
    }
}

impl From<Rc<str>> for Value {
    fn from(s: Rc<str>) -> Value {
        Value::from_parts(Some(s), IntRep::None)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::from_int(n)
    }
}

impl From<f64> for Value {
    fn from(d: f64) -> Value {
        Value::from_double(d)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::from(if b { "1" } else { "0" })
    }
}

impl From<Value> for String {
    fn from(v: Value) -> String {
        v.as_str().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_roundtrip() {
        let v = Value::from("hello world");
        assert_eq!(v.as_str(), "hello world");
        assert_eq!(v, "hello world");
        assert_eq!(v.to_string(), "hello world");
    }

    #[test]
    fn int_born_renders_lazily() {
        let v = Value::from_int(42);
        assert!(!v.has_str_rep());
        assert_eq!(v.as_str(), "42");
        assert_eq!(v.cached_int(), Some(42));
    }

    #[test]
    fn int_parse_caches_canonical_only() {
        let v = Value::from("17");
        assert_eq!(v.as_int(), Some(17));
        assert_eq!(v.cached_int(), Some(17));
        // Hex parses via expr's coercion, not here; "0x11" must NOT get an
        // Int rep because `incr` would then accept what it used to reject.
        let h = Value::from("0x11");
        assert_eq!(h.as_int(), None);
        assert_eq!(h.cached_int(), None);
        // Leading-zero / whitespace forms parse but are not cached.
        let z = Value::from(" 7 ");
        assert_eq!(z.as_int(), Some(7));
        assert_eq!(z.cached_int(), None);
    }

    #[test]
    fn double_roundtrip() {
        let v = Value::from_double(1.5);
        assert_eq!(v.as_str(), "1.5");
        assert_eq!(v.cached_double(), Some(1.5));
        let w = Value::from_double(2.0);
        assert_eq!(w.as_str(), "2.0");
    }

    #[test]
    fn list_rep_roundtrip() {
        let v = Value::from("a b {c d} e");
        let l = v.as_list().unwrap();
        assert_eq!(l.len(), 4);
        assert_eq!(l[2], "c d");
        // Cached: second call returns the same Rc.
        let l2 = v.as_list().unwrap();
        assert!(Rc::ptr_eq(&l, &l2));
    }

    #[test]
    fn list_born_renders_canonically() {
        let v = Value::from_list(vec![Value::from("a"), Value::from("c d"), Value::from("")]);
        assert_eq!(v.as_str(), "a {c d} {}");
    }

    #[test]
    fn value_eq_is_string_eq() {
        assert_eq!(Value::from_int(5), Value::from("5"));
        assert_ne!(Value::from("05"), Value::from("5"));
    }

    #[test]
    fn borrow_str_enables_join() {
        let argv = [Value::from("a"), Value::from("b")];
        let joined = argv.join(" ");
        assert_eq!(joined, "a b");
    }

    #[test]
    fn shimmer_counters_move() {
        let tel = Telemetry::new();
        let guard = count_into(&tel);
        let v = Value::from("123");
        let _ = v.as_int();
        let _ = v.as_int();
        assert_eq!(tel.value(Metric::TclShimmerIntParses), 1);
        assert!(tel.value(Metric::TclShimmerRepHits) >= 1);
        drop(guard);
        let _ = Value::from("456").as_int();
        assert_eq!(tel.value(Metric::TclShimmerIntParses), 1, "uninstalled");
    }
}
