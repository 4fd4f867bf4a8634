//! Unified telemetry for the Wafe stack.
//!
//! The paper's formula —
//! `Wafe = Tcl + (Intrinsics + Widgets + Converters + Ext) + (Memory
//! Management + Communication)` — names exactly the seams a production
//! frontend must be able to observe: command evaluation, callback/action
//! dispatch, and the duplex pipe protocol. This crate provides the three
//! primitives those seams share:
//!
//! * **monotonic counters** (and settable gauges), one slot per entry of
//!   the static [`metric`] table,
//! * **fixed-bucket latency histograms** with p50/p90/p99 extraction
//!   ([`histogram`]), and
//! * a **bounded ring-buffer event journal** ([`journal`]),
//!
//! behind a cloneable [`Telemetry`] handle. Counters and gauges always
//! record: a [`Metric`] id is a dense index, so a count is one slot
//! increment. The enabled flag gates only what costs a clock read or a
//! format — histograms and the journal — and while it is off each of
//! those entry points is one flag load. Journal detail strings are built
//! through closures so the formatting cost is only paid when a record is
//! actually retained.
//!
//! The handle is deliberately single-threaded (`Rc` + interior
//! mutability), matching the rest of the Wafe stack; one handle is
//! created by the session and shared by the interpreter, the toolkit and
//! the pipe protocol so `telemetry snapshot` sees every layer at once.
//!
//! Server-wide totals use the same table: a store may roll its counters
//! up into a [`Rollup`], a `Send + Sync` array of relaxed atomics shared
//! by many stores (the server keeps one per registry shard). Every count
//! then lands in both; [`Telemetry::reset`] zeroes only the store, so
//! the roll-up stays monotonic.
//!
//! # Examples
//!
//! ```
//! use wafe_trace::{Metric, Telemetry};
//!
//! let t = Telemetry::new();
//! t.count(Metric::IpcLinesReceived); // counters record while disabled
//! t.observe_ns(Metric::IpcRoundtrip, 1_500); // histograms do not
//! assert!(t.histogram(Metric::IpcRoundtrip).is_none());
//! t.set_enabled(true);
//! t.add(Metric::IpcBytesReceived, 128);
//! t.observe_ns(Metric::IpcRoundtrip, 1_500);
//! t.event("demo.start", || "hello".to_string());
//! assert_eq!(t.value(Metric::IpcLinesReceived), 1);
//! assert_eq!(t.value(Metric::IpcBytesReceived), 128);
//! assert_eq!(t.histogram(Metric::IpcRoundtrip).unwrap().count, 1);
//! assert_eq!(t.journal_recent(10).len(), 1);
//! ```

pub mod export;
pub mod histogram;
pub mod journal;
pub mod metric;
pub mod span;

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub use histogram::{Histogram, HistogramSnapshot, BUCKET_BOUNDS_NS, BUCKET_COUNT};
pub use journal::{EventRecord, Journal, DEFAULT_JOURNAL_CAPACITY};
pub use metric::{Kind, Metric, METRIC_COUNT};
pub use span::{SpanRecord, SpanStats, SpanStore, TraceId, DEFAULT_SPAN_CAPACITY};

/// The environment variable that enables telemetry at startup.
pub const TELEMETRY_ENV_VAR: &str = "WAFE_TELEMETRY";

/// The environment variable that enables span recording at startup
/// (independent of `WAFE_TELEMETRY`: spans carry per-request cost, so
/// they get their own switch).
pub const SPANS_ENV_VAR: &str = "WAFE_SPANS";

struct Inner {
    enabled: Cell<bool>,
    /// One slot per table metric, indexed by [`Metric`]; counters and
    /// gauges keep their values here.
    slots: [Cell<u64>; METRIC_COUNT],
    /// Histograms by [`Metric`]; empty until the first sample, then one
    /// entry per table metric, each allocated on its own first sample.
    histograms: RefCell<Vec<Option<Box<Histogram>>>>,
    journal: RefCell<Journal>,
    spans_enabled: Cell<bool>,
    spans: RefCell<SpanStore>,
    epoch: Instant,
    /// Where counts also go, once [`Telemetry::roll_up_into`] set it.
    rollup: OnceCell<Arc<Rollup>>,
}

/// Counter totals shared by many stores: one relaxed atomic per table
/// metric, indexed by [`Metric`]. Only counters reach it; gauges,
/// histograms and the journal stay per store.
pub struct Rollup {
    slots: [AtomicU64; METRIC_COUNT],
}

impl Default for Rollup {
    fn default() -> Self {
        Rollup {
            slots: [const { AtomicU64::new(0) }; METRIC_COUNT],
        }
    }
}

impl Rollup {
    /// Adds `delta` to a counter's total.
    #[inline]
    pub fn add(&self, m: Metric, delta: u64) {
        self.slots[m as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// A counter's total so far.
    pub fn value(&self, m: Metric) -> u64 {
        self.slots[m as usize].load(Ordering::Relaxed)
    }
}

/// A cloneable handle onto one telemetry store (clones share the store).
#[derive(Clone)]
pub struct Telemetry {
    inner: Rc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A fresh, **disabled** store.
    pub fn new() -> Self {
        Telemetry {
            inner: Rc::new(Inner {
                enabled: Cell::new(false),
                slots: [const { Cell::new(0) }; METRIC_COUNT],
                histograms: RefCell::new(Vec::new()),
                journal: RefCell::new(Journal::default()),
                spans_enabled: Cell::new(false),
                spans: RefCell::new(SpanStore::default()),
                epoch: Instant::now(),
                rollup: OnceCell::new(),
            }),
        }
    }

    /// A fresh store, enabled when the `WAFE_TELEMETRY` environment
    /// variable is set to anything but `0` or the empty string; span
    /// recording is armed the same way by `WAFE_SPANS`.
    pub fn from_env() -> Self {
        let t = Self::new();
        let armed = |var: &str| matches!(std::env::var(var), Ok(v) if !v.is_empty() && v != "0");
        if armed(TELEMETRY_ENV_VAR) {
            t.set_enabled(true);
        }
        if armed(SPANS_ENV_VAR) {
            t.set_spans_enabled(true);
        }
        t
    }

    /// Whether histograms and the journal record (counters always do).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Turns histogram and journal recording on or off. Accumulated data
    /// is kept either way.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.set(on);
    }

    // ----- counters and gauges ---------------------------------------

    /// Increments a counter by one.
    #[inline]
    pub fn count(&self, m: Metric) {
        self.add(m, 1);
    }

    /// Increments a counter by `delta`.
    #[inline]
    pub fn add(&self, m: Metric, delta: u64) {
        debug_assert_eq!(m.kind(), Kind::Counter, "{} is not a counter", m.name());
        let slot = &self.inner.slots[m as usize];
        slot.set(slot.get().wrapping_add(delta));
        if let Some(r) = self.inner.rollup.get() {
            r.add(m, delta);
        }
    }

    /// Rolls this store's counters up into `sink` from now on, after
    /// adding what they already hold, so the sink's totals include
    /// everything counted before the call too. A store has one sink.
    pub fn roll_up_into(&self, sink: Arc<Rollup>) {
        assert!(self.inner.rollup.get().is_none(), "store already rolls up");
        for &m in Metric::ALL {
            if m.kind() == Kind::Counter {
                sink.add(m, self.value(m));
            }
        }
        let _ = self.inner.rollup.set(sink);
    }

    /// Sets a gauge to an absolute value (last write wins).
    #[inline]
    pub fn set_gauge(&self, m: Metric, value: u64) {
        debug_assert_eq!(m.kind(), Kind::Gauge, "{} is not a gauge", m.name());
        self.inner.slots[m as usize].set(value);
    }

    /// The current value of a counter or gauge (0 for other kinds).
    #[inline]
    pub fn value(&self, m: Metric) -> u64 {
        self.inner.slots[m as usize].get()
    }

    // ----- latency histograms ----------------------------------------

    /// Starts a latency measurement: `None` when disabled, so the clock
    /// is only read while recording.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Completes a measurement started with [`Telemetry::timer`]. A
    /// `None` start (telemetry was disabled at start time) records
    /// nothing, even if telemetry has been enabled in between.
    #[inline]
    pub fn observe_since(&self, m: Metric, started: Option<Instant>) {
        if let Some(t0) = started {
            if self.enabled() {
                self.observe_ns(m, t0.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Records one latency sample in nanoseconds.
    #[inline]
    pub fn observe_ns(&self, m: Metric, ns: u64) {
        if !self.enabled() {
            return;
        }
        debug_assert_eq!(m.kind(), Kind::Histogram, "{} is not a histogram", m.name());
        let mut hs = self.inner.histograms.borrow_mut();
        if hs.is_empty() {
            hs.resize_with(METRIC_COUNT, || None);
        }
        hs[m as usize].get_or_insert_default().record(ns);
    }

    /// A summary of one histogram, if it has been recorded to.
    pub fn histogram(&self, m: Metric) -> Option<HistogramSnapshot> {
        let hs = self.inner.histograms.borrow();
        hs.get(m as usize)?.as_deref().map(Histogram::snapshot)
    }

    // ----- journal ----------------------------------------------------

    /// Journals an event. The detail closure runs only when enabled.
    #[inline]
    pub fn event<F: FnOnce() -> String>(&self, kind: &'static str, detail: F) {
        if !self.enabled() {
            return;
        }
        let at_us = self.inner.epoch.elapsed().as_micros() as u64;
        self.inner.journal.borrow_mut().push(at_us, kind, detail());
    }

    /// The most recent `n` journal entries, oldest first.
    pub fn journal_recent(&self, n: usize) -> Vec<EventRecord> {
        self.inner.journal.borrow().recent(n)
    }

    /// `(retained, total_pushed, dropped, capacity)` of the journal.
    pub fn journal_stats(&self) -> (usize, u64, u64, usize) {
        let j = self.inner.journal.borrow();
        (j.len(), j.total_pushed(), j.dropped(), j.capacity())
    }

    /// Replaces the journal with an empty one of the given capacity.
    pub fn set_journal_capacity(&self, capacity: usize) {
        *self.inner.journal.borrow_mut() = Journal::new(capacity);
    }

    // ----- spans ------------------------------------------------------

    /// Whether span recording is active (independent of the counter /
    /// histogram / journal flag — spans carry per-request allocation
    /// cost, so they get their own switch).
    #[inline]
    pub fn spans_enabled(&self) -> bool {
        self.inner.spans_enabled.get()
    }

    /// Turns span recording on or off. Open spans are abandoned in
    /// **both** directions: a begin recorded under one setting must
    /// never pair with an end issued under the other.
    pub fn set_spans_enabled(&self, on: bool) {
        self.inner.spans_enabled.set(on);
        self.inner.spans.borrow_mut().clear_open();
    }

    /// Opens a span as a child of the current innermost span (or as a
    /// fresh trace root when none is open). Returns whether a span was
    /// actually pushed — the caller must gate the matching
    /// [`span_end`](Self::span_end) on it, so a toggle between begin
    /// and end cannot unbalance the stack. The detail closure runs only
    /// when recording.
    #[inline]
    pub fn span_begin<F: FnOnce() -> String>(&self, kind: &'static str, detail: F) -> bool {
        if !self.spans_enabled() {
            return false;
        }
        self.inner.spans.borrow_mut().begin(kind, detail());
        true
    }

    /// Opens the root span of a fresh trace regardless of nesting — the
    /// per-dispatched-command entry point. Same contract as
    /// [`span_begin`](Self::span_begin).
    #[inline]
    pub fn span_begin_root<F: FnOnce() -> String>(&self, kind: &'static str, detail: F) -> bool {
        if !self.spans_enabled() {
            return false;
        }
        self.inner.spans.borrow_mut().begin_root(kind, detail());
        true
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn span_end(&self) {
        self.inner.spans.borrow_mut().end();
    }

    /// Opens a detached span — one that outlives the stack discipline,
    /// like a backend roundtrip closed by a later reply. It is
    /// attributed to the active trace (innermost open span, else the
    /// most recent root). Returns a token for
    /// [`span_end_detached`](Self::span_end_detached), or 0 when
    /// disabled (0 is never a valid token).
    #[inline]
    pub fn span_begin_detached<F: FnOnce() -> String>(&self, kind: &'static str, detail: F) -> u64 {
        if !self.spans_enabled() {
            return 0;
        }
        self.inner.spans.borrow_mut().begin_detached(kind, detail())
    }

    /// Closes a detached span by its token; unknown tokens (including
    /// 0) are a no-op.
    #[inline]
    pub fn span_end_detached(&self, token: u64) {
        if token != 0 {
            self.inner.spans.borrow_mut().end_detached(token);
        }
    }

    /// The trace the next event would be attributed to, if any.
    pub fn current_trace(&self) -> Option<TraceId> {
        if !self.spans_enabled() {
            return None;
        }
        self.inner.spans.borrow().active_trace()
    }

    /// `" trace=G:S"` for the active trace, or the empty string — the
    /// ready-to-append form journal details use to tag supervisor
    /// events with their causing command.
    pub fn trace_note(&self) -> String {
        match self.current_trace() {
            Some(t) => format!(" trace={t}"),
            None => String::new(),
        }
    }

    /// The most recent `n` finished spans, oldest first.
    pub fn spans_recent(&self, n: usize) -> Vec<SpanRecord> {
        self.inner.spans.borrow().recent(n)
    }

    /// Occupancy counters of the span ring.
    pub fn span_stats(&self) -> SpanStats {
        self.inner.spans.borrow().stats()
    }

    /// Drops all open and finished spans (serials and the generation
    /// keep counting).
    pub fn spans_clear(&self) {
        self.inner.spans.borrow_mut().clear();
    }

    // ----- reset ------------------------------------------------------

    /// Zeroes counters and gauges and clears histograms and the journal.
    /// The enabled flag is **not** touched: `telemetry reset` re-arms
    /// measurement, it does not stop it. A [`Rollup`] this store feeds
    /// keeps its totals.
    pub fn reset(&self) {
        for slot in &self.inner.slots {
            slot.set(0);
        }
        self.inner.histograms.borrow_mut().clear();
        // A full reset starts the journal over, sequence numbers
        // included (unlike Journal::clear, which preserves them).
        let mut journal = self.inner.journal.borrow_mut();
        *journal = Journal::new(journal.capacity());
        // Spans restart too, but under a bumped generation so trace IDs
        // issued before the reset can never collide with new ones.
        self.inner.spans.borrow_mut().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_counts_but_records_no_histograms_or_journal() {
        let t = Telemetry::new();
        assert!(!t.enabled());
        t.count(Metric::IpcLinesReceived);
        t.add(Metric::IpcLinesReceived, 10);
        t.set_gauge(Metric::ServeQueueDepth, 5);
        t.observe_ns(Metric::IpcRoundtrip, 100);
        t.event("e", || panic!("detail closure must not run while disabled"));
        assert_eq!(t.value(Metric::IpcLinesReceived), 11);
        assert_eq!(t.value(Metric::ServeQueueDepth), 5);
        assert!(t.histogram(Metric::IpcRoundtrip).is_none());
        assert_eq!(t.journal_recent(10).len(), 0);
        assert!(t.timer().is_none());
    }

    #[test]
    fn enabled_records_and_clones_share() {
        let t = Telemetry::new();
        t.set_enabled(true);
        let t2 = t.clone();
        t.count(Metric::TclEvals);
        t2.count(Metric::TclEvals);
        t2.observe_ns(Metric::TclEval, 1_000);
        assert_eq!(t.value(Metric::TclEvals), 2);
        assert_eq!(t.histogram(Metric::TclEval).unwrap().count, 1);
    }

    #[test]
    fn timer_started_while_disabled_never_records() {
        let t = Telemetry::new();
        let started = t.timer();
        t.set_enabled(true);
        t.observe_since(Metric::TclEval, started);
        assert!(t.histogram(Metric::TclEval).is_none());
    }

    #[test]
    fn reset_clears_data_but_not_enabled() {
        let t = Telemetry::new();
        t.set_enabled(true);
        t.count(Metric::TclEvals);
        t.set_gauge(Metric::ServeQueueDepth, 1);
        t.observe_ns(Metric::TclEval, 10);
        t.event("e", || "d".into());
        t.reset();
        assert!(t.enabled(), "reset must not disable");
        assert!(Metric::ALL.iter().all(|&m| t.value(m) == 0));
        assert!(t.histogram(Metric::TclEval).is_none());
        assert_eq!(t.journal_recent(100).len(), 0);
    }

    #[test]
    fn counters_roll_up_and_reset_leaves_the_totals() {
        let sink = Arc::new(Rollup::default());
        let (a, b) = (Telemetry::new(), Telemetry::new());
        a.count(Metric::ServeCommands);
        a.roll_up_into(sink.clone());
        b.roll_up_into(sink.clone());
        a.add(Metric::ServeCommands, 2);
        b.count(Metric::ServeCommands);
        b.set_gauge(Metric::ServeQueueDepth, 7);
        assert_eq!(sink.value(Metric::ServeCommands), 4, "1 before + 3 after");
        assert_eq!(sink.value(Metric::ServeQueueDepth), 0, "gauges stay local");
        a.reset();
        assert_eq!(a.value(Metric::ServeCommands), 0);
        assert_eq!(sink.value(Metric::ServeCommands), 4, "totals are monotonic");
    }

    #[test]
    fn from_env_respects_variable() {
        // Avoid mutating the real environment: exercise only the
        // documented "unset means disabled" default here.
        std::env::remove_var(TELEMETRY_ENV_VAR);
        assert!(!Telemetry::from_env().enabled());
    }

    #[test]
    fn spans_disabled_are_free_and_closures_do_not_run() {
        let t = Telemetry::new();
        assert!(!t.spans_enabled());
        let pushed = t.span_begin("x", || panic!("detail closure must not run while disabled"));
        assert!(!pushed);
        assert_eq!(
            t.span_begin_detached("y", || panic!("detail closure must not run while disabled")),
            0
        );
        t.span_end();
        t.span_end_detached(0);
        assert_eq!(t.span_stats().total, 0);
        assert!(t.current_trace().is_none());
        assert_eq!(t.trace_note(), "");
    }

    #[test]
    fn span_toggle_mid_scope_cannot_unbalance() {
        let t = Telemetry::new();
        t.set_spans_enabled(true);
        let outer = t.span_begin("outer", String::new);
        assert!(outer);
        // Disabled mid-scope: the open span is abandoned, and the
        // caller's guarded end must hit an empty stack harmlessly.
        t.set_spans_enabled(false);
        let inner = t.span_begin("inner", String::new);
        assert!(!inner);
        t.span_end(); // outer's guarded end
        assert_eq!(t.span_stats().total, 0, "abandoned spans never finish");
        assert_eq!(t.span_stats().open, 0);
    }

    #[test]
    fn trace_note_names_the_active_trace() {
        let t = Telemetry::new();
        t.set_spans_enabled(true);
        t.span_begin_root("cmd", String::new);
        assert_eq!(t.trace_note(), " trace=1:1");
        t.span_end();
        // The root is remembered so late events still attribute.
        assert_eq!(t.trace_note(), " trace=1:1");
    }

    #[test]
    fn reset_bumps_span_generation() {
        let t = Telemetry::new();
        t.set_spans_enabled(true);
        t.span_begin_root("a", String::new);
        t.span_end();
        t.reset();
        assert!(t.spans_enabled(), "reset must not disable spans");
        assert!(t.spans_recent(10).is_empty());
        t.span_begin_root("b", String::new);
        t.span_end();
        assert_eq!(t.spans_recent(1)[0].trace.to_string(), "2:1");
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let t = Telemetry::new();
        t.count(Metric::XtWidgetCreates);
        t.count(Metric::DisplayAttach);
        t.count(Metric::TclBcHits);
        let pairs = export::telemetry_pairs(&t);
        let names: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(names.contains(&"tcl.bc.hits") && names.contains(&"display.attach"));
    }
}
