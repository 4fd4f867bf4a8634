//! Causal spans: begin/end scopes with parent links and trace IDs.
//!
//! A span is one timed scope on the request path (a dispatched server
//! command, one `eval`, one proc body, one bytecode run, one backend
//! roundtrip). Spans nest through a per-store stack — the store itself
//! is single-threaded like the [`crate::Telemetry`] handle that owns
//! it, so each server worker's sessions get their own stacks for free —
//! and every span carries the [`TraceId`] of the root that opened its
//! trace, which is how a slow backend reply is attributed to the exact
//! session command that caused it.
//!
//! Timestamps are **virtual ticks**: a monotonic counter bumped once
//! per begin and once per end. Tick values order and nest spans exactly
//! like wall time would, but are deterministic by construction — the
//! span-causality tests assert whole trees verbatim. (Wall durations
//! stay the business of the latency histograms; spans answer *why*,
//! histograms answer *how long*.)
//!
//! Finished spans land in a bounded ring like the journal's: pushing at
//! capacity overwrites the oldest and counts it as dropped, so a
//! truncated trace is detectable instead of silent.

use std::fmt;

/// Default number of finished spans retained.
pub const DEFAULT_SPAN_CAPACITY: usize = 512;

/// A generation-stamped trace identifier, displayed `generation:serial`
/// — the same scheme as the server's `slot:generation` session IDs: the
/// generation bumps on every telemetry reset, so a trace ID from before
/// a reset can never collide with one issued after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId {
    /// Store generation (bumped by reset).
    pub generation: u32,
    /// Serial within the generation (1-based).
    pub serial: u64,
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.generation, self.serial)
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span serial (1-based, monotonic per store, never reused).
    pub id: u64,
    /// The enclosing span's id, or 0 for a trace root.
    pub parent: u64,
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// Scope kind, e.g. `serve.command`, `tcl.eval`, `ipc.roundtrip` (a
    /// fixed vocabulary, see `docs/telemetry.md`).
    pub kind: &'static str,
    /// Free-form detail (the command line, the proc name, …).
    pub detail: String,
    /// Virtual tick at begin.
    pub begin_tick: u64,
    /// Virtual tick at end.
    pub end_tick: u64,
}

/// Occupancy counters of a [`SpanStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Finished spans currently retained.
    pub retained: usize,
    /// Finished spans ever recorded (retained or dropped).
    pub total: u64,
    /// Finished spans overwritten by ring wraparound.
    pub dropped: u64,
    /// Ring capacity.
    pub capacity: usize,
    /// Spans currently open (stacked + detached).
    pub open: usize,
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: u64,
    trace: TraceId,
    kind: &'static str,
    detail: String,
    begin_tick: u64,
}

/// The span substrate: the active stack, the detached-span set and the
/// bounded ring of finished spans. Owned by a `Telemetry` store.
#[derive(Debug)]
pub struct SpanStore {
    ring: Vec<SpanRecord>,
    capacity: usize,
    /// Index the next overwrite lands on (meaningful once full).
    head: usize,
    total: u64,
    dropped: u64,
    stack: Vec<OpenSpan>,
    /// Spans that outlive the stack discipline (backend roundtrips):
    /// opened in one scope, closed by a later event.
    detached: Vec<OpenSpan>,
    tick: u64,
    next_span: u64,
    next_trace: u64,
    generation: u32,
    /// The most recent trace root (id + trace), kept after it closes so
    /// late events (a backend reply) can still attach to their cause.
    last_root: Option<(u64, TraceId)>,
}

impl Default for SpanStore {
    fn default() -> Self {
        SpanStore::new(DEFAULT_SPAN_CAPACITY)
    }
}

impl SpanStore {
    /// An empty store retaining at most `capacity` finished spans.
    pub fn new(capacity: usize) -> Self {
        SpanStore {
            ring: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            total: 0,
            dropped: 0,
            stack: Vec::new(),
            detached: Vec::new(),
            tick: 0,
            next_span: 1,
            next_trace: 1,
            generation: 1,
            last_root: None,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn new_trace(&mut self) -> TraceId {
        let t = TraceId {
            generation: self.generation,
            serial: self.next_trace,
        };
        self.next_trace += 1;
        t
    }

    /// Opens a span as a child of the current stack top, or as the root
    /// of a fresh trace when the stack is empty. Returns the span id.
    pub fn begin(&mut self, kind: &'static str, detail: String) -> u64 {
        let (parent, trace) = match self.stack.last() {
            Some(top) => (top.id, top.trace),
            None => (0, self.new_trace()),
        };
        self.open(parent, trace, kind, detail, false)
    }

    /// Opens the root span of a fresh trace regardless of the stack
    /// (the per-dispatched-command entry point). Returns the span id.
    pub fn begin_root(&mut self, kind: &'static str, detail: String) -> u64 {
        let trace = self.new_trace();
        self.open(0, trace, kind, detail, false)
    }

    /// Opens a detached span attributed to the *active* trace: the stack
    /// top when one is open, else the most recent root (the command that
    /// just finished is what caused this roundtrip). Returns a token for
    /// [`end_detached`](Self::end_detached).
    pub fn begin_detached(&mut self, kind: &'static str, detail: String) -> u64 {
        let (parent, trace) = match self.stack.last() {
            Some(top) => (top.id, top.trace),
            None => match self.last_root {
                Some((id, trace)) => (id, trace),
                None => (0, self.new_trace()),
            },
        };
        self.open(parent, trace, kind, detail, true)
    }

    fn open(
        &mut self,
        parent: u64,
        trace: TraceId,
        kind: &'static str,
        detail: String,
        detached: bool,
    ) -> u64 {
        let id = self.next_span;
        self.next_span += 1;
        let begin_tick = self.next_tick();
        let span = OpenSpan {
            id,
            parent,
            trace,
            kind,
            detail,
            begin_tick,
        };
        if detached {
            self.detached.push(span);
        } else {
            if parent == 0 {
                self.last_root = Some((id, trace));
            }
            self.stack.push(span);
        }
        id
    }

    /// Closes the innermost open stacked span. A no-op on an empty
    /// stack (ends are unbalanced only across an enable/disable toggle,
    /// which clears the stack).
    pub fn end(&mut self) {
        if let Some(span) = self.stack.pop() {
            let end_tick = self.next_tick();
            self.finish(span, end_tick);
        }
    }

    /// Closes a detached span by its token. Unknown tokens (cleared by
    /// a toggle or reset) are a no-op.
    pub fn end_detached(&mut self, token: u64) {
        if let Some(i) = self.detached.iter().position(|s| s.id == token) {
            let span = self.detached.swap_remove(i);
            let end_tick = self.next_tick();
            self.finish(span, end_tick);
        }
    }

    fn finish(&mut self, span: OpenSpan, end_tick: u64) {
        let rec = SpanRecord {
            id: span.id,
            parent: span.parent,
            trace: span.trace,
            kind: span.kind,
            detail: span.detail,
            begin_tick: span.begin_tick,
            end_tick,
        };
        self.total += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// The trace of the innermost open span, or of the most recent root.
    pub fn active_trace(&self) -> Option<TraceId> {
        self.stack
            .last()
            .map(|s| s.trace)
            .or(self.last_root.map(|(_, t)| t))
    }

    /// The most recent `n` finished spans, oldest first.
    pub fn recent(&self, n: usize) -> Vec<SpanRecord> {
        let take = n.min(self.ring.len());
        let len = self.ring.len();
        let start_logical = len - take;
        (0..take)
            .map(|i| {
                let logical = start_logical + i;
                let physical = if len < self.capacity {
                    logical
                } else {
                    (self.head + logical) % self.capacity
                };
                self.ring[physical].clone()
            })
            .collect()
    }

    /// Occupancy counters.
    pub fn stats(&self) -> SpanStats {
        SpanStats {
            retained: self.ring.len(),
            total: self.total,
            dropped: self.dropped,
            capacity: self.capacity,
            open: self.stack.len() + self.detached.len(),
        }
    }

    /// Drops every open and finished span (counters keep counting).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.stack.clear();
        self.detached.clear();
        self.last_root = None;
    }

    /// Abandons open spans only (an enable/disable toggle: spans begun
    /// under the other setting must not pair with future ends).
    pub fn clear_open(&mut self) {
        self.stack.clear();
        self.detached.clear();
    }

    /// A full reset: everything cleared, ticks and serials restarted,
    /// and the generation bumped so pre-reset trace IDs stay unique.
    pub fn reset(&mut self) {
        let generation = self.generation + 1;
        *self = SpanStore::new(self.capacity);
        self.generation = generation;
    }
}

/// Renders finished spans as an indented causal tree, two spaces per
/// nesting level, each line `kind trace [begin,end] detail` (the detail
/// is omitted when empty). Spans whose parent is not in the set —
/// dropped by the ring, or still open — render at top level. Children
/// are ordered by span id, i.e. chronologically.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    let mut roots: Vec<usize> = Vec::new();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let index_of = |id: u64| spans.iter().position(|s| s.id == id);
    for (i, s) in spans.iter().enumerate() {
        match index_of(s.parent) {
            Some(p) if s.parent != 0 => children[p].push(i),
            _ => roots.push(i),
        }
    }
    let by_id = |list: &mut Vec<usize>| list.sort_by_key(|&i| spans[i].id);
    by_id(&mut roots);
    for list in &mut children {
        by_id(list);
    }
    fn emit(
        out: &mut String,
        spans: &[SpanRecord],
        children: &[Vec<usize>],
        i: usize,
        depth: usize,
    ) {
        let s = &spans[i];
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!(
            "{} {} [{},{}]",
            s.kind, s.trace, s.begin_tick, s.end_tick
        ));
        if !s.detail.is_empty() {
            out.push(' ');
            out.push_str(&s.detail);
        }
        out.push('\n');
        for &c in &children[i] {
            emit(out, spans, children, c, depth + 1);
        }
    }
    let mut out = String::new();
    for r in roots {
        emit(&mut out, spans, &children, r, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_ticks() {
        let mut s = SpanStore::new(16);
        s.begin_root("root", "cmd".into());
        s.begin("inner", String::new());
        s.end();
        s.end();
        let spans = s.recent(10);
        assert_eq!(spans.len(), 2);
        // Oldest-first: the inner span finished first.
        assert_eq!(spans[0].kind, "inner");
        assert_eq!(spans[0].parent, 1);
        assert_eq!(spans[1].kind, "root");
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].trace, spans[1].trace, "children share the trace");
        assert_eq!(
            (
                spans[1].begin_tick,
                spans[0].begin_tick,
                spans[0].end_tick,
                spans[1].end_tick
            ),
            (1, 2, 3, 4),
            "ticks nest like wall time"
        );
    }

    #[test]
    fn begin_root_always_opens_a_fresh_trace() {
        let mut s = SpanStore::new(16);
        s.begin_root("a", String::new());
        s.end();
        s.begin_root("b", String::new());
        s.end();
        let spans = s.recent(10);
        assert_eq!(spans[0].trace.serial, 1);
        assert_eq!(spans[1].trace.serial, 2);
    }

    #[test]
    fn detached_span_attaches_to_last_root_after_it_closed() {
        let mut s = SpanStore::new(16);
        s.begin_root("cmd", String::new());
        s.end();
        let token = s.begin_detached("roundtrip", String::new());
        s.end_detached(token);
        let spans = s.recent(10);
        assert_eq!(spans[1].kind, "roundtrip");
        assert_eq!(spans[1].parent, spans[0].id, "parented to the closed root");
        assert_eq!(spans[1].trace, spans[0].trace, "shares the trace id");
    }

    #[test]
    fn ring_overwrites_and_counts_dropped() {
        let mut s = SpanStore::new(2);
        for _ in 0..4 {
            s.begin_root("x", String::new());
            s.end();
        }
        let stats = s.stats();
        assert_eq!(stats.retained, 2);
        assert_eq!(stats.total, 4);
        assert_eq!(stats.dropped, 2);
        let ids: Vec<u64> = s.recent(10).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![3, 4], "most recent survive, oldest first");
    }

    #[test]
    fn reset_bumps_generation() {
        let mut s = SpanStore::new(4);
        s.begin_root("a", String::new());
        s.end();
        assert_eq!(s.recent(1)[0].trace.to_string(), "1:1");
        s.reset();
        assert!(s.recent(10).is_empty());
        s.begin_root("b", String::new());
        s.end();
        assert_eq!(s.recent(1)[0].trace.to_string(), "2:1");
    }

    #[test]
    fn unbalanced_end_is_a_no_op() {
        let mut s = SpanStore::new(4);
        s.end();
        s.end_detached(99);
        assert_eq!(s.stats().total, 0);
    }

    #[test]
    fn tree_renders_verbatim() {
        let mut s = SpanStore::new(16);
        s.begin_root("serve.command", "0:1 %echo hi".into());
        s.begin("tcl.eval", "echo hi".into());
        s.end();
        s.end();
        let tree = render_tree(&s.recent(10));
        assert_eq!(
            tree,
            "serve.command 1:1 [1,4] 0:1 %echo hi\n  tcl.eval 1:1 [2,3] echo hi\n"
        );
    }

    #[test]
    fn orphans_render_at_top_level() {
        let mut s = SpanStore::new(1);
        s.begin_root("root", String::new());
        s.begin("a", String::new());
        s.end();
        s.begin("b", String::new());
        s.end();
        s.end();
        // Capacity 1: only the root survives; a and b were overwritten.
        let tree = render_tree(&s.recent(10));
        assert_eq!(tree, "root 1:1 [1,6]\n");
    }
}
