//! The round-robin fairness scheduler: one per worker thread, owning
//! every session assigned to that worker — engine and connection in
//! one record.
//!
//! `WafeSession` is single-threaded by construction (`Rc` all the way
//! down), so sessions are *pinned*: the accept loop hands the worker a
//! [`SessionId`] and the socket — both `Send` — and the scheduler
//! builds the `ProtocolEngine` locally. Everything else about the
//! session lives in one worker-local `Session` record, indexed by its
//! poll token: the engine, the socket and its line codec, the bounded
//! inbound queue, the outbound lines, the frame slot and the write
//! buffer. The event loop reads into and writes out of the same record
//! the scheduler sweeps, so no queue between them is shared or locked.
//!
//! Each [`run_turn`](Scheduler::run_turn) sweep gives every session at
//! most `quantum` lines before moving on, so a flooding client only
//! ever gets one quantum ahead of a quiet one; its surplus waits in its
//! own inbound queue, never in anyone else's way.
//!
//! Time is virtual, exactly like the backend supervisor's clock: the
//! driver calls [`advance`](Scheduler::advance) with elapsed
//! milliseconds (wall-derived in the real server, scripted in tests),
//! and idle eviction and the drain timeout are decided against that
//! clock only — the deterministic tests never assert on wall time.
//!
//! Reply semantics mirror frontend mode byte-for-byte: only lines the
//! session *sends to the application* (echo output) reach the client;
//! command results and errors do not. The server adds exactly one thing
//! the pipe never carried — `!`-prefixed notices (`!shed queue-full`,
//! `!parked <id>`, `!restored <id>`), which appear only past the
//! configured limits or around an explicit park/restore, so a client
//! inside its limits sees a byte-identical stream.
//!
//! Idle eviction *parks* rather than discards: the session is captured
//! into a [`SessionSnapshot`], the registry keeps the encoded bytes
//! under the generation-stamped [`SessionId`], and a later connection
//! saying `session restore <id>` gets the whole session back — widget
//! tree, interpreter state and the outbound lines that were still
//! queued, replayed in order right after the `!restored` ack.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use wafe_core::{Flavor, SessionSnapshot, WafeSession};
use wafe_ipc::{FaultPlan, LineCodec, ProtocolEngine, DEFAULT_MAX_LINE};

use crate::display::{install_display_control, pump_frame, DisplayCtl};
use crate::event_loop::ConnIo;
use crate::registry::{LineCount, Registry, SessionId, LIMIT_KEYS};
use wafe_trace::Metric;

/// Deferred `session park`/`session restore` requests. The control
/// handler runs *inside* the session's own interpreter, which cannot
/// snapshot or replace the engine it is executing in — so the handler
/// only raises a flag here and the scheduler acts on it after the
/// quantum, from outside the engine.
#[derive(Default)]
pub struct SessionCtl {
    park: Cell<bool>,
    restore: RefCell<Option<SessionId>>,
}

/// One served session: its engine and its connection. The scheduler
/// owns the table of these; the event loop's read, flush and reap
/// steps work on the transport fields of the same record.
pub(crate) struct Session {
    id: SessionId,
    engine: ProtocolEngine,
    ctl: Rc<SessionCtl>,
    display: Rc<DisplayCtl>,
    /// The registry slot's `serve sessions` line count.
    lines: LineCount,
    pub(crate) io: Box<dyn ConnIo>,
    pub(crate) codec: LineCodec,
    /// No more input: client EOF, drain, or the session finished.
    /// Lines already queued still run (unless the session finished).
    pub(crate) eof: bool,
    /// The client vanished (read or write error): reap at once.
    pub(crate) gone: bool,
    /// Decoded lines waiting for the scheduler, at most `cap`.
    inbound: VecDeque<String>,
    cap: usize,
    /// Lines refused on a full queue since the last sweep; answered
    /// `!shed queue-full` after that sweep's replies.
    shed: u64,
    /// Application-bound lines waiting for the flush.
    pub(crate) out: VecDeque<String>,
    /// At most one display frame waiting per connection, flushed after
    /// the lines. While it holds a frame, no new one is built: damage
    /// keeps accumulating and coalesces into the next one.
    pub(crate) frame: Option<String>,
    /// Encoded-but-unwritten bytes (partial write under backpressure).
    pub(crate) wbuf: Vec<u8>,
    pub(crate) wpos: usize,
    last_activity_ms: u64,
    /// Released from the registry: flush the tail, then close.
    pub(crate) done: bool,
}

impl Session {
    /// Whether the inbound queue is at its capacity.
    pub(crate) fn inbound_full(&self) -> bool {
        self.inbound.len() >= self.cap
    }

    /// Queues one decoded line, or counts it shed on a full queue.
    pub(crate) fn push_inbound(&mut self, line: String) {
        if !self.inbound_full() {
            self.inbound.push_back(line);
        } else {
            self.shed += 1;
        }
    }

    /// Ends the session: its slot goes back to the registry and its
    /// input is dropped; the event loop flushes what is already queued
    /// outbound, then closes the connection.
    fn finish(&mut self, registry: &Registry) {
        if self.done {
            return;
        }
        self.done = true;
        self.eof = true;
        self.inbound.clear();
        registry.release(self.id);
        let tel = &self.engine.session.telemetry;
        tel.set_gauge(Metric::ServeSessionsActive, registry.active() as u64);
    }
}

/// One worker's session multiplexer. Single-threaded; the shared state
/// it touches lives in the [`Registry`].
pub struct Scheduler {
    registry: Arc<Registry>,
    flavor: Flavor,
    telemetry: bool,
    /// The worker's session table, indexed by poll token; `None` is a
    /// free token.
    pub(crate) sessions: Vec<Option<Session>>,
    passthrough: Vec<(SessionId, String)>,
    now_ms: u64,
    drain_started_ms: Option<u64>,
    faults: Option<FaultPlan>,
}

impl Scheduler {
    /// A scheduler creating sessions of the given flavour (telemetry
    /// pre-enabled on each when `telemetry` is set).
    pub fn new(registry: Arc<Registry>, flavor: Flavor, telemetry: bool) -> Self {
        Scheduler {
            registry,
            flavor,
            telemetry,
            sessions: Vec::new(),
            passthrough: Vec::new(),
            now_ms: 0,
            drain_started_ms: None,
            // The server binary validates the spec loudly at startup;
            // here an unset/invalid variable just means no plan.
            faults: FaultPlan::from_env().and_then(Result::ok),
        }
    }

    /// Replaces the fault-injection plan (the deterministic chaos tests
    /// script faults here instead of through the environment).
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// The shared registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The scheduler's virtual clock, in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    fn live(&self) -> impl Iterator<Item = &Session> {
        self.sessions.iter().flatten().filter(|s| !s.done)
    }

    /// Inbound lines queued across this scheduler's sessions (the
    /// shard's `queued` gauge in the `serve status` breakdown).
    pub fn queued_lines(&self) -> usize {
        self.live().map(|s| s.inbound.len()).sum()
    }

    /// Inbound lines queued for session `id` (0 once it is gone).
    pub fn queued(&self, id: SessionId) -> usize {
        self.live()
            .find(|s| s.id == id)
            .map_or(0, |s| s.inbound.len())
    }

    /// Builds the session for an admitted connection and takes it into
    /// the round-robin ring. Returns its poll token.
    pub fn attach(&mut self, id: SessionId, io: Box<dyn ConnIo>) -> usize {
        let ctl = Rc::new(SessionCtl::default());
        let display = Rc::new(DisplayCtl::default());
        let engine = build_engine(
            &self.registry,
            id,
            self.flavor,
            self.telemetry,
            &ctl,
            &display,
        );
        let tel = engine.session.telemetry.clone();
        tel.count(Metric::ServeAccept);
        tel.set_gauge(Metric::ServeSessionsActive, self.registry.active() as u64);
        let session = Session {
            id,
            engine,
            ctl,
            display,
            lines: self.registry.line_count(id),
            io,
            codec: LineCodec::new(DEFAULT_MAX_LINE),
            eof: false,
            gone: false,
            inbound: VecDeque::new(),
            cap: self.registry.limits().queue_depth.max(1),
            shed: 0,
            out: VecDeque::new(),
            frame: None,
            wbuf: Vec::new(),
            wpos: 0,
            last_activity_ms: self.now_ms,
            done: false,
        };
        match self.sessions.iter().position(Option::is_none) {
            Some(token) => {
                self.sessions[token] = Some(session);
                token
            }
            None => {
                self.sessions.push(Some(session));
                self.sessions.len() - 1
            }
        }
    }

    /// Removes session `token` from the table and closes its socket.
    /// A session still live (its client vanished) is released first.
    pub(crate) fn close(&mut self, token: usize) {
        if let Some(mut s) = self.sessions[token].take() {
            s.finish(&self.registry);
            s.io.shutdown();
        }
    }

    /// One round-robin sweep: every session runs at most `quantum`
    /// queued lines, its outbound lines are queued for the flush,
    /// finished sessions are released. Returns the number of lines
    /// dispatched (0 = nothing to do, the caller may sleep).
    pub fn run_turn(&mut self) -> usize {
        if self.registry.draining() && self.drain_started_ms.is_none() {
            // Drain: no further input, flush what is already queued.
            self.drain_started_ms = Some(self.now_ms);
            for s in self.sessions.iter_mut().flatten() {
                s.eof = true;
            }
        }
        let quantum = self.registry.limits().quantum.max(1);
        let mut dispatched = 0usize;
        for i in 0..self.sessions.len() {
            let Some(entry) = self.sessions[i].as_mut().filter(|s| !s.done) else {
                continue;
            };
            let tel = entry.engine.session.telemetry.clone();
            let mut ran = 0usize;
            while ran < quantum {
                let Some(line) = entry.inbound.pop_front() else {
                    break;
                };
                let timer = tel.timer();
                // The root of the causal trace: one per dispatched
                // line, stamped with the session that sent it. Every
                // ipc.command / tcl.* span below shares its trace ID.
                let span = tel.span_begin_root("serve.command", || format!("{} {line}", entry.id));
                let _ = entry.engine.handle_line(&line);
                if span {
                    tel.span_end();
                }
                tel.observe_since(Metric::ServeDispatch, timer);
                tel.count(Metric::ServeCommands);
                ran += 1;
                // A park or restore request ends the quantum: lines
                // still queued must run in the session as it exists
                // *after* the action — not in the engine that is about
                // to be captured or replaced.
                if entry.ctl.park.get() || entry.ctl.restore.borrow().is_some() {
                    break;
                }
            }
            if ran > 0 {
                dispatched += ran;
                entry.last_activity_ms = self.now_ms;
                entry.lines.add(ran as u64);
            }
            // Deferred `session` control actions, acted on before the
            // outbound flush: lines still pending inside the engine
            // ride the snapshot on park, and follow `!restored` on
            // restore — either way they are never silently dropped.
            let park_req = entry.ctl.park.take();
            let restore_req = entry.ctl.restore.borrow_mut().take();
            if park_req {
                self.park(i, Metric::ServeParkManual);
                continue;
            }
            if let Some(old) = restore_req {
                self.restore(i, old);
            }
            let entry = self.sessions[i].as_mut().expect("a live session");
            let tel = entry.engine.session.telemetry.clone();
            // Outbound: only application-bound lines, like the pipe.
            entry.out.extend(entry.engine.take_app_lines());
            // Queue-full sheds the transport recorded since last sweep:
            // count them and tell the client explicitly, after the
            // replies to the lines that did get through.
            let shed = std::mem::take(&mut entry.shed);
            for _ in 0..shed {
                entry.out.push_back("!shed queue-full".into());
            }
            if shed > 0 {
                tel.add(Metric::ServeShed, shed);
            }
            for p in entry.engine.take_passthrough() {
                self.passthrough.push((entry.id, p));
            }
            // Protocol errors are counted as ipc.errors.
            let _ = entry.engine.take_errors();
            // The display frame pump: after the replies, so a frame
            // never delays the lines whose commands produced it.
            pump_frame(
                &entry.engine.session,
                &entry.display,
                &mut entry.frame,
                &mut self.faults,
            );
            tel.set_gauge(Metric::ServeQueueDepth, entry.inbound.len() as u64);
            let quit = entry.engine.session.quit_requested();
            if entry.gone || quit || (entry.eof && entry.inbound.is_empty()) {
                // A persistent drain (waferd --park-dir) parks every
                // session it flushes instead of dropping it, so the
                // whole server's state survives the restart. Sessions
                // that quit or hung up are gone by choice and are not
                // parked.
                let drain_park = self.registry.draining()
                    && self.registry.park_persistent()
                    && !entry.gone
                    && !quit;
                if drain_park {
                    self.park(i, Metric::ServeParkDrain);
                } else {
                    entry.finish(&self.registry);
                }
            }
        }
        dispatched
    }

    /// Advances the virtual clock: idle eviction and the drain timeout
    /// are decided here, against virtual time only.
    pub fn advance(&mut self, ms: u64) {
        self.now_ms = self.now_ms.saturating_add(ms);
        let limits = self.registry.limits();
        if limits.idle_evict_ms > 0 && !self.registry.draining() {
            for i in 0..self.sessions.len() {
                let Some(e) = self.sessions[i].as_ref().filter(|s| !s.done) else {
                    continue;
                };
                let idle = self.now_ms.saturating_sub(e.last_activity_ms);
                if e.inbound.is_empty() && idle > limits.idle_evict_ms {
                    // Idle eviction parks instead of discarding: the
                    // client sees `!parked <id>` and can reconnect
                    // later with `session restore <id>`.
                    e.engine.session.telemetry.count(Metric::ServeEvict);
                    self.park(i, Metric::ServeParkIdle);
                }
            }
        }
        if let Some(started) = self.drain_started_ms {
            if limits.drain_timeout_ms > 0
                && self.now_ms.saturating_sub(started) > limits.drain_timeout_ms
            {
                // Sessions still busy past the deadline are cut off
                // with their remaining input unflushed.
                for s in self.sessions.iter_mut().flatten() {
                    s.finish(&self.registry);
                }
            }
        }
    }

    /// Whether a drain is in progress and this scheduler is done: every
    /// session released and its connection closed.
    pub fn is_drained(&self) -> bool {
        self.registry.draining() && self.sessions.iter().all(Option::is_none)
    }

    /// Takes the passthrough lines collected since the last call, each
    /// tagged with the session that wrote it (the server logs these —
    /// in single-process frontend mode they went to stdout).
    pub fn take_passthrough(&mut self) -> Vec<(SessionId, String)> {
        std::mem::take(&mut self.passthrough)
    }

    /// Parks session `i`: captures it (pending application-bound lines
    /// included), hands the encoded snapshot to the registry under the
    /// session's stamped id, acks `!parked <id>` to the client and
    /// releases the slot. `cause` is the `serve.park.*` counter of why:
    /// manual, idle or drain.
    fn park(&mut self, i: usize, cause: Metric) {
        let entry = self.sessions[i].as_mut().expect("a live session");
        let tel = entry.engine.session.telemetry.clone();
        let outbound = entry.engine.take_app_lines();
        let bytes = SessionSnapshot::capture(&entry.engine.session, outbound).encode();
        let len = bytes.len() as u64;
        match self.registry.park(entry.id, bytes, self.now_ms) {
            Ok(()) => {
                tel.count(cause);
                tel.add(Metric::ServeParkBytes, len);
                entry.out.push_back(format!("!parked {}", entry.id));
            }
            Err(e) => {
                // A persistence failure is loud, never a silent
                // memory-only checkpoint the client would trust across
                // a restart.
                tel.count(Metric::ServeParkError);
                entry
                    .out
                    .push_back(format!("!park-failed {} {e}", entry.id));
            }
        }
        entry.finish(&self.registry);
    }

    /// Replaces session `i`'s engine with one restored from the parked
    /// snapshot `old`, then replays the snapshot's outbound lines to
    /// the client right after the `!restored` ack — in exactly the
    /// order they were queued at park time.
    fn restore(&mut self, i: usize, old: SessionId) {
        let entry = self.sessions[i].as_mut().expect("a live session");
        let tel = entry.engine.session.telemetry.clone();
        let Some(bytes) = self.registry.take_parked(old) else {
            // Validated when the command ran, but claimed by another
            // session since — a genuine race, reported like any miss.
            tel.count(Metric::ServeRestoreMiss);
            entry.out.push_back(format!("!restore-miss {old}"));
            return;
        };
        let timer = tel.timer();
        match SessionSnapshot::decode_for(&bytes, self.flavor) {
            Err(e) => {
                tel.count(Metric::ServeRestoreError);
                entry.out.push_back(format!("!restore-failed {old} {e}"));
            }
            Ok(snap) => {
                let mut engine = build_engine(
                    &self.registry,
                    entry.id,
                    self.flavor,
                    self.telemetry,
                    &entry.ctl,
                    &entry.display,
                );
                let report = snap.restore_into(&mut engine.session);
                let tel = engine.session.telemetry.clone();
                // Output the outgoing engine still held is flushed
                // before the swap — it precedes the restore causally
                // and must precede `!restored` on the wire.
                entry.out.extend(entry.engine.take_app_lines());
                entry.engine = engine;
                entry.last_activity_ms = self.now_ms;
                entry.out.push_back(format!("!restored {old}"));
                entry.out.extend(snap.outbound);
                tel.observe_since(Metric::ServeRestore, timer);
                tel.count(Metric::ServeRestoreOk);
                tel.add(Metric::ServeRestoreWidgets, report.widgets as u64);
                if report.widgets_skipped > 0 {
                    tel.add(
                        Metric::ServeRestoreWidgetsSkipped,
                        report.widgets_skipped as u64,
                    );
                }
            }
        }
    }
}

/// A fully wired serve-mode engine for session `id`: telemetry per the
/// server flag and rolled up into the session's shard, and the `serve`
/// and `session` control handlers installed. Used both for freshly
/// attached connections and for restored engines (which share the
/// connection's [`SessionCtl`]).
fn build_engine(
    registry: &Arc<Registry>,
    id: SessionId,
    flavor: Flavor,
    telemetry: bool,
    ctl: &Rc<SessionCtl>,
    display: &Rc<DisplayCtl>,
) -> ProtocolEngine {
    let mut engine = ProtocolEngine::new(flavor);
    let tel = &engine.session.telemetry;
    tel.roll_up_into(registry.shard_counters(registry.shard_of(id)));
    if telemetry {
        tel.set_enabled(true);
    }
    install_serve_control(registry, &mut engine.session);
    install_session_control(registry, ctl, &mut engine.session);
    install_display_control(display, &mut engine.session);
    engine
}

/// Installs the `serve` control handler (registered as a command by
/// wafe-core) into one session's dispatch table.
pub fn install_serve_control(registry: &Arc<Registry>, session: &mut WafeSession) {
    let r = registry.clone();
    let tel = session.telemetry.clone();
    session.controls.borrow_mut().insert(
        "serve".into(),
        Box::new(move |argv| serve_control(&r, &tel, argv)),
    );
}

fn serve_control(
    r: &Arc<Registry>,
    tel: &wafe_trace::Telemetry,
    argv: &[String],
) -> Result<String, String> {
    const USAGE: &str = "serve status|sessions|drain|metrics|limits ?key ?value??";
    match argv.get(1).map(String::as_str) {
        Some("status") if argv.len() == 2 => Ok(wafe_tcl::list_join(&r.status_words())),
        Some("sessions") if argv.len() == 2 => Ok(wafe_tcl::list_join(&r.sessions_words())),
        Some("metrics") if argv.len() == 2 => {
            // Prometheus text exposition: the server-wide registry rows
            // plus this session's telemetry store, key-sorted (the
            // roll-up totals stay out: they share the store's names).
            let mut pairs = r.metrics_pairs();
            pairs.extend(wafe_trace::export::telemetry_pairs(tel));
            pairs.sort();
            Ok(wafe_trace::export::prometheus_text(&pairs))
        }
        Some("drain") if argv.len() == 2 => {
            r.begin_drain();
            Ok(String::new())
        }
        Some("limits") => match argv.len() {
            2 => {
                let words: Vec<String> = LIMIT_KEYS
                    .iter()
                    .flat_map(|k| {
                        [
                            k.to_string(),
                            r.get_limit(k).expect("every listed key resolves"),
                        ]
                    })
                    .collect();
                Ok(wafe_tcl::list_join(&words))
            }
            3 => r.get_limit(&argv[2]).ok_or_else(|| {
                format!(
                    "unknown limit \"{}\": must be one of {}",
                    argv[2],
                    LIMIT_KEYS.join(", ")
                )
            }),
            4 => {
                r.set_limit(&argv[2], &argv[3])?;
                Ok(String::new())
            }
            _ => Err(format!("wrong # args: should be \"{USAGE}\"")),
        },
        _ => Err(format!("wrong # args: should be \"{USAGE}\"")),
    }
}

/// Installs the `session` control handler (registered as a command by
/// wafe-core) into one session's dispatch table. Park and restore only
/// raise flags on `ctl`; the scheduler acts on them after the quantum.
pub fn install_session_control(
    registry: &Arc<Registry>,
    ctl: &Rc<SessionCtl>,
    session: &mut WafeSession,
) {
    let r = registry.clone();
    let c = ctl.clone();
    let tel = session.telemetry.clone();
    session.controls.borrow_mut().insert(
        "session".into(),
        Box::new(move |argv| session_control(&r, &c, &tel, argv)),
    );
}

fn session_control(
    r: &Arc<Registry>,
    ctl: &Rc<SessionCtl>,
    tel: &wafe_trace::Telemetry,
    argv: &[String],
) -> Result<String, String> {
    const USAGE: &str = "session park|restore slot:generation|snapshots";
    match argv.get(1).map(String::as_str) {
        Some("park") if argv.len() == 2 => {
            ctl.park.set(true);
            Ok(String::new())
        }
        Some("restore") if argv.len() == 3 => {
            let id = parse_session_id(&argv[2]).ok_or_else(|| {
                format!(
                    "bad session id \"{}\": should be \"slot:generation\"",
                    argv[2]
                )
            })?;
            if !r.has_parked(id) {
                tel.count(Metric::ServeRestoreMiss);
                return Err(format!("no parked session \"{id}\""));
            }
            *ctl.restore.borrow_mut() = Some(id);
            Ok(String::new())
        }
        Some("snapshots") if argv.len() == 2 => Ok(wafe_tcl::list_join(&r.parked_words())),
        _ => Err(format!("wrong # args: should be \"{USAGE}\"")),
    }
}

fn parse_session_id(s: &str) -> Option<SessionId> {
    let (slot, generation) = s.split_once(':')?;
    Some(SessionId {
        slot: slot.parse().ok()?,
        generation: generation.parse().ok()?,
    })
}
