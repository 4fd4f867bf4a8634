//! The round-robin fairness scheduler: one per worker thread, owning
//! every session assigned to that worker.
//!
//! `WafeSession` is single-threaded by construction (`Rc` all the way
//! down), so sessions are *pinned*: the transport hands the scheduler a
//! [`SessionId`], a [`Mailbox`] and a [`SessionSink`] — all `Send` —
//! and the scheduler builds the `ProtocolEngine` locally. Each
//! [`run_turn`](Scheduler::run_turn) sweep gives every session at most
//! `quantum` lines before moving on, so a flooding client only ever
//! gets one quantum ahead of a quiet one; its surplus waits in its own
//! mailbox, never in anyone else's way.
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
use std::rc::Rc;
use std::sync::Arc;

use wafe_core::{Flavor, SessionSnapshot, WafeSession};
use wafe_ipc::{FaultPlan, ProtocolEngine};

use crate::display::{install_display_control, pump_frame, DisplayCtl};
use crate::mailbox::{Mailbox, SessionSink};
use crate::registry::{Registry, SessionId, LIMIT_KEYS};
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

struct Entry {
    id: SessionId,
    engine: ProtocolEngine,
    ctl: Rc<SessionCtl>,
    display: Rc<DisplayCtl>,
    mailbox: Arc<Mailbox>,
    sink: SessionSink,
    last_activity_ms: u64,
    gone: bool,
}

/// One worker's session multiplexer. Single-threaded; the shared state
/// it touches lives in the [`Registry`].
pub struct Scheduler {
    registry: Arc<Registry>,
    flavor: Flavor,
    telemetry: bool,
    sessions: Vec<Entry>,
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

    /// Sessions this scheduler currently owns.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Mailbox lines queued across this scheduler's sessions (the
    /// shard's `queued` gauge in the `serve status` breakdown).
    pub fn queued_lines(&self) -> usize {
        self.sessions.iter().map(|e| e.mailbox.len()).sum()
    }

    /// Builds the session for an admitted connection and takes it into
    /// the round-robin ring.
    pub fn attach(&mut self, id: SessionId, mailbox: Arc<Mailbox>, sink: SessionSink) {
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
        self.sessions.push(Entry {
            id,
            engine,
            ctl,
            display,
            mailbox,
            sink,
            last_activity_ms: self.now_ms,
            gone: false,
        });
    }

    /// One round-robin sweep: every session runs at most `quantum`
    /// mailbox lines, its outbound lines are delivered, finished
    /// sessions are released. Returns the number of lines dispatched
    /// (0 = nothing to do, the driver may sleep).
    pub fn run_turn(&mut self) -> usize {
        if self.registry.draining() && self.drain_started_ms.is_none() {
            // Drain: no further input, flush what is already queued.
            self.drain_started_ms = Some(self.now_ms);
            for e in &self.sessions {
                e.mailbox.close();
            }
        }
        let quantum = self.registry.limits().quantum.max(1);
        let mut dispatched = 0usize;
        let mut i = 0;
        while i < self.sessions.len() {
            let entry = &mut self.sessions[i];
            let tel = entry.engine.session.telemetry.clone();
            let mut ran = 0usize;
            while ran < quantum {
                let Some(line) = entry.mailbox.pop() else {
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
                self.registry.note_commands(entry.id, ran as u64);
            }
            // Deferred `session` control actions, acted on before the
            // outbound flush: lines still pending inside the engine
            // ride the snapshot on park, and follow `!restored` on
            // restore — either way they are never silently dropped.
            let park_req = entry.ctl.park.take();
            let restore_req = entry.ctl.restore.borrow_mut().take();
            if park_req {
                let entry = self.sessions.remove(i);
                self.park_entry(entry, Metric::ServeParkManual);
                continue;
            }
            if let Some(old) = restore_req {
                self.restore_entry(i, old);
            }
            let entry = &mut self.sessions[i];
            let tel = entry.engine.session.telemetry.clone();
            // Outbound: only application-bound lines, like the pipe.
            for out in entry.engine.take_app_lines() {
                if !entry.sink.send(out) {
                    entry.gone = true;
                }
            }
            // Queue-full sheds the transport recorded since last sweep:
            // count them and tell the client explicitly, after the
            // replies to the lines that did get through.
            let shed = entry.mailbox.take_shed();
            for _ in 0..shed {
                if !entry.sink.send("!shed queue-full".into()) {
                    entry.gone = true;
                }
            }
            if shed > 0 {
                tel.add(Metric::ServeShed, shed);
            }
            for p in entry.engine.take_passthrough() {
                self.passthrough.push((entry.id, p));
            }
            let _ = entry.engine.take_errors(); // counted as ipc.errors
                                                // The display frame pump: after the replies, so a frame
                                                // never delays the lines whose commands produced it.
            if !pump_frame(
                &entry.engine.session,
                &entry.display,
                &entry.sink,
                &mut self.faults,
            ) {
                entry.gone = true;
            }
            tel.set_gauge(Metric::ServeQueueDepth, entry.mailbox.len() as u64);
            let finished = entry.gone
                || entry.engine.session.quit_requested()
                || (entry.mailbox.is_closed() && entry.mailbox.is_empty());
            if finished {
                let entry = self.sessions.remove(i);
                // A persistent drain (waferd --park-dir) parks every
                // session it flushes instead of dropping it, so the
                // whole server's state survives the restart. Sessions
                // that quit or hung up are gone by choice and are not
                // parked.
                let drain_park = self.registry.draining()
                    && self.registry.park_persistent()
                    && !entry.gone
                    && !entry.engine.session.quit_requested();
                if drain_park {
                    self.park_entry(entry, Metric::ServeParkDrain);
                } else {
                    self.finish(entry);
                }
            } else {
                i += 1;
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
            let mut i = 0;
            while i < self.sessions.len() {
                let e = &self.sessions[i];
                let idle = self.now_ms.saturating_sub(e.last_activity_ms);
                if e.mailbox.is_empty() && idle > limits.idle_evict_ms {
                    // Idle eviction parks instead of discarding: the
                    // client sees `!parked <id>` and can reconnect
                    // later with `session restore <id>`.
                    let entry = self.sessions.remove(i);
                    entry.engine.session.telemetry.count(Metric::ServeEvict);
                    self.park_entry(entry, Metric::ServeParkIdle);
                } else {
                    i += 1;
                }
            }
        }
        if let Some(started) = self.drain_started_ms {
            if limits.drain_timeout_ms > 0
                && self.now_ms.saturating_sub(started) > limits.drain_timeout_ms
                && !self.sessions.is_empty()
            {
                // Sessions still busy past the deadline are cut off
                // with their remaining queue unflushed.
                for entry in std::mem::take(&mut self.sessions) {
                    self.finish(entry);
                }
            }
        }
    }

    /// Whether a drain is in progress and this scheduler is done.
    pub fn is_drained(&self) -> bool {
        self.registry.draining() && self.sessions.is_empty()
    }

    /// Takes the passthrough lines collected since the last call, each
    /// tagged with the session that wrote it (the server logs these —
    /// in single-process frontend mode they went to stdout).
    pub fn take_passthrough(&mut self) -> Vec<(SessionId, String)> {
        std::mem::take(&mut self.passthrough)
    }

    /// Parks a session: captures it (pending application-bound lines
    /// included), hands the encoded snapshot to the registry under the
    /// session's stamped id, acks `!parked <id>` to the client and
    /// releases the slot. `cause` is the `serve.park.*` counter of why:
    /// manual, idle or drain.
    fn park_entry(&mut self, mut entry: Entry, cause: Metric) {
        let tel = entry.engine.session.telemetry.clone();
        let outbound = entry.engine.take_app_lines();
        let bytes = SessionSnapshot::capture(&entry.engine.session, outbound).encode();
        let len = bytes.len() as u64;
        match self.registry.park(entry.id, bytes, self.now_ms) {
            Ok(()) => {
                tel.count(cause);
                tel.add(Metric::ServeParkBytes, len);
                entry.sink.send(format!("!parked {}", entry.id));
            }
            Err(e) => {
                // A persistence failure is loud, never a silent
                // memory-only checkpoint the client would trust across
                // a restart.
                tel.count(Metric::ServeParkError);
                entry.sink.send(format!("!park-failed {} {e}", entry.id));
            }
        }
        self.finish(entry);
    }

    /// Replaces session `i`'s engine with one restored from the parked
    /// snapshot `old`, then replays the snapshot's outbound lines to
    /// the client right after the `!restored` ack — in exactly the
    /// order they were queued at park time.
    fn restore_entry(&mut self, i: usize, old: SessionId) {
        let Some(bytes) = self.registry.take_parked(old) else {
            // Validated when the command ran, but claimed by another
            // session since — a genuine race, reported like any miss.
            let entry = &mut self.sessions[i];
            entry
                .engine
                .session
                .telemetry
                .count(Metric::ServeRestoreMiss);
            if !entry.sink.send(format!("!restore-miss {old}")) {
                entry.gone = true;
            }
            return;
        };
        let ctl = self.sessions[i].ctl.clone();
        let display = self.sessions[i].display.clone();
        let tel = self.sessions[i].engine.session.telemetry.clone();
        let timer = tel.timer();
        match SessionSnapshot::decode_for(&bytes, self.flavor) {
            Err(e) => {
                tel.count(Metric::ServeRestoreError);
                let entry = &mut self.sessions[i];
                if !entry.sink.send(format!("!restore-failed {old} {e}")) {
                    entry.gone = true;
                }
            }
            Ok(snap) => {
                let id = self.sessions[i].id;
                let mut engine = build_engine(
                    &self.registry,
                    id,
                    self.flavor,
                    self.telemetry,
                    &ctl,
                    &display,
                );
                let report = snap.restore_into(&mut engine.session);
                let tel = engine.session.telemetry.clone();
                let entry = &mut self.sessions[i];
                // Output the outgoing engine still held is flushed
                // before the swap — it precedes the restore causally
                // and must precede `!restored` on the wire.
                for line in entry.engine.take_app_lines() {
                    if !entry.sink.send(line) {
                        entry.gone = true;
                    }
                }
                entry.engine = engine;
                entry.last_activity_ms = self.now_ms;
                if !entry.sink.send(format!("!restored {old}")) {
                    entry.gone = true;
                }
                for line in snap.outbound {
                    if !entry.sink.send(line) {
                        entry.gone = true;
                    }
                }
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

    fn finish(&mut self, entry: Entry) {
        entry.mailbox.close();
        self.registry.release(entry.id);
        let tel = entry.engine.session.telemetry.clone();
        tel.set_gauge(Metric::ServeSessionsActive, self.registry.active() as u64);
        // Dropping the entry drops its sink; a queue sink closing is what
        // tells the event loop to flush the tail and close the socket.
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
