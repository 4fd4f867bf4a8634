//! The backend supervisor: timeouts, restart policy, flood limits and
//! graceful degradation for frontend mode.
//!
//! The paper's frontend simply trusts the application process. This
//! layer removes that assumption: the child runs under a supervisor
//! with a small state machine
//!
//! ```text
//!           fault (timeout / exit / write error / injected kill)
//!   Running ──────────────────────────────────────────────┐
//!     ▲                                                   ▼
//!     │ respawn ok (flush queue)              restarts left? ──no──▶ Broken
//!     │                                                   │           (breaker
//!     └────────────── Restarting ◀──────yes── backoff     │            open)
//!                        │  ▲                             │
//!                        └──┘ respawn fails               │
//!                                                         │
//!   Exited ◀── clean child exit (restartOnExit off) ──────┘
//! ```
//!
//! While the backend is down the GUI stays alive: lines the session
//! wants to send are queued (bounded, with drop accounting) and flushed
//! in order after a successful restart. Time is virtual — each call to
//! [`Supervisor::tick`] advances the supervisor clock by the tick's poll
//! timeout — so every timeout and backoff decision is deterministic and
//! the chaos suite needs no wall-clock sleeps in its assertions.
//!
//! Everything observable lands in `wafe-trace` under
//! `ipc.supervisor.*` counters and `supervisor.*` journal events, and
//! the whole layer is scriptable through the `backend` and `faultpoint`
//! Tcl commands (registered by `wafe-core`, dispatching into handlers
//! installed here — see [`install_controls`]).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

use wafe_core::WafeSession;
use wafe_tcl::{TclError, Value};
use wafe_trace::{Metric, Telemetry};

use crate::codec::LineCodec;
use crate::fault::{truncate_line, FaultAction, FaultPlan};
use crate::frontend::{ChildLink, SpawnSpec};
use crate::protocol::ProtocolEngine;

/// Tuning knobs of the supervisor. The defaults reproduce the paper's
/// trusting frontend: no timeouts, no restarts, generous flood caps.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Declare a fault when no bytes arrive from the backend for this
    /// many virtual milliseconds (`None`/0 = never — the paper's
    /// behaviour, which hangs on a wedged child).
    pub read_timeout_ms: Option<u64>,
    /// Declare a fault when a line written to the backend stays
    /// unanswered (no complete line back) for this long.
    pub roundtrip_timeout_ms: Option<u64>,
    /// Restarts allowed before the circuit breaker opens.
    pub max_restarts: u32,
    /// First restart delay; doubles per consecutive restart.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_max_ms: u64,
    /// Complete lines handled per tick; the excess is deferred to later
    /// ticks (a flood trip, counted but not fatal).
    pub max_lines_per_tick: usize,
    /// Cap on buffered bytes without a newline AND on bytes read per
    /// tick. An unterminated line beyond this is a flood fault.
    pub max_buffered_bytes: usize,
    /// Outbound lines queued while the backend is down; writes beyond
    /// this are dropped (and counted).
    pub queue_cap: usize,
    /// Treat a clean child exit as a fault (restart it) instead of
    /// ending the session loop.
    pub restart_on_exit: bool,
    /// Keep the GUI loop running after the breaker opens instead of
    /// ending it.
    pub stay_alive_when_broken: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            read_timeout_ms: None,
            roundtrip_timeout_ms: None,
            max_restarts: 0,
            backoff_base_ms: 100,
            backoff_max_ms: 5_000,
            max_lines_per_tick: 10_000,
            max_buffered_bytes: 1 << 20,
            queue_cap: 256,
            restart_on_exit: false,
            stay_alive_when_broken: false,
        }
    }
}

/// The Tcl-visible config keys, in `backend config` listing order.
pub const CONFIG_KEYS: &[&str] = &[
    "readTimeout",
    "roundtripTimeout",
    "retries",
    "backoffBase",
    "backoffMax",
    "floodLines",
    "floodBytes",
    "queueCap",
    "restartOnExit",
    "stayAliveWhenBroken",
];

impl SupervisorConfig {
    /// Reads `WAFE_BACKEND_*` overrides on top of the defaults:
    /// `TIMEOUT` (read, ms; 0 disables), `ROUNDTRIP` (ms), `RETRIES`,
    /// `BACKOFF` / `BACKOFF_MAX` (ms), `FLOOD_LINES`, `FLOOD_BYTES`,
    /// `QUEUE`, `RESTART_ON_EXIT` (0/1), `STAY_ALIVE` (0/1). Unparsable
    /// values keep the default and come back as warnings — silently
    /// ignoring `WAFE_BACKEND_TIMEOUT=5s` would leave the paper's
    /// no-timeout behaviour in place with no hint why.
    pub fn from_env() -> (Self, Vec<String>) {
        Self::from_vars(|var| std::env::var(var).ok())
    }

    /// The testable core of [`from_env`](Self::from_env): same parsing
    /// against any variable source.
    pub fn from_vars(lookup: impl Fn(&str) -> Option<String>) -> (Self, Vec<String>) {
        let mut warnings = Vec::new();
        let mut num = |var: &str, max: u64| -> Option<u64> {
            let raw = lookup(var)?;
            match raw.trim().parse::<u64>() {
                Ok(v) if v <= max => Some(v),
                Ok(v) => {
                    warnings.push(format!("{var}={v} is out of range (max {max}); ignored"));
                    None
                }
                Err(_) => {
                    warnings.push(format!(
                        "{var}=\"{}\" is not a non-negative integer; ignored",
                        raw.trim()
                    ));
                    None
                }
            }
        };
        let mut c = SupervisorConfig::default();
        if let Some(v) = num("WAFE_BACKEND_TIMEOUT", u64::MAX) {
            c.read_timeout_ms = (v > 0).then_some(v);
        }
        if let Some(v) = num("WAFE_BACKEND_ROUNDTRIP", u64::MAX) {
            c.roundtrip_timeout_ms = (v > 0).then_some(v);
        }
        if let Some(v) = num("WAFE_BACKEND_RETRIES", u32::MAX as u64) {
            c.max_restarts = v as u32;
        }
        if let Some(v) = num("WAFE_BACKEND_BACKOFF", u64::MAX) {
            c.backoff_base_ms = v;
        }
        if let Some(v) = num("WAFE_BACKEND_BACKOFF_MAX", u64::MAX) {
            c.backoff_max_ms = v;
        }
        if let Some(v) = num("WAFE_BACKEND_FLOOD_LINES", usize::MAX as u64) {
            c.max_lines_per_tick = v as usize;
        }
        if let Some(v) = num("WAFE_BACKEND_FLOOD_BYTES", usize::MAX as u64) {
            c.max_buffered_bytes = v as usize;
        }
        if let Some(v) = num("WAFE_BACKEND_QUEUE", usize::MAX as u64) {
            c.queue_cap = v as usize;
        }
        if let Some(v) = num("WAFE_BACKEND_RESTART_ON_EXIT", 1) {
            c.restart_on_exit = v != 0;
        }
        if let Some(v) = num("WAFE_BACKEND_STAY_ALIVE", 1) {
            c.stay_alive_when_broken = v != 0;
        }
        (c, warnings)
    }

    /// The value of a Tcl-visible key ([`CONFIG_KEYS`]).
    pub fn get(&self, key: &str) -> Option<String> {
        Some(match key {
            "readTimeout" => self.read_timeout_ms.unwrap_or(0).to_string(),
            "roundtripTimeout" => self.roundtrip_timeout_ms.unwrap_or(0).to_string(),
            "retries" => self.max_restarts.to_string(),
            "backoffBase" => self.backoff_base_ms.to_string(),
            "backoffMax" => self.backoff_max_ms.to_string(),
            "floodLines" => self.max_lines_per_tick.to_string(),
            "floodBytes" => self.max_buffered_bytes.to_string(),
            "queueCap" => self.queue_cap.to_string(),
            "restartOnExit" => (self.restart_on_exit as u8).to_string(),
            "stayAliveWhenBroken" => (self.stay_alive_when_broken as u8).to_string(),
            _ => return None,
        })
    }

    /// Sets a Tcl-visible key from its string form.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let n: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("expected integer but got \"{value}\""))?;
        match key {
            "readTimeout" => self.read_timeout_ms = (n > 0).then_some(n),
            "roundtripTimeout" => self.roundtrip_timeout_ms = (n > 0).then_some(n),
            "retries" => self.max_restarts = n as u32,
            "backoffBase" => self.backoff_base_ms = n,
            "backoffMax" => self.backoff_max_ms = n,
            "floodLines" => self.max_lines_per_tick = n as usize,
            "floodBytes" => self.max_buffered_bytes = n as usize,
            "queueCap" => self.queue_cap = n as usize,
            "restartOnExit" => self.restart_on_exit = n != 0,
            "stayAliveWhenBroken" => self.stay_alive_when_broken = n != 0,
            _ => {
                return Err(format!(
                    "unknown config key \"{key}\": must be one of {}",
                    CONFIG_KEYS.join(", ")
                ))
            }
        }
        Ok(())
    }
}

/// Where the supervised backend currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendState {
    /// Child alive, pipes flowing.
    Running,
    /// Child down; a respawn is scheduled (exponential backoff).
    Restarting,
    /// The circuit breaker is open: restart budget exhausted. A manual
    /// `backend restart` resets the breaker.
    Broken,
    /// The child exited and the session let it (restartOnExit off), or
    /// `backend kill` / `Frontend::kill` ran.
    Exited,
}

impl fmt::Display for BackendState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendState::Running => "running",
            BackendState::Restarting => "restarting",
            BackendState::Broken => "broken",
            BackendState::Exited => "exited",
        })
    }
}

enum PendingCtl {
    Restart,
    Kill,
}

/// The shared, script-visible half of the supervisor: configuration,
/// state, the outbound queue and the fault plan. The `backend`
/// and `faultpoint` commands operate on this handle while the owning
/// [`Supervisor`] drives the child.
pub struct SupervisorCore {
    /// Tuning knobs (mutable at runtime via `backend config`).
    pub config: SupervisorConfig,
    /// The session's telemetry store, which holds the event totals
    /// (`ipc.supervisor.*`) `backend status` reports.
    tel: Telemetry,
    /// The active fault plan, if any.
    pub plan: Option<FaultPlan>,
    state: BackendState,
    queue: VecDeque<String>,
    now_ms: u64,
    due_ms: u64,
    restarts_done: u32,
    last_data_ms: u64,
    pending_write_ms: Option<u64>,
    pending: Vec<PendingCtl>,
}

impl SupervisorCore {
    fn new(config: SupervisorConfig, plan: Option<FaultPlan>, tel: Telemetry) -> Self {
        SupervisorCore {
            config,
            tel,
            plan,
            state: BackendState::Running,
            queue: VecDeque::new(),
            now_ms: 0,
            due_ms: 0,
            restarts_done: 0,
            last_data_ms: 0,
            pending_write_ms: None,
            pending: Vec::new(),
        }
    }

    /// The current backend state.
    pub fn state(&self) -> BackendState {
        self.state
    }

    /// The supervisor's virtual clock, in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Lines currently queued for the backend.
    pub fn queued_lines(&self) -> Vec<String> {
        self.queue.iter().cloned().collect()
    }

    /// Requests a forced restart: executed on the next tick, resetting
    /// the circuit breaker (an explicit operator decision).
    pub fn request_restart(&mut self) {
        self.pending.push(PendingCtl::Restart);
    }

    /// Requests a kill without restart: executed on the next tick.
    pub fn request_kill(&mut self) {
        self.pending.push(PendingCtl::Kill);
    }

    /// `backend status` payload: a flat key/value word list.
    pub fn status_words(&self) -> Vec<String> {
        let n = |m: Metric| self.tel.value(m).to_string();
        [
            ("state", self.state.to_string()),
            ("restarts", n(Metric::IpcSupervisorRestarts)),
            (
                "restartsLeft",
                self.config
                    .max_restarts
                    .saturating_sub(self.restarts_done)
                    .to_string(),
            ),
            ("queued", self.queue.len().to_string()),
            ("dropped", n(Metric::IpcSupervisorQueueDropped)),
            ("flushed", n(Metric::IpcSupervisorQueueFlushed)),
            ("readTimeouts", n(Metric::IpcSupervisorTimeoutsRead)),
            (
                "roundtripTimeouts",
                n(Metric::IpcSupervisorTimeoutsRoundtrip),
            ),
            ("floodTrips", n(Metric::IpcSupervisorFloodTrips)),
            ("breakerTrips", n(Metric::IpcSupervisorBreakerTrips)),
            ("faultsInjected", n(Metric::IpcSupervisorFaultsInjected)),
            ("exits", n(Metric::IpcSupervisorExits)),
            ("writeErrors", n(Metric::IpcSupervisorWriteErrors)),
            ("spawnFailures", n(Metric::IpcSupervisorSpawnFailures)),
            ("nowMs", self.now_ms.to_string()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect()
    }
}

fn backoff_ms(config: &SupervisorConfig, attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1).min(20);
    config
        .backoff_base_ms
        .saturating_mul(1u64 << shift)
        .min(config.backoff_max_ms)
}

/// Chunks a `Delay` fault holds back, each with the tick it falls due.
type DelayQueue = VecDeque<(u64, Vec<u8>)>;

/// The driving half: owns the child process (when one is alive), the
/// shared line codec and the fault-delayed byte queues, and advances the
/// state machine once per [`tick`](Supervisor::tick).
pub struct Supervisor {
    core: Rc<RefCell<SupervisorCore>>,
    link: Option<ChildLink>,
    spec: SpawnSpec,
    codec: LineCodec,
    deferred: VecDeque<String>,
    delayed: DelayQueue,
    delayed_mass: DelayQueue,
    channel_fd: Rc<Cell<i64>>,
    tel: Telemetry,
    last_write: Option<Instant>,
    /// Token of the open detached `ipc.roundtrip` span (0 = none): begun
    /// at the first unanswered write, closed by the reply or the fault
    /// that ends the wait. Detached because the reply arrives long after
    /// the command span that caused the write has closed; the span still
    /// carries that command's trace ID.
    roundtrip_span: u64,
}

impl Supervisor {
    /// Spawns the first child incarnation under the given policy.
    pub fn new(
        spec: SpawnSpec,
        config: SupervisorConfig,
        plan: Option<FaultPlan>,
        tel: Telemetry,
        channel_fd: Rc<Cell<i64>>,
    ) -> std::io::Result<Supervisor> {
        let max_buffered = config.max_buffered_bytes;
        let core = Rc::new(RefCell::new(SupervisorCore::new(config, plan, tel.clone())));
        let mut sup = Supervisor {
            core,
            link: None,
            spec,
            codec: LineCodec::new(max_buffered),
            deferred: VecDeque::new(),
            delayed: VecDeque::new(),
            delayed_mass: VecDeque::new(),
            channel_fd,
            tel,
            last_write: None,
            roundtrip_span: 0,
        };
        if sup.fire("spawn").contains(&FaultAction::Kill) {
            return Err(std::io::Error::other("fault injected: spawn kill"));
        }
        let link = ChildLink::spawn(&sup.spec, &sup.channel_fd)?;
        sup.link = Some(link);
        if let Some(ic) = sup.spec.init_com.clone() {
            if let Err(e) = sup.transmit(&ic) {
                sup.declare_fault("init-com write failed", &e.to_string());
            }
        }
        Ok(sup)
    }

    /// The shared handle the `backend`/`faultpoint` commands use.
    pub fn core(&self) -> Rc<RefCell<SupervisorCore>> {
        self.core.clone()
    }

    /// The current state.
    pub fn state(&self) -> BackendState {
        self.core.borrow().state
    }

    /// Kills the child process *without* telling the supervisor — the
    /// next tick observes the exit and applies the restart policy. The
    /// chaos tests use this as a deterministic external crash.
    pub fn kill_child_process(&mut self) {
        if let Some(link) = &mut self.link {
            link.kill_process();
        }
    }

    /// Whether the current child process has exited (sticky once seen).
    pub fn child_exited(&mut self) -> bool {
        self.link.as_mut().map(|l| l.exited()).unwrap_or(false)
    }

    /// Tears the backend down for good (test cleanup, `Frontend::kill`).
    pub fn shutdown(&mut self) {
        self.drop_link();
        self.core.borrow_mut().state = BackendState::Exited;
    }

    // ----- outbound ---------------------------------------------------

    /// Sends one line toward the backend: delivered when running,
    /// queued while down, dropped (with accounting) when the queue is
    /// full.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        if self.core.borrow().state != BackendState::Running || self.link.is_none() {
            self.enqueue(line.to_string());
            return Ok(());
        }
        let mut line = line.to_string();
        for action in self.fire("write") {
            match action {
                FaultAction::Kill => {
                    self.declare_fault("injected kill", "write");
                    self.enqueue(line);
                    return Ok(());
                }
                FaultAction::Wedge | FaultAction::Drop => return Ok(()),
                FaultAction::Garble => {
                    line = self.with_plan(|p| p.garble_line(&line)).unwrap_or(line);
                }
                FaultAction::Truncate(n) => line = truncate_line(&line, n),
                FaultAction::Delay(_) | FaultAction::Flood(_) => {}
            }
        }
        match self.transmit(&line) {
            Ok(()) => {
                let mut core = self.core.borrow_mut();
                let now = core.now_ms;
                core.pending_write_ms.get_or_insert(now);
                Ok(())
            }
            Err(e) => {
                self.tel.count(Metric::IpcSupervisorWriteErrors);
                self.enqueue(line);
                self.declare_fault("write failed", &e.to_string());
                Ok(())
            }
        }
    }

    fn transmit(&mut self, line: &str) -> std::io::Result<()> {
        let link = self
            .link
            .as_mut()
            .ok_or_else(|| std::io::Error::other("no backend"))?;
        self.tel.count(Metric::IpcLinesSent);
        self.tel.add(Metric::IpcBytesSent, line.len() as u64);
        self.last_write = self.tel.timer();
        if self.roundtrip_span == 0 {
            self.roundtrip_span = self
                .tel
                .span_begin_detached(Metric::IpcRoundtrip.name(), || line.to_string());
        }
        link.write_line(line)
    }

    fn enqueue(&mut self, line: String) {
        let mut core = self.core.borrow_mut();
        if core.queue.len() >= core.config.queue_cap {
            self.tel.count(Metric::IpcSupervisorQueueDropped);
            self.tel
                .event("supervisor.drop", || format!("queue full, dropped: {line}"));
        } else {
            core.queue.push_back(line);
            let depth = core.queue.len() as u64;
            self.tel.set_gauge(Metric::IpcSupervisorQueueDepth, depth);
        }
    }

    // ----- fault plumbing ---------------------------------------------

    fn fire(&mut self, point: &'static str) -> Vec<FaultAction> {
        let mut core = self.core.borrow_mut();
        let Some(plan) = core.plan.as_mut() else {
            return Vec::new();
        };
        let actions = plan.fire(point);
        if !actions.is_empty() {
            self.tel
                .add(Metric::IpcSupervisorFaultsInjected, actions.len() as u64);
            for a in &actions {
                self.tel.event("fault.injected", || format!("{point}: {a}"));
            }
        }
        actions
    }

    fn with_plan<T>(&mut self, f: impl FnOnce(&mut FaultPlan) -> T) -> Option<T> {
        self.core.borrow_mut().plan.as_mut().map(f)
    }

    fn drop_link(&mut self) {
        if let Some(mut link) = self.link.take() {
            link.kill_process();
        }
        self.channel_fd.set(-1);
        self.codec.clear();
        self.deferred.clear();
        self.delayed.clear();
        self.delayed_mass.clear();
        self.last_write = None;
        // A roundtrip cut short by teardown still ends — at the fault,
        // not at a reply that will never come.
        self.tel
            .span_end_detached(std::mem::take(&mut self.roundtrip_span));
    }

    /// Declares a fault: the current child (if any) is torn down with
    /// its partial data, then either a restart is scheduled or the
    /// breaker opens.
    fn declare_fault(&mut self, kind: &str, detail: &str) {
        self.drop_link();
        let mut core = self.core.borrow_mut();
        let now = core.now_ms;
        core.pending_write_ms = None;
        // Fault-path events carry the active trace ID so a journal read
        // attributes the failure to the session command that hit it.
        let note = self.tel.trace_note();
        self.tel
            .event("supervisor.fault", || format!("{kind}: {detail}{note}"));
        if core.restarts_done < core.config.max_restarts {
            core.restarts_done += 1;
            let wait = backoff_ms(&core.config, core.restarts_done);
            core.due_ms = now + wait;
            core.state = BackendState::Restarting;
            let attempt = core.restarts_done;
            let note = self.tel.trace_note();
            self.tel.event("supervisor.backoff", || {
                format!("restart {attempt} in {wait}ms{note}")
            });
        } else {
            core.state = BackendState::Broken;
            self.tel.count(Metric::IpcSupervisorBreakerTrips);
            let note = self.tel.trace_note();
            self.tel
                .event("supervisor.breaker", || format!("open after {kind}{note}"));
        }
    }

    fn attempt_respawn(&mut self) {
        if self.fire("spawn").contains(&FaultAction::Kill) {
            self.tel.count(Metric::IpcSupervisorSpawnFailures);
            self.declare_fault("respawn failed", "fault injected: spawn kill");
            return;
        }
        match ChildLink::spawn(&self.spec, &self.channel_fd) {
            Ok(link) => {
                self.link = Some(link);
                self.codec.clear();
                {
                    let mut core = self.core.borrow_mut();
                    core.state = BackendState::Running;
                    let now = core.now_ms;
                    core.last_data_ms = now;
                    core.pending_write_ms = None;
                    self.tel.count(Metric::IpcSupervisorRestarts);
                    let n = self.tel.value(Metric::IpcSupervisorRestarts);
                    let note = self.tel.trace_note();
                    self.tel
                        .event("supervisor.restart", || format!("respawn #{n} ok{note}"));
                }
                if let Some(ic) = self.spec.init_com.clone() {
                    if let Err(e) = self.transmit(&ic) {
                        self.declare_fault("init-com write failed", &e.to_string());
                        return;
                    }
                }
                // Flush the click-ahead queue in order.
                loop {
                    let next = self.core.borrow_mut().queue.pop_front();
                    let Some(queued) = next else { break };
                    match self.transmit(&queued) {
                        Ok(()) => {
                            self.tel.count(Metric::IpcSupervisorQueueFlushed);
                        }
                        Err(e) => {
                            self.core.borrow_mut().queue.push_front(queued);
                            self.declare_fault("queue flush failed", &e.to_string());
                            return;
                        }
                    }
                }
                let depth = self.core.borrow().queue.len() as u64;
                self.tel.set_gauge(Metric::IpcSupervisorQueueDepth, depth);
            }
            Err(e) => {
                self.tel.count(Metric::IpcSupervisorSpawnFailures);
                self.declare_fault("respawn failed", &e.to_string());
            }
        }
    }

    // ----- inbound ----------------------------------------------------

    /// Applies the byte faults fired at `point` (the `read` and `mass`
    /// channels) to `chunk`. Returns the bytes to pass on, or `None`
    /// when a kill tore the child down or a delay parked the chunk in the
    /// channel's `queue`.
    fn byte_faults(
        &mut self,
        point: &'static str,
        mut chunk: Vec<u8>,
        queue: fn(&mut Self) -> &mut DelayQueue,
    ) -> Option<Vec<u8>> {
        for action in self.fire(point) {
            match action {
                FaultAction::Kill => {
                    self.declare_fault("injected kill", point);
                    return None;
                }
                FaultAction::Wedge | FaultAction::Drop => chunk.clear(),
                FaultAction::Garble => {
                    self.with_plan(|p| p.garble_bytes(&mut chunk));
                }
                FaultAction::Truncate(n) => chunk.truncate(n),
                FaultAction::Delay(ms) => {
                    if !chunk.is_empty() {
                        let due = self.core.borrow().now_ms + ms;
                        queue(self).push_back((due, chunk));
                    }
                    return None;
                }
                FaultAction::Flood(n) => {
                    let one = chunk.clone();
                    for _ in 1..n {
                        chunk.extend_from_slice(&one);
                    }
                }
            }
        }
        Some(chunk)
    }

    /// Hands each chunk of `queue` whose delay has run out to `deliver`,
    /// oldest first.
    fn release_due(
        &mut self,
        queue: fn(&mut Self) -> &mut DelayQueue,
        mut deliver: impl FnMut(&mut Self, Vec<u8>),
    ) {
        let now = self.core.borrow().now_ms;
        while matches!(queue(self).front(), Some((due, _)) if *due <= now) {
            let (_, chunk) = queue(self).pop_front().expect("front checked");
            deliver(self, chunk);
        }
    }

    fn ingest_read_bytes(&mut self, chunk: Vec<u8>) {
        if let Some(chunk) = self.byte_faults("read", chunk, |s| &mut s.delayed) {
            self.assemble(chunk);
        }
    }

    fn assemble(&mut self, chunk: Vec<u8>) {
        if chunk.is_empty() {
            return;
        }
        {
            let mut core = self.core.borrow_mut();
            let now = core.now_ms;
            core.last_data_ms = now;
        }
        for line in self.codec.push(&chunk) {
            self.admit_line(line);
            if self.core.borrow().state != BackendState::Running {
                return; // an injected kill tore the child down mid-chunk
            }
        }
    }

    fn admit_line(&mut self, line: String) {
        let mut lines = vec![line];
        for action in self.fire("line") {
            match action {
                FaultAction::Kill => {
                    // The line dies with the child: kill mid-line.
                    self.declare_fault("injected kill", "line");
                    return;
                }
                FaultAction::Wedge | FaultAction::Drop => return,
                FaultAction::Garble => {
                    if let Some(g) = self.with_plan(|p| p.garble_line(&lines[0])) {
                        lines[0] = g;
                    }
                }
                FaultAction::Truncate(n) => lines[0] = truncate_line(&lines[0], n),
                FaultAction::Flood(n) => {
                    let one = lines[0].clone();
                    lines = std::iter::repeat_with(|| one.clone()).take(n).collect();
                }
                FaultAction::Delay(_) => {}
            }
        }
        self.deferred.extend(lines);
    }

    fn ingest_mass(&mut self, engine: &mut ProtocolEngine, chunk: Vec<u8>) {
        let Some(chunk) = self.byte_faults("mass", chunk, |s| &mut s.delayed_mass) else {
            return;
        };
        if !chunk.is_empty() {
            {
                let mut core = self.core.borrow_mut();
                let now = core.now_ms;
                core.last_data_ms = now;
            }
            engine.handle_mass_data(&chunk);
        }
    }

    fn process_deferred(&mut self, engine: &mut ProtocolEngine) {
        let cap = self.core.borrow().config.max_lines_per_tick.max(1);
        let mut handled = 0usize;
        while handled < cap {
            let Some(line) = self.deferred.pop_front() else {
                break;
            };
            self.tel
                .observe_since(Metric::IpcRoundtrip, self.last_write.take());
            self.tel
                .span_end_detached(std::mem::take(&mut self.roundtrip_span));
            self.core.borrow_mut().pending_write_ms = None;
            let _ = engine.handle_line(&line);
            handled += 1;
        }
        if !self.deferred.is_empty() {
            let backlog = self.deferred.len();
            self.tel.count(Metric::IpcSupervisorFloodTrips);
            self.tel.event("supervisor.flood", || {
                format!("deferred {backlog} lines past the {cap}/tick cap")
            });
        }
    }

    // ----- the tick ---------------------------------------------------

    /// One supervised iteration of the event loop: advances the virtual
    /// clock by `timeout`, executes control requests, runs due
    /// restarts, polls/reads the child, applies the fault plan, feeds
    /// the protocol engine (bounded per tick) and checks timeouts.
    /// Returns true when the session loop should end (backend exited
    /// and drained, or breaker open without `stayAliveWhenBroken`).
    pub fn tick(&mut self, engine: &mut ProtocolEngine, timeout: Duration) -> bool {
        {
            let mut core = self.core.borrow_mut();
            core.now_ms = core.now_ms.saturating_add(timeout.as_millis() as u64);
        }
        // Control requests from the `backend` command.
        let pending: Vec<PendingCtl> = std::mem::take(&mut self.core.borrow_mut().pending);
        for ctl in pending {
            match ctl {
                PendingCtl::Kill => {
                    self.drop_link();
                    let mut core = self.core.borrow_mut();
                    core.state = BackendState::Exited;
                    self.tel.count(Metric::IpcSupervisorExits);
                    let note = self.tel.trace_note();
                    self.tel
                        .event("supervisor.exit", || format!("backend kill{note}"));
                }
                PendingCtl::Restart => {
                    self.drop_link();
                    let mut core = self.core.borrow_mut();
                    core.restarts_done = 0; // operator action resets the breaker
                    core.state = BackendState::Restarting;
                    core.due_ms = core.now_ms;
                }
            }
        }
        let (state, due, now) = {
            let core = self.core.borrow();
            (core.state, core.due_ms, core.now_ms)
        };
        if state == BackendState::Restarting && now >= due {
            self.attempt_respawn();
        }
        if self.core.borrow().state == BackendState::Running {
            self.running_tick(engine, timeout);
        } else if !timeout.is_zero() {
            // No live child to poll: pace the loop like poll(2) would.
            std::thread::sleep(timeout);
        }
        let core = self.core.borrow();
        match core.state {
            BackendState::Exited => true,
            BackendState::Broken => !core.config.stay_alive_when_broken,
            _ => false,
        }
    }

    fn running_tick(&mut self, engine: &mut ProtocolEngine, timeout: Duration) {
        let Some(link) = self.link.as_mut() else {
            return;
        };
        let cap = self.core.borrow().config.max_buffered_bytes.max(4096);
        let (stdout_ready, _mass_ready) = link.poll(timeout);
        let mut saw_eof = false;
        if stdout_ready {
            let (chunk, eof) = link.read_stdout(cap);
            saw_eof = eof;
            if !chunk.is_empty() {
                self.ingest_read_bytes(chunk);
            }
        }
        self.release_due(|s| &mut s.delayed, Self::assemble);
        if self.core.borrow().state != BackendState::Running {
            return;
        }
        // Mass channel (non-blocking; the fd may be ready without poll
        // having flagged it in the same tick).
        if let Some(link) = self.link.as_mut() {
            let mass = link.read_mass(cap);
            if !mass.is_empty() {
                self.ingest_mass(engine, mass);
            }
        }
        self.release_due(
            |s| &mut s.delayed_mass,
            |_, chunk| engine.handle_mass_data(&chunk),
        );
        if self.core.borrow().state != BackendState::Running {
            return;
        }
        self.process_deferred(engine);
        // Flood defense: an unterminated monster line.
        let overflows = self.codec.take_overflows();
        if overflows > 0 {
            self.tel.add(Metric::IpcSupervisorFloodTrips, overflows);
            self.declare_fault("flood", "unterminated line exceeded floodBytes");
            return;
        }
        // Child gone? `try_wait` can report the exit while the child's
        // last writes still sit unread in the pipe: read on to EOF first.
        // Whatever arrives is handled by the next ticks like any other
        // output, and the exit is seen again once it is drained.
        if !saw_eof && self.child_exited() {
            let link = self.link.as_mut().expect("checked by child_exited");
            let (chunk, _) = link.read_stdout(cap);
            if !chunk.is_empty() {
                self.ingest_read_bytes(chunk);
                return;
            }
            // Nothing left (without EOF a grandchild still holds the
            // pipe): the exit stands.
            saw_eof = true;
        }
        if saw_eof
            && self.codec.pending() == 0
            && self.deferred.is_empty()
            && self.delayed.is_empty()
        {
            self.tel.count(Metric::IpcSupervisorExits);
            let note = self.tel.trace_note();
            self.tel
                .event("supervisor.exit", || format!("child exited{note}"));
            if self.core.borrow().config.restart_on_exit {
                self.declare_fault("child exit", "restartOnExit policy");
            } else {
                self.drop_link();
                self.core.borrow_mut().state = BackendState::Exited;
            }
            return;
        }
        // Timeouts (virtual time).
        let (read_to, rt_to, now, last_data, pending_write) = {
            let core = self.core.borrow();
            (
                core.config.read_timeout_ms,
                core.config.roundtrip_timeout_ms,
                core.now_ms,
                core.last_data_ms,
                core.pending_write_ms,
            )
        };
        if let Some(limit) = read_to {
            if now.saturating_sub(last_data) > limit {
                self.tel.count(Metric::IpcSupervisorTimeoutsRead);
                self.declare_fault("read timeout", "no data from backend");
                return;
            }
        }
        if let Some(limit) = rt_to {
            if let Some(written) = pending_write {
                if now.saturating_sub(written) > limit {
                    self.tel.count(Metric::IpcSupervisorTimeoutsRoundtrip);
                    self.declare_fault("roundtrip timeout", "backend did not answer");
                }
            }
        }
    }
}

/// Registers the `backend` and `faultpoint` commands on the session's
/// interpreter, shadowing the toolkit image's placeholders (which report
/// "no backend attached").
pub fn install_controls(core: &Rc<RefCell<SupervisorCore>>, session: &mut WafeSession) {
    let c = core.clone();
    session.interp.register("backend", move |_, argv| {
        backend_control(&c, argv)
            .map(Value::from)
            .map_err(TclError::Error)
    });
    let c = core.clone();
    session.interp.register("faultpoint", move |_, argv| {
        faultpoint_control(&c, argv)
            .map(Value::from)
            .map_err(TclError::Error)
    });
}

fn backend_control(core: &Rc<RefCell<SupervisorCore>>, argv: &[Value]) -> Result<String, String> {
    const USAGE: &str = "backend status|restart|kill|config ?key ?value??|queue";
    match argv.get(1).map(Value::as_str) {
        Some("status") if argv.len() == 2 => Ok(wafe_tcl::list_join(&core.borrow().status_words())),
        Some("restart") if argv.len() == 2 => {
            core.borrow_mut().request_restart();
            Ok(String::new())
        }
        Some("kill") if argv.len() == 2 => {
            core.borrow_mut().request_kill();
            Ok(String::new())
        }
        Some("config") => match argv.len() {
            2 => {
                let core = core.borrow();
                let words: Vec<String> = CONFIG_KEYS
                    .iter()
                    .flat_map(|k| {
                        [
                            k.to_string(),
                            core.config.get(k).expect("every listed key resolves"),
                        ]
                    })
                    .collect();
                Ok(wafe_tcl::list_join(&words))
            }
            3 => core.borrow().config.get(argv[2].as_str()).ok_or_else(|| {
                format!(
                    "unknown config key \"{}\": must be one of {}",
                    argv[2],
                    CONFIG_KEYS.join(", ")
                )
            }),
            4 => {
                core.borrow_mut()
                    .config
                    .set(argv[2].as_str(), argv[3].as_str())?;
                Ok(String::new())
            }
            _ => Err(format!("wrong # args: should be \"{USAGE}\"")),
        },
        Some("queue") if argv.len() == 2 => Ok(wafe_tcl::list_join(&core.borrow().queued_lines())),
        _ => Err(format!("wrong # args: should be \"{USAGE}\"")),
    }
}

fn faultpoint_control(
    core: &Rc<RefCell<SupervisorCore>>,
    argv: &[Value],
) -> Result<String, String> {
    const USAGE: &str = "faultpoint set spec|clear|list";
    match argv.get(1).map(Value::as_str) {
        Some("set") if argv.len() == 3 => {
            let plan = FaultPlan::parse(argv[2].as_str())?;
            let n = plan.describe().len();
            core.borrow_mut().plan = Some(plan);
            Ok(n.to_string())
        }
        Some("clear") if argv.len() == 2 => {
            core.borrow_mut().plan = None;
            Ok(String::new())
        }
        Some("list") if argv.len() == 2 => Ok(core
            .borrow()
            .plan
            .as_ref()
            .map(|p| wafe_tcl::list_join(&p.describe()))
            .unwrap_or_default()),
        _ => Err(format!("wrong # args: should be \"{USAGE}\"")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = SupervisorConfig {
            backoff_base_ms: 100,
            backoff_max_ms: 1_000,
            ..SupervisorConfig::default()
        };
        assert_eq!(backoff_ms(&cfg, 1), 100);
        assert_eq!(backoff_ms(&cfg, 2), 200);
        assert_eq!(backoff_ms(&cfg, 3), 400);
        assert_eq!(backoff_ms(&cfg, 4), 800);
        assert_eq!(backoff_ms(&cfg, 5), 1_000, "capped");
        assert_eq!(backoff_ms(&cfg, 60), 1_000, "shift is clamped, no overflow");
    }

    #[test]
    fn config_roundtrips_through_tcl_keys() {
        let mut cfg = SupervisorConfig::default();
        for key in CONFIG_KEYS {
            assert!(cfg.get(key).is_some(), "{key} must be readable");
        }
        cfg.set("readTimeout", "250").unwrap();
        assert_eq!(cfg.read_timeout_ms, Some(250));
        cfg.set("readTimeout", "0").unwrap();
        assert_eq!(cfg.read_timeout_ms, None, "0 disables");
        cfg.set("retries", "7").unwrap();
        assert_eq!(cfg.max_restarts, 7);
        cfg.set("restartOnExit", "1").unwrap();
        assert!(cfg.restart_on_exit);
        assert!(cfg.set("nosuchknob", "1").is_err());
        assert!(cfg.set("retries", "many").is_err());
    }

    #[test]
    fn default_config_is_the_papers_trusting_frontend() {
        let cfg = SupervisorConfig::default();
        assert_eq!(cfg.read_timeout_ms, None);
        assert_eq!(cfg.roundtrip_timeout_ms, None);
        assert_eq!(cfg.max_restarts, 0);
        assert!(!cfg.restart_on_exit);
    }

    #[test]
    fn status_words_are_a_flat_even_list() {
        let core = SupervisorCore::new(SupervisorConfig::default(), None, Telemetry::new());
        let words = core.status_words();
        assert!(words.len() >= 8);
        assert!(words.len().is_multiple_of(2));
        assert_eq!(words[0], "state");
        assert_eq!(words[1], "running");
    }
}
