//! The backend supervisor: frontend mode's application program as a
//! connection of the event loop, with timeouts, restart policy and
//! graceful degradation.
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
//! [`Supervisor`] is the one connection ([`ConnIo`]) of frontend mode's
//! one-session event loop: it reads the child's stdout, writes its
//! stdin nonblocking (polled for writability while output is stuck, so
//! a child that leaves its stdin unread never stalls the GUI), and
//! hands the mass-transfer pipe to the engine as the connection's side
//! channel. The loop frames lines, runs them at most `floodLines` per
//! turn and writes replies exactly as it does for a socket; the policy
//! sits in the trait's hooks:
//!
//! * `read`, `admit`, `next_line` and `after_turn` consult the `read`,
//!   `line`, `write` and `mass` fault points, `start` and each respawn
//!   the `spawn` point — the same [`FaultPlan`] the scheduler consults
//!   at `display`;
//! * `tick` runs on the scheduler's virtual clock: `backend` control
//!   requests, due restarts, delayed chunks, exit detection, and the
//!   read and round-trip timeouts — so every timeout and backoff
//!   decision is deterministic and the chaos suite needs no wall-clock
//!   sleeps in its assertions;
//! * `next_line` sends InitCom and then the lines queued while the
//!   child was down ahead of anything else after each spawn;
//! * `after_turn` counts a flood trip when the backend outran a turn;
//! * `bind` installs the `backend` and `faultpoint` commands.
//!
//! docs/supervisor.md tabulates every hook.
//!
//! While the backend is down the GUI stays alive: lines the session
//! wants to send are queued (bounded by `queueCap`, with drop
//! accounting) and flushed in order after a successful restart. When
//! it is gone for good (exited, or the breaker open without
//! `stayAliveWhenBroken`) the connection reads EOF and the session ends.
//!
//! Everything observable lands in `wafe-trace` under
//! `ipc.supervisor.*` counters and `supervisor.*` journal events, and
//! the whole layer is scriptable through the `backend` and `faultpoint`
//! Tcl commands (registered by `wafe-core`, dispatching into handlers
//! installed here — see [`install_controls`]).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::OwnedFd;
use std::os::unix::io::{AsRawFd, RawFd};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use wafe_core::commands::register_placeholder;
use wafe_core::WafeSession;
use wafe_ipc::fault::truncate_line;
use wafe_ipc::{
    child_pipe, set_nonblocking, FaultAction, FaultPlan, Interest, LineCodec, ProtocolEngine,
};
use wafe_tcl::{TclError, Value};
use wafe_trace::{Metric, Telemetry};

use crate::event_loop::{ConnIo, READ_SWEEP_CAP};
use crate::registry::Registry;
use crate::scheduler::{settings, SharedPlan};

/// The fd number at which the child inherits the write end of the
/// mass-transfer channel; `getChannel` reports the fd Wafe listens on.
pub const MASS_CHANNEL_CHILD_FD: i32 = 5;

/// Tuning knobs of the supervisor. The defaults reproduce the paper's
/// trusting frontend: no timeouts, no restarts, a generous quantum.
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
    /// Lines handled per turn: seeds the one-session loop's quantum at
    /// spawn, which `backend config floodLines` reads and sets from then
    /// on. A backend that writes more waits for later turns (a flood
    /// trip, counted but not fatal).
    pub max_lines_per_tick: usize,
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
    "queueCap",
    "restartOnExit",
    "stayAliveWhenBroken",
];

/// Each key's `WAFE_BACKEND_*` variable and its largest value.
const CONFIG_VARS: [(&str, u64); 9] = [
    ("WAFE_BACKEND_TIMEOUT", u64::MAX),
    ("WAFE_BACKEND_ROUNDTRIP", u64::MAX),
    ("WAFE_BACKEND_RETRIES", u32::MAX as u64),
    ("WAFE_BACKEND_BACKOFF", u64::MAX),
    ("WAFE_BACKEND_BACKOFF_MAX", u64::MAX),
    ("WAFE_BACKEND_FLOOD_LINES", usize::MAX as u64),
    ("WAFE_BACKEND_QUEUE", usize::MAX as u64),
    ("WAFE_BACKEND_RESTART_ON_EXIT", 1),
    ("WAFE_BACKEND_STAY_ALIVE", 1),
];

impl SupervisorConfig {
    /// Reads `WAFE_BACKEND_*` overrides on top of the defaults:
    /// `TIMEOUT` (read, ms; 0 disables), `ROUNDTRIP` (ms), `RETRIES`,
    /// `BACKOFF` / `BACKOFF_MAX` (ms), `FLOOD_LINES`, `QUEUE`,
    /// `RESTART_ON_EXIT` (0/1), `STAY_ALIVE` (0/1). Unparsable or
    /// out-of-range values keep the default and come back as warnings
    /// — silently ignoring `WAFE_BACKEND_TIMEOUT=5s` would leave the
    /// paper's no-timeout behaviour in place with no hint why.
    pub fn from_env() -> (Self, Vec<String>) {
        Self::from_vars(|var| std::env::var(var).ok())
    }

    /// The testable core of [`from_env`](Self::from_env): same parsing
    /// against any variable source.
    pub fn from_vars(lookup: impl Fn(&str) -> Option<String>) -> (Self, Vec<String>) {
        let mut c = SupervisorConfig::default();
        let mut warnings = Vec::new();
        for (key, (var, max)) in CONFIG_KEYS.iter().zip(CONFIG_VARS) {
            let Some(raw) = lookup(var) else { continue };
            match raw.trim().parse::<u64>() {
                Ok(v) if v <= max => c.set_number(key, v),
                Ok(v) => warnings.push(format!("{var}={v} is out of range (max {max}); ignored")),
                Err(_) => warnings.push(format!(
                    "{var}=\"{}\" is not a non-negative integer; ignored",
                    raw.trim()
                )),
            }
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
        if !CONFIG_KEYS.contains(&key) {
            return Err(format!(
                "unknown config key \"{key}\": must be one of {}",
                CONFIG_KEYS.join(", ")
            ));
        }
        self.set_number(key, n);
        Ok(())
    }

    fn set_number(&mut self, key: &str, n: u64) {
        match key {
            "readTimeout" => self.read_timeout_ms = (n > 0).then_some(n),
            "roundtripTimeout" => self.roundtrip_timeout_ms = (n > 0).then_some(n),
            "retries" => self.max_restarts = n as u32,
            "backoffBase" => self.backoff_base_ms = n,
            "backoffMax" => self.backoff_max_ms = n,
            "floodLines" => self.max_lines_per_tick = n as usize,
            "queueCap" => self.queue_cap = n as usize,
            "restartOnExit" => self.restart_on_exit = n != 0,
            _ => self.stay_alive_when_broken = n != 0,
        }
    }
}

/// Where the supervised backend currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendState {
    /// Child alive, pipes flowing.
    #[default]
    Running,
    /// Child down; a respawn is scheduled (exponential backoff).
    Restarting,
    /// The circuit breaker is open: restart budget exhausted. A manual
    /// `backend restart` resets the breaker.
    Broken,
    /// The child exited and the session let it (restartOnExit off), or
    /// `backend kill` / [`Frontend::kill`](crate::Frontend::kill) ran.
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

/// The shared half of the supervisor: configuration, state, the
/// outbound queue, the fault plan and the child process. The `backend`
/// and `faultpoint` commands and [`Frontend`](crate::Frontend) operate
/// on this handle while the owning [`Supervisor`] drives the child's
/// pipes.
#[derive(Default)]
pub struct SupervisorCore {
    /// Tuning knobs (mutable at runtime via `backend config`).
    pub config: SupervisorConfig,
    /// The session's telemetry store, which holds the event totals
    /// (`ipc.supervisor.*`) `backend status` reports.
    tel: Telemetry,
    /// The session's fault plan, shared with the scheduler.
    plan: SharedPlan,
    state: BackendState,
    queue: VecDeque<String>,
    /// The scheduler's virtual clock at the last tick.
    now_ms: u64,
    due_ms: u64,
    restarts_done: u32,
    last_data_ms: u64,
    pending_write_ms: Option<u64>,
    pending: Vec<PendingCtl>,
    /// The live incarnation's process, and whether it was seen exited.
    child: Option<Child>,
    exited: bool,
}

impl SupervisorCore {
    fn new(config: SupervisorConfig, plan: SharedPlan, tel: Telemetry) -> Self {
        SupervisorCore {
            config,
            tel,
            plan,
            ..SupervisorCore::default()
        }
    }

    /// The current backend state.
    pub fn state(&self) -> BackendState {
        self.state
    }

    /// Lines currently queued for the backend.
    pub fn queued_lines(&self) -> Vec<String> {
        self.queue.iter().cloned().collect()
    }

    /// Whether the current child process has exited (sticky once seen).
    /// Reaps it without reading its output.
    pub fn child_exited(&mut self) -> bool {
        if let (Some(child), false) = (&mut self.child, self.exited) {
            self.exited = matches!(child.try_wait(), Ok(Some(_)));
        }
        self.exited
    }

    /// Kills and reaps the child process *without* telling the
    /// supervisor — the loop then observes the exit, or a write fails,
    /// and the policy applies. The chaos tests use this as a
    /// deterministic external crash.
    pub fn kill_child(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
            self.exited = true;
        }
    }

    /// Tears the backend down for good (test cleanup,
    /// [`Frontend::kill`](crate::Frontend::kill)): the child dies and
    /// the connection reads EOF.
    pub fn shutdown(&mut self) {
        self.kill_child();
        self.state = BackendState::Exited;
    }

    /// `backend status` payload: a flat key/value word list.
    pub fn status_words(&self) -> Vec<String> {
        let n = |m: Metric| self.tel.value(m).to_string();
        let left = self.config.max_restarts.saturating_sub(self.restarts_done);
        [
            ("state", self.state.to_string()),
            ("restarts", n(Metric::IpcSupervisorRestarts)),
            ("restartsLeft", left.to_string()),
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

    /// Whether the backend is gone for good: the connection reads EOF.
    fn ended(&self) -> bool {
        match self.state {
            BackendState::Exited => true,
            BackendState::Broken => !self.config.stay_alive_when_broken,
            _ => false,
        }
    }
}

fn backoff_ms(config: &SupervisorConfig, attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1).min(20);
    config
        .backoff_base_ms
        .saturating_mul(1u64 << shift)
        .min(config.backoff_max_ms)
}

/// Everything needed to (re)spawn one backend incarnation.
pub struct SpawnSpec {
    /// The backend program to run.
    pub program: String,
    /// Arguments for the backend (the application's share of argv).
    pub args: Vec<String>,
    /// Create the mass-transfer channel.
    pub mass_channel: bool,
    /// Initial command sent to the backend first after each spawn (the
    /// paper's `InitCom` resource, e.g. a Prolog startup goal). When
    /// unset, the session's `topLevel` `initCom` resource is used.
    pub init_com: Option<String>,
}

/// The child's two inbound byte channels, by index: its stdout, and
/// the mass-transfer pipe — with the fault point each one's chunks pass.
const STDOUT: usize = 0;
const MASS: usize = 1;
const CHANNEL_POINTS: [&str; 2] = ["read", "mass"];

/// One live incarnation's pipes: stdin, and stdout and the mass
/// channel (each `None` once at EOF, or never there).
struct Pipes {
    stdin: ChildStdin,
    inbound: [Option<File>; 2],
}

/// Spawns the backend and wires the channels (Figure 4): stdin and
/// stdout as nonblocking pipes, the mass channel at
/// [`MASS_CHANNEL_CHILD_FD`] when requested.
fn spawn_child(spec: &SpawnSpec) -> io::Result<(Child, Pipes)> {
    let mut cmd = Command::new(&spec.program);
    cmd.args(&spec.args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let pipe = if spec.mass_channel {
        Some(child_pipe(&mut cmd, MASS_CHANNEL_CHILD_FD)?)
    } else {
        None
    };
    let spawned = cmd.spawn();
    // The parent's write end closes here, once the child holds its copy.
    let mass = pipe.map(|(read, _write)| read);
    let mut child = spawned?;
    let stdin = child.stdin.take().expect("stdin piped");
    let stdout = File::from(OwnedFd::from(child.stdout.take().expect("stdout piped")));
    set_nonblocking(stdin.as_raw_fd())?;
    set_nonblocking(stdout.as_raw_fd())?;
    let inbound = [Some(stdout), mass];
    Ok((child, Pipes { stdin, inbound }))
}

/// Chunks a `Delay` fault holds back, each with the tick it falls due.
type DelayQueue = VecDeque<(u64, Vec<u8>)>;

/// What one incarnation's I/O leaves in flight; a fault discards it.
#[derive(Default)]
struct Flow {
    /// Per channel: bytes past the faults, not yet read by the session.
    ready: [Vec<u8>; 2],
    /// Per channel: chunks a `Delay` fault holds back.
    delayed: [DelayQueue; 2],
    /// Bytes of the queue's front line the child has taken; a fault
    /// leaves the line queued whole.
    written: usize,
    /// The queue's front line is this incarnation's InitCom, which each
    /// spawn sends anew.
    init_unsent: bool,
    /// Queued lines held while the child was down, not yet flushed.
    held: usize,
    /// The stdout stream restarted since the session last asked.
    restarted: bool,
    last_write: Option<Instant>,
    /// Token of the open detached `ipc.roundtrip` span (0 = none): begun
    /// at the first unanswered write, closed by the reply or the fault
    /// that ends the wait. Detached because the reply arrives long after
    /// the command span that caused the write has closed; the span still
    /// carries that command's trace ID.
    roundtrip_span: u64,
}

/// The driving half, and the connection: owns the child's pipes (when
/// one is alive) and what its I/O leaves in flight.
pub struct Supervisor {
    core: Rc<RefCell<SupervisorCore>>,
    registry: Arc<Registry>,
    pipes: Option<Pipes>,
    spec: SpawnSpec,
    channel_fd: Rc<Cell<i64>>,
    tel: Telemetry,
    flow: Flow,
}

impl Supervisor {
    /// A supervisor for `spec` under the given policy, consulting
    /// `plan`. Nothing runs until [`start`](Self::start); the scheduler
    /// binds it to its session when it is attached, with `floodLines`
    /// read and set as `registry`'s quantum.
    pub fn new(
        spec: SpawnSpec,
        config: SupervisorConfig,
        plan: SharedPlan,
        registry: Arc<Registry>,
    ) -> Supervisor {
        let tel = Telemetry::new();
        Supervisor {
            core: Rc::new(RefCell::new(SupervisorCore::new(config, plan, tel.clone()))),
            registry,
            pipes: None,
            spec,
            channel_fd: Rc::new(Cell::new(-1)),
            tel,
            flow: Flow::default(),
        }
    }

    /// Spawns a child incarnation: the first, or a restart.
    pub fn start(&mut self) -> io::Result<()> {
        if self.fire("spawn").contains(&FaultAction::Kill) {
            return Err(io::Error::other("fault injected: spawn kill"));
        }
        let (child, pipes) = spawn_child(&self.spec)?;
        self.linked(child, pipes);
        Ok(())
    }

    /// The shared handle the `backend`/`faultpoint` commands use.
    pub fn core(&self) -> Rc<RefCell<SupervisorCore>> {
        self.core.clone()
    }

    // ----- the child's lifetime ---------------------------------------

    /// A fresh incarnation is wired: `getChannel` reports its mass
    /// channel, and InitCom goes out before anything else.
    fn linked(&mut self, child: Child, pipes: Pipes) {
        let mass = pipes.inbound[MASS].as_ref();
        self.channel_fd
            .set(mass.map_or(-1, |m| m.as_raw_fd() as i64));
        self.pipes = Some(pipes);
        let mut core = self.core.borrow_mut();
        core.child = Some(child);
        core.exited = false;
        self.flow.held = core.queue.len();
        if let Some(init_com) = &self.spec.init_com {
            core.queue.push_front(init_com.clone());
            self.flow.init_unsent = true;
        }
    }

    /// Tears the incarnation down with its data: the child is killed and
    /// reaped, bytes not yet read die with it, and lines the child never
    /// took stay queued for the next one (its own InitCom excepted).
    fn drop_link(&mut self) {
        self.pipes = None;
        self.channel_fd.set(-1);
        let mut core = self.core.borrow_mut();
        core.kill_child();
        core.child = None;
        // A roundtrip cut short by teardown still ends — at the fault,
        // not at a reply that will never come.
        self.tel
            .span_end_detached(std::mem::take(&mut self.flow.roundtrip_span));
        let restarted = Flow {
            restarted: true,
            ..Flow::default()
        };
        if std::mem::replace(&mut self.flow, restarted).init_unsent {
            core.queue.pop_front();
        }
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
            self.tel.event("supervisor.backoff", || {
                format!("restart {attempt} in {wait}ms{note}")
            });
        } else {
            core.state = BackendState::Broken;
            self.tel.count(Metric::IpcSupervisorBreakerTrips);
            self.tel
                .event("supervisor.breaker", || format!("open after {kind}{note}"));
        }
    }

    fn attempt_respawn(&mut self) {
        if let Err(e) = self.start() {
            self.tel.count(Metric::IpcSupervisorSpawnFailures);
            self.declare_fault("respawn failed", &e.to_string());
            return;
        }
        let mut core = self.core.borrow_mut();
        core.state = BackendState::Running;
        core.last_data_ms = core.now_ms;
        core.pending_write_ms = None;
        self.tel.count(Metric::IpcSupervisorRestarts);
        let n = self.tel.value(Metric::IpcSupervisorRestarts);
        let note = self.tel.trace_note();
        self.tel
            .event("supervisor.restart", || format!("respawn #{n} ok{note}"));
    }

    /// The child's stdout is at EOF and every byte of it is delivered:
    /// the exit stands, and the policy decides what follows.
    fn check_exit(&mut self) {
        let at_eof = self
            .pipes
            .as_ref()
            .is_some_and(|p| p.inbound[STDOUT].is_none());
        let flow = &self.flow;
        if !at_eof || !flow.ready[STDOUT].is_empty() || !flow.delayed[STDOUT].is_empty() {
            return;
        }
        self.tel.count(Metric::IpcSupervisorExits);
        let note = self.tel.trace_note();
        self.tel
            .event("supervisor.exit", || format!("child exited{note}"));
        if self.core.borrow().config.restart_on_exit {
            self.declare_fault("child exit", "restartOnExit policy");
        } else {
            // The child is reaped, but its pipes stay open: what it
            // wrote to the mass channel before exiting is still fed to
            // the engine.
            let mut core = self.core.borrow_mut();
            core.kill_child();
            core.state = BackendState::Exited;
            let span = std::mem::take(&mut self.flow.roundtrip_span);
            self.tel.span_end_detached(span);
        }
    }

    fn running(&self) -> bool {
        self.pipes.is_some() && self.core.borrow().state == BackendState::Running
    }

    // ----- outbound ---------------------------------------------------

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

    /// The child took the queue's front line whole: account it — as
    /// InitCom, a held line flushed, or a line the session sent, which
    /// now waits for its answer.
    fn sent(&mut self) {
        let mut core = self.core.borrow_mut();
        let line = core.queue.pop_front().expect("the line just written");
        self.flow.written = 0;
        self.tel.count(Metric::IpcLinesSent);
        self.tel.add(Metric::IpcBytesSent, line.len() as u64);
        self.tel
            .set_gauge(Metric::IpcSupervisorQueueDepth, core.queue.len() as u64);
        self.flow.last_write = self.tel.timer();
        if self.flow.roundtrip_span == 0 {
            self.flow.roundtrip_span = self
                .tel
                .span_begin_detached(Metric::IpcRoundtrip.name(), || line);
        }
        if std::mem::take(&mut self.flow.init_unsent) {
            return;
        }
        if self.flow.held > 0 {
            self.flow.held -= 1;
            self.tel.count(Metric::IpcSupervisorQueueFlushed);
        } else {
            let now = core.now_ms;
            core.pending_write_ms.get_or_insert(now);
        }
    }

    // ----- fault plumbing ---------------------------------------------

    fn fire(&mut self, point: &'static str) -> Vec<FaultAction> {
        let plan = self.core.borrow().plan.clone();
        let actions = match plan.borrow_mut().as_mut() {
            Some(plan) => plan.fire(point),
            None => return Vec::new(),
        };
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
        let plan = self.core.borrow().plan.clone();
        let mut plan = plan.borrow_mut();
        plan.as_mut().map(f)
    }

    /// Applies the faults fired at `point` (`line` or `write`) to one
    /// line: its copies to pass on (none when dropped), or `Err` with
    /// the line when a kill tore the child down.
    fn line_faults(&mut self, point: &'static str, line: String) -> Result<Vec<String>, String> {
        let mut lines = vec![line];
        for action in self.fire(point) {
            match action {
                FaultAction::Kill => {
                    self.declare_fault("injected kill", point);
                    return Err(lines.swap_remove(0));
                }
                FaultAction::Wedge | FaultAction::Drop => return Ok(Vec::new()),
                FaultAction::Garble => {
                    if let Some(g) = self.with_plan(|p| p.garble_line(&lines[0])) {
                        lines[0] = g;
                    }
                }
                FaultAction::Truncate(n) => lines[0] = truncate_line(&lines[0], n),
                FaultAction::Flood(n) => lines = vec![lines[0].clone(); n],
                FaultAction::Delay(_) => {}
            }
        }
        Ok(lines)
    }

    // ----- inbound ----------------------------------------------------

    /// One read of channel `ch` through its fault point, into its ready
    /// buffer (or its delay queue). `Ok(0)` is EOF, which it records.
    fn pump(&mut self, ch: usize, buf: &mut [u8]) -> io::Result<usize> {
        let Some(file) = self.pipes.as_mut().and_then(|p| p.inbound[ch].as_mut()) else {
            return Err(io::ErrorKind::WouldBlock.into());
        };
        let n = match file.read(buf) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Err(e),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Err(e),
            Err(_) => 0,
        };
        if n == 0 {
            if let Some(p) = self.pipes.as_mut() {
                p.inbound[ch] = None;
            }
            return Ok(0);
        }
        let mut chunk = buf[..n].to_vec();
        for action in self.fire(CHANNEL_POINTS[ch]) {
            match action {
                FaultAction::Kill => {
                    self.declare_fault("injected kill", CHANNEL_POINTS[ch]);
                    return Ok(n);
                }
                FaultAction::Wedge | FaultAction::Drop => chunk.clear(),
                FaultAction::Garble => {
                    self.with_plan(|p| p.garble_bytes(&mut chunk));
                }
                FaultAction::Truncate(n) => chunk.truncate(n),
                FaultAction::Delay(ms) => {
                    if !chunk.is_empty() {
                        let due = self.core.borrow().now_ms + ms;
                        self.flow.delayed[ch].push_back((due, chunk));
                    }
                    return Ok(n);
                }
                FaultAction::Flood(n) => chunk = chunk.repeat(n),
            }
        }
        self.accept(ch, chunk);
        Ok(n)
    }

    /// Bytes for the session: data from the live child is data.
    fn accept(&mut self, ch: usize, chunk: Vec<u8>) {
        if !chunk.is_empty() {
            let mut core = self.core.borrow_mut();
            core.last_data_ms = core.now_ms;
            self.flow.ready[ch].extend_from_slice(&chunk);
        }
    }

    /// Moves the delayed chunks whose time has come to the session.
    fn release_due(&mut self) {
        let now = self.core.borrow().now_ms;
        for ch in [STDOUT, MASS] {
            while self.flow.delayed[ch]
                .front()
                .is_some_and(|(due, _)| *due <= now)
            {
                let (_, chunk) = self.flow.delayed[ch].pop_front().expect("front checked");
                self.accept(ch, chunk);
            }
        }
    }

    /// Control requests from the `backend` command.
    fn run_controls(&mut self) {
        let pending = std::mem::take(&mut self.core.borrow_mut().pending);
        for ctl in pending {
            self.drop_link();
            let mut core = self.core.borrow_mut();
            match ctl {
                PendingCtl::Kill => {
                    core.state = BackendState::Exited;
                    self.tel.count(Metric::IpcSupervisorExits);
                    let note = self.tel.trace_note();
                    self.tel
                        .event("supervisor.exit", || format!("backend kill{note}"));
                }
                PendingCtl::Restart => {
                    core.restarts_done = 0; // operator action resets the breaker
                    core.state = BackendState::Restarting;
                    core.due_ms = core.now_ms;
                }
            }
        }
    }

    /// Read and round-trip timeouts, on the virtual clock.
    fn check_timeouts(&mut self) {
        let core = self.core.borrow();
        let now = core.now_ms;
        let silent = now.saturating_sub(core.last_data_ms);
        let unanswered = core.pending_write_ms.map(|w| now.saturating_sub(w));
        let read_fault = core.config.read_timeout_ms.is_some_and(|l| silent > l);
        let rt_fault = core.config.roundtrip_timeout_ms.zip(unanswered);
        let rt_fault = rt_fault.is_some_and(|(limit, waited)| waited > limit);
        drop(core);
        if read_fault {
            self.tel.count(Metric::IpcSupervisorTimeoutsRead);
            self.declare_fault("read timeout", "no data from backend");
        } else if rt_fault {
            self.tel.count(Metric::IpcSupervisorTimeoutsRoundtrip);
            self.declare_fault("roundtrip timeout", "backend did not answer");
        }
    }
}

impl ConnIo for Supervisor {
    fn fd(&self) -> RawFd {
        let stdout = self.pipes.as_ref().and_then(|p| p.inbound[STDOUT].as_ref());
        stdout.map_or(-1, AsRawFd::as_raw_fd)
    }

    /// Stdout bytes past the `read` faults; EOF once the backend is
    /// gone for good.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            let ready = &mut self.flow.ready[STDOUT];
            if !ready.is_empty() {
                let n = buf.len().min(ready.len());
                buf[..n].copy_from_slice(&ready[..n]);
                ready.drain(..n);
                return Ok(n);
            }
            if self.core.borrow().ended() {
                return Ok(0);
            }
            if self.pump(STDOUT, buf)? == 0 {
                self.check_exit();
            }
        }
    }

    /// A display frame, the one line that skips
    /// [`next_line`](ConnIo::next_line): queued for the child like a
    /// line held while it is down.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.enqueue(String::from_utf8_lossy(buf).trim_end().to_string());
        Ok(buf.len())
    }

    fn shutdown(&mut self) {
        self.core.borrow_mut().shutdown();
    }

    /// Stdout while the session reads, the mass channel always, stdin
    /// while output is stuck.
    fn interests(&self, token: usize, read: bool, write: bool, out: &mut Vec<Interest>) {
        let Some(pipes) = &self.pipes else { return };
        for (ch, file) in pipes.inbound.iter().enumerate() {
            if let Some(file) = file.as_ref().filter(|_| read || ch == MASS) {
                out.push(Interest::read(token, file.as_raw_fd()));
            }
        }
        if self.running() && (write || !self.core.borrow().queue.is_empty()) {
            let fd = pipes.stdin.as_raw_fd();
            out.push(Interest {
                token,
                fd,
                read: false,
                write: true,
            });
        }
    }

    fn buffered(&self) -> bool {
        self.flow.ready.iter().any(|r| !r.is_empty()) || self.core.borrow().ended()
    }

    fn restarted(&mut self) -> bool {
        std::mem::take(&mut self.flow.restarted)
    }

    /// The `line` fault point, then: a line back from the backend
    /// answers the write the round trip was waiting on. After a kill
    /// the rest of the chunk dies with the child.
    fn admit(&mut self, lines: &mut Vec<String>) {
        let mut kept = Vec::new();
        for line in std::mem::take(lines) {
            if !self.running() {
                break;
            }
            let Ok(copies) = self.line_faults("line", line) else {
                continue;
            };
            if !copies.is_empty() {
                let flow = &mut self.flow;
                self.tel
                    .observe_since(Metric::IpcRoundtrip, flow.last_write.take());
                self.tel
                    .span_end_detached(std::mem::take(&mut flow.roundtrip_span));
                self.core.borrow_mut().pending_write_ms = None;
            }
            kept.extend(copies);
        }
        *lines = kept;
    }

    /// Writes the queue to the child's stdin, nonblocking, line by line:
    /// after a spawn InitCom and the lines held while the child was
    /// down, then each line of the session's, taken once the queue is
    /// empty and passed through the `write` fault point. While the child
    /// is down the session's lines join the bounded queue. Returns no
    /// line: the session's write buffer stays empty.
    fn next_line(&mut self, out: &mut VecDeque<String>) -> Option<String> {
        while self.running() {
            let core = self.core.borrow();
            let front = core.queue.front().map(|line| LineCodec::encode(line));
            drop(core);
            let Some(bytes) = front else {
                match self.line_faults("write", out.pop_front()?) {
                    Err(line) => self.enqueue(line),
                    Ok(lines) => self
                        .core
                        .borrow_mut()
                        .queue
                        .extend(lines.into_iter().take(1)),
                }
                continue;
            };
            let stdin = &mut self.pipes.as_mut()?.stdin;
            match stdin.write(&bytes[self.flow.written..]) {
                Ok(n) => self.flow.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.tel.count(Metric::IpcSupervisorWriteErrors);
                    self.declare_fault("write failed", &e.to_string());
                }
            }
            if self.flow.written == bytes.len() {
                self.sent();
            }
        }
        out.drain(..).for_each(|line| self.enqueue(line));
        None
    }

    /// Feeds the mass channel to the engine after the turn's lines, and
    /// counts a flood trip when the backend outran the turn.
    fn after_turn(&mut self, engine: &mut ProtocolEngine, backlog: usize) {
        // Until the pipe would block or ends, at most a sweep's worth.
        let mut buf = [0u8; 16384];
        let mut taken = 0;
        while taken < READ_SWEEP_CAP {
            match self.pump(MASS, &mut buf) {
                Ok(n) if n > 0 => taken += n,
                _ => break,
            }
        }
        // Bytes that came before their `setCommunicationVariable` ran
        // complete the transfer at the first turn after it.
        let mass = std::mem::take(&mut self.flow.ready[MASS]);
        if !mass.is_empty() || engine.mass_pending() > 0 {
            engine.handle_mass_data(&mass);
        }
        if backlog > 0 {
            self.tel.count(Metric::IpcSupervisorFloodTrips);
            let quantum = self.registry.limits().quantum;
            self.tel.event("supervisor.flood", || {
                format!("deferred {backlog} lines past the {quantum}/turn quantum")
            });
        }
    }

    /// One step of the policy on the scheduler's clock. A respawn never
    /// shares a tick with the teardown before it, so the loop flushes
    /// the dead incarnation's stuck output in between.
    fn tick(&mut self, now_ms: u64) {
        let (state, due) = {
            let mut core = self.core.borrow_mut();
            core.now_ms = now_ms;
            (core.state, core.due_ms)
        };
        if state == BackendState::Restarting && now_ms >= due {
            self.attempt_respawn();
        }
        self.run_controls();
        if !self.running() {
            return;
        }
        self.release_due();
        // A child can exit with its stdout still open (a grandchild
        // holds it): once nothing more is readable there, the exit
        // stands.
        if self.flow.ready[STDOUT].is_empty() && self.core.borrow_mut().child_exited() {
            let mut buf = [0u8; 16384];
            if self.pump(STDOUT, &mut buf).is_err() {
                if let Some(p) = self.pipes.as_mut() {
                    p.inbound[STDOUT] = None;
                }
            }
        }
        self.check_exit();
        if self.running() {
            self.check_timeouts();
        }
    }

    /// Takes the session's telemetry, `getChannel` fd and InitCom
    /// resource (unless the spec names one), and installs the `backend`
    /// and `faultpoint` commands. The server's `serve` and `session`
    /// commands are withdrawn: parking or draining the one session
    /// would only end the frontend.
    fn bind(&mut self, session: &mut WafeSession) {
        self.tel = session.telemetry.clone();
        self.core.borrow_mut().tel = self.tel.clone();
        session.channel_fd.set(self.channel_fd.get());
        self.channel_fd = session.channel_fd.clone();
        if self.spec.init_com.is_none() {
            let app = session.app.borrow();
            let top = app
                .lookup("topLevel")
                .expect("every session has a topLevel");
            let init_com = app.get_resource_string(top, "initCom").unwrap_or_default();
            if !init_com.is_empty() {
                self.spec.init_com = Some(init_com.clone());
                if self.pipes.is_some() {
                    self.core.borrow_mut().queue.push_front(init_com);
                    self.flow.init_unsent = true;
                }
            }
        }
        install_controls(&self.core, &self.registry, session);
        for name in ["serve", "session"] {
            register_placeholder(&mut session.interp, name);
        }
    }
}

/// Registers the `backend` and `faultpoint` commands on the session's
/// interpreter, shadowing the toolkit image's placeholders (which report
/// "no backend attached"). `floodLines` is `registry`'s quantum.
pub fn install_controls(
    core: &Rc<RefCell<SupervisorCore>>,
    registry: &Arc<Registry>,
    session: &mut WafeSession,
) {
    let (c, r) = (core.clone(), registry.clone());
    session.interp.register("backend", move |_, argv| {
        backend_control(&c, &r, argv)
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

/// A `backend config` value; `floodLines` is the loop's quantum.
fn config_value(core: &SupervisorCore, registry: &Registry, key: &str) -> Option<String> {
    match key {
        "floodLines" => registry.get_limit("quantum"),
        _ => core.config.get(key),
    }
}

fn backend_control(
    core: &Rc<RefCell<SupervisorCore>>,
    registry: &Registry,
    argv: &[Value],
) -> Result<String, String> {
    const USAGE: &str = "backend status|restart|kill|config ?key ?value??|queue";
    match argv.get(1).map(Value::as_str) {
        Some("status") if argv.len() == 2 => Ok(wafe_tcl::list_join(&core.borrow().status_words())),
        // Both deferred to the next tick; a restart resets the breaker
        // (an explicit operator decision).
        Some("restart") if argv.len() == 2 => {
            core.borrow_mut().pending.push(PendingCtl::Restart);
            Ok(String::new())
        }
        Some("kill") if argv.len() == 2 => {
            core.borrow_mut().pending.push(PendingCtl::Kill);
            Ok(String::new())
        }
        Some("config") => settings(
            (CONFIG_KEYS, "config key", USAGE),
            &argv[2..],
            |key| config_value(&core.borrow(), registry, key),
            |key, value| match key {
                "floodLines" => registry.set_limit("quantum", value),
                _ => core.borrow_mut().config.set(key, value),
            },
        ),
        Some("queue") if argv.len() == 2 => Ok(wafe_tcl::list_join(&core.borrow().queued_lines())),
        _ => Err(format!("wrong # args: should be \"{USAGE}\"")),
    }
}

fn faultpoint_control(
    core: &Rc<RefCell<SupervisorCore>>,
    argv: &[Value],
) -> Result<String, String> {
    const USAGE: &str = "faultpoint set spec|clear|list";
    let plan = core.borrow().plan.clone();
    match argv.get(1).map(Value::as_str) {
        Some("set") if argv.len() == 3 => {
            let new = FaultPlan::parse(argv[2].as_str())?;
            let n = new.describe().len();
            *plan.borrow_mut() = Some(new);
            Ok(n.to_string())
        }
        Some("clear") if argv.len() == 2 => {
            *plan.borrow_mut() = None;
            Ok(String::new())
        }
        Some("list") if argv.len() == 2 => Ok(plan
            .borrow()
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
        let core = SupervisorCore::new(
            SupervisorConfig::default(),
            SharedPlan::default(),
            Telemetry::new(),
        );
        let words = core.status_words();
        assert!(words.len() >= 8);
        assert!(words.len().is_multiple_of(2));
        assert_eq!(words[0], "state");
        assert_eq!(words[1], "running");
    }
}
