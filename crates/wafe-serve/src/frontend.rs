//! Frontend mode: one application program behind one Wafe session,
//! on the same event loop the server runs.
//!
//! A [`Frontend`] is a one-session [`EventLoop`] whose one connection
//! is the backend child under its [`Supervisor`]. Each
//! [`step`](Frontend::step) is the loop's own steps: `poll_io` (the
//! child's stdout and mass channel, its stdin while output is stuck),
//! `run_turn` (at most `floodLines` lines), the GUI pump,
//! `flush_and_reap` (nonblocking writes to the child) and `advance`
//! (the supervisor's timeouts and restarts on the virtual clock). The
//! GUI stays live while the application is busy, clicks are buffered
//! ahead, and a backend that leaves its stdin unread stalls nothing.

use std::cell::RefCell;
use std::io;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wafe_core::{Flavor, RestoreReport, SessionSnapshot};
use wafe_ipc::{FaultPlan, ProtocolEngine, SysPoller};

use crate::event_loop::EventLoop;
use crate::registry::{Limits, Registry};
use crate::scheduler::{Scheduler, Session};
use crate::supervisor::{BackendState, SpawnSpec, Supervisor, SupervisorConfig, SupervisorCore};

/// Derives the backend program name from the frontend's `argv[0]`,
/// reproducing the paper's link-name scheme: "If a link like
/// `ln -s wafe xwafeApp` is established and `xwafeApp` is executed, the
/// program `wafeApp` is spawned as a subprocess".
pub fn backend_from_argv0(argv0: &str) -> Option<String> {
    let base = argv0.rsplit('/').next().unwrap_or(argv0);
    if matches!(base, "wafe" | "mofe") {
        return None; // Plain wafe: no implicit backend.
    }
    base.strip_prefix('x')
        .filter(|rest| !rest.is_empty())
        .map(|rest| rest.to_string())
}

/// Configuration for spawning a frontend.
pub struct FrontendConfig {
    /// The backend program to run.
    pub program: String,
    /// Arguments for the backend (the application's share of argv).
    pub args: Vec<String>,
    /// Widget-set flavour.
    pub flavor: Flavor,
    /// Create the mass-transfer channel.
    pub mass_channel: bool,
    /// Initial command sent to the backend first after each spawn (the
    /// paper's `InitCom` resource, e.g. a Prolog startup goal). When
    /// unset, `topLevel`'s `initCom` resource is used, if not empty.
    pub init_com: Option<String>,
    /// Resource lines the session starts with — the app-defaults file
    /// and `-xrm` specifications, merged before `topLevel` exists.
    pub resources: String,
    /// Supervisor policy (timeouts, restarts, quantum, queueing).
    pub supervisor: SupervisorConfig,
    /// Deterministic fault plan for chaos testing.
    pub faults: Option<FaultPlan>,
}

impl FrontendConfig {
    /// A minimal configuration running `program` with no arguments.
    pub fn new(program: &str) -> Self {
        FrontendConfig {
            program: program.to_string(),
            args: Vec::new(),
            flavor: Flavor::Athena,
            mass_channel: true,
            init_com: None,
            resources: String::new(),
            supervisor: SupervisorConfig::default(),
            faults: None,
        }
    }
}

/// A running frontend: a one-session event loop whose connection is the
/// supervised child process.
pub struct Frontend {
    el: EventLoop,
    token: usize,
    backend: Rc<RefCell<SupervisorCore>>,
    /// Lines the frontend printed to its own stdout (non-`%` passthrough).
    pub printed: Vec<String>,
}

impl Frontend {
    /// Spawns the backend under the supervisor and builds the session
    /// around it (which names InitCom, unless the config does).
    pub fn spawn(config: FrontendConfig) -> io::Result<Frontend> {
        let registry = Arc::new(Registry::new(Limits {
            max_sessions: 1,
            // The pipe has one reader: every line the backend writes is
            // kept, none is shed.
            queue_depth: usize::MAX,
            quantum: config.supervisor.max_lines_per_tick.max(1),
            ..Limits::default()
        }));
        let mut sched = Scheduler::new(registry.clone(), config.flavor, false);
        sched.set_resources(config.resources);
        sched.set_keep_errors(true);
        let spec = SpawnSpec {
            program: config.program,
            args: config.args,
            mass_channel: config.mass_channel,
            init_com: config.init_com,
        };
        let mut backend = Supervisor::new(
            spec,
            config.supervisor,
            sched.set_fault_plan(config.faults),
            registry.clone(),
        );
        backend.start()?;
        let core = backend.core();
        let id = registry.admit("backend").expect("one session, admitted");
        let token = sched.attach(id, Box::new(backend));
        Ok(Frontend {
            el: EventLoop::with_wake(sched, 0, Box::new(SysPoller::new()), None),
            token,
            backend: core,
            printed: Vec::new(),
        })
    }

    /// The one session. It is never reaped: once it ended, its final
    /// state stays readable.
    fn session(&self) -> &Session {
        self.el.sched.sessions[self.token]
            .as_ref()
            .expect("never reaped")
    }

    fn session_mut(&mut self) -> &mut Session {
        self.el.sched.sessions[self.token]
            .as_mut()
            .expect("never reaped")
    }

    /// The protocol engine (owns the Wafe session).
    pub fn engine(&self) -> &ProtocolEngine {
        &self.session().engine
    }

    /// The protocol engine, mutably.
    pub fn engine_mut(&mut self) -> &mut ProtocolEngine {
        &mut self.session_mut().engine
    }

    /// Sends one line to the application's stdin, now, as far as the
    /// pipe takes it. While the backend is down the line is queued
    /// (bounded) and flushed after a restart.
    pub fn send_to_app(&mut self, line: &str) -> io::Result<()> {
        let s = self.session_mut();
        s.out.push_back(line.to_string());
        s.flush();
        Ok(())
    }

    /// One iteration of the event loop, whose virtual clock advances by
    /// `timeout`: waits up to `timeout` for the backend, runs its lines,
    /// pumps GUI events, writes what the session has for the
    /// application, and runs the supervisor's deadlines. Returns false
    /// once the loop should end (backend exited and drained, `quit`
    /// ran, or the circuit breaker opened without
    /// `stayAliveWhenBroken`).
    pub fn step(&mut self, timeout: Duration) -> io::Result<bool> {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        let wait = if self.el.has_pending_work() { 0 } else { ms };
        self.el.poll_io(wait);
        self.el.run_turn();
        let printed = self.el.take_passthrough();
        self.printed
            .extend(printed.into_iter().map(|(_, line)| line));
        // The backend ended (or the session quit): the loop has nothing
        // left, and the session is kept, not reaped — but what its last
        // turn has for the application is still written.
        let ended = self.session().done;
        self.engine_mut().session.pump();
        if ended {
            self.session_mut().flush();
        } else {
            self.el.flush_and_reap();
        }
        self.el.advance(ms as u64);
        Ok(!ended && !self.engine().session.quit_requested())
    }

    /// Runs the loop until the backend exits, `quit` runs, or the
    /// deadline passes. Returns true on clean termination (backend exit
    /// or quit), false on deadline.
    pub fn run_until_exit(&mut self, deadline: Duration) -> io::Result<bool> {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if !self.step(Duration::from_millis(10))? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The backend's supervision state.
    pub fn backend_state(&self) -> BackendState {
        self.backend.borrow().state()
    }

    /// The shared supervisor handle (config, queue, fault plan).
    pub fn supervisor_core(&self) -> Rc<RefCell<SupervisorCore>> {
        self.backend.clone()
    }

    /// Whether the backend process has exited. Reaps it without reading
    /// its output, so whatever it wrote stays in the pipe for the next
    /// `step` — the hook the exit-drain test uses.
    pub fn backend_exited(&mut self) -> bool {
        self.backend.borrow_mut().child_exited()
    }

    /// Kills the backend *process* without informing the supervisor —
    /// the next `step` observes the death and applies the restart
    /// policy. This is the deterministic external-crash hook the chaos
    /// tests use.
    pub fn kill_backend(&mut self) {
        self.backend.borrow_mut().kill_child();
    }

    /// Checkpoints the frontend into an encoded [`SessionSnapshot`]: the
    /// session's persistent state plus every application-bound line
    /// still held, oldest first — the supervisor's bounded queue, the
    /// session's outbound lines, then the engine's. Capture consumes
    /// none of them; the live frontend keeps running unchanged.
    pub fn park_snapshot(&self) -> Vec<u8> {
        let s = self.session();
        let mut outbound = self.backend.borrow().queued_lines();
        outbound.extend(s.out.iter().cloned());
        outbound.extend(s.engine.peek_app_lines());
        SessionSnapshot::capture(&s.engine.session, outbound).encode()
    }

    /// Restores a parked snapshot into this frontend's session and
    /// replays the captured outbound lines to the backend — delivered
    /// now while it runs, queued (bounded) while it is down and flushed
    /// in order after the next restart: the exact replay machinery
    /// crash recovery already uses.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<RestoreReport, String> {
        let flavor = self.engine().session.flavor;
        let snap = SessionSnapshot::decode_for(bytes, flavor)?;
        let report = snap.restore_into(&mut self.engine_mut().session);
        for line in &snap.outbound {
            self.send_to_app(line).map_err(|e| e.to_string())?;
        }
        Ok(report)
    }

    /// Tears the backend down for good (cleanup in tests).
    pub fn kill(&mut self) {
        self.backend.borrow_mut().shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argv0_link_scheme() {
        assert_eq!(backend_from_argv0("xwafeApp"), Some("wafeApp".into()));
        assert_eq!(
            backend_from_argv0("/usr/bin/X11/xwafemail"),
            Some("wafemail".into())
        );
        assert_eq!(backend_from_argv0("wafe"), None);
        assert_eq!(backend_from_argv0("mofe"), None);
        assert_eq!(backend_from_argv0("x"), None);
        // A non-x name yields no backend either.
        assert_eq!(backend_from_argv0("emacs"), None);
    }

    /// Spawns a shell backend that builds a button and quits when told —
    /// "commands submitted to Wafe can be issued from arbitrary
    /// programming languages provided that they are able to write to
    /// stdout unbuffered and to read from stdin" — here: sh.
    #[test]
    fn shell_backend_round_trip() {
        let script = r#"
            echo '%command go topLevel label Go callback {echo clicked; quit}'
            echo '%realize'
            read line
            echo "got $line" >&2
        "#;
        let mut fe = Frontend::spawn(FrontendConfig {
            args: vec!["-c".into(), script.into()],
            mass_channel: false,
            ..FrontendConfig::new("sh")
        })
        .expect("spawn sh");
        // Let the backend build the tree.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            fe.step(Duration::from_millis(20)).unwrap();
            if fe.engine().session.app.borrow().lookup("go").is_some() {
                let realized = {
                    let app = fe.engine().session.app.borrow();
                    let go = app.lookup("go").unwrap();
                    app.is_realized(go)
                };
                if realized {
                    break;
                }
            }
        }
        assert!(
            fe.engine().session.app.borrow().lookup("go").is_some(),
            "backend lines not processed"
        );
        // Click the button: callback echoes to the app and quits.
        {
            let mut app = fe.engine().session.app.borrow_mut();
            let go = app.lookup("go").unwrap();
            let win = app.widget(go).window.unwrap();
            let abs = app.displays[0].abs_rect(win);
            app.displays[0].inject_click(abs.x + 2, abs.y + 2, 1);
        }
        let clean = fe.run_until_exit(Duration::from_secs(5)).unwrap();
        assert!(clean, "frontend loop must terminate after quit");
        assert!(fe.engine().session.quit_requested());
        fe.kill();
    }

    #[test]
    fn init_com_sent_first() {
        // The backend echoes its stdin back prefixed; InitCom must be the
        // first thing it sees.
        let script = r#"read line; echo "%set initline {$line}""#;
        let mut fe = Frontend::spawn(FrontendConfig {
            args: vec!["-c".into(), script.into()],
            mass_channel: false,
            init_com: Some("[myapp], widget_tree, read_loop.".into()),
            ..FrontendConfig::new("sh")
        })
        .expect("spawn sh");
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            fe.step(Duration::from_millis(20)).unwrap();
            if fe.engine().session.interp.var_exists("initline") {
                break;
            }
        }
        assert_eq!(
            fe.engine().session.interp.get_var("initline").unwrap(),
            "[myapp], widget_tree, read_loop."
        );
        fe.kill();
    }

    /// The paper's mass-transfer flow with a real child writing 1000
    /// bytes to the inherited fd, under `faults`; returns the frontend
    /// once the text widget holds every byte.
    fn mass_transfer(faults: Option<FaultPlan>) -> Frontend {
        let script = r#"
            echo '%asciiText text topLevel editType edit'
            echo '%realize'
            echo '%setCommunicationVariable C 1000 {sV text string $C}'
            sleep 0.2
            head -c 1000 /dev/zero | tr '\0' 'z' >&5
            sleep 0.5
        "#;
        let mut fe = Frontend::spawn(FrontendConfig {
            args: vec!["-c".into(), script.into()],
            mass_channel: true,
            faults,
            ..FrontendConfig::new("sh")
        })
        .expect("spawn sh");
        let deadline = Instant::now() + Duration::from_secs(6);
        let mut got = String::new();
        while Instant::now() < deadline {
            fe.step(Duration::from_millis(20)).unwrap();
            if fe.engine().session.app.borrow().lookup("text").is_some() {
                got = fe
                    .engine_mut()
                    .session
                    .eval("gV text string")
                    .unwrap_or_default()
                    .to_string();
                if got.len() == 1000 {
                    break;
                }
            }
        }
        assert_eq!(got.len(), 1000, "mass transfer must deliver all bytes");
        assert!(got.chars().all(|c| c == 'z'));
        fe
    }

    #[test]
    fn mass_channel_via_fd5() {
        mass_transfer(None).kill();
    }

    #[test]
    fn delayed_mass_chunks_are_released_whole() {
        let plan = FaultPlan::parse("mass:delay=100").expect("fault spec");
        let mut fe = mass_transfer(Some(plan));
        let tel = &fe.engine().session.telemetry;
        assert!(tel.value(wafe_trace::Metric::IpcSupervisorFaultsInjected) >= 1);
        fe.kill();
    }

    #[test]
    fn passthrough_lines_printed() {
        let script = r#"echo 'plain output line'; echo '%set x 1'"#;
        let mut fe = Frontend::spawn(FrontendConfig {
            args: vec!["-c".into(), script.into()],
            mass_channel: false,
            ..FrontendConfig::new("sh")
        })
        .expect("spawn sh");
        fe.run_until_exit(Duration::from_secs(5)).unwrap();
        assert_eq!(fe.printed, vec!["plain output line"]);
        assert_eq!(fe.engine().session.interp.get_var("x").unwrap(), "1");
        fe.kill();
    }
}
