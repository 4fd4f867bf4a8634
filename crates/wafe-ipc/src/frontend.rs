//! The real-process frontend: child spawning and pipe multiplexing.
//!
//! The child process lives behind the supervisor (`supervisor.rs`):
//! this module owns the raw transport — spawning with the mass-channel
//! fd wired in, non-blocking reads, poll(2) multiplexing — packaged as
//! a [`ChildLink`] the supervisor can tear down and respawn.

use std::cell::Cell;
use std::io::{Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::process::CommandExt;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use wafe_core::Flavor;

use crate::codec::LineCodec;
use crate::fault::FaultPlan;
use crate::poll::{set_nonblocking, Interest, Poller, SysPoller};
use crate::protocol::ProtocolEngine;
use crate::supervisor::{
    install_controls, BackendState, Supervisor, SupervisorConfig, SupervisorCore,
};
use crate::sys as libc;

/// The fd number at which the child inherits the write end of the
/// mass-transfer channel; `getChannel` reports the fd Wafe listens on.
pub const MASS_CHANNEL_CHILD_FD: i32 = 5;

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

/// Everything needed to (re)spawn one backend incarnation.
pub struct SpawnSpec {
    /// The backend program to run.
    pub program: String,
    /// Arguments for the backend (the application's share of argv).
    pub args: Vec<String>,
    /// Create the mass-transfer channel.
    pub mass_channel: bool,
    /// Initial command sent to the backend after each spawn (the
    /// paper's `InitCom` resource, e.g. a Prolog startup goal).
    pub init_com: Option<String>,
}

/// One live child incarnation: process plus its pipes.
pub(crate) struct ChildLink {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
    mass_read: Option<std::fs::File>,
    exited: bool,
}

impl ChildLink {
    /// Spawns the backend and wires the channels (Figure 4). When the
    /// mass channel is requested, `channel_fd` is updated to the read
    /// end Wafe listens on.
    pub(crate) fn spawn(spec: &SpawnSpec, channel_fd: &Cell<i64>) -> std::io::Result<ChildLink> {
        let mut cmd = Command::new(&spec.program);
        cmd.args(&spec.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut mass_read = None;
        let mut parent_write_fd = None;
        if spec.mass_channel {
            // A pipe whose write end the child inherits at a fixed fd.
            let mut fds = [0i32; 2];
            // SAFETY: fds is a valid 2-element array for pipe(2).
            let rc = unsafe { libc::pipe(fds.as_mut_ptr()) };
            if rc != 0 {
                return Err(std::io::Error::last_os_error());
            }
            let (read_fd, write_fd) = (fds[0], fds[1]);
            set_nonblocking(read_fd)?;
            // SAFETY: read_fd is a freshly created, owned pipe fd.
            mass_read = Some(unsafe {
                use std::os::unix::io::FromRawFd;
                std::fs::File::from_raw_fd(read_fd)
            });
            // SAFETY: dup2 in the child duplicates the inherited write
            // end onto the agreed fd and clears close-on-exec; write_fd
            // is valid for the duration of the fork/exec window.
            unsafe {
                cmd.pre_exec(move || {
                    if libc::dup2(write_fd, MASS_CHANNEL_CHILD_FD) < 0 {
                        return Err(std::io::Error::last_os_error());
                    }
                    Ok(())
                });
            }
            channel_fd.set(read_fd as i64);
            parent_write_fd = Some(write_fd);
        }
        let spawned = cmd.spawn();
        if let Some(write_fd) = parent_write_fd {
            // SAFETY: write_fd belongs to this process and is no longer
            // needed once the child holds its duplicate (or the spawn
            // failed).
            unsafe { libc::close(write_fd) };
        }
        let mut child = spawned?;
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        set_nonblocking(stdout.as_raw_fd())?;
        Ok(ChildLink {
            child,
            stdin,
            stdout,
            mass_read,
            exited: false,
        })
    }

    /// Writes one newline-terminated line to the child's stdin (framed
    /// by the shared [`LineCodec`] so pipe and socket transports agree).
    pub(crate) fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        self.stdin.write_all(&LineCodec::encode(line))?;
        self.stdin.flush()
    }

    /// Polls the child's pipes for up to `timeout`; returns
    /// `(stdout_ready, mass_ready)` (readable or hung up).
    pub(crate) fn poll(&self, timeout: Duration) -> (bool, bool) {
        let mut interests = vec![Interest::read(0, self.stdout.as_raw_fd())];
        if let Some(m) = &self.mass_read {
            interests.push(Interest::read(1, m.as_raw_fd()));
        }
        let mut ready = Vec::new();
        let _ = SysPoller::new().wait(&interests, timeout.as_millis() as i32, &mut ready);
        let hit = |t: usize| ready.iter().any(|r| r.token == t && (r.readable || r.hup));
        (hit(0), hit(1))
    }

    /// Drains the child's stdout (non-blocking) up to `cap` bytes per
    /// call; returns the bytes and whether EOF was reached.
    pub(crate) fn read_stdout(&mut self, cap: usize) -> (Vec<u8>, bool) {
        let mut out = Vec::new();
        let mut buf = [0u8; 16384];
        let mut eof = false;
        while out.len() < cap {
            match self.stdout.read(&mut buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        (out, eof)
    }

    /// Drains the mass channel (non-blocking) up to `cap` bytes.
    pub(crate) fn read_mass(&mut self, cap: usize) -> Vec<u8> {
        let mut out = Vec::new();
        if let Some(m) = &mut self.mass_read {
            let mut buf = [0u8; 16384];
            while out.len() < cap {
                match m.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => out.extend_from_slice(&buf[..n]),
                    Err(_) => break,
                }
            }
        }
        out
    }

    /// Has the child process exited? (Sticky once observed.)
    pub(crate) fn exited(&mut self) -> bool {
        if !self.exited && matches!(self.child.try_wait(), Ok(Some(_))) {
            self.exited = true;
        }
        self.exited
    }

    /// Kills and reaps the child process.
    pub(crate) fn kill_process(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.exited = true;
    }
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
    /// Initial command sent to the backend after the fork (the paper's
    /// `InitCom` resource, e.g. a Prolog startup goal).
    pub init_com: Option<String>,
    /// Supervisor policy (timeouts, restarts, flood caps, queueing).
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
            supervisor: SupervisorConfig::default(),
            faults: None,
        }
    }
}

/// A running frontend: protocol engine + supervised child process.
pub struct Frontend {
    /// The protocol engine (owns the Wafe session).
    pub engine: ProtocolEngine,
    supervisor: Supervisor,
    /// Lines the frontend printed to its own stdout (non-`%` passthrough).
    pub printed: Vec<String>,
}

impl Frontend {
    /// Spawns the backend under the supervisor and wires the channels.
    pub fn spawn(config: FrontendConfig) -> std::io::Result<Frontend> {
        let mut engine = ProtocolEngine::new(config.flavor);
        let spec = SpawnSpec {
            program: config.program,
            args: config.args,
            mass_channel: config.mass_channel,
            init_com: config.init_com,
        };
        let tel = engine.session.telemetry.clone();
        let channel_fd = engine.session.channel_fd.clone();
        let supervisor = Supervisor::new(spec, config.supervisor, config.faults, tel, channel_fd)?;
        install_controls(&supervisor.core(), &mut engine.session);
        Ok(Frontend {
            engine,
            supervisor,
            printed: Vec::new(),
        })
    }

    /// Sends one line to the application's stdin. While the backend is
    /// down the line is queued (bounded) and flushed after a restart.
    pub fn send_to_app(&mut self, line: &str) -> std::io::Result<()> {
        self.supervisor.send(line)
    }

    /// One iteration of the multiplexed event loop: runs one supervisor
    /// tick (poll, read, fault plan, protocol, timeouts, restarts),
    /// pumps GUI events and forwards queued messages to the
    /// application. Returns false once the loop should end (backend
    /// exited and drained, `quit` ran, or the circuit breaker opened
    /// without `stayAliveWhenBroken`).
    pub fn step(&mut self, timeout: Duration) -> std::io::Result<bool> {
        let ended = self.supervisor.tick(&mut self.engine, timeout);
        for p in self.engine.take_passthrough() {
            self.printed.push(p);
        }
        // Pump GUI events and forward queued messages to the application.
        self.engine.session.pump();
        for line in self.engine.take_app_lines() {
            let _ = self.supervisor.send(&line);
        }
        if self.engine.session.quit_requested() {
            return Ok(false);
        }
        Ok(!ended)
    }

    /// Runs the loop until the backend exits, `quit` runs, or the
    /// deadline passes. Returns true on clean termination (backend exit
    /// or quit), false on deadline.
    pub fn run_until_exit(&mut self, deadline: Duration) -> std::io::Result<bool> {
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
        self.supervisor.state()
    }

    /// The shared supervisor handle (config, queue, fault plan).
    pub fn supervisor_core(&self) -> std::rc::Rc<std::cell::RefCell<SupervisorCore>> {
        self.supervisor.core()
    }

    /// Whether the backend process has exited. Reaps it without reading
    /// its output, so whatever it wrote stays in the pipe for the next
    /// `step` — the hook the exit-drain test uses.
    pub fn backend_exited(&mut self) -> bool {
        self.supervisor.child_exited()
    }

    /// Kills the backend *process* without informing the supervisor —
    /// the next `step` observes the death and applies the restart
    /// policy. This is the deterministic external-crash hook the chaos
    /// tests use.
    pub fn kill_backend(&mut self) {
        self.supervisor.kill_child_process();
    }

    /// Checkpoints the frontend into an encoded [`SessionSnapshot`]:
    /// the session's persistent state plus every application-bound line
    /// still queued — the protocol engine's pending lines followed by
    /// the supervisor's bounded outbound queue, preserving delivery
    /// order. Capture does not consume either queue; the live frontend
    /// keeps running unchanged.
    pub fn park_snapshot(&self) -> Vec<u8> {
        let mut outbound = self.engine.peek_app_lines();
        outbound.extend(self.supervisor.core().borrow().queued_lines());
        wafe_core::SessionSnapshot::capture(&self.engine.session, outbound).encode()
    }

    /// Restores a parked snapshot into this frontend's session and
    /// replays the captured outbound lines through the supervisor —
    /// delivered immediately while the backend runs, queued (bounded)
    /// while it is down and flushed in order after the next restart:
    /// the exact replay machinery crash recovery already uses.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<wafe_core::RestoreReport, String> {
        let snap = wafe_core::SessionSnapshot::decode_for(bytes, self.engine.session.flavor)?;
        let report = snap.restore_into(&mut self.engine.session);
        for line in &snap.outbound {
            self.supervisor.send(line).map_err(|e| e.to_string())?;
        }
        Ok(report)
    }

    /// Tears the backend down for good (cleanup in tests).
    pub fn kill(&mut self) {
        self.supervisor.shutdown();
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
            if fe.engine.session.app.borrow().lookup("go").is_some() {
                let realized = {
                    let app = fe.engine.session.app.borrow();
                    let go = app.lookup("go").unwrap();
                    app.is_realized(go)
                };
                if realized {
                    break;
                }
            }
        }
        assert!(
            fe.engine.session.app.borrow().lookup("go").is_some(),
            "backend lines not processed"
        );
        // Click the button: callback echoes to the app and quits.
        {
            let mut app = fe.engine.session.app.borrow_mut();
            let go = app.lookup("go").unwrap();
            let win = app.widget(go).window.unwrap();
            let abs = app.displays[0].abs_rect(win);
            app.displays[0].inject_click(abs.x + 2, abs.y + 2, 1);
        }
        let clean = fe.run_until_exit(Duration::from_secs(5)).unwrap();
        assert!(clean, "frontend loop must terminate after quit");
        assert!(fe.engine.session.quit_requested());
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
            if fe.engine.session.interp.var_exists("initline") {
                break;
            }
        }
        assert_eq!(
            fe.engine.session.interp.get_var("initline").unwrap(),
            "[myapp], widget_tree, read_loop."
        );
        fe.kill();
    }

    #[test]
    fn mass_channel_via_fd5() {
        // The paper's mass-transfer flow with a real child writing to the
        // inherited fd.
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
            ..FrontendConfig::new("sh")
        })
        .expect("spawn sh");
        let deadline = Instant::now() + Duration::from_secs(6);
        let mut got = String::new();
        while Instant::now() < deadline {
            fe.step(Duration::from_millis(20)).unwrap();
            if fe.engine.session.app.borrow().lookup("text").is_some() {
                got = fe
                    .engine
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
        assert_eq!(fe.engine.session.interp.get_var("x").unwrap(), "1");
        fe.kill();
    }
}
