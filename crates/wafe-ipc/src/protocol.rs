//! The transport-independent frontend protocol.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use wafe_core::{Flavor, WafeSession};
use wafe_tcl::Value;
use wafe_trace::Metric;

/// The default command-prefix character.
pub const DEFAULT_PREFIX: char = '%';

/// The default maximum command-line length: "pretty long depending on a
/// preprocessor variable specified at compilation time; the default
/// length is 64KB".
pub const DEFAULT_MAX_LINE: usize = 64 * 1024;

/// Pure classification of one assembled line (trailing newline already
/// stripped or not — both accepted): the command it carries under
/// `prefix`, or `None` for a passthrough line. The engine classifies
/// every line through this, so the framing property tests check that
/// the classification the engine runs is stable however the byte
/// stream was chunked.
pub fn command_body(line: &str, prefix: char) -> Option<&str> {
    line.strip_suffix('\n').unwrap_or(line).strip_prefix(prefix)
}

/// The protocol engine: a Wafe session plus the line protocol around it.
pub struct ProtocolEngine {
    /// The embedded Wafe session.
    pub session: WafeSession,
    prefix: char,
    max_line: usize,
    to_app: Rc<RefCell<VecDeque<String>>>,
    passthrough: Vec<String>,
    mass_buf: Vec<u8>,
    errors: Vec<String>,
}

impl ProtocolEngine {
    /// Creates an engine around a fresh session of the given flavour.
    /// Interpreter output (`echo`) is routed into the to-application
    /// queue — "the frontend is programmed by the application program to
    /// send back string messages whenever certain events … occur".
    pub fn new(flavor: Flavor) -> Self {
        Self::from_session(WafeSession::new(flavor))
    }

    /// An engine around an existing session (one created with startup
    /// resources, say), with its output routed as in [`new`](Self::new).
    pub fn from_session(mut session: WafeSession) -> Self {
        let to_app: Rc<RefCell<VecDeque<String>>> = Rc::new(RefCell::new(VecDeque::new()));
        let q = to_app.clone();
        let partial = Rc::new(RefCell::new(String::new()));
        session.set_output_callback(move |s| {
            // Accumulate until newline; each complete line is one message
            // to the application.
            let mut part = partial.borrow_mut();
            part.push_str(s);
            while let Some(nl) = part.find('\n') {
                let mut line: String = part.drain(..=nl).collect();
                line.pop(); // the newline at `nl`
                q.borrow_mut().push_back(line);
            }
        });
        ProtocolEngine {
            session,
            prefix: DEFAULT_PREFIX,
            max_line: DEFAULT_MAX_LINE,
            to_app,
            passthrough: Vec::new(),
            mass_buf: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Overrides the maximum line length (the compile-time variable of
    /// the original).
    pub fn set_max_line(&mut self, max: usize) {
        self.max_line = max;
    }

    /// Overrides the prefix character.
    pub fn set_prefix(&mut self, prefix: char) {
        self.prefix = prefix;
    }

    /// The current command-prefix character.
    pub fn prefix(&self) -> char {
        self.prefix
    }

    /// Handles one line from the application.
    ///
    /// A line starting with the prefix character is interpreted as a Wafe
    /// command; any other line is passed through to the frontend's
    /// stdout. Returns the command result for prefixed lines, as the
    /// interpreter's shared [`Value`]: callers that drop it copy nothing.
    pub fn handle_line(&mut self, line: &str) -> Result<Option<Value>, String> {
        let tel = self.session.telemetry.clone();
        tel.count(Metric::IpcLinesReceived);
        tel.add(Metric::IpcBytesReceived, line.len() as u64);
        if line.len() > self.max_line {
            return Err(self.too_long(format!("{} bytes", line.len())));
        }
        let trimmed = line.strip_suffix('\n').unwrap_or(line);
        if let Some(cmd) = command_body(line, self.prefix) {
            tel.count(Metric::IpcLinesInterpreted);
            // The per-command span: a child of the scheduler's
            // serve.command root (opened around this call), or a root
            // of its own when the engine is driven directly.
            let span = tel.span_begin("ipc.command", || trimmed.to_string());
            let r = match self.session.eval(cmd) {
                Ok(v) => Ok(Some(v)),
                Err(e) => {
                    let msg = e.message();
                    tel.count(Metric::IpcErrors);
                    self.errors.push(msg.clone());
                    Err(msg)
                }
            };
            if span {
                tel.span_end();
            }
            r
        } else {
            tel.count(Metric::IpcLinesPassthrough);
            self.passthrough.push(trimmed.to_string());
            Ok(None)
        }
    }

    /// Records a line the transport's codec discarded for running past
    /// the limit before its newline: one `ipc.lines.received`, one
    /// `ipc.errors` and the error an over-long [`handle_line`](Self::handle_line)
    /// gives, so no discarded line goes uncounted.
    pub fn reject_overlong(&mut self) {
        self.session.telemetry.count(Metric::IpcLinesReceived);
        self.too_long(format!("over {} bytes", self.max_line));
    }

    fn too_long(&mut self, size: String) -> String {
        let msg = format!("command line too long ({size}, limit {})", self.max_line);
        self.session.telemetry.count(Metric::IpcErrors);
        self.errors.push(msg.clone());
        msg
    }

    /// Feeds bytes arriving on the mass-transfer channel. When the
    /// byte count configured by `setCommunicationVariable` is reached,
    /// the data lands in the Tcl variable and the completion script runs.
    pub fn handle_mass_data(&mut self, data: &[u8]) {
        let tel = self.session.telemetry.clone();
        tel.add(Metric::IpcMassBytes, data.len() as u64);
        self.mass_buf.extend_from_slice(data);
        loop {
            let config = self.session.comm_var.borrow().clone();
            let (var, count, script) = match config {
                Some(c) => c,
                None => return,
            };
            if self.mass_buf.len() < count {
                return;
            }
            let chunk: Vec<u8> = self.mass_buf.drain(..count).collect();
            tel.count(Metric::IpcMassTransfers);
            tel.event("mass.transfer", || format!("{count} bytes -> {}", var));
            let text = String::from_utf8_lossy(&chunk).into_owned();
            if let Err(e) = self.session.interp.set_var(&var, &text) {
                self.errors.push(e.message());
            }
            // One-shot: clear the configuration before running the script
            // (which may configure the next transfer).
            *self.session.comm_var.borrow_mut() = None;
            if let Err(e) = self.session.eval(&script) {
                if e.is_error() {
                    self.errors.push(e.message());
                }
            }
        }
    }

    /// Bytes still waiting in the mass buffer.
    pub fn mass_pending(&self) -> usize {
        self.mass_buf.len()
    }

    /// Takes the lines queued for the application (click-ahead buffer).
    pub fn take_app_lines(&mut self) -> Vec<String> {
        self.to_app.borrow_mut().drain(..).collect()
    }

    /// Number of lines currently buffered for the application.
    pub fn app_lines_pending(&self) -> usize {
        self.to_app.borrow().len()
    }

    /// The application-bound lines currently buffered, without draining
    /// them — checkpoint capture reads the queue it must preserve.
    pub fn peek_app_lines(&self) -> Vec<String> {
        self.to_app.borrow().iter().cloned().collect()
    }

    /// Takes the non-command lines passed through to the frontend stdout.
    pub fn take_passthrough(&mut self) -> Vec<String> {
        std::mem::take(&mut self.passthrough)
    }

    /// Accumulated protocol errors.
    pub fn take_errors(&mut self) -> Vec<String> {
        std::mem::take(&mut self.errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ProtocolEngine {
        ProtocolEngine::new(Flavor::Athena)
    }

    /// `(interpreted, passed through)` line counts from the store.
    fn lines(e: &ProtocolEngine) -> (u64, u64) {
        let tel = &e.session.telemetry;
        (
            tel.value(Metric::IpcLinesInterpreted),
            tel.value(Metric::IpcLinesPassthrough),
        )
    }

    #[test]
    fn prefixed_lines_are_commands() {
        let mut e = engine();
        e.handle_line("%label l topLevel label hi\n").unwrap();
        assert!(e.session.app.borrow().lookup("l").is_some());
        assert_eq!(lines(&e), (1, 0));
    }

    #[test]
    fn unprefixed_lines_pass_through() {
        let mut e = engine();
        e.handle_line("just some output\n").unwrap();
        assert_eq!(e.take_passthrough(), vec!["just some output"]);
        assert_eq!(lines(&e), (0, 1));
    }

    #[test]
    fn echo_goes_to_application_queue() {
        let mut e = engine();
        e.handle_line("%echo hello app\n").unwrap();
        assert_eq!(e.take_app_lines(), vec!["hello app"]);
    }

    #[test]
    fn command_errors_reported() {
        let mut e = engine();
        assert!(e.handle_line("%nosuchcommand\n").is_err());
        assert_eq!(e.take_errors().len(), 1);
    }

    #[test]
    fn line_limit_enforced() {
        // E15: the 64KB default line length.
        let mut e = engine();
        e.set_max_line(100);
        let long = format!("%echo {}", "x".repeat(200));
        assert!(e.handle_line(&long).is_err());
        // A line under the limit passes.
        let ok = format!("%echo {}", "x".repeat(50));
        assert!(e.handle_line(&ok).is_ok());
        // The default limit is the paper's 64KB.
        let e2 = engine();
        assert_eq!(e2.max_line, DEFAULT_MAX_LINE);
        assert_eq!(DEFAULT_MAX_LINE, 65536);
    }

    #[test]
    fn paper_prime_factor_widget_tree() {
        // The exact command lines the Perl example prints in phase 2.
        let mut e = engine();
        for line in [
            "%form top topLevel",
            "%asciiText input top editType edit width 200",
            "%action input override {<Key>Return: exec(echo [gV input string])}",
            "%label result top label {} width 200 fromVert input",
            "%command quit top fromVert result callback quit",
            "%label info top fromVert result fromHoriz quit label {} borderWidth 0 width 150",
            "%realize",
        ] {
            e.handle_line(line).unwrap();
        }
        let app = e.session.app.borrow();
        for w in ["top", "input", "result", "quit", "info"] {
            assert!(app.lookup(w).is_some(), "missing widget {w}");
            assert!(app.is_realized(app.lookup(w).unwrap()));
        }
    }

    #[test]
    fn prime_factor_read_loop_roundtrip() {
        // Phase 3: typing a number and pressing Return sends the string
        // to the application; the application answers with sV lines.
        let mut e = engine();
        for line in [
            "%form top topLevel",
            "%asciiText input top editType edit width 200",
            "%action input override {<Key>Return: exec(echo [gV input string])}",
            "%label result top label {} width 200 fromVert input",
            "%realize",
        ] {
            e.handle_line(line).unwrap();
        }
        {
            let mut app = e.session.app.borrow_mut();
            let input = app.lookup("input").unwrap();
            let win = app.widget(input).window.unwrap();
            app.displays[0].set_input_focus(Some(win));
            app.displays[0].inject_key_text("360\n");
        }
        e.session.pump();
        // The frontend sent the typed number to the application.
        assert_eq!(e.take_app_lines(), vec!["360"]);
        // The application (playing the Perl program) answers.
        e.handle_line("%sV result label {2*2*2*3*3*5}").unwrap();
        assert_eq!(e.session.eval("gV result label").unwrap(), "2*2*2*3*3*5");
    }

    #[test]
    fn mass_transfer_accumulates_until_count() {
        // The paper: setCommunicationVariable C 100000 {sV text string $C}
        // — scaled down to 100 bytes here; the full-size transfer runs in
        // the E6 benchmark.
        let mut e = engine();
        e.handle_line("%form top topLevel").unwrap();
        e.handle_line("%asciiText text top editType edit").unwrap();
        e.handle_line("%realize").unwrap();
        e.handle_line("%setCommunicationVariable C 100 {sV text string $C}")
            .unwrap();
        let payload = "y".repeat(100);
        // Arrives in two chunks.
        e.handle_mass_data(&payload.as_bytes()[..40]);
        assert_eq!(e.mass_pending(), 40);
        assert_eq!(e.session.eval("gV text string").unwrap(), "");
        e.handle_mass_data(&payload.as_bytes()[40..]);
        assert_eq!(e.mass_pending(), 0);
        assert_eq!(e.session.eval("gV text string").unwrap(), payload);
        // One-shot: more data just buffers.
        e.handle_mass_data(b"extra");
        assert_eq!(e.mass_pending(), 5);
    }

    #[test]
    fn click_ahead_buffers_in_order() {
        // E11: button presses while the application is busy are buffered,
        // none lost, order preserved.
        let mut e = engine();
        e.handle_line("%command b topLevel label go callback {echo pressed}")
            .unwrap();
        e.handle_line("%realize").unwrap();
        let _ = e.take_app_lines();
        for _ in 0..10 {
            let mut app = e.session.app.borrow_mut();
            let b = app.lookup("b").unwrap();
            let win = app.widget(b).window.unwrap();
            let abs = app.displays[0].abs_rect(win);
            app.displays[0].inject_click(abs.x + 2, abs.y + 2, 1);
        }
        e.session.pump();
        // The application was "busy" (read nothing); all ten messages wait.
        let lines = e.take_app_lines();
        assert_eq!(lines.len(), 10);
        assert!(lines.iter().all(|l| l == "pressed"));
    }

    #[test]
    fn gui_refresh_while_app_silent() {
        // E10: expose events are serviced even when the application sends
        // nothing (it is busy computing).
        let mut e = engine();
        e.handle_line("%label l topLevel label visible width 80 height 24")
            .unwrap();
        e.handle_line("%realize").unwrap();
        // The application goes silent; a user uncovers the window.
        {
            let mut app = e.session.app.borrow_mut();
            let l = app.lookup("l").unwrap();
            let win = app.widget(l).window.unwrap();
            app.displays[0].expose(win);
        }
        e.session.pump();
        let snap = e.session.eval("snapshot 0 0 200 60").unwrap();
        assert!(snap.contains("visible"), "{snap}");
    }

    #[test]
    fn assembler_reframes_chunked_bytes() {
        // Inbound framing for every transport is the shared `LineCodec`.
        let mut a = crate::LineCodec::new(usize::MAX);
        assert_eq!(a.push(b"%set x "), Vec::<String>::new());
        assert_eq!(a.pending(), 7);
        assert_eq!(a.push(b"1\nplain\n%se"), vec!["%set x 1", "plain"]);
        assert_eq!(a.push(b"t y 2\n"), vec!["%set y 2"]);
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn assembler_discards_oversized_lines() {
        let mut a = crate::LineCodec::new(8);
        // Oversized whether it completes in one chunk or dribbles in.
        assert_eq!(a.push(b"0123456789ab\nok\n"), vec!["ok"]);
        assert_eq!(a.take_overflows(), 1);
        for _ in 0..5 {
            assert!(a.push(b"xxxx").is_empty());
        }
        assert_eq!(a.push(b"tail\nok2\n"), vec!["ok2"]);
        assert_eq!(a.take_overflows(), 1, "one overflow per discarded line");
        // A line of exactly max bytes survives.
        let mut b = crate::LineCodec::new(4);
        assert_eq!(b.push(b"abcd\n"), vec!["abcd"]);
        assert_eq!(b.take_overflows(), 0);
    }

    #[test]
    fn classification_matches_engine_behaviour() {
        assert_eq!(command_body("%set x 1", DEFAULT_PREFIX), Some("set x 1"));
        assert_eq!(command_body("%set x 1\n", DEFAULT_PREFIX), Some("set x 1"));
        assert_eq!(command_body("plain", DEFAULT_PREFIX), None);
        assert_eq!(command_body("", DEFAULT_PREFIX), None);
        assert_eq!(command_body("#cmd", '#'), Some("cmd"));
    }

    #[test]
    fn custom_prefix() {
        let mut e = engine();
        e.set_prefix('#');
        e.handle_line("#set x 42").unwrap();
        assert_eq!(e.session.interp.get_var("x").unwrap(), "42");
        // '%' lines now pass through.
        e.handle_line("%not a command").unwrap();
        assert_eq!(e.take_passthrough(), vec!["%not a command"]);
    }
}
