//! The Wafe session: Tcl interpreter + X Toolkit, wired together.
//!
//! A [`WafeSession`] is the embeddable form of the `wafe` program: it
//! owns the interpreter and the application context, takes its widget
//! classes and commands (spec-generated and hand-written) from the
//! flavour's shared [`ToolkitImage`], creates the automatic `topLevel`
//! shell and routes callback/action scripts (with percent substitution)
//! back into the interpreter — the analogue of Xt dispatching into
//! application C code.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use wafe_tcl::{CmdResult, Interp, OutputSink, TclError};
use wafe_trace::{Metric, Telemetry};
use wafe_xt::app::HostCallKind;
use wafe_xt::XtApp;

use crate::args::SplitArgs;
use crate::image::ToolkitImage;
use crate::percent;
use crate::spec::SpecFile;

/// Which widget set the binary was built for. The paper: "in the current
/// version it is not possible to mix Athena and OSF/Motif widgets and
/// converters freely" — `wafe` is Athena, `mofe` is Motif. `Both` is a
/// reproduction extension used by tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Flavor {
    /// Athena widgets (`wafe`).
    #[default]
    Athena,
    /// OSF/Motif widgets (`mofe`).
    Motif,
    /// Everything registered (reproduction extension).
    Both,
}

/// The embedded specification files.
pub const XT_SPEC: &str = include_str!("../specs/xt.wspec");
/// Shell classes, present in every flavour.
pub const SHELLS_SPEC: &str = include_str!("../specs/shells.wspec");
/// Extensions (Rdd drag-and-drop), present in every flavour.
pub const EXT_SPEC: &str = include_str!("../specs/ext.wspec");
/// Athena specification.
pub const XAW_SPEC: &str = include_str!("../specs/xaw.wspec");
/// Motif specification.
pub const MOTIF_SPEC: &str = include_str!("../specs/motif.wspec");

/// A pending timeout (virtual-time based, deterministic).
pub(crate) struct Timer {
    pub(crate) deadline_ms: u64,
    pub(crate) script: String,
}

/// The per-session state the toolkit image's shared commands reach
/// through the interpreter's context slot ([`Interp::context`]).
pub(crate) struct SessionCtx {
    pub(crate) image: Rc<ToolkitImage>,
    pub(crate) app: Rc<RefCell<XtApp>>,
    pub(crate) quit: Rc<Cell<bool>>,
    pub(crate) timers: RefCell<Vec<Timer>>,
    /// Idle work procs (`XtAppAddWorkProc`): `(id, script)`; a script
    /// evaluating to a true value removes itself, like returning `True`
    /// from a C work procedure.
    pub(crate) work_procs: RefCell<Vec<(u64, String)>>,
    pub(crate) next_work_id: Cell<u64>,
    pub(crate) clock_ms: Cell<u64>,
    pub(crate) comm_var: Rc<RefCell<Option<(String, usize, String)>>>,
    pub(crate) channel_fd: Rc<Cell<i64>>,
}

impl SessionCtx {
    /// The session `interp` belongs to.
    pub(crate) fn of(interp: &Interp) -> Result<Rc<SessionCtx>, TclError> {
        interp
            .context::<SessionCtx>()
            .ok_or_else(|| TclError::error("command requires a Wafe session"))
    }
}

/// The Wafe session.
///
/// # Examples
///
/// ```
/// use wafe_core::{Flavor, WafeSession};
///
/// let mut session = WafeSession::new(Flavor::Athena);
/// session.eval("label l topLevel label {Hi Man}").unwrap();
/// session.eval("realize").unwrap();
/// assert_eq!(session.eval("gV l label").unwrap(), "Hi Man");
/// assert_eq!(session.eval("getResourceList l rv").unwrap(), "42");
/// ```
pub struct WafeSession {
    /// The Tcl interpreter, its commands backed by the toolkit image.
    pub interp: Interp,
    /// The toolkit application context.
    pub app: Rc<RefCell<XtApp>>,
    pub(crate) ctx: Rc<SessionCtx>,
    /// Which widget set is active.
    pub flavor: Flavor,
    output: Rc<RefCell<String>>,
    /// Configured by `setCommunicationVariable`: (variable, byte count,
    /// completion script). Consumed by the frontend-mode channel reader.
    pub comm_var: Rc<RefCell<Option<(String, usize, String)>>>,
    /// The fd number `getChannel` reports (-1 without a frontend).
    pub channel_fd: Rc<Cell<i64>>,
    /// The telemetry store shared by every layer of this session
    /// (interpreter, toolkit, pipe protocol). Enabled at construction
    /// when `WAFE_TELEMETRY` is set; scripts toggle it with the
    /// `telemetry enable|disable` command.
    pub telemetry: Telemetry,
}

impl WafeSession {
    /// Creates a session for the given flavour, with the automatic
    /// `topLevel` application shell. The flavour's [`ToolkitImage`] is
    /// built on the thread's first session and shared after that.
    pub fn new(flavor: Flavor) -> Self {
        Self::with_resources(flavor, "")
    }

    /// Like [`new`](Self::new), with `resources` (resource-file lines:
    /// an app-defaults file, `-xrm` specifications) merged into the
    /// database before `topLevel` is created, so the shell's own
    /// resources — the paper's `InitCom` among them — see them too.
    pub fn with_resources(flavor: Flavor, resources: &str) -> Self {
        let image = ToolkitImage::shared(flavor);
        let telemetry = Telemetry::from_env();
        let mut app = image.new_app(telemetry.clone());
        app.resource_db.merge_text(resources);
        app.create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .expect("topLevel creation cannot fail");

        let mut interp = Interp::with_base(image.commands().clone(), telemetry.clone());
        let output = Rc::new(RefCell::new(String::new()));
        interp.set_output(OutputSink::Buffer(output.clone()));

        let ctx = Rc::new(SessionCtx {
            image,
            app: Rc::new(RefCell::new(app)),
            quit: Rc::new(Cell::new(false)),
            timers: RefCell::new(Vec::new()),
            work_procs: RefCell::new(Vec::new()),
            next_work_id: Cell::new(1),
            clock_ms: Cell::new(0),
            comm_var: Rc::new(RefCell::new(None)),
            channel_fd: Rc::new(Cell::new(-1)),
        });
        interp.set_context(ctx.clone());
        WafeSession {
            interp,
            app: ctx.app.clone(),
            flavor,
            output,
            comm_var: ctx.comm_var.clone(),
            channel_fd: ctx.channel_fd.clone(),
            telemetry,
            ctx,
        }
    }

    // ----- evaluation and pumping ------------------------------------------

    /// Evaluates a script, then pumps events/callbacks to quiescence.
    pub fn eval(&mut self, script: &str) -> CmdResult {
        let r = self.interp.eval(script);
        self.pump();
        r
    }

    /// Dispatches pending X events and drains host calls until the
    /// system is quiescent, then gives each idle work proc one turn
    /// (Xt runs work procedures only when no events are pending).
    pub fn pump(&mut self) {
        pump(&mut self.interp, &self.app, &self.ctx.quit);
        if self.ctx.quit.get() {
            return;
        }
        let procs: Vec<(u64, String)> = self.ctx.work_procs.borrow().clone();
        for (id, script) in procs {
            let done = match self.interp.eval(&script) {
                Ok(v) => matches!(v.trim(), "1" | "true" | "yes" | "on"),
                Err(e) => {
                    if e.is_error() {
                        self.app.borrow_mut().warn(format!("work proc failed: {e}"));
                    }
                    true // Failing work procs are removed, like Xt.
                }
            };
            if done {
                self.ctx.work_procs.borrow_mut().retain(|(i, _)| *i != id);
            }
        }
        pump(&mut self.interp, &self.app, &self.ctx.quit);
    }

    /// True once the `quit` command ran.
    pub fn quit_requested(&self) -> bool {
        self.ctx.quit.get()
    }

    /// Takes everything `echo`/`puts` wrote since the last call.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut *self.output.borrow_mut())
    }

    /// Routes interpreter output to a callback instead of the internal
    /// buffer (frontend mode routes it to the application's stdin).
    pub fn set_output_callback<F>(&mut self, f: F)
    where
        F: FnMut(&str) + 'static,
    {
        self.interp
            .set_output(OutputSink::Func(Rc::new(RefCell::new(f))));
    }

    // ----- virtual time ------------------------------------------------------

    /// Number of pending timeouts.
    pub fn pending_timeouts(&self) -> usize {
        self.ctx.timers.borrow().len()
    }

    /// The virtual clock in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.ctx.clock_ms.get()
    }

    // ----- statistics ---------------------------------------------------------

    /// `(generated, handwritten)` command counts — the paper: "About 60%
    /// of the code is generated automatically".
    pub fn command_stats(&self) -> (usize, usize) {
        self.ctx.image.command_stats()
    }

    /// The Markdown short reference guide generated from the specs.
    pub fn reference_guide(&self) -> String {
        self.ctx.image.spec().reference_guide()
    }

    /// The parsed specification (for the architecture experiment).
    pub fn spec(&self) -> &SpecFile {
        self.ctx.image.spec()
    }

    /// The toolkit image this session's commands and classes come from.
    pub fn image(&self) -> &Rc<ToolkitImage> {
        &self.ctx.image
    }

    // ----- argv -----------------------------------------------------------------

    /// Applies the X-toolkit portion of the command line: `-display`
    /// renames the default display, `-xrm` lines merge into the resource
    /// database.
    pub fn apply_toolkit_args(&mut self, args: &SplitArgs) {
        let mut app = self.app.borrow_mut();
        if let Some(d) = args.toolkit_value("-display") {
            if !d.is_empty() {
                app.displays[0].name = d.to_string();
            }
        }
        for line in args.xrm_lines() {
            app.resource_db.insert_line(line);
        }
    }

    /// Runs a file-mode script: strips the `#!` line if present, then
    /// evaluates the rest.
    pub fn run_file_text(&mut self, text: &str) -> CmdResult {
        let body = if text.starts_with("#!") {
            match text.find('\n') {
                Some(nl) => &text[nl + 1..],
                None => "",
            }
        } else {
            text
        };
        self.eval(body)
    }
}

/// Dispatches pending X events and drains queued host calls (callback
/// and action scripts) into the interpreter, with percent substitution,
/// until quiescent. Shared by session methods and command closures.
pub fn pump(interp: &mut Interp, app: &Rc<RefCell<XtApp>>, quit: &Rc<Cell<bool>>) {
    for _ in 0..1000 {
        let dispatched = app.borrow_mut().dispatch_pending();
        let calls = app.borrow_mut().take_host_calls();
        if dispatched == 0 && calls.is_empty() {
            break;
        }
        for call in calls {
            if quit.get() {
                return;
            }
            let script = match (&call.kind, &call.event) {
                (HostCallKind::Action, Some(e)) => {
                    percent::substitute_action(&call.script, &call.widget_name, e)
                }
                _ => percent::substitute_callback(&call.script, &call.widget_name, &call.data),
            };
            // Dispatch latency of the Xt→Tcl seam: percent substitution
            // is already done, so this times the script run itself.
            let timer = interp.telemetry().timer();
            let result = interp.eval(&script);
            let (runs, latency) = match call.kind {
                HostCallKind::Action => (Metric::XtActionsDispatched, Metric::XtActionDispatch),
                HostCallKind::Callback(_) => {
                    (Metric::XtCallbacksDispatched, Metric::XtCallbackDispatch)
                }
            };
            interp.telemetry().count(runs);
            interp.telemetry().observe_since(latency, timer);
            if let Err(e) = result {
                if e.is_error() {
                    app.borrow_mut().warn(format!(
                        "error in callback of \"{}\": {}",
                        call.widget_name,
                        e.message()
                    ));
                }
            }
        }
    }
}
