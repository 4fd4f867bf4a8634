//! The `wafe` binary: interactive mode, file mode and frontend mode.
//!
//! * **interactive**: `wafe` reads commands from stdin and interprets
//!   them one by one — "the user sees how the widget tree is built and
//!   modified step by step".
//! * **file**: `wafe --f script.wafe` (also the `#!` magic) evaluates a
//!   Tcl/Wafe script.
//! * **frontend**: `wafe --app <program> [args…]` — or invoking through a
//!   link named `x<program>` — spawns the application program as a child
//!   and speaks the `%`-line protocol with it.
//!
//! The Motif flavour is selected by `--motif` or by invoking the binary
//! through a link named `mofe`.
//!
//! `--telemetry` (or `WAFE_TELEMETRY=1`) switches on the telemetry layer
//! in any mode; a script can then inspect it with `telemetry snapshot`.
//!
//! Every mode starts its session with the app-defaults file named by
//! `WAFE_APP_DEFAULTS` and the `-xrm` lines merged into the resource
//! database before `topLevel` exists, so `-xrm '*initCom: …'` reaches
//! the paper's `InitCom` resource.
//!
//! In frontend mode the backend runs under a supervisor, as the one
//! connection of wafe-serve's event loop (see `docs/supervisor.md`):
//! InitCom is the first line each backend incarnation reads,
//! passthrough lines go to stdout and each failed `%`-line's error to
//! stderr. `--backend-timeout=MS` and
//! `--backend-retries=N` set the read timeout and restart budget on top
//! of the `WAFE_BACKEND_*` environment overrides, and `WAFE_FAULTS`
//! installs a deterministic fault-injection plan for testing.

use std::io::{BufRead, Write};
use std::time::Duration;

use wafe_core::{split_args, Flavor, SplitArgs, WafeSession};
use wafe_ipc::FaultPlan;
use wafe_serve::{backend_from_argv0, Frontend, FrontendConfig, SupervisorConfig};

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let argv0 = argv[0].clone();
    let split = split_args(&argv[1..]);

    let flavor = if split.has_frontend("motif") || argv0.ends_with("mofe") {
        Flavor::Motif
    } else if split.has_frontend("both") {
        Flavor::Both
    } else {
        Flavor::Athena
    };

    // --guide: print the generated short reference guide (the original's
    // code generator emitted TeX for the same purpose) and exit.
    if split.has_frontend("guide") {
        let session = WafeSession::new(flavor);
        println!("{}", session.reference_guide());
        return;
    }

    // Frontend mode: explicit --app or the argv[0] link-name scheme.
    let backend = if split.has_frontend("app") {
        split.application.first().cloned()
    } else {
        backend_from_argv0(&argv0)
    };
    if let Some(program) = backend {
        let args = if split.has_frontend("app") {
            split.application[1..].to_vec()
        } else {
            split.application.clone()
        };
        run_frontend(&program, args, flavor, &split);
        return;
    }

    // File mode: --f <file>, or a bare file argument (the #! magic passes
    // the script path as the first argument).
    if split.has_frontend("f") || !split.application.is_empty() {
        let path = match split.application.first() {
            Some(p) => p.clone(),
            None => {
                eprintln!("wafe: --f requires a script file");
                std::process::exit(2);
            }
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("wafe: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        let mut session = local_session(flavor, &split);
        if let Err(e) = session.run_file_text(&text) {
            eprintln!("wafe: {}", e.message());
            std::process::exit(1);
        }
        report_warnings(&session);
        return;
    }

    // Interactive mode.
    let mut session = local_session(flavor, &split);
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        match session.eval(&line) {
            Ok(result) => {
                if !result.is_empty() {
                    println!("{result}");
                }
            }
            Err(e) => eprintln!("wafe: {}", e.message()),
        }
        report_warnings(&session);
        if session.quit_requested() {
            break;
        }
    }
}

/// The session of interactive and file mode: startup resources and
/// toolkit options applied, output to stdout.
fn local_session(flavor: Flavor, split: &SplitArgs) -> WafeSession {
    let mut session = WafeSession::with_resources(flavor, &startup_resources(split));
    if split.has_frontend("telemetry") {
        session.telemetry.set_enabled(true);
    }
    session.apply_toolkit_args(split);
    session.set_output_callback(|s| {
        print!("{s}");
        let _ = std::io::stdout().flush();
    });
    session
}

fn run_frontend(program: &str, args: Vec<String>, flavor: Flavor, split: &SplitArgs) {
    let mut config = FrontendConfig::new(program);
    config.args = args;
    config.flavor = flavor;
    // InitCom comes from these resources: "the resource InitCom is
    // provided, which can be specified in a resource file or by using
    // the -xrm command line option". The frontend reads it before the
    // first spawn.
    config.resources = startup_resources(split);
    // Supervisor policy: WAFE_BACKEND_* environment first, then the
    // dedicated flags on top.
    let (supervisor, env_warnings) = SupervisorConfig::from_env();
    config.supervisor = supervisor;
    for w in env_warnings {
        eprintln!("wafe: {w}");
    }
    if let Some(v) = split.frontend_value("backend-timeout") {
        match v.parse::<u64>() {
            Ok(ms) => config.supervisor.read_timeout_ms = (ms > 0).then_some(ms),
            Err(_) => {
                eprintln!("wafe: --backend-timeout expects milliseconds, got \"{v}\"");
                std::process::exit(2);
            }
        }
    }
    if let Some(v) = split.frontend_value("backend-retries") {
        match v.parse::<u32>() {
            Ok(n) => config.supervisor.max_restarts = n,
            Err(_) => {
                eprintln!("wafe: --backend-retries expects a count, got \"{v}\"");
                std::process::exit(2);
            }
        }
    }
    // Deterministic fault injection: WAFE_FAULTS="point:action[@trigger];…".
    match FaultPlan::from_env() {
        Some(Ok(plan)) => config.faults = Some(plan),
        Some(Err(e)) => {
            eprintln!("wafe: invalid {}: {e}", wafe_ipc::FAULTS_ENV_VAR);
            std::process::exit(2);
        }
        None => {}
    }
    let mut fe = match Frontend::spawn(config) {
        Ok(fe) => fe,
        Err(e) => {
            eprintln!("wafe: cannot start application program \"{program}\": {e}");
            std::process::exit(2);
        }
    };
    if split.has_frontend("telemetry") {
        fe.engine().session.telemetry.set_enabled(true);
    }
    fe.engine_mut().session.apply_toolkit_args(split);
    loop {
        match fe.step(Duration::from_millis(20)) {
            Ok(true) => report_step(&mut fe),
            Ok(false) => break,
            Err(e) => {
                eprintln!("wafe: frontend loop error: {e}");
                break;
            }
        }
    }
    report_step(&mut fe);
}

/// Writes what a frontend step left behind: passthrough lines to
/// stdout, and each failed line's protocol error to stderr, so none
/// accumulates in a long-running frontend.
fn report_step(fe: &mut Frontend) {
    for line in std::mem::take(&mut fe.printed) {
        println!("{line}");
    }
    for msg in fe.engine_mut().take_errors() {
        eprintln!("wafe: {msg}");
    }
}

/// The resources a session starts with: the application-defaults file
/// named by `WAFE_APP_DEFAULTS`, if set — the paper's "resource
/// description file, which is evaluated at startup time of the
/// application" — then the `-xrm` lines, which override it.
fn startup_resources(split: &SplitArgs) -> String {
    let mut text = String::new();
    if let Ok(path) = std::env::var("WAFE_APP_DEFAULTS") {
        match std::fs::read_to_string(&path) {
            Ok(t) => text = t,
            Err(_) => eprintln!("wafe: cannot read app-defaults file {path}"),
        }
    }
    for line in split.xrm_lines() {
        text.push('\n');
        text.push_str(line);
    }
    text
}

fn report_warnings(session: &WafeSession) {
    for w in session.app.borrow_mut().take_warnings() {
        eprintln!("wafe: {w}");
    }
}
