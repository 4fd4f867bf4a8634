//! Failure injection for frontend mode: crashing backends, garbage
//! protocol input, oversized lines, wedged children — the frontend
//! must degrade gracefully, never panic, and keep the GUI consistent.
//! Everything here runs through the supervisor path (the default
//! policy reproduces the paper's trusting frontend).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wafe::core::Flavor;
use wafe::ipc::ProtocolEngine;
use wafe::serve::{BackendState, Frontend, FrontendConfig, SupervisorConfig};
use wafe::tcl::Metric;

/// One `ipc.supervisor.*` event total from the session's store.
fn stat(fe: &Frontend, m: Metric) -> u64 {
    fe.engine().session.telemetry.value(m)
}

/// `backend status`, for assertion messages.
fn status(fe: &Frontend) -> Vec<String> {
    fe.supervisor_core().borrow().status_words()
}

fn spawn_sh(script: &str) -> Frontend {
    spawn_sh_with(script, SupervisorConfig::default())
}

fn spawn_sh_with(script: &str, supervisor: SupervisorConfig) -> Frontend {
    Frontend::spawn(FrontendConfig {
        args: vec!["-c".into(), script.into()],
        mass_channel: false,
        supervisor,
        ..FrontendConfig::new("sh")
    })
    .expect("spawn sh")
}

fn snapshot(session: &mut wafe::core::WafeSession) -> BTreeMap<String, u64> {
    let out = session.eval("telemetry snapshot").unwrap();
    wafe::tcl::parse_list(&out)
        .unwrap()
        .chunks(2)
        .map(|kv| (kv[0].clone(), kv[1].parse::<u64>().unwrap()))
        .collect()
}

#[test]
fn backend_crashes_mid_tree() {
    // The backend dies after half the widget tree; the frontend keeps the
    // partial tree and reports a clean exit.
    let mut fe = spawn_sh(
        "echo '%form top topLevel'\n\
         echo '%label a top label first'\n\
         exit 3\n",
    );
    let clean = fe.run_until_exit(Duration::from_secs(5)).unwrap();
    assert!(clean, "loop must end when the backend dies");
    let app = fe.engine().session.app.borrow();
    assert!(app.lookup("a").is_some(), "partial tree preserved");
    drop(app);
    // The session is still usable locally.
    assert_eq!(fe.engine_mut().session.eval("gV a label").unwrap(), "first");
    fe.kill();
}

#[test]
fn backend_emits_garbage_commands() {
    let mut fe = spawn_sh(
        "echo '%no_such_command at all'\n\
         echo '%label l topLevel label {survived}'\n\
         echo '%set done 1'\n\
         sleep 0.3\n",
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(20)).unwrap();
        if fe.engine().session.interp.var_exists("done") {
            break;
        }
    }
    // The bad command produced a protocol error, not a dead frontend.
    let errors = fe.engine_mut().take_errors();
    assert!(
        errors.iter().any(|e| e.contains("no_such_command")),
        "{errors:?}"
    );
    assert_eq!(
        fe.engine_mut().session.eval("gV l label").unwrap(),
        "survived"
    );
    fe.kill();
}

#[test]
fn backend_emits_binary_garbage() {
    let mut fe = spawn_sh(
        "head -c 512 /dev/urandom\n\
         echo\n\
         echo '%set done 1'\n\
         sleep 0.3\n",
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(20)).unwrap();
        if fe.engine().session.interp.var_exists("done") {
            break;
        }
    }
    assert!(
        fe.engine().session.interp.var_exists("done"),
        "binary noise must not kill the loop"
    );
    fe.kill();
}

#[test]
fn oversized_line_rejected_but_session_lives() {
    let mut engine = ProtocolEngine::new(Flavor::Athena);
    engine.set_max_line(1000);
    let long = format!("%set big {{{}}}", "z".repeat(5000));
    assert!(engine.handle_line(&long).is_err());
    assert!(engine.handle_line("%set ok yes").is_ok());
    assert_eq!(engine.session.interp.get_var("ok").unwrap(), "yes");
    assert!(engine.session.interp.get_var("big").is_err());
}

#[test]
fn callback_script_errors_become_warnings() {
    // A callback whose script is broken must not poison the event loop.
    let mut engine = ProtocolEngine::new(Flavor::Athena);
    engine.handle_line("%form f topLevel").unwrap();
    engine
        .handle_line("%command b f label go callback {nosuchcmd}")
        .unwrap();
    engine
        .handle_line("%command c f label go2 fromHoriz b callback {echo fine}")
        .unwrap();
    engine.handle_line("%realize").unwrap();
    let _ = engine.take_app_lines();
    for name in ["b", "c"] {
        let mut app = engine.session.app.borrow_mut();
        let w = app.lookup(name).unwrap();
        let abs = app.displays[0].abs_rect(app.widget(w).window.unwrap());
        app.displays[0].inject_click(abs.x + 2, abs.y + 2, 1);
    }
    engine.session.pump();
    // The good callback still ran.
    assert_eq!(engine.take_app_lines(), vec!["fine"]);
    let warnings = engine.session.app.borrow_mut().take_warnings();
    assert!(
        warnings.iter().any(|w| w.contains("nosuchcmd")),
        "{warnings:?}"
    );
}

#[test]
fn nonexistent_backend_program() {
    let result = Frontend::spawn(FrontendConfig::new("/no/such/program/anywhere"));
    assert!(
        result.is_err(),
        "spawning a missing backend must fail cleanly"
    );
}

#[test]
fn backend_ignores_stdin_then_exits() {
    // A backend that never reads what the frontend sends; writes to its
    // stdin must not wedge or kill the loop (EPIPE ignored).
    let mut fe = spawn_sh(
        "echo '%command b topLevel label go callback {echo msg}'\n\
         echo '%realize'\n\
         sleep 0.2\n",
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if !fe.step(Duration::from_millis(20)).unwrap() {
            break;
        }
        let has_b = fe.engine().session.app.borrow().lookup("b").is_some();
        if has_b {
            let mut app = fe.engine().session.app.borrow_mut();
            if let Some(b) = app.lookup("b") {
                if let Some(win) = app.widget(b).window {
                    let abs = app.displays[0].abs_rect(win);
                    app.displays[0].inject_click(abs.x + 2, abs.y + 2, 1);
                }
            }
        }
    }
    // Reaching here without a panic or hang is the assertion.
    fe.kill();
}

#[test]
fn wedged_backend_trips_read_timeout_instead_of_hanging() {
    // Regression: a backend that opens the pipe but never writes used to
    // block the session forever (the paper's frontend has no timeout).
    // With a read timeout and no restart budget the breaker opens and
    // the loop ends — deterministically, on the virtual tick clock.
    let supervisor = SupervisorConfig {
        read_timeout_ms: Some(100),
        ..SupervisorConfig::default()
    };
    let mut fe = spawn_sh_with("read never_comes", supervisor);
    let mut ended = false;
    for _ in 0..500 {
        if !fe.step(Duration::from_millis(20)).unwrap() {
            ended = true;
            break;
        }
    }
    assert!(ended, "the wedged backend must not hang the session");
    assert_eq!(fe.backend_state(), BackendState::Broken);
    assert_eq!(
        stat(&fe, Metric::IpcSupervisorTimeoutsRead),
        1,
        "{:?}",
        status(&fe)
    );
    assert_eq!(stat(&fe, Metric::IpcSupervisorBreakerTrips), 1);
    // The GUI session itself is still usable after the breaker opened.
    assert_eq!(
        fe.engine_mut().session.eval("set x alive").unwrap(),
        "alive"
    );
    fe.kill();
}

#[test]
fn supervisor_counters_surface_in_telemetry_snapshot() {
    // Kill the backend externally, send a line (queued), let the
    // supervisor restart and flush — then read the whole story out of
    // `telemetry snapshot` as ipc.supervisor.* counters.
    let script = r#"while read l; do echo "%set got_$l 1"; done"#;
    let supervisor = SupervisorConfig {
        max_restarts: 3,
        backoff_base_ms: 10,
        ..SupervisorConfig::default()
    };
    let mut fe = spawn_sh_with(script, supervisor);
    fe.engine().session.telemetry.set_enabled(true);
    fe.kill_backend();
    fe.send_to_app("resurrected").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(10)).unwrap();
        if fe.engine().session.interp.var_exists("got_resurrected") {
            break;
        }
    }
    assert!(
        fe.engine().session.interp.var_exists("got_resurrected"),
        "queued line must be delivered after the restart"
    );
    let snap = snapshot(&mut fe.engine_mut().session);
    assert!(snap["ipc.supervisor.restarts"] >= 1, "{snap:?}");
    assert!(snap["ipc.supervisor.queue.flushed"] >= 1);
    assert!(snap["ipc.supervisor.write.errors"] >= 1);
    // The journal recorded the fault/restart sequence.
    let journal = fe.engine_mut().session.eval("telemetry journal").unwrap();
    assert!(journal.contains("supervisor.fault"), "{journal}");
    assert!(journal.contains("supervisor.restart"), "{journal}");
    fe.kill();
}

#[test]
fn prime_backend_restarts_end_to_end() {
    // The real prime-factor backend from the paper's example: kill it
    // mid-session, queue a request while it is down, and check the
    // restarted incarnation answers it.
    let supervisor = SupervisorConfig {
        max_restarts: 2,
        backoff_base_ms: 10,
        ..SupervisorConfig::default()
    };
    let mut fe = Frontend::spawn(FrontendConfig {
        mass_channel: false,
        supervisor,
        ..FrontendConfig::new(env!("CARGO_BIN_EXE_wafe-backend-prime"))
    })
    .expect("spawn prime backend");
    // Wait for the widget tree, then a first round trip.
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(10)).unwrap();
        let built = {
            let app = fe.engine().session.app.borrow();
            app.lookup("result").is_some() && app.lookup("input").is_some()
        };
        if built {
            break;
        }
    }
    fe.send_to_app("360").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(10)).unwrap();
        if fe.engine_mut().session.eval("gV result label").unwrap() == "5*3*3*2*2*2" {
            break;
        }
    }
    assert_eq!(
        fe.engine_mut().session.eval("gV result label").unwrap(),
        "5*3*3*2*2*2"
    );
    // Crash it; the request sent while dead is queued and flushed.
    fe.kill_backend();
    fe.send_to_app("35").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(10)).unwrap();
        if fe.engine_mut().session.eval("gV result label").unwrap() == "7*5" {
            break;
        }
    }
    assert_eq!(
        fe.engine_mut().session.eval("gV result label").unwrap(),
        "7*5"
    );
    assert_eq!(
        stat(&fe, Metric::IpcSupervisorRestarts),
        1,
        "{:?}",
        status(&fe)
    );
    assert!(stat(&fe, Metric::IpcSupervisorQueueFlushed) >= 1);
    assert_eq!(fe.backend_state(), BackendState::Running);
    fe.kill();
}
