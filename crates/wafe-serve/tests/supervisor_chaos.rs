//! The deterministic chaos suite: every fault kind the `FaultPlan`
//! substrate can inject — kill mid-line, wedge, flood, garble,
//! slow-drip — plus the restart/queue/breaker behaviour around them.
//!
//! Determinism rules: faults trigger on *line/chunk ordinals* (stable
//! whatever the pipe chunking), garbling is seeded, and every timeout
//! decision runs on the supervisor's virtual tick clock — the test
//! loops below are bounded step counts, never wall-clock sleeps in the
//! assertions.

use std::time::Duration;

use wafe_ipc::FaultPlan;
use wafe_serve::{BackendState, Frontend, FrontendConfig, SupervisorConfig};
use wafe_trace::Metric;

/// One `ipc.supervisor.*` event total from the session's store.
fn stat(fe: &Frontend, m: Metric) -> u64 {
    fe.engine().session.telemetry.value(m)
}

/// `backend status`, for assertion messages.
fn status(fe: &Frontend) -> Vec<String> {
    fe.supervisor_core().borrow().status_words()
}

/// Steps at most `max_ticks`; returns as soon as `done` holds. Panics
/// if the loop ends (step -> false) before the predicate is satisfied.
fn run_until(fe: &mut Frontend, max_ticks: usize, mut done: impl FnMut(&mut Frontend) -> bool) {
    for _ in 0..max_ticks {
        if done(fe) {
            return;
        }
        if !fe.step(Duration::from_millis(10)).expect("step") {
            assert!(done(fe), "loop ended before the condition held");
            return;
        }
    }
    panic!("condition not reached within {max_ticks} ticks");
}

/// Steps until the loop reports it ended; panics after `max_ticks`.
fn run_to_end(fe: &mut Frontend, max_ticks: usize) {
    for _ in 0..max_ticks {
        if !fe.step(Duration::from_millis(10)).expect("step") {
            return;
        }
    }
    panic!("loop did not end within {max_ticks} ticks");
}

fn spawn_sh(script: &str, supervisor: SupervisorConfig, faults: &str) -> Frontend {
    let mut config = FrontendConfig {
        args: vec!["-c".into(), script.into()],
        mass_channel: false,
        ..FrontendConfig::new("sh")
    };
    config.supervisor = supervisor;
    if !faults.is_empty() {
        config.faults = Some(FaultPlan::parse(faults).expect("fault spec"));
    }
    Frontend::spawn(config).expect("spawn sh")
}

/// Small backoffs so the whole suite stays fast under the ci.sh
/// 50-iteration loop guard.
fn fast_restarts(max: u32) -> SupervisorConfig {
    SupervisorConfig {
        max_restarts: max,
        backoff_base_ms: 10,
        backoff_max_ms: 20,
        ..SupervisorConfig::default()
    }
}

#[test]
fn kill_mid_line_restarts_and_replays() {
    // The fault plan kills the backend exactly when its 2nd protocol
    // line is assembled — mid-conversation. The restarted incarnation
    // replays the script from the top; line hits 3..5 match no trigger.
    let script = "echo '%set a 1'; echo '%set b 2'; echo '%set c 3'; sleep 5";
    let mut fe = spawn_sh(script, fast_restarts(3), "line:kill@2");
    run_until(&mut fe, 500, |fe| {
        stat(fe, Metric::IpcSupervisorRestarts) >= 1 && fe.engine().session.interp.var_exists("c")
    });
    assert_eq!(
        stat(&fe, Metric::IpcSupervisorRestarts),
        1,
        "exactly one restart"
    );
    assert_eq!(
        stat(&fe, Metric::IpcSupervisorFaultsInjected),
        1,
        "the kill fired once"
    );
    assert_eq!(stat(&fe, Metric::IpcSupervisorBreakerTrips), 0);
    assert_eq!(fe.backend_state(), BackendState::Running);
    for (var, val) in [("a", "1"), ("b", "2"), ("c", "3")] {
        assert_eq!(
            fe.engine().session.interp.get_var(var).unwrap(),
            val,
            "replayed incarnation must set {var}"
        );
    }
    fe.kill();
}

#[test]
fn exit_with_output_still_in_the_pipe_loses_no_line() {
    // 640 lines of 64 bytes: 40 KiB, which fits the pipe buffer (the
    // child never blocks) but needs several reads.
    let script = r#"awk 'BEGIN { for (i = 0; i < 640; i++) printf "%-63s\n", (i ? "%incr n" : "%set n 1") }'"#;
    let config = SupervisorConfig::default();
    let mut fe = spawn_sh(script, config, "");
    // The child writes everything, then exits; nothing is read yet. The
    // first tick therefore already sees the exit with 40 KiB unread.
    while !fe.backend_exited() {
        std::thread::yield_now();
    }
    run_to_end(&mut fe, 100);
    assert_eq!(fe.backend_state(), BackendState::Exited);
    assert_eq!(
        fe.engine_mut().session.eval("set n").unwrap(),
        "640",
        "every line written before the exit must be handled"
    );
    assert_eq!(stat(&fe, Metric::IpcSupervisorExits), 1);
}

#[test]
fn wedged_backend_trips_read_timeout_then_breaker() {
    // The backend *is* writing, but the wedge fault swallows every
    // chunk — from the supervisor's viewpoint the pipe went silent.
    // Each incarnation trips the read timeout; after the restart budget
    // the breaker opens and the loop ends instead of hanging forever.
    let script = "for i in 1 2 3 4 5; do echo '%set alive 1'; done; sleep 5";
    let mut supervisor = fast_restarts(2);
    supervisor.read_timeout_ms = Some(50);
    let mut fe = spawn_sh(script, supervisor, "read:wedge");
    run_to_end(&mut fe, 500);
    assert_eq!(fe.backend_state(), BackendState::Broken);
    assert_eq!(
        stat(&fe, Metric::IpcSupervisorTimeoutsRead),
        3,
        "initial try + 2 restarts"
    );
    assert_eq!(stat(&fe, Metric::IpcSupervisorRestarts), 2);
    assert_eq!(stat(&fe, Metric::IpcSupervisorBreakerTrips), 1);
    assert!(
        !fe.engine().session.interp.var_exists("alive"),
        "wedged chunks must never reach the interpreter"
    );
    fe.kill();
}

#[test]
fn flood_is_throttled_not_fatal() {
    // One line is replicated into 300 copies by the fault plan; the
    // per-tick cap spreads them over many ticks instead of starving the
    // GUI, and every copy is still delivered.
    let script = "echo '%set n 0'; echo '%incr n'; sleep 5";
    let mut supervisor = fast_restarts(0);
    supervisor.max_lines_per_tick = 50;
    let mut fe = spawn_sh(script, supervisor, "line:flood=300@2");
    run_until(&mut fe, 500, |fe| {
        fe.engine()
            .session
            .interp
            .get_var("n")
            .map(|v| v == "300")
            .unwrap_or(false)
    });
    assert!(
        stat(&fe, Metric::IpcSupervisorFloodTrips) >= 1,
        "the throttle engaged: {:?}",
        status(&fe)
    );
    assert_eq!(
        stat(&fe, Metric::IpcSupervisorRestarts),
        0,
        "flooding is not a restart-worthy fault"
    );
    assert_eq!(stat(&fe, Metric::IpcSupervisorFaultsInjected), 1);
    assert_eq!(fe.backend_state(), BackendState::Running);
    fe.kill();
}

#[test]
fn garbled_line_is_contained() {
    // Seeded garbling corrupts exactly the 2nd line; the lines around
    // it are untouched and the damage is one recorded protocol error.
    let script = "echo '%set before ok'; echo '%set target val'; echo '%set after ok'; sleep 5";
    let mut fe = spawn_sh(script, fast_restarts(0), "line:garble@2;seed=42");
    run_until(&mut fe, 500, |fe| {
        fe.engine().session.interp.var_exists("after")
    });
    assert_eq!(fe.engine().session.interp.get_var("before").unwrap(), "ok");
    assert_eq!(fe.engine().session.interp.get_var("after").unwrap(), "ok");
    assert!(
        !fe.engine().session.interp.var_exists("target"),
        "the garbled line must not have executed as written"
    );
    let errors = fe.engine_mut().take_errors();
    assert!(
        !errors.is_empty(),
        "garbled command line must surface as a protocol error"
    );
    assert_eq!(stat(&fe, Metric::IpcSupervisorFaultsInjected), 1);
    assert_eq!(stat(&fe, Metric::IpcSupervisorRestarts), 0);
    assert_eq!(fe.backend_state(), BackendState::Running);
    fe.kill();
}

#[test]
fn slow_drip_delays_but_loses_nothing() {
    // Every chunk is held back 30 virtual ms. The child exits long
    // before its bytes are released — the exited-and-drained check must
    // wait for the delayed queue, not end the loop early.
    let script = "echo '%set d1 1'; echo '%set d2 2'";
    let mut fe = spawn_sh(script, fast_restarts(0), "read:delay=30");
    run_to_end(&mut fe, 500);
    assert_eq!(fe.backend_state(), BackendState::Exited);
    assert_eq!(fe.engine().session.interp.get_var("d1").unwrap(), "1");
    assert_eq!(fe.engine().session.interp.get_var("d2").unwrap(), "2");
    assert!(
        stat(&fe, Metric::IpcSupervisorFaultsInjected) >= 1,
        "{:?}",
        status(&fe)
    );
    assert_eq!(stat(&fe, Metric::IpcSupervisorRestarts), 0);
}

#[test]
fn killed_backend_restarts_and_flushes_queue_in_order() {
    // The acceptance scenario: the backend is killed externally, three
    // callback strings are sent while it is down, and after the restart
    // the fresh incarnation receives them in order (its own line
    // counter proves the order).
    let script = r#"i=0; while read l; do i=$((i+1)); echo "%set order_${l} $i"; done"#;
    let mut fe = spawn_sh(script, fast_restarts(3), "");
    fe.send_to_app("one").unwrap();
    run_until(&mut fe, 500, |fe| {
        fe.engine().session.interp.var_exists("order_one")
    });
    assert_eq!(
        fe.engine().session.interp.get_var("order_one").unwrap(),
        "1"
    );

    fe.kill_backend();
    // The first send hits the dead pipe -> fault -> queued; the rest
    // queue directly while the supervisor is restarting.
    fe.send_to_app("two").unwrap();
    fe.send_to_app("three").unwrap();
    fe.send_to_app("four").unwrap();
    run_until(&mut fe, 500, |fe| {
        fe.engine().session.interp.var_exists("order_four")
    });
    assert_eq!(
        stat(&fe, Metric::IpcSupervisorRestarts),
        1,
        "{:?}",
        status(&fe)
    );
    assert_eq!(stat(&fe, Metric::IpcSupervisorQueueFlushed), 3);
    assert_eq!(stat(&fe, Metric::IpcSupervisorQueueDropped), 0);
    // The new incarnation counts from 1: order proves in-order flush.
    assert_eq!(
        fe.engine().session.interp.get_var("order_two").unwrap(),
        "1"
    );
    assert_eq!(
        fe.engine().session.interp.get_var("order_three").unwrap(),
        "2"
    );
    assert_eq!(
        fe.engine().session.interp.get_var("order_four").unwrap(),
        "3"
    );
    assert_eq!(fe.backend_state(), BackendState::Running);
    fe.kill();
}

#[test]
fn queue_overflow_drops_newest_with_accounting() {
    let script = r#"while read l; do echo "%set got_$l 1"; done"#;
    let mut supervisor = fast_restarts(0); // breaker opens on first fault
    supervisor.queue_cap = 2;
    supervisor.stay_alive_when_broken = true;
    let mut fe = spawn_sh(script, supervisor, "");
    fe.send_to_app("ready").unwrap();
    run_until(&mut fe, 500, |fe| {
        fe.engine().session.interp.var_exists("got_ready")
    });

    fe.kill_backend();
    for msg in ["a", "b", "c", "d", "e"] {
        fe.send_to_app(msg).unwrap();
    }
    // One bounded tick to let the breaker state settle; the GUI session
    // stays alive because stayAliveWhenBroken is set.
    assert!(fe.step(Duration::from_millis(10)).unwrap());
    assert_eq!(fe.backend_state(), BackendState::Broken);
    assert_eq!(stat(&fe, Metric::IpcSupervisorBreakerTrips), 1);
    assert_eq!(
        stat(&fe, Metric::IpcSupervisorQueueDropped),
        3,
        "cap 2: a+b kept, c/d/e dropped"
    );
    let status = fe.engine_mut().session.eval("backend status").unwrap();
    assert!(status.contains("broken"), "{status}");
    assert!(status.contains("dropped 3"), "{status}");
    assert_eq!(
        fe.engine_mut().session.eval("backend queue").unwrap(),
        "a b"
    );

    // `backend restart` resets the breaker and flushes what was kept.
    fe.engine_mut().session.eval("backend restart").unwrap();
    run_until(&mut fe, 500, |fe| {
        fe.engine().session.interp.var_exists("got_b")
    });
    assert_eq!(stat(&fe, Metric::IpcSupervisorRestarts), 1);
    assert_eq!(stat(&fe, Metric::IpcSupervisorQueueFlushed), 2);
    assert_eq!(fe.backend_state(), BackendState::Running);
    assert!(fe.engine().session.interp.var_exists("got_a"));
    assert!(
        !fe.engine().session.interp.var_exists("got_c"),
        "c was dropped"
    );

    // `backend kill` ends the backend for good; the loop reports done.
    fe.engine_mut().session.eval("backend kill").unwrap();
    run_to_end(&mut fe, 500);
    assert_eq!(fe.backend_state(), BackendState::Exited);
}

#[test]
fn park_and_restore_into_a_fresh_process_replays_the_queue_byte_identically() {
    // The checkpoint/restore acceptance scenario: the backend is killed
    // mid-conversation, further sends pile into the supervisor's
    // bounded queue, the whole session is parked — queue included —
    // and restored into a brand-new process. The replayed queue must
    // make the new backend produce byte-identical results to a control
    // run that never saw a kill or a park.
    let script = r#"while read l; do echo "%lappend log $l"; done"#;

    // Control: the same three sends, uninterrupted.
    let mut control = spawn_sh(script, fast_restarts(0), "");
    for msg in ["one", "two", "three"] {
        control.send_to_app(msg).unwrap();
    }
    run_until(&mut control, 500, |fe| {
        fe.engine()
            .session
            .interp
            .get_var("log")
            .map(|v| v == "one two three")
            .unwrap_or(false)
    });
    let want: String = control
        .engine()
        .session
        .interp
        .get_var("log")
        .unwrap()
        .into();
    control.kill();

    // Experiment: "one" is delivered, then the backend dies
    // mid-conversation. The remaining sends queue against the dead
    // pipe (breaker open, no restart budget), and the session is
    // parked with the queue still pending.
    let mut supervisor = fast_restarts(0);
    supervisor.stay_alive_when_broken = true;
    let mut fe = spawn_sh(script, supervisor, "");
    fe.engine_mut()
        .session
        .eval("proc stamp {x} {return \"tagged $x\"}")
        .unwrap();
    fe.send_to_app("one").unwrap();
    run_until(&mut fe, 500, |fe| {
        fe.engine().session.interp.var_exists("log")
    });
    fe.kill_backend();
    fe.send_to_app("two").unwrap();
    fe.send_to_app("three").unwrap();
    assert!(fe.step(Duration::from_millis(10)).unwrap());
    assert_eq!(fe.backend_state(), BackendState::Broken);
    let bytes = fe.park_snapshot();
    fe.kill();

    // A brand-new process: restore the snapshot; the supervisor's
    // replay machinery delivers the parked queue in order.
    let mut supervisor = fast_restarts(0);
    supervisor.stay_alive_when_broken = true;
    let mut fe2 = spawn_sh(script, supervisor, "");
    let report = fe2.restore_snapshot(&bytes).unwrap();
    assert!(report.globals >= 1, "{report:?}");
    assert!(report.procs >= 1, "{report:?}");
    run_until(&mut fe2, 500, |fe| {
        fe.engine()
            .session
            .interp
            .get_var("log")
            .map(|v| v == want.as_str())
            .unwrap_or(false)
    });
    assert_eq!(
        String::from(fe2.engine().session.interp.get_var("log").unwrap()),
        want,
        "park + restore + replay must be byte-identical to the control run"
    );
    // Interp state (the proc) came through the snapshot too.
    assert_eq!(
        fe2.engine_mut().session.eval("stamp done").unwrap(),
        "tagged done"
    );
    assert_eq!(stat(&fe2, Metric::IpcSupervisorQueueDropped), 0);
    fe2.kill();
}

#[test]
fn roundtrip_timeout_restarts_a_mute_backend() {
    // The backend reads the request but never answers; the round-trip
    // timeout (virtual time) declares the fault.
    let script = "read x; sleep 5";
    let mut supervisor = fast_restarts(1);
    supervisor.roundtrip_timeout_ms = Some(50);
    let mut fe = spawn_sh(script, supervisor, "");
    fe.send_to_app("are you there").unwrap();
    run_until(&mut fe, 500, |fe| {
        stat(fe, Metric::IpcSupervisorRestarts) >= 1
    });
    assert_eq!(
        stat(&fe, Metric::IpcSupervisorTimeoutsRoundtrip),
        1,
        "{:?}",
        status(&fe)
    );
    assert_eq!(stat(&fe, Metric::IpcSupervisorRestarts), 1);
    // The fresh incarnation has no unanswered write: no further faults.
    for _ in 0..10 {
        fe.step(Duration::from_millis(10)).unwrap();
    }
    assert_eq!(stat(&fe, Metric::IpcSupervisorTimeoutsRoundtrip), 1);
    assert_eq!(fe.backend_state(), BackendState::Running);
    fe.kill();
}

#[test]
fn faultpoint_command_scripts_the_plan_at_runtime() {
    let script = r#"while read l; do echo "%set got_$l 1"; done"#;
    let mut fe = spawn_sh(script, fast_restarts(3), "");
    fe.send_to_app("before").unwrap();
    run_until(&mut fe, 500, |fe| {
        fe.engine().session.interp.var_exists("got_before")
    });
    // Install a plan from Tcl: drop every line from now on.
    assert_eq!(
        fe.engine_mut()
            .session
            .eval("faultpoint set line:drop")
            .unwrap(),
        "1"
    );
    let listing = fe.engine_mut().session.eval("faultpoint list").unwrap();
    assert!(listing.contains("line:drop"), "{listing}");
    fe.send_to_app("during").unwrap();
    for _ in 0..20 {
        fe.step(Duration::from_millis(10)).unwrap();
    }
    assert!(
        !fe.engine().session.interp.var_exists("got_during"),
        "lines are dropped while the plan is active"
    );
    assert!(stat(&fe, Metric::IpcSupervisorFaultsInjected) >= 1);
    // Clear it: traffic flows again.
    fe.engine_mut().session.eval("faultpoint clear").unwrap();
    assert_eq!(fe.engine_mut().session.eval("faultpoint list").unwrap(), "");
    fe.send_to_app("after").unwrap();
    run_until(&mut fe, 500, |fe| {
        fe.engine().session.interp.var_exists("got_after")
    });
    fe.kill();
}

#[test]
fn backend_config_reads_and_writes_knobs() {
    let script = "sleep 5";
    let mut fe = spawn_sh(script, fast_restarts(0), "");
    // Full listing is a flat key/value list containing every knob.
    let listing = fe.engine_mut().session.eval("backend config").unwrap();
    for key in ["readTimeout", "retries", "queueCap", "floodLines"] {
        assert!(listing.contains(key), "{listing}");
    }
    assert_eq!(
        fe.engine_mut()
            .session
            .eval("backend config readTimeout")
            .unwrap(),
        "0"
    );
    fe.engine_mut()
        .session
        .eval("backend config readTimeout 250")
        .unwrap();
    assert_eq!(
        fe.engine_mut()
            .session
            .eval("backend config readTimeout")
            .unwrap(),
        "250"
    );
    assert!(fe
        .engine_mut()
        .session
        .eval("backend config bogusKnob")
        .is_err());
    assert!(fe
        .engine_mut()
        .session
        .eval("backend bogus-subcommand")
        .is_err());
    fe.kill();
}

#[test]
fn a_backend_that_never_reads_stdin_never_stalls_the_loop() {
    // 200 KB outgrow the pipe buffer of a child that never reads its
    // stdin. The write takes what fits and waits for writability
    // instead of blocking the loop until the child exits.
    let mut fe = spawn_sh("sleep 30", fast_restarts(0), "");
    fe.send_to_app(&"x".repeat(200_000)).unwrap();
    assert!(fe.step(Duration::from_millis(10)).unwrap());
    assert!(!fe.backend_exited(), "the child is still sleeping");
    assert_eq!(fe.backend_state(), BackendState::Running);
    fe.kill();
}
