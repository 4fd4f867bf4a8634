//! E7 — Figure 5's three phases with the real prime-factors backend
//! process, plus E11 (click-ahead) and E10 (refresh while busy) in their
//! real-process form.

use std::time::{Duration, Instant};

use wafe::core::Flavor;
use wafe::ipc::{Frontend, FrontendConfig};

fn spawn_prime() -> Frontend {
    let mut config = FrontendConfig::new(env!("CARGO_BIN_EXE_wafe-backend-prime"));
    config.flavor = Flavor::Athena;
    config.mass_channel = false;
    Frontend::spawn(config).expect("spawn prime backend")
}

fn wait_for<F: Fn(&Frontend) -> bool>(fe: &mut Frontend, pred: F, secs: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(10)).expect("step");
        if pred(fe) {
            return true;
        }
    }
    false
}

#[test]
fn three_phases_end_to_end() {
    // Phase 1: spawn. Phase 2: the backend builds the widget tree.
    let mut fe = spawn_prime();
    assert!(
        wait_for(
            &mut fe,
            |fe| {
                let app = fe.engine.session.app.borrow();
                ["top", "input", "result", "quit", "info"]
                    .iter()
                    .all(|w| app.lookup(w).map(|id| app.is_realized(id)).unwrap_or(false))
            },
            10
        ),
        "backend must build and realize the widget tree"
    );

    // Phase 3: the read loop — type a number, press Return.
    {
        let mut app = fe.engine.session.app.borrow_mut();
        let input = app.lookup("input").unwrap();
        let win = app.widget(input).window.unwrap();
        app.displays[0].set_input_focus(Some(win));
        app.displays[0].inject_key_text("360\n");
    }
    // The backend writes the `result` and `info` updates as two
    // separate lines, so wait until both have arrived.
    assert!(
        wait_for(
            &mut fe,
            |fe| {
                let app = fe.engine.session.app.borrow();
                let label = |w: &str| {
                    app.lookup(w)
                        .map(|id| app.str_resource(id, "label"))
                        .unwrap_or_default()
                };
                label("result") == "5*3*3*2*2*2" && label("info").ends_with("seconds")
            },
            10
        ),
        "backend must answer with the factorisation and its timing"
    );
    // The info label went through "thinking..." to "N seconds".
    let info = {
        let app = fe.engine.session.app.borrow();
        let i = app.lookup("info").unwrap();
        app.str_resource(i, "label")
    };
    assert!(info.ends_with("seconds"), "info label was {info:?}");

    // Invalid input handled.
    {
        let mut app = fe.engine.session.app.borrow_mut();
        let input = app.lookup("input").unwrap();
        app.set_resource(input, "string", "xyz").unwrap();
        let win = app.widget(input).window.unwrap();
        app.displays[0].set_input_focus(Some(win));
        app.displays[0].inject_key_named("Return", wafe::xproto::Modifiers::NONE);
    }
    assert!(
        wait_for(
            &mut fe,
            |fe| {
                let app = fe.engine.session.app.borrow();
                let i = app.lookup("info").unwrap();
                app.str_resource(i, "label") == "(invalid input)"
            },
            10
        ),
        "invalid input must be reported"
    );

    // The quit button ends the session ("callback quit").
    {
        let mut app = fe.engine.session.app.borrow_mut();
        let q = app.lookup("quit").unwrap();
        let abs = app.displays[0].abs_rect(app.widget(q).window.unwrap());
        app.displays[0].inject_click(abs.x + 2, abs.y + 2, 1);
    }
    let clean = fe.run_until_exit(Duration::from_secs(5)).unwrap();
    assert!(clean);
    assert!(fe.engine.session.quit_requested());
    fe.kill();
}

#[test]
fn click_ahead_with_real_backend() {
    // E11: submit several numbers while the backend is still chewing on
    // the previous ones; pipe buffering preserves all of them in order.
    let mut fe = spawn_prime();
    assert!(wait_for(
        &mut fe,
        |fe| {
            let app = fe.engine.session.app.borrow();
            app.lookup("input")
                .map(|w| app.is_realized(w))
                .unwrap_or(false)
        },
        10
    ));
    let inputs = ["12", "35", "1001"];
    for n in inputs {
        let mut app = fe.engine.session.app.borrow_mut();
        let input = app.lookup("input").unwrap();
        app.set_resource(input, "string", n).unwrap();
        let win = app.widget(input).window.unwrap();
        app.displays[0].set_input_focus(Some(win));
        app.displays[0].inject_key_named("Return", wafe::xproto::Modifiers::NONE);
    }
    // All three answers arrive; the last one sticks.
    assert!(
        wait_for(
            &mut fe,
            |fe| {
                let app = fe.engine.session.app.borrow();
                let r = app.lookup("result").unwrap();
                app.str_resource(r, "label") == "13*11*7"
            },
            10
        ),
        "queued inputs must all be processed, ending with 1001 = 13*11*7"
    );
    fe.kill();
}

#[test]
fn gui_stays_live_while_backend_busy() {
    // E10: while the backend is busy (we simply do not let it answer by
    // never sending input), the frontend keeps servicing expose events.
    let mut fe = spawn_prime();
    assert!(wait_for(
        &mut fe,
        |fe| {
            let app = fe.engine.session.app.borrow();
            app.lookup("input")
                .map(|w| app.is_realized(w))
                .unwrap_or(false)
        },
        10
    ));
    // Inject a burst of exposes and confirm each is serviced promptly.
    for _ in 0..5 {
        {
            let mut app = fe.engine.session.app.borrow_mut();
            let input = app.lookup("input").unwrap();
            let win = app.widget(input).window.unwrap();
            app.displays[0].expose(win);
            assert!(app.displays[0].pending() > 0);
        }
        fe.step(Duration::from_millis(5)).unwrap();
        assert_eq!(
            fe.engine.session.app.borrow().displays[0].pending(),
            0,
            "expose must be serviced even though the backend never spoke"
        );
    }
    fe.kill();
}
