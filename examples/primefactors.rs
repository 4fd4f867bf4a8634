//! The paper's prime-factors frontend application, end to end with a
//! real child process (Figure 5's three phases).
//!
//! The backend is `wafe-backend-prime`, a line-for-line port of the
//! paper's Perl program; this example plays the frontend and the user.
//!
//! Run with `cargo run --example primefactors` (builds the backend first:
//! `cargo build --bin wafe-backend-prime`).

use std::time::{Duration, Instant};

use wafe::core::Flavor;
use wafe::serve::{Frontend, FrontendConfig};

fn backend_path() -> std::path::PathBuf {
    // examples live in target/<profile>/examples/, binaries one level up.
    let exe = std::env::current_exe().expect("current_exe");
    exe.parent()
        .and_then(|p| p.parent())
        .map(|p| p.join("wafe-backend-prime"))
        .expect("target layout")
}

fn main() {
    let backend = backend_path();
    if !backend.exists() {
        eprintln!(
            "backend binary not found at {}; run `cargo build --bin wafe-backend-prime` first",
            backend.display()
        );
        std::process::exit(2);
    }

    // Phase 1: Wafe starts the application program as a subprocess.
    let mut config = FrontendConfig::new(backend.to_str().unwrap());
    config.flavor = Flavor::Athena;
    config.mass_channel = false;
    let mut fe = Frontend::spawn(config).expect("spawn backend");

    // Phase 2: the application creates and realizes the widget tree.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(10)).unwrap();
        let ready = {
            let app = fe.engine().session.app.borrow();
            app.lookup("input")
                .map(|w| app.is_realized(w))
                .unwrap_or(false)
        };
        if ready {
            break;
        }
    }
    println!("--- widget tree built by the backend: ---");
    println!(
        "{}",
        fe.engine_mut()
            .session
            .eval("snapshot 0 0 280 100")
            .unwrap()
    );

    // Phase 3: the user types 360 and presses Return; the exec action
    // sends the string to the backend, which factorises and answers.
    {
        let mut app = fe.engine().session.app.borrow_mut();
        let input = app.lookup("input").unwrap();
        let win = app.widget(input).window.unwrap();
        app.displays[0].set_input_focus(Some(win));
        app.displays[0].inject_key_text("360\n");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut result = String::new();
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(10)).unwrap();
        result = fe
            .engine_mut()
            .session
            .eval("gV result label")
            .unwrap_or_default()
            .to_string();
        if !result.is_empty() {
            break;
        }
    }
    println!("360 = {result}");
    // The Perl original `unshift`s each factor, so they come out largest
    // first: 5*3*3*2*2*2.
    assert_eq!(result, "5*3*3*2*2*2");
    println!(
        "info: {}",
        fe.engine_mut().session.eval("gV info label").unwrap()
    );

    // Invalid input path.
    {
        let mut app = fe.engine().session.app.borrow_mut();
        let input = app.lookup("input").unwrap();
        app.set_resource(input, "string", "not-a-number").unwrap();
        let win = app.widget(input).window.unwrap();
        app.displays[0].set_input_focus(Some(win));
        app.displays[0].inject_key_named("Return", wafe::xproto::Modifiers::NONE);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(10)).unwrap();
        if fe
            .engine_mut()
            .session
            .eval("gV info label")
            .unwrap_or_default()
            == "(invalid input)"
        {
            break;
        }
    }
    println!(
        "info after bad input: {}",
        fe.engine_mut().session.eval("gV info label").unwrap()
    );

    // Quit via the button.
    {
        let mut app = fe.engine().session.app.borrow_mut();
        let quit = app.lookup("quit").unwrap();
        let win = app.widget(quit).window.unwrap();
        let abs = app.displays[0].abs_rect(win);
        app.displays[0].inject_click(abs.x + 3, abs.y + 3, 1);
    }
    fe.run_until_exit(Duration::from_secs(5)).unwrap();
    fe.kill();
    println!("frontend and backend terminated cleanly");
}
