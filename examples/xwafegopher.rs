//! `xwafegopher` — the distribution's gopher frontend, end to end over
//! real pipes: the backend (`wafe-backend-gopher`) serves a canned menu
//! hierarchy, this example plays the frontend and a user browsing it.
//!
//! Run with `cargo run --example xwafegopher` (builds the backend first:
//! `cargo build --bin wafe-backend-gopher`).

use std::time::{Duration, Instant};

use wafe::core::Flavor;
use wafe::serve::{Frontend, FrontendConfig};

fn backend_path() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    exe.parent()
        .and_then(|p| p.parent())
        .map(|p| p.join("wafe-backend-gopher"))
        .expect("target layout")
}

fn wait_until<F: Fn(&Frontend) -> bool>(fe: &mut Frontend, pred: F) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(10)).unwrap();
        if pred(fe) {
            return true;
        }
    }
    false
}

fn title(fe: &Frontend) -> String {
    let app = fe.engine().session.app.borrow();
    match app.lookup("title") {
        Some(t) => app.str_resource(t, "label"),
        None => String::new(),
    }
}

fn select(fe: &mut Frontend, index: usize) {
    fe.engine_mut()
        .session
        .eval(&format!("listHighlight items {index}"))
        .unwrap();
    let mut app = fe.engine().session.app.borrow_mut();
    let l = app.lookup("items").unwrap();
    let ev = wafe::xproto::Event::new(
        wafe::xproto::EventKind::ButtonRelease,
        wafe::xproto::WindowId(0),
    );
    app.run_action(l, "Notify", &[], &ev);
}

fn main() {
    let backend = backend_path();
    if !backend.exists() {
        eprintln!(
            "backend not found at {}; run `cargo build --bin wafe-backend-gopher` first",
            backend.display()
        );
        std::process::exit(2);
    }
    let mut config = FrontendConfig::new(backend.to_str().unwrap());
    config.flavor = Flavor::Athena;
    config.mass_channel = false;
    let mut fe = Frontend::spawn(config).expect("spawn gopher backend");

    assert!(
        wait_until(&mut fe, |fe| title(fe) == "gopher.wu-wien.ac.at"),
        "root menu must arrive"
    );
    println!("root menu: {}", title(&fe));

    // Descend into "Software archive" (item 1).
    select(&mut fe, 1);
    assert!(wait_until(&mut fe, |fe| title(fe) == "Software archive"));
    println!("entered:   {}", title(&fe));

    // Open the wafe-0.93 document (item 0).
    select(&mut fe, 0);
    assert!(wait_until(&mut fe, |fe| {
        let app = fe.engine().session.app.borrow();
        app.lookup("doc")
            .map(|d| app.str_resource(d, "string").contains("Wafe 0.93"))
            .unwrap_or(false)
    }));
    println!("document:  {}", title(&fe));

    // Back to the root.
    {
        let mut app = fe.engine().session.app.borrow_mut();
        let b = app.lookup("back").unwrap();
        let abs = app.displays[0].abs_rect(app.widget(b).window.unwrap());
        app.displays[0].inject_click(abs.x + 3, abs.y + 3, 1);
    }
    assert!(wait_until(&mut fe, |fe| title(fe) == "gopher.wu-wien.ac.at"));
    println!("back at:   {}", title(&fe));

    println!("\n--- browser window ---");
    println!(
        "{}",
        fe.engine_mut()
            .session
            .eval("snapshot 0 0 300 260")
            .unwrap()
    );
    fe.kill();
}
