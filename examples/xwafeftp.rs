//! `xwafeftp` — the distribution's FTP frontend, end to end: directory
//! listing over the command channel, file retrieval over the
//! mass-transfer data channel (a real pipe at the child's fd 5).
//!
//! Run with `cargo run --example xwafeftp` (builds the backend first:
//! `cargo build --bin wafe-backend-ftp`).

use std::time::{Duration, Instant};

use wafe::core::Flavor;
use wafe::serve::{Frontend, FrontendConfig};

fn backend_path() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    exe.parent()
        .and_then(|p| p.parent())
        .map(|p| p.join("wafe-backend-ftp"))
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

fn status(fe: &Frontend) -> String {
    let app = fe.engine().session.app.borrow();
    match app.lookup("status") {
        Some(s) => app.str_resource(s, "label"),
        None => String::new(),
    }
}

fn main() {
    let backend = backend_path();
    if !backend.exists() {
        eprintln!(
            "backend not found at {}; run `cargo build --bin wafe-backend-ftp` first",
            backend.display()
        );
        std::process::exit(2);
    }
    // The mass channel is on: retrievals stream over fd 5.
    let mut config = FrontendConfig::new(backend.to_str().unwrap());
    config.flavor = Flavor::Athena;
    config.mass_channel = true;
    let mut fe = Frontend::spawn(config).expect("spawn ftp backend");

    assert!(wait_until(&mut fe, |fe| status(fe) == "connected"));
    println!("status: {}", status(&fe));

    // Retrieve the big tarball (item 1, 8500 bytes) over the data channel.
    fe.engine_mut()
        .session
        .eval("listHighlight remote 1")
        .unwrap();
    {
        let mut app = fe.engine().session.app.borrow_mut();
        let l = app.lookup("remote").unwrap();
        let ev = wafe::xproto::Event::new(
            wafe::xproto::EventKind::ButtonRelease,
            wafe::xproto::WindowId(0),
        );
        app.run_action(l, "Notify", &[], &ev);
    }
    assert!(
        wait_until(&mut fe, |fe| status(fe).ends_with("transfer complete")),
        "mass transfer must complete; status was {:?}",
        status(&fe)
    );
    let content = fe.engine_mut().session.eval("gV content string").unwrap();
    println!("status: {}", status(&fe));
    println!("retrieved {} bytes over the data channel", content.len());
    assert_eq!(content.len(), "tar-archive-bytes ".len() * 500);

    // A small file next, same path.
    fe.engine_mut()
        .session
        .eval("listHighlight remote 0")
        .unwrap();
    {
        let mut app = fe.engine().session.app.borrow_mut();
        let l = app.lookup("remote").unwrap();
        let ev = wafe::xproto::Event::new(
            wafe::xproto::EventKind::ButtonRelease,
            wafe::xproto::WindowId(0),
        );
        app.run_action(l, "Notify", &[], &ev);
    }
    assert!(wait_until(&mut fe, |fe| {
        let app = fe.engine().session.app.borrow();
        app.lookup("content")
            .map(|c| app.str_resource(c, "string").contains("USENIX 1993"))
            .unwrap_or(false)
    }));
    println!("README retrieved:\n---");
    println!(
        "{}",
        fe.engine_mut().session.eval("gV content string").unwrap()
    );
    println!("---");
    println!(
        "\n{}",
        fe.engine_mut()
            .session
            .eval("snapshot 0 0 320 240")
            .unwrap()
    );
    fe.kill();
}
