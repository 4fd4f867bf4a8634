//! The one session of frontend mode at its edges: the turn that ends
//! it still writes to the backend, and the server's session-level
//! commands are withdrawn from it.

use std::time::{Duration, Instant};

use wafe_serve::{Frontend, FrontendConfig};

#[test]
fn lines_of_the_quitting_turn_reach_the_backend() {
    // `echo` and `quit` arrive in one burst, so they run in the turn
    // that ends the session; the echoed line must still be written.
    let heard = std::env::temp_dir().join(format!("wafe-heard-{}", std::process::id()));
    let _ = std::fs::remove_file(&heard);
    let script = r#"printf '%%echo bye\n%%quit\n'; read line; echo "$line" > "$1""#;
    let mut fe = Frontend::spawn(FrontendConfig {
        args: vec![
            "-c".into(),
            script.into(),
            "sh".into(),
            heard.display().to_string(),
        ],
        mass_channel: false,
        ..FrontendConfig::new("sh")
    })
    .expect("spawn sh");
    assert!(fe.run_until_exit(Duration::from_secs(5)).unwrap());
    assert!(fe.engine().session.quit_requested());
    let deadline = Instant::now() + Duration::from_secs(5);
    while !fe.backend_exited() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let got = std::fs::read_to_string(&heard).unwrap_or_default();
    let _ = std::fs::remove_file(&heard);
    fe.kill();
    assert_eq!(got, "bye\n");
}

#[test]
fn the_servers_session_commands_are_withdrawn() {
    let mut fe = Frontend::spawn(FrontendConfig {
        args: vec!["-c".into(), "sleep 5".into()],
        mass_channel: false,
        ..FrontendConfig::new("sh")
    })
    .expect("spawn sh");
    let session = &mut fe.engine_mut().session;
    for cmd in ["serve drain", "serve limits quantum", "session park"] {
        let err = session.eval(cmd).expect_err(cmd).to_string();
        assert!(err.contains("requires server mode"), "{cmd}: {err}");
    }
    assert!(session.eval("backend status").is_ok());
    assert!(session.eval("display status").is_ok());
    fe.kill();
}
