//! The paper's `InitCom` resource through the real `wafe` binary: "the
//! resource InitCom is provided, which can be specified in a resource
//! file or by using the -xrm command line option". It is the first line
//! the application reads — in every incarnation the supervisor starts.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `wafe` with `args` and `env`; returns its stdout lines once it
/// exits. Panics if it has not exited within 10 s.
fn run_wafe(args: &[&str], env: &[(&str, &str)]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_wafe"))
        .args(args)
        .envs(env.iter().copied())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn wafe");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("wait on wafe").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("wafe did not exit within 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut out)
        .expect("read stdout");
    out.lines().map(str::to_string).collect()
}

#[test]
fn xrm_init_com_reaches_top_level_and_is_the_first_stdin_line() {
    // The application prints its first stdin line (passthrough), then
    // asks the frontend for topLevel's initCom and prints the answer.
    let script = r#"read first; echo "first $first"
        echo '%echo [gV topLevel initCom]'; read back; echo "back $back"
        echo '%quit'"#;
    let out = run_wafe(
        &["-xrm", "*initCom: hello there", "--app", "sh", "-c", script],
        &[],
    );
    assert_eq!(out, ["first hello there", "back hello there"]);
}

#[test]
fn a_restarted_backend_reads_init_com_first_too() {
    // The fault plan kills the first incarnation at its second protocol
    // line; with one retry the next incarnation starts over and must
    // read InitCom first as well, then exit cleanly.
    let script = r#"read first; echo "first $first"; echo '%set up 1'; sleep 0.3"#;
    let out = run_wafe(
        &["-xrm", "*InitCom: hi", "--app", "sh", "-c", script],
        &[
            ("WAFE_FAULTS", "line:kill@2"),
            ("WAFE_BACKEND_RETRIES", "1"),
            ("WAFE_BACKEND_BACKOFF", "10"),
        ],
    );
    assert_eq!(out, ["first hi", "first hi"]);
}
