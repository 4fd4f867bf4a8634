//! The distribution's `perlwafe` demo: "an example program calling Wafe
//! as a subprocess of the application program (normally, it is the other
//! way round)". Here the *test* plays the application: it spawns the real
//! `wafe` binary, drives it through stdin and reads results from stdout.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Duration;

fn spawn_wafe() -> std::process::Child {
    Command::new(env!("CARGO_BIN_EXE_wafe"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn wafe")
}

#[test]
fn drive_wafe_interactively_from_an_application() {
    let mut child = spawn_wafe();
    let mut stdin = child.stdin.take().unwrap();
    let stdout = child.stdout.take().unwrap();

    // The application builds a UI and interrogates it.
    writeln!(stdin, "label l topLevel label {{driven from outside}}").unwrap();
    writeln!(stdin, "realize").unwrap();
    writeln!(stdin, "echo [getResourceList l rv]").unwrap();
    writeln!(stdin, "echo [gV l label]").unwrap();
    writeln!(stdin, "quit").unwrap();
    drop(stdin);

    let reader = BufReader::new(stdout);
    let lines: Vec<String> = reader.lines().map_while(Result::ok).collect();
    // Interactive mode echoes non-empty command results too; filter to
    // the `echo` outputs we asked for.
    assert!(lines.iter().any(|l| l == "42"), "lines: {lines:?}");
    assert!(
        lines.iter().any(|l| l == "driven from outside"),
        "lines: {lines:?}"
    );
    let status = child.wait().expect("wafe exits");
    assert!(status.success());
}

#[test]
fn file_mode_script_via_binary() {
    // The #! file-mode path of the real binary.
    let dir = std::env::temp_dir().join(format!("wafe-filemode-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("hello.wafe");
    std::fs::write(
        &script,
        "#!/usr/bin/X11/wafe --f\n\
         command hello topLevel label {Wafe new World}\n\
         realize\n\
         echo [gV hello label]\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_wafe"))
        .arg("--f")
        .arg(&script)
        .output()
        .expect("run wafe --f");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Wafe new World"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frontend_mode_via_argv0_link() {
    // The paper: `ln -s wafe xwafeApp` makes `xwafeApp` spawn `wafeApp`.
    let dir = std::env::temp_dir().join(format!("wafe-linkmode-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The backend: a shell script named `demoapp` on PATH.
    let backend = dir.join("demoapp");
    std::fs::write(
        &backend,
        "#!/bin/sh\necho '%label l topLevel label linked'\necho '%realize'\necho '%echo [gV l label]'\necho '%quit'\n",
    )
    .unwrap();
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&backend, std::fs::Permissions::from_mode(0o755)).unwrap();
        std::os::unix::fs::symlink(env!("CARGO_BIN_EXE_wafe"), dir.join("xdemoapp")).unwrap();
    }
    let path = format!(
        "{}:{}",
        dir.display(),
        std::env::var("PATH").unwrap_or_default()
    );
    let mut child = Command::new(dir.join("xdemoapp"))
        .env("PATH", path)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn via link");
    // The frontend should terminate on the backend's %quit.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(Some(_)) = child.try_wait() {
            break;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("frontend did not exit after %quit");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn app_defaults_env_file_applies() {
    // WAFE_APP_DEFAULTS names the startup resource file.
    let dir = std::env::temp_dir().join(format!("wafe-ad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ad = dir.join("Wafe.ad");
    std::fs::write(&ad, "*label: FromAppDefaults\n").unwrap();
    let script = dir.join("s.wafe");
    std::fs::write(&script, "label l topLevel\nrealize\necho [gV l label]\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_wafe"))
        .arg("--f")
        .arg(&script)
        .env("WAFE_APP_DEFAULTS", &ad)
        .output()
        .expect("run wafe");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FromAppDefaults"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frontend_mode_reports_each_protocol_error_on_stderr() {
    // The backend sends two failing command lines around a good one; the
    // frontend writes each error to stderr as it happens and goes on.
    let dir = std::env::temp_dir().join(format!("wafe-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let backend = dir.join("errapp");
    std::fs::write(
        &backend,
        "#!/bin/sh\necho '%no_such_command one'\necho '%echo fine'\n\
         echo '%set'\necho '%quit'\n",
    )
    .unwrap();
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&backend, std::fs::Permissions::from_mode(0o755)).unwrap();
    }
    let out = Command::new(env!("CARGO_BIN_EXE_wafe"))
        .arg("--app")
        .arg(&backend)
        .stdin(Stdio::null())
        .output()
        .expect("run wafe --app");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("wafe: ")).collect();
    assert_eq!(
        errors,
        [
            "wafe: invalid command name \"no_such_command\"",
            "wafe: wrong # args: should be \"set varName ?newValue?\"",
        ],
        "{stderr}"
    );
}
