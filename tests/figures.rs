//! The ASCII figures of `docs/figures/` as golden tests: each is
//! rendered here in-process, from the script its example runs, and must
//! equal the file byte for byte after each header line. A difference is
//! a rendering change, not a file to refresh.
//!
//! The straddle scene (a child that straddles its form's right and
//! bottom edges, the paint fixture's `straddle-3px-border`) pins the
//! ASCII view's clip: no box of the child past the form's edge, and
//! only the characters whose glyphs start inside the form.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use wafe::core::{Flavor, WafeSession};
use wafe::ipc::ProtocolEngine;

/// The bodies of a figure file: the text after each header line (`===
/// … ===` or `--- … ---`), or the whole file when it has none.
fn figure_bodies(name: &str) -> Vec<String> {
    let path = format!("{}/docs/figures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("read the figure");
    let mut bodies: Vec<String> = Vec::new();
    for line in text.split_inclusive('\n') {
        let head = line.trim_end();
        let is_header = (head.starts_with("=== ") && head.ends_with(" ==="))
            || (head.starts_with("--- ") && head.ends_with(" ---"));
        match bodies.last_mut() {
            _ if is_header => bodies.push(String::new()),
            Some(body) => body.push_str(line),
            None => bodies.push(line.to_string()),
        }
    }
    bodies
}

/// A snapshot as the examples print it: `println!` of the result.
fn printed(s: &mut WafeSession, snapshot: &str) -> String {
    format!("{}\n", s.eval(snapshot).expect("snapshot"))
}

/// `hello.txt`: the file-mode script of `examples/quickstart.rs`.
fn hello() -> Vec<String> {
    let mut s = WafeSession::new(Flavor::Athena);
    let script = "#!/usr/bin/X11/wafe --f\n\
                  command hello topLevel \\\n\
                      label \"Wafe new World\" \\\n\
                      callback \"echo Goodbye; quit\"\n\
                  realize\n";
    s.run_file_text(script).expect("script runs");
    vec![printed(&mut s, "snapshot 0 0 240 60")]
}

/// `figure3_compound_strings.txt`: the Motif compound-string label of
/// `crates/wafe-core/tests/session.rs` (`figure3_compound_string_label`).
fn figure3() -> Vec<String> {
    let mut s = WafeSession::new(Flavor::Motif);
    s.eval(
        "mLabel l topLevel \\\n\
         fontList \"*b&h-lucida-medium-r*14*=ft,*b&h-lucida-bold-r*14*=bft\" \\\n\
         labelString \"I'm&bft bold&ft and&rl strange\"",
    )
    .unwrap();
    s.eval("realize").unwrap();
    vec![printed(&mut s, "snapshot 0 0 400 60")]
}

/// `figure5_primefactors.txt`: the widget lines the prime backend
/// prints before its read loop, replayed through a protocol engine as
/// `examples/primefactors.rs` receives them.
fn figure5() -> Vec<String> {
    let mut backend = Command::new(env!("CARGO_BIN_EXE_wafe-backend-prime"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn the prime backend");
    let mut engine = ProtocolEngine::new(Flavor::Athena);
    let stdout = backend.stdout.take().expect("piped stdout");
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read a backend line");
        engine.handle_line(&line).expect("the line evaluates");
        if line == "%realize" {
            break;
        }
    }
    // Closing its stdin ends the backend's read loop.
    drop(backend.stdin.take());
    backend.wait().expect("the backend exits");
    vec![printed(&mut engine.session, "snapshot 0 0 280 100")]
}

/// `figure6_design_tool.txt`: the script of `examples/xwafedesign.rs`,
/// its designed UI on display 0 and the widget graph on `design:1`.
fn figure6() -> Vec<String> {
    let mut s = WafeSession::new(Flavor::Athena);
    s.eval(
        "form design topLevel\n\
         label title design label {Design: xwafemail} borderWidth 0\n\
         list folders design fromVert title list {inbox,outbox,drafts}\n\
         asciiText body design fromVert title fromHoriz folders editType edit width 160\n\
         command send design label Send fromVert folders\n\
         command quitb design label Quit fromVert folders fromHoriz send callback quit\n\
         realize",
    )
    .unwrap();
    let widgets = ["design", "title", "folders", "body", "send", "quitb"];
    s.eval("applicationShell viewer design:1").unwrap();
    s.eval("treeGraph graph viewer").unwrap();
    for w in widgets {
        let parent = s.eval(&format!("parent {w}")).unwrap().to_string();
        let mut cmd = format!("label node_{w} graph label {w}");
        if widgets.contains(&parent.as_str()) {
            cmd.push_str(&format!(" parentNode node_{parent}"));
        }
        s.eval(&cmd).unwrap();
    }
    s.eval("realize").unwrap();
    vec![
        printed(&mut s, "snapshot 0 0 340 140 0"),
        printed(&mut s, "snapshot 0 0 420 160 1"),
    ]
}

#[test]
fn the_figures_render_byte_for_byte() {
    for (name, rendered) in [
        ("hello.txt", hello()),
        ("figure3_compound_strings.txt", figure3()),
        ("figure5_primefactors.txt", figure5()),
        ("figure6_design_tool.txt", figure6()),
    ] {
        assert_eq!(rendered, figure_bodies(name), "{name} rendered differently");
    }
}

/// The straddle scene, clipped as the framebuffer clips it: label `r`
/// starts at x=101 inside a form whose content ends at x=123. Its box
/// stops at the form's edge and its bottom edge, below the form's
/// content, does not show. Of its text, the four characters whose
/// glyphs start inside the form show; each keeps its 8-px cell, wider
/// than the 6-px glyph advance, so the last lands one cell right of the
/// form's border column.
#[test]
fn a_straddling_child_is_clipped_in_the_ascii_view() {
    let mut s = WafeSession::new(Flavor::Athena);
    for cmd in [
        "form f topLevel borderWidth 3 width 120 height 50",
        "label l f label {3-px border} borderWidth 3 width 80 height 20",
        "label r f fromHoriz l label {straddles the edge} borderWidth 3 \
         width 100 height 20 vertDistance 30",
        "realize",
    ] {
        s.eval(cmd).unwrap();
    }
    let want = "\
++---------+---+
|+3-px border  |
|           +stra
+--------------+
";
    assert_eq!(s.eval("snapshot 0 0 240 80").unwrap().to_string(), want);
}

/// Cells round down: in `snapshot 10 0 …`, a label whose left edge is
/// at x=3 has its left side in the column left of the canvas, so no
/// `|` or `+` lands in column 0.
#[test]
fn a_window_left_of_the_snapshot_area_stays_out_of_column_0() {
    let mut s = WafeSession::new(Flavor::Athena);
    for cmd in [
        "form f topLevel borderWidth 0",
        "label l f label {xy} borderWidth 1 horizDistance 1 width 80 height 40",
        "realize",
    ] {
        s.eval(cmd).unwrap();
    }
    let want = "\
---xy----+
         |
---------+
---------+
";
    assert_eq!(s.eval("snapshot 10 0 200 64").unwrap().to_string(), want);
}
