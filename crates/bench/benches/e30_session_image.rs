//! E30 — the shared toolkit image: what a session costs once the
//! per-flavour setup is built only once per thread.
//!
//! A session used to register the widget classes, parse the `.wspec`
//! files and build its whole command table itself. All of that depends
//! only on the flavour, so it now lives in a [`ToolkitImage`] built once
//! per flavour and thread, and a session builds only instance state:
//! the widget tree with `topLevel`, the resource database and the
//! interpreter's frames and caches.
//!
//! We measure, for the Athena flavour:
//!
//! * **image build** — `ToolkitImage::build`, median µs over repeated
//!   builds, and resident KiB per image with all of them alive. This
//!   is the setup every session used to repeat.
//! * **session create** — `WafeSession::new` with the image warm,
//!   median µs over 2000 creations, and resident KiB per session with
//!   all 2000 alive.
//!
//! Resident memory is read from `/proc/self/statm`. Results go to
//! `BENCH_e30.json`. The acceptance gate is that a session costs at
//! most a fifth of an image build in both time and memory; a ratio
//! within one run needs no kept-alive baseline.

use std::time::Instant;

use bench::workspace_root;
use wafe_core::{Flavor, ToolkitImage, WafeSession};

const SESSIONS: usize = 2000;
const IMAGES: usize = 64;

/// Resident set size of this process in KiB.
fn rss_kb() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .expect("statm resident field");
    pages * 4
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    v[v.len() / 2]
}

/// Median µs per call and resident KiB per live result over `n` calls.
/// The results stay alive in `keep`, so a later measurement never
/// reuses memory they freed.
fn price<T>(n: usize, keep: &mut Vec<T>, mut make: impl FnMut() -> T) -> (f64, f64) {
    let rss0 = rss_kb();
    let mut us = Vec::with_capacity(n);
    keep.reserve(n);
    for _ in 0..n {
        let t = Instant::now();
        keep.push(make());
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let kb = rss_kb().saturating_sub(rss0) as f64 / n as f64;
    (median(us), kb)
}

fn main() {
    bench::banner("E30", "shared toolkit image vs per-session instance state");

    // Warm the thread's image first: sessions are priced as waferd's
    // workers see them, after their first session built the image.
    let image = ToolkitImage::shared(Flavor::Athena);
    let (generated, handwritten) = image.command_stats();
    let (mut sessions, mut images) = (Vec::new(), Vec::new());
    let (session_us, session_kb) =
        price(SESSIONS, &mut sessions, || WafeSession::new(Flavor::Athena));
    let (image_us, image_kb) = price(IMAGES, &mut images, || ToolkitImage::build(Flavor::Athena));
    drop((sessions, images));

    let create_ratio = image_us / session_us;
    let rss_ratio = image_kb / session_kb.max(0.001);
    bench::row(
        "image",
        format!(
            "{} commands ({generated} generated, {handwritten} hand-written)",
            image.commands().len()
        ),
    );
    bench::row(
        "image build (old per-session setup)",
        format!("{image_us:.1} µs, {image_kb:.1} KiB"),
    );
    bench::row(
        &format!("session create ({SESSIONS} alive)"),
        format!("{session_us:.1} µs, {session_kb:.1} KiB"),
    );
    bench::row(
        "image / session",
        format!("{create_ratio:.1}x time, {rss_ratio:.1}x memory"),
    );

    let out = format!(
        "{{\n  \"experiment\": \"e30_session_image\",\n  \"flavor\": \"athena\",\n  \
         \"sessions\": {SESSIONS},\n  \
         \"images\": {IMAGES},\n  \
         \"image_commands\": {},\n  \
         \"image_build_us\": {image_us:.1},\n  \
         \"image_kb\": {image_kb:.1},\n  \
         \"session_create_us\": {session_us:.1},\n  \
         \"session_kb\": {session_kb:.1},\n  \
         \"create_ratio\": {create_ratio:.2},\n  \
         \"rss_ratio\": {rss_ratio:.2}\n}}\n",
        image.commands().len()
    );
    let path = workspace_root().join("BENCH_e30.json");
    std::fs::write(&path, out).expect("write BENCH_e30.json");
    println!("  wrote {}", path.display());

    assert!(
        create_ratio >= 5.0 && rss_ratio >= 5.0,
        "acceptance: a session must cost <=1/5 of an image build, got \
         {create_ratio:.1}x time and {rss_ratio:.1}x memory"
    );
}
