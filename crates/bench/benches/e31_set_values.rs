//! E31 — incremental setValues: does changing a label cost the label?
//!
//! A `setValues` on a realized widget marks what the change needs and
//! settles only that: a label's new text redraws the label, and only a
//! geometry change re-lays out the parent. Before, every realized
//! `setValues` re-laid-out, re-synced and redrew the whole tree, so its
//! cost grew with the number of widgets (~4.7 µs per widget).
//!
//! The workload is a realized form grid of labels chained with
//! `fromHoriz`/`fromVert`, at 26, 98 and 242 widgets (shell, form and
//! 24, 96 or 240 labels). For each size we measure, through the Tcl
//! command as an application sends it, on a headless display:
//!
//! * **label** — `setValues` of one label's text (µs per call);
//! * **width** — `setValues` of a `width` in a `fromHoriz` chain, which
//!   re-lays out the form (µs per call), and, from the settle counters
//!   after the timed rounds, the widgets each call redrew and configured:
//!   the relayout configures only the row's labels, which moved or
//!   resized, and redraws the resized label and the form;
//!
//! and, with a display client attached, E28's ticker: frames/s of a
//! label update flushed, composited and built into a frame.
//!
//! The deep-tree row is the same ticker on a different tree: 1, 8 or 64
//! subtrees side by side, each eight nested Forms ending in a leaf
//! label, none overlapping the first subtree's leaf, which is the label
//! updated (µs per frame). The paint walk returns at a window whose
//! visible area misses the damage, so a sibling subtree costs one
//! intersection, not a visit to each of its nine windows.
//!
//! Sizes are interleaved round by round and each figure is the median
//! of per-round figures, so machine-wide drift hits every size alike.
//! Results go to `BENCH_e31.json`. The acceptance gates are that the
//! label `setValues` at 242 widgets costs at most 1.5× the 26-widget
//! figure, that the ticker at 242 widgets keeps at least 0.65 of its
//! 26-widget frames/s, and that a deep-tree frame with 64 subtrees
//! costs at most 1.5× the one-subtree figure: the compositing flush
//! paints the damage, so a label frame costs the label, not the tree.
//! A count gate, free of timing noise: a width `setValues` redraws as
//! many widgets at 242 widgets as at 26 and 98.

use std::time::Instant;

use bench::workspace_root;
use wafe_core::{Flavor, WafeSession};
use wafe_display::Frame;
use wafe_trace::Metric;
use wafe_xproto::geometry::Rect;
use wafe_xproto::{SCREEN_H, SCREEN_W};

/// (rows, cols) of the label grid: 26, 98 and 242 widgets.
const GRIDS: [(usize, usize); 3] = [(6, 4), (12, 8), (20, 12)];
const ROUNDS: usize = 15;
/// Label updates per size and round.
const OPS: usize = 400;
/// Width changes per size and round (each lays out the whole form).
const WIDTH_OPS: usize = 60;
/// Ticker frames per size and round.
const FRAMES: usize = 100;
/// Subtree counts of the deep-tree row.
const SUBTREES: [usize; 3] = [1, 8, 64];
/// Nested Forms per subtree, above its leaf label.
const DEPTH: usize = 8;
/// Subtrees per row of the deep tree.
const PER_ROW: usize = 8;

/// A realized form grid of `rows x cols` labels.
fn grid(rows: usize, cols: usize, display: bool) -> WafeSession {
    let mut s = WafeSession::new(Flavor::Athena);
    s.eval("form grid topLevel").unwrap();
    for r in 0..rows {
        for c in 0..cols {
            let mut cmd = format!("label r{r}c{c} grid label {{cell {r}:{c}}} width 120 height 24");
            if c > 0 {
                cmd.push_str(&format!(" fromHoriz r{r}c{}", c - 1));
            }
            if r > 0 {
                cmd.push_str(&format!(" fromVert r{}c{c}", r - 1));
            }
            s.eval(&cmd).unwrap();
        }
    }
    s.eval("realize").unwrap();
    if display {
        attach_display(&s);
    }
    s
}

/// Turns compositing on and ships the attach-time full frame, so only
/// steady state is timed.
fn attach_display(s: &WafeSession) {
    let mut app = s.app.borrow_mut();
    let d = &mut app.displays[0];
    d.set_compositing(true);
    d.flush();
    let _ = d.take_frame_damage();
    let _ = d.next_frame_seq();
}

/// A realized form of `n` subtrees in rows of [`PER_ROW`], each
/// [`DEPTH`] nested Forms ending in a leaf label `t<k>_leaf`, with a
/// display attached. Every leaf lies on the screen.
fn deep(n: usize) -> WafeSession {
    let mut s = WafeSession::new(Flavor::Athena);
    s.eval("form deep topLevel").unwrap();
    for k in 0..n {
        let mut cmd = format!("form t{k}_0 deep");
        if k % PER_ROW > 0 {
            cmd.push_str(&format!(" fromHoriz t{}_0", k - 1));
        }
        if k >= PER_ROW {
            cmd.push_str(&format!(" fromVert t{}_0", k - PER_ROW));
        }
        s.eval(&cmd).unwrap();
        for level in 1..DEPTH {
            s.eval(&format!("form t{k}_{level} t{k}_{}", level - 1))
                .unwrap();
        }
        s.eval(&format!(
            "label t{k}_leaf t{k}_{} label 000 width 30 height 10",
            DEPTH - 1
        ))
        .unwrap();
    }
    s.eval("realize").unwrap();
    {
        let app = s.app.borrow();
        let d = &app.displays[0];
        let leaf = app.lookup(&format!("t{}_leaf", n - 1)).unwrap();
        let r = d.abs_rect(app.widget(leaf).window.unwrap());
        let screen = Rect::new(0, 0, SCREEN_W, SCREEN_H);
        assert!(screen.contains_rect(&r), "leaf {r:?} off the screen");
    }
    attach_display(&s);
    s
}

fn widgets(s: &WafeSession) -> usize {
    s.app.borrow().widget_count()
}

/// Mean µs per call of `ops` commands made by `script(i)`, each
/// followed by the event pump the server runs after every line.
fn mean_us(
    s: &mut WafeSession,
    ops: usize,
    next: &mut usize,
    script: impl Fn(usize) -> String,
) -> f64 {
    let t = Instant::now();
    for _ in 0..ops {
        *next += 1;
        s.eval(&script(*next)).unwrap();
        s.pump();
    }
    t.elapsed().as_secs_f64() * 1e6 / ops as f64
}

fn width_script(chain: &str, i: usize) -> String {
    format!("setValues {chain} width {}", 100 + 40 * (i % 2))
}

/// Widgets redrawn and windows configured per width `setValues`, from
/// the settle counters (off while timing) over [`WIDTH_OPS`] calls.
fn width_counts(s: &mut WafeSession, chain: &str, next: &mut usize) -> (f64, f64) {
    let t = s.telemetry.clone();
    let was_enabled = t.enabled();
    t.set_enabled(true);
    let counts = || [Metric::XtSettleRedrawn, Metric::XtSettleConfigured].map(|m| t.value(m));
    let before = counts();
    mean_us(s, WIDTH_OPS, next, |i| width_script(chain, i));
    let after = counts();
    t.set_enabled(was_enabled);
    let per_op = |k: usize| (after[k] - before[k]) as f64 / WIDTH_OPS as f64;
    (per_op(0), per_op(1))
}

/// One pumped frame after a label update, as the scheduler builds it.
fn ticker_frame(s: &mut WafeSession, label: &str, text: &str) -> usize {
    s.eval(&format!("setValues {label} label {{{text}}}"))
        .unwrap();
    let mut app = s.app.borrow_mut();
    let d = &mut app.displays[0];
    d.flush();
    let damage = d.take_frame_damage();
    let seq = d.next_frame_seq();
    Frame::build(d.framebuffer(), &damage, seq).encoded_len()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    v[v.len() / 2]
}

struct Row {
    widgets: usize,
    label_us: f64,
    width_us: f64,
    width_redrawn: f64,
    width_configured: f64,
    frames_per_sec: f64,
    bytes_per_frame: f64,
}

fn main() {
    bench::banner("E31", "incremental setValues: label vs tree size");

    let mut sessions: Vec<WafeSession> = GRIDS.iter().map(|&(r, c)| grid(r, c, false)).collect();
    let mut tickers: Vec<WafeSession> = GRIDS.iter().map(|&(r, c)| grid(r, c, true)).collect();
    let mut label_samples = vec![Vec::new(); GRIDS.len()];
    let mut width_samples = vec![Vec::new(); GRIDS.len()];
    let mut fps_samples = vec![Vec::new(); GRIDS.len()];
    let mut bytes = vec![0usize; GRIDS.len()];
    let mut deeps: Vec<WafeSession> = SUBTREES.iter().map(|&n| deep(n)).collect();
    let mut deep_samples = vec![Vec::new(); SUBTREES.len()];
    let mut next = 0usize;
    for round in 0..=ROUNDS {
        for (k, &(rows, _)) in GRIDS.iter().enumerate() {
            let s = &mut sessions[k];
            let label = format!("r{}c1", rows / 2);
            let label_us = mean_us(s, OPS, &mut next, |i| {
                format!("setValues {label} label {{v {i}}}")
            });
            let chain = format!("r{}c0", rows / 2);
            let width_us = mean_us(s, WIDTH_OPS, &mut next, |i| width_script(&chain, i));
            let (mut frame_bytes, t) = (0usize, Instant::now());
            for i in 0..FRAMES {
                let text = format!("frame {:06}", round * FRAMES + i);
                frame_bytes += ticker_frame(&mut tickers[k], &label, &text);
            }
            let fps = FRAMES as f64 / t.elapsed().as_secs_f64();
            // Round 0 warms caches and allocators; it is not kept.
            if round > 0 {
                label_samples[k].push(label_us);
                width_samples[k].push(width_us);
                fps_samples[k].push(fps);
                bytes[k] += frame_bytes;
            }
        }
        for (k, s) in deeps.iter_mut().enumerate() {
            let t = Instant::now();
            for i in 0..FRAMES {
                ticker_frame(s, "t0_leaf", &format!("{:03}", (round * FRAMES + i) % 1000));
            }
            if round > 0 {
                deep_samples[k].push(t.elapsed().as_secs_f64() * 1e6 / FRAMES as f64);
            }
        }
    }
    let deep_us: Vec<f64> = deep_samples.into_iter().map(median).collect();

    let rows: Vec<Row> = (0..GRIDS.len())
        .map(|k| {
            let chain = format!("r{}c0", GRIDS[k].0 / 2);
            let (width_redrawn, width_configured) =
                width_counts(&mut sessions[k], &chain, &mut next);
            Row {
                widgets: widgets(&sessions[k]),
                label_us: median(label_samples[k].clone()),
                width_us: median(width_samples[k].clone()),
                width_redrawn,
                width_configured,
                frames_per_sec: median(fps_samples[k].clone()),
                bytes_per_frame: bytes[k] as f64 / (ROUNDS * FRAMES) as f64,
            }
        })
        .collect();

    for row in &rows {
        bench::row(
            &format!("{} widgets", row.widgets),
            format!(
                "label {:.1} µs, width {:.1} µs ({:.1} redrawn, {:.1} configured), \
                 ticker {:.0} frames/s ({:.0} bytes/frame)",
                row.label_us,
                row.width_us,
                row.width_redrawn,
                row.width_configured,
                row.frames_per_sec,
                row.bytes_per_frame
            ),
        );
    }
    let ratio = rows[2].label_us / rows[0].label_us;
    bench::row(
        &format!("label {} / {} widgets", rows[2].widgets, rows[0].widgets),
        format!("{ratio:.2}x (gate <=1.5x)"),
    );
    let ticker_ratio = rows[2].frames_per_sec / rows[0].frames_per_sec;
    bench::row(
        &format!("ticker {} / {} widgets", rows[2].widgets, rows[0].widgets),
        format!("{ticker_ratio:.2}x frames/s (gate >=0.65x)"),
    );

    for (n, us) in SUBTREES.iter().zip(&deep_us) {
        bench::row(
            &format!("deep tree, {n} subtrees"),
            format!("leaf frame {us:.2} µs"),
        );
    }
    let deep_ratio = deep_us[2] / deep_us[0];
    bench::row(
        &format!("deep tree {} / {} subtrees", SUBTREES[2], SUBTREES[0]),
        format!("{deep_ratio:.2}x µs/frame (gate <=1.5x)"),
    );

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"widgets\": {}, \"label_us\": {:.2}, \"width_us\": {:.2}, \
                 \"width_redrawn_per_op\": {:.2}, \"width_configured_per_op\": {:.2}, \
                 \"ticker_frames_per_sec\": {:.1}, \"ticker_bytes_per_frame\": {:.1}}}",
                r.widgets,
                r.label_us,
                r.width_us,
                r.width_redrawn,
                r.width_configured,
                r.frames_per_sec,
                r.bytes_per_frame
            )
        })
        .collect();
    let out = format!(
        "{{\n  \"experiment\": \"e31_set_values\",\n  \"rounds\": {ROUNDS},\n  \
         \"label_ops_per_round\": {OPS},\n  \"width_ops_per_round\": {WIDTH_OPS},\n  \
         \"ticker_frames_per_round\": {FRAMES},\n  \
         \"grids\": [\n{}\n  ],\n  \
         \"label_ratio_largest_to_smallest\": {ratio:.3},\n  \
         \"ticker_ratio_largest_to_smallest\": {ticker_ratio:.3},\n  \
         \"deep_depth\": {DEPTH},\n  \
         \"deep_trees\": [\n{}\n  ],\n  \
         \"deep_ratio_largest_to_smallest\": {deep_ratio:.3}\n}}\n",
        body.join(",\n"),
        SUBTREES
            .iter()
            .zip(&deep_us)
            .map(|(n, us)| format!("    {{\"subtrees\": {n}, \"leaf_frame_us\": {us:.2}}}"))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let path = workspace_root().join("BENCH_e31.json");
    std::fs::write(&path, out).expect("write BENCH_e31.json");
    println!("  wrote {}", path.display());

    assert!(
        ratio <= 1.5,
        "acceptance: a label setValues at {} widgets must cost <=1.5x the {}-widget \
         figure, got {ratio:.2}x",
        rows[2].widgets,
        rows[0].widgets
    );
    assert!(
        ticker_ratio >= 0.65,
        "acceptance: the ticker at {} widgets must keep >=0.65 of the {}-widget \
         frames/s, got {ticker_ratio:.2}x",
        rows[2].widgets,
        rows[0].widgets
    );
    assert!(
        rows.iter()
            .all(|r| r.width_redrawn == rows[0].width_redrawn),
        "acceptance: a width setValues must redraw as many widgets at every grid size, got {:?}",
        rows.iter().map(|r| r.width_redrawn).collect::<Vec<_>>()
    );
    assert!(
        deep_ratio <= 1.5,
        "acceptance: a leaf frame with {} deep subtrees must cost <=1.5x the \
         {}-subtree figure, got {deep_ratio:.2}x",
        SUBTREES[2],
        SUBTREES[0]
    );
}
