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
//!   re-lays out the form (µs per call);
//!
//! and, with a display client attached, E28's ticker: frames/s of a
//! label update flushed, composited and built into a frame.
//!
//! Sizes are interleaved round by round and each figure is the median
//! of per-round means, so machine-wide drift hits every size alike.
//! Results go to `BENCH_e31.json`. The acceptance gate is that the label
//! `setValues` at 242 widgets costs at most 1.5× the 26-widget figure.

use std::time::Instant;

use bench::workspace_root;
use wafe_core::{Flavor, WafeSession};
use wafe_display::Frame;

/// (rows, cols) of the label grid: 26, 98 and 242 widgets.
const GRIDS: [(usize, usize); 3] = [(6, 4), (12, 8), (20, 12)];
const ROUNDS: usize = 15;
/// Label updates per size and round.
const OPS: usize = 400;
/// Width changes per size and round (each lays out the whole form).
const WIDTH_OPS: usize = 60;
const FRAMES: usize = 100;

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
        let mut app = s.app.borrow_mut();
        let d = &mut app.displays[0];
        d.set_compositing(true);
        // Ship the attach-time full frame: only steady state is timed.
        d.flush();
        let _ = d.take_frame_damage();
        let _ = d.next_frame_seq();
    }
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

/// One pumped frame after a label update, as the scheduler builds it.
fn ticker_frame(s: &mut WafeSession, label: &str, i: usize) -> usize {
    s.eval(&format!("setValues {label} label {{frame {i:06}}}"))
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
    frames_per_sec: f64,
    bytes_per_frame: f64,
}

fn main() {
    bench::banner("E31", "incremental setValues: label vs tree size");

    let mut sessions: Vec<WafeSession> = GRIDS.iter().map(|&(r, c)| grid(r, c, false)).collect();
    let mut label_samples = vec![Vec::new(); GRIDS.len()];
    let mut width_samples = vec![Vec::new(); GRIDS.len()];
    let mut next = 0usize;
    for round in 0..=ROUNDS {
        for (k, &(rows, _)) in GRIDS.iter().enumerate() {
            let s = &mut sessions[k];
            let label = format!("r{}c1", rows / 2);
            let label_us = mean_us(s, OPS, &mut next, |i| {
                format!("setValues {label} label {{v {i}}}")
            });
            let chain = format!("r{}c0", rows / 2);
            let width_us = mean_us(s, WIDTH_OPS, &mut next, |i| {
                format!("setValues {chain} width {}", 100 + 40 * (i % 2))
            });
            // Round 0 warms caches and allocators; it is not kept.
            if round > 0 {
                label_samples[k].push(label_us);
                width_samples[k].push(width_us);
            }
        }
    }

    let rows: Vec<Row> = GRIDS
        .iter()
        .enumerate()
        .map(|(k, &(r, c))| {
            let mut s = grid(r, c, true);
            let label = format!("r{}c1", r / 2);
            let mut bytes = 0usize;
            let t = Instant::now();
            for i in 0..FRAMES {
                bytes += ticker_frame(&mut s, &label, i);
            }
            let fps = FRAMES as f64 / t.elapsed().as_secs_f64();
            Row {
                widgets: widgets(&sessions[k]),
                label_us: median(label_samples[k].clone()),
                width_us: median(width_samples[k].clone()),
                frames_per_sec: fps,
                bytes_per_frame: bytes as f64 / FRAMES as f64,
            }
        })
        .collect();

    for row in &rows {
        bench::row(
            &format!("{} widgets", row.widgets),
            format!(
                "label {:.1} µs, width {:.1} µs, ticker {:.0} frames/s ({:.0} bytes/frame)",
                row.label_us, row.width_us, row.frames_per_sec, row.bytes_per_frame
            ),
        );
    }
    let ratio = rows[2].label_us / rows[0].label_us;
    bench::row(
        &format!("label {} / {} widgets", rows[2].widgets, rows[0].widgets),
        format!("{ratio:.2}x (gate <=1.5x)"),
    );

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"widgets\": {}, \"label_us\": {:.2}, \"width_us\": {:.2}, \
                 \"ticker_frames_per_sec\": {:.1}, \"ticker_bytes_per_frame\": {:.1}}}",
                r.widgets, r.label_us, r.width_us, r.frames_per_sec, r.bytes_per_frame
            )
        })
        .collect();
    let out = format!(
        "{{\n  \"experiment\": \"e31_set_values\",\n  \"rounds\": {ROUNDS},\n  \
         \"label_ops_per_round\": {OPS},\n  \"width_ops_per_round\": {WIDTH_OPS},\n  \
         \"grids\": [\n{}\n  ],\n  \
         \"label_ratio_largest_to_smallest\": {ratio:.3}\n}}\n",
        body.join(",\n")
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
}
