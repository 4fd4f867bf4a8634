//! The traced run: the server hosted in this process with a span around
//! every event-loop step, the load generator's own calls spanned too,
//! alternating half-second chunks with tracing off and on so the
//! overhead is measured against the same server; then the lower-layer
//! replay. Prints the per-layer metrics.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::client::{self, Record, Stop};
use crate::gen::Workload;
use crate::layers::{self, VERBS};
use crate::server::InProc;
use crate::trace::{self, Span, Spans};
use crate::{latency, procfs, report, stats, workers, Args, Metric, Outcome};

/// Tracing is toggled every chunk.
const CHUNK: Duration = Duration::from_millis(500);
/// Sessions created to price one (`core.session_*`).
const SESSIONS: usize = 64;
/// Snapshot round trips timed on the workload's end state.
const SNAP_REPS: usize = 40;
/// Session opens and park/restore cycles traced after the window.
const PROBE_OPENS: usize = 100;
const PROBE_CYCLES: usize = 50;
/// Ops of the calibration stream (a `gui_frames` stream) that prices
/// the layers a workload's own stream never calls.
const CALIBRATION_OPS: u64 = 300;

/// Ops of the workload's stream replayed through the layers.
fn replay_ops(w: Workload, done: u64) -> u64 {
    let cap = match w {
        Workload::LineRtt => 20_000,
        Workload::BurstFlush => 400,
        Workload::GuiFrames => 1_000,
        Workload::SessionCycle => 150,
    };
    done.clamp(1, cap)
}

/// One mode's (untraced or traced) end-to-end figures.
#[derive(Default)]
struct Side {
    rec: Record,
    secs: f64,
    server_ns: u64,
    client_ns: u64,
}

impl Side {
    fn ops(&self) -> f64 {
        self.rec.ops.len().max(1) as f64
    }
    fn figures(&self) -> [f64; 5] {
        let (p50, p99, _, _) = latency(&self.rec);
        [
            self.rec.ops.len() as f64 / self.secs.max(1e-9),
            p50,
            p99,
            self.server_ns as f64 / 1e3 / self.ops(),
            self.client_ns as f64 / 1e3 / self.ops(),
        ]
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    // Priced first, while the heap has no freed memory for the new
    // sessions to reuse.
    let (session_new_us, session_rss_kb) = layers::session_cost(SESSIONS);

    let epoch = Instant::now();
    let mut sp = Spans::new("client", epoch);
    let mut host = InProc::start(workers(), epoch)?;
    let mut drv = client::driver(w, args.seed);
    drv.setup(host.addr(), &mut sp)?;
    let mut warm = Record::default();
    drv.run(Stop::Ops(drv.warmup_ops()), &mut warm, &mut sp)?;
    if warm.failed + drv.verify() > 0 {
        return Err("warm-up ops failed".into());
    }

    let mut sides = [Side::default(), Side::default()];
    let window = args.seconds as f64;
    let mut errors = Vec::new();
    let mut mode = 0;
    while sides[0].secs + sides[1].secs < window {
        set_tracing(&host, &mut sp, mode == 1);
        let left = Duration::from_secs_f64(window - sides[0].secs - sides[1].secs);
        let side = &mut sides[mode];
        let (c0, k0, t0) = (host.cpu_ns(), procfs::this_thread_cpu_ns(), Instant::now());
        let r = drv.run(Stop::At(t0 + CHUNK.min(left)), &mut side.rec, &mut sp);
        side.secs += t0.elapsed().as_secs_f64();
        side.server_ns += host.cpu_ns() - c0;
        side.client_ns += procfs::this_thread_cpu_ns() - k0;
        // Outside the chunk's timing.
        side.rec.failed += drv.verify();
        if let Err(e) = r {
            errors.push(e);
            break;
        }
        mode ^= 1;
    }
    set_tracing(&host, &mut sp, false);

    let probe_start = sp.now_ns();
    let mut probe = Record::default();
    if errors.is_empty() && w != Workload::SessionCycle {
        set_tracing(&host, &mut sp, true);
        if let Err(e) = client::probe_sessions(
            drv.as_mut(),
            host.addr(),
            PROBE_OPENS,
            PROBE_CYCLES,
            &mut client::probe_pauses(args.seed),
            &mut probe,
            &mut sp,
        ) {
            errors.push(format!("session probe: {e}"));
            probe.failed += 1;
        }
        set_tracing(&host, &mut sp, false);
    }
    drop(drv);
    let server = host.stop();

    let [untraced, traced] = &sides;
    let live = live_layers(&server, &sp, traced, probe_start);

    let (own, session) = {
        let n = replay_ops(w, traced.rec.ops.len() as u64);
        // The first pass warms the process (allocator, code); the
        // second is measured.
        layers::replay(w, args.seed, n);
        layers::replay(w, args.seed, n)
    };
    let calib = layers::replay(Workload::GuiFrames, args.seed, CALIBRATION_OPS).0;
    let snap = layers::snapshot_cost(&session, SNAP_REPS);
    drop(session);

    let out = args
        .out
        .join(format!("spans-{}-{}.tsv", w.name(), args.seed));
    let threads: Vec<&Spans> = server.iter().chain(std::iter::once(&sp)).collect();
    let dropped: u64 = threads.iter().map(|t| t.dropped).sum();
    if let Err(e) = trace::write_tsv(&out, &threads) {
        println!("warning: spans not written to {}: {e}", out.display());
    }

    // Tracing overhead: the same in-process server, chunks alternating.
    let (u, t) = (untraced.figures(), traced.figures());
    println!(
        "traced run: in-process server (--workers {}) sharing cpu {:?} with the client, {} ms chunks alternating tracing off/on",
        workers(),
        crate::bench_cpu(),
        CHUNK.as_millis()
    );
    println!(
        "  {:<26} {:>12} {:>12} {:>9}",
        "end to end", "untraced", "traced", "overhead"
    );
    let names = [
        "ops_per_s",
        "op_p50_us",
        "op_p99_us",
        "server_cpu_us_per_op",
        "client_cpu_us_per_op",
    ];
    for (i, name) in names.iter().enumerate() {
        println!(
            "  {name:<26} {:>12.2} {:>12.2} {:>+8.1}%",
            u[i],
            t[i],
            (t[i] / u[i] - 1.0) * 100.0
        );
    }
    println!(
        "  spans: {} recorded, {dropped} dropped, written to {}",
        threads.iter().map(|t| t.spans.len()).sum::<usize>(),
        out.display()
    );

    // A layer the workload's own stream never calls is priced on the
    // calibration stream; `src` says which.
    let pick = |own_v: Option<f64>, cal_v: Option<f64>| match own_v {
        Some(v) => (v, "replay"),
        None => (cal_v.unwrap_or(0.0), "calibration"),
    };
    let own_frames = own.frames() > 0;
    let frames_src = if own_frames { &own } else { &calib };
    let per_frame = |x: u64| x as f64 / frames_src.frames().max(1) as f64;
    let mut rows: Vec<(Metric, &str)> = vec![
        (
            Metric(
                "ipc.codec.push_ns_per_line",
                own.push.mean_ns().unwrap_or(0.0),
                "ns",
            ),
            "replay",
        ),
        (
            Metric(
                "ipc.codec.encode_ns_per_line",
                own.encode.mean_ns().unwrap_or(0.0),
                "ns",
            ),
            "replay",
        ),
    ];
    rows.extend(live.metrics);
    rows.push((
        Metric("core.session_new_us", session_new_us, "us"),
        "replay",
    ));
    rows.push((
        Metric("core.session_rss_kb", session_rss_kb, "KiB"),
        "replay",
    ));
    rows.push((
        Metric("core.snapshot.capture_us", snap.capture_us, "us"),
        "replay",
    ));
    rows.push((
        Metric("core.snapshot.encode_us", snap.encode_us, "us"),
        "replay",
    ));
    rows.push((
        Metric("core.snapshot.decode_us", snap.decode_us, "us"),
        "replay",
    ));
    rows.push((
        Metric("core.snapshot.restore_into_us", snap.restore_into_us, "us"),
        "replay",
    ));
    rows.push((
        Metric("core.snapshot.bytes", snap.bytes as f64, "bytes"),
        "replay",
    ));
    for (i, verb) in VERBS.iter().enumerate() {
        let (v, src) = pick(own.eval[i].mean_us(), calib.eval[i].mean_us());
        rows.push((Metric(eval_name(verb), v, "us"), src));
    }
    let src = if own_frames { "replay" } else { "calibration" };
    rows.push((
        Metric(
            "xproto.flush_us",
            frames_src.flush.mean_us().unwrap_or(0.0),
            "us",
        ),
        src,
    ));
    rows.push((
        Metric(
            "xproto.damage.rects_per_frame",
            per_frame(frames_src.rects),
            "count",
        ),
        src,
    ));
    rows.push((
        Metric("xproto.damage.px_per_frame", per_frame(frames_src.px), "px"),
        src,
    ));
    rows.push((
        Metric(
            "display.frame.build_us",
            frames_src.build.mean_us().unwrap_or(0.0),
            "us",
        ),
        src,
    ));
    rows.push((
        Metric(
            "display.frame.encode_us",
            frames_src.frame_encode.mean_us().unwrap_or(0.0),
            "us",
        ),
        src,
    ));
    rows.push((
        Metric(
            "display.hex_us",
            frames_src.hex.mean_us().unwrap_or(0.0),
            "us",
        ),
        src,
    ));
    rows.push((
        Metric(
            "display.frame.bytes",
            per_frame(frames_src.frame_bytes),
            "bytes",
        ),
        src,
    ));
    rows.push((
        Metric(
            "display.frame.full_frac",
            per_frame(frames_src.full_frames),
            "ratio",
        ),
        src,
    ));
    let (fpo, fpo_src) = if w == Workload::GuiFrames {
        (traced.rec.frames as f64 / traced.ops(), "live")
    } else {
        (
            calib.frames() as f64 / calib.ops.max(1) as f64,
            "calibration",
        )
    };
    rows.push((Metric("display.frames_per_op", fpo, "count"), fpo_src));
    rows.push((Metric("client.cpu_us_per_op", t[4], "us"), "live"));
    let (dec, dec_src) = match live.frame_decode_us {
        Some(v) => (v, "live"),
        None => (frames_src.decode.mean_us().unwrap_or(0.0), src),
    };
    rows.push((Metric("client.frame_decode_us", dec, "us"), dec_src));
    rows.push((
        Metric("trace.overhead.op_p50_frac", t[1] / u[1] - 1.0, "ratio"),
        "live",
    ));

    println!("  {:<34} {:>14} {:<6} source", "per layer", "value", "unit");
    for (Metric(name, v, unit), src) in &rows {
        println!("  {name:<34} {v:>14.3} {unit:<6} {src}");
    }
    let bad = own.bad_frames + calib.bad_frames;
    if bad > 0 {
        errors.push(format!(
            "{bad} replayed frames did not decode to what was built"
        ));
    }
    let mut rec = Record::default();
    for side in sides {
        rec.absorb(side.rec);
    }
    rec.absorb(probe);
    let (_, _, tail, tail_v) = latency(&rec);
    println!("  error_rate and tail over both halves and the probe:");
    report(&rec, tail, tail_v, &[]);
    for e in &errors {
        println!("error: {e}");
    }
    Ok(Outcome {
        correct: errors.is_empty() && rec.failed == 0,
        attempted: rec.attempted,
        failed: rec.failed,
        metrics: rows.into_iter().map(|(m, _)| m).collect(),
    })
}

fn set_tracing(host: &InProc, sp: &mut Spans, on: bool) {
    host.traced.store(on, Ordering::Relaxed);
    sp.on = on;
}

fn eval_name(verb: &str) -> &'static str {
    match verb {
        "tcl" => "engine.eval_us.tcl",
        "setValues" => "engine.eval_us.setValues",
        "display_event" => "engine.eval_us.display_event",
        "widget_create" => "engine.eval_us.widget_create",
        _ => "engine.eval_us.realize",
    }
}

/// Per-layer figures from the live spans.
struct Live {
    metrics: Vec<(Metric, &'static str)>,
    frame_decode_us: Option<f64>,
}

/// Server and client spans of the traced chunks, normalised per traced
/// op; accept and attach spans of the probe too.
fn live_layers(server: &[Spans], client: &Spans, traced: &Side, probe_start: u64) -> Live {
    let ops = traced.ops();
    let window = |s: &Span| s.start_ns < probe_start;
    let (mut poll_ns, mut wakeups, mut lines) = (0u64, 0u64, 0u64);
    let (mut turn_ns, mut turns, mut turn_lines, mut flush_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut iters, mut idle) = (0u64, 0u64);
    let mut busy = Vec::new();
    let mut attaches = Vec::new();
    for t in server {
        // Per iteration: lines polled and lines run, to spot idle ones.
        let mut work = vec![(false, 0u64); t.spans.len()];
        for (i, s) in t.spans.iter().enumerate() {
            if s.name == "serve.attach" {
                attaches.push((s.start_ns, s.dur_ns()));
            }
            if !window(s) {
                continue;
            }
            let parent = s.parent as usize;
            match s.name {
                "serve.iter" => work[i].0 = true,
                "serve.poll_io" | "serve.poll_wait" => {
                    let blocking = s.name == "serve.poll_wait";
                    if !blocking || s.n > 0 {
                        poll_ns += s.dur_ns();
                    }
                    if s.n > 0 {
                        wakeups += 1;
                        lines += s.n as u64;
                    }
                    if !blocking {
                        busy.push((s.start_ns, s.end_ns));
                    }
                    if parent < work.len() {
                        work[parent].1 += s.n as u64;
                    }
                }
                "serve.run_turn" => {
                    turn_ns += s.dur_ns();
                    if s.n > 0 {
                        turns += 1;
                        turn_lines += s.n as u64;
                    }
                    busy.push((s.start_ns, s.end_ns));
                    if parent < work.len() {
                        work[parent].1 += s.n as u64;
                    }
                }
                "serve.flush" => {
                    flush_ns += s.dur_ns();
                    busy.push((s.start_ns, s.end_ns));
                }
                "serve.attach" | "serve.advance" => busy.push((s.start_ns, s.end_ns)),
                _ => {}
            }
        }
        for (is_iter, n) in work {
            if is_iter {
                iters += 1;
                idle += (n == 0) as u64;
            }
        }
    }
    let mut decode = Vec::new();
    let mut connects = Vec::new();
    for s in &client.spans {
        match s.name {
            "client.connect" => connects.push(s.start_ns),
            "client.send" | "client.verify" if window(s) => busy.push((s.start_ns, s.end_ns)),
            "client.frame_decode" if window(s) => decode.push(s.dur_ns() as f64 / 1e3),
            _ => {}
        }
    }
    let busy = trace::union(busy);
    let unattributed: u64 = traced
        .rec
        .ops
        .iter()
        .map(|&(s, e)| (e - s).saturating_sub(trace::covered(&busy, s, e)))
        .sum();

    // Assignment wait: from the client calling connect to a worker
    // starting its attach. Not from connect returning: client, accept
    // thread and worker share a CPU, so the attach may start first.
    attaches.sort_unstable();
    let (mut waits, mut j) = (Vec::new(), 0);
    for connected in connects {
        while j < attaches.len() && attaches[j].0 < connected {
            j += 1;
        }
        if j < attaches.len() && attaches[j].0 - connected < 50_000_000 {
            waits.push((attaches[j].0 - connected) as f64 / 1e3);
            j += 1;
        }
    }
    let attach_us: Vec<f64> = attaches.iter().map(|a| a.1 as f64 / 1e3).collect();
    let per_op = |ns: u64| ns as f64 / 1e3 / ops;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    Live {
        metrics: vec![
            (
                Metric("serve.poll_io.us_per_op", per_op(poll_ns), "us"),
                "live",
            ),
            (
                Metric(
                    "serve.poll_io.lines_per_wakeup",
                    ratio(lines, wakeups),
                    "count",
                ),
                "live",
            ),
            (
                Metric("serve.flush.us_per_op", per_op(flush_ns), "us"),
                "live",
            ),
            (
                Metric("serve.wakeups.idle_frac", ratio(idle, iters), "ratio"),
                "live",
            ),
            (
                Metric("serve.run_turn.us_per_op", per_op(turn_ns), "us"),
                "live",
            ),
            (
                Metric(
                    "serve.run_turn.lines_per_turn",
                    ratio(turn_lines, turns),
                    "count",
                ),
                "live",
            ),
            (
                Metric("serve.turns_per_op", turns as f64 / ops, "count"),
                "live",
            ),
            (
                Metric("net.unattributed_us_per_op", per_op(unattributed), "us"),
                "live",
            ),
            (
                Metric("serve.assign_wait_us", stats::median(&waits), "us"),
                "live",
            ),
            (
                Metric("serve.attach_us", stats::median(&attach_us), "us"),
                "live",
            ),
        ],
        frame_decode_us: (!decode.is_empty()).then(|| stats::mean(&decode)),
    }
}
