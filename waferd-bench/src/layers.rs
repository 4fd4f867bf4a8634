//! The lower layers, one public call at a time: a workload's seeded
//! command stream replayed through `LineCodec`, `ProtocolEngine`
//! (timed per verb), the display pump (`Display::flush`,
//! `take_frame_damage`, `Frame::build/encode`, `to_hex`) and the
//! client's frame decode; plus the snapshot codec and session creation.

use std::rc::Rc;
use std::time::Instant;

use wafe_core::{Flavor, SessionSnapshot, WafeSession};
use wafe_display::{from_hex, to_hex, Frame};
use wafe_ipc::{LineCodec, ProtocolEngine, DEFAULT_MAX_LINE};
use wafe_serve::{install_display_control, DisplayCtl};

use crate::client::click_lines;
use crate::gen::{BurstGen, CycleGen, GuiGen, GuiOp, LineGen, Workload};
use crate::{procfs, stats};

/// Verb classes `engine.eval_us.*` is split by.
pub const VERBS: [&str; 5] = [
    "tcl",
    "setValues",
    "display_event",
    "widget_create",
    "realize",
];

fn verb(line: &str) -> usize {
    let cmd = line.strip_prefix('%').unwrap_or(line);
    match cmd.split(' ').next().unwrap_or("") {
        "sV" | "setValues" => 1,
        "display" if cmd.starts_with("display event ") => 2,
        "form" | "label" | "command" => 3,
        "realize" => 4,
        _ => 0,
    }
}

/// Total time and count of one kind of call.
#[derive(Default, Clone, Copy)]
pub struct Acc {
    pub ns: u64,
    pub n: u64,
}

impl Acc {
    fn add(&mut self, since: Instant, n: u64) {
        self.ns += since.elapsed().as_nanos() as u64;
        self.n += n;
    }

    /// Mean ns per counted item; `None` when nothing was counted.
    pub fn mean_ns(&self) -> Option<f64> {
        (self.n > 0).then(|| self.ns as f64 / self.n as f64)
    }

    pub fn mean_us(&self) -> Option<f64> {
        self.mean_ns().map(|ns| ns / 1e3)
    }
}

/// What one replay measured.
#[derive(Default)]
pub struct Replay {
    pub ops: u64,
    /// `LineCodec::push`, counted per line framed.
    pub push: Acc,
    /// `LineCodec::encode`, counted per line.
    pub encode: Acc,
    /// `ProtocolEngine::handle_line` per verb class ([`VERBS`]).
    pub eval: [Acc; 5],
    /// `Display::flush`, counted per pump.
    pub flush: Acc,
    pub rects: u64,
    pub px: u64,
    /// Per frame: build, encode, hex, and the client's hex+decode.
    pub build: Acc,
    pub frame_encode: Acc,
    pub hex: Acc,
    pub decode: Acc,
    pub frame_bytes: u64,
    pub full_frames: u64,
    /// Frames that did not decode back to what was built.
    pub bad_frames: u64,
}

impl Replay {
    pub fn frames(&self) -> u64 {
        self.build.n
    }
}

struct Engine {
    engine: ProtocolEngine,
    display: Rc<DisplayCtl>,
    codec: LineCodec,
}

impl Engine {
    fn new() -> Engine {
        let display = Rc::new(DisplayCtl::default());
        let mut engine = ProtocolEngine::new(Flavor::Athena);
        install_display_control(&display, &mut engine.session);
        Engine {
            engine,
            display,
            codec: LineCodec::new(DEFAULT_MAX_LINE),
        }
    }

    /// One op's bytes through every layer, the way the server and the
    /// client see them. Returns the application-bound lines.
    fn step(&mut self, text: &str, r: &mut Replay) -> Vec<String> {
        let t = Instant::now();
        let lines = self.codec.push(text.as_bytes());
        r.push.add(t, lines.len() as u64);
        for line in &lines {
            let t = Instant::now();
            let _ = self.engine.handle_line(line);
            r.eval[verb(line)].add(t, 1);
        }
        let out = self.engine.take_app_lines();
        for line in &out {
            let t = Instant::now();
            std::hint::black_box(LineCodec::encode(line));
            r.encode.add(t, 1);
        }
        if self.display.attached() {
            self.pump(r);
        }
        r.ops += 1;
        out
    }

    /// The scheduler's frame pump, call by call, then the client's
    /// decode of the frame line.
    fn pump(&mut self, r: &mut Replay) {
        let mut app = self.engine.session.app.borrow_mut();
        let Some(d) = app.displays.get_mut(0) else {
            return;
        };
        let t = Instant::now();
        d.flush();
        r.flush.add(t, 1);
        if !d.has_pending_frame() {
            return;
        }
        let damage = d.take_frame_damage();
        let seq = d.next_frame_seq();
        let t = Instant::now();
        let frame = Frame::build(d.framebuffer(), &damage, seq);
        r.build.add(t, 1);
        r.rects += frame.rects.len() as u64;
        r.px += frame.rects.iter().map(|fr| fr.rect.area()).sum::<u64>();
        r.full_frames += frame.full as u64;
        let t = Instant::now();
        let bytes = frame.encode();
        r.frame_encode.add(t, 1);
        r.frame_bytes += bytes.len() as u64;
        let t = Instant::now();
        let line = format!("!display frame {}", to_hex(&bytes));
        r.hex.add(t, 1);
        let t = Instant::now();
        std::hint::black_box(LineCodec::encode(&line));
        r.encode.add(t, 1);
        let t = Instant::now();
        let back = from_hex(&line["!display frame ".len()..]).map(|b| Frame::decode(&b));
        r.decode.add(t, 1);
        if !matches!(back, Ok(Ok(f)) if f == frame) {
            r.bad_frames += 1;
        }
    }
}

/// Replays set-up plus the first `ops` ops of workload `w` for `seed`;
/// returns the measurements and the session the stream left behind.
pub fn replay(w: Workload, seed: u64, ops: u64) -> (Replay, WafeSession) {
    let mut r = Replay::default();
    let mut e = Engine::new();
    match w {
        Workload::LineRtt => {
            let mut g = LineGen::new(seed);
            e.step("%echo ready\n", &mut r);
            (0..ops).for_each(|id| drop(e.step(&g.op(id), &mut r)));
        }
        Workload::BurstFlush => {
            let mut g = BurstGen::new(seed);
            e.step(&g.setup(), &mut r);
            (0..ops).for_each(|id| drop(e.step(&g.op(id).0, &mut r)));
        }
        Workload::GuiFrames => {
            let mut g = GuiGen::new(seed);
            let out = e.step(&g.setup(true), &mut r);
            let clicks = out
                .iter()
                .find(|l| l.starts_with("ready "))
                .and_then(|l| click_lines(l).ok())
                .expect("the dashboard set-up echoes its button geometry");
            for id in 0..ops {
                match g.op(id) {
                    GuiOp::Update(line) => e.step(&line, &mut r),
                    GuiOp::Click(b) => e.step(&clicks[b], &mut r),
                };
            }
        }
        Workload::SessionCycle => {
            let mut g = CycleGen::new(seed);
            for id in 0..ops {
                // Each op is a fresh session; its creation is measured
                // apart, by `session_cost`.
                e = Engine::new();
                let op = g.op(id);
                e.step(&op.build, &mut r);
                e.step(&op.probe, &mut r);
            }
        }
    }
    (r, e.engine.session)
}

/// Median µs of each snapshot step on `session`, and the snapshot size.
pub struct SnapCost {
    pub capture_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub restore_into_us: f64,
    pub bytes: usize,
}

pub fn snapshot_cost(session: &WafeSession, reps: usize) -> SnapCost {
    let mut t = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut bytes = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let snap = SessionSnapshot::capture(session, Vec::new());
        let t1 = Instant::now();
        let blob = snap.encode();
        let t2 = Instant::now();
        let back = SessionSnapshot::decode(&blob).expect("a fresh snapshot decodes");
        let t3 = Instant::now();
        let mut fresh = WafeSession::new(Flavor::Athena);
        let t4 = Instant::now();
        std::hint::black_box(back.restore_into(&mut fresh));
        let t5 = Instant::now();
        for (i, d) in [t1 - t0, t2 - t1, t3 - t2, t5 - t4].into_iter().enumerate() {
            t[i].push(d.as_secs_f64() * 1e6);
        }
        bytes = blob.len();
    }
    SnapCost {
        capture_us: stats::median(&t[0]),
        encode_us: stats::median(&t[1]),
        decode_us: stats::median(&t[2]),
        restore_into_us: stats::median(&t[3]),
        bytes,
    }
}

/// `WafeSession::new`: median µs over `n` creations, and resident KiB
/// per session with all `n` alive.
pub fn session_cost(n: usize) -> (f64, f64) {
    let rss0 = procfs::rss_kb("self");
    let mut alive = Vec::with_capacity(n);
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        alive.push(WafeSession::new(Flavor::Athena));
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let rss1 = procfs::rss_kb("self");
    drop(alive);
    (
        stats::median(&us),
        rss1.saturating_sub(rss0) as f64 / n as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_classify_the_streams() {
        assert_eq!(verb("%set v1 abc"), 0);
        assert_eq!(verb("%echo 3 [set v1]"), 0);
        assert_eq!(verb("%sV r0c1 label {x}"), 1);
        assert_eq!(verb("%display event 5745"), 2);
        assert_eq!(verb("%display attach"), 0);
        assert_eq!(verb("%label w0 f label {x}"), 3);
        assert_eq!(verb("%realize"), 4);
    }

    #[test]
    fn gui_replay_builds_one_decodable_frame_per_op() {
        let (r, _) = replay(Workload::GuiFrames, 5, 40);
        assert_eq!(r.bad_frames, 0);
        // The attach frame plus one per op.
        assert_eq!(r.frames(), 41);
        assert_eq!(r.full_frames, 1);
        assert!(r.eval[1].n > 0 && r.eval[2].n > 0 && r.eval[3].n > 0 && r.eval[4].n == 1);
    }
}
