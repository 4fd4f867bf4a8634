//! The load generator: single-threaded, closed-loop drivers for the four
//! workloads over blocking loopback sockets. Every reply is checked:
//! echo streams against a local `ProtocolEngine` replay, frames by
//! decoding them, restores by the state they echo back.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use wafe_core::Flavor;
use wafe_display::{from_hex, to_hex, Frame, InputEvent};
use wafe_ipc::ProtocolEngine;

use crate::gen::{BurstGen, CycleGen, GuiGen, GuiOp, LineGen, Rng, Workload, BUTTONS, WINDOW};
use crate::trace::{Spans, CUR_OP};

/// A reply missing for this long fails its op and ends the run.
pub const OP_DEADLINE: Duration = Duration::from_secs(2);

/// The client socket options every workload uses.
pub const SOCKET_OPTIONS: &str =
    "tcp 127.0.0.1, TCP_NODELAY on, blocking I/O, 2 s read/write timeout, one write per op";

/// Bytes moved in both directions by every [`Conn`].
pub static WIRE_BYTES: AtomicU64 = AtomicU64::new(0);

/// One client connection with a line reader.
pub struct Conn {
    s: TcpStream,
    buf: Vec<u8>,
    head: usize,
    scan: usize,
    chunk: Box<[u8]>,
}

impl Conn {
    pub fn open(addr: SocketAddr, sp: &mut Spans) -> Result<Conn, String> {
        let c = sp.begin("client.connect", CUR_OP.load(Ordering::Relaxed));
        let s = TcpStream::connect_timeout(&addr, OP_DEADLINE);
        sp.end(c);
        let s = s.map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(OP_DEADLINE))
            .map_err(|e| e.to_string())?;
        s.set_write_timeout(Some(OP_DEADLINE))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            s,
            buf: Vec::new(),
            head: 0,
            scan: 0,
            chunk: vec![0u8; 64 * 1024].into_boxed_slice(),
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.s.write_all(bytes).map_err(|e| format!("write: {e}"))?;
        WIRE_BYTES.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// A complete line already read, without blocking.
    pub fn buffered(&mut self) -> Option<String> {
        match self.buf[self.scan..].iter().position(|&b| b == b'\n') {
            Some(off) => {
                let end = self.scan + off;
                let line = String::from_utf8_lossy(&self.buf[self.head..end]).into_owned();
                self.head = end + 1;
                self.scan = self.head;
                Some(line)
            }
            None => {
                self.scan = self.buf.len();
                None
            }
        }
    }

    /// The next line, blocking up to the op deadline.
    pub fn line(&mut self, sp: &mut Spans) -> Result<String, String> {
        loop {
            if let Some(line) = self.buffered() {
                return Ok(line);
            }
            if self.head > 0 {
                self.buf.drain(..self.head);
                self.scan -= self.head;
                self.head = 0;
            }
            let wait = sp.begin("client.wait", CUR_OP.load(Ordering::Relaxed));
            let r = self.s.read(&mut self.chunk);
            sp.end(wait);
            match r {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&self.chunk[..n]);
                    WIRE_BYTES.fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("no reply within the op deadline: {e}")),
            }
        }
    }

    /// The next line, which must be `want`.
    pub fn expect(&mut self, want: &str, sp: &mut Spans) -> Result<(), String> {
        let got = self.line(sp)?;
        if got == want {
            Ok(())
        } else {
            Err(format!("expected {want:?}, got {:?}", clip(&got)))
        }
    }
}

/// Sleeps a seeded 0-1 ms before a session is opened, so opens do not
/// lock onto the phase of the worker's 1 ms idle poll.
fn pause(rng: &mut Rng) {
    std::thread::sleep(Duration::from_micros(rng.range(0, 1000) as u64));
}

/// The seeded pauses of a run's session probe.
pub fn probe_pauses(seed: u64) -> Rng {
    Rng::new(seed ^ 0x7072_6f62)
}

fn clip(s: &str) -> &str {
    &s[..s.len().min(80)]
}

/// When a measured loop stops issuing ops.
#[derive(Clone, Copy)]
pub enum Stop {
    At(Instant),
    Ops(u64),
}

impl Stop {
    fn reached(self, done: u64) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= t,
            Stop::Ops(n) => done >= n,
        }
    }
}

/// What a measured loop observed.
#[derive(Default)]
pub struct Record {
    /// Start and end of every completed op, in ns on the span epoch.
    pub ops: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub frames: u64,
    pub opens_us: Vec<f64>,
    pub parks_us: Vec<f64>,
    pub restores_us: Vec<f64>,
}

impl Record {
    pub fn absorb(&mut self, other: Record) {
        self.ops.extend(other.ops);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.frames += other.frames;
        self.opens_us.extend(other.opens_us);
        self.parks_us.extend(other.parks_us);
        self.restores_us.extend(other.restores_us);
    }
}

fn us(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e3
}

/// One workload's client.
pub trait Driver {
    /// Connects and builds the workload's state.
    fn setup(&mut self, addr: SocketAddr, sp: &mut Spans) -> Result<(), String>;
    /// Runs closed-loop ops until `stop`, then lets the ops in flight
    /// finish. An `Err` ends the run; the ops it cut are counted failed.
    fn run(&mut self, stop: Stop, rec: &mut Record, sp: &mut Spans) -> Result<(), String>;
    /// Checks the replies `run` stored; returns how many were wrong.
    fn verify(&mut self) -> u64 {
        0
    }
    /// The long-lived session the park/restore probe cycles.
    fn live(&mut self) -> Option<&mut Conn>;
    /// Re-arms per-connection state after the live session was restored
    /// into a new connection.
    fn reattach(&mut self, _sp: &mut Spans) -> Result<(), String> {
        Ok(())
    }
    /// Ops run as warm-up at the end of set-up.
    fn warmup_ops(&self) -> u64;
}

pub fn driver(w: Workload, seed: u64) -> Box<dyn Driver> {
    match w {
        Workload::LineRtt => Box::new(EchoDriver::new(EchoGen::Line(LineGen::new(seed)), seed)),
        Workload::BurstFlush => {
            Box::new(EchoDriver::new(EchoGen::Burst(BurstGen::new(seed)), seed))
        }
        Workload::GuiFrames => Box::new(GuiDriver::new(seed, true)),
        Workload::SessionCycle => Box::new(CycleDriver::new(seed)),
    }
}

/// The session probe's twin of a workload session: the same set-up,
/// except that a `gui_frames` twin has no display attached. Its
/// framebuffer, freed and allocated again with every park and restore,
/// made the server's RSS read either 16 or 19 MB from run to run.
pub fn twin(w: Workload, seed: u64) -> Box<dyn Driver> {
    match w {
        Workload::GuiFrames => Box::new(GuiDriver::new(seed, false)),
        _ => driver(w, seed),
    }
}

/// The two echo-checked streams.
enum EchoGen {
    Line(LineGen),
    Burst(BurstGen),
}

impl EchoGen {
    fn setup(&mut self) -> String {
        match self {
            EchoGen::Line(_) => "%echo ready\n".into(),
            EchoGen::Burst(g) => g.setup(),
        }
    }
    fn op(&mut self, id: u64) -> String {
        match self {
            EchoGen::Line(g) => g.op(id),
            EchoGen::Burst(g) => g.op(id).0,
        }
    }
    fn window(&self) -> usize {
        match self {
            EchoGen::Line(_) => WINDOW,
            EchoGen::Burst(_) => 1,
        }
    }
    fn same(&self, seed: u64) -> EchoGen {
        match self {
            EchoGen::Line(_) => EchoGen::Line(LineGen::new(seed)),
            EchoGen::Burst(_) => EchoGen::Burst(BurstGen::new(seed)),
        }
    }
}

/// `line_rtt` and `burst_flush`: ops whose one reply is `<id> …`,
/// checked byte-for-byte against a local engine fed the same stream.
struct EchoDriver {
    gen: EchoGen,
    conn: Option<Conn>,
    next: u64,
    inflight: VecDeque<(u64, u64)>,
    /// Replies not yet verified, newline-separated, in op order.
    replies: String,
    oracle_gen: EchoGen,
    oracle: ProtocolEngine,
    oracle_next: u64,
}

impl EchoDriver {
    fn new(gen: EchoGen, seed: u64) -> EchoDriver {
        let mut oracle_gen = gen.same(seed);
        let mut oracle = ProtocolEngine::new(Flavor::Athena);
        for line in oracle_gen.setup().lines() {
            let _ = oracle.handle_line(line);
        }
        let _ = oracle.take_app_lines();
        EchoDriver {
            gen,
            conn: None,
            next: 0,
            inflight: VecDeque::new(),
            replies: String::new(),
            oracle_gen,
            oracle,
            oracle_next: 0,
        }
    }

    /// Appends the next op to `batch`.
    fn issue(&mut self, batch: &mut String, now_ns: u64) {
        let id = self.next;
        self.next += 1;
        batch.push_str(&self.gen.op(id));
        self.inflight.push_back((id, now_ns));
        CUR_OP.store(id as u32, Ordering::Relaxed);
    }
}

impl Driver for EchoDriver {
    fn setup(&mut self, addr: SocketAddr, sp: &mut Spans) -> Result<(), String> {
        let mut conn = Conn::open(addr, sp)?;
        conn.send(self.gen.setup().as_bytes())?;
        conn.expect("ready", sp)?;
        self.conn = Some(conn);
        Ok(())
    }

    fn run(&mut self, stop: Stop, rec: &mut Record, sp: &mut Spans) -> Result<(), String> {
        let mut conn = self.conn.take().ok_or("not set up")?;
        let r = self.run_on(&mut conn, stop, rec, sp);
        self.conn = Some(conn);
        if r.is_err() {
            rec.failed += self.inflight.len() as u64;
            self.inflight.clear();
        }
        r
    }

    fn verify(&mut self) -> u64 {
        let mut bad = 0;
        for reply in std::mem::take(&mut self.replies).lines() {
            let id = self.oracle_next;
            self.oracle_next += 1;
            for line in self.oracle_gen.op(id).lines() {
                let _ = self.oracle.handle_line(line);
            }
            let want = self.oracle.take_app_lines();
            if want.len() != 1 || want[0] != reply {
                bad += 1;
            }
        }
        bad
    }

    fn live(&mut self) -> Option<&mut Conn> {
        self.conn.as_mut()
    }

    fn warmup_ops(&self) -> u64 {
        match self.gen {
            EchoGen::Line(_) => 2000,
            EchoGen::Burst(_) => 100,
        }
    }
}

impl EchoDriver {
    fn run_on(
        &mut self,
        conn: &mut Conn,
        stop: Stop,
        rec: &mut Record,
        sp: &mut Spans,
    ) -> Result<(), String> {
        let mut done = 0u64;
        let mut batch = String::new();
        let send = sp.begin("client.send", self.next as u32);
        while self.inflight.len() < self.gen.window() {
            self.issue(&mut batch, sp.now_ns());
            rec.attempted += 1;
        }
        conn.send(batch.as_bytes())?;
        sp.end(send);
        let mut stopping = false;
        while !self.inflight.is_empty() {
            let mut line = Some(conn.line(sp)?);
            let now = sp.now_ns();
            let verify = sp.begin("client.verify", CUR_OP.load(Ordering::Relaxed));
            let mut completed = 0;
            while let Some(l) = line {
                if l.starts_with('!') {
                    rec.failed += 1;
                } else {
                    let (id, start) = self
                        .inflight
                        .pop_front()
                        .ok_or_else(|| format!("reply with no op in flight: {:?}", clip(&l)))?;
                    if l.split(' ').next() != Some(id.to_string().as_str()) {
                        return Err(format!("reply out of order for op {id}: {:?}", clip(&l)));
                    }
                    self.replies.push_str(&l);
                    self.replies.push('\n');
                    rec.ops.push((start, now));
                    completed += 1;
                    done += 1;
                }
                line = conn.buffered();
            }
            sp.end(verify);
            stopping = stopping || stop.reached(done);
            if !stopping && completed > 0 {
                let send = sp.begin("client.send", self.next as u32);
                batch.clear();
                for _ in 0..completed {
                    self.issue(&mut batch, now);
                    rec.attempted += 1;
                }
                conn.send(batch.as_bytes())?;
                sp.end(send);
            }
        }
        Ok(())
    }
}

/// `gui_frames`: label updates and remote clicks on a realized,
/// display-attached dashboard; every frame is decoded and its sequence
/// number checked.
struct GuiDriver {
    gen: GuiGen,
    /// Whether the dashboard is attached to the remote display.
    display: bool,
    conn: Option<Conn>,
    next: u64,
    seq: u64,
    clicks: u64,
    click_lines: Vec<String>,
}

impl GuiDriver {
    fn new(seed: u64, display: bool) -> GuiDriver {
        GuiDriver {
            gen: GuiGen::new(seed),
            display,
            conn: None,
            next: 0,
            seq: 0,
            clicks: 0,
            click_lines: Vec::new(),
        }
    }
}

/// The `%display event` pair that clicks the middle of a widget.
pub fn click_line(x: i32, y: i32) -> String {
    let ev = |press| {
        to_hex(
            &InputEvent::Button {
                button: 1,
                press,
                x,
                y,
            }
            .encode(),
        )
    };
    format!(
        "%display event {}\n%display event {}\n",
        ev(true),
        ev(false)
    )
}

/// Button click lines from the dashboard's `ready x y w h …` echo.
pub fn click_lines(ready: &str) -> Result<Vec<String>, String> {
    let nums: Vec<i32> = ready
        .split(' ')
        .skip(1)
        .map(|w| w.parse().map_err(|_| format!("bad geometry in {ready:?}")))
        .collect::<Result<_, _>>()?;
    if nums.len() != 4 * BUTTONS {
        return Err(format!("bad geometry in {ready:?}"));
    }
    Ok(nums
        .chunks(4)
        .map(|g| click_line(g[0] + g[2] / 2, g[1] + g[3] / 2))
        .collect())
}

/// Decodes a `!display frame <hex>` line.
pub fn decode_frame(line: &str, sp: &mut Spans) -> Result<Frame, String> {
    let d = sp.begin("client.frame_decode", CUR_OP.load(Ordering::Relaxed));
    let r = line
        .strip_prefix("!display frame ")
        .ok_or_else(|| "not a frame".to_string())
        .and_then(|hex| from_hex(hex).map_err(|e| e.to_string()))
        .and_then(|bytes| Frame::decode(&bytes).map_err(|e| e.to_string()));
    sp.end(d);
    r
}

impl Driver for GuiDriver {
    fn setup(&mut self, addr: SocketAddr, sp: &mut Spans) -> Result<(), String> {
        let mut conn = Conn::open(addr, sp)?;
        conn.send(self.gen.setup(self.display).as_bytes())?;
        let ready = conn.line(sp)?;
        if !ready.starts_with("ready ") {
            return Err(format!("dashboard set-up replied {:?}", clip(&ready)));
        }
        self.click_lines = click_lines(&ready)?;
        if self.display {
            let first = decode_frame(&conn.line(sp)?, sp)?;
            if !first.full || first.seq != 1 {
                return Err("the attach frame must be full with seq 1".into());
            }
            self.seq = 1;
        }
        self.conn = Some(conn);
        Ok(())
    }

    fn run(&mut self, stop: Stop, rec: &mut Record, sp: &mut Spans) -> Result<(), String> {
        let mut conn = self.conn.take().ok_or("not set up")?;
        let mut done = 0;
        let mut r = Ok(());
        while !stop.reached(done) {
            rec.attempted += 1;
            match self.op(&mut conn, rec, sp) {
                Ok(()) => done += 1,
                Err(e) => {
                    rec.failed += 1;
                    r = Err(e);
                    break;
                }
            }
        }
        self.conn = Some(conn);
        r
    }

    fn live(&mut self) -> Option<&mut Conn> {
        self.conn.as_mut()
    }

    fn warmup_ops(&self) -> u64 {
        200
    }

    /// The display attachment belongs to the connection: attach again
    /// and take the full frame it ships.
    fn reattach(&mut self, sp: &mut Spans) -> Result<(), String> {
        if !self.display {
            return Ok(());
        }
        let conn = self.conn.as_mut().ok_or("not set up")?;
        conn.send(b"%display attach\n")?;
        let frame = decode_frame(&conn.line(sp)?, sp)?;
        if !frame.full {
            return Err("the attach frame must be full".into());
        }
        self.seq = frame.seq;
        Ok(())
    }
}

impl GuiDriver {
    /// One op: done when its frame has decoded and, for a click, the
    /// callback's echo has arrived.
    fn op(&mut self, conn: &mut Conn, rec: &mut Record, sp: &mut Spans) -> Result<(), String> {
        let id = self.next;
        self.next += 1;
        CUR_OP.store(id as u32, Ordering::Relaxed);
        let start = sp.now_ns();
        let send = sp.begin("client.send", id as u32);
        let mut echo = None;
        match self.gen.op(id) {
            GuiOp::Update(line) => conn.send(line.as_bytes())?,
            GuiOp::Click(b) => {
                self.clicks += 1;
                echo = Some(format!("click {b} {}", self.clicks));
                conn.send(self.click_lines[b].as_bytes())?;
            }
        }
        sp.end(send);
        let mut framed = false;
        let mut bad = false;
        while !framed || echo.is_some() {
            let line = conn.line(sp)?;
            let verify = sp.begin("client.verify", id as u32);
            if line.starts_with("!display frame ") {
                match decode_frame(&line, sp) {
                    Ok(f) if f.seq == self.seq + 1 && !f.full && !f.rects.is_empty() => {}
                    _ => bad = true,
                }
                self.seq += 1;
                rec.frames += 1;
                framed = true;
            } else if echo.as_deref() == Some(line.as_str()) {
                echo = None;
            } else {
                bad = true;
            }
            sp.end(verify);
        }
        if bad {
            rec.failed += 1;
        }
        rec.ops.push((start, sp.now_ns()));
        Ok(())
    }
}

/// `session_cycle`: open, build, park, close, reopen, restore, verify.
struct CycleDriver {
    gen: CycleGen,
    addr: Option<SocketAddr>,
    next: u64,
    pauses: Rng,
}

impl CycleDriver {
    fn new(seed: u64) -> CycleDriver {
        CycleDriver {
            gen: CycleGen::new(seed),
            addr: None,
            next: 0,
            pauses: Rng::new(seed ^ 0x7061_7573),
        }
    }
}

/// Connects and completes the `%echo hello` handshake; returns the
/// connection and the open time in µs.
pub fn open_session(addr: SocketAddr, tag: u64, sp: &mut Spans) -> Result<(Conn, f64), String> {
    let t0 = sp.now_ns();
    let mut conn = Conn::open(addr, sp)?;
    conn.send(format!("%echo hello {tag}\n").as_bytes())?;
    conn.expect(&format!("hello {tag}"), sp)?;
    Ok((conn, us(t0, sp.now_ns())))
}

/// Parks the session on `conn` (frame notices in between are skipped)
/// and returns its id and the park time in µs.
pub fn park(conn: &mut Conn, sp: &mut Spans) -> Result<(String, f64), String> {
    let t0 = sp.now_ns();
    conn.send(b"%session park\n")?;
    loop {
        let line = conn.line(sp)?;
        if let Some(id) = line.strip_prefix("!parked ") {
            return Ok((id.to_string(), us(t0, sp.now_ns())));
        }
        if !line.starts_with("!display frame ") {
            return Err(format!("park replied {:?}", clip(&line)));
        }
    }
}

/// Restores parked session `id` into `conn`; returns the restore time
/// in µs.
pub fn restore(conn: &mut Conn, id: &str, sp: &mut Spans) -> Result<f64, String> {
    let t0 = sp.now_ns();
    conn.send(format!("%session restore {id}\n").as_bytes())?;
    conn.expect(&format!("!restored {id}"), sp)?;
    Ok(us(t0, sp.now_ns()))
}

impl Driver for CycleDriver {
    fn setup(&mut self, addr: SocketAddr, sp: &mut Spans) -> Result<(), String> {
        open_session(addr, u64::MAX, sp)?;
        self.addr = Some(addr);
        Ok(())
    }

    fn run(&mut self, stop: Stop, rec: &mut Record, sp: &mut Spans) -> Result<(), String> {
        let addr = self.addr.ok_or("not set up")?;
        let mut done = 0;
        while !stop.reached(done) {
            let id = self.next;
            self.next += 1;
            CUR_OP.store(id as u32, Ordering::Relaxed);
            pause(&mut self.pauses);
            rec.attempted += 1;
            let start = sp.now_ns();
            if let Err(e) = self.cycle(addr, id, rec, sp) {
                rec.failed += 1;
                return Err(e);
            }
            rec.ops.push((start, sp.now_ns()));
            done += 1;
        }
        Ok(())
    }

    fn live(&mut self) -> Option<&mut Conn> {
        None
    }

    fn warmup_ops(&self) -> u64 {
        50
    }
}

impl CycleDriver {
    fn cycle(
        &mut self,
        addr: SocketAddr,
        id: u64,
        rec: &mut Record,
        sp: &mut Spans,
    ) -> Result<(), String> {
        let op = self.gen.op(id);
        let (mut conn, open) = open_session(addr, id, sp)?;
        rec.opens_us.push(open);
        conn.send(op.build.as_bytes())?;
        conn.expect(&format!("built {id}"), sp)?;
        let (sid, park_us) = park(&mut conn, sp)?;
        rec.parks_us.push(park_us);
        drop(conn);
        let (mut conn, open) = open_session(addr, id, sp)?;
        rec.opens_us.push(open);
        rec.restores_us.push(restore(&mut conn, &sid, sp)?);
        conn.send(op.probe.as_bytes())?;
        conn.expect(&op.expect, sp)
    }
}

/// How long a session probe waits, after closing its connections, for
/// the server to tear their sessions down. Client and server share one
/// CPU, so the server runs while the probe sleeps.
const SETTLE: Duration = Duration::from_millis(2);

/// Session opens, then park/restore cycles of `drv`'s live session,
/// each restore verified by a token the session holds. Every open
/// follows a seeded [`pause`], as a client arriving at a random moment
/// would; back to back, opens lock onto one phase of the worker's idle
/// poll, and which phase changed from run to run. The probe closes
/// its connections only at the end and then waits [`SETTLE`], so no
/// park, and no op of the caller's next measured stretch, waits behind
/// the teardown of a closed session.
pub fn probe_sessions(
    drv: &mut dyn Driver,
    addr: SocketAddr,
    opens: usize,
    cycles: usize,
    rng: &mut Rng,
    rec: &mut Record,
    sp: &mut Spans,
) -> Result<(), String> {
    let mut done = Vec::with_capacity(opens + cycles);
    for i in 0..opens {
        pause(rng);
        let (conn, open) = open_session(addr, i as u64, sp)?;
        rec.opens_us.push(open);
        done.push(conn);
    }
    if let Some(conn) = drv.live() {
        let token = rng.word(12);
        conn.send(format!("%set probe_token {token}\n").as_bytes())?;
        for i in 0..cycles {
            let (sid, park_us) = park(conn, sp)?;
            rec.parks_us.push(park_us);
            pause(rng);
            let (mut fresh, open) = open_session(addr, i as u64, sp)?;
            rec.opens_us.push(open);
            rec.restores_us.push(restore(&mut fresh, &sid, sp)?);
            fresh.send(b"%echo token [set probe_token]\n")?;
            fresh.expect(&format!("token {token}"), sp)?;
            done.push(std::mem::replace(conn, fresh));
        }
        if cycles > 0 {
            drv.reattach(sp)?;
        }
    }
    drop(done);
    std::thread::sleep(SETTLE);
    Ok(())
}
