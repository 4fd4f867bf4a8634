//! E24 — waferd at scale: the readiness-driven event loop.
//!
//! E22 proved correctness at 64 clients; this experiment pushes the
//! poll(2) event loop to 1k / 4k / 10k *simultaneously connected*
//! sessions against a real `waferd` child process (spawned so the
//! server's fd budget is its own, not the harness's). Each client runs
//! paced `%set`/`%echo` round trips; the harness itself is poll-driven
//! (one thread, nonblocking sockets through the same [`SysPoller`] the
//! server uses), because 10k blocking client threads would measure the
//! harness, not the server.
//!
//! Reported per scale: **commands/sec**, **dispatch p50/p99** (enqueue
//! of a round trip to its reply, microseconds) and peak active
//! sessions. Every reply is checked byte-for-byte against a local
//! [`ProtocolEngine`] fed the same lines. Acceptance is peak_active ==
//! clients at every scale and zero mismatches.
//!
//! `WAFE_E24_CLIENTS=N` switches to smoke mode: one scale of N
//! clients, results to `target/BENCH_e24_smoke.json` (CI runs N=256).
//! Full runs write `BENCH_e24.json` at the workspace root.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use bench::{criterion_group, criterion_main, workspace_root, Criterion};
use wafe_core::Flavor;
use wafe_ipc::{Interest, Poller, ProtocolEngine, SysPoller};

const SCALES: [usize; 3] = [1000, 4000, 10000];

/// Round trips per client, sized so every scale moves ~80k commands
/// (2 commands per trip) in a comparable measurement window.
fn trips_for(clients: usize) -> usize {
    (40_000 / clients).clamp(4, 40)
}

/// A `waferd` child process; killed (not drained) on drop so a panic
/// mid-measurement cannot leak a listener.
struct Waferd {
    child: Child,
    addr: std::net::SocketAddr,
}

impl Waferd {
    fn spawn() -> Waferd {
        let bin = workspace_root().join("target/release/waferd");
        assert!(
            bin.exists(),
            "{} missing — run `cargo build --release` first",
            bin.display()
        );
        let mut child = Command::new(&bin)
            .args([
                "--listen",
                "127.0.0.1:0",
                "--quiet",
                "--max-sessions",
                "12000",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn waferd");
        let mut banner = String::new();
        BufReader::new(child.stdout.take().expect("waferd stdout"))
            .read_line(&mut banner)
            .expect("read waferd banner");
        let addr = banner
            .trim_end()
            .strip_prefix("waferd listening tcp ")
            .unwrap_or_else(|| panic!("unexpected waferd banner: {banner:?}"))
            .parse()
            .expect("waferd addr");
        Waferd { child, addr }
    }
}

impl Drop for Waferd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One nonblocking client connection's state machine.
struct Client {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    warmed: bool,
    trips_done: usize,
    sent_at: Instant,
    got: Vec<String>,
}

impl Client {
    /// Flushes the pending write buffer; true if bytes remain (the
    /// caller should keep write interest armed).
    fn flush(&mut self) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) => panic!("client write: {e}"),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        false
    }

    /// Drains readable bytes and returns the complete lines.
    fn read_lines(&mut self) -> Vec<String> {
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => panic!("server closed a client connection mid-run"),
                Ok(n) => self.rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("client read: {e}"),
            }
        }
        let mut lines = Vec::new();
        while let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') {
            let rest = self.rbuf.split_off(pos + 1);
            self.rbuf.pop();
            lines.push(String::from_utf8_lossy(&self.rbuf).into_owned());
            self.rbuf = rest;
        }
        lines
    }

    fn enqueue_trip(&mut self, c: usize, i: usize, now: Instant) {
        self.wbuf
            .extend_from_slice(format!("%set v c{c}-{i}\n%echo [set v]\n").as_bytes());
        self.sent_at = now;
    }
}

struct Measured {
    clients: usize,
    commands_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    peak_active: usize,
    mismatches: usize,
}

fn percentile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx] as f64
}

/// Runs the full workload at one scale.
fn measure(clients: usize) -> Measured {
    let trips = trips_for(clients);
    let server = Waferd::spawn();
    let mut poller = SysPoller::new();
    let mut ready = Vec::new();
    let mut conns: Vec<Client> = Vec::with_capacity(clients);

    // Connect and send the warmup line while still blocking — the
    // accept loop drains continuously, so sequential connects never
    // overflow the listen backlog.
    use std::os::unix::io::AsRawFd;
    for _ in 0..clients {
        let mut stream = TcpStream::connect(server.addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream.write_all(b"%echo warm\n").expect("warmup write");
        stream.set_nonblocking(true).expect("set_nonblocking");
        conns.push(Client {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            warmed: false,
            trips_done: 0,
            sent_at: Instant::now(),
            got: Vec::with_capacity(trips),
        });
    }
    // Indexed by token: a client's write interest flips in place.
    let mut interests: Vec<Interest> = conns
        .iter()
        .enumerate()
        .map(|(t, c)| Interest::read(t, c.stream.as_raw_fd()))
        .collect();

    // Phase 1: every session answers its warmup — proof all `clients`
    // sessions are attached before the clock starts.
    let mut pending = clients;
    while pending > 0 {
        poller.wait(&interests, 100, &mut ready).expect("poll");
        for r in &ready {
            let c = &mut conns[r.token];
            for line in c.read_lines() {
                assert_eq!(line, "warm", "warmup reply");
                c.warmed = true;
                pending -= 1;
            }
        }
    }

    // Peak concurrency, observed from inside the server while every
    // client is connected: `serve status` word 3 is the active count
    // (minus one for the operator session asking).
    let peak_active = {
        let op = TcpStream::connect(server.addr).expect("operator connect");
        let mut reader = BufReader::new(op.try_clone().unwrap());
        let mut w = op;
        w.write_all(b"%echo [lindex [serve status] 3]\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().parse::<usize>().expect("active count") - 1
    };

    // Phase 2: the measured window. Every client starts a paced
    // round-trip loop; a reply releases the next trip.
    let start = Instant::now();
    let mut latencies_us: Vec<u64> = Vec::with_capacity(clients * trips);
    for (t, c) in conns.iter_mut().enumerate() {
        c.enqueue_trip(t, 0, start);
        interests[t].write = c.flush();
    }
    let mut pending = clients;
    while pending > 0 {
        poller.wait(&interests, 100, &mut ready).expect("poll");
        for r in &ready {
            let t = r.token;
            if r.writable && !conns[t].flush() {
                interests[t].write = false;
            }
            if !r.readable && !r.hup {
                continue;
            }
            let now = Instant::now();
            let mut finished_trips = 0usize;
            {
                let c = &mut conns[t];
                for line in c.read_lines() {
                    latencies_us.push(now.duration_since(c.sent_at).as_micros() as u64);
                    c.got.push(line);
                    c.trips_done += 1;
                    finished_trips += 1;
                    if c.trips_done < trips {
                        c.enqueue_trip(t, c.trips_done, now);
                    } else {
                        pending -= 1;
                    }
                }
            }
            if finished_trips > 0 && conns[t].trips_done < trips && conns[t].flush() {
                interests[t].write = true;
            }
        }
    }
    let elapsed = start.elapsed();

    // Byte identity: the same lines through a local ProtocolEngine.
    // Each trip is self-contained (%set then %echo), so one engine
    // verifies every client's stream.
    let mut engine = ProtocolEngine::new(Flavor::Athena);
    let mut mismatches = 0usize;
    for (t, c) in conns.iter().enumerate() {
        for (i, got) in c.got.iter().enumerate() {
            let _ = engine.handle_line(&format!("%set v c{t}-{i}"));
            let _ = engine.handle_line("%echo [set v]");
            let expected = engine.take_app_lines();
            if expected.len() != 1 || &expected[0] != got {
                mismatches += 1;
            }
        }
        if c.got.len() != trips {
            mismatches += 1;
        }
    }

    drop(conns);
    latencies_us.sort_unstable();
    let commands = (clients * trips * 2) as f64;
    Measured {
        clients,
        commands_per_sec: commands / elapsed.as_secs_f64(),
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
        peak_active,
        mismatches,
    }
}

fn write_json(results: &[Measured], path: &std::path::Path) {
    let mut out = String::from("{\n  \"experiment\": \"e24_serve_scale\",\n  \"workloads\": [\n");
    for (k, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"poll_c{}\", \"clients\": {}, \"commands_per_sec\": {:.0}, \"dispatch_p50_us\": {:.0}, \"dispatch_p99_us\": {:.0}, \"peak_active\": {}, \"mismatches\": {}}}{}\n",
            m.clients,
            m.clients,
            m.commands_per_sec,
            m.p50_us,
            m.p99_us,
            m.peak_active,
            m.mismatches,
            if k + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write e24 json");
    println!("  wrote {}", path.display());
}

fn bench(c: &mut Criterion) {
    let smoke: Option<usize> = std::env::var("WAFE_E24_CLIENTS")
        .ok()
        .map(|v| v.parse().expect("WAFE_E24_CLIENTS"));
    let scales: Vec<usize> = match smoke {
        Some(n) => vec![n],
        None => SCALES.to_vec(),
    };
    bench::banner(
        "E24",
        &format!("waferd at scale: readiness-driven event loop at {scales:?} concurrent clients"),
    );

    let mut results = Vec::new();
    for &clients in &scales {
        let m = measure(clients);
        bench::row(
            &format!("poll {clients} clients"),
            format!(
                "{:.0} commands/s  p50 {:.0}us  p99 {:.0}us  peak {}",
                m.commands_per_sec, m.p50_us, m.p99_us, m.peak_active
            ),
        );
        results.push(m);
    }

    // Acceptance: peak concurrency and byte identity at every scale.
    for m in &results {
        assert_eq!(
            m.peak_active, m.clients,
            "acceptance: every client held a live session ({} clients)",
            m.clients
        );
        assert_eq!(
            m.mismatches, 0,
            "acceptance: zero protocol corruption ({} clients)",
            m.clients
        );
    }

    let path = match smoke {
        Some(_) => workspace_root().join("target/BENCH_e24_smoke.json"),
        None => workspace_root().join("BENCH_e24.json"),
    };
    write_json(&results, &path);

    // A criterion-style group so E24 reports like the others: round
    // trip latency on one connection against a live waferd child.
    let mut group = c.benchmark_group("e24_serve_scale");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(1000));
    group.sample_size(11);
    group.bench_function("round_trip_child_process", |b| {
        let server = Waferd::spawn();
        let stream = TcpStream::connect(server.addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        let mut line = String::new();
        b.iter(|| {
            w.write_all(b"%echo ping\n").unwrap();
            w.flush().unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "ping");
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
