//! waferd — the Wafe multi-session server daemon.
//!
//! Hosts many concurrent frontend-protocol sessions (one headless
//! `WafeSession` per connection) over TCP and/or Unix sockets. The wire
//! protocol is exactly frontend mode's: `%`-prefixed lines are Wafe
//! commands, other lines pass through (logged with a `[slot:gen]` tag),
//! and the session's application-bound messages (echo output, GUI
//! events) come back line by line. See `docs/serve.md`.
//!
//! ```text
//! waferd [--listen ADDR] [--unix PATH] [--max-sessions N]
//!        [--queue-depth N] [--workers N] [--idle-evict MS]
//!        [--drain-timeout MS] [--telemetry] [--metrics ADDR]
//!        [--park-dir DIR] [--accept-backoff MS] [--motif] [--quiet]
//! ```
//!
//! `--metrics ADDR` opens a second TCP listener that answers every
//! connection with one Prometheus text-exposition page of the
//! server-wide counters (the `serve.server.*` rows and every rolled-up
//! session counter's total) and closes — scrape-friendly without an HTTP
//! stack. The server runs until a client issues `%serve drain`.
//!
//! `--park-dir DIR` persists parked session snapshots (idle eviction,
//! `%session park`) to DIR and makes the graceful drain park every
//! live session, so `%serve drain` + restart + `%session restore
//! <slot:gen>` is a rolling restart that loses no session state. See
//! `docs/checkpoint.md`.
//!
//! `--display-http ADDR` opens the browser display bridge: `GET /`
//! serves a static `<canvas>` client, `GET /stream` opens a loopback
//! session, sends `%display attach` and relays its `!display frame
//! <hex>` notices as a streamed text body, and `POST /event` /
//! `POST /resync` write `%display event <hex>` / `%display frame`
//! back into that session. Requires `--listen`. See `docs/display.md`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wafe_core::Flavor;
use wafe_serve::{Registry, Server, ServerConfig};

const USAGE: &str = "usage: waferd [--listen ADDR] [--unix PATH] [--max-sessions N] \
[--queue-depth N] [--workers N] [--idle-evict MS] [--drain-timeout MS] \
[--telemetry] [--metrics ADDR] [--display-http ADDR] [--park-dir DIR] \
[--accept-backoff MS] [--motif] [--quiet]";

fn value(args: &mut dyn Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("waferd: {flag} needs a value\n{USAGE}");
        exit(2);
    })
}

fn numeric(args: &mut dyn Iterator<Item = String>, flag: &str) -> u64 {
    let v = value(args, flag);
    v.parse().unwrap_or_else(|_| {
        eprintln!("waferd: {flag} expects a non-negative integer, got \"{v}\"");
        exit(2);
    })
}

fn main() {
    let mut config = ServerConfig {
        log_passthrough: true,
        ..ServerConfig::default()
    };
    let mut metrics_addr: Option<String> = None;
    let mut display_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => config.tcp = Some(value(&mut args, "--listen")),
            "--unix" => config.unix = Some(PathBuf::from(value(&mut args, "--unix"))),
            "--max-sessions" => {
                config.limits.max_sessions = numeric(&mut args, "--max-sessions") as usize
            }
            "--queue-depth" => {
                config.limits.queue_depth = numeric(&mut args, "--queue-depth") as usize
            }
            "--workers" => config.workers = (numeric(&mut args, "--workers") as usize).max(1),
            "--idle-evict" => config.limits.idle_evict_ms = numeric(&mut args, "--idle-evict"),
            "--drain-timeout" => {
                config.limits.drain_timeout_ms = numeric(&mut args, "--drain-timeout")
            }
            "--telemetry" => config.telemetry = true,
            "--metrics" => metrics_addr = Some(value(&mut args, "--metrics")),
            "--display-http" => display_addr = Some(value(&mut args, "--display-http")),
            "--park-dir" => config.park_dir = Some(PathBuf::from(value(&mut args, "--park-dir"))),
            "--accept-backoff" => {
                config.accept_backoff_ms = numeric(&mut args, "--accept-backoff").max(1)
            }
            "--motif" => config.flavor = Flavor::Both,
            "--quiet" => config.log_passthrough = false,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("waferd: unknown option \"{other}\"\n{USAGE}");
                exit(2);
            }
        }
    }
    // Deterministic fault injection (chaos drills): validated here so
    // a typo in the spec is a loud startup error; the schedulers then
    // re-read the validated variable.
    if let Some(Err(e)) = wafe_ipc::FaultPlan::from_env() {
        eprintln!("waferd: invalid {}: {e}", wafe_ipc::FAULTS_ENV_VAR);
        exit(2);
    }
    if display_addr.is_some() && config.tcp.is_none() {
        eprintln!("waferd: --display-http needs --listen (the bridge dials the session port)");
        exit(2);
    }
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("waferd: cannot start: {e}");
            exit(2);
        }
    };
    if let Some(addr) = server.local_addr() {
        // Scripts parse this line to learn the picked port.
        println!("waferd listening tcp {addr}");
    }
    if let Some(addr) = metrics_addr {
        match start_metrics_listener(&addr, server.registry().clone()) {
            Ok(local) => println!("waferd metrics tcp {local}"),
            Err(e) => {
                eprintln!("waferd: cannot open metrics listener on {addr}: {e}");
                exit(2);
            }
        }
    }
    if let Some(addr) = display_addr {
        let session_addr = server.local_addr().expect("checked above: --listen is set");
        match start_display_listener(&addr, session_addr) {
            Ok(local) => println!("waferd display http {local}"),
            Err(e) => {
                eprintln!("waferd: cannot open display listener on {addr}: {e}");
                exit(2);
            }
        }
    }
    server.wait();
    println!("waferd drained");
}

/// The ops scrape endpoint: a detached thread that answers every
/// connection with one `HTTP/1.0` page of Prometheus text exposition
/// (the `serve.server.*` rows plus the server-wide totals of every
/// rolled-up session counter) and closes. Write-and-close is
/// deliberately request-agnostic: `curl`, `nc` and a real scraper all
/// get the same bytes, with no HTTP parser to maintain. The thread dies
/// with the process when the drain finishes.
fn start_metrics_listener(
    addr: &str,
    registry: std::sync::Arc<Registry>,
) -> std::io::Result<std::net::SocketAddr> {
    let listener = std::net::TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut pairs = registry.metrics_pairs();
            pairs.extend(registry.rollup_pairs());
            pairs.sort();
            let body = wafe_trace::export::prometheus_text(&pairs);
            let _ = stream.write_all(
                format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
        }
    });
    Ok(local)
}

/// The canvas client page, compiled into the binary so the bridge has
/// no runtime file dependency.
const DISPLAY_HTML: &str = include_str!("waferd_display.html");

/// The write halves of the bridge's open display sessions, keyed by
/// the token handed to each `/stream` client — `POST /event` looks its
/// session up here.
type DisplayPeers = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// The browser display bridge: a minimal HTTP/1.0 listener translating
/// between the web and the `%`-line protocol. Each `/stream` client
/// gets its own loopback session on the main listener — the bridge
/// adds no session semantics of its own, so a browser tab behaves
/// exactly like any other connected client.
fn start_display_listener(addr: &str, session_addr: SocketAddr) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let peers: DisplayPeers = Arc::new(Mutex::new(HashMap::new()));
    let next_token = Arc::new(AtomicU64::new(1));
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let peers = peers.clone();
            let next_token = next_token.clone();
            std::thread::spawn(move || {
                let _ = serve_display_request(stream, session_addr, &peers, &next_token);
            });
        }
    });
    Ok(local)
}

fn http_respond(
    stream: &mut TcpStream,
    status: &str,
    ctype: &str,
    body: &str,
) -> std::io::Result<()> {
    stream.write_all(
        format!(
            "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn serve_display_request(
    mut stream: TcpStream,
    session_addr: SocketAddr,
    peers: &DisplayPeers,
    next_token: &AtomicU64,
) -> std::io::Result<()> {
    // Read the request head (capped — anything bigger is not ours).
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") && head.len() < 8192 {
        if stream.read(&mut byte)? == 0 {
            return Ok(());
        }
        head.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head.lines();
    let request = lines.next().unwrap_or("");
    let mut parts = request.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    match (method, path) {
        ("GET", "/") => http_respond(&mut stream, "200 OK", "text/html", DISPLAY_HTML),
        ("GET", "/stream") => serve_display_stream(stream, session_addr, peers, next_token),
        ("POST", "/event") | ("POST", "/resync") => {
            let mut body = vec![0u8; content_length.min(1 << 20)];
            stream.read_exact(&mut body)?;
            let body = String::from_utf8_lossy(&body);
            // Body: "<token> <payload>"; the payload is the event hex
            // for /event and empty for /resync.
            let (token, payload) = body.trim().split_once(' ').unwrap_or((body.trim(), ""));
            let Some(token) = token.parse::<u64>().ok() else {
                return http_respond(&mut stream, "400 Bad Request", "text/plain", "bad token\n");
            };
            let line = if path == "/event" {
                if payload.is_empty() || !payload.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return http_respond(
                        &mut stream,
                        "400 Bad Request",
                        "text/plain",
                        "bad event hex\n",
                    );
                }
                format!("%display event {payload}\n")
            } else {
                "%display frame\n".to_string()
            };
            let sess = peers
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .get(&token)
                .and_then(|s| s.try_clone().ok());
            match sess {
                Some(mut sess) => {
                    sess.write_all(line.as_bytes())?;
                    http_respond(&mut stream, "200 OK", "text/plain", "ok\n")
                }
                None => http_respond(
                    &mut stream,
                    "404 Not Found",
                    "text/plain",
                    "no such stream\n",
                ),
            }
        }
        _ => http_respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

/// One browser tab's frame stream: dial the session port, attach the
/// display, then relay every `!`-notice line (frames included) as a
/// streamed response body. The first body line is `token <n>` — the
/// handle `POST /event` uses to reach this same session. When either
/// side hangs up the other is closed too, ending the session.
fn serve_display_stream(
    mut stream: TcpStream,
    session_addr: SocketAddr,
    peers: &DisplayPeers,
    next_token: &AtomicU64,
) -> std::io::Result<()> {
    let mut sess = TcpStream::connect(session_addr)?;
    sess.write_all(b"%display attach\n")?;
    let token = next_token.fetch_add(1, Ordering::Relaxed);
    peers
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .insert(token, sess.try_clone()?);
    let result = (|| {
        stream.write_all(
            b"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\nCache-Control: no-store\r\n\r\n",
        )?;
        stream.write_all(format!("token {token}\n").as_bytes())?;
        for line in BufReader::new(sess.try_clone()?).lines() {
            let line = line?;
            if line.starts_with('!') {
                stream.write_all(line.as_bytes())?;
                stream.write_all(b"\n")?;
            }
        }
        Ok(())
    })();
    peers
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .remove(&token);
    let _ = sess.shutdown(std::net::Shutdown::Both);
    result
}
