//! End-to-end tests over real sockets: many concurrent TCP clients, a
//! Unix-socket client, admission shedding on the wire and the graceful
//! drain. These assert on *completion and content only* — ordering and
//! timing stay in `serve_deterministic.rs` where the clock is virtual.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use wafe_serve::{Limits, Server, ServerConfig};

mod common;
use common::status;

fn start(limits: Limits) -> Server {
    Server::start(ServerConfig {
        limits,
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind 127.0.0.1:0")
}

#[test]
fn concurrent_tcp_clients_round_trip_without_crosstalk() {
    let server = start(Limits {
        max_sessions: 32,
        ..Limits::default()
    });
    let addr = server.local_addr().unwrap();
    let mut joins = Vec::new();
    for c in 0..16 {
        joins.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream;
            for i in 0..10 {
                w.write_all(format!("%set v c{c}-{i}\n%echo [set v]\n").as_bytes())
                    .unwrap();
                w.flush().unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert_eq!(line.trim_end(), format!("c{c}-{i}"), "client {c}");
            }
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }
    let registry = server.registry();
    assert_eq!(status(&registry, "accepted"), 16);
    assert_eq!(status(&registry, "commands"), 320);
    server.drain();
}

#[test]
fn unix_socket_speaks_the_same_protocol() {
    let path = std::env::temp_dir().join(format!("wafe-serve-test-{}.sock", std::process::id()));
    let server = Server::start(ServerConfig {
        tcp: None,
        unix: Some(path.clone()),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind unix socket");
    let stream = UnixStream::connect(&path).expect("connect unix");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;
    w.write_all(b"%echo over-unix\n").unwrap();
    w.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "over-unix");
    server.drain();
    assert!(!path.exists(), "socket file removed after drain");
}

#[test]
fn admission_shed_is_an_explicit_reply_on_the_wire() {
    let server = start(Limits {
        max_sessions: 1,
        ..Limits::default()
    });
    let addr = server.local_addr().unwrap();
    // First client occupies the single slot (a round-trip proves the
    // session is admitted, not just the TCP handshake done).
    let first = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(first.try_clone().unwrap());
    let mut w = first;
    w.write_all(b"%echo in\n").unwrap();
    w.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "in");
    // The second is shed with the reason, then disconnected.
    let second = TcpStream::connect(addr).unwrap();
    let mut r2 = BufReader::new(second);
    let mut shed = String::new();
    r2.read_line(&mut shed).unwrap();
    assert_eq!(shed.trim_end(), "!shed max-sessions");
    shed.clear();
    assert_eq!(r2.read_line(&mut shed).unwrap(), 0, "EOF after the shed");
    assert_eq!(status(&server.registry(), "shedAdmission"), 1);
    server.drain();
}

#[test]
fn a_client_command_drains_the_whole_server() {
    let server = start(Limits::default());
    let addr = server.local_addr().unwrap();
    let registry = server.registry();
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream;
    // Flush-behind-drain ordering is pinned down deterministically in
    // serve_deterministic.rs; on the wire we assert the lifecycle: the
    // work before the drain completes, then the server hangs up.
    w.write_all(b"%echo flushed\n%serve drain\n").unwrap();
    w.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "flushed");
    // …then the server hangs up and every thread exits.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "EOF after drain");
    server.wait();
    assert!(Arc::strong_count(&registry) >= 1);
    assert_eq!(registry.active(), 0);
    assert!(registry.draining());
}

#[test]
fn one_byte_writes_reassemble_across_park_and_restore_on_the_wire() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind 127.0.0.1:0");
    let addr = server.local_addr().unwrap();

    // Trickle every byte in its own write(2) so the server sees the
    // lines split across many poll wakeups and partial reads.
    let dribble = |w: &mut TcpStream, bytes: &[u8]| {
        for b in bytes {
            w.write_all(&[*b]).unwrap();
            w.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };

    let first = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(first.try_clone().unwrap());
    let mut w = first;
    dribble(&mut w, b"%set greeting bonjour\n%session park\n");
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let parked_id = line
        .trim_end()
        .strip_prefix("!parked ")
        .expect("park ack")
        .to_string();
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "EOF after park");

    // A fresh connection dribbles the restore and reads the state back.
    let second = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(second.try_clone().unwrap());
    let mut w = second;
    dribble(
        &mut w,
        format!("%session restore {parked_id}\n%echo [set greeting]\n").as_bytes(),
    );
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), format!("!restored {parked_id}"));
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "bonjour", "state crossed the park intact");

    let registry = server.registry();
    assert_eq!(
        (status(&registry, "parked"), status(&registry, "restored")),
        (1, 1)
    );
    server.drain();
}
