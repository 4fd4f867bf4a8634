//! Telemetry coverage of the pipe protocol: line/byte counters on the
//! protocol engine and the backend round-trip histogram on a live child.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wafe_core::Flavor;
use wafe_ipc::ProtocolEngine;
use wafe_serve::{Frontend, FrontendConfig};
use wafe_tcl::parse_list;

fn snapshot(session: &mut wafe_core::WafeSession) -> BTreeMap<String, u64> {
    let out = session.eval("telemetry snapshot").unwrap();
    parse_list(&out)
        .unwrap()
        .chunks(2)
        .map(|kv| (kv[0].clone(), kv[1].parse::<u64>().unwrap()))
        .collect()
}

#[test]
fn protocol_counts_lines_and_bytes() {
    let mut e = ProtocolEngine::new(Flavor::Athena);
    e.session.telemetry.set_enabled(true);
    e.handle_line("%label l topLevel label hi\n").unwrap();
    e.handle_line("plain passthrough line\n").unwrap();
    assert!(e.handle_line("%nosuchcommand\n").is_err());
    let snap = snapshot(&mut e.session);
    assert_eq!(snap["ipc.lines.received"], 3, "{snap:?}");
    assert_eq!(snap["ipc.lines.interpreted"], 2);
    assert_eq!(snap["ipc.lines.passthrough"], 1);
    assert_eq!(snap["ipc.errors"], 1);
    assert!(snap["ipc.bytes.received"] > 50);
}

#[test]
fn mass_transfer_counts_bytes() {
    let mut e = ProtocolEngine::new(Flavor::Athena);
    e.session.telemetry.set_enabled(true);
    e.handle_line("%form top topLevel").unwrap();
    e.handle_line("%asciiText text top editType edit").unwrap();
    e.handle_line("%realize").unwrap();
    e.handle_line("%setCommunicationVariable C 100 {sV text string $C}")
        .unwrap();
    let payload = "y".repeat(100);
    e.handle_mass_data(&payload.as_bytes()[..40]);
    e.handle_mass_data(&payload.as_bytes()[40..]);
    assert_eq!(e.session.eval("gV text string").unwrap(), payload);
    let snap = snapshot(&mut e.session);
    assert_eq!(snap["ipc.mass.bytes"], 100, "{snap:?}");
    assert_eq!(snap["ipc.mass.transfers"], 1);
    // The completed transfer is journaled.
    let journal = e.session.eval("telemetry journal").unwrap();
    assert!(journal.contains("mass.transfer"), "{journal}");
}

/// The acceptance scenario: drive a real backend through the pipe
/// protocol and read non-zero frontend counters plus a round-trip
/// latency sample out of `telemetry snapshot`.
#[test]
fn frontend_roundtrip_measured_against_live_backend() {
    // The backend answers every line it reads, so each frontend write is
    // followed by a backend line — one ipc.roundtrip sample each.
    let script = r#"
        echo '%command go topLevel label Go callback {echo clicked}'
        echo '%realize'
        read line
        echo "%set answer {$line}"
    "#;
    let mut fe = Frontend::spawn(FrontendConfig {
        args: vec!["-c".into(), script.into()],
        mass_channel: false,
        ..FrontendConfig::new("sh")
    })
    .expect("spawn sh");
    fe.engine().session.telemetry.set_enabled(true);
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(20)).unwrap();
        let built = {
            let app = fe.engine().session.app.borrow();
            app.lookup("go")
                .map(|w| app.is_realized(w))
                .unwrap_or(false)
        };
        if built {
            break;
        }
    }
    // Click the button: the callback echoes "clicked" to the backend,
    // which answers with a %set line — a full round trip.
    {
        let mut app = fe.engine().session.app.borrow_mut();
        let go = app.lookup("go").unwrap();
        let win = app.widget(go).window.unwrap();
        let abs = app.displays[0].abs_rect(win);
        app.displays[0].inject_click(abs.x + 2, abs.y + 2, 1);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(20)).unwrap();
        if fe.engine().session.interp.var_exists("answer") {
            break;
        }
    }
    assert_eq!(
        fe.engine().session.interp.get_var("answer").unwrap(),
        "clicked"
    );
    let snap = snapshot(&mut fe.engine_mut().session);
    assert!(snap["ipc.lines.sent"] >= 1, "{snap:?}");
    assert!(snap["ipc.bytes.sent"] >= "clicked".len() as u64);
    assert!(snap["ipc.lines.received"] >= 1);
    assert!(snap["ipc.lines.interpreted"] >= 1);
    assert!(snap["ipc.roundtrip.count"] >= 1);
    assert!(snap["ipc.roundtrip.p50Ns"] > 0);
    assert_eq!(snap["xt.callbacks.dispatched"], 1);
    fe.kill();
}

/// The causal-attribution scenario: with spans armed, the backend
/// write carrying a command's output opens a detached `ipc.roundtrip`
/// span inside that command's trace, and the backend's reply closes
/// it — a slow reply is attributable to the specific line that caused
/// it. A later `backend kill` journals a supervisor event tagged with
/// the then-active trace ID.
#[test]
fn roundtrip_span_shares_the_trace_of_its_causing_command() {
    // The backend answers the first line, then blocks so only
    // `backend kill` ends it.
    let script = r#"
        read line
        echo "%set answer {$line}"
        read keep
    "#;
    let mut fe = Frontend::spawn(FrontendConfig {
        args: vec!["-c".into(), script.into()],
        mass_channel: false,
        ..FrontendConfig::new("sh")
    })
    .expect("spawn sh");
    fe.engine().session.telemetry.set_enabled(true);
    fe.engine().session.telemetry.set_spans_enabled(true);
    fe.engine_mut().handle_line("%echo ping").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(20)).unwrap();
        if fe.engine().session.interp.var_exists("answer") {
            break;
        }
    }
    assert_eq!(
        fe.engine().session.interp.get_var("answer").unwrap(),
        "ping"
    );
    let spans = fe.engine().session.telemetry.spans_recent(usize::MAX);
    let cmd = spans
        .iter()
        .find(|s| s.kind == "ipc.command" && s.detail == "%echo ping")
        .expect("the dispatched command's span");
    let rt = spans
        .iter()
        .find(|s| s.kind == "ipc.roundtrip")
        .expect("the reply closed the roundtrip span into the ring");
    assert_eq!(rt.detail, "ping", "tagged with the line that was sent");
    assert_eq!(rt.trace, cmd.trace, "roundtrip shares the command's trace");
    assert!(rt.end_tick > rt.begin_tick, "closed, not abandoned");
    // The backend's reply is its own dispatched command: a new trace.
    let reply = spans
        .iter()
        .find(|s| s.kind == "ipc.command" && s.detail.starts_with("%set answer"))
        .expect("the reply's own command span");
    assert_ne!(reply.trace, cmd.trace);
    // Fault attribution: the kill's supervisor.exit event carries the
    // active trace ID.
    fe.engine_mut().session.eval("backend kill").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut journal = String::new();
    while Instant::now() < deadline {
        fe.step(Duration::from_millis(20)).unwrap();
        journal = fe
            .engine_mut()
            .session
            .eval("telemetry journal")
            .unwrap()
            .to_string();
        if journal.contains("supervisor.exit") {
            break;
        }
    }
    assert!(journal.contains("backend kill trace="), "{journal}");
    fe.kill();
}

/// Minimal parser for the flat `{"key":value,...}` objects that
/// `telemetry json` emits: string keys, bare integer values.
fn parse_flat_json(s: &str) -> BTreeMap<String, u64> {
    let body = s
        .trim()
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .unwrap_or_else(|| panic!("not an object: {s}"));
    if body.is_empty() {
        return BTreeMap::new();
    }
    body.split(',')
        .map(|kv| {
            let (k, v) = kv
                .split_once(':')
                .unwrap_or_else(|| panic!("bad pair {kv}"));
            let k = k
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .unwrap_or_else(|| panic!("unquoted key {k}"));
            (
                k.to_string(),
                v.parse().unwrap_or_else(|_| panic!("bad value {v}")),
            )
        })
        .collect()
}

/// `telemetry json` is the same snapshot in machine clothing: the two
/// outputs round-trip to the same key set, and every value outside the
/// interpreter's own self-churning stats (`tcl.*` moves as the probe
/// commands themselves compile and run) matches exactly.
#[test]
fn telemetry_json_round_trips_against_the_text_snapshot() {
    let mut e = ProtocolEngine::new(Flavor::Athena);
    e.session.telemetry.set_enabled(true);
    e.handle_line("%label l topLevel label hi\n").unwrap();
    e.handle_line("%telemetry disable\n").unwrap();
    let json = e.session.eval("telemetry json").unwrap().to_string();
    let snap = snapshot(&mut e.session);
    let parsed = parse_flat_json(&json);
    let json_keys: Vec<&String> = parsed.keys().collect();
    let snap_keys: Vec<&String> = snap.keys().collect();
    assert_eq!(json_keys, snap_keys);
    for (k, v) in &parsed {
        if !k.starts_with("tcl.") {
            assert_eq!(snap[k], *v, "key {k}");
        }
    }
    // The store itself was frozen by the disable, so the counters the
    // handled lines produced survive the round trip verbatim.
    assert_eq!(parsed["ipc.lines.received"], 2);
    assert!(parsed["xt.widget.creates"] >= 1);
}

/// Overflowing the journal ring is observable: the dropped counter
/// climbs, survives `clear`, and the snapshot exports it alongside the
/// surviving entries' unbroken sequence numbers.
#[test]
fn journal_overflow_is_counted_and_exported() {
    let mut e = ProtocolEngine::new(Flavor::Athena);
    let tel = e.session.telemetry.clone();
    tel.set_enabled(true);
    tel.set_journal_capacity(4);
    for i in 0..10 {
        tel.event("test.tick", || format!("n{i}"));
    }
    let snap = snapshot(&mut e.session);
    assert_eq!(snap["trace.journal.capacity"], 4);
    assert_eq!(snap["trace.journal.retained"], 4);
    assert_eq!(snap["trace.journal.total"], 10);
    assert_eq!(snap["trace.journal.dropped"], 6);
    // The survivors are the newest four, seq still monotonic.
    let entries = e.session.eval("telemetry journal").unwrap().to_string();
    let seqs: Vec<String> = parse_list(&entries)
        .unwrap()
        .iter()
        .map(|entry| parse_list(entry).unwrap()[0].clone())
        .collect();
    assert_eq!(seqs, ["7", "8", "9", "10"]);
}
