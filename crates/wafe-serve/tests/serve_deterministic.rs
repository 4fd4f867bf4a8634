//! Deterministic tests of the serving core: scheduler fairness,
//! admission-control shedding, graceful drain and idle eviction — all
//! driven on a worker's [`EventLoop`] over the simulated net, tick by
//! tick, with the virtual-tick clock. No threads, no sockets, no
//! wall-clock asserts: each test is a pure function of the bytes the
//! clients send and the ticks advanced, which is what lets ci.sh repeat
//! the suite 50 times as a flakiness gate.

use std::sync::Arc;

use wafe_core::Flavor;
use wafe_serve::event_loop::ConnAssign;
use wafe_serve::{
    EventLoop, Limits, Registry, Scheduler, SessionId, ShedReason, SimClient, SimNet,
};

mod common;
use common::status;

/// One worker's event loop on a fresh single-shard registry.
fn server(limits: Limits) -> (EventLoop, SimNet) {
    event_loop(Arc::new(Registry::new(limits)), false)
}

/// One worker's event loop (shard 0) over a fresh simulated net.
fn event_loop(registry: Arc<Registry>, telemetry: bool) -> (EventLoop, SimNet) {
    let net = SimNet::new();
    let sched = Scheduler::new(registry, Flavor::Athena, telemetry);
    let el = EventLoop::with_wake(sched, 0, net.poller(), Some(net.wake_pair()));
    (el, net)
}

/// Admits a session for `peer` and attaches a simulated connection.
fn session(el: &mut EventLoop, net: &SimNet, peer: &str) -> (SimClient, SessionId) {
    let registry = el.scheduler().registry().clone();
    let id = registry.admit(peer).expect("admitted");
    let (client, io) = net.socketpair();
    el.attach(ConnAssign { id, io });
    (client, id)
}

/// The client writes `lines`, newline-terminated, in one chunk.
fn send<S: AsRef<str>>(client: &SimClient, lines: &[S]) {
    let mut bytes = Vec::new();
    for l in lines {
        bytes.extend_from_slice(l.as_ref().as_bytes());
        bytes.push(b'\n');
    }
    client.send(&bytes);
}

/// One full worker iteration, as server.rs drives it. Returns the
/// lines the scheduler dispatched.
fn tick(el: &mut EventLoop) -> usize {
    el.poll_io(0);
    let ran = el.run_turn();
    el.flush_and_reap();
    ran
}

/// Ticks until a turn dispatches nothing.
fn settle(el: &mut EventLoop) {
    let mut guard = 0;
    while tick(el) > 0 {
        guard += 1;
        assert!(guard < 1_000, "the loop never went idle");
    }
}

/// Inbound lines queued for session `id`.
fn queued(el: &mut EventLoop, id: SessionId) -> usize {
    el.scheduler().queued(id)
}

#[test]
fn round_robin_quantum_keeps_a_flooder_from_starving_others() {
    // Session A floods 100 commands; session B has 5. With quantum 4,
    // B must be fully served after exactly two sweeps, while A's
    // surplus is still queued — A can never get more than one quantum
    // ahead of B.
    let (mut el, net) = server(Limits {
        quantum: 4,
        queue_depth: 1_000,
        ..Limits::default()
    });
    let (flood, flood_id) = session(&mut el, &net, "flooder");
    let (quiet, quiet_id) = session(&mut el, &net, "quiet");
    send(
        &flood,
        &(0..100).map(|i| format!("%echo a{i}")).collect::<Vec<_>>(),
    );
    send(
        &quiet,
        &(0..5).map(|i| format!("%echo b{i}")).collect::<Vec<_>>(),
    );
    assert_eq!(el.poll_io(0), 105, "every line queued, none shed");

    // Sweep 1: both sessions run exactly one quantum.
    assert_eq!(el.run_turn(), 8);
    el.flush_and_reap();
    assert_eq!(flood.received_lines(), ["a0", "a1", "a2", "a3"]);
    assert_eq!(quiet.received_lines(), ["b0", "b1", "b2", "b3"]);
    assert_eq!(queued(&mut el, flood_id), 96);

    // Sweep 2: the quiet session finishes; the flooder is still deep
    // in its own backlog.
    assert_eq!(tick(&mut el), 5);
    assert_eq!(quiet.received_lines(), ["b0", "b1", "b2", "b3", "b4"]);
    assert_eq!(queued(&mut el, quiet_id), 0);
    assert_eq!(queued(&mut el, flood_id), 92);

    // The flooder drains at quantum speed from here on.
    let mut turns = 0;
    while queued(&mut el, flood_id) > 0 {
        tick(&mut el);
        turns += 1;
        assert!(turns <= 23, "flooder must drain in 92/4 = 23 turns");
    }
    assert_eq!(flood.received_lines().len(), 100);
}

#[test]
fn admission_control_sheds_beyond_max_sessions() {
    let (mut el, net) = server(Limits {
        max_sessions: 2,
        ..Limits::default()
    });
    let registry = el.scheduler().registry().clone();
    session(&mut el, &net, "one");
    session(&mut el, &net, "two");
    assert_eq!(registry.admit("three"), Err(ShedReason::MaxSessions));
    assert_eq!(status(&registry, "shedAdmission"), 1);
    assert_eq!(registry.active(), 2);
    // The shed reply the transport sends is the reason, spelled out.
    assert_eq!(ShedReason::MaxSessions.to_string(), "max-sessions");
    assert_eq!(ShedReason::Draining.to_string(), "draining");
}

#[test]
fn queue_full_sheds_explicitly_and_keeps_the_session() {
    let (mut el, net) = server(Limits {
        queue_depth: 3,
        quantum: 8,
        ..Limits::default()
    });
    let registry = el.scheduler().registry().clone();
    let (client, id) = session(&mut el, &net, "chatty");
    // 5 lines against a depth of 3: two refused.
    send(
        &client,
        &(0..5).map(|i| format!("%echo m{i}")).collect::<Vec<_>>(),
    );
    el.poll_io(0);
    assert_eq!(queued(&mut el, id), 3, "the first three queued");
    el.run_turn();
    el.flush_and_reap();
    // The three accepted lines round-tripped; each shed line produced
    // an explicit notice, not a silent drop.
    assert_eq!(
        client.received_lines(),
        ["m0", "m1", "m2", "!shed queue-full", "!shed queue-full"]
    );
    assert_eq!(status(&registry, "shedQueue"), 2);
    assert_eq!(
        registry.active(),
        1,
        "shedding load does not kill the session"
    );
    // The session keeps working afterwards.
    send(&client, &["%echo recovered"]);
    tick(&mut el);
    assert_eq!(
        client.received_lines().last().map(String::as_str),
        Some("recovered")
    );
}

#[test]
fn graceful_drain_flushes_mailboxes_before_releasing() {
    let (mut el, net) = server(Limits {
        quantum: 2,
        ..Limits::default()
    });
    let registry = el.scheduler().registry().clone();
    let (a, _) = session(&mut el, &net, "a");
    let (b, _) = session(&mut el, &net, "b");
    send(
        &a,
        &(0..6).map(|i| format!("%echo a{i}")).collect::<Vec<_>>(),
    );
    send(&b, &["%echo b0"]);
    el.poll_io(0);
    registry.begin_drain();
    assert!(!el.is_drained(), "queued work first");
    // New input is refused the moment the scheduler notices the drain…
    tick(&mut el);
    send(&a, &["%echo late"]);
    // …but everything already queued is flushed, at quantum pace (and
    // the line sent after the drain never runs).
    let mut guard = 0;
    while !el.is_drained() {
        tick(&mut el);
        guard += 1;
        assert!(guard < 100, "drain never completed");
    }
    assert_eq!(a.received_lines(), ["a0", "a1", "a2", "a3", "a4", "a5"]);
    assert_eq!(b.received_lines(), ["b0"]);
    assert!(a.is_shutdown() && b.is_shutdown(), "connections closed");
    assert_eq!(registry.active(), 0, "every slot released");
    assert_eq!(status(&registry, "closed"), 2);
    assert_eq!(registry.admit("late"), Err(ShedReason::Draining));
}

#[test]
fn drain_timeout_cuts_off_a_session_that_cannot_finish() {
    let (mut el, net) = server(Limits {
        quantum: 1,
        drain_timeout_ms: 100,
        ..Limits::default()
    });
    let registry = el.scheduler().registry().clone();
    let (client, _) = session(&mut el, &net, "slow");
    send(
        &client,
        &(0..50).map(|i| format!("%echo s{i}")).collect::<Vec<_>>(),
    );
    el.poll_io(0);
    registry.begin_drain();
    tick(&mut el); // notices the drain, flushes 1 of 50
    el.advance(101); // virtual deadline passes
    el.flush_and_reap();
    assert!(el.is_drained(), "cut off, queue unflushed");
    assert_eq!(client.received_lines(), ["s0"]);
    assert_eq!(registry.active(), 0);
}

#[test]
fn idle_sessions_are_parked_on_virtual_ticks() {
    let (mut el, net) = server(Limits {
        idle_evict_ms: 100,
        ..Limits::default()
    });
    let registry = el.scheduler().registry().clone();
    let (a, id_a) = session(&mut el, &net, "active");
    let (b, id_b) = session(&mut el, &net, "idle");
    el.advance(60);
    // A speaks at t=60; B stays silent.
    send(&a, &["%echo ping"]);
    tick(&mut el);
    el.advance(60);
    tick(&mut el);
    // t=120: B idled 120ms > 100 and is *parked* — an explicit notice
    // carrying the stamped id it can present to come back, never a
    // silent drop of its state. A's last activity was 60ms ago and it
    // survives.
    assert_eq!(b.received_lines(), [format!("!parked {id_b}")]);
    assert!(b.is_shutdown(), "the parked session's conn is closed");
    assert_eq!(a.received_lines(), ["ping"]);
    assert_eq!(registry.active(), 1);
    assert_eq!(status(&registry, "evicted"), 1);
    assert_eq!(status(&registry, "parked"), 1);
    assert!(registry.has_parked(id_b), "eviction parks, not discards");
    // The evicted id is stale: its slot can be re-admitted under a new
    // generation, and a late release of the old id is ignored.
    assert!(!registry.release(id_b), "stale release is a no-op");
    let id_c = registry.admit("next").unwrap();
    assert_eq!(id_c.slot, id_b.slot);
    assert!(id_c.generation > id_b.generation);
    assert!(
        !registry.has_parked(id_c),
        "the new tenant's id never aliases the parked snapshot"
    );
    assert!(registry.release(id_a));
}

#[test]
fn manual_park_then_restore_replays_queued_output_in_order() {
    let (mut el, net) = server(Limits::default());
    let registry = el.scheduler().registry().clone();
    let (a, id_a) = session(&mut el, &net, "parker");
    send(
        &a,
        &[
            "%set greeting {hello from the past}",
            "%label sign topLevel label Parked",
            "%echo queued-before-park",
            "%session park",
        ],
    );
    tick(&mut el);
    // The pending echo rides the snapshot instead of the wire: the only
    // thing the client sees is the park ack, verbatim.
    assert_eq!(a.received_lines(), [format!("!parked {id_a}")]);
    assert_eq!(registry.active(), 0, "park releases the slot");
    assert_eq!(status(&registry, "parked"), 1);
    assert!(registry.has_parked(id_a));

    // A later connection lists the snapshot and restores by stamped id:
    // the ack comes first, then the queued output replayed in order.
    let (b, _) = session(&mut el, &net, "returning");
    send(
        &b,
        &[
            "%echo [lindex [lindex [session snapshots] 0] 0]".to_string(),
            format!("%session restore {id_a}"),
        ],
    );
    tick(&mut el);
    assert_eq!(
        b.received_lines(),
        [
            id_a.to_string(),
            format!("!restored {id_a}"),
            "queued-before-park".to_string(),
        ]
    );
    // The restored engine carries the old interpreter and widget state.
    send(&b, &["%echo [set greeting]"]);
    tick(&mut el);
    assert_eq!(
        b.received_lines().last().map(String::as_str),
        Some("hello from the past")
    );
    assert!(
        !registry.has_parked(id_a),
        "a snapshot restores exactly once"
    );
    assert_eq!(status(&registry, "restored"), 1);
    // Counter surface: the registry exports the park/restore totals.
    let pairs = registry.metrics_pairs();
    let get = |k: &str| {
        pairs
            .iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("missing {k}"))
            .to_string()
    };
    assert_eq!(get("serve.server.parked"), "1");
    assert_eq!(get("serve.server.restored"), "1");
    assert_eq!(get("serve.server.restoreMiss"), "0");
    assert_eq!(get("serve.server.parkedNow"), "0");
}

#[test]
fn restore_of_an_unknown_id_is_a_loud_miss_that_keeps_the_session() {
    let (mut el, net) = server(Limits::default());
    let registry = el.scheduler().registry().clone();
    let (client, _) = session(&mut el, &net, "guesser");
    // Command errors are not echoed (byte-identity with the pipe), so
    // read the miss back through catch.
    send(
        &client,
        &[
            "%echo [catch {session restore 7:9}]",
            "%echo [catch {session restore not-an-id}]",
            "%echo still-alive",
        ],
    );
    tick(&mut el);
    assert_eq!(client.received_lines(), ["1", "1", "still-alive"]);
    assert_eq!(
        status(&registry, "restoreMiss"),
        1,
        "bad syntax is not a miss"
    );
    assert_eq!(registry.active(), 1, "a failed restore keeps the session");
}

/// The acceptance test for hot handoff: a recursive-proc workload (the
/// E19 benchmark's shape) is interrupted mid-way by an idle park,
/// restored into a brand-new connection, and continued — the combined
/// client-visible output must be byte-identical to a control session
/// that ran the whole workload uninterrupted.
#[test]
fn parked_then_restored_session_continues_workload_byte_identically() {
    const DEFINE: &str =
        "%proc fact {n} {if {$n <= 1} {return 1}; expr {$n * [fact [expr {$n - 1}]]}}";
    let first: Vec<String> = (1..=8)
        .map(|n| format!("%echo fact({n})=[fact {n}]"))
        .collect();
    let second: Vec<String> = (9..=16)
        .map(|n| format!("%echo fact({n})=[fact {n}]"))
        .collect();

    // Control: one session, never parked.
    let (mut control, control_net) = server(Limits::default());
    let (control_client, _) = session(&mut control, &control_net, "control");
    send(&control_client, &[DEFINE]);
    send(&control_client, &first);
    send(&control_client, &second);
    settle(&mut control);

    // Experiment: first half, idle park at a known virtual tick,
    // restore under the stamped id, second half.
    let (mut el, net) = server(Limits {
        idle_evict_ms: 50,
        ..Limits::default()
    });
    let registry = el.scheduler().registry().clone();
    let (a, id_a) = session(&mut el, &net, "before");
    send(&a, &[DEFINE]);
    send(&a, &first);
    settle(&mut el);
    el.advance(51);
    el.flush_and_reap();
    assert_eq!(
        a.received_lines().last(),
        Some(&format!("!parked {id_a}")),
        "idle-parked at virtual t=51"
    );

    let (b, _) = session(&mut el, &net, "after");
    send(&b, &[format!("%session restore {id_a}")]);
    send(&b, &second);
    settle(&mut el);

    let mut combined = a.received_lines();
    assert_eq!(combined.pop(), Some(format!("!parked {id_a}")));
    let after = b.received_lines();
    assert_eq!(after[0], format!("!restored {id_a}"));
    combined.extend(after[1..].iter().cloned());
    assert_eq!(
        combined,
        control_client.received_lines(),
        "byte-identical continuation"
    );
    assert_eq!(status(&registry, "restored"), 1);
}

#[test]
fn drain_with_park_dir_parks_every_session_for_the_next_process() {
    let dir = std::env::temp_dir().join(format!("wafe-drain-park-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First "process": two sessions with state, then a drain.
    let (mut el, net) = server(Limits::default());
    let registry = el.scheduler().registry().clone();
    registry.set_park_dir(dir.clone()).unwrap();
    let (a, id_a) = session(&mut el, &net, "a");
    let (b, id_b) = session(&mut el, &net, "b");
    send(&a, &["%set who alpha"]);
    send(&b, &["%set who beta"]);
    el.poll_io(0);
    registry.begin_drain();
    while !el.is_drained() {
        tick(&mut el);
    }
    assert_eq!(a.received_lines(), [format!("!parked {id_a}")]);
    assert_eq!(b.received_lines(), [format!("!parked {id_b}")]);
    assert_eq!(status(&registry, "parked"), 2);

    // Second "process": a fresh registry over the same directory finds
    // both snapshots; each session restores under its old id.
    let registry2 = Arc::new(Registry::new(Limits::default()));
    assert_eq!(registry2.set_park_dir(dir.clone()).unwrap(), 2);
    let (mut el2, net2) = event_loop(registry2.clone(), false);
    for (old, want) in [(id_a, "alpha"), (id_b, "beta")] {
        let (client, _) = session(&mut el2, &net2, "returning");
        send(
            &client,
            &[
                format!("%session restore {old}"),
                "%echo [set who]".to_string(),
            ],
        );
        settle(&mut el2);
        assert_eq!(
            client.received_lines(),
            [format!("!restored {old}"), want.to_string()]
        );
    }
    assert_eq!(registry2.parked_count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parks one session holding `who = alpha` into a fresh park dir
/// named after `tag`; returns the dir, the session's id and the path
/// of its `.wsnap` file.
fn park_one_to_disk(
    tag: &str,
) -> (
    std::path::PathBuf,
    wafe_serve::SessionId,
    std::path::PathBuf,
) {
    let dir = std::env::temp_dir().join(format!("wafe-park-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut el, net) = server(Limits::default());
    let registry = el.scheduler().registry().clone();
    registry.set_park_dir(dir.clone()).unwrap();
    let (client, id) = session(&mut el, &net, "parker");
    send(&client, &["%set who alpha", "%session park"]);
    settle(&mut el);
    assert_eq!(client.received_lines(), [format!("!parked {id}")]);
    let file = dir.join(format!("park-{}-{}.wsnap", id.slot, id.generation));
    assert!(file.exists(), "park writes through");
    assert!(
        !dir.join(format!("park-{}-{}.wsnap.tmp", id.slot, id.generation))
            .exists(),
        "the temporary file is renamed away"
    );
    (dir, id, file)
}

/// A restarted server over `dir`: a new client restores `old`, then
/// reports the restore counters, whether any state came back and
/// `serve status`.
fn restore_from_disk(dir: &std::path::Path, old: wafe_serve::SessionId) -> Vec<String> {
    let registry = Arc::new(Registry::new(Limits::default()));
    registry.set_park_dir(dir.to_path_buf()).unwrap();
    let (mut el, net) = event_loop(registry, true);
    let (client, _) = session(&mut el, &net, "returning");
    send(
        &client,
        &[
            format!("%session restore {old}"),
            "%echo [telemetry snapshot serve.restore.]".to_string(),
            "%echo [info exists who]".to_string(),
            "%echo [serve status]".to_string(),
        ],
    );
    settle(&mut el);
    client.received_lines()
}

/// The value of one key in a flat `key value ...` reply line (0 when
/// absent, as a counter that never moved is).
fn value_in(line: &str, key: &str) -> u64 {
    let words: Vec<&str> = line.split(' ').collect();
    words
        .iter()
        .position(|w| *w == key)
        .map_or(0, |i| words[i + 1].parse().expect("numeric value"))
}

/// A damaged snapshot is refused whole: `!restore-failed` naming the
/// id, the `serve.restore.error` counter, a session with none of the
/// parked state in it, and no restore in the server totals.
fn assert_refused_whole(got: &[String], old: wafe_serve::SessionId) {
    assert_eq!(got.len(), 4, "{got:?}");
    assert!(
        got[0].starts_with(&format!("!restore-failed {old} corrupt snapshot")),
        "{got:?}"
    );
    assert_eq!(got[1], "serve.restore.error 1");
    assert_eq!(got[2], "0", "a refused snapshot restores nothing");
    assert_eq!(value_in(&got[3], "restored"), 0, "{}", got[3]);
    assert_eq!(value_in(&got[3], "restoreMiss"), 0, "{}", got[3]);
}

#[test]
fn truncated_park_file_is_refused_not_half_loaded() {
    let (dir, id, file) = park_one_to_disk("truncated");
    let bytes = std::fs::read(&file).unwrap();
    std::fs::write(&file, &bytes[..bytes.len() / 2]).unwrap();
    assert_refused_whole(&restore_from_disk(&dir, id), id);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_payload_bit_in_park_file_is_refused() {
    let (dir, id, file) = park_one_to_disk("bitflip");
    let mut bytes = std::fs::read(&file).unwrap();
    // Flip a bit inside the string payload "alpha": before the
    // checksum, this decoded silently into a different value.
    let at = bytes
        .windows(5)
        .position(|w| w == b"alpha")
        .expect("value in the blob");
    bytes[at] ^= 0x01;
    std::fs::write(&file, &bytes).unwrap();
    assert_refused_whole(&restore_from_disk(&dir, id), id);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_tmp_park_file_is_swept_and_ignored() {
    let (dir, id, _) = park_one_to_disk("staletmp");
    // A park a crash interrupted before its rename.
    let stale = dir.join("park-7-1.wsnap.tmp");
    std::fs::write(&stale, b"WAFESNAP half-written").unwrap();
    let registry = Registry::new(Limits::default());
    assert_eq!(registry.set_park_dir(dir.clone()).unwrap(), 1);
    assert!(!stale.exists(), "startup deletes leftover .tmp files");
    drop(registry);
    let got = restore_from_disk(&dir, id);
    assert_eq!(got[0], format!("!restored {id}"));
    assert_eq!(got[2], "1", "the complete snapshot still restores");
    assert_eq!(value_in(&got[3], "restored"), 1, "{}", got[3]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quit_command_releases_the_session() {
    let (mut el, net) = server(Limits::default());
    let registry = el.scheduler().registry().clone();
    let (client, _) = session(&mut el, &net, "quitter");
    send(&client, &["%echo bye", "%quit"]);
    tick(&mut el);
    assert_eq!(client.received_lines(), ["bye"]);
    assert!(client.is_shutdown(), "the reply is written, then the close");
    assert_eq!(registry.active(), 0);
    assert_eq!(status(&registry, "closed"), 1);
}

/// One line-length rule: a line past the 64 KiB limit is discarded by
/// the codec and never runs, but it is counted — one `ipc.errors` — and
/// the session answers the next line.
#[test]
fn an_overlong_line_is_counted_and_the_next_one_answered() {
    let (mut el, net) = event_loop(Arc::new(Registry::new(Limits::default())), true);
    let (client, _) = session(&mut el, &net, "long");
    let long = format!("%set big {}", "x".repeat(70 * 1024));
    send(
        &client,
        &[
            long.as_str(),
            "%echo ok",
            "%echo [info exists big] [telemetry snapshot ipc.errors]",
        ],
    );
    // The long line spans more than one sweep.
    for _ in 0..4 {
        tick(&mut el);
    }
    let got = client.received_lines();
    assert_eq!(got.len(), 2, "{got:?}");
    assert_eq!(got[0], "ok");
    assert!(got[1].starts_with("0 "), "big never set: {}", got[1]);
    assert_eq!(value_in(&got[1], "ipc.errors"), 1, "{}", got[1]);
}

#[test]
fn serve_command_reports_and_drains_from_inside_a_session() {
    let (mut el, net) = server(Limits {
        max_sessions: 7,
        ..Limits::default()
    });
    let registry = el.scheduler().registry().clone();
    let (client, _) = session(&mut el, &net, "operator");
    // Command results are not echoed (byte-identity with the pipe);
    // clients read them back through command substitution.
    send(
        &client,
        &[
            "%echo [serve limits maxSessions]",
            "%echo [lindex [serve status] 1]",
            "%serve limits maxSessions 9",
            "%echo [serve limits maxSessions]",
            "%echo [lindex [lindex [serve sessions] 0] 1]",
        ],
    );
    tick(&mut el);
    assert_eq!(client.received_lines(), ["7", "serving", "9", "operator"]);
    assert_eq!(registry.limits().max_sessions, 9);
    // Draining from inside: the session's own queued input runs, then
    // every session is released.
    send(&client, &["%serve drain", "%echo flushed-after-drain"]);
    while !el.is_drained() {
        tick(&mut el);
    }
    assert_eq!(
        client.received_lines().last().map(String::as_str),
        Some("flushed-after-drain")
    );
    assert_eq!(registry.active(), 0);
}

#[test]
fn fifty_sessions_multiplex_without_crosstalk() {
    // One scheduler, 50 sessions, interleaved traffic: every session
    // must get exactly its own replies, in its own order.
    let (mut el, net) = server(Limits {
        max_sessions: 64,
        quantum: 3,
        ..Limits::default()
    });
    let registry = el.scheduler().registry().clone();
    let mut clients = Vec::new();
    for s in 0..50 {
        let (client, _) = session(&mut el, &net, &format!("client-{s}"));
        let script: Vec<String> = (0..5)
            .flat_map(|i| [format!("%set v {s}-{i}"), "%echo [set v]".to_string()])
            .collect();
        send(&client, &script);
        clients.push(client);
    }
    assert_eq!(el.poll_io(0), 500, "one wakeup reads every client");
    let mut guard = 0;
    while el.scheduler().queued_lines() > 0 {
        el.run_turn();
        el.flush_and_reap();
        guard += 1;
        assert!(
            guard <= 10,
            "500 lines / (50 sessions * 3 quantum) < 10 turns"
        );
    }
    for (s, client) in clients.iter().enumerate() {
        let want: Vec<String> = (0..5).map(|i| format!("{s}-{i}")).collect();
        assert_eq!(client.received_lines(), want, "session {s}");
    }
    assert_eq!(status(&registry, "commands"), 500);
}

#[test]
fn span_tree_attributes_every_layer_of_a_dispatched_command() {
    // The acceptance test for causal tracing: a scripted session turns
    // spans on, defines a proc and calls it twice, turns spans off, and
    // prints the tree. Every tick is virtual, so the tree is byte-stable.
    let (mut el, net) = server(Limits {
        quantum: 8,
        ..Limits::default()
    });
    let (client, id) = session(&mut el, &net, "tracer");
    send(
        &client,
        &[
            "%telemetry spans on",
            "%proc double {x} {expr {$x * 2}}",
            "%echo [double 21]",
            "%echo [double 21]",
            "%telemetry spans off",
            "%echo [telemetry spans tree]",
        ],
    );
    tick(&mut el);
    // `%telemetry spans on` records nothing (its own begins ran while
    // still disabled); `%telemetry spans off` leaves nothing open; the
    // tree-printing command's spans are themselves still open when the
    // tree renders, so they never appear in their own output. What is
    // left is exactly the three traced commands, every layer attributed:
    // the serve dispatch root, the ipc protocol hop, the eval and the
    // proc call, one trace ID per command. The first run of each script
    // tree-walks, so the first call evaluates its `[...]` and the proc
    // body as nested evals; the repeated line and the proc body's second
    // run are lowered, so the bytecode run shows up only in the last.
    let want: Vec<String> = [
        "42".to_string(),
        "42".to_string(),
        format!("serve.command 1:1 [1,6] {id} %proc double {{x}} {{expr {{$x * 2}}}}"),
        "  ipc.command 1:1 [2,5] %proc double {x} {expr {$x * 2}}".to_string(),
        "    tcl.eval 1:1 [3,4] proc double {x} {expr {$x * 2}}".to_string(),
        format!("serve.command 1:2 [7,18] {id} %echo [double 21]"),
        "  ipc.command 1:2 [8,17] %echo [double 21]".to_string(),
        "    tcl.eval 1:2 [9,16] echo [double 21]".to_string(),
        "      tcl.eval 1:2 [10,15]".to_string(),
        "        tcl.proc 1:2 [11,14] double".to_string(),
        "          tcl.eval 1:2 [12,13]".to_string(),
        format!("serve.command 1:3 [19,32] {id} %echo [double 21]"),
        "  ipc.command 1:3 [20,31] %echo [double 21]".to_string(),
        "    tcl.eval 1:3 [21,30] echo [double 21]".to_string(),
        "      tcl.bc 1:3 [22,29]".to_string(),
        "        tcl.proc 1:3 [23,28] double".to_string(),
        "          tcl.eval 1:3 [24,27]".to_string(),
        "            tcl.bc 1:3 [25,26]".to_string(),
    ]
    .into();
    assert_eq!(client.received_lines(), want);
}

#[test]
fn status_reports_poller_backend_and_per_shard_breakdown_verbatim() {
    // Two shards, two event loops, one simulated net — exactly the
    // poll-model server shape, scripted tick by tick.
    let registry = Arc::new(Registry::with_shards(Limits::default(), 2));
    let net = SimNet::new();
    let attach = |el: &mut EventLoop| {
        let id = registry.admit("sim/test").expect("admitted");
        let (client, io) = net.socketpair();
        el.attach(ConnAssign { id, io });
        client
    };
    let mut el0 = EventLoop::with_wake(
        Scheduler::new(registry.clone(), Flavor::Athena, false),
        0,
        net.poller(),
        Some(net.wake_pair()),
    );
    let mut el1 = EventLoop::with_wake(
        Scheduler::new(registry.clone(), Flavor::Athena, false),
        1,
        net.poller(),
        Some(net.wake_pair()),
    );
    let operator = attach(&mut el0); // slot 0 -> shard 0
    let busy = attach(&mut el1); // slot 1 -> shard 1

    // Shard 1 has three lines swept into its session but not yet run:
    // its queue-depth gauge reads 3 at status time.
    busy.send(b"%echo q0\n%echo q1\n%echo q2\n");
    el1.poll_io(0);
    el1.flush_and_reap();

    operator.send(b"%echo [serve status]\n");
    el0.poll_io(0);
    el0.run_turn();
    el0.flush_and_reap();
    assert_eq!(
        operator.received_lines(),
        vec![
            "state serving active 2 accepted 2 shedAdmission 0 shedQueue 0 evicted 0 \
             closed 0 commands 0 parked 0 restored 0 restoreMiss 0 parkedNow 0 \
             acceptErrors 0 poller sim shards \
             {{shard 0 active 1 queued 0} {shard 1 active 1 queued 3}}"
                .to_string()
        ]
    );

    // The staged lines still run and reply normally afterwards.
    el1.run_turn();
    el1.flush_and_reap();
    assert_eq!(busy.received_lines(), vec!["q0", "q1", "q2"]);
}

/// Counters belong to the session that caused them, even for two
/// sessions sharing one worker thread: the value layer's shimmer counts
/// land in the store of the session whose line is being evaluated.
#[test]
fn shimmer_counts_are_attributed_to_their_own_session() {
    let (mut el, net) = server(Limits::default());
    let (a_client, _) = session(&mut el, &net, "parser");
    let (b_client, _) = session(&mut el, &net, "bystander");
    // 200 fresh list strings, each parsed once by `lindex`.
    send(
        &a_client,
        &[
            "%for {set i 0} {$i < 200} {incr i} {lindex \"x $i y\" 1}",
            "%echo [telemetry snapshot tcl.shimmer.listParses]",
        ],
    );
    send(
        &b_client,
        &["%echo [telemetry snapshot tcl.shimmer.listParses]"],
    );
    settle(&mut el);
    let a = a_client.received_lines();
    let words: Vec<&str> = a[0].split(' ').collect();
    assert_eq!(words[0], "tcl.shimmer.listParses", "{a:?}");
    assert!(words[1].parse::<u64>().unwrap() >= 200, "{a:?}");
    // A counter that never moved is absent from the snapshot: zero.
    assert_eq!(
        b_client.received_lines(),
        [""],
        "B parsed no list of its own"
    );
}

/// The `serve.server.*` rows of the metrics exposition, keyed by their
/// `serve status` key.
fn server_rows(registry: &Registry) -> Vec<(String, u64)> {
    registry
        .metrics_pairs()
        .into_iter()
        .filter_map(|(k, v)| {
            let key = k.strip_prefix("serve.server.")?.to_string();
            Some((key, v.parse().unwrap()))
        })
        .collect()
}

/// `serve status`, the `serve.server.*` rows and the sessions' own
/// counters are one count: sessions on both shards roll up into the
/// totals, and a session's `telemetry reset` never lowers one.
#[test]
fn server_totals_roll_up_from_both_shards_and_survive_a_session_reset() {
    let registry = Arc::new(Registry::with_shards(
        Limits {
            queue_depth: 2,
            idle_evict_ms: 100,
            ..Limits::default()
        },
        2,
    ));
    let (mut el, net) = event_loop(registry.clone(), false);
    let sessions: Vec<(SimClient, SessionId)> = ["a", "b", "c", "d"]
        .iter()
        .map(|peer| session(&mut el, &net, peer))
        .collect();
    let shards: Vec<usize> = sessions.iter().map(|s| registry.shard_of(s.1)).collect();
    assert_eq!(shards, [0, 1, 0, 1]);
    let server_agrees = || {
        for (key, v) in server_rows(&registry) {
            if key != "draining" {
                assert_eq!(status(&registry, &key), v, "serve.server.{key}");
            }
        }
    };

    // Phase 1: session n runs two lines and sheds n more against the
    // depth-2 queue, then reports its own serve.* counters.
    for (n, (client, _)) in sessions.iter().enumerate() {
        let script: Vec<String> = (0..n + 2).map(|i| format!("%set x {i}")).collect();
        send(client, &script);
    }
    el.poll_io(0);
    for (_, id) in &sessions {
        assert_eq!(queued(&mut el, *id), 2, "the depth-2 queue took two");
    }
    el.run_turn();
    el.flush_and_reap();
    for (n, (client, _)) in sessions.iter().enumerate() {
        assert_eq!(client.received_lines(), vec!["!shed queue-full"; n]);
        send(client, &["%echo [telemetry snapshot serve.]"]);
    }
    tick(&mut el);
    let reports: Vec<String> = sessions
        .iter()
        .map(|s| s.0.received_lines().last().cloned().unwrap())
        .collect();
    let sum = |key: &str| reports.iter().map(|r| value_in(r, key)).sum::<u64>();
    assert_eq!(sum("serve.shed"), 6, "{reports:?}");
    assert_eq!(status(&registry, "shedQueue"), sum("serve.shed"));
    // Each report line counts itself once it returns.
    assert_eq!(status(&registry, "commands"), sum("serve.commands") + 4);
    assert_eq!(status(&registry, "commands"), 12);
    server_agrees();

    // Phase 2: c (shard 0) parks itself; d (shard 1) idles out. A
    // parked session's counters leave with it, so its `!parked` notice
    // is its record.
    el.advance(60);
    let (a, b, c, d) = (&sessions[0], &sessions[1], &sessions[2], &sessions[3]);
    send(&a.0, &["%set x 1"]);
    send(&b.0, &["%set x 1"]);
    send(&c.0, &["%session park"]);
    tick(&mut el);
    el.advance(60);
    el.flush_and_reap();
    for s in [c, d] {
        assert_eq!(
            s.0.received_lines().last(),
            Some(&format!("!parked {}", s.1))
        );
    }
    assert_eq!(status(&registry, "parked"), 2);
    assert_eq!(status(&registry, "evicted"), 1);
    assert_eq!(status(&registry, "commands"), 15);
    server_agrees();

    // Phase 3: resetting a session on each shard zeroes only its own
    // view; every server total holds (commands grows by the two reset
    // lines themselves).
    let before = server_rows(&registry);
    send(&a.0, &["%telemetry reset"]);
    send(&b.0, &["%telemetry reset"]);
    tick(&mut el);
    let after = server_rows(&registry);
    for ((key, was), (_, now)) in before.iter().zip(&after) {
        let grew = if key == "commands" { 2 } else { 0 };
        assert_eq!(*now, was + grew, "serve.server.{key}");
    }
    server_agrees();
    send(&a.0, &["%echo [telemetry snapshot serve.commands]"]);
    tick(&mut el);
    assert_eq!(
        a.0.received_lines().last().map(String::as_str),
        Some("serve.commands 1"),
        "the session's own view restarted at the reset line"
    );
    assert_eq!(status(&registry, "commands"), 18);
}

/// The `serve sessions` `commands` column counts every line the session
/// dispatched, on its own slot, and a `telemetry reset` — which
/// restarts the session's own `serve.commands` — leaves it alone.
#[test]
fn sessions_commands_column_counts_dispatched_lines_across_a_reset() {
    let (mut el, net) = server(Limits::default());
    let (_, _) = session(&mut el, &net, "bystander");
    let (client, _) = session(&mut el, &net, "counter");
    let script: Vec<String> = (0..5).map(|i| format!("%set x {i}")).collect();
    send(&client, &script);
    tick(&mut el);
    send(&client, &["%telemetry reset"]);
    tick(&mut el);
    // The row is read mid-turn, so it holds the lines of earlier turns:
    // five sets and the reset.
    send(
        &client,
        &["%echo [lindex [serve sessions] 1] [telemetry snapshot serve.commands]"],
    );
    tick(&mut el);
    assert_eq!(client.received_lines(), ["1:1 counter 6 serve.commands 1"]);
    let rows = el.scheduler().registry().sessions_words();
    assert_eq!(rows, ["0:1 bystander 0", "1:1 counter 7"]);
}

/// No line takes the worker down: session A sends the expressions,
/// `format` fields, star run and regex nest that once overflowed the
/// worker's stack, panicked it or wedged it, on one event loop whose
/// thread has the workers' stack. Session B is answered before and after
/// each line; A's `expr` lines answer with their values, and after each
/// line that errors (errors are not echoed) A's next `%echo ok` answers.
#[test]
fn a_session_survives_deep_long_and_extreme_lines() {
    std::thread::Builder::new()
        .stack_size(wafe_tcl::EVAL_STACK_SIZE)
        .spawn(survive_hostile_lines)
        .unwrap()
        .join()
        .unwrap();
}

fn survive_hostile_lines() {
    let nest = |open: &str, mid: &str, close: &str, n: usize| {
        format!("{}{mid}{}", open.repeat(n), close.repeat(n))
    };
    let echo = |e: String| format!("%echo [expr {{{e}}}]");
    // Each line with the reply it gives: a value, or none for an error.
    let lines = [
        (echo(nest("(", "1", ")", 1_000)), Some("1")),
        (echo(nest("(", "1", ")", 20_000)), Some("1")),
        (echo(nest("", "1", "+1", 29_999)), Some("30000")),
        (echo(nest("1?", "7", ":0", 10_000)), Some("7")),
        (echo(nest("0?0:", "7", "", 10_000)), Some("7")),
        (echo(nest("-", "1", "", 20_000)), Some("1")),
        (echo(nest("abs(", "-3", ")", 5_000)), Some("3")),
        ("%format %.999999999f 1.0".to_string(), None),
        ("%format %99999999999999999999d 1".to_string(), None),
        (
            format!(
                "%echo [string match {{{}b}} {}]",
                "*a".repeat(10),
                "a".repeat(60)
            ),
            Some("0"),
        ),
        (
            format!("%echo [regexp {{{}}} a]", nest("(", "a", ")", 100)),
            Some("1"),
        ),
        (
            format!("%echo [regexp {{{}}} a]", nest("(", "a", ")", 12_000)),
            None,
        ),
    ];
    let (mut el, net) = server(Limits::default());
    let (a, _) = session(&mut el, &net, "hostile");
    let (b, _) = session(&mut el, &net, "bystander");
    let (mut a_seen, mut b_seen) = (0, 0);
    let answered = |el: &mut EventLoop, client: &SimClient, seen: &mut usize| {
        settle(el);
        let got = client.received_lines()[*seen..].to_vec();
        *seen += got.len();
        got
    };
    for (k, (line, reply)) in lines.iter().enumerate() {
        assert!(line.len() < 64 * 1024, "line {k} fits the line limit");
        send(&b, &[format!("%echo before {k}")]);
        assert_eq!(answered(&mut el, &b, &mut b_seen), [format!("before {k}")]);
        send(&a, &[line]);
        send(&b, &[format!("%echo after {k}")]);
        assert_eq!(answered(&mut el, &b, &mut b_seen), [format!("after {k}")]);
        match reply {
            Some(v) => assert_eq!(answered(&mut el, &a, &mut a_seen), [*v], "line {k}"),
            None => {
                send(&a, &["%echo ok"]);
                assert_eq!(answered(&mut el, &a, &mut a_seen), ["ok"], "line {k}");
            }
        }
    }
}
