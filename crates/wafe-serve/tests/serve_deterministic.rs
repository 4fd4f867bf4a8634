//! Deterministic tests of the serving core: scheduler fairness,
//! admission-control shedding, graceful drain and idle eviction —
//! all driven directly on a [`Scheduler`] with buffer sinks and the
//! virtual-tick clock. No threads, no sockets, no wall-clock asserts:
//! each test is a pure function of the lines pushed and the ticks
//! advanced, which is what lets ci.sh repeat the suite 50 times as a
//! flakiness gate.

use std::sync::Arc;

use wafe_core::Flavor;
use wafe_serve::{Limits, Mailbox, Registry, Scheduler, SessionSink, ShedReason};

mod common;
use common::status;

fn scheduler(limits: Limits) -> Scheduler {
    Scheduler::new(Arc::new(Registry::new(limits)), Flavor::Athena, false)
}

/// Admits a session and attaches it; returns its mailbox and the
/// buffer its outbound lines land in.
fn session(
    sched: &mut Scheduler,
    peer: &str,
) -> (
    Arc<Mailbox>,
    Arc<std::sync::Mutex<Vec<String>>>,
    wafe_serve::SessionId,
) {
    let registry = sched.registry().clone();
    let id = registry.admit(peer, sched.now_ms()).expect("admitted");
    let mailbox = Mailbox::new(registry.limits().queue_depth);
    let (sink, buf) = SessionSink::buffer();
    sched.attach(id, mailbox.clone(), sink);
    (mailbox, buf, id)
}

fn lines(buf: &std::sync::Mutex<Vec<String>>) -> Vec<String> {
    buf.lock().unwrap().clone()
}

#[test]
fn round_robin_quantum_keeps_a_flooder_from_starving_others() {
    // Session A floods 100 commands; session B has 5. With quantum 4,
    // B must be fully served after exactly two sweeps, while A's
    // surplus is still queued — A can never get more than one quantum
    // ahead of B.
    let mut sched = scheduler(Limits {
        quantum: 4,
        queue_depth: 1_000,
        ..Limits::default()
    });
    let (flood_mb, flood_buf, _) = session(&mut sched, "flooder");
    let (quiet_mb, quiet_buf, _) = session(&mut sched, "quiet");
    for i in 0..100 {
        assert!(flood_mb.push(format!("%echo a{i}")));
    }
    for i in 0..5 {
        assert!(quiet_mb.push(format!("%echo b{i}")));
    }

    // Sweep 1: both sessions run exactly one quantum.
    assert_eq!(sched.run_turn(), 8);
    assert_eq!(lines(&flood_buf), ["a0", "a1", "a2", "a3"]);
    assert_eq!(lines(&quiet_buf), ["b0", "b1", "b2", "b3"]);
    assert_eq!(flood_mb.len(), 96);

    // Sweep 2: the quiet session finishes; the flooder is still deep
    // in its own backlog.
    assert_eq!(sched.run_turn(), 5);
    assert_eq!(lines(&quiet_buf), ["b0", "b1", "b2", "b3", "b4"]);
    assert!(quiet_mb.is_empty());
    assert_eq!(flood_mb.len(), 92);

    // The flooder drains at quantum speed from here on.
    let mut turns = 0;
    while !flood_mb.is_empty() {
        sched.run_turn();
        turns += 1;
        assert!(turns <= 23, "flooder must drain in 92/4 = 23 turns");
    }
    assert_eq!(lines(&flood_buf).len(), 100);
}

#[test]
fn admission_control_sheds_beyond_max_sessions() {
    let mut sched = scheduler(Limits {
        max_sessions: 2,
        ..Limits::default()
    });
    let registry = sched.registry().clone();
    session(&mut sched, "one");
    session(&mut sched, "two");
    assert_eq!(registry.admit("three", 0), Err(ShedReason::MaxSessions));
    assert_eq!(status(&registry, "shedAdmission"), 1);
    assert_eq!(registry.active(), 2);
    // The shed reply the transport sends is the reason, spelled out.
    assert_eq!(ShedReason::MaxSessions.to_string(), "max-sessions");
    assert_eq!(ShedReason::Draining.to_string(), "draining");
}

#[test]
fn queue_full_sheds_explicitly_and_keeps_the_session() {
    let mut sched = scheduler(Limits {
        queue_depth: 3,
        quantum: 8,
        ..Limits::default()
    });
    let registry = sched.registry().clone();
    let (mb, buf, _) = session(&mut sched, "chatty");
    // 5 pushes against a depth of 3: two refused.
    for i in 0..5 {
        let accepted = mb.push(format!("%echo m{i}"));
        assert_eq!(accepted, i < 3, "push {i}");
    }
    sched.run_turn();
    let got = lines(&buf);
    // The three accepted lines round-tripped; each shed line produced
    // an explicit notice, not a silent drop.
    assert_eq!(
        got,
        ["m0", "m1", "m2", "!shed queue-full", "!shed queue-full"]
    );
    assert_eq!(status(&registry, "shedQueue"), 2);
    assert_eq!(
        registry.active(),
        1,
        "shedding load does not kill the session"
    );
    // The session keeps working afterwards.
    assert!(mb.push("%echo recovered".into()));
    sched.run_turn();
    assert_eq!(lines(&buf).last().map(String::as_str), Some("recovered"));
}

#[test]
fn graceful_drain_flushes_mailboxes_before_releasing() {
    let mut sched = scheduler(Limits {
        quantum: 2,
        ..Limits::default()
    });
    let registry = sched.registry().clone();
    let (mb_a, buf_a, _) = session(&mut sched, "a");
    let (mb_b, buf_b, _) = session(&mut sched, "b");
    for i in 0..6 {
        assert!(mb_a.push(format!("%echo a{i}")));
    }
    assert!(mb_b.push("%echo b0".into()));
    registry.begin_drain();
    assert!(!sched.is_drained(), "queued work first");
    // New input is refused the moment the scheduler notices the drain…
    sched.run_turn();
    assert!(!mb_a.push("%echo late".into()), "drain closed the mailbox");
    // …but everything already queued is flushed, at quantum pace.
    while !sched.is_drained() {
        sched.run_turn();
    }
    assert_eq!(lines(&buf_a), ["a0", "a1", "a2", "a3", "a4", "a5"]);
    assert_eq!(lines(&buf_b), ["b0"]);
    assert_eq!(registry.active(), 0, "every slot released");
    assert_eq!(status(&registry, "closed"), 2);
    assert_eq!(registry.admit("late", 0), Err(ShedReason::Draining));
}

#[test]
fn drain_timeout_cuts_off_a_session_that_cannot_finish() {
    let mut sched = scheduler(Limits {
        quantum: 1,
        drain_timeout_ms: 100,
        ..Limits::default()
    });
    let registry = sched.registry().clone();
    let (mb, buf, _) = session(&mut sched, "slow");
    for i in 0..50 {
        assert!(mb.push(format!("%echo s{i}")));
    }
    registry.begin_drain();
    sched.run_turn(); // notices the drain, flushes 1 of 50
    sched.advance(101); // virtual deadline passes
    assert!(sched.is_drained(), "cut off, queue unflushed");
    assert_eq!(lines(&buf), ["s0"]);
    assert_eq!(registry.active(), 0);
}

#[test]
fn idle_sessions_are_parked_on_virtual_ticks() {
    let mut sched = scheduler(Limits {
        idle_evict_ms: 100,
        ..Limits::default()
    });
    let registry = sched.registry().clone();
    let (mb_a, buf_a, id_a) = session(&mut sched, "active");
    let (_mb_b, buf_b, id_b) = session(&mut sched, "idle");
    sched.advance(60);
    // A speaks at t=60; B stays silent.
    assert!(mb_a.push("%echo ping".into()));
    sched.run_turn();
    sched.advance(60);
    sched.run_turn();
    // t=120: B idled 120ms > 100 and is *parked* — an explicit notice
    // carrying the stamped id it can present to come back, never a
    // silent drop of its state. A's last activity was 60ms ago and it
    // survives.
    assert_eq!(lines(&buf_b), [format!("!parked {id_b}")]);
    assert_eq!(lines(&buf_a), ["ping"]);
    assert_eq!(registry.active(), 1);
    assert_eq!(status(&registry, "evicted"), 1);
    assert_eq!(status(&registry, "parked"), 1);
    assert!(registry.has_parked(id_b), "eviction parks, not discards");
    // The evicted id is stale: its slot can be re-admitted under a new
    // generation, and a late release of the old id is ignored.
    assert!(!registry.release(id_b), "stale release is a no-op");
    let id_c = registry.admit("next", sched.now_ms()).unwrap();
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
    let mut sched = scheduler(Limits::default());
    let registry = sched.registry().clone();
    let (mb_a, buf_a, id_a) = session(&mut sched, "parker");
    assert!(mb_a.push("%set greeting {hello from the past}".into()));
    assert!(mb_a.push("%label sign topLevel label Parked".into()));
    assert!(mb_a.push("%echo queued-before-park".into()));
    assert!(mb_a.push("%session park".into()));
    sched.run_turn();
    // The pending echo rides the snapshot instead of the wire: the only
    // thing the client sees is the park ack, verbatim.
    assert_eq!(lines(&buf_a), [format!("!parked {id_a}")]);
    assert_eq!(registry.active(), 0, "park releases the slot");
    assert_eq!(status(&registry, "parked"), 1);
    assert!(registry.has_parked(id_a));

    // A later connection lists the snapshot and restores by stamped id:
    // the ack comes first, then the queued output replayed in order.
    let (mb_b, buf_b, _) = session(&mut sched, "returning");
    assert!(mb_b.push("%echo [lindex [lindex [session snapshots] 0] 0]".into()));
    assert!(mb_b.push(format!("%session restore {id_a}")));
    sched.run_turn();
    assert_eq!(
        lines(&buf_b),
        [
            id_a.to_string(),
            format!("!restored {id_a}"),
            "queued-before-park".to_string(),
        ]
    );
    // The restored engine carries the old interpreter and widget state.
    assert!(mb_b.push("%echo [set greeting]".into()));
    sched.run_turn();
    assert_eq!(
        lines(&buf_b).last().map(String::as_str),
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
    let mut sched = scheduler(Limits::default());
    let registry = sched.registry().clone();
    let (mb, buf, _) = session(&mut sched, "guesser");
    // Command errors are not echoed (byte-identity with the pipe), so
    // read the miss back through catch.
    assert!(mb.push("%echo [catch {session restore 7:9}]".into()));
    assert!(mb.push("%echo [catch {session restore not-an-id}]".into()));
    assert!(mb.push("%echo still-alive".into()));
    sched.run_turn();
    assert_eq!(lines(&buf), ["1", "1", "still-alive"]);
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
    let mut control = scheduler(Limits::default());
    let (mb, control_buf, _) = session(&mut control, "control");
    assert!(mb.push(DEFINE.into()));
    for l in first.iter().chain(&second) {
        assert!(mb.push(l.clone()));
    }
    while !mb.is_empty() {
        control.run_turn();
    }

    // Experiment: first half, idle park at a known virtual tick,
    // restore under the stamped id, second half.
    let mut sched = scheduler(Limits {
        idle_evict_ms: 50,
        ..Limits::default()
    });
    let registry = sched.registry().clone();
    let (mb_a, buf_a, id_a) = session(&mut sched, "before");
    assert!(mb_a.push(DEFINE.into()));
    for l in &first {
        assert!(mb_a.push(l.clone()));
    }
    while !mb_a.is_empty() {
        sched.run_turn();
    }
    sched.advance(51);
    assert_eq!(
        lines(&buf_a).last(),
        Some(&format!("!parked {id_a}")),
        "idle-parked at virtual t=51"
    );

    let (mb_b, buf_b, _) = session(&mut sched, "after");
    assert!(mb_b.push(format!("%session restore {id_a}")));
    for l in &second {
        assert!(mb_b.push(l.clone()));
    }
    while !mb_b.is_empty() {
        sched.run_turn();
    }

    let mut combined = lines(&buf_a);
    assert_eq!(combined.pop(), Some(format!("!parked {id_a}")));
    let after = lines(&buf_b);
    assert_eq!(after[0], format!("!restored {id_a}"));
    combined.extend(after[1..].iter().cloned());
    assert_eq!(combined, lines(&control_buf), "byte-identical continuation");
    assert_eq!(status(&registry, "restored"), 1);
}

#[test]
fn drain_with_park_dir_parks_every_session_for_the_next_process() {
    let dir = std::env::temp_dir().join(format!("wafe-drain-park-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First "process": two sessions with state, then a drain.
    let mut sched = scheduler(Limits::default());
    let registry = sched.registry().clone();
    registry.set_park_dir(dir.clone()).unwrap();
    let (mb_a, buf_a, id_a) = session(&mut sched, "a");
    let (mb_b, buf_b, id_b) = session(&mut sched, "b");
    assert!(mb_a.push("%set who alpha".into()));
    assert!(mb_b.push("%set who beta".into()));
    registry.begin_drain();
    while !sched.is_drained() {
        sched.run_turn();
    }
    assert_eq!(lines(&buf_a), [format!("!parked {id_a}")]);
    assert_eq!(lines(&buf_b), [format!("!parked {id_b}")]);
    assert_eq!(status(&registry, "parked"), 2);

    // Second "process": a fresh registry over the same directory finds
    // both snapshots; each session restores under its old id.
    let registry2 = Arc::new(Registry::new(Limits::default()));
    assert_eq!(registry2.set_park_dir(dir.clone()).unwrap(), 2);
    let mut sched2 = Scheduler::new(registry2.clone(), Flavor::Athena, false);
    for (old, want) in [(id_a, "alpha"), (id_b, "beta")] {
        let id = registry2.admit("returning", 0).unwrap();
        let mailbox = Mailbox::new(registry2.limits().queue_depth);
        let (sink, buf) = SessionSink::buffer();
        sched2.attach(id, mailbox.clone(), sink);
        assert!(mailbox.push(format!("%session restore {old}")));
        assert!(mailbox.push("%echo [set who]".into()));
        while !mailbox.is_empty() {
            sched2.run_turn();
        }
        assert_eq!(lines(&buf), [format!("!restored {old}"), want.to_string()]);
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
    let mut sched = scheduler(Limits::default());
    let registry = sched.registry().clone();
    registry.set_park_dir(dir.clone()).unwrap();
    let (mb, buf, id) = session(&mut sched, "parker");
    assert!(mb.push("%set who alpha".into()));
    assert!(mb.push("%session park".into()));
    while !mb.is_empty() {
        sched.run_turn();
    }
    assert_eq!(lines(&buf), [format!("!parked {id}")]);
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
    let mut sched = Scheduler::new(registry.clone(), Flavor::Athena, true);
    let id = registry.admit("returning", 0).unwrap();
    let mailbox = Mailbox::new(registry.limits().queue_depth);
    let (sink, buf) = SessionSink::buffer();
    sched.attach(id, mailbox.clone(), sink);
    assert!(mailbox.push(format!("%session restore {old}")));
    assert!(mailbox.push("%echo [telemetry snapshot serve.restore.]".into()));
    assert!(mailbox.push("%echo [info exists who]".into()));
    assert!(mailbox.push("%echo [serve status]".into()));
    while !mailbox.is_empty() {
        sched.run_turn();
    }
    lines(&buf)
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
    let mut sched = scheduler(Limits::default());
    let registry = sched.registry().clone();
    let (mb, buf, _) = session(&mut sched, "quitter");
    assert!(mb.push("%echo bye".into()));
    assert!(mb.push("%quit".into()));
    sched.run_turn();
    assert_eq!(lines(&buf), ["bye"]);
    assert_eq!(registry.active(), 0);
    assert_eq!(status(&registry, "closed"), 1);
}

#[test]
fn serve_command_reports_and_drains_from_inside_a_session() {
    let mut sched = scheduler(Limits {
        max_sessions: 7,
        ..Limits::default()
    });
    let registry = sched.registry().clone();
    let (mb, buf, _) = session(&mut sched, "operator");
    // Command results are not echoed (byte-identity with the pipe);
    // clients read them back through command substitution.
    assert!(mb.push("%echo [serve limits maxSessions]".into()));
    assert!(mb.push("%echo [lindex [serve status] 1]".into()));
    assert!(mb.push("%serve limits maxSessions 9".into()));
    assert!(mb.push("%echo [serve limits maxSessions]".into()));
    assert!(mb.push("%echo [lindex [lindex [serve sessions] 0] 1]".into()));
    sched.run_turn();
    assert_eq!(lines(&buf), ["7", "serving", "9", "operator"]);
    assert_eq!(registry.limits().max_sessions, 9);
    // Draining from inside: the session's own mailbox flushes, then
    // every session is released.
    assert!(mb.push("%serve drain".into()));
    assert!(mb.push("%echo flushed-after-drain".into()));
    while !sched.is_drained() {
        sched.run_turn();
    }
    assert_eq!(
        lines(&buf).last().map(String::as_str),
        Some("flushed-after-drain")
    );
    assert_eq!(registry.active(), 0);
}

#[test]
fn fifty_sessions_multiplex_without_crosstalk() {
    // One scheduler, 50 sessions, interleaved traffic: every session
    // must get exactly its own replies, in its own order.
    let mut sched = scheduler(Limits {
        max_sessions: 64,
        quantum: 3,
        ..Limits::default()
    });
    let registry = sched.registry().clone();
    let mut handles = Vec::new();
    for s in 0..50 {
        let (mb, buf, _) = session(&mut sched, &format!("client-{s}"));
        for i in 0..5 {
            assert!(mb.push(format!("%set v {s}-{i}")));
            assert!(mb.push("%echo [set v]".to_string()));
        }
        handles.push((mb, buf));
    }
    let mut guard = 0;
    while handles.iter().any(|(mb, _)| !mb.is_empty()) {
        sched.run_turn();
        guard += 1;
        assert!(
            guard <= 10,
            "500 lines / (50 sessions * 3 quantum) < 10 turns"
        );
    }
    for (s, (_, buf)) in handles.iter().enumerate() {
        let want: Vec<String> = (0..5).map(|i| format!("{s}-{i}")).collect();
        assert_eq!(lines(buf), want, "session {s}");
    }
    assert_eq!(status(&registry, "commands"), 500);
}

#[test]
fn span_tree_attributes_every_layer_of_a_dispatched_command() {
    // The acceptance test for causal tracing: a scripted session turns
    // spans on, defines and calls a proc, turns spans off, and prints
    // the tree. Every tick is virtual, so the tree is byte-stable.
    let mut sched = scheduler(Limits {
        quantum: 8,
        ..Limits::default()
    });
    let (mb, buf, id) = session(&mut sched, "tracer");
    for line in [
        "%telemetry spans on",
        "%proc double {x} {expr {$x * 2}}",
        "%echo [double 21]",
        "%telemetry spans off",
        "%echo [telemetry spans tree]",
    ] {
        assert!(mb.push(line.to_string()));
    }
    sched.run_turn();
    // `%telemetry spans on` records nothing (its own begins ran while
    // still disabled); `%telemetry spans off` leaves nothing open; the
    // tree-printing command's spans are themselves still open when the
    // tree renders, so they never appear in their own output. What is
    // left is exactly the two traced commands, every layer attributed:
    // the serve dispatch root, the ipc protocol hop, the eval, the
    // bytecode run, and the proc call — one trace ID per command.
    let want: Vec<String> = [
        "42".to_string(),
        format!("serve.command 1:1 [1,8] {id} %proc double {{x}} {{expr {{$x * 2}}}}"),
        "  ipc.command 1:1 [2,7] %proc double {x} {expr {$x * 2}}".to_string(),
        "    tcl.eval 1:1 [3,6] proc double {x} {expr {$x * 2}}".to_string(),
        "      tcl.bc 1:1 [4,5]".to_string(),
        format!("serve.command 1:2 [9,22] {id} %echo [double 21]"),
        "  ipc.command 1:2 [10,21] %echo [double 21]".to_string(),
        "    tcl.eval 1:2 [11,20] echo [double 21]".to_string(),
        "      tcl.bc 1:2 [12,19]".to_string(),
        "        tcl.proc 1:2 [13,18] double".to_string(),
        "          tcl.eval 1:2 [14,17]".to_string(),
        "            tcl.bc 1:2 [15,16]".to_string(),
    ]
    .into();
    assert_eq!(lines(&buf), want);
}

#[test]
fn status_reports_poller_backend_and_per_shard_breakdown_verbatim() {
    use wafe_serve::event_loop::ConnAssign;
    use wafe_serve::{EventLoop, OutQueue, SimNet};

    // Two shards, two event loops, one simulated net — exactly the
    // poll-model server shape, scripted tick by tick.
    let registry = Arc::new(Registry::with_shards(Limits::default(), 2));
    let net = SimNet::new();
    let attach = |el: &mut EventLoop| {
        let id = registry.admit("sim/test", 0).expect("admitted");
        let (client, io) = net.socketpair();
        el.attach(ConnAssign {
            id,
            io,
            mailbox: Mailbox::new(registry.limits().queue_depth),
            out: OutQueue::new(),
        });
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

    // Shard 1 has three lines swept into the mailbox but not yet run:
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
    let mut sched = scheduler(Limits::default());
    let (a_mb, a_buf, _) = session(&mut sched, "parser");
    let (b_mb, b_buf, _) = session(&mut sched, "bystander");
    // 200 fresh list strings, each parsed once by `lindex`.
    assert!(a_mb.push("%for {set i 0} {$i < 200} {incr i} {lindex \"x $i y\" 1}".into()));
    assert!(b_mb.push("%echo [telemetry snapshot tcl.shimmer.listParses]".into()));
    assert!(a_mb.push("%echo [telemetry snapshot tcl.shimmer.listParses]".into()));
    while !(a_mb.is_empty() && b_mb.is_empty()) {
        sched.run_turn();
    }
    let a = lines(&a_buf);
    let words: Vec<&str> = a[0].split(' ').collect();
    assert_eq!(words[0], "tcl.shimmer.listParses", "{a:?}");
    assert!(words[1].parse::<u64>().unwrap() >= 200, "{a:?}");
    // A counter that never moved is absent from the snapshot: zero.
    assert_eq!(lines(&b_buf), [""], "B parsed no list of its own");
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
    let mut sched = Scheduler::new(registry.clone(), Flavor::Athena, false);
    let sessions: Vec<_> = ["a", "b", "c", "d"]
        .iter()
        .map(|peer| session(&mut sched, peer))
        .collect();
    let shards: Vec<usize> = sessions.iter().map(|s| registry.shard_of(s.2)).collect();
    assert_eq!(shards, [0, 1, 0, 1]);
    let server_agrees = || {
        for (key, v) in server_rows(&registry) {
            if key != "draining" {
                assert_eq!(status(&registry, &key), v, "serve.server.{key}");
            }
        }
    };

    // Phase 1: session n runs two lines and sheds n more against the
    // depth-2 mailbox, then reports its own serve.* counters.
    for (n, (mb, _, _)) in sessions.iter().enumerate() {
        for i in 0..n + 2 {
            assert_eq!(mb.push(format!("%set x {i}")), i < 2);
        }
    }
    sched.run_turn();
    for (mb, _, _) in &sessions {
        assert!(mb.push("%echo [telemetry snapshot serve.]".into()));
    }
    sched.run_turn();
    let reports: Vec<String> = sessions
        .iter()
        .map(|s| lines(&s.1).last().cloned().unwrap())
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
    sched.advance(60);
    let (a, b, c, d) = (&sessions[0], &sessions[1], &sessions[2], &sessions[3]);
    assert!(a.0.push("%set x 1".into()));
    assert!(b.0.push("%set x 1".into()));
    assert!(c.0.push("%session park".into()));
    sched.run_turn();
    sched.advance(60);
    for s in [c, d] {
        assert_eq!(lines(&s.1).last(), Some(&format!("!parked {}", s.2)));
    }
    assert_eq!(status(&registry, "parked"), 2);
    assert_eq!(status(&registry, "evicted"), 1);
    assert_eq!(status(&registry, "commands"), 15);
    server_agrees();

    // Phase 3: resetting a session on each shard zeroes only its own
    // view; every server total holds (commands grows by the two reset
    // lines themselves).
    let before = server_rows(&registry);
    assert!(a.0.push("%telemetry reset".into()));
    assert!(b.0.push("%telemetry reset".into()));
    sched.run_turn();
    let after = server_rows(&registry);
    for ((key, was), (_, now)) in before.iter().zip(&after) {
        let grew = if key == "commands" { 2 } else { 0 };
        assert_eq!(*now, was + grew, "serve.server.{key}");
    }
    server_agrees();
    assert!(a.0.push("%echo [telemetry snapshot serve.commands]".into()));
    sched.run_turn();
    assert_eq!(
        lines(&a.1).last().map(String::as_str),
        Some("serve.commands 1"),
        "the session's own view restarted at the reset line"
    );
    assert_eq!(status(&registry, "commands"), 18);
}
