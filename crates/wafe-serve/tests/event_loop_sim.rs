//! Deterministic event-loop tests on the simulated net: scripted byte
//! chunks, scripted accept errors, readiness derived from queue state —
//! no sockets, no threads, no timing. These pin down the transport
//! semantics the real poll(2) backend must share: batched sweeps,
//! chunking-invariant reassembly, accept-error back-off, write
//! backpressure.

use std::sync::mpsc;
use std::sync::Arc;

use wafe_core::Flavor;
use wafe_serve::event_loop::ConnAssign;
use wafe_serve::{
    AcceptLoop, EventLoop, Limits, Registry, Scheduler, SessionId, SimClient, SimNet,
};

mod common;
use common::status;

fn new_loop(registry: &Arc<Registry>, shard: usize, net: &SimNet) -> EventLoop {
    let sched = Scheduler::new(registry.clone(), Flavor::Athena, false);
    EventLoop::with_wake(sched, shard, net.poller(), Some(net.wake_pair()))
}

/// Admits a fresh session and attaches a simulated connection for it.
fn attach_client(
    el: &mut EventLoop,
    registry: &Arc<Registry>,
    net: &SimNet,
) -> (SessionId, SimClient) {
    let id = registry.admit("sim/test").expect("admit");
    let (client, io) = net.socketpair();
    el.attach(ConnAssign { id, io });
    (id, client)
}

/// One full worker iteration, as server.rs drives it.
fn tick(el: &mut EventLoop) {
    el.poll_io(0);
    el.run_turn();
    el.flush_and_reap();
}

#[test]
fn one_wakeup_drains_every_readable_connection_before_the_scheduler_runs() {
    let registry = Arc::new(Registry::new(Limits::default()));
    let net = SimNet::new();
    let mut el = new_loop(&registry, 0, &net);
    let clients: Vec<SimClient> = (0..3)
        .map(|_| attach_client(&mut el, &registry, &net).1)
        .collect();
    for (i, c) in clients.iter().enumerate() {
        c.send(format!("%echo from-{i}\n").as_bytes());
    }
    // The batched sweep: one poll wakeup moves all three lines into
    // their sessions' inbound queues...
    assert_eq!(el.poll_io(0), 3, "all readable conns drained in one wakeup");
    // ...and only then does the scheduler sweep, dispatching all three.
    assert_eq!(el.run_turn(), 3);
    el.flush_and_reap();
    for (i, c) in clients.iter().enumerate() {
        assert_eq!(c.received_lines(), vec![format!("from-{i}")]);
    }
}

#[test]
fn a_handoff_wakes_the_worker_poll() {
    let registry = Arc::new(Registry::new(Limits::default()));
    let net = SimNet::new();
    let mut el = new_loop(&registry, 0, &net);
    let (tx, rx) = mpsc::channel();
    let mut accept = AcceptLoop::new(
        registry.clone(),
        vec![net.acceptor()],
        vec![tx],
        net.poller(),
    );
    el.poll_io(1);
    assert_eq!(el.wakes(), 0, "idle: nothing to wake for");

    let client = net.connect();
    assert_eq!(accept.poll_once(0), 1);
    // The hand-off made the worker's wake channel readable, so its next
    // poll returns with the wake drained and the assignment waiting.
    el.poll_io(1);
    assert_eq!(el.wakes(), 1);
    el.attach(rx.try_recv().expect("assignment sent before the wake"));
    client.send(b"%echo hi\n");
    tick(&mut el);
    assert_eq!(client.received_lines(), vec!["hi"]);
    el.poll_io(1);
    assert_eq!(el.wakes(), 1, "drained: no second wake");

    // A shed connection is never handed off, so it wakes no worker.
    registry.set_limit("maxSessions", "1").unwrap();
    let shed = net.connect();
    assert_eq!(accept.poll_once(0), 0);
    assert_eq!(shed.received_lines(), vec!["!shed max-sessions"]);
    el.poll_io(1);
    assert_eq!(el.wakes(), 1);
}

#[test]
fn accept_errors_back_off_for_a_tick_and_are_counted() {
    let registry = Arc::new(Registry::new(Limits::default()));
    let net = SimNet::new();
    let (tx, rx) = mpsc::channel();
    let mut accept = AcceptLoop::new(
        registry.clone(),
        vec![net.acceptor()],
        vec![tx],
        net.poller(),
    );
    // The kernel reports EMFILE, then ENFILE, then a real connection is
    // waiting behind them.
    net.push_accept_error(24); // EMFILE
    net.push_accept_error(23); // ENFILE
    let client = net.connect();

    // Tick 1: EMFILE. Counted, loop alive, back-off armed.
    assert_eq!(accept.poll_once(0), 0);
    assert_eq!(status(&registry, "acceptErrors"), 1);
    assert!(accept.backing_off());
    // Tick 2: the back-off tick — the listener is not even polled.
    assert_eq!(accept.poll_once(0), 0);
    assert_eq!(status(&registry, "acceptErrors"), 1, "no accept attempted");
    assert!(!accept.backing_off());
    // Tick 3: ENFILE. Counted again, still alive.
    assert_eq!(accept.poll_once(0), 0);
    assert_eq!(status(&registry, "acceptErrors"), 2);
    // Tick 4: back-off again. Tick 5: the real connection gets in.
    assert_eq!(accept.poll_once(0), 0);
    assert_eq!(accept.poll_once(0), 1, "accepting resumed after back-off");
    assert_eq!(status(&registry, "accepted"), 1);
    let assign = rx.try_recv().expect("routed to the worker");
    assert_eq!(assign.id.slot, 0);
    drop(assign);
    drop(client);
}

#[test]
fn shed_reply_reaches_the_simulated_client_before_the_close() {
    let registry = Arc::new(Registry::new(Limits {
        max_sessions: 0,
        ..Limits::default()
    }));
    let net = SimNet::new();
    let (tx, _rx) = mpsc::channel();
    let mut accept = AcceptLoop::new(
        registry.clone(),
        vec![net.acceptor()],
        vec![tx],
        net.poller(),
    );
    let client = net.connect();
    assert_eq!(accept.poll_once(0), 0);
    assert_eq!(client.received_lines(), vec!["!shed max-sessions"]);
    assert!(client.is_shutdown());
    assert_eq!(status(&registry, "shedAdmission"), 1);
}

#[test]
fn one_byte_reads_reassemble_byte_identically_across_a_park_and_restore() {
    let registry = Arc::new(Registry::new(Limits::default()));
    let net = SimNet::new();
    let mut el = new_loop(&registry, 0, &net);

    // Phase 1: the first tenant dribbles state-building commands one
    // byte per poll wakeup — every byte is a separate readiness event,
    // a separate read(2), a separate LineCodec push.
    let (id_a, client_a) = attach_client(&mut el, &registry, &net);
    for b in b"%set greeting salut\n%session park\n" {
        client_a.send(&[*b]);
        tick(&mut el);
    }
    assert_eq!(
        client_a.received_lines(),
        vec![format!("!parked {id_a}")],
        "dribbled park parked the session"
    );
    assert!(client_a.is_shutdown(), "parked session's conn is closed");
    assert!(registry.has_parked(id_a));

    // Phase 2: a new connection dribbles the restore — including the
    // parked id — one byte per wakeup, then asks for the state that
    // crossed the park.
    let (_id_b, client_b) = attach_client(&mut el, &registry, &net);
    for b in format!("%session restore {id_a}\n%echo [set greeting]\n").as_bytes() {
        client_b.send(&[*b]);
        tick(&mut el);
    }
    assert_eq!(
        client_b.received_lines(),
        vec![format!("!restored {id_a}"), "salut".to_string()],
        "reassembled byte-identically across park/restore"
    );
    assert_eq!(status(&registry, "restored"), 1);
    assert_eq!(status(&registry, "restoreMiss"), 0);
}

#[test]
fn client_eof_finishes_the_session_and_closes_the_connection() {
    let registry = Arc::new(Registry::new(Limits::default()));
    let net = SimNet::new();
    let mut el = new_loop(&registry, 0, &net);
    let (_, client) = attach_client(&mut el, &registry, &net);
    client.send(b"%echo last-words\n");
    client.send_eof();
    tick(&mut el);
    tick(&mut el);
    assert_eq!(client.received_lines(), vec!["last-words"]);
    assert!(
        client.is_shutdown(),
        "EOF runs the queued input then closes"
    );
    assert_eq!(el.conn_count(), 0);
    assert_eq!(registry.active(), 0);
    assert_eq!(status(&registry, "closed"), 1);
}

#[test]
fn the_poller_watches_what_each_session_record_wants() {
    let registry = Arc::new(Registry::new(Limits::default()));
    let net = SimNet::new();
    let mut el = new_loop(&registry, 0, &net);
    let (_, leaving) = attach_client(&mut el, &registry, &net);
    let (_, live) = attach_client(&mut el, &registry, &net);
    el.poll_io(0);
    assert!(live.read_armed() && !live.write_armed(), "live: read only");
    assert!(leaving.read_armed() && !leaving.write_armed());

    // EOF with the last reply stuck behind a shut window: the session
    // finishes, and its connection is watched for write only.
    leaving.set_write_window(Some(0));
    leaving.send(b"%echo tail\n");
    leaving.send_eof();
    tick(&mut el);
    el.poll_io(0);
    assert!(!leaving.read_armed(), "no read interest past EOF");
    assert!(leaving.write_armed(), "the tail waits for writability");
    assert!(live.read_armed() && !live.write_armed());

    // The window opens: the tail goes out, the connection is reaped
    // and no longer watched at all.
    leaving.set_write_window(None);
    tick(&mut el);
    assert_eq!(leaving.received_lines(), vec!["tail"]);
    assert!(leaving.is_shutdown());
    el.poll_io(0);
    assert!(!leaving.read_armed() && !leaving.write_armed(), "reaped");
    assert_eq!(el.conn_count(), 1);

    // A new attach takes the freed token and is watched for read.
    let (_, next) = attach_client(&mut el, &registry, &net);
    el.poll_io(0);
    assert!(next.read_armed() && !next.write_armed(), "reused token");
    assert!(!leaving.read_armed() && !leaving.write_armed());
    assert!(live.read_armed());
}

#[test]
fn a_vanished_client_releases_its_slot() {
    let registry = Arc::new(Registry::new(Limits::default()));
    let net = SimNet::new();
    let mut el = new_loop(&registry, 0, &net);
    let (_, client) = attach_client(&mut el, &registry, &net);
    client.send(b"%echo before\n");
    tick(&mut el);
    assert_eq!(client.received_lines(), vec!["before"]);
    // The client resets the connection: the next read fails, and the
    // same worker iteration releases the slot and retires the conn.
    client.send(b"%echo after\n");
    client.reset();
    tick(&mut el);
    assert_eq!(el.conn_count(), 0);
    assert_eq!(registry.active(), 0, "the vanished client's slot is free");
    assert_eq!(status(&registry, "closed"), 1);
    assert_eq!(client.received_lines(), vec!["before"]);
}

#[test]
fn queue_overflow_on_the_sim_transport_sheds_explicitly() {
    let registry = Arc::new(Registry::new(Limits {
        queue_depth: 2,
        quantum: 2,
        ..Limits::default()
    }));
    let net = SimNet::new();
    let mut el = new_loop(&registry, 0, &net);
    let (_, client) = attach_client(&mut el, &registry, &net);
    // Five lines in one chunk against depth 2: two queued, three shed.
    client.send(b"%echo m0\n%echo m1\n%echo m2\n%echo m3\n%echo m4\n");
    el.poll_io(0);
    el.run_turn();
    el.flush_and_reap();
    assert_eq!(
        client.received_lines(),
        vec![
            "m0",
            "m1",
            "!shed queue-full",
            "!shed queue-full",
            "!shed queue-full"
        ]
    );
    assert_eq!(status(&registry, "shedQueue"), 3);
}

// ---------------------------------------------------------------------------
// The display channel over the simulated net: attach → damage → frame →
// input event, entirely deterministic and byte-exact. See docs/display.md.

use wafe_display::{from_hex, to_hex, Frame, InputEvent};
use wafe_ipc::FaultPlan;

const SCREEN: u64 = 1024 * 768;

fn frame_lines(client: &SimClient) -> Vec<String> {
    client
        .received_lines()
        .into_iter()
        .filter(|l| l.starts_with("!display frame "))
        .collect()
}

fn decode_frame_line(line: &str) -> Frame {
    let hex = line.strip_prefix("!display frame ").expect("a frame line");
    let bytes = from_hex(hex).expect("valid hex payload");
    let frame = Frame::decode(&bytes).expect("frame decodes");
    // The codec is canonical: re-encoding the decoded frame must
    // reproduce the exact bytes that crossed the simulated wire.
    assert_eq!(frame.encode(), bytes, "encode∘decode identity on the wire");
    frame
}

#[test]
fn display_attach_damage_frame_and_input_event_round_trip() {
    let registry = Arc::new(Registry::new(Limits::default()));
    let net = SimNet::new();
    let mut el = new_loop(&registry, 0, &net);
    let (_, client) = attach_client(&mut el, &registry, &net);

    // Attach: the scheduler ships one full first frame on its next sweep.
    client.send(b"%display attach\n");
    tick(&mut el);
    let frames = frame_lines(&client);
    assert_eq!(frames.len(), 1, "attach ships exactly one initial frame");
    let first = decode_frame_line(&frames[0]);
    assert!(first.full, "the first frame covers the whole screen");
    assert_eq!(first.seq, 1);
    assert_eq!((first.width, first.height), (1024, 768));
    assert_eq!(first.rects.len(), 1);
    assert_eq!(first.rects[0].data.pixel_count(), SCREEN);

    // Realize a widget with a KeyPress translation: the next frame is
    // damage-tracked — only the widget's footprint, not the screen.
    client.send(
        b"%label hello topLevel label {Hello Display} width 120 height 40\n\
          %action hello override {<KeyPress>: exec(echo key-callback-ran)}\n\
          %realize\n",
    );
    tick(&mut el);
    let frames = frame_lines(&client);
    assert_eq!(frames.len(), 2, "one coalesced frame for the whole batch");
    let second = decode_frame_line(&frames[1]);
    assert!(!second.full, "a widget update must not force a full frame");
    assert_eq!(second.seq, 2);
    assert!(!second.rects.is_empty());
    let covered: u64 = second.rects.iter().map(|fr| fr.rect.area()).sum();
    assert!(
        covered < SCREEN / 2,
        "damage-tracked: {covered} of {SCREEN} pixels repainted"
    );
    for fr in &second.rects {
        assert_eq!(fr.data.pixel_count(), fr.rect.area());
    }

    // Input comes back over the same wire: move the pointer into the
    // damaged area, press Return — the widget's translation runs its
    // Tcl callback and the echo output arrives on this client.
    let target = second.rects[0].rect;
    let (cx, cy) = (
        target.x + target.w as i32 / 2,
        target.y + target.h as i32 / 2,
    );
    let motion = InputEvent::Motion { x: cx, y: cy }.encode();
    client.send(format!("%display event {}\n", to_hex(&motion)).as_bytes());
    let key = InputEvent::Key {
        name: "Return".into(),
        modifiers: 0,
    }
    .encode();
    client.send(format!("%display event {}\n", to_hex(&key)).as_bytes());
    tick(&mut el);
    assert!(
        client
            .received_lines()
            .iter()
            .any(|l| l == "key-callback-ran"),
        "the remote key press must fire the Tcl callback: {:?}",
        client.received_lines()
    );
}

#[test]
fn garbled_frame_is_rejected_loudly_and_a_resync_recovers() {
    let registry = Arc::new(Registry::new(Limits::default()));
    let net = SimNet::new();
    let mut el = new_loop(&registry, 0, &net);
    el.scheduler()
        .set_fault_plan(Some(FaultPlan::parse("display:garble@2").unwrap()));
    let (_, client) = attach_client(&mut el, &registry, &net);

    client.send(b"%display attach\n");
    tick(&mut el);
    assert_eq!(frame_lines(&client).len(), 1, "first frame intact");

    client.send(b"%label hello topLevel label Hi\n%realize\n");
    tick(&mut el);
    // The second frame was garbled in flight. The client must reject
    // it — either it no longer looks like a frame line at all, or its
    // payload fails validation — never paint it best-effort.
    let notices: Vec<String> = client
        .received_lines()
        .into_iter()
        .filter(|l| l.starts_with('!'))
        .collect();
    assert_eq!(
        notices.len(),
        2,
        "the garbled frame still arrives as a line"
    );
    let rejected = match notices[1].strip_prefix("!display frame ") {
        None => true,
        Some(hex) => from_hex(hex).and_then(|b| Frame::decode(&b)).is_err(),
    };
    assert!(rejected, "corrupt frame decoded cleanly: {:?}", notices[1]);

    // The recovery path: the client asks for a resync and the next
    // frame is a full repaint that includes the missed widget.
    client.send(b"%display frame\n");
    tick(&mut el);
    let notices: Vec<String> = client
        .received_lines()
        .into_iter()
        .filter(|l| l.starts_with('!'))
        .collect();
    assert_eq!(notices.len(), 3);
    let recovered = decode_frame_line(&notices[2]);
    assert!(recovered.full, "resync ships a full repaint");
    assert_eq!(recovered.seq, 3, "sequence numbers keep counting");
    let r = recovered.rects[0].rect;
    assert_eq!((r.x, r.y, r.w, r.h), (0, 0, 1024, 768));
}

/// Paints a frame's patches onto a client-side copy of the screen.
fn paint(screen: &mut [u32], frame: &Frame) {
    let width = frame.width as usize;
    for fr in &frame.rects {
        let (x, w) = (fr.rect.x as usize, fr.rect.w as usize);
        for (row, px) in fr.data.expand().chunks(w).enumerate() {
            let at = (fr.rect.y as usize + row) * width + x;
            screen[at..at + w].copy_from_slice(px);
        }
    }
}

/// The server-wide total of one rolled-up counter.
fn total(registry: &Registry, name: &str) -> u64 {
    registry
        .rollup_pairs()
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| v.parse().unwrap())
}

#[test]
fn a_stalled_client_gets_every_reply_then_one_coalesced_frame() {
    let registry = Arc::new(Registry::new(Limits::default()));
    let net = SimNet::new();
    let mut el = new_loop(&registry, 0, &net);
    let (_, client) = attach_client(&mut el, &registry, &net);
    client.send(b"%display attach\n%label hello topLevel label Hi width 120 height 40\n%realize\n");
    tick(&mut el);
    let mut screen = vec![0u32; SCREEN as usize];
    let first = frame_lines(&client);
    assert_eq!(first.len(), 1);
    paint(&mut screen, &decode_frame_line(&first[0]));
    let seen = client.received_lines().len();

    // The client stops reading. Its reply sticks in the write buffer...
    client.set_write_window(Some(0));
    client.send(b"%echo r1\n");
    tick(&mut el);
    // ...the next change still gets a frame, which waits in the slot
    // behind the stuck bytes...
    client.send(b"%sV hello label Changed\n%echo r2\n");
    tick(&mut el);
    assert_eq!(total(&registry, "display.frame"), 2);
    // ...and while it waits, no frame is built: damage accumulates.
    client.send(b"%sV hello label Again\n%echo r3\n");
    tick(&mut el);
    client.send(b"%sV hello label {Once more}\n%echo r4\n");
    tick(&mut el);
    assert_eq!(total(&registry, "display.frame"), 2, "no second frame");
    assert_eq!(total(&registry, "display.frame.deferred"), 2);
    assert!(
        client.write_armed(),
        "the stuck write waits for writability"
    );
    assert!(
        !el.has_pending_work(),
        "a stuck write blocks in poll instead of spinning at timeout 0"
    );
    assert_eq!(client.received_lines().len(), seen, "nothing got through");

    // The window opens: every reply, in order, ahead of the waiting
    // frame, then exactly one frame carrying all the deferred damage.
    client.set_write_window(None);
    tick(&mut el);
    let got = client.received_lines();
    assert_eq!(got[seen..seen + 4], ["r1", "r2", "r3", "r4"]);
    assert_eq!(got.len(), seen + 6, "{:?}", &got[seen..]);
    assert_eq!(total(&registry, "display.frame"), 3);
    for line in &got[seen + 4..] {
        let frame = decode_frame_line(line);
        assert!(!frame.full, "deferred damage stays damage-tracked");
        paint(&mut screen, &frame);
    }
    el.poll_io(0);
    assert!(!client.write_armed(), "disarmed once the buffer drained");

    // The painted copy is the session's current framebuffer: a resync
    // ships the whole screen, and it matches pixel for pixel.
    client.send(b"%display frame\n");
    tick(&mut el);
    let resync = decode_frame_line(client.received_lines().last().unwrap());
    assert!(resync.full);
    assert_eq!(resync.rects[0].data.expand(), screen);
}

#[test]
fn a_client_that_never_reads_stops_being_read_and_its_output_stays_bounded() {
    let registry = Arc::new(Registry::new(Limits::default()));
    let net = SimNet::new();
    let mut el = new_loop(&registry, 0, &net);
    let (_, client) = attach_client(&mut el, &registry, &net);
    client.set_write_window(Some(0));
    // The client keeps sending 32 lines a tick, each answered with ~110
    // bytes, and reads nothing: ~350 KB of replies over 100 ticks.
    let payload = "x".repeat(100);
    let mut sent = 0;
    for _ in 0..100 {
        let chunk: String = (0..32)
            .map(|k| format!("%echo {:05} {payload}\n", sent + k))
            .collect();
        client.send(chunk.as_bytes());
        sent += 32;
        tick(&mut el);
        // The cap (64 KiB) plus one sweep's replies.
        assert!(el.unsent_bytes() < 128 * 1024, "{}", el.unsent_bytes());
    }
    el.poll_io(0);
    assert!(!client.read_armed(), "read interest dropped at the cap");
    assert!(client.write_armed(), "the output waits for writability");
    assert!(el.unsent_bytes() >= 64 * 1024);
    assert!(client.received().is_empty());

    // The window opens: reading resumes, and every reply arrives in
    // order, none shed.
    client.set_write_window(None);
    for _ in 0..200 {
        tick(&mut el);
    }
    let want: Vec<String> = (0..sent).map(|i| format!("{i:05} {payload}")).collect();
    assert_eq!(client.received_lines(), want);
    assert_eq!(el.unsent_bytes(), 0);
    el.poll_io(0);
    assert!(client.read_armed(), "read interest back once drained");
}
