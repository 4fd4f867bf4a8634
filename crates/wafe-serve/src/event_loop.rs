//! The readiness-driven transport: one poll(2) wakeup drains every
//! readable connection into its session's inbound queue, then the
//! quantum scheduler runs, then replies are flushed — no per-connection
//! threads.
//!
//! Each worker owns one [`EventLoop`]: its [`Scheduler`] (which holds
//! the session records, connections included), its registry shard and
//! its poller. What the poller watches is derived from the session
//! records on every wakeup — there is no registered copy to keep in
//! step. The loop is written as separate steps —
//! [`poll_io`](EventLoop::poll_io), [`run_turn`](EventLoop::run_turn),
//! [`flush_and_reap`](EventLoop::flush_and_reap),
//! [`advance`](EventLoop::advance) — so the deterministic tests can
//! interleave them with scripted I/O exactly like the scheduler tests
//! script virtual time. The production driver in `server.rs` just calls
//! them in order, and so does frontend mode (`frontend.rs`), whose one
//! connection is the backend child.
//!
//! A connection is a [`ConnIo`]: a socket, a simulated socket, or the
//! supervised backend child (`supervisor.rs`). The loop treats them
//! alike; what sets the child apart lives behind the trait's hooks,
//! whose defaults are a plain socket's.
//!
//! The accept path is its own small loop ([`AcceptLoop`]): it polls the
//! listeners, admits or sheds, and hands each admitted connection to
//! its worker as a [`ConnAssign`], then writes one byte to that worker's
//! wake channel so its poll returns at once. `accept(2)` failures (`EMFILE`,
//! `ENFILE`, transient aborts) are counted in `serve.accept.errors` and
//! back the loop off for one tick — never a hot spin, never a dead
//! acceptor.

use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use wafe_core::WafeSession;
use wafe_ipc::{set_nonblocking, Interest, LineCodec, Poller, ProtocolEngine, Readiness};

use crate::registry::Registry;
use crate::scheduler::{Scheduler, Session};

/// Most bytes one connection may feed into its session per sweep.
/// Batching stays bounded: a flooding client cannot monopolise the
/// sweep any more than it can monopolise the scheduler's quantum. It is
/// also the unsent output at which a connection stops being read, so a
/// client that sends but never reads cannot grow its output unbounded.
pub(crate) const READ_SWEEP_CAP: usize = 64 * 1024;

/// A nonblocking byte stream the event loop can poll: TCP and Unix
/// sockets, the simulated net's sockets, and the supervised backend
/// child of frontend mode.
///
/// The four required methods are a socket's. The rest are hooks with a
/// socket's behaviour as the default; the backend child overrides them
/// to put its restart policy, fault points and timeouts on the loop's
/// steps and the scheduler's clock.
pub trait ConnIo {
    fn fd(&self) -> RawFd;
    /// Nonblocking read; `WouldBlock` when drained, `Ok(0)` at EOF.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Nonblocking write; may be partial.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Closes both directions.
    fn shutdown(&mut self);

    /// Adds what to poll for this connection (poll token `token`):
    /// reads while the session wants input, writes while its output is
    /// stuck. A connection whose reads and writes use separate fds, or
    /// that has a side channel or output of its own, adds its own.
    fn interests(&self, token: usize, read: bool, write: bool, out: &mut Vec<Interest>) {
        if read || write {
            let fd = self.fd();
            out.push(Interest {
                token,
                fd,
                read,
                write,
            });
        }
    }

    /// Whether there is input without any fd being ready (bytes
    /// released by the clock, a peer gone for good).
    fn buffered(&self) -> bool {
        false
    }

    /// Whether the byte stream restarted since the last call, so a
    /// partial line already framed belongs to a dead stream.
    fn restarted(&mut self) -> bool {
        false
    }

    /// The lines framed from one read, on their way to the session's
    /// queue: the connection may drop, change or copy them.
    fn admit(&mut self, _lines: &mut Vec<String>) {}

    /// The next line for the session's write buffer: by default the
    /// next outbound line. A connection may hold lines back, or take
    /// them to write itself (and return none).
    fn next_line(&mut self, out: &mut VecDeque<String>) -> Option<String> {
        out.pop_front()
    }

    /// The session's turn ended, with `backlog` lines still queued when
    /// the quantum ran out: the moment to feed a side channel (the mass
    /// pipe) to the engine.
    fn after_turn(&mut self, _engine: &mut ProtocolEngine, _backlog: usize) {}

    /// The scheduler's virtual clock moved to `now_ms`.
    fn tick(&mut self, _now_ms: u64) {}

    /// The connection's session got its engine, on attach.
    fn bind(&mut self, _session: &mut WafeSession) {}
}

/// A socket is a plain connection: every hook keeps its default.
macro_rules! socket_conn {
    ($stream:ty) => {
        impl ConnIo for $stream {
            fn fd(&self) -> RawFd {
                self.as_raw_fd()
            }
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                io::Read::read(self, buf)
            }
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                io::Write::write(self, buf)
            }
            fn shutdown(&mut self) {
                let _ = <$stream>::shutdown(self, Shutdown::Both);
            }
        }
    };
}

socket_conn!(TcpStream);
socket_conn!(UnixStream);

/// A listener the accept loop can poll. `accept` returns `Ok(None)`
/// when there is nothing pending (`WouldBlock`); accepted streams come
/// back already nonblocking.
pub trait Acceptor: Send {
    fn fd(&self) -> RawFd;
    fn accept(&mut self) -> io::Result<Option<(Box<dyn ConnIo + Send>, String)>>;
}

/// TCP listener acceptor (`tcp/<peer>` session names).
pub struct TcpAcceptor(pub TcpListener);

impl Acceptor for TcpAcceptor {
    fn fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }
    fn accept(&mut self) -> io::Result<Option<(Box<dyn ConnIo + Send>, String)>> {
        match self.0.accept() {
            Ok((stream, peer)) => {
                set_nonblocking(stream.as_raw_fd())?;
                Ok(Some((Box::new(stream), format!("tcp/{peer}"))))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Unix-socket acceptor (`unix/<serial>` session names).
pub struct UnixAcceptor {
    pub listener: UnixListener,
    serial: u64,
}

impl UnixAcceptor {
    pub fn new(listener: UnixListener) -> UnixAcceptor {
        UnixAcceptor {
            listener,
            serial: 0,
        }
    }
}

impl Acceptor for UnixAcceptor {
    fn fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }
    fn accept(&mut self) -> io::Result<Option<(Box<dyn ConnIo + Send>, String)>> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                set_nonblocking(stream.as_raw_fd())?;
                self.serial += 1;
                Ok(Some((Box::new(stream), format!("unix/{}", self.serial))))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// The sending half of a worker's wake channel. The accept loop calls
/// [`wake`](Wake::wake) after handing the worker a connection, which
/// makes the worker's poll return at once instead of at its idle tick.
pub trait Wake: Send + Sync {
    fn wake(&self);
}

impl Wake for UnixStream {
    fn wake(&self) {
        // Nonblocking: a full buffer already holds an unread wake.
        let _ = io::Write::write(&mut &*self, &[1]);
    }
}

/// A wake channel over a Unix socket pair: the read half for the
/// worker's poll set, the write half for the accept loop.
pub fn socket_wake() -> io::Result<(Box<dyn ConnIo>, Arc<dyn Wake>)> {
    let (rx, tx) = UnixStream::pair()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    Ok((Box::new(rx), Arc::new(tx)))
}

/// The poll token of the wake channel's read half.
const WAKE_TOKEN: usize = usize::MAX;

/// Empties a wake channel; returns the wake bytes read.
fn drain(rx: &mut dyn ConnIo) -> u64 {
    let mut buf = [0u8; 64];
    let mut n = 0;
    loop {
        match rx.read(&mut buf) {
            Ok(k) if k > 0 => n += k as u64,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            _ => return n,
        }
    }
}

/// One admitted connection, handed from the accept loop to the worker
/// that owns its session. Everything in it is `Send`; the `!Send`
/// session is built on the worker.
pub struct ConnAssign {
    pub id: crate::registry::SessionId,
    pub io: Box<dyn ConnIo + Send>,
}

impl Session {
    /// Read until EOF, but not while the unsent output is at the cap:
    /// reading resumes as the client drains it.
    fn want_read(&self) -> bool {
        !self.eof && self.unsent() < READ_SWEEP_CAP
    }

    /// Output bytes not yet written: the rest of the write buffer and
    /// the queued lines with their newlines.
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos + self.out.iter().map(|l| l.len() + 1).sum::<usize>()
    }

    fn want_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Reads until `WouldBlock`, EOF, the sweep cap or a full inbound
    /// queue; decoded lines join the inbound queue (a line past its
    /// capacity, from the last read, is counted there and answered
    /// `!shed queue-full` by the scheduler). Unread bytes wait in the
    /// socket. Returns the lines decoded.
    fn sweep_read(&mut self) -> usize {
        if self.io.restarted() {
            self.codec.clear();
        }
        let mut buf = [0u8; 8192];
        let mut taken = 0usize;
        let mut lines = 0usize;
        // Past the cap, or with the queue full, the sweep stops;
        // level-triggered polling brings the rest at the next wakeup.
        while self.want_read() && taken < READ_SWEEP_CAP && !self.inbound_full() {
            match self.io.read(&mut buf) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    taken += n;
                    lines += self.frame_bytes(&buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.gone = true;
                    self.eof = true;
                    break;
                }
            }
        }
        lines
    }

    /// Moves the outbound lines — those the engine produced since the
    /// turn too — then the frame slot, into the write buffer and pushes
    /// the buffer into the connection until it would block.
    pub(crate) fn flush(&mut self) {
        if self.gone {
            return;
        }
        self.out.extend(self.engine.take_app_lines());
        loop {
            if self.wpos >= self.wbuf.len() {
                self.wbuf.clear();
                self.wpos = 0;
                // Coalesce: one write call per flush, not per line.
                // Replies drain first; the frame goes last, so they are
                // never delayed behind a bulky frame.
                while let Some(line) = self
                    .io
                    .next_line(&mut self.out)
                    .or_else(|| self.frame.take())
                {
                    LineCodec::encode_into(&mut self.wbuf, &line);
                    if self.wbuf.len() >= READ_SWEEP_CAP {
                        break;
                    }
                }
                if self.wbuf.is_empty() {
                    break;
                }
            }
            match self.io.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.gone = true;
                    break;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.gone = true;
                    break;
                }
            }
        }
    }

    /// Whether the connection can be retired: the client vanished, or
    /// the session is released and every reply written.
    fn retired(&self) -> bool {
        self.gone
            || (self.done && self.out.is_empty() && self.frame.is_none() && !self.want_write())
    }
}

/// One worker's readiness-driven I/O multiplexer around its
/// [`Scheduler`].
pub struct EventLoop {
    pub(crate) sched: Scheduler,
    shard: usize,
    poller: Box<dyn Poller>,
    /// Scratch for each wakeup's interest list and its ready set.
    interests: Vec<Interest>,
    ready: Vec<Readiness>,
    /// Read half of the wake channel (polled under [`WAKE_TOKEN`]).
    wake: Option<Box<dyn ConnIo>>,
    /// Wake bytes drained so far.
    wakes: u64,
}

impl EventLoop {
    /// Wraps a scheduler (shard `shard` of the registry) around a
    /// poller backend. Records the backend name in the registry for
    /// `serve status`.
    ///
    /// The loop publishes a Unix socket-pair wake channel for its shard
    /// in the registry (see [`with_wake`](EventLoop::with_wake)); if no
    /// socket pair can be made it runs without one, noticing hand-offs
    /// at its next poll timeout.
    pub fn new(sched: Scheduler, shard: usize, poller: Box<dyn Poller>) -> EventLoop {
        let wake = socket_wake().ok();
        EventLoop::with_wake(sched, shard, poller, wake)
    }

    /// Like [`new`](EventLoop::new), with the given wake channel: its
    /// read half is polled on every wakeup, its write half is published
    /// in the registry for the accept loop ([`Registry::wake`]).
    pub fn with_wake(
        sched: Scheduler,
        shard: usize,
        poller: Box<dyn Poller>,
        wake: Option<(Box<dyn ConnIo>, Arc<dyn Wake>)>,
    ) -> EventLoop {
        sched.registry().set_poller_backend(poller.name());
        let wake = wake.map(|(rx, tx)| {
            sched.registry().set_waker(shard, tx);
            rx
        });
        EventLoop {
            sched,
            shard,
            poller,
            interests: Vec::new(),
            ready: Vec::new(),
            wake,
            wakes: 0,
        }
    }

    /// Wake bytes this loop has drained: one per hand-off the accept
    /// loop signalled (fewer if several arrived within one poll).
    pub fn wakes(&self) -> u64 {
        self.wakes
    }

    /// The scheduler (virtual clock, registry access) — tests drive it
    /// directly.
    pub fn scheduler(&mut self) -> &mut Scheduler {
        &mut self.sched
    }

    /// Live connections on this loop.
    pub fn conn_count(&self) -> usize {
        self.sched.sessions.iter().flatten().count()
    }

    /// Output bytes queued on this loop's connections but not yet
    /// written.
    pub fn unsent_bytes(&self) -> usize {
        self.sched
            .sessions
            .iter()
            .flatten()
            .map(Session::unsent)
            .sum()
    }

    /// Takes ownership of an admitted connection: the session joins the
    /// scheduler ring, and from the next wakeup on its socket is polled.
    pub fn attach(&mut self, assign: ConnAssign) {
        self.sched.attach(assign.id, assign.io);
    }

    /// One poll wakeup: watches the wake channel and every session as
    /// its record wants — read until EOF, write while output is stuck —
    /// waits up to `timeout_ms` (not at all when a connection held
    /// buffered input, swept first), then drains *every* readable
    /// connection into its session (the batched sweep) before
    /// returning. Returns how many protocol lines were decoded.
    pub fn poll_io(&mut self, mut timeout_ms: i32) -> usize {
        let mut enqueued = 0;
        self.interests.clear();
        if let Some(rx) = &self.wake {
            self.interests.push(Interest::read(WAKE_TOKEN, rx.fd()));
        }
        for (token, s) in self.sched.sessions.iter_mut().enumerate() {
            let Some(s) = s else { continue };
            if s.want_read() && s.io.buffered() {
                enqueued += s.sweep_read();
                timeout_ms = 0;
            }
            let (read, write) = (s.want_read(), s.want_write());
            s.io.interests(token, read, write, &mut self.interests);
        }
        if self
            .poller
            .wait(&self.interests, timeout_ms, &mut self.ready)
            .is_err()
        {
            return enqueued;
        }
        for r in &self.ready {
            if r.token == WAKE_TOKEN {
                if let Some(rx) = self.wake.as_mut() {
                    self.wakes += drain(rx.as_mut());
                }
                continue;
            }
            let Some(s) = self.sched.sessions[r.token].as_mut() else {
                continue;
            };
            if r.writable {
                s.flush();
            }
            enqueued += s.sweep_read();
        }
        enqueued
    }

    /// One scheduler sweep over the inbound queues just filled.
    pub fn run_turn(&mut self) -> usize {
        self.sched.run_turn()
    }

    /// Advances the scheduler's virtual clock.
    pub fn advance(&mut self, ms: u64) {
        self.sched.advance(ms);
    }

    /// Writes every session's queued replies to its socket, closes
    /// connections whose sessions finished, reaps dead ones, and
    /// updates the shard's queue-depth gauge. Call after
    /// [`run_turn`](EventLoop::run_turn).
    pub fn flush_and_reap(&mut self) {
        for token in 0..self.sched.sessions.len() {
            let Some(s) = self.sched.sessions[token].as_mut() else {
                continue;
            };
            s.flush();
            if s.retired() {
                // A vanished client's session is released here; a
                // finished one was released when it finished.
                self.sched.close(token);
            }
        }
        let queued = self.sched.queued_lines();
        self.sched.registry().set_shard_queued(self.shard, queued);
    }

    /// Whether the loop has anything to do right now (skip the poll
    /// timeout when true): some session has inbound lines still
    /// queued. Output left after [`flush_and_reap`](EventLoop::flush_and_reap)
    /// means the write blocked, and the next poll waits for
    /// writability instead of spinning.
    pub fn has_pending_work(&mut self) -> bool {
        self.sched.queued_lines() > 0
    }

    /// Drained and every connection retired — the worker may exit.
    pub fn is_drained(&mut self) -> bool {
        self.sched.is_drained()
    }

    /// Passthrough lines collected by the scheduler since last call.
    pub fn take_passthrough(&mut self) -> Vec<(crate::registry::SessionId, String)> {
        self.sched.take_passthrough()
    }
}

/// The accept half of the poll transport: polls the listeners, admits
/// or sheds, routes [`ConnAssign`]s to workers by `slot % workers`.
pub struct AcceptLoop {
    registry: Arc<Registry>,
    acceptors: Vec<Box<dyn Acceptor>>,
    txs: Vec<Sender<ConnAssign>>,
    poller: Box<dyn Poller>,
    /// One read interest per listener, token = acceptor index. The
    /// listeners are fixed, so the list is built once.
    interests: Vec<Interest>,
    ready: Vec<wafe_ipc::Readiness>,
    /// Ticks left to sit out after an accept failure.
    backoff_ticks: u32,
}

impl AcceptLoop {
    pub fn new(
        registry: Arc<Registry>,
        acceptors: Vec<Box<dyn Acceptor>>,
        txs: Vec<Sender<ConnAssign>>,
        poller: Box<dyn Poller>,
    ) -> AcceptLoop {
        let interests = acceptors
            .iter()
            .enumerate()
            .map(|(i, a)| Interest::read(i, a.fd()))
            .collect();
        AcceptLoop {
            registry,
            acceptors,
            txs,
            poller,
            interests,
            ready: Vec::new(),
            backoff_ticks: 0,
        }
    }

    /// Whether the loop is currently backing off after an accept error.
    pub fn backing_off(&self) -> bool {
        self.backoff_ticks > 0
    }

    /// One acceptor tick: wait up to `timeout_ms` for a pending
    /// connection, accept everything pending, admit or shed each.
    /// Returns how many connections were admitted.
    ///
    /// On an accept failure (`EMFILE`/`ENFILE` above all) the error is
    /// counted and the *next* tick is spent sleeping with the listeners
    /// unwatched — accepting resumes one tick later, when a fd may have
    /// been freed. The loop never exits on an accept error.
    pub fn poll_once(&mut self, timeout_ms: i32) -> usize {
        if self.backoff_ticks > 0 {
            self.backoff_ticks -= 1;
            // Sleep without watching the listeners: with zero fds the
            // poller just waits out the timeout.
            let _ = self.poller.wait(&[], timeout_ms, &mut self.ready);
            return 0;
        }
        if self
            .poller
            .wait(&self.interests, timeout_ms, &mut self.ready)
            .is_err()
        {
            return 0;
        }
        let mut admitted = 0;
        for r in &self.ready {
            loop {
                match self.acceptors[r.token].accept() {
                    Ok(Some((io, peer))) => {
                        if self.launch(io, peer) {
                            admitted += 1;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        // EMFILE/ENFILE or a transient accept failure:
                        // count it, sit out a tick, never spin or die.
                        self.registry.note_accept_error();
                        self.backoff_ticks = 1;
                        break;
                    }
                }
            }
        }
        admitted
    }

    /// Admission for one accepted stream; sheds reply `!shed <reason>`
    /// before the close. Returns whether the connection was admitted.
    fn launch(&self, mut io: Box<dyn ConnIo + Send>, peer: String) -> bool {
        let id = match self.registry.admit(&peer) {
            Ok(id) => id,
            Err(reason) => {
                // Explicit load shedding, never a silent close. The
                // socket buffer of a fresh connection always has room
                // for one line, so a best-effort write suffices.
                let _ = io.write(&LineCodec::encode(&format!("!shed {reason}")));
                io.shutdown();
                return false;
            }
        };
        let worker = id.slot as usize % self.txs.len().max(1);
        if let Err(mut refused) = self.txs[worker].send(ConnAssign { id, io }) {
            // Drain raced the accept; the worker is gone.
            self.registry.release(id);
            refused.0.io.shutdown();
            return false;
        }
        self.registry.wake(worker);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafe_core::Flavor;
    use wafe_ipc::SysPoller;

    use crate::registry::Limits;

    #[test]
    fn a_registry_wake_ends_a_long_poll_on_the_socket_pair() {
        let registry = Arc::new(Registry::new(Limits::default()));
        let sched = Scheduler::new(registry.clone(), Flavor::Athena, false);
        let mut el = EventLoop::new(sched, 0, Box::new(SysPoller::new()));
        registry.wake(0);
        registry.wake(0);
        // Returns at once: the wake bytes are already readable. Without
        // them this poll would sit out its full minute and fail below.
        el.poll_io(60_000);
        assert_eq!(el.wakes(), 2);
    }
}
