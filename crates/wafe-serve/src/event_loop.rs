//! The readiness-driven transport: one poll(2) wakeup drains every
//! readable connection into its mailbox, then the quantum scheduler
//! runs, then replies are flushed — no per-connection threads.
//!
//! Each worker owns one [`EventLoop`]: its [`Scheduler`], its registry
//! shard, and the connections routed to it (`slot % workers`). The
//! loop is written as separate steps — [`poll_io`](EventLoop::poll_io),
//! [`run_turn`](EventLoop::run_turn),
//! [`flush_and_reap`](EventLoop::flush_and_reap),
//! [`advance`](EventLoop::advance) — so the deterministic tests can
//! interleave them with scripted I/O exactly like the scheduler tests
//! script virtual time. The production driver in `server.rs` just calls
//! them in order.
//!
//! The accept path is its own small loop ([`AcceptLoop`]): it polls the
//! listeners, admits or sheds, and hands each admitted connection to
//! its worker as a [`ConnAssign`], then writes one byte to that worker's
//! wake channel so its poll returns at once. `accept(2)` failures (`EMFILE`,
//! `ENFILE`, transient aborts) are counted in `serve.accept.errors` and
//! back the loop off for one tick — never a hot spin, never a dead
//! acceptor.

use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use wafe_ipc::{set_nonblocking, Interest, LineCodec, PollSet, Poller, DEFAULT_MAX_LINE};

use crate::mailbox::{Mailbox, OutQueue, SessionSink};
use crate::registry::Registry;
use crate::scheduler::Scheduler;

/// Most bytes one connection may feed into its mailbox per sweep.
/// Batching stays bounded: a flooding client cannot monopolise the
/// sweep any more than it can monopolise the scheduler's quantum.
const READ_SWEEP_CAP: usize = 64 * 1024;

/// A nonblocking byte stream the event loop can poll. Implemented for
/// TCP and Unix sockets and by the simulated net in tests.
pub trait ConnIo: Send {
    fn fd(&self) -> RawFd;
    /// Nonblocking read; `WouldBlock` when drained, `Ok(0)` at EOF.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Nonblocking write; may be partial.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Closes both directions.
    fn shutdown(&mut self);
}

impl ConnIo for TcpStream {
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
        let _ = TcpStream::shutdown(self, Shutdown::Both);
    }
}

impl ConnIo for UnixStream {
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
        let _ = UnixStream::shutdown(self, Shutdown::Both);
    }
}

/// A listener the accept loop can poll. `accept` returns `Ok(None)`
/// when there is nothing pending (`WouldBlock`); accepted streams come
/// back already nonblocking.
pub trait Acceptor: Send {
    fn fd(&self) -> RawFd;
    fn accept(&mut self) -> io::Result<Option<(Box<dyn ConnIo>, String)>>;
}

/// TCP listener acceptor (`tcp/<peer>` session names).
pub struct TcpAcceptor(pub TcpListener);

impl Acceptor for TcpAcceptor {
    fn fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }
    fn accept(&mut self) -> io::Result<Option<(Box<dyn ConnIo>, String)>> {
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
    fn accept(&mut self) -> io::Result<Option<(Box<dyn ConnIo>, String)>> {
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

/// One admitted connection, handed from the accept loop to the worker
/// that owns its session. Everything in it is `Send`; the `!Send`
/// session is built on the worker.
pub struct ConnAssign {
    pub id: crate::registry::SessionId,
    pub io: Box<dyn ConnIo>,
    pub mailbox: Arc<Mailbox>,
    pub out: Arc<OutQueue>,
}

struct Conn {
    io: Box<dyn ConnIo>,
    codec: LineCodec,
    mailbox: Arc<Mailbox>,
    out: Arc<OutQueue>,
    /// Encoded-but-unwritten bytes (partial write under backpressure).
    wbuf: Vec<u8>,
    wpos: usize,
    read_eof: bool,
    gone: bool,
}

impl Conn {
    fn want_read(&self) -> bool {
        !self.read_eof && !self.mailbox.is_closed()
    }
    fn want_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// One worker's readiness-driven I/O multiplexer around its
/// [`Scheduler`].
pub struct EventLoop {
    sched: Scheduler,
    shard: usize,
    poll: PollSet,
    conns: Vec<Option<Conn>>,
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
    /// read half joins the poll set, its write half is published in the
    /// registry for the accept loop ([`Registry::wake`]).
    pub fn with_wake(
        sched: Scheduler,
        shard: usize,
        poller: Box<dyn Poller>,
        wake: Option<(Box<dyn ConnIo>, Arc<dyn Wake>)>,
    ) -> EventLoop {
        sched.registry().set_poller_backend(poller.name());
        let mut poll = PollSet::new(poller);
        let wake = wake.map(|(rx, tx)| {
            sched.registry().set_waker(shard, tx);
            poll.register(Interest::read(WAKE_TOKEN, rx.fd()));
            rx
        });
        EventLoop {
            sched,
            shard,
            poll,
            conns: Vec::new(),
            wake,
            wakes: 0,
        }
    }

    /// Wake bytes this loop has drained: one per hand-off the accept
    /// loop signalled (fewer if several arrived within one poll).
    pub fn wakes(&self) -> u64 {
        self.wakes
    }

    /// Empties the wake channel.
    fn drain_wake(&mut self) {
        let Some(rx) = self.wake.as_mut() else {
            return;
        };
        let mut buf = [0u8; 64];
        loop {
            match rx.read(&mut buf) {
                Ok(n) if n > 0 => self.wakes += n as u64,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => break,
            }
        }
    }

    /// The scheduler (virtual clock, registry access) — tests drive it
    /// directly.
    pub fn scheduler(&mut self) -> &mut Scheduler {
        &mut self.sched
    }

    /// Live connections on this loop.
    pub fn conn_count(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    /// Takes ownership of an admitted connection: the session joins the
    /// scheduler ring, the socket joins the poll set.
    pub fn attach(&mut self, assign: ConnAssign) {
        self.sched.attach(
            assign.id,
            assign.mailbox.clone(),
            SessionSink::Queue(assign.out.clone()),
        );
        let conn = Conn {
            io: assign.io,
            codec: LineCodec::new(DEFAULT_MAX_LINE),
            mailbox: assign.mailbox,
            out: assign.out,
            wbuf: Vec::new(),
            wpos: 0,
            read_eof: false,
            gone: false,
        };
        let token = match self.conns.iter().position(|c| c.is_none()) {
            Some(i) => {
                self.conns[i] = Some(conn);
                i
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        let c = self.conns[token].as_ref().expect("just inserted");
        self.poll.register(Interest::read(token, c.io.fd()));
    }

    /// One poll wakeup: waits up to `timeout_ms`, then drains *every*
    /// readable connection into its mailbox (the batched sweep) before
    /// returning. Returns how many protocol lines were enqueued.
    pub fn poll_io(&mut self, timeout_ms: i32) -> usize {
        let ready: Vec<(usize, bool)> = match self.poll.wait(timeout_ms) {
            Ok(r) => r.iter().map(|r| (r.token, r.writable)).collect(),
            Err(_) => return 0,
        };
        let mut enqueued = 0;
        for (token, writable) in ready {
            if token == WAKE_TOKEN {
                self.drain_wake();
                continue;
            }
            if writable {
                self.flush_conn(token);
            }
            enqueued += self.sweep_read(token);
            self.update_interest(token);
        }
        enqueued
    }

    /// Reads one connection until `WouldBlock`, EOF or the sweep cap;
    /// decoded lines land in the session's mailbox (an over-capacity
    /// push is counted there and answered `!shed queue-full` by the
    /// scheduler). Returns lines enqueued.
    fn sweep_read(&mut self, token: usize) -> usize {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return 0;
        };
        if !conn.want_read() {
            return 0;
        }
        let mut buf = [0u8; 8192];
        let mut taken = 0usize;
        let mut lines = 0usize;
        loop {
            if taken >= READ_SWEEP_CAP {
                break; // level-triggered: the rest waits for the next wakeup
            }
            match conn.io.read(&mut buf) {
                Ok(0) => {
                    conn.read_eof = true;
                    conn.mailbox.close();
                    break;
                }
                Ok(n) => {
                    taken += n;
                    for line in conn.codec.push(&buf[..n]) {
                        let _ = conn.mailbox.push(line);
                        lines += 1;
                    }
                    if conn.mailbox.is_closed() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.gone = true;
                    conn.mailbox.close();
                    break;
                }
            }
        }
        lines
    }

    /// One scheduler sweep over the mailboxes just filled.
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
        for token in 0..self.conns.len() {
            if self.conns[token].is_some() {
                self.flush_conn(token);
                self.reap(token);
            }
        }
        let registry = self.sched.registry().clone();
        registry.set_shard_queued(self.shard, self.sched.queued_lines());
    }

    /// Moves lines from the out queue into the write buffer and pushes
    /// the buffer into the socket until it would block.
    fn flush_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        if conn.gone {
            return;
        }
        loop {
            if conn.wpos >= conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
                // Coalesce: one write call per flush, not per line.
                while let Some(line) = conn.out.pop() {
                    conn.wbuf.extend_from_slice(&LineCodec::encode(&line));
                    if conn.wbuf.len() >= READ_SWEEP_CAP {
                        break;
                    }
                }
                if conn.wbuf.is_empty() {
                    break;
                }
            }
            match conn.io.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    conn.gone = true;
                    break;
                }
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.gone = true;
                    break;
                }
            }
        }
    }

    /// Retires a connection that is finished (session released and tail
    /// flushed) or dead.
    fn reap(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        if conn.gone {
            // The client vanished: stop the session's output, let the
            // scheduler notice on its next send and release the slot.
            conn.out.mark_receiver_gone();
            conn.mailbox.close();
            conn.io.shutdown();
            self.conns[token] = None;
            self.poll.deregister(token);
            return;
        }
        if conn.out.is_finished() && !conn.want_write() {
            // Session released (sink dropped) and every reply written.
            conn.io.shutdown();
            self.conns[token] = None;
            self.poll.deregister(token);
            return;
        }
        self.update_interest(token);
    }

    fn update_interest(&mut self, token: usize) {
        let Some(conn) = self.conns.get(token).and_then(Option::as_ref) else {
            return;
        };
        let (read, write) = (conn.want_read(), conn.want_write());
        if read || write {
            self.poll.register(Interest {
                token,
                fd: conn.io.fd(),
                read,
                write,
            });
        } else {
            self.poll.deregister(token);
        }
    }

    /// Whether the loop has anything to do right now (skip the poll
    /// timeout when true).
    pub fn has_pending_work(&mut self) -> bool {
        self.conns.iter().flatten().any(|c| {
            !c.mailbox.is_empty() || !c.out.is_empty() || c.want_write() || c.out.is_finished()
        })
    }

    /// Drained and every connection retired — the worker may exit.
    pub fn is_drained(&mut self) -> bool {
        self.sched.is_drained() && self.conn_count() == 0
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
        AcceptLoop {
            registry,
            acceptors,
            txs,
            poller,
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
        let interests: Vec<Interest> = self
            .acceptors
            .iter()
            .enumerate()
            .map(|(i, a)| Interest::read(i, a.fd()))
            .collect();
        if self
            .poller
            .wait(&interests, timeout_ms, &mut self.ready)
            .is_err()
        {
            return 0;
        }
        let ready: Vec<usize> = self.ready.iter().map(|r| r.token).collect();
        let mut admitted = 0;
        for token in ready {
            loop {
                match self.acceptors[token].accept() {
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
    fn launch(&mut self, mut io: Box<dyn ConnIo>, peer: String) -> bool {
        let id = match self.registry.admit(&peer, 0) {
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
        let mailbox = Mailbox::new(self.registry.limits().queue_depth);
        let out = OutQueue::new();
        let worker = id.slot as usize % self.txs.len().max(1);
        if let Err(mut refused) = self.txs[worker].send(ConnAssign {
            id,
            io,
            mailbox,
            out,
        }) {
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
