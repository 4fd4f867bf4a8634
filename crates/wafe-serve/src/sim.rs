//! A simulated socket layer for deterministic event-loop tests.
//!
//! [`SimNet`] plays both kernel and client: a test injects byte chunks
//! and accept-queue entries, and the event loop sees them through the
//! same [`ConnIo`]/[`Acceptor`]/[`Poller`] traits the real sockets use.
//! Chunk boundaries are preserved — each injected chunk is returned by
//! exactly one `read` call — so a test controls precisely how a line is
//! split across poll wakeups (the 1-byte-dribble reassembly tests).
//! A client's scripted write window stalls the server's writes the way
//! a full socket buffer does (the backpressure tests). The poller
//! derives readiness from the queue states, so there is no timing
//! anywhere: a fd is readable iff bytes (or EOF) are pending, writable
//! iff its window is open.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::os::unix::io::RawFd;
use std::sync::{Arc, Mutex};

use wafe_ipc::{Interest, Poller, Readiness};

use crate::event_loop::{Acceptor, ConnIo, Wake};

#[derive(Default)]
struct SimConnState {
    /// Client→server chunks; one chunk per `read` call.
    inbound: VecDeque<Vec<u8>>,
    eof: bool,
    /// Server→client bytes.
    received: Vec<u8>,
    /// Bytes the server may still write before `WouldBlock`; `None`
    /// is unlimited.
    write_window: Option<usize>,
    /// Whether the last poll watched this conn for readability.
    read_armed: bool,
    /// Whether the last poll watched this conn for writability.
    write_armed: bool,
    /// The client vanished: reads and writes fail.
    reset: bool,
    shutdown: bool,
}

#[derive(Default)]
struct SimNetState {
    conns: HashMap<RawFd, SimConnState>,
    /// Pending accepts: a connection's pseudo-fd, or an errno the
    /// accept call should fail with.
    accept_queue: VecDeque<Result<RawFd, i32>>,
    next_fd: RawFd,
}

/// The shared simulated network. Clone handles freely; all state lives
/// behind one mutex.
#[derive(Clone, Default)]
pub struct SimNet {
    state: Arc<Mutex<SimNetState>>,
}

/// The listener's pseudo-fd (never collides with conn fds, which start
/// at 1000).
pub const SIM_LISTENER_FD: RawFd = 999;

impl SimNet {
    pub fn new() -> SimNet {
        let net = SimNet::default();
        net.lock().next_fd = 1000;
        net
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SimNetState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn new_conn(&self) -> RawFd {
        let mut s = self.lock();
        let fd = s.next_fd;
        s.next_fd += 1;
        s.conns.insert(fd, SimConnState::default());
        fd
    }

    /// A directly attached connection pair, bypassing the accept queue
    /// (for tests that drive an [`EventLoop`](crate::EventLoop)
    /// without an accept loop).
    pub fn socketpair(&self) -> (SimClient, Box<dyn ConnIo + Send>) {
        let fd = self.new_conn();
        (
            SimClient {
                net: self.clone(),
                fd,
            },
            Box::new(SimConnIo {
                net: self.clone(),
                fd,
            }),
        )
    }

    /// A simulated wake channel for
    /// [`EventLoop::with_wake`](crate::EventLoop::with_wake): each wake
    /// makes the read half readable, like the socket pair
    /// [`socket_wake`](crate::event_loop::socket_wake) does for real.
    pub fn wake_pair(&self) -> (Box<dyn ConnIo>, Arc<dyn Wake>) {
        let (client, io) = self.socketpair();
        (io as Box<dyn ConnIo>, Arc::new(client))
    }

    /// Enqueues a client connection for the accept loop; the returned
    /// client talks to whatever session the accept admits.
    pub fn connect(&self) -> SimClient {
        let fd = self.new_conn();
        self.lock().accept_queue.push_back(Ok(fd));
        SimClient {
            net: self.clone(),
            fd,
        }
    }

    /// Makes the accept loop's next `accept` fail with `errno`
    /// (`EMFILE` = 24, `ENFILE` = 23).
    pub fn push_accept_error(&self, errno: i32) {
        self.lock().accept_queue.push_back(Err(errno));
    }

    /// The acceptor for this net's single simulated listener.
    pub fn acceptor(&self) -> Box<dyn Acceptor> {
        Box::new(SimAcceptor { net: self.clone() })
    }

    /// The poller deriving readiness from this net's queues.
    pub fn poller(&self) -> Box<dyn Poller> {
        Box::new(SimNetPoller {
            net: self.clone(),
            watched: Vec::new(),
        })
    }

    fn readable(&self, fd: RawFd) -> bool {
        let s = self.lock();
        if fd == SIM_LISTENER_FD {
            return !s.accept_queue.is_empty();
        }
        s.conns
            .get(&fd)
            .map(|c| !c.inbound.is_empty() || c.eof || c.reset)
            .unwrap_or(false)
    }

    fn writable(&self, fd: RawFd) -> bool {
        let s = self.lock();
        s.conns.get(&fd).is_some_and(|c| c.write_window != Some(0))
    }
}

/// The test's handle to one simulated client connection.
pub struct SimClient {
    net: SimNet,
    fd: RawFd,
}

impl SimClient {
    /// Injects one chunk of client→server bytes; the server's next
    /// `read` on this conn returns exactly this chunk.
    pub fn send(&self, bytes: &[u8]) {
        let mut s = self.net.lock();
        if let Some(c) = s.conns.get_mut(&self.fd) {
            c.inbound.push_back(bytes.to_vec());
        }
    }

    /// Closes the client→server direction (server reads EOF after the
    /// pending chunks).
    pub fn send_eof(&self) {
        let mut s = self.net.lock();
        if let Some(c) = s.conns.get_mut(&self.fd) {
            c.eof = true;
        }
    }

    /// Scripts the client's receive window: the server's writes accept
    /// at most `bytes` more, then return `WouldBlock`. `None` (the
    /// default) is unlimited.
    pub fn set_write_window(&self, bytes: Option<usize>) {
        let mut s = self.net.lock();
        if let Some(c) = s.conns.get_mut(&self.fd) {
            c.write_window = bytes;
        }
    }

    /// Whether the server's last poll watched this connection for
    /// readability (its read interest is armed).
    pub fn read_armed(&self) -> bool {
        let s = self.net.lock();
        s.conns.get(&self.fd).is_some_and(|c| c.read_armed)
    }

    /// Whether the server's last poll watched this connection for
    /// writability (its write interest is armed).
    pub fn write_armed(&self) -> bool {
        let s = self.net.lock();
        s.conns.get(&self.fd).is_some_and(|c| c.write_armed)
    }

    /// The client vanishes: the server's next read or write on this
    /// connection fails with `ECONNRESET`.
    pub fn reset(&self) {
        let mut s = self.net.lock();
        if let Some(c) = s.conns.get_mut(&self.fd) {
            c.reset = true;
        }
    }

    /// Everything the server has written to this client so far.
    pub fn received(&self) -> Vec<u8> {
        let s = self.net.lock();
        s.conns
            .get(&self.fd)
            .map(|c| c.received.clone())
            .unwrap_or_default()
    }

    /// The server's output split on newlines (complete lines only).
    pub fn received_lines(&self) -> Vec<String> {
        let bytes = self.received();
        let text = String::from_utf8_lossy(&bytes);
        text.split_terminator('\n').map(str::to_string).collect()
    }

    /// Whether the server closed this connection.
    pub fn is_shutdown(&self) -> bool {
        let s = self.net.lock();
        s.conns.get(&self.fd).map(|c| c.shutdown).unwrap_or(true)
    }
}

impl Wake for SimClient {
    fn wake(&self) {
        self.send(&[1]);
    }
}

struct SimConnIo {
    net: SimNet,
    fd: RawFd,
}

impl ConnIo for SimConnIo {
    fn fd(&self) -> RawFd {
        self.fd
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut s = self.net.lock();
        let Some(c) = s.conns.get_mut(&self.fd) else {
            return Ok(0);
        };
        if c.reset {
            return Err(io::Error::from(io::ErrorKind::ConnectionReset));
        }
        match c.inbound.pop_front() {
            Some(mut chunk) => {
                if chunk.len() > buf.len() {
                    // Oversized chunk: the remainder stays queued.
                    let rest = chunk.split_off(buf.len());
                    c.inbound.push_front(rest);
                }
                buf[..chunk.len()].copy_from_slice(&chunk);
                Ok(chunk.len())
            }
            None if c.eof => Ok(0),
            None => Err(io::Error::from(io::ErrorKind::WouldBlock)),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut s = self.net.lock();
        let Some(c) = s.conns.get_mut(&self.fd) else {
            return Err(io::Error::from(io::ErrorKind::BrokenPipe));
        };
        if c.shutdown || c.reset {
            return Err(io::Error::from(io::ErrorKind::BrokenPipe));
        }
        let n = c.write_window.map_or(buf.len(), |w| w.min(buf.len()));
        if n == 0 && !buf.is_empty() {
            return Err(io::Error::from(io::ErrorKind::WouldBlock));
        }
        if let Some(w) = c.write_window.as_mut() {
            *w -= n;
        }
        c.received.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn shutdown(&mut self) {
        let mut s = self.net.lock();
        if let Some(c) = s.conns.get_mut(&self.fd) {
            c.shutdown = true;
        }
    }
}

struct SimAcceptor {
    net: SimNet,
}

impl Acceptor for SimAcceptor {
    fn fd(&self) -> RawFd {
        SIM_LISTENER_FD
    }

    fn accept(&mut self) -> io::Result<Option<(Box<dyn ConnIo + Send>, String)>> {
        let popped = self.net.lock().accept_queue.pop_front();
        match popped {
            Some(Ok(fd)) => Ok(Some((
                Box::new(SimConnIo {
                    net: self.net.clone(),
                    fd,
                }) as Box<dyn ConnIo + Send>,
                format!("sim/{fd}"),
            ))),
            Some(Err(errno)) => Err(io::Error::from_raw_os_error(errno)),
            None => Ok(None),
        }
    }
}

/// Readiness straight from the [`SimNet`] queues; never waits.
struct SimNetPoller {
    net: SimNet,
    /// The conns the last wait watched.
    watched: Vec<RawFd>,
}

impl Poller for SimNetPoller {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn wait(
        &mut self,
        interests: &[Interest],
        _timeout_ms: i32,
        out: &mut Vec<Readiness>,
    ) -> io::Result<()> {
        out.clear();
        {
            let mut s = self.net.lock();
            for fd in self.watched.drain(..) {
                if let Some(c) = s.conns.get_mut(&fd) {
                    c.read_armed = false;
                    c.write_armed = false;
                }
            }
            for i in interests {
                if let Some(c) = s.conns.get_mut(&i.fd) {
                    c.read_armed = i.read;
                    c.write_armed = i.write;
                    self.watched.push(i.fd);
                }
            }
        }
        for i in interests {
            let r = Readiness {
                token: i.token,
                readable: i.read && self.net.readable(i.fd),
                writable: i.write && self.net.writable(i.fd),
                hup: false,
            };
            if r.any() {
                out.push(r);
            }
        }
        Ok(())
    }
}
