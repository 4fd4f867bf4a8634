//! The socket transport: the readiness-driven event loop. One accept
//! thread polls every listener, and `workers` worker threads each run
//! an [`EventLoop`] over nonblocking sockets. Thread count is fixed at
//! `workers + 1` no matter how many connections are live, which is what
//! lets wafe-serve hold 10k concurrent clients.
//!
//! Connections are pinned: a session's slot picks its worker
//! (`slot % workers`), which is also its registry shard, so a worker
//! only ever touches its own shard's lock. Teardown is a single one-way
//! flag: [`Registry::begin_drain`] (set by `Server::drain` or a client's
//! `%serve drain`). The acceptor observes it and stops accepting;
//! schedulers observe it, close every session's input, run what was
//! queued and release the sessions; each connection closes once its
//! replies are written.

use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use wafe_core::Flavor;
use wafe_ipc::SysPoller;

use crate::event_loop::{AcceptLoop, Acceptor, ConnAssign, EventLoop, TcpAcceptor, UnixAcceptor};
use crate::registry::{Limits, Registry};
use crate::scheduler::Scheduler;

/// How a [`Server`] is stood up.
pub struct ServerConfig {
    /// TCP listen address (`None` = no TCP listener). `:0` picks a free
    /// port, reported by [`Server::local_addr`].
    pub tcp: Option<String>,
    /// Unix-socket path (`None` = no Unix listener). A stale socket
    /// file at the path is replaced.
    pub unix: Option<PathBuf>,
    /// Widget-set flavour of every session.
    pub flavor: Flavor,
    /// Scheduler threads in the bounded pool (== registry shards).
    pub workers: usize,
    /// Pre-enable telemetry on every session.
    pub telemetry: bool,
    /// Admission and fairness limits.
    pub limits: Limits,
    /// Log passthrough lines (non-command output of the sessions) to
    /// the server's stdout, tagged `[slot:generation]`.
    pub log_passthrough: bool,
    /// Persist parked session snapshots here (`waferd --park-dir`).
    /// Existing snapshots are loaded at startup (surviving a restart),
    /// and a graceful drain parks every live session instead of
    /// dropping it.
    pub park_dir: Option<PathBuf>,
    /// How long the accept loop sits out after an accept failure
    /// (`EMFILE`/`ENFILE` back-off tick).
    pub accept_backoff_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
            flavor: Flavor::Athena,
            workers: 4,
            telemetry: false,
            limits: Limits::default(),
            log_passthrough: false,
            park_dir: None,
            accept_backoff_ms: 50,
        }
    }
}

/// A running multi-session server.
pub struct Server {
    registry: Arc<Registry>,
    local_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    acceptors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listeners and spawns the pool: one accept thread,
    /// `workers` event loops, one registry shard per worker. Returns as
    /// soon as the server is accepting.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let nworkers = config.workers.max(1);
        let registry = Arc::new(Registry::with_shards(config.limits.clone(), nworkers));
        if let Some(dir) = &config.park_dir {
            registry
                .set_park_dir(dir.clone())
                .map_err(std::io::Error::other)?;
        }
        let mut txs: Vec<Sender<ConnAssign>> = Vec::new();
        let mut workers = Vec::new();
        for w in 0..nworkers {
            let (tx, rx) = mpsc::channel();
            txs.push(tx);
            let registry = registry.clone();
            let (flavor, telemetry, log) =
                (config.flavor, config.telemetry, config.log_passthrough);
            workers.push(
                thread::Builder::new()
                    .name(format!("wafe-serve-worker-{w}"))
                    .stack_size(wafe_tcl::EVAL_STACK_SIZE)
                    .spawn(move || worker_event_loop(registry, rx, w, flavor, telemetry, log))?,
            );
        }
        let mut acceptors: Vec<Box<dyn Acceptor>> = Vec::new();
        let mut local_addr = None;
        if let Some(addr) = &config.tcp {
            let listener = TcpListener::bind(addr.as_str())?;
            listener.set_nonblocking(true)?;
            local_addr = Some(listener.local_addr()?);
            acceptors.push(Box::new(TcpAcceptor(listener)));
        }
        let mut unix_path = None;
        if let Some(path) = &config.unix {
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            unix_path = Some(path.clone());
            acceptors.push(Box::new(UnixAcceptor::new(listener)));
        }
        let mut accept_threads = Vec::new();
        if !acceptors.is_empty() {
            let mut accept_loop =
                AcceptLoop::new(registry.clone(), acceptors, txs, Box::new(SysPoller::new()));
            let registry2 = registry.clone();
            let backoff = config.accept_backoff_ms.max(1) as i32;
            accept_threads.push(
                thread::Builder::new()
                    .name("wafe-serve-accept".into())
                    .spawn(move || {
                        while !registry2.draining() {
                            let timeout = if accept_loop.backing_off() {
                                backoff
                            } else {
                                10
                            };
                            accept_loop.poll_once(timeout);
                        }
                        // Dropping the loop drops the txs: workers see
                        // the disconnect and exit once drained.
                    })?,
            );
        }
        Ok(Server {
            registry,
            local_addr,
            unix_path,
            acceptors: accept_threads,
            workers,
        })
    }

    /// The shared registry (`serve status` data, drain flag, limits).
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// The bound TCP address, when a TCP listener was configured.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Blocks until the server has drained (a client's `%serve drain`,
    /// or [`drain`](Server::drain) from another thread via the
    /// registry) and every thread has exited.
    pub fn wait(mut self) {
        for h in self.acceptors.drain(..) {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Starts the graceful drain and blocks until it completes: stop
    /// accepting, run every queued line, release every session, exit.
    pub fn drain(self) {
        self.registry.begin_drain();
        self.wait();
    }
}

/// One worker: attach assignments, poll the sockets, run the
/// scheduler, flush the replies — forever, until the drain empties the
/// loop.
fn worker_event_loop(
    registry: Arc<Registry>,
    rx: Receiver<ConnAssign>,
    shard: usize,
    flavor: Flavor,
    telemetry: bool,
    log_passthrough: bool,
) {
    let sched = Scheduler::new(registry, flavor, telemetry);
    let mut el = EventLoop::new(sched, shard, Box::new(SysPoller::new()));
    let mut disconnected = false;
    let mut last = Instant::now();
    loop {
        loop {
            match rx.try_recv() {
                Ok(a) => el.attach(a),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        // With work queued, check readiness without blocking; idle,
        // sleep a tick in poll.
        let timeout = if el.has_pending_work() { 0 } else { 1 };
        el.poll_io(timeout);
        el.run_turn();
        el.flush_and_reap();
        for (id, line) in el.take_passthrough() {
            if log_passthrough {
                println!("[{id}] {line}");
            }
        }
        // Virtual time follows the wall here; tests drive advance()
        // directly instead.
        let elapsed = last.elapsed().as_millis() as u64;
        if elapsed > 0 {
            el.advance(elapsed);
            last = Instant::now();
        }
        if disconnected && el.is_drained() {
            return;
        }
    }
}
