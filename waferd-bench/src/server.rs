//! The two ways the benchmark hosts a server: a fresh release `waferd`
//! child process (the untraced run), or the same event loop hosted in
//! this process from wafe-serve's public steps, with a span around
//! every step (the traced run).

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use wafe_core::Flavor;
use wafe_ipc::SysPoller;
use wafe_serve::event_loop::TcpAcceptor;
use wafe_serve::{AcceptLoop, Acceptor, ConnAssign, EventLoop, Limits, Registry, Scheduler};

use crate::procfs;
use crate::trace::{Spans, CUR_OP};

/// A `waferd` child process, killed (not drained) on drop so that an
/// error mid-run cannot leak a server.
pub struct Waferd {
    child: Child,
    addr: SocketAddr,
}

impl Waferd {
    pub fn spawn(bin: &Path, workers: usize) -> Result<Waferd, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--quiet", "--workers"])
            .arg(workers.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut banner = String::new();
        let read = BufReader::new(child.stdout.take().expect("stdout is piped"))
            .read_line(&mut banner)
            .map_err(|e| e.to_string());
        let addr = read.and_then(|_| {
            banner
                .trim_end()
                .strip_prefix("waferd listening tcp ")
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| format!("unexpected waferd banner {banner:?}"))
        });
        let mut w = Waferd {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        w.addr = addr?;
        Ok(w)
    }
}

impl Drop for Waferd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The in-process host: one accept thread and `workers` event-loop
/// threads, each a step-for-step copy of waferd's worker loop with a
/// span around every step.
pub struct InProc {
    registry: Arc<Registry>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<Spans>>,
    tids: Arc<Mutex<Vec<u32>>>,
    /// Whether the server threads record spans.
    pub traced: Arc<AtomicBool>,
}

impl InProc {
    pub fn start(workers: usize, epoch: Instant) -> Result<InProc, String> {
        let registry = Arc::new(Registry::with_shards(Limits::default(), workers));
        let traced = Arc::new(AtomicBool::new(false));
        let tids = Arc::new(Mutex::new(Vec::new()));
        let mut txs = Vec::new();
        let mut threads = Vec::new();
        for shard in 0..workers {
            let (tx, rx) = mpsc::channel();
            txs.push(tx);
            let (registry, traced, tids) = (registry.clone(), traced.clone(), tids.clone());
            threads.push(
                thread::Builder::new()
                    .name(format!("bench-worker-{shard}"))
                    .spawn(move || {
                        note_tid(&tids);
                        worker(registry, rx, shard, Spans::new("worker", epoch), &traced)
                    })
                    .map_err(|e| e.to_string())?,
            );
        }
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let acceptors: Vec<Box<dyn Acceptor>> = vec![Box::new(TcpAcceptor(listener))];
        let mut accept =
            AcceptLoop::new(registry.clone(), acceptors, txs, Box::new(SysPoller::new()));
        let (reg, tr, td) = (registry.clone(), traced.clone(), tids.clone());
        threads.push(
            thread::Builder::new()
                .name("bench-accept".into())
                .spawn(move || {
                    note_tid(&td);
                    let mut sp = Spans::new("accept", epoch);
                    // waferd's accept thread: 10 ms ticks, the back-off
                    // (default 50 ms) after an accept error.
                    while !reg.draining() {
                        sp.on = tr.load(Ordering::Relaxed);
                        let t0 = sp.now_ns();
                        let timeout = if accept.backing_off() { 50 } else { 10 };
                        let admitted = accept.poll_once(timeout);
                        if admitted > 0 {
                            let t1 = sp.now_ns();
                            sp.push("serve.accept", t0, t1, admitted);
                        }
                    }
                    sp
                })
                .map_err(|e| e.to_string())?,
        );
        Ok(InProc {
            registry,
            addr,
            threads,
            tids,
            traced,
        })
    }

    /// Drains the server and joins its threads, returning their spans.
    pub fn stop(&mut self) -> Vec<Spans> {
        self.registry.begin_drain();
        self.threads
            .drain(..)
            .filter_map(|h| h.join().ok())
            .collect()
    }
}

impl Drop for InProc {
    fn drop(&mut self) {
        self.stop();
    }
}

fn note_tid(tids: &Mutex<Vec<u32>>) {
    if let Some(tid) = procfs::this_thread_id() {
        tids.lock()
            .expect("no thread panics holding the tid list")
            .push(tid);
    }
}

/// `worker_event_loop` of `crates/wafe-serve/src/server.rs`, step for
/// step: hand-offs, a non-blocking poll with work pending and a 1 ms
/// poll when idle, the scheduler turn, the flush, the virtual clock.
fn worker(
    registry: Arc<Registry>,
    rx: Receiver<ConnAssign>,
    shard: usize,
    mut sp: Spans,
    traced: &AtomicBool,
) -> Spans {
    let sched = Scheduler::new(registry, Flavor::Athena, false);
    let mut el = EventLoop::new(sched, shard, Box::new(SysPoller::new()));
    let mut disconnected = false;
    let mut last = Instant::now();
    loop {
        sp.on = traced.load(Ordering::Relaxed);
        let op = CUR_OP.load(Ordering::Relaxed);
        let iter = sp.begin("serve.iter", op);
        loop {
            match rx.try_recv() {
                Ok(a) => {
                    let s = sp.begin("serve.attach", op);
                    el.attach(a);
                    sp.end(s);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        let pending = el.has_pending_work();
        let s = sp.begin(
            if pending {
                "serve.poll_io"
            } else {
                "serve.poll_wait"
            },
            op,
        );
        let lines = el.poll_io(if pending { 0 } else { 1 });
        sp.end_n(s, lines);
        let s = sp.begin("serve.run_turn", op);
        let ran = el.run_turn();
        sp.end_n(s, ran);
        let s = sp.begin("serve.flush", op);
        el.flush_and_reap();
        sp.end(s);
        // `--quiet`: passthrough lines are taken and dropped.
        let _ = el.take_passthrough();
        let elapsed = last.elapsed().as_millis() as u64;
        if elapsed > 0 {
            let s = sp.begin("serve.advance", op);
            el.advance(elapsed);
            sp.end(s);
            last = Instant::now();
        }
        sp.end(iter);
        if disconnected && el.is_drained() {
            return sp;
        }
    }
}

impl Waferd {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// On-CPU nanoseconds of every server thread.
    pub fn cpu_ns(&self) -> u64 {
        procfs::process_cpu_ns(self.child.id())
    }

    /// Resident KiB of the server process.
    pub fn rss_kb(&self) -> u64 {
        procfs::rss_kb(&self.child.id().to_string())
    }
}

impl InProc {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// On-CPU nanoseconds of the server threads.
    pub fn cpu_ns(&self) -> u64 {
        procfs::threads_cpu_ns(
            &self
                .tids
                .lock()
                .expect("no thread panics holding the tid list"),
        )
    }
}
