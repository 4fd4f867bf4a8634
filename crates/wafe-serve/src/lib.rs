//! wafe-serve: the event loop of every Wafe session — frontend mode's
//! one application, and many concurrent sessions in one process.
//!
//! The paper binds exactly one application to one Wafe process over a
//! duplex pipe. This crate runs that pipe and removes the 1:1 bound
//! with the same loop: a std-only multi-session server (`waferd`)
//! accepts TCP and Unix-socket connections speaking the *same*
//! `%`-prefixed line protocol and runs one headless `WafeSession` per
//! connection, and frontend mode ([`Frontend`]) is that loop with one
//! session whose connection is the supervised backend child. Both
//! kinds of connection are a [`ConnIo`]; the loop never tells them
//! apart.
//!
//! The moving parts, one module each:
//!
//! * [`registry`] — generation-stamped session identities, admission
//!   control (max-sessions, draining) and the server-wide counters
//!   behind the `serve status` Tcl command.
//! * [`scheduler`] — the deterministic core: sessions pinned to a
//!   worker, each one record holding the engine and the connection
//!   (a bounded inbound queue — full = an explicit `!shed queue-full`
//!   reply, never a silent drop — and the outbound lines, frame slot
//!   and write buffer), round-robin sweeps of at most `quantum` lines
//!   per session (a flooding client cannot starve a quiet one), idle
//!   eviction and drain timeout on a virtual-tick clock. Everything
//!   the tests assert lives here, with no threads and no wall clock. Idle
//!   eviction *parks* the session — a versioned `SessionSnapshot`
//!   kept by the registry under the generation-stamped id — and a
//!   reconnect saying `session restore <id>` gets it back, queued
//!   outbound lines replayed in order (`docs/checkpoint.md`).
//! * [`event_loop`] — the readiness-driven transport core: one poll(2)
//!   wakeup drains every readable connection into its session (the
//!   batched sweep), the scheduler runs, replies flush — behind the
//!   [`wafe_ipc::Poller`] trait so tests swap in a simulated net. The
//!   poll interest is derived from the session records on each wakeup;
//!   the session table is the only copy of it.
//! * [`supervisor`] — frontend mode's backend child as a connection:
//!   nonblocking pipes, fault points, timeouts, backoff restarts, the
//!   breaker and the queue of lines held while the child is down
//!   (`docs/supervisor.md`).
//! * [`frontend`] — frontend mode: the one-session loop around it.
//! * [`sim`] — that simulated net: scripted byte chunks, write
//!   windows, accept-queue errors and readiness with no timing
//!   anywhere.
//! * [`server`] — the socket transport: the accept thread and the
//!   event-loop workers, plus graceful drain.
//! * [`display`] — the remote display channel: `%display attach` turns
//!   on compositing and the scheduler ships damage-tracked
//!   [`wafe_display::Frame`]s as `!display frame <hex>` notices, with
//!   input coming back as `%display event <hex>` lines
//!   (`docs/display.md`).
//!
//! Observability flows through `wafe-trace` per session:
//! `serve.accept` / `serve.commands` / `serve.shed` / `serve.evict`
//! counters, `serve.sessions.active` / `serve.queue.depth` gauges and
//! the `serve.dispatch` latency histogram (p50/p90/p99 via `telemetry
//! histogram serve.dispatch`). Each session store rolls its counters up
//! into its registry shard, so the server-wide totals (`serve status`)
//! are the same counts, not a second tally. The `serve status|sessions|drain|limits`
//! command is registered by wafe-core and dispatches into
//! [`scheduler::install_serve_control`].

pub mod display;
pub mod event_loop;
pub mod frontend;
pub mod registry;
pub mod scheduler;
pub mod server;
pub mod sim;
pub mod supervisor;

pub use display::{install_display_control, DisplayCtl};
pub use event_loop::{AcceptLoop, Acceptor, ConnAssign, ConnIo, EventLoop, Wake};
pub use frontend::{backend_from_argv0, Frontend, FrontendConfig};
pub use registry::{Limits, Registry, SessionId, ShedReason, LIMIT_KEYS};
pub use scheduler::{install_serve_control, install_session_control, Scheduler, SessionCtl};
pub use server::{Server, ServerConfig};
pub use sim::{SimClient, SimNet};
pub use supervisor::{BackendState, SupervisorConfig};
