//! wafe-serve: many concurrent Wafe frontends in one process.
//!
//! The paper binds exactly one application to one Wafe process over a
//! duplex pipe. This crate is the serving layer that removes the 1:1
//! bound: a std-only multi-session server (`waferd`) accepts TCP and
//! Unix-socket connections speaking the *same* `%`-prefixed line
//! protocol — framed by the same [`wafe_ipc::LineCodec`] the pipe uses,
//! so the two transports cannot drift — and runs one headless
//! `WafeSession` per connection.
//!
//! The moving parts, one module each:
//!
//! * [`registry`] — generation-stamped session identities, admission
//!   control (max-sessions, draining) and the server-wide counters
//!   behind the `serve status` Tcl command.
//! * [`mailbox`] — the bounded per-session inbound queue (full = an
//!   explicit `!shed queue-full` reply, never a silent drop) and the
//!   outbound sink abstraction.
//! * [`scheduler`] — the deterministic core: sessions pinned to a
//!   worker, round-robin sweeps of at most `quantum` lines per session
//!   (a flooding client cannot starve a quiet one), idle eviction and
//!   drain timeout on a virtual-tick clock. Everything the tests
//!   assert lives here, with no threads and no wall clock. Idle
//!   eviction *parks* the session — a versioned `SessionSnapshot`
//!   kept by the registry under the generation-stamped id — and a
//!   reconnect saying `session restore <id>` gets it back, queued
//!   outbound lines replayed in order (`docs/checkpoint.md`).
//! * [`event_loop`] — the readiness-driven transport core: one poll(2)
//!   wakeup drains every readable connection into its mailbox (the
//!   batched sweep), the scheduler runs, replies flush — behind the
//!   [`wafe_ipc::Poller`] trait so tests swap in a simulated net.
//! * [`sim`] — that simulated net: scripted byte chunks, accept-queue
//!   errors and readiness with no timing anywhere.
//! * [`server`] — the socket transport: the event-loop workers (default)
//!   or the thread-per-connection baseline, plus graceful drain.
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
//! histogram serve.dispatch`). The `serve status|sessions|drain|limits`
//! command is registered by wafe-core and dispatches into
//! [`scheduler::install_serve_control`].

pub mod display;
pub mod event_loop;
pub mod mailbox;
pub mod registry;
pub mod scheduler;
pub mod server;
pub mod sim;

pub use display::{install_display_control, DisplayCtl};
pub use event_loop::{AcceptLoop, Acceptor, ConnAssign, ConnIo, EventLoop, Wake};
pub use mailbox::{Mailbox, OutQueue, SessionSink};
pub use registry::{Limits, Registry, ServerStats, SessionId, ShedReason, LIMIT_KEYS};
pub use scheduler::{install_serve_control, install_session_control, Scheduler, SessionCtl};
pub use server::{IoModel, Server, ServerConfig};
pub use sim::{SimClient, SimNet};
