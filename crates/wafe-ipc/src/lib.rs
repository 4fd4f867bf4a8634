//! Wafe's frontend-mode communication.
//!
//! "A typical Wafe application consists of two parts, the frontend
//! (Wafe) and an application program, which typically run as separate
//! processes. The application program talks to the frontend via stdin.
//! Each output line from the application process starting with a certain
//! prefix character is interpreted as a Wafe (or pure Tcl) command."
//!
//! The crate splits the mechanism into two layers:
//!
//! * [`protocol::ProtocolEngine`] — the transport-independent protocol:
//!   `%`-prefixed lines are commands, other lines pass through, the 64 KB
//!   line limit, the mass-transfer channel accumulator and the queue of
//!   messages the GUI sends back to the application. Deterministic, used
//!   directly by tests and benchmarks.
//! * [`frontend::Frontend`] — the real-process transport: spawns the
//!   backend as a child (including the paper's `ln -s wafe xwafeApp`
//!   argv\[0\] naming scheme), wires the stdio pipes and the optional
//!   mass-transfer pipe (inherited by the child at a fixed fd, reported
//!   by `getChannel`), and multiplexes backend output with GUI events via
//!   `poll(2)` — which is what keeps the GUI responsive while the
//!   application is busy and buffers clicks ahead.

//! * [`supervisor::Supervisor`] — the reliability layer the paper lacks:
//!   read/round-trip timeouts, exponential-backoff restarts behind a
//!   circuit breaker, flood limits, bounded outbound queueing while the
//!   backend is down, and a deterministic [`fault::FaultPlan`]
//!   fault-injection substrate driving the chaos test suite.

pub mod codec;
pub mod fault;
pub mod frontend;
pub mod poll;
pub mod protocol;
pub mod supervisor;
pub(crate) mod sys;

pub use codec::LineCodec;
pub use fault::{FaultAction, FaultPlan, FAULTS_ENV_VAR, FAULT_POINTS};
pub use frontend::{backend_from_argv0, Frontend, FrontendConfig, SpawnSpec};
pub use poll::{set_nonblocking, Interest, Poller, Readiness, SysPoller};
pub use protocol::{command_body, ProtocolEngine, DEFAULT_MAX_LINE, DEFAULT_PREFIX};
pub use supervisor::{BackendState, Supervisor, SupervisorConfig, SupervisorCore};
