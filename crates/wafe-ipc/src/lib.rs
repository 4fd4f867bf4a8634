//! Wafe's frontend-mode communication.
//!
//! "A typical Wafe application consists of two parts, the frontend
//! (Wafe) and an application program, which typically run as separate
//! processes. The application program talks to the frontend via stdin.
//! Each output line from the application process starting with a certain
//! prefix character is interpreted as a Wafe (or pure Tcl) command."
//!
//! The crate holds the protocol and the pieces every transport shares;
//! the transports themselves — the backend child of frontend mode and
//! the sockets of the server — are connections of wafe-serve's event
//! loop, which runs both.
//!
//! * [`protocol::ProtocolEngine`] — the transport-independent protocol:
//!   `%`-prefixed lines are commands, other lines pass through, the 64 KB
//!   line limit, the mass-transfer channel accumulator and the queue of
//!   messages the GUI sends back to the application. Deterministic, used
//!   directly by tests and benchmarks.
//! * [`codec::LineCodec`] — the line framing of every connection.
//! * [`fault::FaultPlan`] — deterministic fault injection at the named
//!   points of a connection, driving the chaos test suite.
//! * [`poll`] — `poll(2)` readiness, nonblocking mode and the inherited
//!   mass-transfer pipe, over the crate's minimal libc shim.

pub mod codec;
pub mod fault;
pub mod poll;
pub mod protocol;
pub(crate) mod sys;

pub use codec::LineCodec;
pub use fault::{FaultAction, FaultPlan, FAULTS_ENV_VAR, FAULT_POINTS};
pub use poll::{child_pipe, set_nonblocking, Interest, Poller, Readiness, SysPoller};
pub use protocol::{command_body, ProtocolEngine, DEFAULT_MAX_LINE, DEFAULT_PREFIX};
