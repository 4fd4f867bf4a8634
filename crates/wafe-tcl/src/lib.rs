//! An embeddable Tcl command language interpreter.
//!
//! This crate reimplements the Tcl language of the era Wafe embedded
//! (Tcl 6.x, 1992): one data type — the string — and a command syntax in
//! which every command is simply a list of words. It provides the same
//! embedding contract the C library gave Wafe:
//!
//! * a host program creates an [`Interp`],
//! * registers additional commands with [`Interp::register`] (the analogue
//!   of `Tcl_CreateCommand`), each command receiving its arguments as a
//!   slice of [`Value`]s — shared, dual-representation strings (see
//!   [`value`]) — and returning a `Value` result, and
//! * evaluates scripts with [`Interp::eval`].
//!
//! Substitution rules follow the Tcl book: `$var` and `$arr(elem)` variable
//! substitution, `[command]` command substitution, backslash escapes,
//! `"..."` quoting (substitution, no word splitting) and `{...}` bracing
//! (no substitution at all). Control flow (`break`, `continue`, `return`)
//! is modelled as the non-`Ok` variants of [`TclError`], exactly as Tcl's
//! `TCL_BREAK`/`TCL_CONTINUE`/`TCL_RETURN` completion codes.
//!
//! # Examples
//!
//! ```
//! use wafe_tcl::Interp;
//!
//! let mut interp = Interp::new();
//! let r = interp.eval("set x 17; expr {$x * 2 + 8}").unwrap();
//! assert_eq!(r, "42");
//! ```

pub mod bc;
pub mod commands;
pub mod compile;
pub mod error;
pub mod expr;
pub mod glob;
pub mod hash;
pub mod interp;
pub mod list;
mod parser;
pub(crate) mod profile;
pub mod regex;
pub mod snapshot;
pub mod value;

pub use compile::{compile, CompiledScript};
pub use error::{TclError, TclResult};
pub use interp::{CmdFn, CommandBase, Interp, OutputSink, EVAL_STACK_SIZE};
pub use list::{list_append, list_join, list_quote, parse_list};
pub use snapshot::InterpSnapshot;
pub use value::{IntRep, Value};
pub use wafe_trace::{Metric, Telemetry};

/// Convenience alias for the result type returned by Tcl commands.
pub type CmdResult = TclResult<Value>;
