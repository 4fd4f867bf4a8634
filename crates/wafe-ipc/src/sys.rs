//! Minimal libc FFI surface for the event loop's fds.
//!
//! The crate needs exactly three syscall wrappers — `dup2`, `poll`,
//! `fcntl` — so it declares them directly instead of
//! pulling in the `libc` crate, keeping the workspace dependency-free
//! (it must build on network-less machines). Constants are the Linux
//! values; the poll flags and fcntl commands are identical across the
//! platforms Wafe targeted.

#![allow(non_camel_case_types)]

use std::os::raw::{c_int, c_short, c_ulong};

/// `nfds_t` from `poll(2)` — `unsigned long` on Linux.
pub type nfds_t = c_ulong;

/// One entry of the `poll(2)` fd set.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct pollfd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

/// There is data to read.
pub const POLLIN: c_short = 0x001;
/// Writing now will not block.
pub const POLLOUT: c_short = 0x004;
/// Error condition on the fd (revents only).
pub const POLLERR: c_short = 0x008;
/// Peer hung up (write end of the pipe closed).
pub const POLLHUP: c_short = 0x010;
/// Invalid request: fd not open (revents only).
pub const POLLNVAL: c_short = 0x020;

/// `fcntl(2)`: set file descriptor flags (close-on-exec).
pub const F_SETFD: c_int = 2;
/// `fcntl(2)`: get file status flags.
pub const F_GETFL: c_int = 3;
/// `fcntl(2)`: set file status flags.
pub const F_SETFL: c_int = 4;
/// Non-blocking I/O status flag.
pub const O_NONBLOCK: c_int = 0o4000;

extern "C" {
    pub fn dup2(oldfd: c_int, newfd: c_int) -> c_int;
    pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
    pub fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
}
