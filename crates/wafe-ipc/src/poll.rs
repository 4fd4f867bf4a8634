//! Safe readiness polling over the `poll(2)` FFI shim, plus the two
//! other fd operations the event loop needs: nonblocking mode and the
//! pipe a spawned backend inherits as its mass-transfer channel.
//!
//! The frontend always multiplexed the backend's pipes with `poll(2)`
//! ("which is what keeps the GUI responsive while the application is
//! busy"); wafe-serve's event loop does that for one backend child or
//! thousands of sockets alike. Everything goes through this module, so
//! there is exactly one unsafe poll call in the workspace.
//!
//! The [`Poller`] trait is deliberately stateless about registration:
//! the caller owns its interest list and passes it on every wait, so
//! there is no registered copy to keep in sync. wafe-serve's event loop
//! derives that list afresh from its session table on each wakeup; its
//! simulated net implements the same trait, so the deterministic tests
//! see exactly the interest the real `poll(2)` would.

use std::fs::File;
use std::io;
use std::os::fd::OwnedFd;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::process::CommandExt;
use std::process::Command;

use crate::sys;

/// One fd the caller wants readiness for.
///
/// `token` is an opaque caller-chosen identifier echoed back in
/// [`Readiness`]; the event loop uses its connection slot so a poll
/// result never needs an fd→session lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub token: usize,
    pub fd: RawFd,
    /// Wait for readability (`POLLIN`). Off for a connection that hit
    /// EOF but still has buffered output — level-triggered `POLLIN`
    /// on an EOF'd socket would otherwise spin.
    pub read: bool,
    /// Wait for writability (`POLLOUT`).
    pub write: bool,
}

impl Interest {
    /// A plain read interest — the common case.
    pub fn read(token: usize, fd: RawFd) -> Interest {
        Interest {
            token,
            fd,
            read: true,
            write: false,
        }
    }
}

/// Readiness reported for one [`Interest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readiness {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
    /// Peer hung up or the fd errored; treat as readable-to-EOF.
    pub hup: bool,
}

impl Readiness {
    /// True when the fd needs any attention at all.
    pub fn any(&self) -> bool {
        self.readable || self.writable || self.hup
    }
}

/// A level-triggered readiness source.
///
/// `wait` blocks up to `timeout_ms` (0 = just check, negative = block
/// forever) and appends one [`Readiness`] per ready interest to `out`
/// (cleared first). An empty interest list is a plain sleep — the
/// accept loop leans on that to back off after `EMFILE`.
pub trait Poller: Send {
    /// Backend name surfaced in `serve status` (`"poll"` / `"sim"`).
    fn name(&self) -> &'static str;
    fn wait(
        &mut self,
        interests: &[Interest],
        timeout_ms: i32,
        out: &mut Vec<Readiness>,
    ) -> io::Result<()>;
}

/// The real `poll(2)` backend.
///
/// Keeps its `pollfd` buffer across calls so steady-state waits don't
/// reallocate.
#[derive(Default)]
pub struct SysPoller {
    fds: Vec<sys::pollfd>,
}

impl SysPoller {
    pub fn new() -> SysPoller {
        SysPoller::default()
    }
}

impl Poller for SysPoller {
    fn name(&self) -> &'static str {
        "poll"
    }

    fn wait(
        &mut self,
        interests: &[Interest],
        timeout_ms: i32,
        out: &mut Vec<Readiness>,
    ) -> io::Result<()> {
        out.clear();
        if interests.is_empty() {
            if timeout_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(timeout_ms as u64));
            }
            return Ok(());
        }
        self.fds.clear();
        for i in interests {
            let mut events = 0;
            if i.read {
                events |= sys::POLLIN;
            }
            if i.write {
                events |= sys::POLLOUT;
            }
            self.fds.push(sys::pollfd {
                fd: i.fd,
                events,
                revents: 0,
            });
        }
        // SAFETY: fds is a valid array of initialised pollfd structs
        // matching interests in length.
        let rc = unsafe {
            sys::poll(
                self.fds.as_mut_ptr(),
                self.fds.len() as sys::nfds_t,
                timeout_ms,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(()); // EINTR: report nothing ready, caller re-polls
            }
            return Err(err);
        }
        for (i, p) in interests.iter().zip(self.fds.iter()) {
            let r = Readiness {
                token: i.token,
                readable: p.revents & sys::POLLIN != 0,
                writable: p.revents & sys::POLLOUT != 0,
                hup: p.revents & (sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0,
            };
            if r.any() {
                out.push(r);
            }
        }
        Ok(())
    }
}

/// Puts `fd` into non-blocking mode via `fcntl(2)`.
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl F_GETFL/F_SETFL on an owned, valid fd.
    unsafe {
        let flags = sys::fcntl(fd, sys::F_GETFL);
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        if sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// A pipe whose write end the child spawned from `cmd` inherits at fd
/// `child_fd`. Returns the nonblocking read end, and the parent's copy
/// of the write end: drop it once the child is spawned (or the spawn
/// failed), so the read end sees EOF when the child exits.
pub fn child_pipe(cmd: &mut Command, child_fd: RawFd) -> io::Result<(File, OwnedFd)> {
    let (read, write) = io::pipe()?;
    let (read, write) = (File::from(OwnedFd::from(read)), OwnedFd::from(write));
    set_nonblocking(read.as_raw_fd())?;
    let write_fd = write.as_raw_fd();
    // SAFETY: dup2 in the child duplicates the inherited write end onto
    // the agreed fd, clearing close-on-exec — unless the write end
    // already is that fd, whose flag is cleared directly. write_fd stays
    // open in the parent until the caller drops `write`, after the spawn.
    unsafe {
        cmd.pre_exec(move || {
            let rc = if write_fd == child_fd {
                sys::fcntl(child_fd, sys::F_SETFD, 0)
            } else {
                sys::dup2(write_fd, child_fd)
            };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        });
    }
    Ok((read, write))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sys_poller_sees_pipe_readability() {
        let (r, mut w) = io::pipe().unwrap();
        let mut poller = SysPoller::new();
        let interests = [Interest::read(7, r.as_raw_fd())];
        let mut ready = Vec::new();
        poller.wait(&interests, 0, &mut ready).unwrap();
        assert!(ready.is_empty());
        io::Write::write_all(&mut w, b"x").unwrap();
        poller.wait(&interests, 100, &mut ready).unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].token, 7);
        assert!(ready[0].readable);
    }
}
