//! The per-session mailbox and reply sink — the two hand-off points
//! between a connection's transport and the scheduler that owns the
//! session.
//!
//! A mailbox is the *inbound* half: the event loop pushes decoded
//! lines, the scheduler pops them a quantum at a time. It is bounded —
//! a full mailbox refuses the push and the transport answers the client
//! with `!shed queue-full` instead of buffering without limit. The sink
//! is the *outbound* half: everything the session wants the application
//! to read (echo output, shed/evict notices) goes through it, either
//! into an in-memory buffer (deterministic tests) or an [`OutQueue`]
//! the owning worker's event loop flushes to the socket.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A bounded inbound line queue, shared between one connection's
/// transport and one scheduler.
pub struct Mailbox {
    queue: Mutex<VecDeque<String>>,
    cap: usize,
    closed: AtomicBool,
    shed: AtomicU64,
}

impl Mailbox {
    /// A mailbox holding at most `cap` lines.
    pub fn new(cap: usize) -> Arc<Mailbox> {
        Arc::new(Mailbox {
            queue: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
            closed: AtomicBool::new(false),
            shed: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<String>> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueues one line. `false` means the line was shed: the mailbox
    /// is full (counted here) or closed.
    pub fn push(&self, line: String) -> bool {
        if self.is_closed() {
            return false;
        }
        let mut q = self.lock();
        if q.len() >= self.cap {
            drop(q);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        q.push_back(line);
        true
    }

    /// Dequeues the oldest line.
    pub fn pop(&self) -> Option<String> {
        self.lock().pop_front()
    }

    /// Lines currently queued.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Marks the inbound direction finished (EOF, eviction, drain);
    /// further pushes are refused, queued lines still drain.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Whether the inbound direction is finished.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Takes (and resets) the count of lines shed since the last call.
    pub fn take_shed(&self) -> u64 {
        self.shed.swap(0, Ordering::Relaxed)
    }
}

/// The outbound line queue between a session and the event loop that
/// flushes its connection. Both ends are polled by the same worker, so
/// this is a plain locked deque plus two completion flags: `sink_closed` (the session
/// is finished; flush what is queued, then close the socket) and
/// `receiver_gone` (the client vanished; drop everything pushed).
#[derive(Default)]
struct OutQueueInner {
    lines: VecDeque<String>,
    /// At most one display frame in flight per connection. A newer
    /// frame *replaces* an unsent one (coalesce-to-latest) — the
    /// scheduler re-merges the replaced frame's damage, so a slow
    /// client falls behind in time, never in content, and the queue
    /// stays bounded no matter how fast the screen changes.
    frame: Option<String>,
    sink_closed: bool,
    receiver_gone: bool,
}

/// Shared outbound queue for the event-loop transport.
#[derive(Default)]
pub struct OutQueue {
    inner: Mutex<OutQueueInner>,
}

impl OutQueue {
    pub fn new() -> Arc<OutQueue> {
        Arc::new(OutQueue::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, OutQueueInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueues one line; `false` means the client side is gone.
    pub fn push(&self, line: String) -> bool {
        let mut q = self.lock();
        if q.receiver_gone {
            return false;
        }
        q.lines.push_back(line);
        true
    }

    /// Dequeues the oldest line (the event loop's flush pass). Ordinary
    /// lines drain first; the frame slot goes last, so protocol replies
    /// are never delayed behind a bulky frame.
    pub fn pop(&self) -> Option<String> {
        let mut q = self.lock();
        if let Some(line) = q.lines.pop_front() {
            return Some(line);
        }
        q.frame.take()
    }

    /// Stores a display frame, replacing any unsent one. `false` means
    /// the client side is gone.
    pub fn set_frame(&self, line: String) -> bool {
        let mut q = self.lock();
        if q.receiver_gone {
            return false;
        }
        q.frame = Some(line);
        true
    }

    /// Whether the frame slot is free (nothing unsent).
    pub fn frame_slot_free(&self) -> bool {
        self.lock().frame.is_none()
    }

    /// Lines waiting to be written (the frame slot counts as one).
    pub fn len(&self) -> usize {
        let q = self.lock();
        q.lines.len() + q.frame.is_some() as usize
    }

    pub fn is_empty(&self) -> bool {
        let q = self.lock();
        q.lines.is_empty() && q.frame.is_none()
    }

    /// The session finished; once the queue drains the connection
    /// should be closed.
    pub fn close_sink(&self) {
        self.lock().sink_closed = true;
    }

    pub fn sink_closed(&self) -> bool {
        self.lock().sink_closed
    }

    /// The client vanished; future pushes are refused.
    pub fn mark_receiver_gone(&self) {
        let mut q = self.lock();
        q.receiver_gone = true;
        q.lines.clear();
        q.frame = None;
    }

    /// Session done *and* everything flushed — time to close the
    /// connection.
    pub fn is_finished(&self) -> bool {
        let q = self.lock();
        q.sink_closed && q.lines.is_empty() && q.frame.is_none()
    }
}

/// Where a session's outbound lines go.
pub enum SessionSink {
    /// Collected in memory — the deterministic tests read this.
    Buffer(Arc<Mutex<Vec<String>>>),
    /// Queued for the owning worker's event loop to flush. Dropping the
    /// sink (the scheduler releasing the session) closes the queue so
    /// the event loop flushes the tail and closes the socket.
    Queue(Arc<OutQueue>),
}

impl SessionSink {
    /// A buffer sink plus the handle to read it.
    pub fn buffer() -> (SessionSink, Arc<Mutex<Vec<String>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (SessionSink::Buffer(buf.clone()), buf)
    }

    /// Delivers one line, moving it into the buffer or queue; `false`
    /// means the receiving side is gone.
    pub fn send(&self, line: String) -> bool {
        match self {
            SessionSink::Buffer(buf) => {
                buf.lock().unwrap_or_else(|p| p.into_inner()).push(line);
                true
            }
            SessionSink::Queue(q) => q.push(line),
        }
    }

    /// Whether a display frame can be sent right now. A buffer sink
    /// always accepts; a queue sink accepts only while its
    /// single frame slot is free — the scheduler's backpressure signal
    /// to keep accumulating damage instead of building frames.
    pub fn can_send_frame(&self) -> bool {
        match self {
            SessionSink::Buffer(_) => true,
            SessionSink::Queue(q) => q.frame_slot_free(),
        }
    }

    /// Delivers one display frame line; `false` means the receiving
    /// side is gone. On a queue sink the frame takes the dedicated
    /// slot rather than the line queue.
    pub fn send_frame(&self, line: String) -> bool {
        match self {
            SessionSink::Buffer(_) => self.send(line),
            SessionSink::Queue(q) => q.set_frame(line),
        }
    }
}

impl Drop for SessionSink {
    fn drop(&mut self) {
        if let SessionSink::Queue(q) = self {
            q.close_sink();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_sheds_when_full_and_refuses_when_closed() {
        let m = Mailbox::new(2);
        assert!(m.push("a".into()));
        assert!(m.push("b".into()));
        assert!(!m.push("c".into()), "over capacity");
        assert_eq!(m.take_shed(), 1);
        assert_eq!(m.pop().as_deref(), Some("a"));
        assert!(m.push("c".into()), "room again after a pop");
        m.close();
        assert!(!m.push("d".into()), "closed");
        assert_eq!(m.take_shed(), 0, "closed pushes are not queue sheds");
        assert_eq!(m.len(), 2, "queued lines survive the close");
    }

    #[test]
    fn buffer_sink_collects_in_order() {
        let (sink, buf) = SessionSink::buffer();
        assert!(sink.send("one".into()));
        assert!(sink.send("two".into()));
        assert_eq!(*buf.lock().unwrap(), vec!["one", "two"]);
    }

    #[test]
    fn out_queue_flush_then_close_protocol() {
        let q = OutQueue::new();
        let sink = SessionSink::Queue(q.clone());
        assert!(sink.send("reply".into()));
        assert!(!q.is_finished(), "open and non-empty");
        drop(sink);
        assert!(q.sink_closed());
        assert!(!q.is_finished(), "tail must flush before close");
        assert_eq!(q.pop().as_deref(), Some("reply"));
        assert!(q.is_finished());
        q.mark_receiver_gone();
        assert!(!q.push("void".into()), "gone client refuses pushes");
    }

    #[test]
    fn frame_slot_coalesces_and_drains_after_lines() {
        let q = OutQueue::new();
        let sink = SessionSink::Queue(q.clone());
        assert!(sink.can_send_frame());
        assert!(sink.send_frame("!display frame aa".into()));
        assert!(!sink.can_send_frame(), "one frame in flight");
        assert!(
            sink.send_frame("!display frame bb".into()),
            "newer frame replaces"
        );
        assert!(sink.send("reply".into()));
        assert_eq!(q.len(), 2, "lines plus the one frame slot");
        assert_eq!(q.pop().as_deref(), Some("reply"), "replies drain first");
        assert_eq!(q.pop().as_deref(), Some("!display frame bb"));
        assert!(sink.can_send_frame(), "slot free once flushed");
        q.mark_receiver_gone();
        assert!(
            !sink.send_frame("!display frame cc".into()),
            "gone client refuses"
        );
    }
}
