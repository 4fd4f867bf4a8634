//! In-memory wall-clock spans for the traced run. Each thread owns a
//! [`Spans`] recorder (no locking on the hot path); all share one epoch
//! so their timestamps compare. A span is opened before a call into a
//! layer and closed after it; the recorder's stack makes the innermost
//! open span the parent of the next one. Spans are written out when
//! the run ends; self times are derived from parent links.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::AtomicU32;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

/// The latest op the load generator sent; server spans are stamped
/// with it (with ops pipelined, the op that started the work may be an
/// earlier one).
pub static CUR_OP: AtomicU32 = AtomicU32::new(0);

/// Spans kept per thread; recording stops (and counts drops) beyond.
const CAP: usize = 2_000_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: u32,
    /// The op in flight when the span opened (the client's latest op).
    pub op: u32,
    /// A count recorded at the boundary (lines enqueued, dispatched…).
    pub n: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Spans {
    pub on: bool,
    epoch: Instant,
    pub thread: &'static str,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    pub dropped: u64,
}

/// Handle of an open span; `None` when recording is off.
pub type Open = Option<u32>;

impl Spans {
    pub fn new(thread: &'static str, epoch: Instant) -> Spans {
        Spans {
            on: false,
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u32) -> Open {
        if !self.on {
            return None;
        }
        if self.spans.len() >= CAP {
            self.dropped += 1;
            return None;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op,
            n: 0,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Closes `open`, recording count `n` on it.
    pub fn end_n(&mut self, open: Open, n: usize) {
        let Some(idx) = open else { return };
        let now = self.now_ns();
        let s = &mut self.spans[idx as usize];
        s.end_ns = now;
        s.n = n.min(u32::MAX as usize) as u32;
        if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
            self.stack.truncate(pos);
        }
    }

    pub fn end(&mut self, open: Open) {
        self.end_n(open, 0);
    }

    /// Records an already-timed span (the accept loop times its
    /// admitted ticks only).
    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, n: usize) {
        if self.on && self.spans.len() < CAP {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: NO_PARENT,
                op: 0,
                n: n as u32,
            });
        }
    }

    /// Self time of every span: its duration minus what its children
    /// cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }
}

/// Writes every thread's spans as tab-separated rows: thread, name,
/// start, end and self time in ns, parent index, op id, count.
pub fn write_tsv(path: &Path, threads: &[&Spans]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "thread\tname\tstart_ns\tend_ns\tself_ns\tparent\top\tn"
    )?;
    for t in threads {
        for (s, self_ns) in t.spans.iter().zip(t.self_times()) {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                t.thread, s.name, s.start_ns, s.end_ns, self_ns, parent, s.op, s.n
            )?;
        }
    }
    out.flush()
}

/// Sorted, merged union of intervals.
pub fn union(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// How much of `[s, e)` a merged union covers.
pub fn covered(u: &[(u64, u64)], s: u64, e: u64) -> u64 {
    let mut i = u.partition_point(|iv| iv.1 <= s);
    let mut total = 0;
    while i < u.len() && u[i].0 < e {
        total += u[i].1.min(e).saturating_sub(u[i].0.max(s));
        i += 1;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new("t", Instant::now());
        sp.on = true;
        let root = sp.begin("root", 1);
        let child = sp.begin("child", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        sp.end_n(child, 5);
        sp.end(root);
        assert_eq!(sp.spans[1].parent, 0);
        assert_eq!(sp.spans[1].n, 5);
        let st = sp.self_times();
        assert_eq!(st[0], sp.spans[0].dur_ns() - sp.spans[1].dur_ns());
        assert!(st[1] >= 2_000_000);
        sp.on = false;
        assert_eq!(sp.begin("off", 0), None);
    }

    #[test]
    fn union_and_coverage() {
        let u = union(vec![(5, 8), (0, 2), (1, 3), (7, 10)]);
        assert_eq!(u, vec![(0, 3), (5, 10)]);
        assert_eq!(covered(&u, 0, 10), 8);
        assert_eq!(covered(&u, 2, 6), 2);
        assert_eq!(covered(&u, 3, 5), 0);
        assert_eq!(covered(&u, 9, 20), 1);
    }
}
