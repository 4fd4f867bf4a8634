//! The shared line codec of the `%`-prefixed protocol.
//!
//! Both transports that speak the frontend protocol — the duplex pipe
//! of frontend mode (`frontend.rs`/`supervisor.rs`) and the socket
//! connections of `wafe-serve` — frame the same byte stream the same
//! way: `\n`-terminated lines, a bounded per-line length with oversized
//! lines discarded (counted, the stream resynchronises at the next
//! newline), and a leading prefix character deciding command vs
//! passthrough. [`LineCodec`] packages that contract in one reusable
//! type so the two transports cannot drift; it is a thin composition of
//! [`LineAssembler`] (framing) and [`is_command_line`] (classification),
//! keeping the pipe protocol byte-identical to what it was when the
//! assembler lived alone.

use crate::protocol::{is_command_line, LineAssembler, DEFAULT_MAX_LINE, DEFAULT_PREFIX};

/// One decoded line with its protocol classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineKind {
    /// The line starts with the prefix character: a Wafe command (the
    /// payload still carries the prefix; `ProtocolEngine::handle_line`
    /// strips it).
    Command(String),
    /// Any other line: passed through untouched.
    Passthrough(String),
}

impl LineKind {
    /// The line text, whichever side of the classification it fell on.
    pub fn text(&self) -> &str {
        match self {
            LineKind::Command(s) | LineKind::Passthrough(s) => s,
        }
    }
}

/// Incremental byte-stream → classified-line codec with a bounded
/// buffer. The observable output is invariant under re-chunking of the
/// same byte stream (the property `wafe-prop` tests on the assembler
/// carry over unchanged).
pub struct LineCodec {
    assembler: LineAssembler,
    prefix: char,
}

impl Default for LineCodec {
    fn default() -> Self {
        LineCodec::new(DEFAULT_MAX_LINE)
    }
}

impl LineCodec {
    /// A codec with the default `%` prefix and the given line cap.
    pub fn new(max_line: usize) -> Self {
        LineCodec {
            assembler: LineAssembler::new(max_line),
            prefix: DEFAULT_PREFIX,
        }
    }

    /// A codec with a custom prefix character.
    pub fn with_prefix(max_line: usize, prefix: char) -> Self {
        LineCodec {
            assembler: LineAssembler::new(max_line),
            prefix,
        }
    }

    /// The command-prefix character this codec classifies with.
    pub fn prefix(&self) -> char {
        self.prefix
    }

    /// Feeds a chunk; returns the complete lines it finished, without
    /// their terminators (framing only — classification untouched).
    pub fn push(&mut self, bytes: &[u8]) -> Vec<String> {
        self.assembler.push(bytes)
    }

    /// Feeds a chunk; returns the completed lines classified as
    /// command or passthrough.
    pub fn decode(&mut self, bytes: &[u8]) -> Vec<LineKind> {
        self.assembler
            .push(bytes)
            .into_iter()
            .map(|line| {
                if is_command_line(&line, self.prefix) {
                    LineKind::Command(line)
                } else {
                    LineKind::Passthrough(line)
                }
            })
            .collect()
    }

    /// Encodes one outbound line: the wire form is the text plus a
    /// terminating newline (none added when already present). This is
    /// the exact write-side framing `ChildLink::write_line` has always
    /// used on the pipe.
    pub fn encode(line: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(line.len() + 1);
        Self::encode_into(&mut out, line);
        out
    }

    /// [`encode`](Self::encode), appending to a write buffer instead of
    /// allocating one per line.
    pub fn encode_into(out: &mut Vec<u8>, line: &str) {
        out.extend_from_slice(line.as_bytes());
        if !line.ends_with('\n') {
            out.push(b'\n');
        }
    }

    /// Bytes buffered without a terminating newline yet.
    pub fn pending(&self) -> usize {
        self.assembler.pending()
    }

    /// Discards any partial line (peer died mid-line).
    pub fn clear(&mut self) {
        self.assembler.clear();
    }

    /// Takes (and resets) the count of discarded over-length lines.
    pub fn take_overflows(&mut self) -> u64 {
        self.assembler.take_overflows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_classifies_and_reframes() {
        let mut c = LineCodec::default();
        assert_eq!(c.decode(b"%set x "), Vec::new());
        assert_eq!(c.pending(), 7);
        let got = c.decode(b"1\nplain\n%echo hi\n");
        assert_eq!(
            got,
            vec![
                LineKind::Command("%set x 1".into()),
                LineKind::Passthrough("plain".into()),
                LineKind::Command("%echo hi".into()),
            ]
        );
        assert_eq!(got[0].text(), "%set x 1");
    }

    #[test]
    fn chunking_invariance_carries_over() {
        // The same stream byte-at-a-time and in one chunk decode equal.
        let stream = b"%a\nplain\n%b\n";
        let mut whole = LineCodec::default();
        let all = whole.decode(stream);
        let mut dribble = LineCodec::default();
        let mut got = Vec::new();
        for b in stream {
            got.extend(dribble.decode(&[*b]));
        }
        assert_eq!(all, got);
    }

    #[test]
    fn encode_terminates_exactly_once() {
        assert_eq!(LineCodec::encode("%set x 1"), b"%set x 1\n");
        assert_eq!(LineCodec::encode("%set x 1\n"), b"%set x 1\n");
        assert_eq!(LineCodec::encode(""), b"\n");
    }

    #[test]
    fn oversize_lines_counted_like_the_assembler() {
        let mut c = LineCodec::new(4);
        assert_eq!(
            c.decode(b"123456789\nok\n"),
            vec![LineKind::Passthrough("ok".into())]
        );
        assert_eq!(c.take_overflows(), 1);
    }

    #[test]
    fn custom_prefix_classifies() {
        let mut c = LineCodec::with_prefix(1024, '#');
        let got = c.decode(b"#cmd\n%plain\n");
        assert_eq!(
            got,
            vec![
                LineKind::Command("#cmd".into()),
                LineKind::Passthrough("%plain".into()),
            ]
        );
        assert_eq!(c.prefix(), '#');
    }
}
