//! The line codec of the `%`-prefixed protocol.
//!
//! Every connection of wafe-serve's event loop — a backend child's
//! pipes in frontend mode, a socket in the server — frames its byte
//! stream with one of these: `\n`-terminated lines, at most
//! [`DEFAULT_MAX_LINE`](crate::DEFAULT_MAX_LINE) bytes each. A longer
//! line is discarded and the stream resynchronises at the next newline;
//! the session reports each discard through
//! `ProtocolEngine::reject_overlong`. Telling commands from passthrough
//! is the engine's job (`ProtocolEngine::handle_line`).

/// Incremental byte-stream ↔ line framing with a bounded buffer.
///
/// Bytes are pushed in whatever chunks the transport delivers; complete
/// `\n`-terminated lines come out (without the terminator, lossy
/// UTF-8). A line that exceeds `max` bytes before its newline arrives
/// is discarded — the overflow is counted and the codec skips to the
/// next newline. The observable output (lines and overflow count) is
/// invariant under re-chunking of the same byte stream.
pub struct LineCodec {
    buf: Vec<u8>,
    max: usize,
    skipping: bool,
    overflows: u64,
}

impl LineCodec {
    /// A codec discarding lines longer than `max_line` bytes.
    pub fn new(max_line: usize) -> Self {
        LineCodec {
            buf: Vec::new(),
            max: max_line,
            skipping: false,
            overflows: 0,
        }
    }

    /// Feeds a chunk; returns the complete lines it finished, without
    /// their terminators.
    pub fn push(&mut self, bytes: &[u8]) -> Vec<String> {
        let mut lines = Vec::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            let nl = rest.iter().position(|&b| b == b'\n');
            if self.skipping {
                match nl {
                    Some(i) => {
                        self.skipping = false;
                        rest = &rest[i + 1..];
                    }
                    None => return lines,
                }
                continue;
            }
            match nl {
                Some(i) => {
                    if self.buf.len() + i > self.max {
                        // The line completed but is over the cap.
                        self.buf.clear();
                        self.overflows += 1;
                    } else {
                        self.buf.extend_from_slice(&rest[..i]);
                        lines.push(String::from_utf8_lossy(&self.buf).into_owned());
                        self.buf.clear();
                    }
                    rest = &rest[i + 1..];
                }
                None => {
                    self.buf.extend_from_slice(rest);
                    if self.buf.len() > self.max {
                        self.buf.clear();
                        self.skipping = true;
                        self.overflows += 1;
                    }
                    rest = &[];
                }
            }
        }
        lines
    }

    /// Encodes one outbound line: the wire form is the text plus a
    /// terminating newline (none added when already present).
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
        self.buf.len()
    }

    /// Discards any partial line (peer died mid-line).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.skipping = false;
    }

    /// Takes (and resets) the count of discarded over-length lines.
    pub fn take_overflows(&mut self) -> u64 {
        std::mem::take(&mut self.overflows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_classifies_and_reframes() {
        // Framing is the codec's; classifying a framed line is
        // `command_body`, exactly as the engine does it.
        let mut c = LineCodec::new(usize::MAX);
        assert_eq!(c.push(b"%set x "), Vec::<String>::new());
        assert_eq!(c.pending(), 7);
        let got = c.push(b"1\nplain\n%echo hi\n");
        assert_eq!(got, vec!["%set x 1", "plain", "%echo hi"]);
        let kinds: Vec<bool> = got
            .iter()
            .map(|l| crate::command_body(l, crate::DEFAULT_PREFIX).is_some())
            .collect();
        assert_eq!(kinds, vec![true, false, true]);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn oversize_lines_counted_like_the_assembler() {
        let mut c = LineCodec::new(4);
        assert_eq!(c.push(b"123456789\nok\n"), vec!["ok"]);
        assert_eq!(c.take_overflows(), 1);
        assert_eq!(c.take_overflows(), 0, "taking resets the count");
    }

    #[test]
    fn chunking_invariance_carries_over() {
        // The same stream byte-at-a-time and in one chunk frame equal.
        let stream = b"%a\nplain\n0123456789\n%b\n";
        let mut whole = LineCodec::new(8);
        let all = whole.push(stream);
        let mut dribble = LineCodec::new(8);
        let mut got = Vec::new();
        for b in stream {
            got.extend(dribble.push(&[*b]));
        }
        assert_eq!(all, got);
        assert_eq!(whole.take_overflows(), dribble.take_overflows());
    }

    #[test]
    fn encode_terminates_exactly_once() {
        assert_eq!(LineCodec::encode("%set x 1"), b"%set x 1\n");
        assert_eq!(LineCodec::encode("%set x 1\n"), b"%set x 1\n");
        assert_eq!(LineCodec::encode(""), b"\n");
    }
}
