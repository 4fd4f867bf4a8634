//! Property tests for the frontend protocol framing: however the pipe
//! chops a byte stream into chunks, the `LineCodec` must never
//! panic, never emit a partial line, and produce exactly the same
//! lines, overflow count and `%`-prefix classification as any other
//! chunking of the same bytes.

use wafe_ipc::{command_body, LineCodec, DEFAULT_PREFIX};
use wafe_prop::{cases, Rng};

/// A byte stream mixing protocol-ish lines, binary noise and pathologic
/// newline patterns.
fn arbitrary_stream(rng: &mut Rng) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..rng.range(0, 12) {
        match rng.below(5) {
            0 => {
                // A plausible command line.
                out.extend_from_slice(b"%set x ");
                out.extend_from_slice(rng.ascii_string(10).as_bytes());
                out.push(b'\n');
            }
            1 => {
                // Passthrough text.
                out.extend_from_slice(rng.ascii_string(20).as_bytes());
                out.push(b'\n');
            }
            2 => {
                // Raw bytes, any values, maybe containing newlines.
                let junk = rng.vec(0, 30, |r| r.below(256) as u8);
                out.extend_from_slice(&junk);
            }
            3 => {
                // Newline runs (empty lines).
                let n = rng.range(1, 4);
                out.extend(std::iter::repeat_n(b'\n', n));
            }
            _ => {
                // An over-long line relative to the small test cap.
                let n = rng.range(40, 120);
                out.extend(std::iter::repeat_n(b'z', n));
                if rng.chance() {
                    out.push(b'\n');
                }
            }
        }
    }
    out
}

/// Feeds `bytes` to a fresh codec in random chunks; returns the
/// emitted lines and the overflow count.
fn feed_chunked(rng: &mut Rng, bytes: &[u8], max: usize) -> (Vec<String>, u64) {
    let mut codec = LineCodec::new(max);
    let mut lines = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let step = rng.range(1, 17).min(bytes.len() - i);
        lines.extend(codec.push(&bytes[i..i + step]));
        i += step;
    }
    (lines, codec.take_overflows())
}

#[test]
fn arbitrary_chunking_never_panics_or_emits_partials() {
    cases(400, |rng| {
        let stream = arbitrary_stream(rng);
        let (lines, _) = feed_chunked(rng, &stream, 64);
        for line in &lines {
            assert!(
                !line.contains('\n'),
                "an emitted line is complete — no embedded newline: {line:?}"
            );
            // Lossy UTF-8 may widen invalid bytes to U+FFFD, so the cap
            // holds in characters (1 per raw byte), not String bytes.
            assert!(
                line.chars().count() <= 64,
                "no line beyond the cap: {}",
                line.chars().count()
            );
        }
    });
}

#[test]
fn reframing_is_chunking_invariant() {
    cases(300, |rng| {
        let stream = arbitrary_stream(rng);
        // Reference: the whole stream in one push.
        let mut whole = LineCodec::new(64);
        let reference = whole.push(&stream);
        let ref_overflows = whole.take_overflows();
        // Three independent random chunkings must agree exactly.
        for _ in 0..3 {
            let (lines, overflows) = feed_chunked(rng, &stream, 64);
            assert_eq!(lines, reference, "lines differ under re-chunking");
            assert_eq!(overflows, ref_overflows, "overflow count differs");
        }
    });
}

#[test]
fn classification_is_stable_under_rechunking() {
    cases(300, |rng| {
        let stream = arbitrary_stream(rng);
        let mut whole = LineCodec::new(usize::MAX);
        let reference: Vec<Option<String>> = whole
            .push(&stream)
            .iter()
            .map(|l| command_body(l, DEFAULT_PREFIX).map(str::to_string))
            .collect();
        let (lines, _) = feed_chunked(rng, &stream, usize::MAX);
        let rechunked: Vec<Option<String>> = lines
            .iter()
            .map(|l| command_body(l, DEFAULT_PREFIX).map(str::to_string))
            .collect();
        assert_eq!(rechunked, reference);
    });
}

#[test]
fn pending_bytes_never_exceed_cap() {
    cases(200, |rng| {
        let mut codec = LineCodec::new(32);
        for _ in 0..rng.range(1, 20) {
            let chunk = rng.vec(0, 64, |r| r.below(256) as u8);
            let _ = codec.push(&chunk);
            assert!(
                codec.pending() <= 32,
                "buffered partial must respect the cap: {}",
                codec.pending()
            );
        }
    });
}
