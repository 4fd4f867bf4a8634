//! Big-endian wire primitives with a checksum trailer — the workspace's
//! one binary codec.
//!
//! Display frames and input events are read by a JavaScript `DataView`
//! whose default is network byte order, so everything here is
//! big-endian. Session snapshots (`wafe_core::snapshot`, the `.wsnap`
//! files waferd parks) are written with the same primitives. Every
//! message ends in an FNV-1a checksum over the preceding bytes: a
//! single flipped bit anywhere must fail loudly rather than decode into
//! a plausible frame or session.

use std::fmt;

/// Why a message failed to decode. Every failure is loud and terminal:
/// the receiver drops the message and asks for a full-frame resync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the structure did.
    Truncated,
    /// The leading magic bytes are not the expected tag.
    BadMagic,
    /// A version this codec does not speak.
    BadVersion(u32),
    /// The checksum trailer does not match the payload.
    BadChecksum,
    /// Structurally valid but bytes remain after the end.
    TrailingBytes,
    /// A field holds a value that cannot be valid (named).
    BadValue(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated message"),
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::BadChecksum => write!(f, "checksum mismatch"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after message"),
            DecodeError::BadValue(what) => write!(f, "invalid {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// 32-bit FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Append-only big-endian message writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// An empty writer with room for a `len`-byte message (checksum
    /// trailer included), so writing it never reallocates.
    pub fn with_capacity(len: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(len),
        }
    }

    /// Appends raw bytes (magic tags).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian i32.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian i64 (two's complement).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an f64 as its big-endian IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends an optional string: a presence byte, then the string.
    pub fn put_opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.put_u8(1);
                self.put_str(s);
            }
            None => self.put_u8(0),
        }
    }

    /// Appends the FNV-1a checksum of everything written so far and
    /// returns the finished message.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_be_bytes());
        self.buf
    }
}

/// Checked big-endian message reader.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Verifies the checksum trailer and yields a reader over the
    /// payload (trailer excluded). This runs *first*: a corrupt message
    /// must never be partially interpreted.
    pub fn checked(buf: &'a [u8]) -> Result<Reader<'a>, DecodeError> {
        if buf.len() < 4 {
            return Err(DecodeError::Truncated);
        }
        let (payload, trailer) = buf.split_at(buf.len() - 4);
        let want = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        if fnv1a(payload) != want {
            return Err(DecodeError::BadChecksum);
        }
        Ok(Reader {
            buf: payload,
            pos: 0,
        })
    }

    /// A reader over bytes whose checksum has *not* been verified. It
    /// exists for the one header field a receiver must see before it
    /// can know a trailer is there at all — the format version of a
    /// snapshot written before snapshots had one. Never decode a
    /// payload through it.
    pub fn unverified(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consumes and checks a magic tag.
    pub fn expect_magic(&mut self, magic: &[u8]) -> Result<(), DecodeError> {
        if self.take(magic.len())? != magic {
            return Err(DecodeError::BadMagic);
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian i32.
    pub fn i32(&mut self) -> Result<i32, DecodeError> {
        let b = self.take(4)?;
        Ok(i32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a big-endian i64.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(self.u64()? as i64)
    }

    /// Reads a big-endian IEEE-754 f64 bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError::BadValue("utf-8 string"))
    }

    /// Reads an optional string; a presence byte other than 0 or 1 is
    /// invalid, so every value has exactly one encoding.
    pub fn opt_str(&mut self) -> Result<Option<String>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            _ => Err(DecodeError::BadValue("optional-string tag")),
        }
    }

    /// Asserts the payload was consumed exactly.
    pub fn done(&self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(())
    }
}

/// The two lowercase hex digits of every byte value.
static HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut t = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = [DIGITS[b >> 4], DIGITS[b & 0xf]];
        b += 1;
    }
    t
};

/// The value of every hex digit (either case); 0xff marks a non-digit.
static HEX_VALUES: [u8; 256] = {
    let mut t = [0xffu8; 256];
    let mut i = 0;
    while i < 10 {
        t[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        t[b'a' as usize + i] = 10 + i as u8;
        t[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    t
};

/// `prefix` followed by the lowercase hex encoding of `bytes`, built in
/// one buffer — a `!display frame <hex>` line without an intermediate
/// hex string.
pub fn hex_line(prefix: &str, bytes: &[u8]) -> String {
    let mut out = vec![0u8; prefix.len() + 2 * bytes.len()];
    let (head, digits) = out.split_at_mut(prefix.len());
    head.copy_from_slice(prefix.as_bytes());
    for (pair, &b) in digits.chunks_exact_mut(2).zip(bytes) {
        pair.copy_from_slice(&HEX_PAIRS[b as usize]);
    }
    String::from_utf8(out).expect("a str prefix and hex digits are UTF-8")
}

/// Lowercase hex encoding — how binary messages ride the `%`-line
/// channel without escaping concerns.
pub fn to_hex(bytes: &[u8]) -> String {
    hex_line("", bytes)
}

/// Inverse of [`to_hex`] (either case); rejects odd lengths and
/// non-hex digits.
pub fn from_hex(s: &str) -> Result<Vec<u8>, DecodeError> {
    if !s.len().is_multiple_of(2) {
        return Err(DecodeError::BadValue("hex length"));
    }
    let mut out = vec![0u8; s.len() / 2];
    // Branch-free: a non-digit's 0xff survives the OR and fails below.
    let mut seen = 0u8;
    for (byte, pair) in out.iter_mut().zip(s.as_bytes().chunks_exact(2)) {
        let (hi, lo) = (HEX_VALUES[pair[0] as usize], HEX_VALUES[pair[1] as usize]);
        seen |= hi | lo;
        *byte = (hi << 4) | (lo & 0xf);
    }
    if seen > 0xf {
        return Err(DecodeError::BadValue("hex digit"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = Writer::new();
        w.put_bytes(b"TEST");
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_i32(-42);
        w.put_u64(1 << 40);
        w.put_i64(-1 << 40);
        w.put_f64(-2.5e-3);
        w.put_str("héllo");
        w.put_opt_str(Some("x"));
        w.put_opt_str(None);
        let bytes = w.finish();
        let mut r = Reader::checked(&bytes).unwrap();
        r.expect_magic(b"TEST").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.i32().unwrap(), -42);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i64().unwrap(), -1 << 40);
        assert_eq!(r.f64().unwrap(), -2.5e-3);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt_str().unwrap().as_deref(), Some("x"));
        assert_eq!(r.opt_str().unwrap(), None);
        r.done().unwrap();
    }

    #[test]
    fn any_flipped_bit_fails_checksum() {
        let mut w = Writer::new();
        w.put_bytes(b"TEST");
        w.put_u32(123);
        let bytes = w.finish();
        for i in 0..(bytes.len() - 4) * 8 {
            let mut bad = bytes.clone();
            bad[i / 8] ^= 1 << (i % 8);
            assert_eq!(
                Reader::checked(&bad).unwrap_err(),
                DecodeError::BadChecksum,
                "bit {i} flipped silently"
            );
        }
    }

    #[test]
    fn truncation_fails() {
        let mut w = Writer::new();
        w.put_u32(5);
        let bytes = w.finish();
        for n in 0..bytes.len() {
            assert!(
                Reader::checked(&bytes[..n]).is_err() || {
                    let mut r = Reader::checked(&bytes[..n]).unwrap();
                    r.u32().is_err() || r.done().is_err()
                }
            );
        }
    }

    #[test]
    fn hex_round_trip_and_rejection() {
        let data = vec![0u8, 1, 0x7f, 0x80, 0xff];
        assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
        assert!(from_hex("abc").is_err(), "odd length");
        assert!(from_hex("zz").is_err(), "non-hex digit");
        assert_eq!(from_hex("0aFf").unwrap(), vec![0x0a, 0xff], "either case");
        for bad in ["0g", "g0", " 0", "\u{e9}"] {
            assert!(from_hex(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn hex_matches_the_formatter_for_every_byte() {
        let all: Vec<u8> = (0..=255).collect();
        let want: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(to_hex(&all), want);
        assert_eq!(hex_line("!x ", &all[..2]), "!x 0001");
        assert_eq!(from_hex(&want).unwrap(), all);
    }
}
