//! Minimal, dependency-free property-testing support.
//!
//! The workspace's property tests originally used `proptest`; on
//! network-less machines that dependency cannot even be resolved, so the
//! tests run on this small vendored kit instead: a seedable xorshift64*
//! generator ([`Rng`]) plus a [`cases`] runner that replays a fixed
//! number of deterministic cases and reports the failing case index
//! before propagating the panic. Failures are reproducible by
//! construction — the seed is derived from the case index, never from
//! time or global state.

/// A xorshift64* pseudo-random generator: tiny, fast, and plenty for
/// driving property tests (the same generator backs Tcl's `rand()` in
/// `wafe-tcl`).
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Zero is mapped to a fixed
    /// non-zero constant (xorshift has an all-zero fixed point).
    pub fn new(seed: u64) -> Rng {
        Rng {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// A uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Multiply-shift: unbiased enough for test-case generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// A uniform `i64` in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as i64
    }

    /// A uniform `u32` in `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range(lo as usize, hi as usize) as u32
    }

    /// A coin flip.
    pub fn chance(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len())]
    }

    /// A string of `len` characters drawn from `alphabet`.
    pub fn string_from(&mut self, alphabet: &[char], len: usize) -> String {
        (0..len).map(|_| *self.pick(alphabet)).collect()
    }

    /// A printable-ASCII string (space through `~`) of length in
    /// `[0, max_len)`.
    pub fn ascii_string(&mut self, max_len: usize) -> String {
        let len = self.range(0, max_len.max(1));
        (0..len)
            .map(|_| char::from(self.range_u32(0x20, 0x7F) as u8))
            .collect()
    }

    /// An arbitrary `char` (any Unicode scalar value), biased toward
    /// ASCII half the time — matches proptest's `any::<char>()` spirit.
    pub fn any_char(&mut self) -> char {
        if self.chance() {
            return char::from(self.range_u32(0, 0x80) as u8);
        }
        loop {
            let v = self.range_u32(0, 0x11_0000);
            if let Some(c) = char::from_u32(v) {
                return c;
            }
        }
    }

    /// A string of arbitrary chars with length in `[min_len, max_len)`.
    pub fn unicode_string(&mut self, min_len: usize, max_len: usize) -> String {
        let len = self.range(min_len, max_len);
        (0..len).map(|_| self.any_char()).collect()
    }

    /// A vector built by calling `f` between `min` and `max - 1` times.
    pub fn vec<T>(&mut self, min: usize, max: usize, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let n = self.range(min, max);
        (0..n).map(|_| f(self)).collect()
    }
}

/// A Tcl command line of at most `max_len` bytes built to stress how
/// deep or long one line can drive the interpreter: an `expr` of nested
/// parentheses, unary runs, long binary chains, `?:` chains in either
/// arm and nested function calls, stacked in random order; a `string
/// match` of a long star run; a `format` with extreme width and
/// precision fields; or a `regexp` of nested groups. Every shape is one
/// the interpreter must answer with a value or a Tcl error. The regex
/// shapes stay linear to match: backtracking cost is not what they test.
pub fn hostile_line(rng: &mut Rng, max_len: usize) -> String {
    let budget = rng.range(1, max_len.max(64) - 48);
    match rng.below(4) {
        0 => format!("expr {{{}}}", hostile_expr(rng, budget)),
        1 => {
            let stars = rng.range(1, budget / 4 + 2);
            let text = rng.range(0, budget / 2 + 1);
            format!(
                "string match {{{}b}} {}",
                "*a".repeat(stars),
                "a".repeat(text)
            )
        }
        2 => {
            let flags = ["", "-", "0", "+", " ", "#", "-0"];
            let digits = |rng: &mut Rng| -> String {
                if rng.chance() {
                    return rng.pick(&["65535", "65536", "0", "99"]).to_string();
                }
                let n = rng.range(1, 26);
                (0..n)
                    .map(|_| char::from(b'0' + rng.below(10) as u8))
                    .collect()
            };
            let width = if rng.chance() {
                digits(rng)
            } else {
                String::new()
            };
            let prec = if rng.chance() {
                format!(".{}", digits(rng))
            } else {
                String::new()
            };
            let conv = *rng.pick(&['d', 's', 'f', 'e', 'x', 'g', 'c']);
            format!("format %{}{width}{prec}{conv} 1", rng.pick(&flags))
        }
        _ => {
            let deepest = if rng.chance() { 120 } else { budget / 4 + 1 };
            let depth = rng.range(1, deepest.min(budget / 4 + 1).max(2));
            let (open, close) = *rng.pick(&[("(", ")"), ("(b|", ")"), ("(a|", ")"), ("(", ")?")]);
            format!(
                "regexp {{{}a{}}} a",
                open.repeat(depth),
                close.repeat(depth)
            )
        }
    }
}

/// An expression of at most `budget` bytes: an atom wrapped in random
/// runs of one nesting or chaining shape after another, until a shape
/// no longer fits.
fn hostile_expr(rng: &mut Rng, budget: usize) -> String {
    let mut e = String::from(*rng.pick(&["1", "0", "2.5", "-7", "$x", "[set x]"]));
    loop {
        let (open, close) = match rng.below(6) {
            0 => ("(", ")"),
            1 => (*rng.pick(&["-", "!", "~", "+", "- "]), ""),
            2 => (
                "",
                *rng.pick(&["+1", "*1", "&&1", "||0", "-1", "==1", "<<0", "|0"]),
            ),
            3 => ("1?", ":0"),
            4 => ("0?0:", ""),
            _ => (
                *rng.pick(&["abs(", "double(", "int(", "round(", "sqrt("]),
                ")",
            ),
        };
        let room = budget.saturating_sub(e.len()) / (open.len() + close.len());
        if room == 0 {
            return e;
        }
        let k = rng.range(1, room.min(2_000) + 1);
        e = format!("{}{e}{}", open.repeat(k), close.repeat(k));
    }
}

/// Runs `n` deterministic cases of a property. Each case gets a fresh
/// [`Rng`] seeded from the case index; on panic, the case number and
/// seed are printed so the failure can be replayed in isolation.
pub fn cases(n: u64, property: impl Fn(&mut Rng)) {
    for k in 0..n {
        let seed = 0xC0FFEE ^ k.wrapping_mul(0x9E3779B97F4A7C15);
        let mut rng = Rng::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        if let Err(payload) = outcome {
            eprintln!("property failed at case {k}/{n} (seed {seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.range(3, 8);
            assert!((3..8).contains(&v));
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = Rng::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn ascii_string_is_printable() {
        let mut r = Rng::new(3);
        for _ in 0..100 {
            let s = r.ascii_string(20);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)));
        }
    }

    #[test]
    fn any_char_is_valid_scalar() {
        let mut r = Rng::new(5);
        for _ in 0..1000 {
            let _ = r.any_char(); // must not panic
        }
    }

    #[test]
    fn hostile_lines_fit_the_line_limit() {
        let mut r = Rng::new(9);
        for max in [64, 1_000, 64 * 1024] {
            for _ in 0..200 {
                let line = hostile_line(&mut r, max);
                assert!(line.len() <= max, "{} > {max}", line.len());
                assert!(!line.contains('\n'));
            }
        }
    }

    #[test]
    fn cases_reports_failing_index() {
        let result = std::panic::catch_unwind(|| {
            cases(10, |rng| {
                // Fails on some case eventually.
                assert!(rng.below(4) != 2, "hit the bad value");
            });
        });
        assert!(result.is_err());
    }
}
