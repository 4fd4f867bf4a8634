//! Robustness: the interpreter must never panic, whatever script text it
//! is fed — errors are Tcl errors, not crashes.

use wafe_prop::{cases, hostile_line};
use wafe_tcl::{Interp, Metric, EVAL_STACK_SIZE};

/// Arbitrary byte-soup scripts produce Ok or Err, never a panic.
#[test]
fn eval_never_panics() {
    cases(256, |rng| {
        let script = rng.unicode_string(0, 81);
        let mut i = Interp::new();
        let _ = i.eval(&script);
    });
}

/// Arbitrary scripts built from Tcl metacharacters.
#[test]
fn metachar_soup_never_panics() {
    let alphabet: Vec<char> = "[]{}$\"\\; \n abcdefghijklmnopqrstuvwxyz0123456789%"
        .chars()
        .collect();
    cases(256, |rng| {
        let len = rng.range(0, 61);
        let script = rng.string_from(&alphabet, len);
        let mut i = Interp::new();
        let _ = i.eval(&script);
    });
}

/// Arbitrary expressions produce Ok or Err, never a panic.
#[test]
fn expr_never_panics() {
    let alphabet: Vec<char> = "0123456789abcdefghijklmnopqrstuvwxyz+*/()<>=!&|^ .\"-"
        .chars()
        .collect();
    cases(256, |rng| {
        let len = rng.range(0, 41);
        let text = rng.string_from(&alphabet, len);
        let mut i = Interp::new();
        let _ = i.eval(&format!("expr {{{text}}}"));
    });
}

/// format with arbitrary format strings never panics.
#[test]
fn format_never_panics() {
    let alphabet: Vec<char> = "%abcdefghijklmnopqrstuvwxyz0123456789 .#+-"
        .chars()
        .collect();
    cases(256, |rng| {
        let len = rng.range(0, 31);
        let fmt = rng.string_from(&alphabet, len);
        let mut i = Interp::new();
        let _ = i.invoke(&["format".into(), fmt.into(), "42".into(), "x".into()]);
    });
}

/// Deep but bounded nesting is handled (no stack overflow).
#[test]
fn nested_brackets_bounded() {
    cases(32, |rng| {
        let depth = rng.range(1, 60);
        let mut i = Interp::new();
        let script = format!("{}set x 1{}", "[".repeat(depth), "]".repeat(depth));
        let _ = i.eval(&script);
    });
}

/// Expressions nested or chained far past any script nesting run on a
/// 2 MiB thread (a test thread's default) and return their values: the
/// parser, the op-program loop and the bytecode lowering are flat, so the
/// native stack does not grow with parentheses, operators or terms. Each
/// runs twice by default (the second run is lowered to bytecode) and
/// twice under `interp bcdisable`.
#[test]
fn deep_expressions_run_flat() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(deep_expressions)
        .unwrap()
        .join()
        .unwrap();
}

fn deep_expressions() {
    let nest = |open: &str, mid: &str, close: &str, n: usize| {
        format!("{}{mid}{}", open.repeat(n), close.repeat(n))
    };
    let cases = [
        (nest("(", "1", ")", 1_000), "1"),
        (nest("(", "1", ")", 20_000), "1"),
        (nest("", "1", "+1", 29_999), "30000"),
        (nest("-", "1", "", 20_000), "1"),
        (nest("1 ? ", "7", " : 0", 10_000), "7"),
        (nest("0 ? 0 : ", "7", "", 10_000), "7"),
        (nest("abs(", "-3", ")", 5_000), "3"),
    ];
    for mode in ["", "interp bcdisable"] {
        let mut i = Interp::new();
        i.eval(mode).unwrap();
        for (text, want) in &cases {
            let script = format!("expr {{{text}}}");
            for run in 0..2 {
                let got = i.eval(&script).unwrap();
                assert_eq!(got, *want, "{mode:?} run {run}: {}...", &text[..40]);
            }
        }
        let lowered = i.metric(Metric::TclBcCompiles);
        assert_eq!(lowered > 0, mode.is_empty(), "{mode:?}: {lowered} lowered");
    }
}

/// Generated lines up to the protocol's 64 KiB line limit (deep and long
/// expressions, star runs, extreme `format` fields, nested regex groups)
/// each return a value or a Tcl error on a thread of the stack `waferd`'s
/// workers run on, twice by default (the second run is lowered to
/// bytecode) and twice under `interp bcdisable`. `scripts/ci.sh` runs
/// this test in release too; the seeds are fixed by `cases`.
#[test]
fn hostile_lines_return() {
    std::thread::Builder::new()
        .stack_size(EVAL_STACK_SIZE)
        .spawn(|| {
            cases(256, |rng| {
                let line = hostile_line(rng, 64 * 1024);
                for mode in ["", "interp bcdisable"] {
                    let mut i = Interp::new();
                    i.eval(&format!("set x 3; {mode}")).unwrap();
                    for _ in 0..2 {
                        let _ = i.eval(&line);
                    }
                }
            })
        })
        .unwrap()
        .join()
        .unwrap();
}

/// The `format` fields that once panicked or overflowed are Tcl errors,
/// and the limit itself still formats.
#[test]
fn format_fields_are_bounded() {
    let mut i = Interp::new();
    for (line, want) in [
        ("format %.999999999f 1.0", "format precision exceeds 65535"),
        (
            "format %99999999999999999999d 1",
            "format field width exceeds 65535",
        ),
        ("format %65536s x", "format field width exceeds 65535"),
    ] {
        assert_eq!(i.eval(line).unwrap_err().message(), want, "{line}");
    }
    assert_eq!(i.eval("string length [format %65535s x]").unwrap(), "65535");
    assert_eq!(
        i.eval("string length [format %.65535f 1.0]").unwrap(),
        "65537"
    );
}

#[test]
fn pathological_inputs() {
    let mut i = Interp::new();
    for s in [
        "{",
        "}",
        "[",
        "]",
        "\"",
        "$",
        "\\",
        "${",
        "$()",
        "a{b}c",
        "set",
        "set {",
        "proc p",
        "if",
        "while",
        "foreach x",
        "expr",
        "expr (",
        "expr 1+",
        "string",
        "array",
        "format %",
        "\u{0}",
        "\u{7f}\u{1b}",
        "%% % %w",
        "# only a comment",
        ";;;;",
        "\n\n\n",
        "set \u{fffd} 1",
    ] {
        let _ = i.eval(s); // Must not panic.
    }
}

#[test]
fn recursion_is_bounded_not_fatal() {
    let mut i = Interp::new();
    i.eval("proc f {} {f}").unwrap();
    let e = i.eval("f").unwrap_err();
    assert!(e.message().contains("too many nested calls"));
    // The interpreter is still usable afterwards.
    assert_eq!(i.eval("expr 1+1").unwrap(), "2");
}

#[test]
fn long_flat_scripts() {
    let mut i = Interp::new();
    let script: String = (0..2000).map(|k| format!("set v{k} {k}\n")).collect();
    i.eval(&script).unwrap();
    assert_eq!(i.get_var("v1999").unwrap(), "1999");
}

mod regex_props {
    use wafe_prop::cases;
    use wafe_tcl::regex::Regex;

    fn quote(s: &str) -> String {
        s.chars()
            .flat_map(|c| {
                if "\\^$.[]()*+?|".contains(c) {
                    vec!['\\', c]
                } else {
                    vec![c]
                }
            })
            .collect()
    }

    /// A quoted literal always matches itself, exactly.
    #[test]
    fn quoted_literal_matches_itself() {
        cases(256, |rng| {
            let s = rng.ascii_string(21);
            let re = Regex::compile(&format!("^{}$", quote(&s)), false).unwrap();
            assert!(re.is_match(&s));
        });
    }

    /// A quoted literal embedded in noise is found at the right span.
    #[test]
    fn literal_found_in_noise() {
        let low: Vec<char> = ('a'..='m').collect();
        let high: Vec<char> = ('n'..='z').collect();
        cases(256, |rng| {
            let pre_len = rng.range(0, 9);
            let pre = rng.string_from(&low, pre_len);
            let needle_len = rng.range(1, 9);
            let needle = rng.string_from(&high, needle_len);
            let post_len = rng.range(0, 9);
            let post = rng.string_from(&low, post_len);
            let hay = format!("{pre}{needle}{post}");
            let re = Regex::compile(&quote(&needle), false).unwrap();
            let m = re.find(&hay).expect("must match");
            let (lo, hi) = m.spans[0].unwrap();
            assert_eq!(hi - lo, needle.chars().count());
            let got: String = hay.chars().skip(lo).take(hi - lo).collect();
            assert_eq!(got, needle);
        });
    }

    /// Compiling arbitrary pattern text never panics.
    #[test]
    fn compile_never_panics() {
        cases(256, |rng| {
            let pattern = rng.unicode_string(0, 25);
            let _ = Regex::compile(&pattern, false);
        });
    }

    /// Matching never panics, whatever the compiled pattern and text.
    #[test]
    fn find_never_panics() {
        let pat_alphabet: Vec<char> = "abc.*+?()|[]^$".chars().collect();
        let text_alphabet: Vec<char> = "abc".chars().collect();
        cases(256, |rng| {
            let pat_len = rng.range(0, 11);
            let pattern = rng.string_from(&pat_alphabet, pat_len);
            let text_len = rng.range(0, 13);
            let text = rng.string_from(&text_alphabet, text_len);
            if let Ok(re) = Regex::compile(&pattern, false) {
                let _ = re.find(&text);
            }
        });
    }

    /// `x*` matches every string of x's entirely.
    #[test]
    fn star_matches_runs() {
        cases(32, |rng| {
            let n = rng.range(0, 20);
            let s = "x".repeat(n);
            let re = Regex::compile("^x*$", false).unwrap();
            assert!(re.is_match(&s));
        });
    }

    /// regexp agrees with string match for prefix patterns.
    #[test]
    fn agrees_with_glob_prefix() {
        let alphabet: Vec<char> = ('a'..='z').collect();
        cases(256, |rng| {
            let s_len = rng.range(1, 11);
            let s = rng.string_from(&alphabet, s_len);
            let t_len = rng.range(1, 11);
            let t = rng.string_from(&alphabet, t_len);
            let mut i = wafe_tcl::Interp::new();
            let glob = i
                .invoke(&[
                    "string".into(),
                    "match".into(),
                    format!("{s}*").into(),
                    t.clone().into(),
                ])
                .unwrap();
            let re = i
                .invoke(&["regexp".into(), format!("^{s}").into(), t.clone().into()])
                .unwrap();
            assert_eq!(glob, re);
        });
    }
}

mod glob_props {
    use wafe_prop::cases;
    use wafe_tcl::glob::glob_match;

    /// The recursive matcher `glob_match` replaced, kept as the
    /// reference: it retries every text position at every `*`, which is
    /// exponential in the number of stars, so it runs on bounded inputs.
    fn reference(p: &[char], mut pi: usize, t: &[char], mut ti: usize) -> bool {
        while pi < p.len() {
            match p[pi] {
                '*' => {
                    while pi < p.len() && p[pi] == '*' {
                        pi += 1;
                    }
                    if pi == p.len() {
                        return true;
                    }
                    while ti <= t.len() {
                        if reference(p, pi, t, ti) {
                            return true;
                        }
                        ti += 1;
                    }
                    return false;
                }
                '?' => {
                    if ti >= t.len() {
                        return false;
                    }
                    ti += 1;
                    pi += 1;
                }
                '[' => {
                    if ti >= t.len() {
                        return false;
                    }
                    let (matched, next) = reference_set(p, pi, t[ti]);
                    if !matched {
                        return false;
                    }
                    pi = next;
                    ti += 1;
                }
                '\\' => {
                    if pi + 1 >= p.len() {
                        return ti < t.len() && t[ti] == '\\' && ti + 1 == t.len();
                    }
                    if ti >= t.len() || t[ti] != p[pi + 1] {
                        return false;
                    }
                    pi += 2;
                    ti += 1;
                }
                c => {
                    if ti >= t.len() || t[ti] != c {
                        return false;
                    }
                    pi += 1;
                    ti += 1;
                }
            }
        }
        ti == t.len()
    }

    /// The reference's `[...]` set: (matched, index past the `]`).
    fn reference_set(p: &[char], pi: usize, c: char) -> (bool, usize) {
        let mut i = pi + 1;
        let negate = i < p.len() && (p[i] == '^' || p[i] == '!');
        if negate {
            i += 1;
        }
        let mut matched = false;
        let mut first = true;
        while i < p.len() && (p[i] != ']' || first) {
            first = false;
            let lo = p[i];
            if i + 2 < p.len() && p[i + 1] == '-' && p[i + 2] != ']' {
                matched |= lo <= c && c <= p[i + 2];
                i += 3;
            } else {
                matched |= lo == c;
                i += 1;
            }
        }
        (matched != negate, if i < p.len() { i + 1 } else { i })
    }

    /// The iterative matcher agrees with the recursive reference on
    /// short patterns and texts over small alphabets, so stars, sets,
    /// ranges, negation, escapes and trailing backslashes meet often.
    #[test]
    fn agrees_with_the_recursive_reference() {
        let pat: Vec<char> = "ab*?[]^!-\\".chars().collect();
        let text: Vec<char> = "ab-^]\\".chars().collect();
        cases(8192, |rng| {
            let plen = rng.range(0, 10);
            let p = rng.string_from(&pat, plen);
            let tlen = rng.range(0, 9);
            let s = rng.string_from(&text, tlen);
            let pc: Vec<char> = p.chars().collect();
            let tc: Vec<char> = s.chars().collect();
            assert_eq!(
                glob_match(&p, &s),
                reference(&pc, 0, &tc, 0),
                "pattern {p:?} text {s:?}"
            );
        });
    }

    /// Many stars against a text that almost matches: the reference
    /// takes exponential time here, the iterative matcher one pass per
    /// retry of the last star.
    #[test]
    fn star_runs_are_not_exponential() {
        let pattern = format!("{}b", "*a".repeat(10));
        assert!(!glob_match(&pattern, &"a".repeat(60)));
        assert!(glob_match(&pattern, &format!("{}b", "a".repeat(60))));
        let long = format!("{}b", "*a".repeat(2_000));
        assert!(!glob_match(&long, &"a".repeat(30_000)));
    }
}
