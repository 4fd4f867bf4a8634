//! Syntax errors keep Tcl's lazy timing: every command before the error
//! runs, in order, with its side effects; inside the failing command the
//! earlier words and the earlier `$`/`[...]` parts of the failing word
//! are substituted first; then the parser's error message is raised.
//!
//! The fixture `tests/fixtures/syntax-errors.txt` pins this for a seeded
//! corpus of short scripts built from side-effecting commands (`incr`,
//! `set` with `[...]` and `"..."` words, array writes, `subst`, `while`,
//! `if`, `catch`), about a quarter of them with one stray delimiter
//! injected at a random offset, plus a few hand-written cases. Each
//! entry records the script, its result or error text, and the sorted
//! global variable and array state afterwards. The fixture was written
//! by the parse-as-you-go evaluator that read scripts before the parse-
//! once compiler became total, so it is the reference for error timing:
//! a difference here is a behaviour change, not a fixture to refresh.
//!
//! Every entry must replay identically with the default caches, with
//! `interp cachelimit 0` (compile on every run) and with `interp
//! bcdisable` (tree-walker only).
//!
//! To extend the corpus, change the generator and rewrite the fixture
//! with `WAFE_WRITE_SYNTAX_FIXTURE=1 cargo test -p wafe-tcl --test
//! syntax_errors`; the existing entries must come out unchanged.

use wafe_prop::Rng;
use wafe_tcl::{list_join, Interp};

/// Number of generated scripts in the corpus.
const CORPUS: u64 = 2000;

/// The interpreter set-ups every entry is replayed under.
const MODES: [(&str, &str); 3] = [
    ("default", ""),
    ("cachelimit 0", "interp cachelimit 0"),
    ("bcdisable", "interp bcdisable"),
];

/// The stray text injected into about a quarter of the scripts.
const INJECTIONS: [&str; 9] = ["{", "}", "\"", "[", "]", "{x}y", "\"x\"y", "$arr(", "\\"];

fn fixture_path() -> String {
    format!(
        "{}/tests/fixtures/syntax-errors.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// One side-effecting command. Loops are bounded by `a`, which their
/// body increments first.
fn gen_command(rng: &mut Rng) -> String {
    match rng.below(9) {
        0 => "incr a".into(),
        1 => "set c [incr a]".into(),
        2 => "set e \"q $a [incr a] r\"".into(),
        3 => "set arr($a) w".into(),
        4 => "set x [subst {s $a [incr a] t}]".into(),
        5 => format!(
            "while {{$a < {}}} {{incr a; set c [incr a]}}",
            rng.range(2, 8)
        ),
        6 => format!(
            "if {{$a > {}}} {{set c hi}} else {{set arr(x) [incr a]}}",
            rng.range(0, 4)
        ),
        7 => "catch {set c \"[incr a] $e\"} m".into(),
        _ => format!("set c {}", rng.range(0, 100)),
    }
}

/// One corpus script: 1-5 commands, sometimes with an injected stray
/// delimiter.
fn gen_script(k: u64) -> String {
    let mut rng = Rng::new(0x5E7A_0000 + k);
    let n = rng.range(1, 6);
    let mut script = String::new();
    for i in 0..n {
        if i > 0 {
            script.push_str(if rng.chance() { "; " } else { "\n" });
        }
        script.push_str(&gen_command(&mut rng));
    }
    if rng.below(4) == 0 {
        let at = rng.range(0, script.len() + 1);
        let stray = *rng.pick(&INJECTIONS);
        script.insert_str(at, stray);
    }
    script
}

/// Hand-written cases: a proc whose body has a syntax error, a broken
/// body inside an otherwise valid `while`, an unterminated bracket in
/// `subst` text, and bracket nests deeper than the nesting limit.
fn extra_scripts() -> Vec<String> {
    vec![
        "proc p {} {global a; incr a; set c [incr a] \"x\"y}\ncatch p m; catch p m2; set m2".into(),
        "proc p {} {global a; incr a; set e \"q $a [incr a]}\np".into(),
        "while {$a < 3} {incr a; set e \"q [incr a]}".into(),
        "set c 1; while {$a < 3} {incr a; set c {a}b}".into(),
        "subst {[incr a][}".into(),
        "set c [subst {[incr a]$arr([incr a][)}]".into(),
        format!("incr a; set x {}incr a{}", "[".repeat(600), "]".repeat(600)),
        format!("set x {}{}", "[incr a; ".repeat(600), "]".repeat(600)),
    ]
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Runs `script` in a fresh interpreter set up by `setup`, with `a`
/// preset to 0, and renders the fixture entry's outcome lines: the
/// result or error, then the global state as a sorted name/value list.
fn outcome(setup: &str, script: &str) -> String {
    let mut i = Interp::new();
    if !setup.is_empty() {
        i.eval(setup).expect("mode set-up");
    }
    i.set_var("a", "0").expect("preset a");
    let result = match i.eval(script) {
        Ok(v) => format!("ok {}", escape(&v)),
        Err(e) => format!("error {}", escape(&e.message())),
    };
    let mut names = i.global_names();
    names.sort();
    let mut state = Vec::new();
    for name in names {
        if i.is_array(&name) {
            let mut elems = i.array_names(&name).expect("array");
            elems.sort();
            for e in elems {
                let v = i.get_elem(&name, &e).expect("element");
                state.push(format!("{name}({e})"));
                state.push(v.to_string());
            }
        } else {
            state.push(name.clone());
            state.push(i.get_var(&name).expect("scalar").to_string());
        }
    }
    format!("  {result}\n  {}\n", escape(&list_join(&state)))
}

/// Every script of the corpus and the hand-written cases, in fixture
/// order.
fn all_scripts() -> Vec<String> {
    (0..CORPUS).map(gen_script).chain(extra_scripts()).collect()
}

fn entry(k: usize, script: &str, outcome: &str) -> String {
    format!("#{k} {}\n{outcome}", escape(script))
}

/// Splits the fixture into its entries (each starts with a `#` line).
fn fixture_entries(text: &str) -> Vec<String> {
    let mut entries: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') {
            entries.push(String::new());
        }
        let e = entries.last_mut().expect("fixture starts with an entry");
        e.push_str(line);
        e.push('\n');
    }
    entries
}

#[test]
fn corpus_replays_the_pinned_outcomes_in_every_mode() {
    let scripts = all_scripts();
    if std::env::var_os("WAFE_WRITE_SYNTAX_FIXTURE").is_some() {
        let mut text = String::new();
        for (k, s) in scripts.iter().enumerate() {
            let want = outcome(MODES[0].1, s);
            for (mode, setup) in &MODES[1..] {
                assert_eq!(outcome(setup, s), want, "#{k} differs under {mode}: {s}");
            }
            text.push_str(&entry(k, s, &want));
        }
        std::fs::write(fixture_path(), text).expect("write fixture");
        return;
    }
    let text = std::fs::read_to_string(fixture_path()).expect("syntax-error fixture checked in");
    let want = fixture_entries(&text);
    assert_eq!(want.len(), scripts.len(), "fixture entry count");
    for (k, (s, want)) in scripts.iter().zip(&want).enumerate() {
        for (mode, setup) in MODES {
            assert_eq!(
                entry(k, s, &outcome(setup, s)),
                *want,
                "entry #{k} under {mode}"
            );
        }
    }
}

#[test]
fn corpus_exercises_every_injection_and_both_outcomes() {
    let text = std::fs::read_to_string(fixture_path()).expect("syntax-error fixture checked in");
    let entries = fixture_entries(&text);
    let errors = entries.iter().filter(|e| e.contains("\n  error ")).count();
    assert!(
        errors > 300 && errors < entries.len() - 300,
        "corpus should mix failing and succeeding scripts: {errors} of {}",
        entries.len()
    );
    for msg in [
        "missing close-brace",
        "missing close-bracket",
        "missing \"",
        "extra characters after close-brace",
        "extra characters after close-quote",
        "too many nested calls to Tcl_Eval (infinite loop?)",
    ] {
        assert!(
            entries
                .iter()
                .any(|e| e.contains(&format!("\n  error {msg}\n"))),
            "no corpus entry raises {msg:?}"
        );
    }
}

#[test]
fn commands_before_a_syntax_error_run_first() {
    for (mode, setup) in MODES {
        let mut i = Interp::new();
        if !setup.is_empty() {
            i.eval(setup).unwrap();
        }
        i.set_var("a", "0").unwrap();
        let e = i
            .eval("incr a; incr a; foo [incr a] \"unterminated")
            .unwrap_err();
        assert_eq!(e.message(), "missing \"", "{mode}");
        assert_eq!(i.get_var("a").unwrap(), "3", "{mode}");
    }
}
