//! Bytecode VM parity: scripts must evaluate identically — result,
//! error message, variable state — whether the flat-instruction VM or
//! the tree-walker runs them, and `interp bcstats`/`cachestats` must
//! account the bytecode layer distinctly from the parse cache.

use std::collections::BTreeMap;

use wafe_tcl::{parse_list, Interp, Metric, Value};

/// Evaluates `script` twice on a VM interpreter and on a tree-walking
/// interpreter, asserting identical outcomes and identical values for
/// `vars` after each run. A script that does not loop tree-walks its
/// first run on the VM interpreter too; the second run is the one that
/// executes its bytecode.
fn assert_parity(script: &str, vars: &[&str]) {
    let mut vm = Interp::new();
    let mut tw = Interp::new();
    assert!(tw.set_bc_enabled(false));
    for run in 1..=2 {
        let a = vm
            .eval(script)
            .map(|v| v.to_string())
            .map_err(|e| e.message().to_string());
        let b = tw
            .eval(script)
            .map(|v| v.to_string())
            .map_err(|e| e.message().to_string());
        assert_eq!(a, b, "result diverged on run {run} for script: {script}");
        for v in vars {
            let a = vm.get_var(v).map(|x| x.to_string()).ok();
            let b = tw.get_var(v).map(|x| x.to_string()).ok();
            assert_eq!(
                a, b,
                "variable {v} diverged on run {run} for script: {script}"
            );
        }
    }
}

/// `(compiles, hits, deferred)`.
fn tiers(i: &Interp) -> (u64, u64, u64) {
    (
        i.metric(Metric::TclBcCompiles),
        i.metric(Metric::TclBcHits),
        i.metric(Metric::TclBcDeferred),
    )
}

#[test]
fn straight_line_parity() {
    assert_parity("set a 1; set b $a; set c [set a 2]$b", &["a", "b", "c"]);
    assert_parity("set a hello; set b ${a}world", &["a", "b"]);
    assert_parity("set arr(k) 10; set b $arr(k)", &["b"]);
    assert_parity("set i k; set arr($i) 7; set b $arr($i)", &["b"]);
    assert_parity("set missing", &[]);
    assert_parity("unknown_command 1 2", &[]);
}

#[test]
fn expr_parity() {
    for s in [
        "expr {1 + 2 * 3}",
        "expr {7 / 2}",
        "expr {7 % 3}",
        "expr {-7 / 2}",
        "expr {1.5 + 2}",
        "expr {10 > 3 && 2 < 1}",
        "expr {0 || 3}",
        "expr {!0}",
        "expr {~5}",
        "expr {1 << 4 | 3}",
        "expr {2 ** 10}",
        "expr {1 ? 10 : 20}",
        "expr {\"abc\" < \"abd\"}",
        "expr {\"5\" + 1}",
        "expr {4 == 4.0}",
        "expr {1/0}",
        "expr {1.0/0}",
        "expr {int(3.7) + round(2.5)}",
        "expr {abs(-4) + max(1, 2) - min(0, 5)}",
        "expr {srand(42); int(rand()*100)}",
        "expr {1e308 * 10}",
        "expr {1e308 * 10 - 1e308 * 10}",
        "set x 4; expr {$x * $x}",
        "set x 4; expr {[set x 6] + $x}",
        "set a(i) 3; set i i; expr {$a($i) + 1}",
        "expr {nosuchfunc(1)}",
        "expr {$undefined + 1}",
        // Operands that substitute: a loop in a bracket breaks while the
        // numeric stack holds the left operand; quoted and braced
        // operands are numbers where they look like one; a missing close delimiter of the operand is a syntax
        // error, while one inside its bracket or index raises only when
        // the operand is reached.
        "set a(2) 5; set k 1; expr {$a([incr k]) + $k}",
        "set x 3; expr {$x + [foreach y {a b c} {if {$y == \"b\"} break}; string length $y]}",
        "set a x; expr {\"[set a]y\" == \"xy\"}",
        "set x 5; expr {\"$x\" + 1}",
        "expr {{5} + 1}",
        "expr {\"0x10\" * {2.5}}",
        "set a x; expr {\"$a\" == \"x\"}",
        "set a x; expr {\"$a\" + 1}",
        "expr {0 && [set a {b}c]}",
        "expr {1 && [set a {b}c]}",
        "expr {0 && $a([x)}",
        "expr {1 + $a([x)}",
        "expr {[set a}",
        "expr {\"abc}",
        "expr {\"[set a\"}",
        "expr {$ + 1}",
    ] {
        assert_parity(s, &["x", "a", "k"]);
    }
}

/// A double-quoted `expr` operand substitutes, as Tcl's `expr` manual
/// says, and is a number where it looks like one, under the VM, the tree-walker and
/// with no text cache, on a first and a second run.
#[test]
fn quoted_operands_substitute() {
    for setup in ["", "interp bcdisable", "interp cachelimit 0"] {
        let mut i = Interp::new();
        i.eval(setup).unwrap();
        for run in 1..=2 {
            for (script, want) in [
                ("set a x; expr {\"$a\" == \"x\"}", "1"),
                ("expr {\"[set a]y\" == \"xy\"}", "1"),
                ("set r 0; if {\"$a\" == \"x\"} {set r 1}; set r", "1"),
                ("expr {\"$a\"}", "x"),
                ("expr {\"5\" + 1}", "6"),
                ("expr {{5} + 1}", "6"),
                ("set n 5; expr {\"$n\" + 1}", "6"),
            ] {
                let got = i.eval(script).map(|v| v.to_string());
                assert_eq!(got.as_deref(), Ok(want), "{setup:?} run {run}: {script}");
            }
        }
    }
}

#[test]
fn control_flow_parity() {
    for s in [
        "if {1 < 2} {set r yes} else {set r no}",
        "if {1 > 2} {set r yes} elseif {3 > 2} {set r mid} else {set r no}",
        "if 0 {set r a} {set r bare-else}",
        "set r {}; set i 0; while {$i < 5} {incr i; set r $r$i}",
        "set r {}; for {set i 0} {$i < 4} {incr i} {set r $r$i}",
        "set r {}; foreach x {1 2 3} {set r $r$x}",
        "set r {}; foreach {a b} {1 2 3} {set r $r$a-$b.}",
        "set r {}; foreach x {1 2 3 4 5} {if {$x == 3} break; set r $r$x}",
        "set r {}; foreach x {1 2 3 4 5} {if {$x == 3} continue; set r $r$x}",
        "set r {}; set i 0; while {$i < 8} {incr i; if {$i % 2} continue; \
         if {$i > 5} break; set r $r$i}",
        "set r {}; for {set i 0} {$i < 9} {incr i} {if {$i == 4} continue; \
         if {$i == 7} break; set r $r$i}",
        "set r {}; foreach x {1 2} {foreach y {a b} {if {$y == \"b\"} continue; \
         set r $r$x$y}; if {$x == 2} break}",
        "break",
        "continue",
        "while {[incr g] < 3} {}; set g",
        "foreach x {} {set never 1}",
        "set r 0; while {$r} {set never 1}",
        "if {} {set r 1}",
        "while {bogus expr} {set never 1}",
        "foreach x {bad {list} {set never 1}",
        // `break`, `continue` and `error` raised in a guard's bracket.
        "set r {}; foreach x {1 2 3} {while {[if {$x == 2} continue; set x] < 0} {}; set r $r$x}",
        "set r {}; foreach x {1 2 3} {if {[if {$x == 2} break; set x] > 0} {set r $r$x}}",
        "set r {}; set i 0; while {[incr i] < 5 && [string length $r] < 3} {set r $r$i}",
        "set r 0; if {[error boom] > 0} {set r 1}",
        "set r 0; while {[incr r] < 3 || [error late]} {}",
    ] {
        assert_parity(s, &["r", "i", "g", "x", "a", "b"]);
    }
}

#[test]
fn proc_and_recursion_parity() {
    assert_parity(
        "proc fib {n} {if {$n < 2} {return $n}; \
         expr {[fib [expr {$n-1}]] + [fib [expr {$n-2}]]}}; fib 15",
        &[],
    );
    assert_parity(
        "proc down {n} {while {$n > 0} {incr n -1}; return done}; down 100",
        &[],
    );
}

#[test]
fn break_inside_substitution_unwinds_cleanly() {
    // `break` fires mid-word, while operands for the outer `set` are
    // already on the VM stack; the unwinder must discard them.
    assert_parity(
        "set out {}; foreach x {1 2 3} {set out $x[if {$x > 1} break]}",
        &["out"],
    );
    assert_parity(
        "set out {}; foreach x {1 2 3} {catch {break} out}; set out",
        &["out", "x"],
    );
}

#[test]
fn string_and_list_commands_flow_through_generic_invoke() {
    assert_parity(
        "set l {}; foreach w {the quick brown fox} {lappend l [string length $w]}; \
         set s [join $l +]; expr $s",
        &["l", "s"],
    );
    assert_parity(
        "set l [list a b c]; set n [llength $l]; set e [lindex $l 1]",
        &["l", "n", "e"],
    );
}

#[test]
fn bcstats_counts_compile_then_hits() {
    let mut i = Interp::new();
    i.eval("set n 0; while {$n < 10} {incr n}").unwrap();
    let (compiles1, hits1) = (i.metric(Metric::TclBcCompiles), i.metric(Metric::TclBcHits));
    assert!(compiles1 >= 1);
    assert!(i.metric(Metric::TclBcInstructions) > 30);
    i.eval("set n 0; while {$n < 10} {incr n}").unwrap();
    let (compiles2, hits2) = (i.metric(Metric::TclBcCompiles), i.metric(Metric::TclBcHits));
    assert_eq!(compiles2, compiles1, "second run must reuse bytecode");
    assert!(hits2 > hits1);
}

#[test]
fn interp_bcstats_subcommand_verbatim() {
    let mut i = Interp::new();
    i.eval("set x 1").unwrap();
    i.eval("set x 1").unwrap();
    // The first `set x 1` tree-walks (deferred); the second compiles to
    // PushConst + StoreVar and runs them. The `interp bcstats` script is
    // on its first run too, so it tree-walks: the second deferral.
    assert_eq!(
        i.eval("interp bcstats").unwrap(),
        "compiles 1 hits 0 fallbacks 0 deferred 2 instructions 2 enabled 1"
    );
}

#[test]
fn cachestats_separates_bytecode_from_parse_cache() {
    let mut i = Interp::new();
    for _ in 0..3 {
        i.eval("set x 1").unwrap();
    }
    let stats: BTreeMap<String, String> = parse_list(&i.eval("interp cachestats").unwrap())
        .unwrap()
        .chunks(2)
        .map(|kv| (kv[0].clone(), kv[1].clone()))
        .collect();
    // The second and third `set x 1` hit the parse cache; the second
    // compiles the bytecode and the third hits it. The two caches are
    // reported under distinct keys.
    assert_eq!(stats["hits"], "2", "{stats:?}");
    assert_eq!(stats["bcHits"], "1", "{stats:?}");
    assert_eq!(stats["bcFallbacks"], "0");
    assert_eq!(stats["bcCompiles"], "1", "{stats:?}");
}

#[test]
fn a_proc_called_once_that_loops_runs_in_the_vm() {
    let mut i = Interp::new();
    // The line itself does not loop (the body is a braced word), so it
    // tree-walks; the proc body starts a `foreach`, so its first call
    // is lowered and the loop runs in the VM.
    let out = i
        .eval("proc sum {l} {set s 0; foreach x $l {incr s $x}; return $s}; sum {1 2 3 4 5 6}")
        .unwrap();
    assert_eq!(out, "21");
    assert_eq!(tiers(&i), (1, 0, 1));
    assert!(i.metric(Metric::TclBcInstructions) > 30);
}

#[test]
fn bcdisable_and_bcenable_round_trip() {
    let mut i = Interp::new();
    // The `interp bcdisable` script itself compiles before the switch
    // flips, so compare against the count after it ran.
    assert_eq!(i.eval("interp bcdisable").unwrap(), "1");
    let base = i.metric(Metric::TclBcCompiles);
    i.eval("set n 0; while {$n < 5} {incr n}").unwrap();
    assert_eq!(i.get_var("n").unwrap(), "5");
    assert_eq!(
        i.metric(Metric::TclBcCompiles),
        base,
        "VM must stay cold while disabled"
    );
    assert_eq!(i.eval("interp bcenable").unwrap(), "0");
    i.eval("set n 0; while {$n < 5} {incr n}").unwrap();
    assert!(i.metric(Metric::TclBcCompiles) > base);
}

#[test]
fn bad_interp_option_lists_bc_subcommands() {
    let mut i = Interp::new();
    let e = i.eval("interp bogus").unwrap_err();
    assert!(e.message().contains("bcstats"), "{}", e.message());
}

#[test]
fn redefined_loop_command_is_honored_by_compiled_scripts() {
    let mut i = Interp::new();
    i.eval("set r {}").unwrap();
    let script = "foreach x {1 2 3} {set r $r$x}";
    assert_eq!(i.eval(script).unwrap(), "");
    assert_eq!(i.get_var("r").unwrap(), "123");
    // Shadow `foreach` with a proc: the cached bytecode was compiled
    // against the builtin and must not keep using it.
    i.eval("proc foreach {a b c} {return shadowed-$a}").unwrap();
    assert_eq!(i.eval(script).unwrap(), "shadowed-x");
}

/// `interp cachelimit 0` bounds only the text caches: a looping line
/// still lowers to bytecode on its first run, the caches keep and count
/// nothing, and results match the default interpreter's.
#[test]
fn cachelimit_zero_keeps_the_vm() {
    let script = "set n 0; while {$n < 5} {incr n}; set s 0; foreach x {1 2 3} {incr s $x}";
    let mut plain = Interp::new();
    let mut i = Interp::new();
    i.eval("interp cachelimit 0").unwrap();
    i.eval("interp cacheclear").unwrap();
    let counters = [
        Metric::TclCacheScriptHits,
        Metric::TclCacheScriptMisses,
        Metric::TclCacheExprHits,
        Metric::TclCacheExprMisses,
    ];
    let before = counters.map(|m| i.metric(m));
    let base = i.metric(Metric::TclBcCompiles);
    for _ in 0..2 {
        assert_eq!(
            i.eval(script).unwrap().to_string(),
            plain.eval(script).unwrap().to_string()
        );
        for v in ["n", "s"] {
            assert_eq!(i.get_var(v).unwrap(), plain.get_var(v).unwrap());
        }
    }
    assert!(
        i.metric(Metric::TclBcCompiles) > base,
        "a looping line lowers with no text cache"
    );
    for m in [
        Metric::TclCacheScriptEntries,
        Metric::TclCacheExprEntries,
        Metric::TclCacheSubstEntries,
    ] {
        assert_eq!(i.metric(m), 0, "{m:?} under cachelimit 0");
    }
    assert_eq!(counters.map(|m| i.metric(m)), before, "nothing counted");
}

/// A `while`/`for` guard that does not parse raises its syntax error
/// when the loop first tests it: `for` has run its start script by then,
/// `while` has run nothing. Identical on the VM, the tree-walker and
/// with no text cache, at top level and on a second (lowered) run.
#[test]
fn guard_parse_errors_raise_at_the_first_test() {
    let cases = [
        (
            "catch {for {set i 7} {$i <} {incr i} {}} m; list $m $i",
            "{empty expression} 7",
        ),
        (
            "catch {while {)} {set hit 1}} m; list $m [info exists hit]",
            "{syntax error in expression near \")\"} 0",
        ),
    ];
    for setup in ["", "interp bcdisable", "interp cachelimit 0"] {
        for (script, want) in cases {
            let mut i = Interp::new();
            i.eval(setup).unwrap();
            for run in 1..=2 {
                assert_eq!(
                    i.eval(script).unwrap().to_string(),
                    want,
                    "{setup:?} run {run}: {script}"
                );
            }
        }
    }
}

#[test]
fn vm_does_not_add_shimmer_parses() {
    // The VM must not parse strings the tree-walker would keep as reps:
    // run the same loop on both engines and compare int-parse counts.
    let script = "set sum 0; for {set i 0} {$i < 100} {incr i} {set sum [expr {$sum + $i}]}";
    let parses = |bc: bool| {
        let mut i = Interp::new();
        i.set_bc_enabled(bc);
        i.eval(script).unwrap();
        i.metric(Metric::TclShimmerIntParses)
    };
    let vm = parses(true);
    let tw = parses(false);
    assert!(
        vm <= tw,
        "VM must not shimmer more than the tree-walker: vm={vm} tw={tw}"
    );
}

#[test]
fn values_keep_reps_across_vm_boundary() {
    let mut i = Interp::new();
    // The second run is the one that executes bytecode.
    for _ in 0..2 {
        i.eval("set big [expr {1 << 40}]").unwrap();
    }
    assert_eq!(i.metric(Metric::TclBcCompiles), 1);
    let v: Value = i.get_var("big").unwrap();
    assert_eq!(v.as_int(), Some(1 << 40), "int rep must survive the VM");
}

/// The VM inlines bracket substitutions, but every one still counts
/// toward the nesting limit as the tree-walker counts it: a nest of `n`
/// brackets fails or succeeds identically under the VM, the tree-walker
/// (`interp bcdisable`) and with no text cache (`interp cachelimit 0`),
/// at top level and inside a proc body; so does a
/// recursion whose calls sit in inlined `if` bodies. The same holds
/// where the brackets are expression operands: a nest of `n`
/// `expr {[...] + 0}` brackets, and a recursion whose calls sit in an
/// `if` guard's bracket. Each script runs twice, so the VM mode covers
/// both the tree-walked first run and the lowered second one.
#[test]
fn nesting_limit_counts_inlined_brackets() {
    // An unoptimized build spends ~10 KiB of native stack per nested
    // `expr` operand level, more than a 2 MiB test thread holds at the
    // limit; the interpreter itself runs on 8 MiB main threads.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(nesting_limit_places)
        .unwrap()
        .join()
        .unwrap();
}

fn nesting_limit_places() {
    let modes = ["", "interp bcdisable", "interp cachelimit 0"];
    let recurse = "proc g {n} {if {$n > 0} {g [expr {$n - 1}]}}";
    let guard = "proc h {n} {if {$n <= 0} {return 1}; \
                 if {[h [expr {$n - 1}]] > 0} {return 1}; return 0}";
    for n in [499, 500, 501] {
        let nest = format!("{}set x 1{}", "[".repeat(n), "]".repeat(n));
        let operands = format!("{}set x 1{}", "expr {[".repeat(n), "] + 0}".repeat(n));
        for (place, script) in [
            ("top level", nest.clone()),
            ("proc body", format!("proc f {{}} {{{nest}}}; f")),
            ("recursion", format!("{recurse}; g {}", n / 2 - 2)),
            ("recursion", format!("{recurse}; g {}", n / 2)),
            ("expr operands", operands.clone()),
            (
                "expr operands in a proc",
                format!("proc f {{}} {{{operands}}}; f"),
            ),
            ("guard recursion", format!("{guard}; h {}", n / 2 - 2)),
            ("guard recursion", format!("{guard}; h {}", n / 2)),
        ] {
            let outcomes: Vec<Vec<Result<String, String>>> = modes
                .iter()
                .map(|setup| {
                    let mut i = Interp::new();
                    i.eval(setup).unwrap();
                    (0..2)
                        .map(|_| {
                            i.eval(&script)
                                .map(|v| v.to_string())
                                .map_err(|e| e.message().to_string())
                        })
                        .collect()
                })
                .collect();
            assert!(
                outcomes.iter().all(|o| *o == outcomes[0]),
                "n={n} at {place}: {outcomes:?}"
            );
        }
    }
}
