//! Bytecode VM parity: scripts must evaluate identically — result,
//! error message, variable state — whether the flat-instruction VM or
//! the tree-walker runs them, and `interp bcstats`/`cachestats` must
//! account the bytecode layer distinctly from the parse cache.

use std::collections::BTreeMap;

use wafe_tcl::{parse_list, Interp, Value};

/// Evaluates `script` on a VM interpreter and a tree-walking
/// interpreter, asserting identical outcomes and identical values for
/// `vars` afterwards.
fn assert_parity(script: &str, vars: &[&str]) {
    let mut vm = Interp::new();
    let mut tw = Interp::new();
    assert!(tw.set_bc_enabled(false));
    let a = vm
        .eval(script)
        .map(|v| v.to_string())
        .map_err(|e| e.message().to_string());
    let b = tw
        .eval(script)
        .map(|v| v.to_string())
        .map_err(|e| e.message().to_string());
    assert_eq!(a, b, "result diverged for script: {script}");
    for v in vars {
        let a = vm.get_var(v).map(|x| x.to_string()).ok();
        let b = tw.get_var(v).map(|x| x.to_string()).ok();
        assert_eq!(a, b, "variable {v} diverged for script: {script}");
    }
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
    ] {
        assert_parity(s, &["x"]);
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
    let s1 = i.bc_stats();
    assert!(s1.compiles >= 1);
    assert!(s1.instructions > 30);
    i.eval("set n 0; while {$n < 10} {incr n}").unwrap();
    let s2 = i.bc_stats();
    assert_eq!(s2.compiles, s1.compiles, "second run must reuse bytecode");
    assert!(s2.hits > s1.hits);
}

#[test]
fn interp_bcstats_subcommand_verbatim() {
    let mut i = Interp::new();
    i.eval("set x 1").unwrap();
    // `set x 1` is PushConst + StoreVar; the `interp bcstats` script
    // below compiles (second compile) before its own invoke runs, and
    // its two instructions have not yet been counted at snapshot time.
    assert_eq!(
        i.eval("interp bcstats").unwrap(),
        "compiles 2 hits 0 fallbacks 0 instructions 2 enabled 1"
    );
}

#[test]
fn cachestats_separates_bytecode_from_parse_cache() {
    let mut i = Interp::new();
    i.eval("set x 1").unwrap();
    i.eval("set x 1").unwrap();
    let stats: BTreeMap<String, String> = parse_list(&i.eval("interp cachestats").unwrap())
        .unwrap()
        .chunks(2)
        .map(|kv| (kv[0].clone(), kv[1].clone()))
        .collect();
    // The second `set x 1` hits both the parse cache and the bytecode
    // cache; they are reported under distinct keys.
    assert!(stats["hits"].parse::<u64>().unwrap() >= 1, "{stats:?}");
    assert!(stats["bcHits"].parse::<u64>().unwrap() >= 1, "{stats:?}");
    assert_eq!(stats["bcFallbacks"], "0");
    assert!(stats["bcCompiles"].parse::<u64>().unwrap() >= 2);
}

#[test]
fn bcdisable_and_bcenable_round_trip() {
    let mut i = Interp::new();
    // The `interp bcdisable` script itself compiles before the switch
    // flips, so compare against the count after it ran.
    assert_eq!(i.eval("interp bcdisable").unwrap(), "1");
    let base = i.bc_stats().compiles;
    i.eval("set n 0; while {$n < 5} {incr n}").unwrap();
    assert_eq!(i.get_var("n").unwrap(), "5");
    assert_eq!(
        i.bc_stats().compiles,
        base,
        "VM must stay cold while disabled"
    );
    assert_eq!(i.eval("interp bcenable").unwrap(), "0");
    i.eval("set n 0; while {$n < 5} {incr n}").unwrap();
    assert!(i.bc_stats().compiles > base);
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

#[test]
fn cachelimit_zero_disables_vm_with_caches() {
    let mut i = Interp::new();
    i.eval("interp cachelimit 0").unwrap();
    let base = i.bc_stats().compiles;
    i.eval("set n 0; while {$n < 5} {incr n}").unwrap();
    assert_eq!(i.get_var("n").unwrap(), "5");
    assert_eq!(
        i.bc_stats().compiles,
        base,
        "the Tcl 6.x baseline must not engage the VM"
    );
}

#[test]
fn vm_does_not_add_shimmer_parses() {
    // The VM must not parse strings the tree-walker would keep as reps:
    // run the same loop on both engines and compare int-parse counts.
    let script = "set sum 0; for {set i 0} {$i < 100} {incr i} {set sum [expr {$sum + $i}]}";
    let parses = |bc: bool| {
        let mut i = Interp::new();
        i.set_bc_enabled(bc);
        wafe_tcl::reset_shimmer_stats();
        i.eval(script).unwrap();
        wafe_tcl::shimmer_stats().int_parses
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
    i.eval("set big [expr {1 << 40}]").unwrap();
    let v: Value = i.get_var("big").unwrap();
    assert_eq!(v.as_int(), Some(1 << 40), "int rep must survive the VM");
}

/// The VM inlines bracket substitutions, but every one still counts
/// toward the nesting limit as the tree-walker counts it: a nest of `n`
/// brackets fails or succeeds identically under the VM, the tree-walker
/// (`interp bcdisable`) and the compile-every-run baseline (`interp
/// cachelimit 0`), at top level and inside a proc body; so does a
/// recursion whose calls sit in inlined `if` bodies.
#[test]
fn nesting_limit_counts_inlined_brackets() {
    let modes = ["", "interp bcdisable", "interp cachelimit 0"];
    let recurse = "proc g {n} {if {$n > 0} {g [expr {$n - 1}]}}";
    for n in [499, 500, 501] {
        let nest = format!("{}set x 1{}", "[".repeat(n), "]".repeat(n));
        for (place, script) in [
            ("top level", nest.clone()),
            ("proc body", format!("proc f {{}} {{{nest}}}; f")),
            ("recursion", format!("{recurse}; g {}", n / 2 - 2)),
            ("recursion", format!("{recurse}; g {}", n / 2)),
        ] {
            let outcomes: Vec<Result<String, String>> = modes
                .iter()
                .map(|setup| {
                    let mut i = Interp::new();
                    i.eval(setup).unwrap();
                    i.eval(&script)
                        .map(|v| v.to_string())
                        .map_err(|e| e.message().to_string())
                })
                .collect();
            assert!(
                outcomes.iter().all(|o| *o == outcomes[0]),
                "n={n} at {place}: {outcomes:?}"
            );
        }
    }
}
