//! Behaviour of the parse-once script cache: hit/miss accounting through
//! the `interp` introspection command, LRU eviction under a bound, proc
//! redefinition, and interaction with `uplevel`/`catch`.

use wafe_tcl::{parse_list, Interp};

/// Reads `interp cachestats` into (key, value) pairs.
fn stats(i: &mut Interp) -> Vec<(String, i64)> {
    let raw = i.eval("interp cachestats").unwrap();
    let words = parse_list(&raw).unwrap();
    words
        .chunks(2)
        .map(|kv| (kv[0].clone(), kv[1].parse().unwrap()))
        .collect()
}

fn stat(i: &mut Interp, key: &str) -> i64 {
    stats(i)
        .into_iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no stat {key}"))
        .1
}

#[test]
fn repeated_eval_hits_the_cache() {
    let mut i = Interp::new();
    i.eval("interp cacheclear").unwrap();
    let base_hits = stat(&mut i, "hits");
    let base_misses = stat(&mut i, "misses");

    // First evaluation of a fresh script text is a miss, later ones hits.
    i.eval("set a 1; set b 2").unwrap();
    let miss_delta = stat(&mut i, "misses") - base_misses;
    assert!(miss_delta >= 1, "first eval must miss");
    let after_first_hits = stat(&mut i, "hits");
    for _ in 0..5 {
        i.eval("set a 1; set b 2").unwrap();
    }
    assert!(
        stat(&mut i, "hits") >= after_first_hits + 5,
        "verbatim re-eval must hit the script cache"
    );
    assert!(stat(&mut i, "hits") > base_hits);
}

#[test]
fn while_loop_caches_body_and_test() {
    let mut i = Interp::new();
    i.eval("interp cacheclear").unwrap();
    i.eval("set n 0; while {$n < 100} {incr n}").unwrap();
    assert_eq!(i.get_var("n").unwrap(), "100");
    // The loop body is compiled once, not once per iteration: the whole
    // run needs only a handful of cache entries.
    let entries = stat(&mut i, "entries");
    assert!(
        (1..20).contains(&entries),
        "expected a few cached scripts, got {entries}"
    );
}

#[test]
fn cachestats_reports_expr_side_too() {
    let mut i = Interp::new();
    i.eval("interp cacheclear").unwrap();
    for _ in 0..4 {
        i.eval("expr {3 * 7}").unwrap();
    }
    assert!(stat(&mut i, "exprHits") + stat(&mut i, "exprMisses") > 0);
}

/// The substitution-text cache (`subst` text) counts
/// like the other two, under the four keys `cachestats` appends.
#[test]
fn cachestats_reports_subst_side_too() {
    let mut i = Interp::new();
    i.eval("set who world").unwrap();
    for _ in 0..4 {
        assert_eq!(i.eval("subst {hello $who}").unwrap(), "hello world");
    }
    assert_eq!(stat(&mut i, "substMisses"), 1, "the first subst compiles");
    assert_eq!(stat(&mut i, "substHits"), 3, "repeats reuse the parse");
    assert_eq!(stat(&mut i, "substEntries"), 1);
    assert_eq!(stat(&mut i, "substEvictions"), 0);
    i.eval("interp cachelimit 2").unwrap();
    for k in 0..4 {
        i.eval(&format!("subst {{v{k} $who}}")).unwrap();
    }
    assert_eq!(stat(&mut i, "substEntries"), 2);
    assert_eq!(stat(&mut i, "substEvictions"), 3);
    let keys: Vec<String> = stats(&mut i).into_iter().map(|(k, _)| k).collect();
    assert_eq!(
        keys,
        [
            "hits",
            "misses",
            "entries",
            "evictions",
            "exprHits",
            "exprMisses",
            "exprEntries",
            "exprEvictions",
            "limit",
            "bcHits",
            "bcCompiles",
            "bcFallbacks",
            "substHits",
            "substMisses",
            "substEntries",
            "substEvictions"
        ],
        "the PR-1 keys keep their order; the subst keys come last"
    );
}

#[test]
fn cachelimit_get_and_set() {
    let mut i = Interp::new();
    let default_limit = i.eval("interp cachelimit").unwrap();
    assert_eq!(
        default_limit,
        wafe_tcl::interp::DEFAULT_CACHE_LIMIT.to_string()
    );
    i.eval("interp cachelimit 3").unwrap();
    assert_eq!(i.eval("interp cachelimit").unwrap(), "3");
    assert_eq!(stat(&mut i, "limit"), 3);
}

#[test]
fn lru_eviction_respects_bound() {
    let mut i = Interp::new();
    i.eval("interp cachelimit 4").unwrap();
    i.eval("interp cacheclear").unwrap();
    // Evaluate many distinct script texts; the cache must stay bounded
    // and must evict.
    for k in 0..20 {
        i.eval(&format!("set v{k} {k}")).unwrap();
    }
    assert!(stat(&mut i, "entries") <= 4, "cache exceeded its bound");
    assert!(stat(&mut i, "evictions") > 0, "no evictions recorded");
    // The interpreter still computes correctly after heavy eviction.
    assert_eq!(i.eval("expr {$v0 + $v19}").unwrap(), "19");
}

#[test]
fn lru_keeps_the_hot_entry() {
    let mut i = Interp::new();
    i.eval("interp cachelimit 2").unwrap();
    i.eval("interp cacheclear").unwrap();
    i.eval("set hot 1").unwrap();
    for k in 0..10 {
        // Touch the hot script between cold ones: it must stay cached.
        i.eval("set hot 1").unwrap();
        i.eval(&format!("set cold{k} {k}")).unwrap();
    }
    let hits_before = stat(&mut i, "hits");
    i.eval("set hot 1").unwrap();
    assert_eq!(
        stat(&mut i, "hits"),
        hits_before + 1,
        "recently-used script was evicted"
    );
}

#[test]
fn cachelimit_zero_disables_caching() {
    let mut i = Interp::new();
    i.eval("interp cachelimit 0").unwrap();
    i.eval("interp cacheclear").unwrap();
    for _ in 0..5 {
        assert_eq!(i.eval("expr 1+1").unwrap(), "2");
    }
    assert_eq!(stat(&mut i, "entries"), 0);
    // Re-enabling restores caching.
    i.eval("interp cachelimit 16").unwrap();
    i.eval("set x 9").unwrap();
    i.eval("set x 9").unwrap();
    assert!(stat(&mut i, "hits") > 0);
}

#[test]
fn proc_redefinition_replaces_compiled_body() {
    let mut i = Interp::new();
    i.eval("proc greet {} {return hello}").unwrap();
    // Warm the proc body through several calls.
    for _ in 0..3 {
        assert_eq!(i.eval("greet").unwrap(), "hello");
    }
    // Redefining must invalidate the previously compiled body.
    i.eval("proc greet {} {return goodbye}").unwrap();
    assert_eq!(i.eval("greet").unwrap(), "goodbye");
    // And again, with a different arity.
    i.eval("proc greet {who} {return \"hi $who\"}").unwrap();
    assert_eq!(i.eval("greet world").unwrap(), "hi world");
}

#[test]
fn cached_proc_body_sees_current_variables() {
    let mut i = Interp::new();
    i.eval("proc read_g {} {global g; return $g}").unwrap();
    i.eval("set g first").unwrap();
    assert_eq!(i.eval("read_g").unwrap(), "first");
    // The compiled body must re-substitute on every call.
    i.eval("set g second").unwrap();
    assert_eq!(i.eval("read_g").unwrap(), "second");
}

#[test]
fn uplevel_through_cached_bodies() {
    let mut i = Interp::new();
    i.eval("proc setter {} {uplevel {set from_below 42}}")
        .unwrap();
    i.eval("proc caller {} {setter; return $from_below}")
        .unwrap();
    // Run twice so the second pass executes fully from cache.
    assert_eq!(i.eval("caller").unwrap(), "42");
    assert_eq!(i.eval("caller").unwrap(), "42");
    // uplevel #0 from a cached body writes the true global frame.
    i.eval("proc gset {} {uplevel #0 {set topvar 7}}").unwrap();
    i.eval("gset").unwrap();
    i.eval("gset").unwrap();
    assert_eq!(i.get_var("topvar").unwrap(), "7");
}

#[test]
fn catch_inside_cached_loop_body() {
    let mut i = Interp::new();
    let script = r#"
        set errs 0
        set n 0
        while {$n < 10} {
            incr n
            if {[catch {error boom} msg]} {
                incr errs
            }
        }
        list $n $errs $msg
    "#;
    // Same text twice: second run is fully cache-served and must agree.
    let first = i.eval(script).unwrap();
    let second = i.eval(script).unwrap();
    assert_eq!(first, "10 10 boom");
    assert_eq!(second, first);
}

#[test]
fn break_and_continue_from_cached_bodies() {
    let mut i = Interp::new();
    let script = r#"
        set sum 0
        for {set k 0} {$k < 20} {incr k} {
            if {$k == 5} continue
            if {$k == 9} break
            set sum [expr {$sum + $k}]
        }
        set sum
    "#;
    // 0+1+2+3+4+6+7+8 = 31
    assert_eq!(i.eval(script).unwrap(), "31");
    assert_eq!(i.eval(script).unwrap(), "31");
}

#[test]
fn cacheclear_resets_entries_but_keeps_correctness() {
    let mut i = Interp::new();
    i.eval("set y 5").unwrap();
    assert!(stat(&mut i, "entries") > 0);
    i.eval("interp cacheclear").unwrap();
    // `interp cacheclear` itself may repopulate one entry at most.
    assert!(stat(&mut i, "entries") <= 2);
    assert_eq!(i.eval("expr {$y * 2}").unwrap(), "10");
}

#[test]
fn bad_interp_subcommand_is_an_error() {
    let mut i = Interp::new();
    let e = i.eval("interp bogus").unwrap_err();
    assert!(e.message().contains("bad option"));
    let e = i.eval("interp cachelimit nope").unwrap_err();
    assert!(e.message().contains("expected integer"));
}

/// Expression operands compile with their expression: a guard holding
/// `[...]` and `$a($i)` runs without a text-cache lookup, so after its
/// first call a proc looping on such a guard leaves the script and
/// substitution caches' counters where they were — on the VM and on
/// the tree-walker. The calls go through `invoke`, which has no text to
/// look up either.
#[test]
fn expression_operands_never_look_up_text() {
    for setup in ["", "interp bcdisable"] {
        let mut i = Interp::new();
        i.eval(setup).unwrap();
        i.eval(
            "proc f {} {global l a; set n 0; set i 1; \
             while {[llength $l] > $n && $a($i) > 0} {incr n}; return $n}",
        )
        .unwrap();
        i.eval("set l {x y z}; set a(1) 1").unwrap();
        let call = [wafe_tcl::Value::from("f")];
        assert_eq!(i.invoke(&call).unwrap(), "3");
        let probe = |i: &mut Interp| -> Vec<i64> {
            let all = stats(i);
            ["hits", "misses", "substHits", "substMisses"]
                .iter()
                .map(|k| all.iter().find(|(name, _)| name == k).unwrap().1)
                .collect()
        };
        let before = probe(&mut i);
        for _ in 0..100 {
            assert_eq!(i.invoke(&call).unwrap(), "3");
        }
        // The second `interp cachestats` line is itself one script hit.
        assert_eq!(
            probe(&mut i),
            [before[0] + 1, before[1], before[2], before[3]],
            "mode {setup:?}"
        );
    }
}
