//! Dual-representation `Value` behaviour observable from Tcl scripts:
//! the amortized-O(1) `lappend` guarantee and the `interp shimmerstats`
//! introspection command.

use std::collections::HashMap;

use wafe_tcl::{parse_list, Interp};

fn stats(i: &mut Interp) -> HashMap<String, u64> {
    let out = i.eval("interp shimmerstats").unwrap();
    let words = parse_list(&out).unwrap();
    words
        .chunks(2)
        .map(|p| (p[0].clone(), p[1].parse().unwrap()))
        .collect()
}

/// Growing a list with `lappend` must not re-parse or re-render the
/// list per append: the sole-owner rep steal keeps the parsed vector
/// shared between the variable slot and the command, so 500 appends
/// cost O(1) list parses and renders — not O(n).
#[test]
fn lappend_is_amortized_o1() {
    let mut i = Interp::new();
    i.telemetry().reset();
    i.eval("set l {}; for {set k 0} {$k < 500} {incr k} {lappend l $k}")
        .unwrap();
    let s = stats(&mut i);
    // One parse of the initial "{}" at most; growth itself never re-parses.
    assert!(
        s["listParses"] <= 3,
        "lappend growth re-parsed the list {} times (expected O(1))",
        s["listParses"]
    );
    // The list is never rendered to a string during growth.
    assert!(
        s["renders"] <= 3,
        "lappend growth rendered the list {} times (expected O(1))",
        s["renders"]
    );
    // At most a bounded number of copy-on-write clones (the first append
    // copies once because the compiled script's literal shares the rep).
    assert!(
        s["listCow"] <= 3,
        "lappend growth forced {} copy-on-write clones (expected O(1))",
        s["listCow"]
    );
    assert_eq!(i.eval("llength $l").unwrap(), "500");
    assert_eq!(i.eval("lindex $l 499").unwrap(), "499");
}

/// Sharing the list (`set b $l`) must fail the sole-owner check and
/// fall back to copy-on-write — the sibling keeps its old elements.
#[test]
fn lappend_shared_list_copies_on_write() {
    let mut i = Interp::new();
    i.eval("set l {a b}; set saved $l; lappend l c").unwrap();
    assert_eq!(i.eval("set saved").unwrap(), "a b");
    assert_eq!(i.eval("set l").unwrap(), "a b c");
    i.telemetry().reset();
    i.eval("set m {x y}; set keep $m; lappend m z").unwrap();
    let s = stats(&mut i);
    assert!(s["listCow"] >= 1, "shared lappend must count a COW clone");
    assert_eq!(i.eval("set keep").unwrap(), "x y");
}

/// Self-referential append (`lappend l $l`) is the classic aliasing
/// trap for in-place mutation; the value snapshot must win.
#[test]
fn lappend_self_reference_is_safe() {
    let mut i = Interp::new();
    i.eval("set l {a b}").unwrap();
    assert_eq!(i.eval("lappend l $l").unwrap(), "a b {a b}");
    assert_eq!(i.eval("llength $l").unwrap(), "3");
}

/// Repeated numeric use of the same variable parses its text once.
#[test]
fn numeric_reuse_hits_cached_rep() {
    let mut i = Interp::new();
    i.eval("set n 7777").unwrap();
    i.telemetry().reset();
    i.eval("for {set k 0} {$k < 100} {incr k} {expr {$n + $k}}")
        .unwrap();
    let s = stats(&mut i);
    assert!(
        s["intParses"] <= 110,
        "expected ~1 parse per distinct value, got {} int parses",
        s["intParses"]
    );
    assert!(s["repHits"] >= 100, "cached int rep was not reused");
}

/// `interp shimmerstats` reports all seven counters as a flat pair list.
#[test]
fn shimmerstats_reports_all_counters() {
    let mut i = Interp::new();
    let s = stats(&mut i);
    for key in [
        "intParses",
        "doubleParses",
        "listParses",
        "repHits",
        "renders",
        "listCow",
        "cmdInternHits",
    ] {
        assert!(s.contains_key(key), "missing counter {key}");
    }
    assert!(i.eval("interp bogus").is_err());
}
