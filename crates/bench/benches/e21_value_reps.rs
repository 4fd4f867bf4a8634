//! E21 — dual-representation values: `lappend` growth stays linear.
//!
//! Wafe inherits Tcl 6's "everything is a string" data model, where
//! every list use of a value re-parses its text and every `lappend`
//! re-renders the whole list: building an N-element list costs O(N²).
//! The Tcl 8-style dual-rep `Value` caches the parsed list and steals
//! the sole-owner rep, so an append is amortized O(1) and the build is
//! O(N).
//!
//! The check is a growth ratio inside one run, in the style of E30:
//! building a 4N-element list must take at most 6× as long as building
//! an N-element one (linear growth is 4×, quadratic 16×). Both sides
//! come from the same run, interleaved round by round, so the gate
//! needs no kept-alive strings-only baseline. The `mix` workload (an
//! append loop, an integer `lsort` and an arithmetic pass) is reported
//! for the record. Results go to stdout and `BENCH_e21.json`.

use std::time::Duration;

use bench::{measure_ab, measure_median, workspace_root};
use wafe_tcl::Interp;

/// Elements in the smaller build; the larger one has four times as many.
const N: usize = 1000;

/// The growth-ratio gate: between linear (4) and quadratic (16).
const MAX_GROWTH: f64 = 6.0;

const MIX_TCL: &str = "\
set l {}\n\
for {set k 0} {$k < 300} {incr k} {lappend l [expr {($k * 7919) % 1000}]}\n\
set sorted [lsort -integer $l]\n\
set sum 0\n\
foreach x $sorted {incr sum $x}\n\
set sum";

fn list_build(n: usize) -> String {
    format!("set l {{}}\nfor {{set k 0}} {{$k < {n}}} {{incr k}} {{lappend l $k}}\nllength $l")
}

fn main() {
    bench::banner("E21", "dual-rep values: lappend build time grows linearly");

    let (small, large) = (list_build(N), list_build(4 * N));
    let (mut i_small, mut i_large) = (Interp::new(), Interp::new());
    assert_eq!(i_small.eval(&small).unwrap().to_string(), N.to_string());
    assert_eq!(
        i_large.eval(&large).unwrap().to_string(),
        (4 * N).to_string()
    );
    let ab = measure_ab(
        Duration::from_millis(200),
        21,
        Duration::from_millis(20),
        || {
            i_large.eval(&large).unwrap();
        },
        || {
            i_small.eval(&small).unwrap();
        },
    );
    let growth = ab.ratio;
    let mix_ns = measure_median(
        Duration::from_millis(200),
        Duration::from_millis(1000),
        11,
        || i_small.eval(MIX_TCL).unwrap(),
    );

    bench::row(
        &format!("lappend build, {N} elements"),
        format!("{:.0} ns", ab.b_ns),
    );
    bench::row(
        &format!("lappend build, {} elements", 4 * N),
        format!("{:.0} ns", ab.a_ns),
    );
    bench::row(
        "growth at 4x the elements",
        format!("{growth:.2}x (linear 4x, quadratic 16x, gate <={MAX_GROWTH}x)"),
    );
    bench::row(
        "mix (lappend, lsort, arithmetic)",
        format!("{mix_ns:.0} ns"),
    );

    let out = format!(
        "{{\n  \"experiment\": \"e21_value_reps\",\n  \
         \"n\": {N},\n  \
         \"lappend_n_ns\": {:.1},\n  \
         \"lappend_4n_ns\": {:.1},\n  \
         \"growth_ratio\": {growth:.2},\n  \
         \"growth_gate_max\": {MAX_GROWTH:.1},\n  \
         \"mix_ns_per_iter\": {mix_ns:.1}\n}}\n",
        ab.b_ns, ab.a_ns
    );
    let path = workspace_root().join("BENCH_e21.json");
    std::fs::write(&path, out).expect("write BENCH_e21.json");
    println!("  wrote {}", path.display());

    assert!(
        growth <= MAX_GROWTH,
        "acceptance: lappend build at 4N must take <= {MAX_GROWTH}x the time at N, \
         got {growth:.2}x"
    );
}
