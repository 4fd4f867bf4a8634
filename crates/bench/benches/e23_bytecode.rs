//! E23 — the bytecode VM vs the cached tree-walker.
//!
//! PR 1 removed the re-parse tax (E19); PR 4 removed the re-shimmer tax
//! (E21). What remains on the hot path is the tree-walk itself: token
//! dispatch, argv assembly and command lookup for every `set`, `incr`,
//! `expr` and loop-control command, every iteration. This experiment
//! measures what compiling scripts to flat bytecode buys on top of the
//! warm caches, on the **same interpreter binary** — the baseline flips
//! `Interp::set_bc_enabled(false)`, everything else identical:
//!
//! * **loop_heavy_factor** — the E19/E18 prime-factorisation proc
//!   (`for` + `while` + `expr` + `linsert`), dominated by loop-body
//!   dispatch;
//! * **tight_arith** — a `while`/`incr`/`expr` counting loop, the pure
//!   special-form fast path with no generic command in the body;
//! * **list_mix** — the E21 acceptance workload (lappend growth, an
//!   integer lsort, a `foreach`/`incr` pass), where generic commands
//!   dominate and the VM mostly saves per-word token dispatch;
//! * **one_shot_tight_arith** — `tight_arith` evaluated once on a fresh
//!   interpreter per iteration. A script's first run tree-walks unless
//!   it loops; this row pins the loop clause of that rule, since a
//!   tree-walked `while` enters the VM once per iteration for its body,
//!   which costs nearly as much as tree-walking it.
//!
//! Results go to stdout and `BENCH_e23.json` at the workspace root.
//! Acceptance: >=3x on the loop-heavy and the one-shot workloads,
//! byte-identical results on every workload.

use std::time::Duration;

use bench::{criterion_group, criterion_main, measure_ab, workspace_root, Criterion};
use wafe_tcl::{Interp, Metric};

const FACTOR_TCL: &str = "\
proc factor {n} {\n\
    set result {}\n\
    for {set d 2} {$d <= $n} {incr d} {\n\
        while {$n % $d == 0} {\n\
            set result [linsert $result 0 $d]\n\
            set n [expr {$n / $d}]\n\
        }\n\
    }\n\
    return [join $result *]\n\
}";

const LOOP_HEAVY_TCL: &str = "factor 3599";

const TIGHT_ARITH_TCL: &str = "\
set sum 0\n\
set i 0\n\
while {$i < 1000} {\n\
    incr i\n\
    set sum [expr {$sum + $i * 3 % 7}]\n\
}\n\
set sum";

const LIST_MIX_TCL: &str = "\
set l {}\n\
for {set k 0} {$k < 300} {incr k} {lappend l [expr {($k * 7919) % 1000}]}\n\
set sorted [lsort -integer $l]\n\
set sum 0\n\
foreach x $sorted {incr sum $x}\n\
set sum";

fn fresh_interp(bc: bool) -> Interp {
    let mut i = Interp::new();
    i.set_bc_enabled(bc);
    i.eval(FACTOR_TCL).unwrap();
    i
}

struct Measured {
    name: &'static str,
    tree_ns: f64,
    vm_ns: f64,
    /// Median of per-round tree/VM ratios — the gated number. More
    /// robust than the ratio of the two medians: the rounds interleave
    /// both engines, so machine-wide slowdowns hit both sides of each
    /// round equally instead of skewing whichever engine ran second.
    speedup: f64,
}

fn measure(name: &'static str, script: &'static str) -> Measured {
    // Byte-identity: the VM must be observationally invisible.
    let mut tree_i = fresh_interp(false);
    let mut vm_i = fresh_interp(true);
    let tree_out = tree_i.eval(script).unwrap().to_string();
    let vm_out = vm_i.eval(script).unwrap().to_string();
    assert_eq!(tree_out, vm_out, "VM output diverged on {name}");
    assert!(
        vm_i.metric(Metric::TclBcCompiles) > 0,
        "the VM must actually engage on {name}"
    );
    compare(
        name,
        || {
            std::hint::black_box(tree_i.eval(script).unwrap().as_str().len());
        },
        || {
            std::hint::black_box(vm_i.eval(script).unwrap().as_str().len());
        },
    )
}

/// Evaluates `script` once on a fresh interpreter per iteration, so no
/// run is a second run.
fn measure_one_shot(name: &'static str, script: &'static str) -> Measured {
    let one_shot = |bc: bool| {
        let mut i = Interp::new();
        i.set_bc_enabled(bc);
        let out = i.eval(script).unwrap().to_string();
        (out, i.metric(Metric::TclBcCompiles))
    };
    let (tree_out, _) = one_shot(false);
    let (vm_out, compiles) = one_shot(true);
    assert_eq!(tree_out, vm_out, "VM output diverged on {name}");
    assert_eq!(compiles, 1, "a loop line must be lowered on its first run");
    compare(
        name,
        || {
            std::hint::black_box(one_shot(false));
        },
        || {
            std::hint::black_box(one_shot(true));
        },
    )
}

/// Times the tree-walker routine against the VM routine.
fn compare(name: &'static str, tree: impl FnMut(), vm: impl FnMut()) -> Measured {
    let stats = measure_ab(
        Duration::from_millis(200),
        15,
        Duration::from_millis(2),
        tree,
        vm,
    );
    Measured {
        name,
        tree_ns: stats.a_ns,
        vm_ns: stats.b_ns,
        speedup: stats.ratio,
    }
}

fn write_json(results: &[Measured]) {
    let mut out = String::from("{\n  \"experiment\": \"e23_bytecode\",\n  \"workloads\": [\n");
    for (k, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"tree_ns_per_iter\": {:.1}, \"vm_ns_per_iter\": {:.1}, \"speedup\": {:.2}}}{}\n",
            m.name,
            m.tree_ns,
            m.vm_ns,
            m.speedup,
            if k + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = workspace_root().join("BENCH_e23.json");
    std::fs::write(&path, out).expect("write BENCH_e23.json");
    println!("  wrote {}", path.display());
}

fn bench(c: &mut Criterion) {
    bench::banner("E23", "bytecode VM vs cached tree-walker, same binary");
    let results = [
        measure("loop_heavy_factor", LOOP_HEAVY_TCL),
        measure("tight_arith", TIGHT_ARITH_TCL),
        measure("list_mix", LIST_MIX_TCL),
        measure_one_shot("one_shot_tight_arith", TIGHT_ARITH_TCL),
    ];
    for m in &results {
        bench::row(
            &format!("{} tree-walker (bcdisable)", m.name),
            format!("{:.0} ns/iter", m.tree_ns),
        );
        bench::row(
            &format!("{} bytecode VM", m.name),
            format!("{:.0} ns/iter", m.vm_ns),
        );
        bench::row(&format!("{} speedup", m.name), format!("{:.1}x", m.speedup));
    }
    write_json(&results);
    for m in [&results[0], &results[3]] {
        assert!(
            m.speedup >= 3.0,
            "acceptance: >=3x on {}, got {:.2}x",
            m.name,
            m.speedup
        );
    }

    // Keep a criterion-style group so E23 reports like the others.
    let mut group = c.benchmark_group("e23_bytecode");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(1000));
    group.sample_size(11);
    group.bench_function("factor_3599_vm", |b| {
        let mut i = fresh_interp(true);
        b.iter(|| i.eval(LOOP_HEAVY_TCL).unwrap().to_string());
    });
    group.bench_function("factor_3599_tree", |b| {
        let mut i = fresh_interp(false);
        b.iter(|| i.eval(LOOP_HEAVY_TCL).unwrap().to_string());
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
