//! E19 — the parse-once eval cache.
//!
//! The paper's limitations section concedes that Tcl 6.x is slow because
//! every piece of script is re-parsed every time it runs. This experiment
//! measures what the compilation cache buys back on two workloads:
//!
//! * **loop-heavy** — the E18 prime-factorisation proc (`for` + `while` +
//!   `expr` + `linsert`), dominated by loop bodies evaluated thousands of
//!   times;
//! * **proc-heavy** — a small proc called many times from a `for` loop,
//!   dominated by proc-body evaluation.
//!
//! Each workload runs once with the cache disabled (`interp cachelimit 0`
//! — every run compiles afresh and keeps nothing, tree-walking the
//! result: the Tcl 6.x re-parse-everything baseline) and once with the
//! default cache, on the **same interpreter code**. Results go to stdout
//! and to `BENCH_e19.json` at the workspace root for machines to read.

use std::time::Duration;

use bench::{criterion_group, criterion_main, measure_ab, workspace_root, Criterion};
use wafe_tcl::Interp;

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

/// The loop-heavy E18 workload: factor a semiprime, ~3600 iterations of
/// the outer `for` with an `expr` guard each time.
fn loop_heavy(i: &mut Interp) -> String {
    i.eval("factor 3599").unwrap().to_string()
}

const SUMPROC_TCL: &str = "proc addup {a b} {return [expr {$a + $b}]}";

/// The proc-call-heavy workload: 500 calls of a two-argument proc.
fn proc_heavy(i: &mut Interp) -> String {
    i.eval("set s 0; for {set k 0} {$k < 500} {incr k} {set s [addup $s $k]}; set s")
        .unwrap()
        .to_string()
}

fn interp_with(cache_limit: usize) -> Interp {
    let mut i = Interp::new();
    i.set_cache_limit(cache_limit);
    i.eval(FACTOR_TCL).unwrap();
    i.eval(SUMPROC_TCL).unwrap();
    i
}

struct Measured {
    name: &'static str,
    cold_ns: f64,
    cached_ns: f64,
    /// Median of per-round cold/cached ratios — the number the ci.sh
    /// no-regression gate reads. The rounds interleave both engines,
    /// so machine-wide drift cancels instead of skewing whichever
    /// engine ran while the machine was busy.
    speedup: f64,
}

fn measure(name: &'static str, workload: fn(&mut Interp) -> String) -> Measured {
    // Same-result sanity check: the cache must be invisible.
    let mut cold_i = interp_with(0);
    let mut warm_i = interp_with(wafe_tcl::interp::DEFAULT_CACHE_LIMIT);
    assert_eq!(workload(&mut cold_i), workload(&mut warm_i));

    let stats = measure_ab(
        Duration::from_millis(200),
        15,
        Duration::from_millis(2),
        || {
            std::hint::black_box(workload(&mut cold_i).len());
        },
        || {
            std::hint::black_box(workload(&mut warm_i).len());
        },
    );
    Measured {
        name,
        cold_ns: stats.a_ns,
        cached_ns: stats.b_ns,
        speedup: stats.ratio,
    }
}

fn write_json(results: &[Measured]) {
    let mut out = String::from("{\n  \"experiment\": \"e19_eval_cache\",\n  \"workloads\": [\n");
    for (k, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"cold_ns_per_iter\": {:.1}, \"cached_ns_per_iter\": {:.1}, \"speedup\": {:.2}}}{}\n",
            m.name,
            m.cold_ns,
            m.cached_ns,
            m.speedup,
            if k + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = workspace_root().join("BENCH_e19.json");
    std::fs::write(&path, out).expect("write BENCH_e19.json");
    println!("  wrote {}", path.display());
}

fn bench(c: &mut Criterion) {
    bench::banner(
        "E19",
        "parse-once eval cache vs Tcl 6.x re-parse-everything",
    );
    let results = [
        measure("loop_heavy_factor", loop_heavy),
        measure("proc_heavy_calls", proc_heavy),
    ];
    for m in &results {
        bench::row(
            &format!("{} cold (cachelimit 0)", m.name),
            format!("{:.0} ns/iter", m.cold_ns),
        );
        bench::row(
            &format!("{} cached", m.name),
            format!("{:.0} ns/iter", m.cached_ns),
        );
        bench::row(&format!("{} speedup", m.name), format!("{:.1}x", m.speedup));
    }
    write_json(&results);
    assert!(
        results[0].speedup >= 5.0,
        "acceptance: >=5x on the loop-heavy workload, got {:.2}x",
        results[0].speedup
    );

    // Keep a criterion-style group so E19 reports like the others.
    let mut group = c.benchmark_group("e19_eval_cache");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(1000));
    group.sample_size(11);
    group.bench_function("factor_3599_cached", |b| {
        let mut i = interp_with(wafe_tcl::interp::DEFAULT_CACHE_LIMIT);
        b.iter(|| loop_heavy(&mut i));
    });
    group.bench_function("factor_3599_cold", |b| {
        let mut i = interp_with(0);
        b.iter(|| loop_heavy(&mut i));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
