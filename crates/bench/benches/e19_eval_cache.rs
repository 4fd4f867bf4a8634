//! E19 — the parse-once eval cache: a script is parsed once per run.
//!
//! The paper's limitations section concedes that Tcl 6.x is slow because
//! every piece of script is re-parsed every time it runs. With parse-once
//! compilation a proc body, loop body or guard is lexed once, and every
//! later run only substitutes, so the *length* of a body's text must not
//! show in the cost of running it. Two workloads:
//!
//! * **loop-heavy** — the E18 prime-factorisation proc (`for` + `while` +
//!   `expr` + `linsert`), dominated by loop bodies evaluated thousands of
//!   times;
//! * **proc-heavy** — a small proc called many times from a `for` loop,
//!   dominated by proc-body evaluation.
//!
//! Each runs plain and padded: [`PAD_LINES`] `#` comment lines (~2.4 KiB)
//! at the top of every proc and loop body. A re-parse on every run would
//! lex the padding on every iteration and call: the interpreter's former
//! compile-every-run mode (the Tcl 6.x cost) read 4.2-4.5× loop-heavy and
//! 1.9-2.8× proc-heavy here;
//! parsed once, the comments cost nothing after the first run. The check
//! is the median per-round padded/plain ratio, both sides interleaved in
//! one run, and must stay at most [`MAX_PADDED_RATIO`] on each workload.
//! Results go to stdout and to `BENCH_e19.json` at the workspace root.

use std::time::Duration;

use bench::{measure_ab, workspace_root};
use wafe_tcl::Interp;

/// Comment lines padded into every proc and loop body.
const PAD_LINES: usize = 30;

/// The gate: a body's comment text must not cost a re-parse per run.
const MAX_PADDED_RATIO: f64 = 1.25;

/// The E18 factoriser; `{pad}` marks where each body's comments go.
const FACTOR_TCL: &str = "\
proc factor {n} {{pad}
    set result {}
    for {set d 2} {$d <= $n} {incr d} {{pad}
        while {$n % $d == 0} {{pad}
            set result [linsert $result 0 $d]
            set n [expr {$n / $d}]
        }
    }
    return [join $result *]
}";

/// The loop-heavy E18 workload: factor a semiprime, ~3600 iterations of
/// the outer `for` with an `expr` guard each time.
const LOOP_HEAVY: &str = "factor 3599";

const SUMPROC_TCL: &str = "proc addup {a b} {{pad}\nreturn [expr {$a + $b}]}";

/// The proc-call-heavy workload: 500 calls of a two-argument proc.
const PROC_HEAVY: &str =
    "set s 0; for {set k 0} {$k < 500} {incr k} {{pad}\nset s [addup $s $k]}; set s";

/// `PAD_LINES` comment lines of 80 bytes each.
fn padding() -> String {
    (0..PAD_LINES)
        .map(|k| format!("\n    # {k:02} {}", "-".repeat(71)))
        .collect()
}

/// An interpreter holding both procs, their bodies padded with `pad`.
fn interp_with(pad: &str) -> Interp {
    let mut i = Interp::new();
    i.eval(&FACTOR_TCL.replace("{pad}", pad)).unwrap();
    i.eval(&SUMPROC_TCL.replace("{pad}", pad)).unwrap();
    i
}

struct Measured {
    name: &'static str,
    plain_ns: f64,
    padded_ns: f64,
    /// Median of per-round padded/plain ratios — the number the bench
    /// asserts and the ci.sh gate reads.
    ratio: f64,
}

fn measure(name: &'static str, driver: &str) -> Measured {
    let pad = padding();
    let (mut plain, mut padded) = (interp_with(""), interp_with(&pad));
    let plain_line = driver.replace("{pad}", "");
    let padded_line = driver.replace("{pad}", &pad);
    // The padding is only comments: both sides compute the same result.
    assert_eq!(
        plain.eval(&plain_line).unwrap().to_string(),
        padded.eval(&padded_line).unwrap().to_string()
    );
    let stats = measure_ab(
        Duration::from_millis(200),
        21,
        Duration::from_millis(5),
        || {
            std::hint::black_box(padded.eval(&padded_line).unwrap());
        },
        || {
            std::hint::black_box(plain.eval(&plain_line).unwrap());
        },
    );
    Measured {
        name,
        plain_ns: stats.b_ns,
        padded_ns: stats.a_ns,
        ratio: stats.ratio,
    }
}

fn write_json(results: &[Measured], pad_bytes: usize) {
    let mut out = format!(
        "{{\n  \"experiment\": \"e19_eval_cache\",\n  \"pad_bytes_per_body\": {pad_bytes},\n  \
         \"padded_ratio_gate_max\": {MAX_PADDED_RATIO:.2},\n  \"workloads\": [\n"
    );
    for (k, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"plain_ns_per_iter\": {:.1}, \"padded_ns_per_iter\": {:.1}, \"padded_ratio\": {:.2}}}{}\n",
            m.name,
            m.plain_ns,
            m.padded_ns,
            m.ratio,
            if k + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = workspace_root().join("BENCH_e19.json");
    std::fs::write(&path, out).expect("write BENCH_e19.json");
    println!("  wrote {}", path.display());
}

fn main() {
    bench::banner(
        "E19",
        "parse-once: comment-padded bodies cost no more per run",
    );
    let results = [
        measure("loop_heavy_factor", LOOP_HEAVY),
        measure("proc_heavy_calls", PROC_HEAVY),
    ];
    let pad_bytes = padding().len();
    for m in &results {
        bench::row(
            &format!("{} plain", m.name),
            format!("{:.0} ns/iter", m.plain_ns),
        );
        bench::row(
            &format!("{} padded (+{pad_bytes} B per body)", m.name),
            format!("{:.0} ns/iter", m.padded_ns),
        );
        bench::row(
            &format!("{} padded/plain", m.name),
            format!("{:.2}x (gate <={MAX_PADDED_RATIO}x)", m.ratio),
        );
    }
    write_json(&results, pad_bytes);
    for m in &results {
        assert!(
            m.ratio <= MAX_PADDED_RATIO,
            "acceptance: {} padded/plain must be <= {MAX_PADDED_RATIO}x, got {:.2}x",
            m.name,
            m.ratio
        );
    }
}
