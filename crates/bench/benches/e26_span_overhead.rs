//! E26 — what the observability plane costs: spans, the profiler and
//! the telemetry store.
//!
//! Span begin/end checks run through every eval, proc call and bytecode
//! run, a profiler check through every VM instruction, and the
//! telemetry store's flag through every timed eval and dispatch. The
//! claim is near-free when disabled: each span and store site is one
//! flag load and each instruction one branch on a hoisted local.
//! Counters are always on: a count is one slot increment in the dense
//! metric table. This experiment checks both on the E19 loop-heavy
//! workload (`factor 3599`):
//!
//! * **all off** — the default: checks compiled in, counters counting,
//!   nothing else recording;
//! * **spans on** — every eval/proc/bc scope recorded into the ring,
//!   detail closures run;
//! * **profile on** — per-proc timing frames plus a hit counter bump
//!   per executed instruction;
//! * **both on** — spans and profiler;
//! * **store on** — the telemetry store enabled: every eval and
//!   dispatch also timed into a histogram, events into the journal.
//!
//! The configurations run in interleaved rounds, and each enabled
//! overhead is the median of per-round ratios to that round's all-off
//! figure, so machine-wide drift hits every configuration alike. The
//! disabled and always-on costs cannot be measured that way: an
//! uninstrumented baseline would need a different build, and
//! cross-binary deltas on a 10 µs workload drown in codegen noise. They
//! are computed from first principles inside this binary: the sites
//! executed per iteration (read from the interpreter's own counters)
//! times the measured per-site cost, net of the timing loop. Results go
//! to `BENCH_e26.json`.

use std::cell::Cell;
use std::time::Duration;

use bench::{criterion_group, criterion_main, measure_median, workspace_root, Criterion};
use wafe_tcl::{Interp, Metric, Telemetry};

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

/// Interleaved rounds of every configuration.
const ROUNDS: usize = 7;

fn loop_heavy(i: &mut Interp) -> String {
    i.eval("factor 3599").unwrap().to_string()
}

/// A configuration of the observability plane.
#[derive(Clone, Copy)]
struct Config {
    name: &'static str,
    spans: bool,
    profile: bool,
    store: bool,
}

const CONFIGS: [Config; 5] = [
    Config {
        name: "all off",
        spans: false,
        profile: false,
        store: false,
    },
    Config {
        name: "spans on",
        spans: true,
        profile: false,
        store: false,
    },
    Config {
        name: "profile on",
        spans: false,
        profile: true,
        store: false,
    },
    Config {
        name: "both on",
        spans: true,
        profile: true,
        store: false,
    },
    Config {
        name: "store on",
        spans: false,
        profile: false,
        store: true,
    },
];

fn interp(c: Config) -> Interp {
    let mut i = Interp::new();
    if c.spans || c.store {
        let t = Telemetry::new();
        t.set_spans_enabled(c.spans);
        t.set_enabled(c.store);
        i.set_telemetry(t);
    }
    i.eval(FACTOR_TCL).unwrap();
    if c.profile {
        i.eval("interp profile on").unwrap();
    }
    i
}

/// One round's median ns/iter.
fn measure(i: &mut Interp) -> f64 {
    measure_median(
        Duration::from_millis(50),
        Duration::from_millis(250),
        11,
        || loop_heavy(i),
    )
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    v[v.len() / 2]
}

/// Span sites executed by one `factor 3599`: every tcl.eval / tcl.proc
/// / tcl.bc scope, counted by the span ring's own total.
fn span_sites_per_iter() -> u64 {
    let mut i = interp(CONFIGS[1]);
    let before = i.telemetry().span_stats().total;
    loop_heavy(&mut i);
    i.telemetry().span_stats().total - before
}

/// VM instructions executed by one `factor 3599` — the per-instruction
/// profiler branch count — summed from the profiler's own opcode hits.
fn instr_sites_per_iter() -> u64 {
    let mut i = interp(CONFIGS[0]);
    i.eval("interp profile on").unwrap();
    loop_heavy(&mut i);
    i.eval("interp profile off").unwrap();
    let report = i.eval("interp profile report").unwrap().to_string();
    report
        .lines()
        .filter(|l| l.starts_with("op "))
        .map(|l| l.split_whitespace().nth(3).unwrap().parse::<u64>().unwrap())
        .sum()
}

/// Store-gated sites executed by one `factor 3599`: evals plus command
/// dispatches, each a timer start and a histogram sample while enabled.
fn store_sites_per_iter() -> u64 {
    let mut i = interp(CONFIGS[4]);
    let sites = |i: &Interp| i.metric(Metric::TclEvals) + i.metric(Metric::TclDispatches);
    let before = sites(&i);
    loop_heavy(&mut i);
    sites(&i) - before
}

/// Always-on counter updates made by one `factor 3599` with everything
/// off: one per unit of every counter, except the instruction counter,
/// which takes one add per bytecode run (a hit or a compile).
fn counts_per_iter() -> u64 {
    let mut i = interp(CONFIGS[0]);
    let updates = |i: &Interp| -> u64 {
        let counters = Metric::ALL
            .iter()
            .filter(|m| m.kind() == wafe_trace::Kind::Counter && **m != Metric::TclBcInstructions);
        counters.map(|&m| i.metric(m)).sum()
    };
    let before = updates(&i);
    loop_heavy(&mut i);
    updates(&i) - before
}

fn bench(c: &mut Criterion) {
    bench::banner(
        "E26",
        "spans, profiler and telemetry store overhead on the E19 loop-heavy workload",
    );

    let mut interps: Vec<Interp> = CONFIGS.iter().map(|&c| interp(c)).collect();
    // Observability must be invisible to results.
    let want = loop_heavy(&mut interps[0]);
    for i in &mut interps[1..] {
        assert_eq!(want, loop_heavy(i));
    }

    let mut ns = vec![Vec::new(); CONFIGS.len()];
    let mut pct = vec![Vec::new(); CONFIGS.len()];
    for _ in 0..ROUNDS {
        let round: Vec<f64> = interps.iter_mut().map(measure).collect();
        for (k, &t) in round.iter().enumerate() {
            ns[k].push(t);
            pct[k].push((t / round[0].max(1.0) - 1.0) * 100.0);
        }
    }
    let ns: Vec<f64> = ns.into_iter().map(median).collect();
    let pct: Vec<f64> = pct.into_iter().map(median).collect();
    let off_ns = ns[0];

    // The enabled runs really recorded.
    assert!(interps[1].telemetry().span_stats().total > 1_000);
    let report = interps[3]
        .eval("interp profile report")
        .unwrap()
        .to_string();
    assert!(report.contains("proc factor calls"), "{report}");
    let evals = interps[4].metric(Metric::TclEvals);
    assert!(evals > 1_000, "store run recorded only {evals} evals");
    assert!(interps[4].telemetry().histogram(Metric::TclEval).is_some());

    // Raw primitive costs (ns per call), each timed over batches of
    // BATCH calls: a slot increment is well under the cost of one trip
    // through the timing loop, which would otherwise swamp it. The no-op
    // batch carries the loop's own cost; the per-site costs are what
    // remains. `black_box` on the handle keeps the compiler from
    // folding a batch of calls into one.
    const BATCH: u32 = 1000;
    let off = Telemetry::new();
    let on = Telemetry::new();
    on.set_enabled(true);
    let warm = Duration::from_millis(100);
    let budget = Duration::from_millis(400);
    // Generic, so each batch loop is monomorphised and `f` inlined.
    fn per_call(warm: Duration, budget: Duration, mut f: impl FnMut()) -> f64 {
        measure_median(warm, budget, 11, || {
            for _ in 0..BATCH {
                f();
            }
        }) / f64::from(BATCH)
    }
    let noop_ns = per_call(warm, budget, || {
        std::hint::black_box(&off);
    });
    let span_off_ns = per_call(warm, budget, || {
        std::hint::black_box(std::hint::black_box(&off).span_begin("bench.span", String::new));
    }) - noop_ns;
    let flag = Cell::new(false);
    let flag_ns = per_call(warm, budget, || {
        std::hint::black_box(std::hint::black_box(&flag).get());
    }) - noop_ns;
    let store_off_ns = per_call(warm, budget, || {
        let t = std::hint::black_box(&off);
        t.observe_since(Metric::TclEval, t.timer())
    }) - noop_ns;
    let observe_on_ns = per_call(warm, budget, || {
        let t = std::hint::black_box(&on);
        t.observe_since(Metric::TclEval, t.timer())
    }) - noop_ns;
    let count_ns = per_call(warm, budget, || {
        std::hint::black_box(&off).count(Metric::TclBcHits)
    }) - noop_ns;
    let [span_off_ns, flag_ns, store_off_ns, count_ns] =
        [span_off_ns, flag_ns, store_off_ns, count_ns].map(|x| x.max(0.0));

    // Disabled overhead on the macro workload, from first principles:
    // one disabled span_begin per span site, one flag branch per
    // executed instruction (the hoisted profiler check).
    let span_sites = span_sites_per_iter();
    let instr_sites = instr_sites_per_iter();
    let disabled_pct =
        (span_sites as f64 * span_off_ns + instr_sites as f64 * flag_ns) / off_ns.max(1.0) * 100.0;
    // The disabled store's flag-gated sites, and the always-on counters,
    // the same way.
    let store_sites = store_sites_per_iter();
    let store_disabled_pct = store_sites as f64 * store_off_ns / off_ns.max(1.0) * 100.0;
    let counts = counts_per_iter();
    let always_on_pct = counts as f64 * count_ns / off_ns.max(1.0) * 100.0;

    for (k, c) in CONFIGS.iter().enumerate() {
        if k == 0 {
            bench::row(c.name, format!("{:.0} ns/iter", ns[k]));
        } else {
            bench::row(c.name, format!("{:.0} ns/iter ({:+.1}%)", ns[k], pct[k]));
        }
    }
    bench::row("span sites / iter", span_sites);
    bench::row("instructions / iter", instr_sites);
    bench::row("store sites / iter", store_sites);
    bench::row("counter updates / iter", counts);
    bench::row("span_begin() disabled", format!("{span_off_ns:.2} ns"));
    bench::row("flag branch", format!("{flag_ns:.2} ns"));
    bench::row("timer()+observe disabled", format!("{store_off_ns:.2} ns"));
    bench::row("timer()+observe enabled", format!("{observe_on_ns:.1} ns"));
    bench::row("count() (always on)", format!("{count_ns:.2} ns"));
    bench::row(
        "disabled overhead (spans + profiler)",
        format!("{disabled_pct:+.2}%"),
    );
    bench::row(
        "disabled overhead (store)",
        format!("{store_disabled_pct:+.2}%"),
    );
    bench::row(
        "always-on counter overhead",
        format!("{always_on_pct:+.2}%"),
    );

    let out = format!(
        "{{\n  \"experiment\": \"e26_span_overhead\",\n  \"workload\": \"e19_loop_heavy_factor\",\n  \
         \"rounds\": {ROUNDS},\n  \
         \"all_off_ns_per_iter\": {off_ns:.1},\n  \
         \"spans_ns_per_iter\": {:.1},\n  \
         \"profile_ns_per_iter\": {:.1},\n  \
         \"both_ns_per_iter\": {:.1},\n  \
         \"store_ns_per_iter\": {:.1},\n  \
         \"spans_overhead_pct\": {:.2},\n  \
         \"profile_overhead_pct\": {:.2},\n  \
         \"both_overhead_pct\": {:.2},\n  \
         \"store_overhead_pct\": {:.2},\n  \
         \"span_sites_per_iter\": {span_sites},\n  \
         \"instr_sites_per_iter\": {instr_sites},\n  \
         \"store_sites_per_iter\": {store_sites},\n  \
         \"counter_updates_per_iter\": {counts},\n  \
         \"span_begin_disabled_ns\": {span_off_ns:.3},\n  \
         \"flag_branch_ns\": {flag_ns:.3},\n  \
         \"observe_disabled_ns\": {store_off_ns:.3},\n  \
         \"observe_enabled_ns\": {observe_on_ns:.2},\n  \
         \"count_ns\": {count_ns:.3},\n  \
         \"store_disabled_overhead_pct\": {store_disabled_pct:.2},\n  \
         \"always_on_overhead_pct\": {always_on_pct:.2},\n  \
         \"disabled_overhead_pct\": {disabled_pct:.2}\n}}\n",
        ns[1], ns[2], ns[3], ns[4], pct[1], pct[2], pct[3], pct[4]
    );
    let path = workspace_root().join("BENCH_e26.json");
    std::fs::write(&path, out).expect("write BENCH_e26.json");
    println!("  wrote {}", path.display());

    assert!(
        disabled_pct <= 2.0,
        "acceptance: disabled spans+profiler must cost <=2% on the E19 workload, got {disabled_pct:+.2}%"
    );

    let mut group = c.benchmark_group("e26_span_overhead");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(1000));
    group.sample_size(11);
    group.bench_function("factor_3599_observability_off", |b| {
        let mut i = interp(CONFIGS[0]);
        b.iter(|| loop_heavy(&mut i));
    });
    group.bench_function("factor_3599_spans_and_profile_on", |b| {
        let mut i = interp(CONFIGS[3]);
        b.iter(|| loop_heavy(&mut i));
    });
    group.bench_function("factor_3599_store_on", |b| {
        let mut i = interp(CONFIGS[4]);
        b.iter(|| loop_heavy(&mut i));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
