//! E20 — what the telemetry layer costs.
//!
//! Counters are always on: a count is one slot increment in the dense
//! metric table. What the enabled flag still gates — histogram samples,
//! with their clock reads, and the journal — costs one flag load while
//! off. This experiment measures both on the E19 loop-heavy workload
//! (`factor 3599` — the divisor loop shrinks `n` as it factors, so one
//! call is a few hundred instrumented evals and command dispatches):
//!
//! * **disabled** — the default: counters count, histograms are off;
//! * **enabled** — every eval and dispatch also timed into a histogram.
//!
//! The enabled overhead is a direct A/B within one binary. The disabled
//! and always-on costs cannot be measured that way — an uninstrumented
//! baseline would need a different build, and cross-binary deltas on a
//! 30µs workload are dominated by codegen and scheduler noise (observed
//! up to ±25% between bench binaries running *identical* interpreter
//! code). They are instead computed from first principles within this
//! binary: the number of sites executed per iteration (read from the
//! store's own counters) times the measured per-site cost, net of
//! timing-loop overhead. The raw cross-binary delta against
//! `BENCH_e19.json` is reported alongside for reference. Results go to
//! `BENCH_e20.json`.

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

fn loop_heavy(i: &mut Interp) -> String {
    i.eval("factor 3599").unwrap().to_string()
}

fn interp(enabled: bool) -> Interp {
    let mut i = Interp::new();
    if enabled {
        let t = Telemetry::new();
        t.set_enabled(true);
        i.set_telemetry(t);
    }
    i.eval(FACTOR_TCL).unwrap();
    i
}

/// Median ns/iter; best of two passes to shave scheduler noise.
fn measure(i: &mut Interp) -> f64 {
    let warm_up = Duration::from_millis(200);
    let budget = Duration::from_millis(1200);
    let a = measure_median(warm_up, budget, 11, || loop_heavy(i));
    let b = measure_median(warm_up, budget, 11, || loop_heavy(i));
    a.min(b)
}

/// Flag-gated sites executed by one `factor 3599`: evals plus command
/// dispatches, each a timer start and a histogram sample while enabled.
fn sites_per_iter() -> u64 {
    let mut i = interp(true);
    let sites = |i: &Interp| i.metric(Metric::TclEvals) + i.metric(Metric::TclDispatches);
    let before = sites(&i);
    loop_heavy(&mut i);
    sites(&i) - before
}

/// Always-on counter updates made by one `factor 3599` with telemetry
/// disabled: one per unit of every counter, except the instruction
/// counter, which takes one add per bytecode run (a hit or a compile).
fn counts_per_iter() -> u64 {
    let mut i = interp(false);
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

/// `cached_ns_per_iter` of the loop-heavy workload from BENCH_e19.json,
/// if a previous E19 run left one behind.
fn e19_reference() -> Option<f64> {
    let text = std::fs::read_to_string(workspace_root().join("BENCH_e19.json")).ok()?;
    let at = text.find("loop_heavy_factor")?;
    let rest = &text[at..];
    let key = "\"cached_ns_per_iter\": ";
    let start = rest.find(key)? + key.len();
    let end = rest[start..].find([',', '}'])? + start;
    rest[start..end].trim().parse().ok()
}

fn bench(c: &mut Criterion) {
    bench::banner("E20", "telemetry overhead on the E19 loop-heavy workload");

    let mut disabled_i = interp(false);
    let mut enabled_i = interp(true);
    // Telemetry must be invisible to results.
    assert_eq!(loop_heavy(&mut disabled_i), loop_heavy(&mut enabled_i));

    let disabled_ns = measure(&mut disabled_i);
    let enabled_ns = measure(&mut enabled_i);
    let enabled_pct = (enabled_ns / disabled_ns.max(1.0) - 1.0) * 100.0;

    // The enabled run really recorded: one counter bump and one histogram
    // sample per eval, hundreds per factor call.
    let evals = enabled_i.metric(Metric::TclEvals);
    assert!(evals > 10_000, "enabled run recorded only {evals} evals");
    assert!(enabled_i.telemetry().histogram(Metric::TclEval).is_some());

    // Raw primitive costs (ns per call), each timed over batches of
    // BATCH calls: a slot increment is well under the cost of one trip
    // through the timing loop, which would otherwise swamp it. The no-op
    // batch carries the loop's own cost; the per-site costs are what
    // remains. `black_box` on the handle keeps the compiler from
    // folding a batch of increments into one add.
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
    let count_ns = per_call(warm, budget, || {
        std::hint::black_box(&off).count(Metric::TclBcHits)
    });
    let flag_off_ns = per_call(warm, budget, || {
        let t = std::hint::black_box(&off);
        t.observe_since(Metric::TclEval, t.timer())
    });
    let observe_on_ns = per_call(warm, budget, || {
        let t = std::hint::black_box(&on);
        t.observe_since(Metric::TclEval, t.timer())
    });
    let site_off_ns = (flag_off_ns - noop_ns).max(0.0);
    let count_site_ns = (count_ns - noop_ns).max(0.0);

    // Disabled overhead on the macro workload: sites × per-site cost.
    let sites = sites_per_iter();
    let disabled_pct = sites as f64 * site_off_ns / disabled_ns.max(1.0) * 100.0;
    // What the always-on counters add to it, the same way.
    let counts = counts_per_iter();
    let always_on_pct = counts as f64 * count_site_ns / disabled_ns.max(1.0) * 100.0;

    // The noisy cross-binary comparison, for reference only.
    let reference_ns = e19_reference().unwrap_or(disabled_ns);
    let cross_binary_pct = (disabled_ns / reference_ns.max(1.0) - 1.0) * 100.0;

    bench::row("telemetry disabled", format!("{disabled_ns:.0} ns/iter"));
    bench::row("telemetry enabled", format!("{enabled_ns:.0} ns/iter"));
    bench::row("enabled overhead", format!("{enabled_pct:+.1}%"));
    bench::row("flag-gated sites / iter", sites);
    bench::row("disabled site cost", format!("{site_off_ns:.2} ns"));
    bench::row("disabled overhead", format!("{disabled_pct:+.2}%"));
    bench::row("always-on counter updates / iter", counts);
    bench::row("always-on count cost", format!("{count_site_ns:.2} ns"));
    bench::row(
        "always-on counter overhead",
        format!("{always_on_pct:+.2}%"),
    );
    bench::row(
        "vs E19 binary (cross-binary noise)",
        format!("{cross_binary_pct:+.1}%"),
    );
    bench::row("no-op (timing loop)", format!("{noop_ns:.2} ns"));
    bench::row("count() (always on)", format!("{count_ns:.2} ns"));
    bench::row("timer()+observe disabled", format!("{flag_off_ns:.2} ns"));
    bench::row("timer()+observe enabled", format!("{observe_on_ns:.1} ns"));

    let out = format!(
        "{{\n  \"experiment\": \"e20_telemetry_overhead\",\n  \"workload\": \"e19_loop_heavy_factor\",\n  \
         \"disabled_ns_per_iter\": {disabled_ns:.1},\n  \
         \"enabled_ns_per_iter\": {enabled_ns:.1},\n  \
         \"enabled_overhead_pct\": {enabled_pct:.2},\n  \
         \"instrumentation_sites_per_iter\": {sites},\n  \
         \"disabled_site_ns\": {site_off_ns:.3},\n  \
         \"disabled_overhead_pct\": {disabled_pct:.2},\n  \
         \"counter_updates_per_iter\": {counts},\n  \
         \"count_site_ns\": {count_site_ns:.3},\n  \
         \"always_on_overhead_pct\": {always_on_pct:.2},\n  \
         \"e19_reference_ns_per_iter\": {reference_ns:.1},\n  \
         \"cross_binary_delta_pct\": {cross_binary_pct:.2},\n  \
         \"noop_ns\": {noop_ns:.3},\n  \
         \"count_ns\": {count_ns:.3},\n  \
         \"observe_disabled_ns\": {flag_off_ns:.3},\n  \
         \"observe_enabled_ns\": {observe_on_ns:.2}\n}}\n"
    );
    let path = workspace_root().join("BENCH_e20.json");
    std::fs::write(&path, out).expect("write BENCH_e20.json");
    println!("  wrote {}", path.display());

    assert!(
        disabled_pct <= 5.0,
        "acceptance: disabled telemetry must cost <=5% on the E19 workload, got {disabled_pct:+.2}%"
    );

    let mut group = c.benchmark_group("e20_telemetry_overhead");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(1000));
    group.sample_size(11);
    group.bench_function("factor_3599_telemetry_disabled", |b| {
        let mut i = interp(false);
        b.iter(|| loop_heavy(&mut i));
    });
    group.bench_function("factor_3599_telemetry_enabled", |b| {
        let mut i = interp(true);
        b.iter(|| loop_heavy(&mut i));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
