//! waferd-bench: the repository's end-to-end benchmark.
//!
//! ```text
//! waferd-bench --workload NAME --seed N --seconds S --trace 0|1 --waferd PATH [--out DIR]
//! ```
//!
//! `--trace 0` drives a fresh release `waferd` child process and prints
//! the end-to-end metrics; `--trace 1` hosts the same event loop in this
//! process with a span around every step, replays the seeded stream
//! through the lower layers, and prints the per-layer metrics. The last
//! line of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). See README.md in this directory.

mod client;
mod gen;
mod layers;
mod procfs;
mod server;
mod stats;
mod trace;
mod traced;

use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use client::{Record, Stop, WIRE_BYTES};
use gen::Workload;
use server::Waferd;
use trace::Spans;

const USAGE: &str = "usage: waferd-bench --workload line_rtt|burst_flush|gui_frames|session_cycle \
--seed N --seconds S --trace 0|1 --waferd PATH [--out DIR]";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Length of one chunk of the measured window.
const CHUNK: Duration = Duration::from_millis(100);
/// The percentile over chunks that a timing reports, on its slow side.
/// A chunk runs either at the shared host's contended speed or, while
/// its other tenants idle, up to 1.5x faster, and the share of fast
/// chunks changes from run to run. A median over chunks then lands in
/// either mode; the slower quartile stays in the contended one.
const SLOW_QUARTILE: f64 = 75.0;
/// Session opens and park/restore cycles probed per run on workloads
/// whose ops do not open sessions themselves.
const PROBE_OPENS: usize = 400;
const PROBE_CYCLES: usize = 400;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub waferd: PathBuf,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut waferd) =
        (None, None, None, None, None);
    let mut out = PathBuf::from(".bench_build/waferd-bench");
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            "--waferd" => waferd = Some(PathBuf::from(v)),
            "--out" => out = PathBuf::from(v),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        waferd: waferd.ok_or("--waferd is required")?,
        out,
    })
}

/// Server worker threads: what is left of the machine beside the one
/// load-generator thread.
pub fn workers() -> usize {
    procfs::nproc().saturating_sub(1).max(1)
}

/// The one CPU the load generator and the server share. Every hand-off
/// between them is then a local context switch; across CPUs of a
/// virtual machine it is a cross-CPU wake-up whose latency follows the
/// host's load, which made runs of the same code disagree.
pub fn bench_cpu() -> &'static [usize] {
    &procfs::cpus()[..procfs::cpus().len().min(1)]
}

/// A named metric with its unit.
pub struct Metric(pub &'static str, pub f64, pub &'static str);

/// What one run prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|Metric(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One chunk of the measured window.
struct Chunk {
    ops: std::ops::Range<usize>,
    secs: f64,
    cpu_ns: u64,
    wire: u64,
}

impl Chunk {
    /// ops/s, p50 µs and server CPU µs per op.
    fn figures(&self, rec: &Record) -> [f64; 3] {
        let mut lat: Vec<f64> = rec.ops[self.ops.clone()]
            .iter()
            .map(|(s, e)| (e - s) as f64 / 1e3)
            .collect();
        lat.sort_by(f64::total_cmp);
        let n = lat.len().max(1) as f64;
        [
            lat.len() as f64 / self.secs,
            stats::percentile(&lat, 50.0),
            self.cpu_ns as f64 / 1e3 / n,
        ]
    }
}

/// The median of the p99s of consecutive runs of chunks holding at
/// least 1000 ops each, so every p99 has ten samples beyond it and one
/// slow stretch moves at most one of them.
fn p99_over_windows(rec: &Record, chunks: &[Chunk]) -> f64 {
    let mut p99s = Vec::new();
    let mut lat: Vec<f64> = Vec::new();
    for (i, c) in chunks.iter().enumerate() {
        lat.extend(
            rec.ops[c.ops.clone()]
                .iter()
                .map(|(s, e)| (e - s) as f64 / 1e3),
        );
        let rest: usize = chunks[i + 1..].iter().map(|c| c.ops.len()).sum();
        // A short tail of chunks joins the window before it.
        if lat.len() >= 1000 && (rest >= 1000 || rest == 0) || (rest == 0 && p99s.is_empty()) {
            lat.sort_by(f64::total_cmp);
            p99s.push(stats::percentile(&lat, 99.0));
            lat.clear();
        }
    }
    stats::median(&p99s)
}

/// Latency figures of a record's ops, in µs: (p50, p99, tail, tail value).
pub fn latency(rec: &Record) -> (f64, f64, Option<f64>, f64) {
    let mut lat: Vec<f64> = rec.ops.iter().map(|(s, e)| (e - s) as f64 / 1e3).collect();
    lat.sort_by(f64::total_cmp);
    let tail = stats::tail_percentile(lat.len());
    (
        stats::percentile(&lat, 50.0),
        stats::percentile(&lat, 99.0),
        tail,
        tail.map_or(0.0, |p| stats::percentile(&lat, p)),
    )
}

/// One set-up: spawn, connect, build state, warm up.
fn set_up(args: &Args, sp: &mut Spans) -> Result<(Waferd, Box<dyn client::Driver>), String> {
    let host = Waferd::spawn(&args.waferd, workers())?;
    let mut drv = client::driver(args.workload, args.seed);
    drv.setup(host.addr(), sp)?;
    let mut warm = Record::default();
    drv.run(Stop::Ops(drv.warmup_ops()), &mut warm, sp)?;
    if warm.failed + drv.verify() > 0 {
        return Err("warm-up ops failed".into());
    }
    Ok((host, drv))
}

/// The end-to-end metrics of the untraced run.
///
/// The window is cut into [`CHUNK`]s and each timing is its slower
/// quartile over chunks ([`SLOW_QUARTILE`]). Between
/// chunks (outside their timing) the replies are verified, a slice of
/// the session probe runs and, now and then, another set-up is timed,
/// so those samples too are spread over the whole run. The probe parks
/// and restores a twin of the measured session with the same set-up,
/// since a restored session starts with cold caches. The twin runs no
/// ops: the state they leave depends on the seed, and so, by up to a
/// third on `line_rtt`, does the time to park it.
fn untraced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut sp = Spans::new("client", Instant::now());
    let t = Instant::now();
    let (host, mut drv) = set_up(args, &mut sp)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let mut pauses = client::probe_pauses(args.seed);
    let mut twin = match w {
        Workload::SessionCycle => None,
        _ => {
            let mut twin = client::twin(w, args.seed);
            twin.setup(host.addr(), &mut sp)?;
            Some(twin)
        }
    };

    let pinned = bench_cpu().first().copied();
    let steal0 = [procfs::steal_ticks(None), procfs::steal_ticks(pinned)];
    let nchunks = (args.seconds * 1000 / CHUNK.as_millis() as u64) as u32;
    let setup_every = (nchunks / SETUPS as u32).max(1);
    let t0 = Instant::now();
    let (mut rec, mut chunks, mut rss) = (Record::default(), Vec::new(), Vec::new());
    // Per chunk: the median open, park and restore of the chunk's ops
    // and the probe slice after it.
    let mut session: [Vec<f64>; 3] = Default::default();
    let mut errors = Vec::new();
    for k in 1..=nchunks {
        let marks = |r: &Record| [r.opens_us.len(), r.parks_us.len(), r.restores_us.len()];
        let m0 = marks(&rec);
        let (from, cpu0, wire0) = (
            rec.ops.len(),
            host.cpu_ns(),
            WIRE_BYTES.load(Ordering::Relaxed),
        );
        let tk = Instant::now();
        let run = drv.run(Stop::At(tk + CHUNK), &mut rec, &mut sp);
        chunks.push(Chunk {
            ops: from..rec.ops.len(),
            secs: tk.elapsed().as_secs_f64(),
            cpu_ns: host.cpu_ns() - cpu0,
            wire: WIRE_BYTES.load(Ordering::Relaxed) - wire0,
        });
        rss.push(host.rss_kb() as f64);
        rec.failed += drv.verify();
        if let Err(e) = run {
            errors.push(e);
            break;
        }
        if let Some(twin) = twin.as_mut() {
            let probe = client::probe_sessions(
                twin.as_mut(),
                host.addr(),
                PROBE_OPENS.div_ceil(nchunks as usize),
                PROBE_CYCLES.div_ceil(nchunks as usize),
                &mut pauses,
                &mut rec,
                &mut sp,
            );
            if let Err(e) = probe {
                errors.push(format!("session probe: {e}"));
                rec.failed += 1;
                break;
            }
        }
        let m1 = marks(&rec);
        for (i, v) in [&rec.opens_us, &rec.parks_us, &rec.restores_us]
            .into_iter()
            .enumerate()
        {
            if m1[i] > m0[i] {
                session[i].push(stats::median(&v[m0[i]..m1[i]]));
            }
        }
        if k % setup_every == 0 && setups.len() < SETUPS {
            let t = Instant::now();
            drop(set_up(args, &mut sp)?);
            setups.push(t.elapsed().as_secs_f64());
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let steal = [
        procfs::steal_ticks(None) - steal0[0],
        procfs::steal_ticks(pinned) - steal0[1],
    ];
    drop((drv, twin));
    drop(host);

    let wire: u64 = chunks.iter().map(|c| c.wire).sum();
    let ops = rec.ops.len().max(1) as f64;
    let (_, _, tail, tail_v) = latency(&rec);
    let per_chunk: Vec<[f64; 3]> = chunks.iter().map(|c| c.figures(&rec)).collect();
    let slow =
        |i: usize, p: f64| stats::quantile(&per_chunk.iter().map(|f| f[i]).collect::<Vec<_>>(), p);
    let metrics = vec![
        Metric("ops_per_s", slow(0, 100.0 - SLOW_QUARTILE), "1/s"),
        Metric("op_p50_us", slow(1, SLOW_QUARTILE), "us"),
        Metric("op_p99_us", p99_over_windows(&rec, &chunks), "us"),
        Metric("server_cpu_us_per_op", slow(2, SLOW_QUARTILE), "us"),
        Metric("wire_bytes_per_op", wire as f64 / ops, "bytes"),
        Metric("server_rss_kb", stats::median(&rss), "KiB"),
        Metric(
            "open_p50_us",
            stats::quantile(&session[0], SLOW_QUARTILE),
            "us",
        ),
        Metric(
            "park_p50_us",
            stats::quantile(&session[1], SLOW_QUARTILE),
            "us",
        ),
        Metric(
            "restore_p50_us",
            stats::quantile(&session[2], SLOW_QUARTILE),
            "us",
        ),
        Metric("setup_s", stats::median(&setups), "s"),
    ];
    println!(
        "server: waferd --quiet --workers {}; client: one thread, {}; both pinned to cpu {:?}",
        workers(),
        client::SOCKET_OPTIONS,
        bench_cpu()
    );
    println!(
        "window: {elapsed:.3} s with probes, {} ops in {} chunks of {} ms; steal +{} ticks, \
         +{} on cpu {:?}; setups (s): {setups:.4?}",
        rec.ops.len(),
        chunks.len(),
        CHUNK.as_millis(),
        steal[0],
        steal[1],
        bench_cpu()
    );
    for (i, name) in ["ops/s", "p50 us", "cpu us/op"].iter().enumerate() {
        let v: Vec<f64> = per_chunk.iter().map(|f| f[i]).collect();
        println!("  chunk {name} {}", spread_line(&v));
    }
    report(&rec, tail, tail_v, &metrics);
    for e in &errors {
        println!("error: {e}");
    }
    Ok(Outcome {
        correct: errors.is_empty() && rec.failed == 0,
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
    })
}

/// `p10/p25/p50/p75/p90: a/b/c/d/e` of an unsorted sample.
fn spread_line(values: &[f64]) -> String {
    let q: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0]
        .iter()
        .map(|&p| format!("{:.1}", stats::quantile(values, p)))
        .collect();
    format!("p10/p25/p50/p75/p90: {}", q.join("/"))
}

/// The human-readable lines above the JSON result.
pub fn report(rec: &Record, tail: Option<f64>, tail_v: f64, metrics: &[Metric]) {
    for Metric(name, v, unit) in metrics {
        println!("  {name:<34} {v:>14.3} {unit}");
    }
    let rate = rec.failed as f64 / rec.attempted.max(1) as f64;
    println!(
        "  {:<34} {rate:>14.6} ({} failed / {} attempted)",
        "error_rate", rec.failed, rec.attempted
    );
    let ops_us: Vec<f64> = rec.ops.iter().map(|(s, e)| (e - s) as f64 / 1e3).collect();
    for (name, v) in [
        ("op", &ops_us),
        ("open", &rec.opens_us),
        ("park", &rec.parks_us),
        ("restore", &rec.restores_us),
    ] {
        println!("  {name} us {} over {} samples", spread_line(v), v.len());
    }
    match tail {
        Some(p) => println!(
            "  tail: p{p} = {tail_v:.1} us over {} ops (the highest percentile with >= 10 samples beyond it)",
            rec.ops.len()
        ),
        None => println!("  tail: fewer than 20 ops, no percentile reported"),
    }
    if tail.is_some_and(|p| p < 99.0) {
        println!("  warning: op_p99_us rests on fewer than 10 samples beyond it");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("waferd-bench: {e}\n{USAGE}");
            exit(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_default();
    // Threads and the waferd child inherit the pinning.
    procfs::pin(bench_cpu());
    let steal0 = procfs::steal_ticks(None);
    println!(
        "waferd-bench workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("machine before: {} steal {steal0}", procfs::stamp(&root));
    let result = if args.trace {
        traced::run(&args)
    } else {
        untraced(&args)
    };
    println!(
        "machine after: {} steal {}",
        procfs::stamp(&root),
        procfs::steal_ticks(None)
    );
    match result {
        Ok(outcome) => println!("{}", outcome.json()),
        Err(e) => {
            eprintln!("waferd-bench: {e}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chunks of the given op counts; op `i` of the record takes `i` µs.
    fn chunked(sizes: &[usize]) -> (Record, Vec<Chunk>) {
        let mut rec = Record::default();
        let mut chunks = Vec::new();
        for &n in sizes {
            let from = rec.ops.len();
            for _ in 0..n {
                let i = rec.ops.len() as u64;
                rec.ops.push((0, i * 1000));
            }
            chunks.push(Chunk {
                ops: from..rec.ops.len(),
                secs: 1.0,
                cpu_ns: 0,
                wire: 0,
            });
        }
        (rec, chunks)
    }

    #[test]
    fn p99_windows_hold_a_thousand_ops_each() {
        // Windows: chunks 0-1 (ops 0..1200) and 2-4 (ops 1200..2700).
        let (rec, chunks) = chunked(&[600, 600, 600, 600, 300]);
        // Nearest-rank p99s 1187 and 2684; the median of two is the lower.
        assert_eq!(p99_over_windows(&rec, &chunks), 1187.0);
        // Fewer than 1000 ops in all: one window.
        let (rec, chunks) = chunked(&[300, 300]);
        assert_eq!(p99_over_windows(&rec, &chunks), 593.0);
        // Every chunk large enough: one window each.
        let (rec, chunks) = chunked(&[1000, 1000, 1000]);
        assert_eq!(p99_over_windows(&rec, &chunks), 1989.0);
    }
}
