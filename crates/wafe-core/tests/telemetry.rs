//! The `telemetry` command: the unified observability surface across the
//! interpreter, the toolkit and (in wafe-ipc's tests) the pipe protocol.

use std::collections::BTreeMap;

use wafe_core::{Flavor, WafeSession};
use wafe_tcl::parse_list;

fn session() -> WafeSession {
    let s = WafeSession::new(Flavor::Athena);
    s.telemetry.set_enabled(true);
    s
}

/// Parses the flat key/value list `telemetry snapshot` returns.
fn snapshot(s: &mut WafeSession) -> BTreeMap<String, u64> {
    let out = s.eval("telemetry snapshot").unwrap();
    let words = parse_list(&out).unwrap();
    assert_eq!(words.len() % 2, 0, "snapshot must be key/value pairs");
    words
        .chunks(2)
        .map(|kv| (kv[0].clone(), kv[1].parse::<u64>().unwrap()))
        .collect()
}

fn click(s: &mut WafeSession, name: &str) {
    {
        let mut app = s.app.borrow_mut();
        let w = app.lookup(name).unwrap();
        let win = app.widget(w).window.unwrap();
        let abs = app.displays[0].abs_rect(win);
        app.displays[0].inject_click(abs.x + 3, abs.y + 3, 1);
    }
    s.pump();
}

#[test]
fn snapshot_reports_eval_counts_and_dispatch_histogram() {
    let mut s = session();
    s.eval("command go topLevel label Go callback {set hits 1}")
        .unwrap();
    s.eval("realize").unwrap();
    click(&mut s, "go");
    assert_eq!(s.interp.get_var("hits").unwrap(), "1");
    let snap = snapshot(&mut s);
    assert!(snap["tcl.evals"] > 0, "{snap:?}");
    assert!(snap["tcl.dispatches"] > 0);
    assert!(snap["xt.widget.creates"] >= 1);
    assert_eq!(snap["xt.callbacks.dispatched"], 1);
    // The dispatch latency histogram carries count and percentiles.
    assert_eq!(snap["xt.callback.dispatch.count"], 1);
    assert!(snap["xt.callback.dispatch.p50Ns"] > 0);
    assert!(snap["xt.callback.dispatch.p99Ns"] >= snap["xt.callback.dispatch.p50Ns"]);
    // The eval histogram rides along.
    assert!(snap["tcl.eval.count"] > 0);
    assert!(snap["tcl.eval.p90Ns"] >= snap["tcl.eval.p50Ns"]);
}

#[test]
fn snapshot_absorbs_cachestats_and_interp_subcommands_still_work() {
    // Satellite 1: both surfaces report the same cache counters.
    let mut s = session();
    s.eval("proc f {x} {expr {$x * 2}}").unwrap();
    for _ in 0..5 {
        s.eval("f 21").unwrap();
    }
    let snap = snapshot(&mut s);
    assert!(snap["tcl.cache.scriptHits"] > 0, "{snap:?}");
    assert!(snap["tcl.cache.limit"] > 0);
    // The PR-1 command keeps working unchanged, and agrees.
    let cs = parse_list(&s.eval("interp cachestats").unwrap()).unwrap();
    let cs: BTreeMap<String, String> = cs
        .chunks(2)
        .map(|kv| (kv[0].clone(), kv[1].clone()))
        .collect();
    // Snapshot ran evals of its own, so compare >= on hits.
    let snap2 = snapshot(&mut s);
    assert!(snap2["tcl.cache.scriptHits"] >= cs["hits"].parse::<u64>().unwrap());
    assert_eq!(snap2["tcl.cache.limit"].to_string(), cs["limit"]);
    // cachelimit / cacheclear stay functional. The `telemetry snapshot`
    // eval itself re-enters the cache, so at most one entry remains.
    s.eval("interp cachelimit 64").unwrap();
    s.eval("interp cacheclear").unwrap();
    let snap3 = snapshot(&mut s);
    assert!(snap3["tcl.cache.scriptEntries"] <= 1, "{snap3:?}");
    assert_eq!(snap3["tcl.cache.limit"], 64);
}

#[test]
fn snapshot_exposes_memstats() {
    // Satellite 2: MemStats surfaces through the same snapshot.
    let mut s = session();
    s.eval("label l topLevel label {some tracked text}")
        .unwrap();
    let snap = snapshot(&mut s);
    assert!(snap["xt.mem.current"] > 0, "{snap:?}");
    assert!(snap["xt.mem.peak"] >= snap["xt.mem.current"]);
    assert!(snap["xt.mem.allocs"] > 0);
    assert_eq!(snap["xt.mem.overfree"], 0);
    s.eval("destroyWidget l").unwrap();
    let after = snapshot(&mut s);
    assert!(after["xt.mem.frees"] > 0);
    assert!(after["xt.mem.current"] < snap["xt.mem.current"]);
}

#[test]
fn memstats_visible_even_while_disabled() {
    // Gauges describe current state, so the snapshot reports them even
    // when recording is off.
    let mut s = WafeSession::new(Flavor::Athena);
    assert!(!s.telemetry.enabled());
    s.eval("label l topLevel label hello").unwrap();
    let snap = snapshot(&mut s);
    assert!(snap["xt.mem.current"] > 0);
    // But counters recorded nothing.
    assert!(!snap.contains_key("tcl.evals"));
}

#[test]
fn journal_records_widget_lifecycle() {
    let mut s = session();
    s.eval("label l topLevel").unwrap();
    s.eval("destroyWidget l").unwrap();
    let out = s.eval("telemetry journal").unwrap();
    let entries = parse_list(&out).unwrap();
    let kinds: Vec<String> = entries
        .iter()
        .map(|e| parse_list(e).unwrap()[2].clone())
        .collect();
    assert!(kinds.contains(&"widget.create".to_string()), "{kinds:?}");
    assert!(kinds.contains(&"widget.destroy".to_string()));
    // Each record is {seq at_us kind detail}; seq strictly increases.
    let seqs: Vec<u64> = entries
        .iter()
        .map(|e| parse_list(e).unwrap()[0].parse().unwrap())
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
}

#[test]
fn journal_n_returns_most_recent_in_order() {
    // Satellite 3: `telemetry journal n` — last n, oldest first.
    let mut s = session();
    for i in 0..10 {
        s.eval(&format!("label w{i} topLevel")).unwrap();
    }
    let out = s.eval("telemetry journal 3").unwrap();
    let entries = parse_list(&out).unwrap();
    assert_eq!(entries.len(), 3);
    let details: Vec<String> = entries
        .iter()
        .map(|e| parse_list(e).unwrap()[3].clone())
        .collect();
    assert!(details[0].starts_with("w7"), "{details:?}");
    assert!(details[1].starts_with("w8"));
    assert!(details[2].starts_with("w9"));
}

#[test]
fn journal_wraps_at_capacity() {
    // Satellite 3: the ring buffer overwrites the oldest entries; seq
    // numbers keep counting across the wrap.
    let mut s = session();
    s.telemetry.set_journal_capacity(8);
    for i in 0..20 {
        s.eval(&format!("label w{i} topLevel")).unwrap();
    }
    let snap = snapshot(&mut s);
    assert_eq!(snap["trace.journal.retained"], 8);
    assert_eq!(snap["trace.journal.capacity"], 8);
    assert_eq!(snap["trace.journal.total"], 20);
    let entries = parse_list(&s.eval("telemetry journal").unwrap()).unwrap();
    assert_eq!(entries.len(), 8);
    let first = parse_list(&entries[0]).unwrap();
    // Only the 8 newest survive: the first retained entry is create #13.
    assert_eq!(first[0], "13");
    assert!(first[3].starts_with("w12"), "{first:?}");
}

#[test]
fn reset_clears_data_but_not_enabled_flag() {
    // Satellite 3: reset wipes counters/histograms/journal, keeps the
    // enabled flag.
    let mut s = session();
    s.eval("label l topLevel").unwrap();
    for _ in 0..10 {
        s.eval("set x 1").unwrap();
    }
    let before = snapshot(&mut s);
    assert!(before["tcl.evals"] > 10);
    s.eval("telemetry reset").unwrap();
    assert_eq!(s.eval("telemetry enabled").unwrap(), "1");
    let after = snapshot(&mut s);
    // The reset itself and the snapshot eval are the only recordings.
    assert!(after["tcl.evals"] < before["tcl.evals"]);
    assert_eq!(after["trace.journal.retained"], 0);
    assert_eq!(after["trace.journal.total"], 0);
    assert!(!after.contains_key("xt.widget.creates"));
}

#[test]
fn enable_disable_via_command() {
    let mut s = WafeSession::new(Flavor::Athena);
    assert_eq!(s.eval("telemetry enabled").unwrap(), "0");
    s.eval("telemetry enable").unwrap();
    assert_eq!(s.eval("telemetry enabled").unwrap(), "1");
    s.eval("set x 1").unwrap();
    assert!(snapshot(&mut s)["tcl.evals"] > 0);
    s.eval("telemetry disable").unwrap();
    assert_eq!(s.eval("telemetry enabled").unwrap(), "0");
}

#[test]
fn histogram_subcommand_reports_percentiles() {
    let mut s = session();
    for i in 0..50 {
        s.eval(&format!("set x {i}")).unwrap();
    }
    let out = s.eval("telemetry histogram tcl.eval").unwrap();
    let kv: BTreeMap<String, u64> = parse_list(&out)
        .unwrap()
        .chunks(2)
        .map(|w| (w[0].clone(), w[1].parse().unwrap()))
        .collect();
    assert!(kv["count"] >= 50);
    assert!(kv["minNs"] <= kv["p50Ns"]);
    assert!(kv["p50Ns"] <= kv["p90Ns"]);
    assert!(kv["p90Ns"] <= kv["p99Ns"]);
    assert!(kv["p99Ns"] <= kv["maxNs"]);
    assert!(kv["sumNs"] >= kv["maxNs"]);
    // Unknown histograms are an error.
    assert!(s.eval("telemetry histogram no.such").is_err());
}

#[test]
fn action_dispatch_measured() {
    let mut s = session();
    s.eval("asciiText input topLevel editType edit").unwrap();
    s.eval("action input override {<Key>Return: exec(set seen 1)}")
        .unwrap();
    s.eval("realize").unwrap();
    {
        let mut app = s.app.borrow_mut();
        let input = app.lookup("input").unwrap();
        let win = app.widget(input).window.unwrap();
        app.displays[0].set_input_focus(Some(win));
        app.displays[0].inject_key_text("\n");
    }
    s.pump();
    assert_eq!(s.interp.get_var("seen").unwrap(), "1");
    let snap = snapshot(&mut s);
    assert_eq!(snap["xt.actions.dispatched"], 1, "{snap:?}");
    assert_eq!(snap["xt.action.dispatch.count"], 1);
    assert!(snap["xt.action.dispatch.p50Ns"] > 0);
}

#[test]
fn snapshot_is_key_sorted_and_prefix_filterable() {
    // Satellite 2 (PR 5): the snapshot is deterministically key-sorted,
    // and an optional prefix narrows it to the matching sub-slice.
    let mut s = session();
    s.eval("label l topLevel").unwrap();
    for _ in 0..3 {
        s.eval("set x 1").unwrap();
    }
    let words = parse_list(&s.eval("telemetry snapshot").unwrap()).unwrap();
    let keys: Vec<&String> = words.iter().step_by(2).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "snapshot keys must come out sorted");
    let filtered = parse_list(&s.eval("telemetry snapshot tcl.").unwrap()).unwrap();
    assert!(!filtered.is_empty());
    assert!(filtered.chunks(2).all(|kv| kv[0].starts_with("tcl.")));
    // A prefix nothing matches yields an empty list, not an error…
    assert_eq!(s.eval("telemetry snapshot no.such.prefix").unwrap(), "");
    // …but extra arguments are still rejected.
    assert!(s.eval("telemetry snapshot a b").is_err());
}

#[test]
fn snapshot_prefix_asserts_verbatim() {
    // Satellite 2 (PR 5): with deterministic ordering a test can pin
    // snapshot output byte-for-byte. The journal gauges are exact on a
    // fresh session, so the whole filtered snapshot is one literal.
    let mut s = WafeSession::new(Flavor::Athena);
    assert_eq!(
        s.eval("telemetry snapshot trace.journal").unwrap(),
        "trace.journal.capacity 256 trace.journal.dropped 0 trace.journal.retained 0 trace.journal.total 0"
    );
    s.telemetry.set_journal_capacity(8);
    assert_eq!(
        s.eval("telemetry snapshot trace.journal").unwrap(),
        "trace.journal.capacity 8 trace.journal.dropped 0 trace.journal.retained 0 trace.journal.total 0"
    );
}

#[test]
fn disabled_telemetry_records_no_counters() {
    let mut s = WafeSession::new(Flavor::Athena);
    s.eval("label l topLevel").unwrap();
    s.eval("set x 1").unwrap();
    let snap = snapshot(&mut s);
    assert!(!snap.contains_key("tcl.evals"), "{snap:?}");
    assert!(!snap.contains_key("xt.widget.creates"));
    assert_eq!(snap["trace.journal.total"], 0);
}

#[test]
fn snapshot_reports_bytecode_counters() {
    let mut s = session();
    s.eval("set n 0; while {$n < 25} {incr n}").unwrap();
    let snap = snapshot(&mut s);
    assert!(snap["tcl.bc.compiles"] >= 1, "{snap:?}");
    assert!(
        snap["tcl.bc.instructions"] > 100,
        "a 25-iteration loop dispatches well over 100 instructions: {snap:?}"
    );
    // Re-running the same script hits the cached bytecode.
    s.eval("set n 0; while {$n < 25} {incr n}").unwrap();
    let snap2 = snapshot(&mut s);
    assert!(snap2["tcl.bc.hits"] >= 1, "{snap2:?}");
    assert_eq!(snap2["tcl.bc.compiles"], snap["tcl.bc.compiles"]);
}

#[test]
fn bcstats_prefix_asserts_verbatim() {
    // The key-sorted snapshot pins the whole tcl.bc prefix verbatim: a
    // fresh session reports exactly two compiles (`set x 1` plus the
    // snapshot script itself, which compiles before the snapshot is
    // taken), no hits and no fallbacks. Only `set x 1` has finished
    // executing, so the instruction count is its two instructions.
    let mut s = session();
    s.eval("set x 1").unwrap();
    let instructions = s.interp.bc_stats().instructions;
    assert_eq!(instructions, 2, "set x 1 is PushConst + StoreVar");
    assert_eq!(
        s.eval("telemetry snapshot tcl.bc").unwrap(),
        format!("tcl.bc.compiles 2 tcl.bc.instructions {instructions}")
    );
}

#[test]
fn interp_bcstats_reports_and_bcdisable_switches() {
    let mut s = WafeSession::new(Flavor::Athena);
    s.eval("set n 0; while {$n < 5} {incr n}").unwrap();
    let st: BTreeMap<String, String> = parse_list(&s.eval("interp bcstats").unwrap())
        .unwrap()
        .chunks(2)
        .map(|kv| (kv[0].clone(), kv[1].clone()))
        .collect();
    assert_eq!(st["enabled"], "1");
    assert!(st["compiles"].parse::<u64>().unwrap() >= 1, "{st:?}");
    assert!(st["instructions"].parse::<u64>().unwrap() > 20);
    // bcdisable returns the previous state and stops the VM; the script
    // still evaluates identically through the tree-walker.
    assert_eq!(s.eval("interp bcdisable").unwrap(), "1");
    let before = s.interp.bc_stats();
    s.eval("set n 0; while {$n < 5} {incr n}").unwrap();
    assert_eq!(s.interp.get_var("n").unwrap(), "5");
    let after = s.interp.bc_stats();
    assert_eq!(after.compiles, before.compiles);
    assert_eq!(after.hits, before.hits);
    assert_eq!(s.eval("interp bcenable").unwrap(), "0");
}

/// The span surface end to end through Tcl: arm, trace a proc call,
/// disarm, read the stats words and the causal tree, export the Chrome
/// trace JSON, and clear the ring.
#[test]
fn spans_surface_and_chrome_export() {
    let mut s = session();
    assert_eq!(s.eval("telemetry spans enabled").unwrap(), "0");
    s.eval("telemetry spans on").unwrap();
    assert_eq!(s.eval("telemetry spans enabled").unwrap(), "1");
    s.eval("proc double {x} {expr {$x * 2}}").unwrap();
    assert_eq!(s.eval("double 21").unwrap(), "42");
    s.eval("telemetry spans off").unwrap();

    let stats: BTreeMap<String, u64> = parse_list(&s.eval("telemetry spans stats").unwrap())
        .unwrap()
        .chunks(2)
        .map(|kv| (kv[0].clone(), kv[1].parse().unwrap()))
        .collect();
    assert!(stats["retained"] > 0, "{stats:?}");
    assert_eq!(stats["open"], 0, "disarming closed every open span");
    assert_eq!(stats["dropped"], 0);

    let tree = s.eval("telemetry spans tree").unwrap();
    assert!(tree.contains("tcl.proc"), "{tree}");
    assert!(tree.contains("double"), "{tree}");

    let path = std::env::temp_dir().join(format!("wafe_chrome_{}.json", std::process::id()));
    let exported = s
        .eval(&format!("telemetry export chrome {}", path.display()))
        .unwrap();
    let n: u64 = exported.parse().unwrap();
    assert_eq!(n, stats["retained"], "one trace event per retained span");
    let body = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(body.starts_with("{\"traceEvents\":["), "{body}");
    assert!(body.contains("\"name\":\"tcl.proc\""), "{body}");
    assert!(body.contains("\"trace\":"), "{body}");

    s.eval("telemetry spans clear").unwrap();
    let after = s.eval("telemetry spans stats").unwrap();
    assert!(parse_list(&after)
        .unwrap()
        .contains(&"retained".to_string()));
    assert!(after.contains("retained 0"), "{after}");
}

/// The `gui_frames` dashboard: a form of 6x4 labels, four command
/// buttons and a status label, realized.
fn dashboard() -> WafeSession {
    let mut s = session();
    s.eval("form grid topLevel").unwrap();
    for r in 0..6 {
        for c in 0..4 {
            let mut cmd = format!("label r{r}c{c} grid label {{cell {r}:{c}}} width 120 height 24");
            if c > 0 {
                cmd.push_str(&format!(" fromHoriz r{r}c{}", c - 1));
            }
            if r > 0 {
                cmd.push_str(&format!(" fromVert r{}c{c}", r - 1));
            }
            s.eval(&cmd).unwrap();
        }
    }
    for b in 0..4 {
        let mut cmd = format!("command b{b} grid label {{button {b}}} fromVert r5c0");
        if b > 0 {
            cmd.push_str(&format!(" fromHoriz b{}", b - 1));
        }
        s.eval(&cmd).unwrap();
    }
    s.eval("label status grid label {clicks 0} width 200 fromVert b0")
        .unwrap();
    s.eval("realize").unwrap();
    s
}

/// How many widgets one command re-laid-out and redisplayed.
fn settle_work(s: &mut WafeSession, script: &str) -> (u64, u64) {
    let before = snapshot(s);
    s.eval(script).unwrap();
    let after = snapshot(s);
    let delta = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    (delta("xt.settle.laid_out"), delta("xt.settle.redrawn"))
}

#[test]
fn settle_counters_show_a_label_change_costs_the_label() {
    let mut s = dashboard();
    assert_eq!(
        settle_work(&mut s, "sV r2c1 label {new text}"),
        (0, 1),
        "one label sV: nothing laid out, one widget redrawn"
    );
    assert_eq!(
        settle_work(&mut s, "sV r2c1 label one background red"),
        (0, 1),
        "one setValues call settles once"
    );
    let (laid_out, redrawn) = settle_work(&mut s, "sV r2c1 width 150");
    assert!(laid_out > 0, "a width change re-lays out the form");
    assert_eq!(redrawn, laid_out, "the laid-out subtree is redrawn");
}
