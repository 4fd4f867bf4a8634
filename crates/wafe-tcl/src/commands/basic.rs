//! Variable commands, evaluation commands and miscellany:
//! `set unset incr append expr eval catch error echo puts rename source
//! time info array`.

use std::time::Instant;

use crate::error::{wrong_num_args, TclError, TclResult};
use crate::glob::glob_match;
use crate::interp::Interp;
use crate::list::{list_join, parse_list};
use crate::value::Value;
use wafe_trace::Metric;

/// Splits a variable specifier of the form `name` or `name(index)`.
pub fn split_varspec(spec: &str) -> (String, Option<String>) {
    let (name, idx) = split_varspec_ref(spec);
    (name.to_string(), idx.map(str::to_string))
}

/// Borrowing form of [`split_varspec`]: no allocation on the hot path.
fn split_varspec_ref(spec: &str) -> (&str, Option<&str>) {
    if let Some(open) = spec.find('(') {
        if spec.ends_with(')') {
            return (&spec[..open], Some(&spec[open + 1..spec.len() - 1]));
        }
    }
    (spec, None)
}

pub(crate) fn var_get(interp: &Interp, spec: &str) -> TclResult<Value> {
    var_get_ref(interp, spec).cloned()
}

pub(crate) fn var_get_ref<'a>(interp: &'a Interp, spec: &str) -> TclResult<&'a Value> {
    match split_varspec_ref(spec) {
        (name, None) => interp.get_var_ref(name),
        (name, Some(idx)) => interp.get_elem_ref(name, idx),
    }
}

pub(crate) fn var_set(interp: &mut Interp, spec: &str, value: Value) -> TclResult<()> {
    match split_varspec_ref(spec) {
        (name, None) => interp.set_var(name, value),
        (name, Some(idx)) => interp.set_elem(name, idx, value),
    }
}

pub(super) fn register(interp: &mut Interp) {
    interp.register("set", |i, argv| match argv.len() {
        2 => var_get(i, &argv[1]),
        3 => {
            var_set(i, &argv[1], argv[2].clone())?;
            Ok(argv[2].clone())
        }
        _ => Err(wrong_num_args("set varName ?newValue?")),
    });

    interp.register("unset", |i, argv| {
        if argv.len() < 2 {
            return Err(wrong_num_args("unset varName ?varName ...?"));
        }
        for spec in &argv[1..] {
            match split_varspec(spec) {
                (name, None) => i.unset_var(&name)?,
                (name, Some(idx)) => i.unset_elem(&name, &idx)?,
            }
        }
        Ok(Value::empty())
    });

    interp.register("incr", |i, argv| {
        if argv.len() != 2 && argv.len() != 3 {
            return Err(wrong_num_args("incr varName ?increment?"));
        }
        // `as_int` hits the cached Int rep when present (the loop-counter
        // hot path: no text parse at all) and only caches canonical
        // decimal spellings, so the strict-parse error cases below are
        // byte-identical to the string model.
        let cur: i64 = {
            let v = var_get_ref(i, &argv[1])?;
            v.as_int()
                .ok_or_else(|| TclError::Error(format!("expected integer but got \"{v}\"")))?
        };
        let amount: i64 = if argv.len() == 3 {
            argv[2].as_int().ok_or_else(|| {
                TclError::Error(format!("expected integer but got \"{}\"", argv[2]))
            })?
        } else {
            1
        };
        let new = Value::from_int(cur.wrapping_add(amount));
        var_set(i, &argv[1], new.clone())?;
        Ok(new)
    });

    interp.register("append", |i, argv| {
        if argv.len() < 2 {
            return Err(wrong_num_args("append varName ?value value ...?"));
        }
        let mut cur = match var_get_ref(i, &argv[1]) {
            Ok(v) => v.to_string(),
            Err(_) => String::new(),
        };
        for v in &argv[2..] {
            cur.push_str(v);
        }
        let new = Value::from(cur);
        var_set(i, &argv[1], new.clone())?;
        Ok(new)
    });

    interp.register("expr", |i, argv| {
        if argv.len() < 2 {
            return Err(wrong_num_args("expr arg ?arg ...?"));
        }
        if argv.len() == 2 {
            return crate::expr::eval_expr_value(i, &argv[1]);
        }
        let text = argv[1..].join(" ");
        crate::expr::eval_expr_value(i, &text)
    });

    interp.register("eval", |i, argv| {
        if argv.len() < 2 {
            return Err(wrong_num_args("eval arg ?arg ...?"));
        }
        if argv.len() == 2 {
            return i.eval_value(&argv[1]);
        }
        let script = argv[1..].join(" ");
        i.eval(&script)
    });

    interp.register("catch", |i, argv| {
        if argv.len() != 2 && argv.len() != 3 {
            return Err(wrong_num_args("catch command ?varName?"));
        }
        let (code, value) = match i.eval_value(&argv[1]) {
            Ok(v) => (0, v),
            Err(TclError::Error(m)) => (1, Value::from(m)),
            Err(TclError::Return(v)) => (2, Value::from(v)),
            Err(TclError::Break) => (3, Value::empty()),
            Err(TclError::Continue) => (4, Value::empty()),
        };
        if argv.len() == 3 {
            var_set(i, &argv[2], value)?;
        }
        Ok(Value::from_int(code))
    });

    interp.register("error", |_, argv| {
        if argv.len() < 2 || argv.len() > 4 {
            return Err(wrong_num_args("error message ?errorInfo? ?errorCode?"));
        }
        Err(TclError::Error(argv[1].to_string()))
    });

    let echo = |i: &mut Interp, argv: &[Value]| {
        let line = argv[1..].join(" ");
        i.write_output(&line);
        i.write_output("\n");
        Ok(Value::empty())
    };
    interp.register("echo", echo);
    interp.register("puts", move |i, argv| {
        // `puts ?-nonewline? string`; file channels are not supported.
        match argv.len() {
            2 => {
                i.write_output(&argv[1]);
                i.write_output("\n");
                Ok(Value::empty())
            }
            3 if argv[1] == "-nonewline" => {
                i.write_output(&argv[2]);
                Ok(Value::empty())
            }
            3 if argv[1] == "stdout" => {
                i.write_output(&argv[2]);
                i.write_output("\n");
                Ok(Value::empty())
            }
            _ => Err(wrong_num_args("puts ?-nonewline? string")),
        }
    });

    interp.register("rename", |i, argv| {
        if argv.len() != 3 {
            return Err(wrong_num_args("rename oldName newName"));
        }
        i.rename_command(&argv[1], &argv[2])?;
        Ok(Value::empty())
    });

    interp.register("source", |i, argv| {
        if argv.len() != 2 {
            return Err(wrong_num_args("source fileName"));
        }
        let text = std::fs::read_to_string(argv[1].as_str())
            .map_err(|e| TclError::Error(format!("couldn't read file \"{}\": {e}", argv[1])))?;
        // Strip a leading `#!` line so file-mode scripts can be sourced.
        i.eval(&text)
    });

    interp.register("time", |i, argv| {
        if argv.len() != 2 && argv.len() != 3 {
            return Err(wrong_num_args("time command ?count?"));
        }
        let count: u64 = if argv.len() == 3 {
            argv[2]
                .parse()
                .map_err(|_| TclError::Error(format!("expected integer but got \"{}\"", argv[2])))?
        } else {
            1
        };
        let start = Instant::now();
        for _ in 0..count.max(1) {
            i.eval_value(&argv[1])?;
        }
        let micros = start.elapsed().as_micros() as u64 / count.max(1);
        Ok(Value::from(format!("{micros} microseconds per iteration")))
    });

    interp.register("subst", |i, argv| {
        if argv.len() != 2 {
            return Err(wrong_num_args("subst string"));
        }
        i.substitute_all(&argv[1]).map(Value::from)
    });

    interp.register("info", cmd_info);
    interp.register("array", cmd_array);
    interp.register("trace", cmd_trace);
    interp.register("interp", cmd_interp);
}

/// `interp cachestats`: the parse caches, then the bytecode cache's
/// traffic — counted apart, since a script can hit the parse cache yet
/// still compile (first run) or fall back (uncompilable).
const CACHESTATS: [(&str, Metric); 16] = [
    ("hits", Metric::TclCacheScriptHits),
    ("misses", Metric::TclCacheScriptMisses),
    ("entries", Metric::TclCacheScriptEntries),
    ("evictions", Metric::TclCacheScriptEvictions),
    ("exprHits", Metric::TclCacheExprHits),
    ("exprMisses", Metric::TclCacheExprMisses),
    ("exprEntries", Metric::TclCacheExprEntries),
    ("exprEvictions", Metric::TclCacheExprEvictions),
    ("limit", Metric::TclCacheLimit),
    ("bcHits", Metric::TclBcHits),
    ("bcCompiles", Metric::TclBcCompiles),
    ("bcFallbacks", Metric::TclBcFallbacks),
    ("substHits", Metric::TclCacheSubstHits),
    ("substMisses", Metric::TclCacheSubstMisses),
    ("substEntries", Metric::TclCacheSubstEntries),
    ("substEvictions", Metric::TclCacheSubstEvictions),
];

/// `interp shimmerstats`: the value layer's representation traffic.
const SHIMMERSTATS: [(&str, Metric); 7] = [
    ("intParses", Metric::TclShimmerIntParses),
    ("doubleParses", Metric::TclShimmerDoubleParses),
    ("listParses", Metric::TclShimmerListParses),
    ("repHits", Metric::TclShimmerRepHits),
    ("renders", Metric::TclShimmerRenders),
    ("listCow", Metric::TclShimmerListCow),
    ("cmdInternHits", Metric::TclShimmerCmdInternHits),
];

/// `interp bcstats` (followed by the live `enabled` flag).
const BCSTATS: [(&str, Metric); 5] = [
    ("compiles", Metric::TclBcCompiles),
    ("hits", Metric::TclBcHits),
    ("fallbacks", Metric::TclBcFallbacks),
    ("deferred", Metric::TclBcDeferred),
    ("instructions", Metric::TclBcInstructions),
];

/// `interp cachestats | cacheclear | cachelimit ?n? | shimmerstats |
/// bcstats | bcenable | bcdisable | profile on|off|report|reset` —
/// introspection for the parse-once caches, the dual-representation
/// value layer, the bytecode VM and the proc/opcode profiler.
fn cmd_interp(i: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    if argv.len() < 2 {
        return Err(wrong_num_args("interp option ?arg?"));
    }
    match argv[1].as_str() {
        "cachestats" | "shimmerstats" | "bcstats" => {
            if argv.len() != 2 {
                return Err(wrong_num_args(&format!("interp {}", argv[1])));
            }
            let view: &[(&str, Metric)] = match argv[1].as_str() {
                "cachestats" => &CACHESTATS,
                "shimmerstats" => &SHIMMERSTATS,
                _ => &BCSTATS,
            };
            let mut words: Vec<String> = view
                .iter()
                .flat_map(|&(k, m)| [k.to_string(), i.metric(m).to_string()])
                .collect();
            if argv[1].as_str() == "bcstats" {
                words.extend(["enabled".to_string(), (i.bc_enabled() as u64).to_string()]);
            }
            Ok(Value::from(list_join(&words)))
        }
        "bcenable" | "bcdisable" => {
            if argv.len() != 2 {
                return Err(wrong_num_args(if argv[1].as_str() == "bcenable" {
                    "interp bcenable"
                } else {
                    "interp bcdisable"
                }));
            }
            let was = i.set_bc_enabled(argv[1].as_str() == "bcenable");
            Ok(Value::from_int(was as i64))
        }
        "cacheclear" => {
            if argv.len() != 2 {
                return Err(wrong_num_args("interp cacheclear"));
            }
            i.cache_clear();
            Ok(Value::empty())
        }
        "cachelimit" => match argv.len() {
            2 => Ok(Value::from_int(i.cache_limit() as i64)),
            3 => {
                let n: usize = argv[2].parse().map_err(|_| {
                    TclError::Error(format!("expected integer but got \"{}\"", argv[2]))
                })?;
                i.set_cache_limit(n);
                Ok(Value::empty())
            }
            _ => Err(wrong_num_args("interp cachelimit ?limit?")),
        },
        "profile" => {
            if argv.len() != 3 {
                return Err(wrong_num_args("interp profile on|off|report|reset"));
            }
            match argv[2].as_str() {
                "on" | "off" => {
                    let was = i.profiler.enabled();
                    i.profiler.set_enabled(argv[2].as_str() == "on");
                    Ok(Value::from_int(was as i64))
                }
                "report" => Ok(Value::from(i.profiler.report(&crate::bc::OPCODE_NAMES))),
                "reset" => {
                    i.profiler.reset();
                    Ok(Value::empty())
                }
                bad => Err(TclError::Error(format!(
                    "bad profile option \"{bad}\": must be on, off, report, or reset"
                ))),
            }
        }
        other => Err(TclError::Error(format!(
            "bad option \"{other}\": must be bcstats, bcenable, bcdisable, cachestats, cacheclear, cachelimit, profile, or shimmerstats"
        ))),
    }
}

fn cmd_trace(i: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    // trace variable name ops script | trace vdelete name ops script |
    // trace vinfo name. Supported ops: w (write), u (unset).
    if argv.len() < 3 {
        return Err(wrong_num_args("trace option varName ?ops script?"));
    }
    match argv[1].as_str() {
        "variable" | "add" => {
            if argv.len() != 5 {
                return Err(wrong_num_args("trace variable varName ops script"));
            }
            if !argv[3].chars().all(|c| matches!(c, 'w' | 'u' | 'r')) {
                return Err(TclError::Error(format!(
                    "bad operations \"{}\": should be one or more of w or u",
                    argv[3]
                )));
            }
            i.add_trace(&argv[2], &argv[3], &argv[4]);
            Ok(Value::empty())
        }
        "vdelete" | "remove" => {
            if argv.len() != 5 {
                return Err(wrong_num_args("trace vdelete varName ops script"));
            }
            i.remove_trace(&argv[2], &argv[3], &argv[4]);
            Ok(Value::empty())
        }
        "vinfo" => {
            let items: Vec<String> = i
                .trace_info(&argv[2])
                .into_iter()
                .map(|(ops, script)| crate::list::list_join(&[ops, script]))
                .collect();
            Ok(Value::from(crate::list::list_join(&items)))
        }
        other => Err(TclError::Error(format!(
            "bad option \"{other}\": must be variable, vdelete, or vinfo"
        ))),
    }
}

fn cmd_info(i: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    if argv.len() < 2 {
        return Err(wrong_num_args("info option ?arg arg ...?"));
    }
    let pattern = argv.get(2).map(|s| s.as_str());
    let filter = |mut names: Vec<String>| {
        if let Some(p) = pattern {
            names.retain(|n| glob_match(p, n));
        }
        names.sort();
        Value::from(list_join(&names))
    };
    match argv[1].as_str() {
        "exists" => {
            if argv.len() != 3 {
                return Err(wrong_num_args("info exists varName"));
            }
            let (name, idx) = split_varspec(&argv[2]);
            let exists = match idx {
                None => i.var_exists(&name),
                Some(ix) => i.get_elem(&name, &ix).is_ok(),
            };
            Ok(if exists { "1" } else { "0" }.into())
        }
        "commands" => Ok(filter(i.command_names())),
        "procs" => Ok(filter(i.proc_names())),
        "globals" => Ok(filter(i.global_names())),
        "vars" | "locals" => Ok(filter(i.var_names())),
        "level" => Ok(Value::from_int(i.level() as i64)),
        "body" => {
            if argv.len() != 3 {
                return Err(wrong_num_args("info body procName"));
            }
            i.get_proc(&argv[2])
                .map(|p| Value::from(p.body.clone()))
                .ok_or_else(|| TclError::Error(format!("\"{}\" isn't a procedure", argv[2])))
        }
        "args" => {
            if argv.len() != 3 {
                return Err(wrong_num_args("info args procName"));
            }
            let p = i
                .get_proc(&argv[2])
                .ok_or_else(|| TclError::Error(format!("\"{}\" isn't a procedure", argv[2])))?;
            let names: Vec<String> = p.args.iter().map(|(n, _)| n.clone()).collect();
            Ok(Value::from(list_join(&names)))
        }
        "tclversion" => Ok("6.7".into()),
        other => Err(TclError::Error(format!(
            "bad option \"{other}\": must be exists, commands, procs, globals, vars, locals, level, body, args, or tclversion"
        ))),
    }
}

fn cmd_array(i: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    if argv.len() < 3 {
        return Err(wrong_num_args("array option arrayName ?arg ...?"));
    }
    let name = argv[2].as_str();
    match argv[1].as_str() {
        "exists" => Ok(if i.is_array(name) { "1" } else { "0" }.into()),
        "names" => {
            let mut names = i.array_names(name)?;
            if let Some(p) = argv.get(3) {
                names.retain(|n| glob_match(p, n));
            }
            names.sort();
            Ok(Value::from(list_join(&names)))
        }
        "size" => Ok(Value::from_int(i.array_names(name)?.len() as i64)),
        "get" => {
            let mut names = i.array_names(name)?;
            names.sort();
            let mut out: Vec<String> = Vec::new();
            for n in names {
                let v = i.get_elem(name, &n)?;
                out.push(n);
                out.push(v.to_string());
            }
            Ok(Value::from(list_join(&out)))
        }
        "set" => {
            if argv.len() != 4 {
                return Err(wrong_num_args("array set arrayName list"));
            }
            let items = parse_list(&argv[3])?;
            if items.len() % 2 != 0 {
                return Err(TclError::error("list must have an even number of elements"));
            }
            for pair in items.chunks(2) {
                i.set_elem(name, &pair[0], pair[1].as_str())?;
            }
            Ok(Value::empty())
        }
        other => Err(TclError::Error(format!(
            "bad option \"{other}\": must be exists, names, size, get, or set"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new() -> Interp {
        Interp::new()
    }

    #[test]
    fn set_array_element_syntax() {
        let mut i = new();
        i.eval("set a(x) 1").unwrap();
        assert_eq!(i.eval("set a(x)").unwrap(), "1");
        assert_eq!(i.eval("incr a(x) 4").unwrap(), "5");
    }

    #[test]
    fn incr_defaults_and_amount() {
        let mut i = new();
        i.eval("set n 5").unwrap();
        assert_eq!(i.eval("incr n").unwrap(), "6");
        assert_eq!(i.eval("incr n -2").unwrap(), "4");
        i.eval("set s abc").unwrap();
        assert!(i.eval("incr s").is_err());
    }

    #[test]
    fn append_creates_var() {
        let mut i = new();
        assert_eq!(i.eval("append out a b c").unwrap(), "abc");
        assert_eq!(i.eval("append out d").unwrap(), "abcd");
    }

    #[test]
    fn expr_joins_args() {
        let mut i = new();
        assert_eq!(i.eval("expr 1 + 2").unwrap(), "3");
        assert_eq!(i.eval("expr {1 + 2}").unwrap(), "3");
    }

    #[test]
    fn catch_codes() {
        let mut i = new();
        assert_eq!(i.eval("catch {set x 1}").unwrap(), "0");
        assert_eq!(i.eval("catch {error boom} msg").unwrap(), "1");
        assert_eq!(i.get_var("msg").unwrap(), "boom");
        assert_eq!(i.eval("catch {break}").unwrap(), "3");
        assert_eq!(i.eval("catch {continue}").unwrap(), "4");
        assert_eq!(i.eval("catch {return val} r").unwrap(), "2");
        assert_eq!(i.get_var("r").unwrap(), "val");
    }

    #[test]
    fn eval_concatenates() {
        let mut i = new();
        assert_eq!(i.eval("eval set x 42").unwrap(), "42");
        assert_eq!(i.eval("eval {set y 1; set y}").unwrap(), "1");
    }

    #[test]
    fn info_exists_and_procs() {
        let mut i = new();
        assert_eq!(i.eval("info exists nope").unwrap(), "0");
        i.eval("set yes 1").unwrap();
        assert_eq!(i.eval("info exists yes").unwrap(), "1");
        i.eval("proc myproc {a b} {return $a$b}").unwrap();
        assert_eq!(i.eval("info procs my*").unwrap(), "myproc");
        assert_eq!(i.eval("info args myproc").unwrap(), "a b");
        assert_eq!(i.eval("info body myproc").unwrap(), "return $a$b");
        assert_eq!(i.eval("info tclversion").unwrap(), "6.7");
    }

    #[test]
    fn info_commands_includes_builtins() {
        let mut i = new();
        let cmds = i.eval("info commands se*").unwrap();
        assert!(cmds.contains("set"));
    }

    #[test]
    fn array_subcommands() {
        let mut i = new();
        i.eval("array set a {x 1 y 2}").unwrap();
        assert_eq!(i.eval("array exists a").unwrap(), "1");
        assert_eq!(i.eval("array size a").unwrap(), "2");
        assert_eq!(i.eval("array names a").unwrap(), "x y");
        assert_eq!(i.eval("array get a").unwrap(), "x 1 y 2");
        assert_eq!(i.eval("array exists nothere").unwrap(), "0");
        assert!(i.eval("array set a {odd}").is_err());
    }

    #[test]
    fn subst_command() {
        let mut i = new();
        i.eval("set x 5").unwrap();
        assert_eq!(i.eval("subst {$x [expr 1+1]}").unwrap(), "5 2");
    }

    #[test]
    fn time_command_reports_micros() {
        let mut i = new();
        let r = i.eval("time {set x 1} 10").unwrap();
        assert!(r.ends_with("microseconds per iteration"), "{r}");
    }

    #[test]
    fn error_command() {
        let mut i = new();
        let e = i.eval("error \"my message\"").unwrap_err();
        assert_eq!(e.message(), "my message");
    }

    #[test]
    fn unset_array_element() {
        let mut i = new();
        i.eval("set a(x) 1; set a(y) 2").unwrap();
        i.eval("unset a(x)").unwrap();
        assert_eq!(i.eval("info exists a(x)").unwrap(), "0");
        assert_eq!(i.eval("info exists a(y)").unwrap(), "1");
        i.eval("unset a").unwrap();
        assert_eq!(i.eval("array exists a").unwrap(), "0");
    }

    #[test]
    fn varspec_split() {
        assert_eq!(split_varspec("plain"), ("plain".into(), None));
        assert_eq!(split_varspec("a(b)"), ("a".into(), Some("b".into())));
        assert_eq!(split_varspec("a(b,c)"), ("a".into(), Some("b,c".into())));
        assert_eq!(split_varspec("weird("), ("weird(".into(), None));
    }
}

#[cfg(test)]
mod trace_tests {
    use crate::interp::Interp;

    #[test]
    fn write_trace_fires_with_arguments() {
        let mut i = Interp::new();
        i.eval("set log {}").unwrap();
        i.eval("trace variable x w {append log}").unwrap();
        i.eval("set x hello").unwrap();
        // The trace script receives "name element op" appended; the
        // element is empty for a scalar write.
        assert_eq!(i.get_var("log").unwrap(), "xw");
    }

    #[test]
    fn array_element_trace_carries_element() {
        let mut i = Interp::new();
        i.eval("proc record {name elem op} {global seen; set seen \"$name.$elem.$op\"}")
            .unwrap();
        i.eval("trace variable a w record").unwrap();
        i.eval("set a(key) 1").unwrap();
        assert_eq!(i.get_var("seen").unwrap(), "a.key.w");
    }

    #[test]
    fn unset_trace_fires() {
        let mut i = Interp::new();
        i.eval("set x 1").unwrap();
        i.eval("trace variable x u {set gone yes ;#}").unwrap();
        i.eval("unset x").unwrap();
        assert_eq!(i.get_var("gone").unwrap(), "yes");
    }

    #[test]
    fn vdelete_and_vinfo() {
        let mut i = Interp::new();
        i.eval("trace variable x w {noop}").unwrap();
        let info = i.eval("trace vinfo x").unwrap();
        assert!(info.contains("noop"), "{info}");
        i.eval("trace vdelete x w {noop}").unwrap();
        assert_eq!(i.eval("trace vinfo x").unwrap(), "");
        // Deleted trace no longer fires (and noop is undefined anyway).
        i.eval("set x 1").unwrap();
    }

    #[test]
    fn self_writing_trace_is_bounded() {
        let mut i = Interp::new();
        i.eval("set n 0").unwrap();
        // A trace that writes its own variable: recursion must be bounded.
        i.eval("trace variable x w {incr n ;#}").unwrap();
        i.eval("trace variable x w {set x again ;#}").unwrap();
        i.eval("set x 1").unwrap();
        let n: i64 = i.get_var("n").unwrap().parse().unwrap();
        assert!((1..100).contains(&n), "trace ran {n} times");
    }

    #[test]
    fn trace_on_global_fires_from_proc() {
        // Trace callbacks run in the writer's frame, so they reach
        // globals through a proc, exactly as in C Tcl.
        let mut i = Interp::new();
        i.eval("set hits 0").unwrap();
        i.eval("proc bump {n e o} {global hits; incr hits}")
            .unwrap();
        i.eval("trace variable g w bump").unwrap();
        i.eval("proc f {} {global g; set g 1}").unwrap();
        i.eval("f").unwrap();
        assert_eq!(i.get_var("hits").unwrap(), "1");
    }

    #[test]
    fn errors() {
        let mut i = Interp::new();
        assert!(i.eval("trace bogus x").is_err());
        assert!(i.eval("trace variable x q {s}").is_err());
        assert!(i.eval("trace variable x").is_err());
    }
}
