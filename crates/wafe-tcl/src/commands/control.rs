//! Control-flow commands: `if while for foreach break continue proc return
//! global upvar uplevel switch case`.

use crate::error::{wrong_num_args, TclError, TclResult};
use crate::expr::{eval_expr_bool, prepare_expr};
use crate::glob::glob_match;
use crate::interp::{Interp, ProcDef};
use crate::list::parse_list;
use crate::value::Value;

pub(super) fn register(interp: &mut Interp) {
    interp.register("if", cmd_if);
    interp.register("while", cmd_while);
    interp.register("for", cmd_for);
    interp.register("foreach", cmd_foreach);
    interp.register("break", |_, argv| {
        if argv.len() != 1 {
            return Err(wrong_num_args("break"));
        }
        Err(TclError::Break)
    });
    interp.register("continue", |_, argv| {
        if argv.len() != 1 {
            return Err(wrong_num_args("continue"));
        }
        Err(TclError::Continue)
    });
    interp.register("proc", cmd_proc);
    interp.register("return", |_, argv| match argv.len() {
        1 => Err(TclError::Return(String::new())),
        2 => Err(TclError::Return(argv[1].to_string())),
        _ => Err(wrong_num_args("return ?value?")),
    });
    interp.register("global", |i, argv| {
        if argv.len() < 2 {
            return Err(wrong_num_args("global varName ?varName ...?"));
        }
        if i.level() == 0 {
            return Ok(Value::empty()); // No-op at global level, like Tcl.
        }
        for name in &argv[1..] {
            i.link_var(name, 0, name)?;
        }
        Ok(Value::empty())
    });
    interp.register("upvar", cmd_upvar);
    interp.register("uplevel", cmd_uplevel);
    interp.register("switch", cmd_switch);
    interp.register("case", cmd_case);
}

fn cmd_if(i: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    let usage = "if test ?then? body ?elseif test ?then? body ...? ?else? body";
    let mut a = 1usize;
    loop {
        if a >= argv.len() {
            return Err(wrong_num_args(usage));
        }
        let cond = eval_expr_bool(i, &argv[a])?;
        a += 1;
        if a < argv.len() && argv[a] == "then" {
            a += 1;
        }
        if a >= argv.len() {
            return Err(wrong_num_args(usage));
        }
        if cond {
            return i.eval_value(&argv[a]);
        }
        a += 1;
        if a >= argv.len() {
            return Ok(Value::empty());
        }
        match argv[a].as_str() {
            "elseif" => {
                a += 1;
                continue;
            }
            "else" => {
                a += 1;
                if a >= argv.len() {
                    return Err(wrong_num_args(usage));
                }
                return i.eval_value(&argv[a]);
            }
            _ => {
                // Bare else-body (Tcl 6 allowed omitting the keyword).
                return i.eval_value(&argv[a]);
            }
        }
    }
}

fn cmd_while(i: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    if argv.len() != 3 {
        return Err(wrong_num_args("while test command"));
    }
    // Parse the guard and body once; every iteration only substitutes.
    let test = prepare_expr(i, &argv[1])?;
    let body = i.compiled_value(&argv[2]);
    while test.eval(i)?.truthy()? {
        match i.eval_compiled(&body) {
            Ok(_) | Err(TclError::Continue) => {}
            Err(TclError::Break) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(Value::empty())
}

fn cmd_for(i: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    if argv.len() != 5 {
        return Err(wrong_num_args("for start test next command"));
    }
    i.eval_value(&argv[1])?;
    let test = prepare_expr(i, &argv[2])?;
    let next = i.compiled_value(&argv[3]);
    let body = i.compiled_value(&argv[4]);
    while test.eval(i)?.truthy()? {
        match i.eval_compiled(&body) {
            Ok(_) | Err(TclError::Continue) => {}
            Err(TclError::Break) => break,
            Err(e) => return Err(e),
        }
        i.eval_compiled(&next)?;
    }
    Ok(Value::empty())
}

fn cmd_foreach(i: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    if argv.len() != 4 {
        return Err(wrong_num_args("foreach varName list command"));
    }
    let vars = parse_list(&argv[1])?;
    if vars.is_empty() {
        return Err(TclError::error("foreach varlist is empty"));
    }
    // Iterate the shared list rep: each element is a cheap `Value` clone,
    // so loop variables keep any cached numeric rep of the elements.
    let items = argv[2].as_list()?;
    let body = i.compiled_value(&argv[3]);
    let mut idx = 0usize;
    while idx < items.len() {
        for v in &vars {
            let value = items.get(idx).cloned().unwrap_or_default();
            i.set_var(v, value)?;
            idx += 1;
        }
        match i.eval_compiled(&body) {
            Ok(_) | Err(TclError::Continue) => {}
            Err(TclError::Break) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(Value::empty())
}

fn cmd_proc(i: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    if argv.len() != 4 {
        return Err(wrong_num_args("proc name args body"));
    }
    let formals = parse_list(&argv[2])?;
    let mut args = Vec::with_capacity(formals.len());
    for f in &formals {
        let parts = parse_list(f)?;
        match parts.len() {
            1 => args.push((parts[0].clone(), None)),
            2 => args.push((parts[0].clone(), Some(parts[1].clone()))),
            _ => {
                return Err(TclError::Error(format!(
                    "too many fields in argument specifier \"{f}\""
                )))
            }
        }
    }
    i.define_proc(&argv[1], ProcDef::new(args, argv[3].to_string()));
    Ok(Value::empty())
}

fn cmd_upvar(i: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    // upvar ?level? otherVar myVar ?otherVar myVar ...?
    if argv.len() < 3 {
        return Err(wrong_num_args(
            "upvar ?level? otherVar localVar ?otherVar localVar ...?",
        ));
    }
    let (level, _) = parse_level(i, &argv[1]);
    let mut a = if level.is_some() { 2 } else { 1 };
    let target = level.unwrap_or_else(|| i.level().saturating_sub(1));
    if !(argv.len() - a).is_multiple_of(2) || argv.len() - a == 0 {
        return Err(wrong_num_args(
            "upvar ?level? otherVar localVar ?otherVar localVar ...?",
        ));
    }
    while a + 1 < argv.len() {
        i.link_var(&argv[a + 1], target, &argv[a])?;
        a += 2;
    }
    Ok(Value::empty())
}

fn cmd_uplevel(i: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    if argv.len() < 2 {
        return Err(wrong_num_args("uplevel ?level? command ?command ...?"));
    }
    let (level, a) = parse_level(i, &argv[1]);
    let target = level.unwrap_or_else(|| i.level().saturating_sub(1));
    let start = if level.is_some() { 2 } else { 1 };
    let _ = a;
    if start >= argv.len() {
        return Err(wrong_num_args("uplevel ?level? command ?command ...?"));
    }
    let script = argv[start..].join(" ");
    i.eval_at_level(target, &script)
}

/// Parses an optional `?level?` argument: `N` (absolute) or `#N` (absolute
/// from global) — Tcl uses `#N` for absolute and plain `N` for relative.
fn parse_level(i: &Interp, word: &str) -> (Option<usize>, usize) {
    if let Some(abs) = word.strip_prefix('#') {
        if let Ok(n) = abs.parse::<usize>() {
            return (Some(n), 2);
        }
    }
    if let Ok(n) = word.parse::<usize>() {
        if word.chars().all(|c| c.is_ascii_digit()) {
            return (Some(i.level().saturating_sub(n)), 2);
        }
    }
    (None, 1)
}

fn cmd_switch(i: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    let usage = "switch ?options? string pattern body ?pattern body ...?";
    let mut a = 1usize;
    let mut exact = false;
    while a < argv.len() && argv[a].starts_with('-') {
        match argv[a].as_str() {
            "-exact" => exact = true,
            "-glob" => exact = false,
            "--" => {
                a += 1;
                break;
            }
            other => {
                return Err(TclError::Error(format!(
                    "bad option \"{other}\": must be -exact, -glob, or --"
                )))
            }
        }
        a += 1;
    }
    if a >= argv.len() {
        return Err(wrong_num_args(usage));
    }
    let string = argv[a].to_string();
    a += 1;
    // Either one brace-grouped list of pattern/body pairs, or inline pairs.
    let pairs: Vec<String> = if argv.len() - a == 1 {
        parse_list(&argv[a])?
    } else {
        argv[a..].iter().map(|v| v.to_string()).collect()
    };
    if pairs.is_empty() || !pairs.len().is_multiple_of(2) {
        return Err(TclError::error("extra switch pattern with no body"));
    }
    let mut matched: Option<usize> = None;
    for (idx, chunk) in pairs.chunks(2).enumerate() {
        let pat = &chunk[0];
        let is_match = if pat == "default" && idx == pairs.len() / 2 - 1 {
            true
        } else if exact {
            *pat == string
        } else {
            glob_match(pat, &string)
        };
        if is_match {
            matched = Some(idx);
            break;
        }
    }
    if let Some(mut idx) = matched {
        // `-` bodies fall through to the next body.
        while pairs[idx * 2 + 1] == "-" {
            idx += 1;
            if idx * 2 + 1 >= pairs.len() {
                return Err(TclError::error("no body specified for pattern"));
            }
        }
        return i.eval(&pairs[idx * 2 + 1]);
    }
    Ok(Value::empty())
}

fn cmd_case(i: &mut Interp, argv: &[Value]) -> TclResult<Value> {
    // Tcl 6 `case string ?in? {patList body patList body ...}`.
    let mut a = 1usize;
    if a >= argv.len() {
        return Err(wrong_num_args(
            "case string ?in? patList body ?patList body ...?",
        ));
    }
    let string = argv[a].to_string();
    a += 1;
    if a < argv.len() && argv[a] == "in" {
        a += 1;
    }
    let pairs: Vec<String> = if argv.len() - a == 1 {
        parse_list(&argv[a])?
    } else {
        argv[a..].iter().map(|v| v.to_string()).collect()
    };
    if !pairs.len().is_multiple_of(2) {
        return Err(TclError::error("extra case pattern with no body"));
    }
    let mut default_body: Option<&String> = None;
    for chunk in pairs.chunks(2) {
        let pats = parse_list(&chunk[0])?;
        for p in &pats {
            if p == "default" {
                default_body = Some(&chunk[1]);
            } else if glob_match(p, &string) {
                return i.eval(&chunk[1]);
            }
        }
    }
    if let Some(body) = default_body {
        return i.eval(body);
    }
    Ok(Value::empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new() -> Interp {
        Interp::new()
    }

    #[test]
    fn if_forms() {
        let mut i = new();
        assert_eq!(i.eval("if 1 {set x yes}").unwrap(), "yes");
        assert_eq!(i.eval("if 0 {set x yes}").unwrap(), "");
        assert_eq!(i.eval("if 0 {set x a} else {set x b}").unwrap(), "b");
        assert_eq!(
            i.eval("if 0 {set x a} elseif 1 {set x b} else {set x c}")
                .unwrap(),
            "b"
        );
        assert_eq!(i.eval("if 1 then {set x t}").unwrap(), "t");
        // Bare else body (Tcl 6 style).
        assert_eq!(i.eval("if 0 {set x a} {set x bare}").unwrap(), "bare");
    }

    #[test]
    fn if_condition_substitutes_in_braces() {
        let mut i = new();
        i.eval("set x 5").unwrap();
        assert_eq!(i.eval("if {$x > 3} {set r big}").unwrap(), "big");
    }

    #[test]
    fn while_loop_with_break_continue() {
        let mut i = new();
        i.eval("set n 0; set sum 0").unwrap();
        i.eval("while {$n < 10} {incr n; if {$n == 3} continue; if {$n > 5} break; incr sum $n}")
            .unwrap();
        // 1+2+4+5 = 12
        assert_eq!(i.get_var("sum").unwrap(), "12");
    }

    #[test]
    fn for_loop() {
        let mut i = new();
        i.eval("set out {}").unwrap();
        i.eval("for {set j 0} {$j < 4} {incr j} {append out $j}")
            .unwrap();
        assert_eq!(i.get_var("out").unwrap(), "0123");
    }

    #[test]
    fn foreach_single_and_multi_var() {
        let mut i = new();
        i.eval("set out {}").unwrap();
        i.eval("foreach x {a b c} {append out $x}").unwrap();
        assert_eq!(i.get_var("out").unwrap(), "abc");
        i.eval("set out {}").unwrap();
        i.eval("foreach {k v} {x 1 y 2} {append out $k=$v,}")
            .unwrap();
        assert_eq!(i.get_var("out").unwrap(), "x=1,y=2,");
    }

    #[test]
    fn foreach_break() {
        let mut i = new();
        i.eval("set out {}").unwrap();
        i.eval("foreach x {1 2 3 4} {if {$x == 3} break; append out $x}")
            .unwrap();
        assert_eq!(i.get_var("out").unwrap(), "12");
    }

    #[test]
    fn return_value() {
        let mut i = new();
        i.eval("proc f {} {return early; set x never}").unwrap();
        assert_eq!(i.eval("f").unwrap(), "early");
        i.eval("proc g {} {return}").unwrap();
        assert_eq!(i.eval("g").unwrap(), "");
    }

    #[test]
    fn upvar_links_caller_variable() {
        let mut i = new();
        i.eval("proc setit {varname val} {upvar $varname v; set v $val}")
            .unwrap();
        i.eval("set mine old").unwrap();
        i.eval("setit mine new").unwrap();
        assert_eq!(i.get_var("mine").unwrap(), "new");
    }

    #[test]
    fn uplevel_evaluates_in_caller() {
        let mut i = new();
        i.eval("proc f {} {uplevel {set fromf 99}}").unwrap();
        i.eval("f").unwrap();
        assert_eq!(i.get_var("fromf").unwrap(), "99");
    }

    #[test]
    fn uplevel_absolute_level() {
        let mut i = new();
        i.eval("proc inner {} {uplevel #0 {set g inner}}").unwrap();
        i.eval("proc outer {} {inner}").unwrap();
        i.eval("outer").unwrap();
        assert_eq!(i.get_var("g").unwrap(), "inner");
    }

    #[test]
    fn switch_glob_and_default() {
        let mut i = new();
        assert_eq!(
            i.eval("switch abc {a* {set r glob} default {set r def}}")
                .unwrap(),
            "glob"
        );
        assert_eq!(
            i.eval("switch xyz {a* {set r glob} default {set r def}}")
                .unwrap(),
            "def"
        );
        assert_eq!(
            i.eval("switch -exact a* {a* {set r exact} default {set r def}}")
                .unwrap(),
            "exact"
        );
    }

    #[test]
    fn switch_fallthrough() {
        let mut i = new();
        assert_eq!(
            i.eval("switch b {a - b - c {set r abc} default {set r no}}")
                .unwrap(),
            "abc"
        );
    }

    #[test]
    fn switch_no_match_returns_empty() {
        let mut i = new();
        assert_eq!(i.eval("switch -exact zzz {a {set r 1}}").unwrap(), "");
    }

    #[test]
    fn case_command() {
        let mut i = new();
        assert_eq!(
            i.eval("case blue in {{red green} {set r warm} {blue} {set r cool}}")
                .unwrap(),
            "cool"
        );
        assert_eq!(
            i.eval("case mauve in {{red} {set r warm} default {set r other}}")
                .unwrap(),
            "other"
        );
    }

    #[test]
    fn break_outside_loop_is_error() {
        let mut i = new();
        let e = i.eval("proc f {} {break}; f").unwrap_err();
        assert!(e.message().contains("break"));
    }
}
