//! Property test: generated scripts from the bytecode-compilable subset
//! (`set`/`incr`/`expr`/`if`/`while`/`foreach`/`break`/`continue` over
//! small integers) evaluate identically under the VM and the
//! tree-walker — same result value or error message, same variable
//! state afterwards — on a first run and again on a second, which is
//! the one that executes bytecode for a script without a loop.
//!
//! Expression operands cover every form that substitutes: `$arr($i)`,
//! `$arr([incr k])`, `[...]` brackets (in guards inside a loop also ones
//! raising `break`, `continue` or `error`) and quoted operands holding
//! `$` and `[...]`.

use wafe_prop::{cases, Rng};
use wafe_tcl::{Interp, Metric};

const VARS: [&str; 4] = ["v0", "v1", "v2", "v3"];

/// Elements `arr(0)` .. `arr(ARR - 1)` exist; `$arr([incr k])` reads
/// past them only in long runs, which then fail identically.
const ARR: i64 = 64;

/// A random integer-valued expression over the variable pool. Division
/// and modulo are included: a zero divisor must error identically on
/// both engines. `ctl` (a guard inside a loop) lets a bracket operand
/// raise `break` or `continue`.
fn gen_expr(rng: &mut Rng, depth: usize, ctl: bool) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return gen_operand(rng, depth, ctl);
    }
    let a = gen_expr(rng, depth - 1, ctl);
    let b = gen_expr(rng, depth - 1, ctl);
    match rng.below(12) {
        0 => format!("({a} + {b})"),
        1 => format!("({a} - {b})"),
        2 => format!("({a} * {b})"),
        3 => format!("({a} / {b})"),
        4 => format!("({a} % {b})"),
        5 => format!("({a} < {b})"),
        6 => format!("({a} == {b})"),
        7 => format!("({a} && {b})"),
        8 => format!("({a} || {b})"),
        9 => format!("(-{a})"),
        10 => format!("({a} ? {b} : -1)"),
        _ => format!("(abs({a}) + min({a}, {b}))"),
    }
}

/// One integer-valued operand: a constant, a scalar, an array element,
/// a bracket (one holding a loop among them), or a comparison of quoted
/// operands.
fn gen_operand(rng: &mut Rng, depth: usize, ctl: bool) -> String {
    let v = rng.pick(&VARS);
    let w = rng.pick(&VARS);
    match rng.below(17) {
        0..=4 => format!("${v}"),
        5..=8 => rng.range_i64(-20, 100).to_string(),
        9 => "$arr($i)".into(),
        10 => "$arr([incr k])".into(),
        11 => format!("[set {v}]"),
        12 => format!("[expr {{{}}}]", gen_expr(rng, depth.saturating_sub(1), ctl)),
        13 => format!("(\"${v}\" == \"[set {w}]\")"),
        14 => format!("(\"a${v}\" < \"a[incr {w} 0]$arr($i)\")"),
        // A loop inside the bracket catches its own break/continue
        // while the numeric stack holds the operands to its left.
        15 => format!(
            "[foreach q {{1 2 3 4}} {{if {{$q > {}}} {}}}; set q]",
            rng.range(0, 5),
            if rng.chance() { "break" } else { "continue" }
        ),
        _ => {
            let cond = gen_expr(rng, 0, false);
            let raise = match rng.below(if ctl { 3 } else { 1 }) {
                0 => "{error oops}",
                1 => "break",
                _ => "continue",
            };
            format!("[if {{{cond} > 40}} {raise}; set {v}]")
        }
    }
}

/// One statement; `loops` limits nesting and `in_loop` gates the bare
/// break/continue forms (outside a loop they abort the script on both
/// engines, which is also fine, but mostly we want running bodies).
fn gen_stmt(rng: &mut Rng, loops: usize, in_loop: bool, uniq: &mut u32) -> String {
    let v = rng.pick(&VARS);
    match rng.below(if loops > 0 { 8 } else { 5 }) {
        0 => format!("set {v} {}", rng.range_i64(-50, 50)),
        1 => format!("set {v} [expr {{{}}}]", gen_expr(rng, 2, false)),
        2 => format!("incr {v} {}", rng.range_i64(-3, 4)),
        3 => {
            let cond = gen_expr(rng, 1, in_loop);
            let then = gen_stmt(rng, loops.saturating_sub(1), in_loop, uniq);
            if rng.chance() {
                let els = gen_stmt(rng, loops.saturating_sub(1), in_loop, uniq);
                format!("if {{{cond}}} {{{then}}} else {{{els}}}")
            } else {
                format!("if {{{cond}}} {{{then}}}")
            }
        }
        4 => {
            if in_loop && rng.below(4) == 0 {
                if rng.chance() {
                    "break".into()
                } else {
                    "continue".into()
                }
            } else {
                format!("set {v} done{}", rng.below(10))
            }
        }
        5 => {
            // A guaranteed-terminating while: a dedicated guard counter,
            // incremented first, that the body never reassigns.
            *uniq += 1;
            let g = format!("g{uniq}");
            let n = rng.range(1, 6);
            let body = gen_stmt(rng, loops - 1, true, uniq);
            let extra = gen_expr(rng, 1, in_loop);
            format!("set {g} 0; while {{${g} < {n} && {extra} != 7}} {{incr {g}; {body}}}")
        }
        6 => {
            let items: Vec<String> = (0..rng.range(0, 5))
                .map(|_| rng.range_i64(0, 30).to_string())
                .collect();
            let body = gen_stmt(rng, loops - 1, true, uniq);
            format!("foreach {v} {{{}}} {{{body}}}", items.join(" "))
        }
        _ => {
            let cond = gen_expr(rng, 1, in_loop);
            let body = gen_stmt(rng, loops - 1, in_loop, uniq);
            format!(
                "if {{{cond}}} {{{body}}} elseif {{{}}} {{{}}} else {{set {v} e}}",
                gen_expr(rng, 1, in_loop),
                gen_stmt(rng, loops.saturating_sub(1), in_loop, uniq)
            )
        }
    }
}

fn gen_script(rng: &mut Rng) -> String {
    let mut uniq = 0;
    let mut stmts: Vec<String> = VARS
        .iter()
        .map(|v| format!("set {v} {}", rng.range_i64(0, 10)))
        .collect();
    stmts.extend((0..ARR).map(|e| format!("set arr({e}) {}", e * 7 % 11)));
    stmts.push(format!("set i {}; set k 0", rng.range_i64(0, ARR)));
    for _ in 0..rng.range(1, 8) {
        stmts.push(gen_stmt(rng, 2, false, &mut uniq));
    }
    stmts.join("\n")
}

#[test]
fn generated_scripts_agree_with_tree_walker() {
    let vm_compiles = std::cell::Cell::new(0u64);
    cases(400, |rng| {
        let script = gen_script(rng);
        let mut vm = Interp::new();
        let mut tw = Interp::new();
        tw.set_bc_enabled(false);
        // Twice: a script without a loop tree-walks its first run on the
        // VM interpreter as well, and runs its bytecode on the second.
        for run in 1..=2 {
            let a = vm
                .eval(&script)
                .map(|v| v.to_string())
                .map_err(|e| e.message().to_string());
            let b = tw
                .eval(&script)
                .map(|v| v.to_string())
                .map_err(|e| e.message().to_string());
            assert_eq!(a, b, "result diverged on run {run} for script:\n{script}");
            for v in VARS.iter().chain(&["i", "k"]) {
                let a = vm.get_var(v).map(|x| x.to_string()).ok();
                let b = tw.get_var(v).map(|x| x.to_string()).ok();
                assert_eq!(
                    a, b,
                    "variable {v} diverged on run {run} for script:\n{script}"
                );
            }
        }
        vm_compiles.set(vm_compiles.get() + vm.metric(Metric::TclBcCompiles));
    });
    // Sanity: the generator must actually exercise the VM, not fall
    // back everywhere.
    assert!(
        vm_compiles.get() >= 400,
        "expected the VM to compile on nearly every case, got {}",
        vm_compiles.get()
    );
}
