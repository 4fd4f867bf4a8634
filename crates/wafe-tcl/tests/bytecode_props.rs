//! Property test: generated scripts from the bytecode-compilable subset
//! (`set`/`incr`/`expr`/`if`/`while`/`foreach`/`break`/`continue` over
//! small integers) evaluate identically under the VM and the
//! tree-walker — same result value or error message, same variable
//! state afterwards — on a first run and again on a second, which is
//! the one that executes bytecode for a script without a loop.

use wafe_prop::{cases, Rng};
use wafe_tcl::{Interp, Metric};

const VARS: [&str; 4] = ["v0", "v1", "v2", "v3"];

/// A random integer-valued expression over the variable pool. Division
/// and modulo are included: a zero divisor must error identically on
/// both engines.
fn gen_expr(rng: &mut Rng, depth: usize) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return if rng.chance() {
            format!("${}", rng.pick(&VARS))
        } else {
            rng.range_i64(-20, 100).to_string()
        };
    }
    let a = gen_expr(rng, depth - 1);
    let b = gen_expr(rng, depth - 1);
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

/// One statement; `loops` limits nesting and `in_loop` gates the bare
/// break/continue forms (outside a loop they abort the script on both
/// engines, which is also fine, but mostly we want running bodies).
fn gen_stmt(rng: &mut Rng, loops: usize, in_loop: bool, uniq: &mut u32) -> String {
    let v = rng.pick(&VARS);
    match rng.below(if loops > 0 { 8 } else { 5 }) {
        0 => format!("set {v} {}", rng.range_i64(-50, 50)),
        1 => format!("set {v} [expr {{{}}}]", gen_expr(rng, 2)),
        2 => format!("incr {v} {}", rng.range_i64(-3, 4)),
        3 => {
            let cond = gen_expr(rng, 1);
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
            format!("set {g} 0; while {{${g} < {n}}} {{incr {g}; {body}}}")
        }
        6 => {
            let items: Vec<String> = (0..rng.range(0, 5))
                .map(|_| rng.range_i64(0, 30).to_string())
                .collect();
            let body = gen_stmt(rng, loops - 1, true, uniq);
            format!("foreach {v} {{{}}} {{{body}}}", items.join(" "))
        }
        _ => {
            let cond = gen_expr(rng, 1);
            let body = gen_stmt(rng, loops - 1, in_loop, uniq);
            format!(
                "if {{{cond}}} {{{body}}} elseif {{{}}} {{{}}} else {{set {v} e}}",
                gen_expr(rng, 1),
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
            for v in VARS {
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
