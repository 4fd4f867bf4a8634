//! Bytecode compiler and VM: the Tcl 8.0-style execution layer.
//!
//! `bytecode_for` lowers a [`CompiledScript`] to a flat instruction
//! stream over a `Vec<Value>` operand stack, cached on the script itself
//! (shared by the parse cache, `Value` script reps and proc bodies, so a
//! body compiles once no matter how it is reached).
//!
//! Lowering is tiered, as `Tcl_EvalEx` keeps bytecode only for code that
//! is reused. A script's first run tree-walks and marks it
//! `BcSlot::Seen`; its second run lowers it. A script that *iterates*
//! (one of its commands, or of its `[...]` scripts, starts with a literal
//! `while`, `for` or `foreach`; see `CompiledScript::iterates`) is
//! lowered on its first run, because entering the VM once per iteration
//! of a tree-walked loop costs more than running the whole loop in it.
//! So a one-shot protocol line never pays for lowering, and proc bodies,
//! loop bodies and cached text reach bytecode from their second run on.
//!
//! The compiler inlines a small set of special forms — `set incr expr
//! if while for foreach break continue` — turning loops into jumps and
//! `expr` trees into arithmetic opcodes, and lowers everything else to
//! the generic substitute-and-invoke sequence the tree-walker performs.
//!
//! Two rules keep the layer safe:
//!
//! * **Never wrong, just less inlined.** A special form is inlined only
//!   when its structure is fully literal *and* the command name still
//!   resolves to the pristine built-in (`Interp::bc_special_pristine`);
//!   otherwise the command lowers to a generic invoke of whatever is
//!   bound at run time. Rebinding one of the inlined names bumps
//!   `Interp::bc_epoch`, so already-compiled scripts recompile instead of
//!   bypassing the new binding.
//! * **Decline, don't guess.** A script the compiler cannot express
//!   (instruction budget exceeded) is marked uncompilable and every
//!   execution falls back to the tree-walker — identical results, counted
//!   as a bytecode fallback (`Metric::TclBcFallbacks`).
//!
//! Two execution-level designs carry the performance:
//!
//! * **A numeric scratch stack.** `expr` sequences run on a separate
//!   `Vec<expr::Value>` — plain `Int`/`Dbl` machine values, exactly the
//!   representation the tree-walking evaluator threads through
//!   `eval_node` — so arithmetic intermediates never allocate a heap
//!   `Value`. Only the final result crosses back to the main stack
//!   (`NToValue`), the same boundary conversion `eval_expr_value`
//!   performs, which also makes non-finite doubles behave identically.
//! * **A per-execution variable cache with deferred writes.** Scalar
//!   reads and writes go through a cache indexed by the compiled name
//!   pool, skipping the name-hashing of the frame map on every loop
//!   iteration. The first touch of a name goes through the frame (so
//!   "no such variable"/"variable is array" errors surface exactly
//!   where the tree-walker raises them); once a slot is proven scalar,
//!   writes accumulate in the cache and are *flushed* before any
//!   instruction through which other code could observe them — generic
//!   invokes, nested evals, array operations — and when execution ends.
//!   After such an instruction returns, the cache is dropped entirely
//!   (a *barrier*: the invoked code may have written variables or
//!   switched frames). The cache is bypassed while the active frame
//!   holds `global`/`upvar` links (two names could alias one variable)
//!   or any write trace is registered (trace scripts must fire on every
//!   write, in order, and may touch anything).
//!
//! `break`/`continue` remain the `TclError::Break`/`Continue` completion
//! codes. The VM keeps a side table of `LoopRange`s; when an
//! instruction inside a loop body raises one, the operand, numeric and
//! iterator stacks are truncated to the loop's entry depths (a loop
//! inside an `expr` operand's bracket is entered with operands already
//! on the numeric stack) and control jumps to the break/continue
//! target. Outside any range the code propagates to the caller exactly
//! as the tree-walker would (so `catch`, proc frames and guard
//! expressions behave identically).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::compile::{syntax_error, CompiledCommand, CompiledScript, Token};
use crate::error::{TclError, TclResult};
use crate::expr::{
    coerce_value, eval_binop, eval_func, eval_unop, into_tcl_value, prepare_expr, BinOp, Op, UnOp,
    Value as EValue,
};
use crate::interp::{Interp, BC_SPECIAL_NAMES};
use crate::list::parse_list;
use crate::value::Value;
use wafe_trace::Metric;

/// The per-script compilation budget; larger scripts tree-walk.
const MAX_CODE: usize = 1 << 16;
/// Scripts nested deeper than this (bracket substitutions, loop bodies)
/// stop inlining and run through an `EvalScript` escape instead.
const MAX_INLINE: u32 = 64;
/// `consts[EMPTY]` is always the shared empty-string value.
const EMPTY: u32 = 0;
/// Marker for "scalar variable" in [`Instr::IncrVar`].
const NO_ELEM: u32 = u32::MAX;

/// The bytecode cache slot carried by every [`CompiledScript`].
#[derive(Debug, Clone, Default)]
pub(crate) enum BcSlot {
    /// Never run.
    #[default]
    Unknown,
    /// Run once, tree-walked: the next run lowers it.
    Seen,
    /// The compiler declined (budget); sticky — structure cannot change.
    Uncompilable,
    /// Compiled at the given [`Interp::bc_epoch`]; stale stamps recompile.
    Ready { epoch: u64, code: Rc<ByteCode> },
}

/// One VM instruction. Operands index the pools in [`ByteCode`].
/// `N`-prefixed instructions work the numeric scratch stack (the `expr`
/// domain); the rest work the main `Value` stack.
#[derive(Debug, Clone, Copy)]
enum Instr {
    /// Push `consts[k]` (a shared `Value`: cached reps accumulate across
    /// iterations exactly like the tree-walker's shared literal tokens).
    PushConst(u32),
    /// Discard the top of stack (between commands of a script).
    Pop,
    /// Push the value of scalar `names[n]`.
    LoadVar(u32),
    /// Push the value of `names[n](names[e])`.
    LoadElem(u32, u32),
    /// Pop `k` parts, concatenate their strings into an element index,
    /// push the value of `names[n](index)`.
    LoadElemDyn(u32, u32),
    /// Pop `k` parts, push their string concatenation (compound words).
    Concat(u32),
    /// Pop a value, assign scalar `names[n]`, push the value back
    /// (`set`'s result).
    StoreVar(u32),
    /// Peephole-fused `StoreVar` + `Pop`: assign without pushing the
    /// discarded result (a `set` in statement position).
    StoreVarPop(u32),
    /// Pop a value, assign `names[n](names[e])`, push it back.
    StoreElem(u32, u32),
    /// `incr` fast path: add the immediate to `names[n]` (scalar when the
    /// element slot is `NO_ELEM`, else `names[n](names[e])`), push the new
    /// value.
    IncrVar(u32, u32, i64),
    /// Peephole-fused `IncrVar` + `Pop` (an `incr` in statement position).
    IncrVarPop(u32, u32, i64),
    /// Pop `argc` words (command name first), dispatch through
    /// [`Interp::invoke`] — the generic path every non-inlined command
    /// takes — and push the result. The second operand is the inlining
    /// level of the call site: the nesting depth the tree-walker would
    /// have charged by then. Barrier.
    Invoke(u32, u32),
    /// Evaluate `scripts[s]` (nested-depth accounting included, from the
    /// site's inlining level) and push its result: the escape for
    /// over-deep inlining. Barrier.
    EvalScript(u32, u32),
    /// Unconditional jump.
    Jump(u32),
    /// Raise `TclError::Break` (unwound by the enclosing loop range).
    Break,
    /// Raise `TclError::Continue`.
    Continue,
    /// Pop the list value, parse it, push an iterator state.
    ForeachInit,
    /// Assign the next round of `foreach[i]`'s variables; when the list
    /// is exhausted pop the iterator and jump to the end target.
    ForeachStep(u32, u32),
    /// Push `nums[k]` onto the numeric stack.
    NPushNum(u32),
    /// Push the coerced value of scalar `names[n]` onto the numeric
    /// stack (the `$var` operand of an expression).
    NLoadVar(u32),
    /// Peephole-fused pair of adjacent `NLoadVar`s (both operands of a
    /// comparison like `$n % $d == 0` in one dispatch).
    NLoadVar2(u32, u32),
    /// Pop a main-stack value, push its coerced form onto the numeric
    /// stack: a `$name(index)` or `[script]` operand, lowered by the
    /// word emitter just before.
    NCoerce,
    /// Pop two numeric operands, apply the binary operator, push.
    NBin(BinOp),
    /// Peephole-fused `NPushNum` + `NBin`: apply the operator with
    /// `nums[k]` as the right operand (`$i * 3`, `$n % 2`).
    NBinNum(BinOp, u32),
    /// Peephole-fused `NBin` + `NJumpIfFalse`: apply the operator and
    /// branch on the result without a round-trip through the stack (the
    /// closing compare of every loop guard).
    NBinJumpIfFalse(BinOp, u32),
    /// Peephole-fused `NBinNum` + `NJumpIfFalse` (`$i < 1000` guards in
    /// a single dispatch after the load).
    NBinNumJumpIfFalse(BinOp, u32, u32),
    /// Pop one numeric operand, apply the unary operator, push.
    NUn(UnOp),
    /// Pop, push 1/0 for its truthiness (`&&`/`||` results).
    NTruth,
    /// Pop `argc` numeric operands, call math function `names[n]`, push.
    NCallFunc(u32, u32),
    /// Pop a numeric operand, jump when false (guards and `&&`).
    NJumpIfFalse(u32),
    /// Pop a numeric operand, jump when true (`||`).
    NJumpIfTrue(u32),
    /// Pop the numeric result, push it on the main stack as a `Value` —
    /// the `eval_expr_value` boundary conversion.
    NToValue,
}

/// Display names for the profiler's per-opcode hit counters, indexed by
/// [`Instr::opcode`]. Keep in `Instr` declaration order.
pub(crate) const OPCODE_NAMES: [&str; 32] = [
    "PushConst",
    "Pop",
    "LoadVar",
    "LoadElem",
    "LoadElemDyn",
    "Concat",
    "StoreVar",
    "StoreVarPop",
    "StoreElem",
    "IncrVar",
    "IncrVarPop",
    "Invoke",
    "EvalScript",
    "Jump",
    "Break",
    "Continue",
    "ForeachInit",
    "ForeachStep",
    "NPushNum",
    "NLoadVar",
    "NLoadVar2",
    "NCoerce",
    "NBin",
    "NBinNum",
    "NBinJumpIfFalse",
    "NBinNumJumpIfFalse",
    "NUn",
    "NTruth",
    "NCallFunc",
    "NJumpIfFalse",
    "NJumpIfTrue",
    "NToValue",
];

impl Instr {
    /// Index into [`OPCODE_NAMES`] / the profiler's hit table.
    fn opcode(&self) -> usize {
        match self {
            Instr::PushConst(..) => 0,
            Instr::Pop => 1,
            Instr::LoadVar(..) => 2,
            Instr::LoadElem(..) => 3,
            Instr::LoadElemDyn(..) => 4,
            Instr::Concat(..) => 5,
            Instr::StoreVar(..) => 6,
            Instr::StoreVarPop(..) => 7,
            Instr::StoreElem(..) => 8,
            Instr::IncrVar(..) => 9,
            Instr::IncrVarPop(..) => 10,
            Instr::Invoke(..) => 11,
            Instr::EvalScript(..) => 12,
            Instr::Jump(..) => 13,
            Instr::Break => 14,
            Instr::Continue => 15,
            Instr::ForeachInit => 16,
            Instr::ForeachStep(..) => 17,
            Instr::NPushNum(..) => 18,
            Instr::NLoadVar(..) => 19,
            Instr::NLoadVar2(..) => 20,
            Instr::NCoerce => 21,
            Instr::NBin(..) => 22,
            Instr::NBinNum(..) => 23,
            Instr::NBinJumpIfFalse(..) => 24,
            Instr::NBinNumJumpIfFalse(..) => 25,
            Instr::NUn(..) => 26,
            Instr::NTruth => 27,
            Instr::NCallFunc(..) => 28,
            Instr::NJumpIfFalse(..) => 29,
            Instr::NJumpIfTrue(..) => 30,
            Instr::NToValue => 31,
        }
    }
}

/// Break/continue region: any `Break`/`Continue` raised at a pc in
/// `[start, end)` truncates the stacks and jumps instead of propagating.
#[derive(Debug, Clone, Copy)]
struct LoopRange {
    start: u32,
    end: u32,
    break_to: u32,
    cont_to: u32,
    /// Operand-stack depth at loop entry.
    stack: u32,
    /// Numeric-stack depth at loop entry (non-zero for a loop inside a
    /// `[...]` operand of an expression).
    nums: u32,
    /// Iterator-stack depth after a break (foreach pops its iterator).
    iters_break: u32,
    /// Iterator-stack depth after a continue (foreach keeps iterating).
    iters_cont: u32,
}

/// The loop variables of one `foreach`, as name-pool indices.
#[derive(Debug)]
struct ForeachInfo {
    vars: Vec<u32>,
}

/// A compiled script: flat code plus its constant/name/script pools.
#[derive(Debug)]
pub(crate) struct ByteCode {
    code: Vec<Instr>,
    consts: Vec<Value>,
    /// Numeric/string literals of `expr` programs (`Int`/`Dbl`, plus
    /// non-numeric `Str` literals, which clone exactly as the
    /// tree-walker clones `Op::Lit`).
    nums: Vec<EValue>,
    names: Vec<Rc<str>>,
    scripts: Vec<Rc<CompiledScript>>,
    loops: Vec<LoopRange>,
    foreach: Vec<ForeachInfo>,
    /// How many nested evaluations the code inlined at its deepest
    /// point: the tree-walker would be this many levels deeper there.
    pub(crate) nesting: usize,
}

/// Returns the bytecode for `script`, compiling (or recompiling after an
/// epoch bump) on demand. `None` means the caller must tree-walk: the
/// script is uncompilable (a cached verdict, so repeat executions pay
/// one enum check) or is on its first run and does not iterate, which
/// defers lowering to the second run (`Metric::TclBcDeferred`). A script
/// holding a syntax error is never lowered (the tree-walker raises it)
/// and is counted neither as a fallback nor as deferred.
pub(crate) fn bytecode_for(interp: &mut Interp, script: &CompiledScript) -> Option<Rc<ByteCode>> {
    if script.syntax_error {
        return None;
    }
    match &mut *script.bc.borrow_mut() {
        BcSlot::Ready { epoch, code } if *epoch == interp.bc_epoch => {
            let code = code.clone();
            interp.telemetry().count(Metric::TclBcHits);
            return Some(code);
        }
        BcSlot::Uncompilable => {
            interp.telemetry().count(Metric::TclBcFallbacks);
            return None;
        }
        slot @ BcSlot::Unknown if !script.iterates => {
            *slot = BcSlot::Seen;
            interp.telemetry().count(Metric::TclBcDeferred);
            return None;
        }
        _ => {}
    }
    match Compiler::lower(interp, script) {
        Some(code) => {
            interp.telemetry().count(Metric::TclBcCompiles);
            let code = Rc::new(code);
            *script.bc.borrow_mut() = BcSlot::Ready {
                epoch: interp.bc_epoch,
                code: code.clone(),
            };
            Some(code)
        }
        None => {
            interp.telemetry().count(Metric::TclBcFallbacks);
            *script.bc.borrow_mut() = BcSlot::Uncompilable;
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/// Compile-time operand/numeric/iterator depths, threaded through the
/// lowering so loop ranges know what to truncate to on break/continue.
#[derive(Clone, Copy, Default)]
struct Ctx {
    depth: u32,
    nums: u32,
    iters: u32,
}

struct Compiler<'a> {
    interp: &'a mut Interp,
    code: Vec<Instr>,
    consts: Vec<Value>,
    nums: Vec<EValue>,
    names: Vec<Rc<str>>,
    scripts: Vec<Rc<CompiledScript>>,
    loops: Vec<LoopRange>,
    foreach: Vec<ForeachInfo>,
    inline: u32,
    /// The deepest `inline` level any script was lowered at.
    max_inline: u32,
    /// Every jump target is a position returned by `here()`; this is the
    /// highest such position handed out so far. The peephole helpers
    /// refuse to fuse an instruction into its predecessor (or remove a
    /// trailing pair) when a label could point at the position being
    /// folded away — fusing *at* a labeled position is fine (the fused
    /// instruction performs the full original sequence from there), but
    /// folding the instruction a label points *to* into an earlier slot
    /// would skip work on the jumping path.
    label_mark: usize,
}

impl<'a> Compiler<'a> {
    fn lower(interp: &'a mut Interp, script: &CompiledScript) -> Option<ByteCode> {
        let mut c = Compiler {
            interp,
            code: Vec::new(),
            consts: vec![Value::empty()],
            nums: Vec::new(),
            names: Vec::new(),
            scripts: Vec::new(),
            loops: Vec::new(),
            foreach: Vec::new(),
            inline: 0,
            max_inline: 0,
            label_mark: 0,
        };
        c.script(script, Ctx::default());
        if c.code.len() > MAX_CODE {
            return None;
        }
        Some(ByteCode {
            code: c.code,
            consts: c.consts,
            nums: c.nums,
            names: c.names,
            scripts: c.scripts,
            loops: c.loops,
            foreach: c.foreach,
            nesting: c.max_inline as usize,
        })
    }

    // ----- emission helpers ------------------------------------------

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    /// The current position, as a jump target. Also pins it against the
    /// peephole helpers: the next instruction emitted here must stay.
    fn here(&mut self) -> u32 {
        self.label_mark = self.code.len();
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Instr::Jump(t)
            | Instr::NJumpIfFalse(t)
            | Instr::NJumpIfTrue(t)
            | Instr::NBinJumpIfFalse(_, t)
            | Instr::NBinNumJumpIfFalse(_, _, t)
            | Instr::ForeachStep(_, t) => *t = target,
            _ => unreachable!("patch target is not a jump"),
        }
    }

    /// Whether the last emitted instruction may be fused into or folded
    /// away (no label can point past it).
    fn fusable(&self) -> bool {
        self.code.len() > self.label_mark
    }

    /// Emits a `Pop`, folding it into a fusable predecessor: a stored or
    /// incremented value whose result is discarded skips the push, and a
    /// constant pushed just to be dropped (a loop's empty result in
    /// statement position) disappears with its `Pop` entirely.
    fn emit_pop(&mut self) {
        if self.fusable() {
            match self.code.last().copied() {
                Some(Instr::PushConst(_)) => {
                    self.code.pop();
                    return;
                }
                Some(Instr::StoreVar(n)) => {
                    *self.code.last_mut().unwrap() = Instr::StoreVarPop(n);
                    return;
                }
                Some(Instr::IncrVar(n, e, amount)) => {
                    *self.code.last_mut().unwrap() = Instr::IncrVarPop(n, e, amount);
                    return;
                }
                _ => {}
            }
        }
        self.emit(Instr::Pop);
    }

    /// Emits an `NLoadVar`, pairing it with an immediately preceding one.
    fn emit_nloadvar(&mut self, n: u32) {
        if self.fusable() {
            if let Some(Instr::NLoadVar(a)) = self.code.last().copied() {
                *self.code.last_mut().unwrap() = Instr::NLoadVar2(a, n);
                return;
            }
        }
        self.emit(Instr::NLoadVar(n));
    }

    /// Emits a binary operator, folding an immediately preceding
    /// constant push into its right operand.
    fn emit_nbin(&mut self, op: BinOp) {
        if self.fusable() {
            if let Some(Instr::NPushNum(k)) = self.code.last().copied() {
                *self.code.last_mut().unwrap() = Instr::NBinNum(op, k);
                return;
            }
        }
        self.emit(Instr::NBin(op));
    }

    /// Emits a branch-if-false (target patched later), folding it into an
    /// immediately preceding binary operator.
    fn emit_branch_false(&mut self) -> usize {
        if self.fusable() {
            match self.code.last().copied() {
                Some(Instr::NBin(op)) => {
                    *self.code.last_mut().unwrap() = Instr::NBinJumpIfFalse(op, 0);
                    return self.code.len() - 1;
                }
                Some(Instr::NBinNum(op, k)) => {
                    *self.code.last_mut().unwrap() = Instr::NBinNumJumpIfFalse(op, k, 0);
                    return self.code.len() - 1;
                }
                _ => {}
            }
        }
        self.emit(Instr::NJumpIfFalse(0))
    }

    fn konst(&mut self, v: Value) -> u32 {
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn num(&mut self, v: EValue) -> u32 {
        self.nums.push(v);
        (self.nums.len() - 1) as u32
    }

    fn name(&mut self, s: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| &**n == s) {
            return i as u32;
        }
        self.names.push(Rc::from(s));
        (self.names.len() - 1) as u32
    }

    fn script_ref(&mut self, s: Rc<CompiledScript>) -> u32 {
        self.scripts.push(s);
        (self.scripts.len() - 1) as u32
    }

    // ----- script / command lowering ---------------------------------

    /// Lowers a script; net effect is one value (its result) pushed.
    fn script(&mut self, s: &CompiledScript, ctx: Ctx) {
        self.max_inline = self.max_inline.max(self.inline);
        if s.commands.is_empty() {
            self.emit(Instr::PushConst(EMPTY));
            return;
        }
        for (i, cmd) in s.commands.iter().enumerate() {
            if i > 0 {
                self.emit_pop();
            }
            self.command(cmd, ctx);
        }
    }

    /// Lowers one command (net one value pushed): the inlined special
    /// form when possible, the generic invoke sequence otherwise.
    fn command(&mut self, cmd: &CompiledCommand, ctx: Ctx) {
        let code_mark = self.code.len();
        let loop_mark = self.loops.len();
        if self.special(cmd, ctx).is_none() {
            // A special form declined partway through (non-literal
            // structure, unparseable guard, numeric-string literal in an
            // expr): drop whatever it emitted and lower generically. The
            // command behaves exactly as the tree-walker because the real
            // built-in runs.
            self.code.truncate(code_mark);
            self.loops.truncate(loop_mark);
            self.generic(cmd, ctx);
        }
    }

    fn generic(&mut self, cmd: &CompiledCommand, ctx: Ctx) {
        for (i, w) in cmd.words.iter().enumerate() {
            self.token(
                w,
                Ctx {
                    depth: ctx.depth + i as u32,
                    ..ctx
                },
            );
        }
        self.emit(Instr::Invoke(cmd.words.len() as u32, self.inline));
    }

    /// Lowers one word token (net one value pushed). `ctx.depth` is the
    /// operand depth before the token's value lands.
    fn token(&mut self, t: &Token, ctx: Ctx) {
        match t {
            Token::Literal(v) => {
                let k = self.konst(v.clone());
                self.emit(Instr::PushConst(k));
            }
            Token::VarSub(name, None) => {
                let n = self.name(name);
                self.emit(Instr::LoadVar(n));
            }
            Token::VarSub(name, Some(parts)) => {
                if let [Token::Literal(lit)] = parts.as_slice() {
                    let n = self.name(name);
                    let e = self.name(lit.as_str());
                    self.emit(Instr::LoadElem(n, e));
                } else {
                    let n = self.name(name);
                    for (i, p) in parts.iter().enumerate() {
                        self.token(
                            p,
                            Ctx {
                                depth: ctx.depth + i as u32,
                                ..ctx
                            },
                        );
                    }
                    self.emit(Instr::LoadElemDyn(n, parts.len() as u32));
                }
            }
            Token::BracketSub(inner) => {
                if self.inline < MAX_INLINE {
                    self.inline += 1;
                    self.script(inner, ctx);
                    self.inline -= 1;
                } else {
                    let s = self.script_ref(inner.clone());
                    self.emit(Instr::EvalScript(s, self.inline));
                }
            }
            Token::Compound(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    self.token(
                        p,
                        Ctx {
                            depth: ctx.depth + i as u32,
                            ..ctx
                        },
                    );
                }
                self.emit(Instr::Concat(parts.len() as u32));
            }
            Token::Error(_) => unreachable!("scripts holding a syntax error are never lowered"),
        }
    }

    // ----- special forms ---------------------------------------------

    /// Tries to inline `cmd` as a special form. `None` = lower generically
    /// (after the caller rolls back anything partially emitted).
    fn special(&mut self, cmd: &CompiledCommand, ctx: Ctx) -> Option<()> {
        let Some(Token::Literal(name)) = cmd.words.first() else {
            return None;
        };
        let name = name.as_str();
        if !BC_SPECIAL_NAMES.contains(&name) || !self.interp.bc_special_pristine(name) {
            return None;
        }
        match name {
            "set" => self.sf_set(cmd, ctx),
            "incr" => self.sf_incr(cmd),
            "expr" => self.sf_expr(cmd, ctx),
            "if" => self.sf_if(cmd, ctx),
            "while" => self.sf_while(cmd, ctx),
            "for" => self.sf_for(cmd, ctx),
            "foreach" => self.sf_foreach(cmd, ctx),
            "break" if cmd.words.len() == 1 => {
                self.emit(Instr::Break);
                Some(())
            }
            "continue" if cmd.words.len() == 1 => {
                self.emit(Instr::Continue);
                Some(())
            }
            _ => None,
        }
    }

    fn sf_set(&mut self, cmd: &CompiledCommand, ctx: Ctx) -> Option<()> {
        let Some(Token::Literal(spec)) = cmd.words.get(1) else {
            return None;
        };
        let (name, idx) = crate::commands::split_varspec(spec.as_str());
        match cmd.words.len() {
            2 => {
                let n = self.name(&name);
                match idx {
                    None => self.emit(Instr::LoadVar(n)),
                    Some(i) => {
                        let e = self.name(&i);
                        self.emit(Instr::LoadElem(n, e))
                    }
                };
                Some(())
            }
            3 => {
                self.token(&cmd.words[2], ctx);
                let n = self.name(&name);
                match idx {
                    None => self.emit(Instr::StoreVar(n)),
                    Some(i) => {
                        let e = self.name(&i);
                        self.emit(Instr::StoreElem(n, e))
                    }
                };
                Some(())
            }
            _ => None,
        }
    }

    fn sf_incr(&mut self, cmd: &CompiledCommand) -> Option<()> {
        if cmd.words.len() != 2 && cmd.words.len() != 3 {
            return None;
        }
        let Token::Literal(spec) = &cmd.words[1] else {
            return None;
        };
        let amount = match cmd.words.get(2) {
            None => 1,
            // The literal must strict-parse at compile time; otherwise the
            // generic path reports `expected integer but got ...` exactly
            // as `incr` does.
            Some(Token::Literal(amt)) => amt.as_int()?,
            Some(_) => return None,
        };
        let (name, idx) = crate::commands::split_varspec(spec.as_str());
        let n = self.name(&name);
        let e = match idx {
            Some(i) => self.name(&i),
            None => NO_ELEM,
        };
        self.emit(Instr::IncrVar(n, e, amount));
        Some(())
    }

    fn sf_expr(&mut self, cmd: &CompiledCommand, ctx: Ctx) -> Option<()> {
        if cmd.words.len() != 2 {
            return None;
        }
        let Token::Literal(text) = &cmd.words[1] else {
            return None;
        };
        self.guard(text, ctx)?;
        self.emit(Instr::NToValue);
        Some(())
    }

    /// Lowers a parsed expression onto the numeric stack, op for op in
    /// the program's order; the jumps land where the program's jumps do.
    /// `ctx.nums` is the numeric depth before the expression's value
    /// lands, and each operand is lowered at that depth plus the
    /// program's stack depth at its op.
    fn expr(&mut self, ops: &[Op], ctx: Ctx) -> Option<()> {
        // Emitted jumps waiting for their target op: (op index, pc).
        let mut jumps = BinaryHeap::new();
        let mut depth = ctx.nums as usize;
        for (i, op) in ops.iter().enumerate() {
            self.land(&mut jumps, i);
            match op {
                Op::Lit(v) => {
                    let k = self.num(v.clone());
                    self.emit(Instr::NPushNum(k));
                }
                Op::Var(name) => {
                    let n = self.name(name);
                    self.emit_nloadvar(n);
                }
                Op::Sub(t) => {
                    // The word emitter never lowers a syntax error: the
                    // built-in raises it when the operand is reached.
                    if syntax_error(t).is_some() {
                        return None;
                    }
                    let nums = depth as u32;
                    self.token(t, Ctx { nums, ..ctx });
                    self.emit(Instr::NCoerce);
                }
                Op::Un(op) => {
                    self.emit(Instr::NUn(*op));
                }
                Op::Bin(op) => self.emit_nbin(*op),
                Op::Call(name, argc) => {
                    let n = self.name(name);
                    self.emit(Instr::NCallFunc(n, *argc as u32));
                }
                Op::JumpIfFalse(t) => jumps.push(Reverse((*t, self.emit_branch_false()))),
                Op::JumpIfTrue(t) => jumps.push(Reverse((*t, self.emit(Instr::NJumpIfTrue(0))))),
                Op::Jump(t) => jumps.push(Reverse((*t, self.emit(Instr::Jump(0))))),
                Op::Truth => {
                    self.emit(Instr::NTruth);
                }
            }
            depth = op.depth_after(depth);
        }
        self.land(&mut jumps, ops.len());
        Some(())
    }

    /// Patches the jumps whose target is op `i` to the current position.
    fn land(&mut self, jumps: &mut BinaryHeap<Reverse<(usize, usize)>>, i: usize) {
        while let Some(&Reverse((target, at))) = jumps.peek() {
            if target != i {
                break;
            }
            jumps.pop();
            let here = self.here();
            self.patch(at, here);
        }
    }

    /// Lowers a literal body value: inline its compiled script, or an
    /// `EvalScript` escape past the inlining depth. `None` when the body
    /// holds a syntax error (the built-in must run it, so the commands
    /// before the error run first and then it raises).
    fn body(&mut self, v: &Value, ctx: Ctx) -> Option<()> {
        let rc = self.interp.compiled_value(v);
        if rc.syntax_error {
            return None;
        }
        if self.inline < MAX_INLINE {
            self.inline += 1;
            self.script(&rc, ctx);
            self.inline -= 1;
        } else {
            let s = self.script_ref(rc);
            self.emit(Instr::EvalScript(s, self.inline));
        }
        Some(())
    }

    /// Lowers a literal expression text (an `expr` word or a guard),
    /// parsed through the expr cache — the parse the tree-walker would do
    /// on first evaluation, done once here. `None` when it does not parse
    /// (the built-in raises the error) or holds an operand the numeric
    /// stack cannot carry.
    fn guard(&mut self, text: &Value, ctx: Ctx) -> Option<()> {
        let Ok(ce) = prepare_expr(self.interp, text.as_str()) else {
            return None;
        };
        self.expr(ce.ops(), ctx)
    }

    fn sf_if(&mut self, cmd: &CompiledCommand, ctx: Ctx) -> Option<()> {
        // Structure detection needs every word literal (a substituted word
        // could *be* "elseif" at run time).
        let words: Vec<&Value> = cmd
            .words
            .iter()
            .map(|t| match t {
                Token::Literal(v) => Some(v),
                _ => None,
            })
            .collect::<Option<_>>()?;
        let mut a = 1usize;
        let mut end_jumps = Vec::new();
        loop {
            let guard = words.get(a)?;
            a += 1;
            if a < words.len() && words[a].as_str() == "then" {
                a += 1;
            }
            let then_body = words.get(a)?;
            a += 1;
            self.guard(guard, ctx)?;
            let jf = self.emit_branch_false();
            self.body(then_body, ctx)?;
            end_jumps.push(self.emit(Instr::Jump(0)));
            let at = self.here();
            self.patch(jf, at);
            if a >= words.len() {
                self.emit(Instr::PushConst(EMPTY));
                break;
            }
            match words[a].as_str() {
                "elseif" => {
                    a += 1;
                    continue;
                }
                "else" => {
                    a += 1;
                    self.body(words.get(a)?, ctx)?;
                    break;
                }
                // Bare else-body (Tcl 6 allowed omitting the keyword);
                // like `cmd_if`, words past it are ignored.
                _ => {
                    self.body(words[a], ctx)?;
                    break;
                }
            }
        }
        let end = self.here();
        for j in end_jumps {
            self.patch(j, end);
        }
        Some(())
    }

    fn sf_while(&mut self, cmd: &CompiledCommand, ctx: Ctx) -> Option<()> {
        if cmd.words.len() != 3 {
            return None;
        }
        let (Token::Literal(test), Token::Literal(body)) = (&cmd.words[1], &cmd.words[2]) else {
            return None;
        };
        let top = self.here();
        self.guard(test, ctx)?;
        let jf = self.emit_branch_false();
        let body_start = self.here();
        self.body(body, ctx)?;
        self.emit_pop();
        let body_end = self.here();
        self.emit(Instr::Jump(top));
        let end = self.here();
        self.patch(jf, end);
        self.emit(Instr::PushConst(EMPTY));
        self.loops.push(LoopRange {
            start: body_start,
            end: body_end,
            break_to: end,
            cont_to: top,
            stack: ctx.depth,
            nums: ctx.nums,
            iters_break: ctx.iters,
            iters_cont: ctx.iters,
        });
        Some(())
    }

    fn sf_for(&mut self, cmd: &CompiledCommand, ctx: Ctx) -> Option<()> {
        if cmd.words.len() != 5 {
            return None;
        }
        let (
            Token::Literal(start),
            Token::Literal(test),
            Token::Literal(next),
            Token::Literal(body),
        ) = (&cmd.words[1], &cmd.words[2], &cmd.words[3], &cmd.words[4])
        else {
            return None;
        };
        self.body(start, ctx)?;
        self.emit_pop();
        let top = self.here();
        self.guard(test, ctx)?;
        let jf = self.emit_branch_false();
        let body_start = self.here();
        self.body(body, ctx)?;
        self.emit_pop();
        let body_end = self.here();
        // `continue` re-enters at the next-script, like `cmd_for`.
        let cont = self.here();
        self.body(next, ctx)?;
        self.emit_pop();
        self.emit(Instr::Jump(top));
        let end = self.here();
        self.patch(jf, end);
        self.emit(Instr::PushConst(EMPTY));
        self.loops.push(LoopRange {
            start: body_start,
            end: body_end,
            break_to: end,
            cont_to: cont,
            stack: ctx.depth,
            nums: ctx.nums,
            iters_break: ctx.iters,
            iters_cont: ctx.iters,
        });
        Some(())
    }

    fn sf_foreach(&mut self, cmd: &CompiledCommand, ctx: Ctx) -> Option<()> {
        if cmd.words.len() != 4 {
            return None;
        }
        let (Token::Literal(varlist), Token::Literal(body)) = (&cmd.words[1], &cmd.words[3]) else {
            return None;
        };
        let vars = parse_list(varlist.as_str()).ok()?;
        if vars.is_empty() {
            return None;
        }
        // The list word is substituted before `cmd_foreach` would run, so
        // evaluating it first preserves side-effect and error order.
        self.token(&cmd.words[2], ctx);
        let info = self.foreach.len() as u32;
        let var_idxs = vars.iter().map(|s| self.name(s)).collect();
        self.foreach.push(ForeachInfo { vars: var_idxs });
        self.emit(Instr::ForeachInit);
        let step = self.emit(Instr::ForeachStep(info, 0));
        let body_start = self.here();
        self.body(
            body,
            Ctx {
                iters: ctx.iters + 1,
                ..ctx
            },
        )?;
        self.emit_pop();
        let body_end = self.here();
        self.emit(Instr::Jump(step as u32));
        let end = self.here();
        self.patch(step, end);
        self.emit(Instr::PushConst(EMPTY));
        self.loops.push(LoopRange {
            start: body_start,
            end: body_end,
            break_to: end,
            cont_to: step as u32,
            stack: ctx.depth,
            nums: ctx.nums,
            iters_break: ctx.iters,
            iters_cont: ctx.iters + 1,
        });
        Some(())
    }
}

// ---------------------------------------------------------------------------
// VM
// ---------------------------------------------------------------------------

/// One live `foreach` iteration.
struct IterState {
    items: Rc<Vec<Value>>,
    idx: usize,
}

/// One cached scalar. A populated slot proves the active frame holds
/// this name as a plain scalar right now — a read or a write-through
/// succeeded since the last barrier — so subsequent writes may be
/// deferred: `set_var` on an existing scalar cannot fail, and nothing
/// can change the slot's shape without passing a barrier first.
struct Slot {
    val: Value,
    dirty: bool,
}

/// The mutable execution state of one `execute` call.
struct Vm {
    /// Main operand stack (command words and results).
    stack: Vec<Value>,
    /// Numeric scratch stack (`expr` subsequences). Empty at every
    /// command boundary.
    nums: Vec<EValue>,
    /// Live `foreach` iterations.
    iters: Vec<IterState>,
    /// Per-name-pool-slot scalar cache; see the module docs.
    vcache: Vec<Option<Slot>>,
    /// Name-pool indices holding dirty slots (the flush set).
    dirty: Vec<u32>,
    /// Whether the cache may be used at all right now (no aliasing links
    /// in the active frame).
    cache_on: bool,
}

impl Vm {
    /// Applies every deferred store to the frame. Runs before any
    /// instruction through which other code could observe variables —
    /// generic invokes, nested evals, array operations on a possibly
    /// cached name — and when execution ends (normally or with an
    /// error, so the final variable state matches the tree-walker's).
    fn flush(&mut self, interp: &mut Interp, bc: &ByteCode) -> TclResult<()> {
        for n in self.dirty.drain(..) {
            if let Some(slot) = &mut self.vcache[n as usize] {
                if slot.dirty {
                    slot.dirty = false;
                    interp.set_var(&bc.names[n as usize], slot.val.clone())?;
                }
            }
        }
        Ok(())
    }

    /// Drops all cached variable state: run after any instruction that
    /// hands control to arbitrary code, which may write variables,
    /// create links, or switch frames. (The matching `flush` must have
    /// run before the control transfer.)
    fn barrier(&mut self, interp: &Interp) {
        debug_assert!(self.dirty.is_empty(), "barrier without flush");
        for slot in &mut self.vcache {
            *slot = None;
        }
        self.cache_on = interp.bc_frame_cacheable();
    }

    /// Reads scalar `names[n]`, from cache when possible.
    fn load(&mut self, interp: &Interp, bc: &ByteCode, n: u32) -> TclResult<Value> {
        if self.cache_on {
            if let Some(s) = &self.vcache[n as usize] {
                return Ok(s.val.clone());
            }
            let v = interp.get_var(&bc.names[n as usize])?;
            self.vcache[n as usize] = Some(Slot {
                val: v.clone(),
                dirty: false,
            });
            return Ok(v);
        }
        interp.get_var(&bc.names[n as usize])
    }

    /// Writes scalar `names[n]`: into the cache (deferred) when the slot
    /// is proven scalar, through `set_var` otherwise.
    fn store(&mut self, interp: &mut Interp, bc: &ByteCode, n: u32, v: Value) -> TclResult<()> {
        if interp.has_traces() {
            // Write through — the trace script must fire now, and it may
            // touch any variable (or create links): drop everything.
            // Deferral never runs while traces exist, so no dirty slot
            // can be skipped by this barrier.
            interp.set_var(&bc.names[n as usize], v)?;
            self.flush(interp, bc)?;
            self.barrier(interp);
            return Ok(());
        }
        if self.cache_on {
            if let Some(s) = &mut self.vcache[n as usize] {
                s.val = v;
                if !s.dirty {
                    s.dirty = true;
                    self.dirty.push(n);
                }
                return Ok(());
            }
            // First touch of this name: write through, so a "variable is
            // array" error surfaces exactly where the tree-walker raises
            // it. Success proves the slot scalar; later stores defer.
            interp.set_var(&bc.names[n as usize], v.clone())?;
            self.vcache[n as usize] = Some(Slot {
                val: v,
                dirty: false,
            });
            return Ok(());
        }
        interp.set_var(&bc.names[n as usize], v)
    }
}

/// Runs compiled bytecode to completion, returning the script result.
pub(crate) fn execute(interp: &mut Interp, code: &Rc<ByteCode>) -> TclResult<Value> {
    let bc: &ByteCode = code;
    let mut vm = Vm {
        stack: Vec::new(),
        nums: Vec::new(),
        iters: Vec::new(),
        vcache: Vec::new(),
        dirty: Vec::new(),
        cache_on: interp.bc_frame_cacheable(),
    };
    vm.vcache.resize_with(bc.names.len(), || None);
    let span = interp.telemetry().span_begin("tcl.bc", String::new);
    // Hoisted so the off path pays one well-predicted branch per
    // instruction and nothing else.
    let profiling = interp.profiler.enabled();
    let mut pc = 0usize;
    let mut steps = 0u64;
    let n = bc.code.len();
    let mut failure = None;
    while pc < n {
        steps += 1;
        if profiling {
            interp.profiler.opcode_hit(bc.code[pc].opcode());
        }
        match step(interp, bc, pc, &mut vm) {
            Ok(next) => pc = next,
            Err(e) => match unwind(bc, pc, &e, &mut vm) {
                Some(next) => pc = next,
                None => {
                    failure = Some(e);
                    break;
                }
            },
        }
    }
    let result = match failure {
        Some(e) => {
            // Apply pending writes so the variable state at the failure
            // point matches the tree-walker's (flushing proven scalars
            // cannot itself fail).
            let flushed = vm.flush(interp, bc);
            debug_assert!(flushed.is_ok(), "flush failed on proven scalars");
            Err(e)
        }
        None => {
            debug_assert_eq!(vm.stack.len(), 1, "operand stack must hold the result");
            debug_assert!(vm.nums.is_empty(), "numeric stack must drain");
            vm.flush(interp, bc)
                .map(|()| vm.stack.pop().unwrap_or_default())
        }
    };
    interp.telemetry().add(Metric::TclBcInstructions, steps);
    if span {
        interp.telemetry().span_end();
    }
    result
}

/// Executes the instruction at `pc`; returns the next pc.
fn step(interp: &mut Interp, bc: &ByteCode, pc: usize, vm: &mut Vm) -> TclResult<usize> {
    match bc.code[pc] {
        Instr::PushConst(k) => vm.stack.push(bc.consts[k as usize].clone()),
        Instr::Pop => {
            vm.stack.pop();
        }
        Instr::LoadVar(n) => {
            let v = vm.load(interp, bc, n)?;
            vm.stack.push(v);
        }
        Instr::LoadElem(n, e) => {
            // Array ops bypass the scalar cache; a deferred write to the
            // same name must land first so shape errors ("variable isn't
            // array") fall exactly where the tree-walker raises them.
            vm.flush(interp, bc)?;
            let v = interp.get_elem(&bc.names[n as usize], &bc.names[e as usize])?;
            vm.stack.push(v);
        }
        Instr::LoadElemDyn(n, parts) => {
            vm.flush(interp, bc)?;
            let base = vm.stack.len() - parts as usize;
            let mut idx = String::new();
            for v in &vm.stack[base..] {
                idx.push_str(v.as_str());
            }
            vm.stack.truncate(base);
            let v = interp.get_elem(&bc.names[n as usize], &idx)?;
            vm.stack.push(v);
        }
        Instr::Concat(parts) => {
            let base = vm.stack.len() - parts as usize;
            let mut out = String::new();
            for v in &vm.stack[base..] {
                out.push_str(v.as_str());
            }
            vm.stack.truncate(base);
            vm.stack.push(Value::from(out));
        }
        Instr::StoreVar(n) => {
            let v = vm.stack.pop().expect("bc stack");
            vm.store(interp, bc, n, v.clone())?;
            vm.stack.push(v);
        }
        Instr::StoreVarPop(n) => {
            let v = vm.stack.pop().expect("bc stack");
            vm.store(interp, bc, n, v)?;
        }
        Instr::StoreElem(n, e) => {
            vm.flush(interp, bc)?;
            let v = vm.stack.pop().expect("bc stack");
            interp.set_elem(&bc.names[n as usize], &bc.names[e as usize], v.clone())?;
            if interp.has_traces() {
                vm.barrier(interp);
            }
            vm.stack.push(v);
        }
        Instr::IncrVar(n, e, amount) => {
            let new = incr(interp, bc, vm, n, e, amount)?;
            vm.stack.push(new);
        }
        Instr::IncrVarPop(n, e, amount) => {
            incr(interp, bc, vm, n, e, amount)?;
        }
        Instr::Invoke(argc, level) => {
            vm.flush(interp, bc)?;
            let base = vm.stack.len() - argc as usize;
            let r = interp.at_inline_level(level, |i| i.invoke(&vm.stack[base..]));
            vm.stack.truncate(base);
            vm.barrier(interp);
            vm.stack.push(r?);
        }
        Instr::EvalScript(s, level) => {
            vm.flush(interp, bc)?;
            let r = interp.at_inline_level(level, |i| i.eval_compiled(&bc.scripts[s as usize]));
            vm.barrier(interp);
            vm.stack.push(r?);
        }
        Instr::Jump(t) => return Ok(t as usize),
        Instr::Break => return Err(TclError::Break),
        Instr::Continue => return Err(TclError::Continue),
        Instr::ForeachInit => {
            let v = vm.stack.pop().expect("bc stack");
            let items = v.as_list()?;
            vm.iters.push(IterState { items, idx: 0 });
        }
        Instr::ForeachStep(i, end) => {
            let info = &bc.foreach[i as usize];
            let it = vm.iters.last_mut().expect("bc iter stack");
            if it.idx >= it.items.len() {
                vm.iters.pop();
                return Ok(end as usize);
            }
            let items = it.items.clone();
            let start = it.idx;
            it.idx += info.vars.len();
            for (k, var) in info.vars.iter().enumerate() {
                let value = items.get(start + k).cloned().unwrap_or_default();
                vm.store(interp, bc, *var, value)?;
            }
        }
        Instr::NPushNum(k) => vm.nums.push(bc.nums[k as usize].clone()),
        Instr::NLoadVar(n) => nload(interp, bc, vm, n)?,
        Instr::NLoadVar2(a, b) => {
            nload(interp, bc, vm, a)?;
            nload(interp, bc, vm, b)?;
        }
        Instr::NCoerce => {
            let v = vm.stack.pop().expect("bc stack");
            vm.nums.push(coerce_value(&v));
        }
        Instr::NBin(op) => {
            let b = vm.nums.pop().expect("bc num stack");
            let a = vm.nums.pop().expect("bc num stack");
            let r = eval_binop(op, a, b)?;
            vm.nums.push(r);
        }
        Instr::NBinNum(op, k) => {
            let a = vm.nums.pop().expect("bc num stack");
            let r = eval_binop(op, a, bc.nums[k as usize].clone())?;
            vm.nums.push(r);
        }
        Instr::NBinJumpIfFalse(op, t) => {
            let b = vm.nums.pop().expect("bc num stack");
            let a = vm.nums.pop().expect("bc num stack");
            if !eval_binop(op, a, b)?.truthy()? {
                return Ok(t as usize);
            }
        }
        Instr::NBinNumJumpIfFalse(op, k, t) => {
            let a = vm.nums.pop().expect("bc num stack");
            if !eval_binop(op, a, bc.nums[k as usize].clone())?.truthy()? {
                return Ok(t as usize);
            }
        }
        Instr::NUn(op) => {
            let a = vm.nums.pop().expect("bc num stack");
            vm.nums.push(eval_unop(op, a)?);
        }
        Instr::NTruth => {
            let a = vm.nums.pop().expect("bc num stack");
            let b = a.truthy()?;
            vm.nums.push(EValue::Int(b as i64));
        }
        Instr::NCallFunc(n, argc) => {
            let base = vm.nums.len() - argc as usize;
            let r = eval_func(interp, &bc.names[n as usize], &vm.nums[base..])?;
            vm.nums.truncate(base);
            vm.nums.push(r);
        }
        Instr::NJumpIfFalse(t) => {
            let a = vm.nums.pop().expect("bc num stack");
            if !a.truthy()? {
                return Ok(t as usize);
            }
        }
        Instr::NJumpIfTrue(t) => {
            let a = vm.nums.pop().expect("bc num stack");
            if a.truthy()? {
                return Ok(t as usize);
            }
        }
        Instr::NToValue => {
            let a = vm.nums.pop().expect("bc num stack");
            vm.stack.push(into_tcl_value(a));
        }
    }
    Ok(pc + 1)
}

/// `NLoadVar`: pushes the coerced value of scalar `names[n]` onto the
/// numeric stack — the coercion the tree-walker applies to `$var`
/// operands — reading through the cache without cloning the value.
fn nload(interp: &Interp, bc: &ByteCode, vm: &mut Vm, n: u32) -> TclResult<()> {
    if vm.cache_on {
        if let Some(s) = &vm.vcache[n as usize] {
            let e = coerce_value(&s.val);
            vm.nums.push(e);
        } else {
            let v = interp.get_var(&bc.names[n as usize])?;
            vm.nums.push(coerce_value(&v));
            vm.vcache[n as usize] = Some(Slot {
                val: v,
                dirty: false,
            });
        }
    } else {
        vm.nums
            .push(coerce_value(interp.get_var_ref(&bc.names[n as usize])?));
    }
    Ok(())
}

/// `IncrVar`: adds the immediate to scalar `names[n]` (or the element
/// `names[n](names[e])` when `e != NO_ELEM`) and returns the new value.
fn incr(
    interp: &mut Interp,
    bc: &ByteCode,
    vm: &mut Vm,
    n: u32,
    e: u32,
    amount: i64,
) -> TclResult<Value> {
    if e == NO_ELEM {
        let cur = vm.load(interp, bc, n)?;
        let cur = cur
            .as_int()
            .ok_or_else(|| TclError::Error(format!("expected integer but got \"{cur}\"")))?;
        let new = Value::from_int(cur.wrapping_add(amount));
        vm.store(interp, bc, n, new.clone())?;
        Ok(new)
    } else {
        vm.flush(interp, bc)?;
        let name = &bc.names[n as usize];
        let elem = &bc.names[e as usize];
        let v = interp.get_elem_ref(name, elem)?;
        let cur = v
            .as_int()
            .ok_or_else(|| TclError::Error(format!("expected integer but got \"{v}\"")))?;
        let new = Value::from_int(cur.wrapping_add(amount));
        interp.set_elem(name, elem, new.clone())?;
        if interp.has_traces() {
            vm.barrier(interp);
        }
        Ok(new)
    }
}

/// Resolves a `Break`/`Continue` raised at `pc`: finds the innermost
/// enclosing loop range, restores the stacks to its entry depths and
/// returns the jump target. `None` propagates the code to the caller
/// (guards, proc bodies, `catch` — exactly the tree-walker's behavior).
fn unwind(bc: &ByteCode, pc: usize, e: &TclError, vm: &mut Vm) -> Option<usize> {
    let is_break = match e {
        TclError::Break => true,
        TclError::Continue => false,
        _ => return None,
    };
    let pc = pc as u32;
    let mut innermost: Option<&LoopRange> = None;
    for r in &bc.loops {
        if r.start <= pc && pc < r.end && innermost.is_none_or(|b| r.start >= b.start) {
            innermost = Some(r);
        }
    }
    let r = innermost?;
    vm.stack.truncate(r.stack as usize);
    vm.nums.truncate(r.nums as usize);
    if is_break {
        vm.iters.truncate(r.iters_break as usize);
        Some(r.break_to as usize)
    } else {
        vm.iters.truncate(r.iters_cont as usize);
        Some(r.cont_to as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new() -> Interp {
        Interp::new()
    }

    /// `(compiles, hits, deferred)`.
    fn tiers(i: &Interp) -> (u64, u64, u64) {
        (
            i.metric(Metric::TclBcCompiles),
            i.metric(Metric::TclBcHits),
            i.metric(Metric::TclBcDeferred),
        )
    }

    /// Evaluates `script` twice: the first run tree-walks, the second
    /// runs the bytecode. Both must agree; returns the second.
    fn eval_lowered(i: &mut Interp, script: &str) -> TclResult<Value> {
        let first = i.eval(script).map(|v| v.to_string());
        let second = i.eval(script);
        assert_eq!(
            first,
            second.as_ref().map(|v| v.to_string()).map_err(Clone::clone)
        );
        second
    }

    #[test]
    fn simple_script_compiles_and_runs() {
        let mut i = new();
        assert_eq!(
            eval_lowered(&mut i, "set a 1; set b 2; set c 3").unwrap(),
            "3"
        );
        assert_eq!(tiers(&i), (1, 0, 1));
        assert_eq!(i.get_var("b").unwrap(), "2");
    }

    #[test]
    fn non_looping_script_lowers_on_its_second_run() {
        let mut i = new();
        i.eval("set x 1").unwrap();
        assert_eq!(tiers(&i), (0, 0, 1), "first run tree-walks");
        assert_eq!(i.metric(Metric::TclBcInstructions), 0);
        i.eval("set x 1").unwrap();
        assert_eq!(tiers(&i), (1, 0, 1), "second run compiles once");
        i.eval("set x 1").unwrap();
        assert_eq!(tiers(&i), (1, 1, 1), "third run hits");
    }

    #[test]
    fn while_loop_is_inlined() {
        let mut i = new();
        i.eval("set n 0; set sum 0; while {$n < 10} {incr n; incr sum $n}")
            .unwrap();
        assert_eq!(i.get_var("sum").unwrap(), "55");
        // A loop line is lowered on its first run, body and all.
        assert_eq!(tiers(&i), (1, 0, 0));
        assert!(i.metric(Metric::TclBcInstructions) > 50);
    }

    #[test]
    fn a_loop_inside_brackets_iterates_too() {
        let mut i = new();
        i.eval("set n 0; set r [while {$n < 3} {incr n}]$n")
            .unwrap();
        assert_eq!(i.get_var("r").unwrap(), "3");
        assert_eq!(tiers(&i), (1, 0, 0));
    }

    #[test]
    fn cached_bytecode_hits_on_reeval() {
        let mut i = new();
        i.eval("set x 1").unwrap();
        i.eval("set x 1").unwrap();
        assert_eq!(i.metric(Metric::TclBcCompiles), 1);
        i.eval("set x 1").unwrap();
        assert_eq!(i.metric(Metric::TclBcCompiles), 1);
        assert_eq!(i.metric(Metric::TclBcHits), 1);
    }

    #[test]
    fn redefining_special_recompiles_against_new_binding() {
        let mut i = new();
        assert_eq!(eval_lowered(&mut i, "set q 5").unwrap(), "5");
        assert_eq!(i.metric(Metric::TclBcCompiles), 1);
        // Shadow `set`: compiled scripts must notice the rebinding.
        i.register("set", |_, _| Ok(Value::from("shadowed")));
        assert_eq!(i.eval("set q 5").unwrap(), "shadowed");
        assert_eq!(i.metric(Metric::TclBcCompiles), 2);
    }

    #[test]
    fn redefine_before_first_compile_is_not_inlined() {
        let mut i = new();
        i.register("incr", |_, _| Ok(Value::from("custom")));
        assert_eq!(i.eval("incr anything").unwrap(), "custom");
    }

    #[test]
    fn vm_disable_switch_falls_back() {
        let mut i = new();
        i.set_bc_enabled(false);
        assert_eq!(eval_lowered(&mut i, "set x 7").unwrap(), "7");
        assert_eq!(
            tiers(&i),
            (0, 0, 0),
            "a disabled VM neither runs nor defers"
        );
        i.set_bc_enabled(true);
        assert_eq!(i.eval("set x 7").unwrap(), "7");
        assert_eq!(tiers(&i), (0, 0, 1), "the disabled runs never counted");
        assert_eq!(i.eval("set x 7").unwrap(), "7");
        assert_eq!(tiers(&i), (1, 0, 1));
    }

    #[test]
    fn break_restores_operand_stack_depth() {
        let mut i = new();
        // `break` fires during the bracket substitution of the outer
        // `set`: the pending operands must be discarded by the unwinder.
        i.eval("set out {}; foreach x {1 2 3} {set out $x[if {$x > 1} break]}")
            .unwrap();
        assert_eq!(i.get_var("out").unwrap(), "1");
    }

    #[test]
    fn expr_string_literal_comparison_matches_tree_walker() {
        let mut i = new();
        assert_eq!(
            eval_lowered(&mut i, r#"expr {"abc" < "abd"}"#).unwrap(),
            "1"
        );
        // A numeric-looking quoted literal is a number, as in Tcl.
        assert_eq!(eval_lowered(&mut i, r#"expr {"5" + 1}"#).unwrap(), "6");
        assert_eq!(i.metric(Metric::TclBcCompiles), 2);
    }

    #[test]
    fn nonfinite_intermediate_matches_tree_walker() {
        let mut vm = new();
        let mut tw = new();
        tw.set_bc_enabled(false);
        for script in [
            "expr {1e308 * 10}",
            "expr {1e308 * 10 > 0}",
            "expr {1e400}",
            "set x [expr {1e308 * 10}]; catch {expr {$x + 1}} msg; set msg",
        ] {
            let a = eval_lowered(&mut vm, script).map(|v| v.to_string());
            let b = tw.eval(script).map(|v| v.to_string());
            assert_eq!(a, b, "script: {script}");
        }
        // Four scripts, plus the `catch` body their second runs reach.
        assert_eq!(vm.metric(Metric::TclBcCompiles), 5);
    }

    #[test]
    fn cached_writes_reach_the_frame_for_invoked_commands() {
        let mut i = new();
        // `llength $l` runs through generic invoke after cached writes to
        // `l`: the write-through must be visible.
        assert_eq!(
            eval_lowered(&mut i, "set l {a b}; set l {a b c}; llength $l").unwrap(),
            "3"
        );
        assert_eq!(i.metric(Metric::TclBcCompiles), 1);
    }

    #[test]
    fn upvar_alias_disables_the_variable_cache() {
        let mut i = new();
        // `a` and `b` alias one variable through an explicit link; the
        // VM must read the fresh value through either name.
        i.eval("set a 1; upvar 0 a b; set a 5").unwrap();
        assert_eq!(i.eval("set b").unwrap(), "5");
        i.eval("set b 9").unwrap();
        assert_eq!(i.eval("set a").unwrap(), "9");
        // And inside one compiled script, where the cache would
        // otherwise serve stale values between barriers.
        i.eval("set r {}; set a 0; set n 0; while {$n < 3} {incr n; incr a; set r $r$b}")
            .unwrap();
        assert_eq!(i.get_var("r").unwrap(), "123");
    }

    #[test]
    fn write_traces_disable_the_variable_cache() {
        let mut i = new();
        // A write trace on `x` rewrites `y`; a compiled loop reading `y`
        // after writing `x` must observe the trace's effect every time.
        i.eval("set y 0; trace variable x w {set y [expr {$y + 10}] ;#}")
            .unwrap();
        i.eval("set r {}; set n 0; while {$n < 3} {incr n; set x $n; set r $r$y,}")
            .unwrap();
        assert_eq!(i.get_var("r").unwrap(), "10,20,30,");
    }

    #[test]
    fn uncompilable_fallback_is_sticky_and_counted() {
        let mut i = new();
        let before = i.metric(Metric::TclBcFallbacks);
        let _ = i.eval("set a 1");
        assert_eq!(i.metric(Metric::TclBcFallbacks), before);
    }
}
