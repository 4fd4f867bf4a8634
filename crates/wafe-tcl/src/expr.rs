//! The `expr` expression evaluator.
//!
//! Tcl expressions have C-like syntax and semantics over integers, doubles
//! and strings. `expr` performs its own round of `$var` and `[command]`
//! substitution, which is what makes the `if {$x < 3} ...` idiom work:
//! the braces defer substitution to expression-evaluation time. The
//! operands that substitute (`$name`, `$name(index)`, `[script]` and
//! `"quoted text"`) are lexed by the script compiler
//! (`compile::compile_operand`) into the tokens a script word
//! of the same form compiles to, so they substitute exactly as words do.
//!
//! An expression parses once into a flat program of `Op`s in
//! evaluation order: operands, then the operator that applies to them
//! (postfix). One scan with an explicit operator stack (shunting-yard)
//! emits it, and the short-circuit of `&&`, `||` and `?:` is decided there
//! as jumps over the operand that is not evaluated: its variables are
//! never read and its command substitutions never run.
//! [`CompiledExpr::eval`] runs the program in one loop over a value
//! stack, and the bytecode compiler lowers it op for op; neither parsing,
//! evaluating, lowering nor dropping an expression grows the native stack
//! with its nesting or length.

use std::rc::Rc;

use crate::compile::{compile_operand, Token};
use crate::error::{TclError, TclResult};
use crate::interp::Interp;
use crate::value::Value as TclValue;

/// A value inside the expression evaluator.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer operand.
    Int(i64),
    /// A floating-point operand.
    Dbl(f64),
    /// A string operand (only comparisons apply).
    Str(String),
}

impl Value {
    /// Renders the value the way `expr` returns it.
    pub fn render(&self) -> String {
        match self {
            Value::Int(i) => i.to_string(),
            Value::Dbl(d) => format_double(*d),
            Value::Str(s) => s.clone(),
        }
    }

    pub(crate) fn truthy(&self) -> TclResult<bool> {
        match self {
            Value::Int(i) => Ok(*i != 0),
            Value::Dbl(d) => Ok(*d != 0.0),
            Value::Str(s) => match s.as_str() {
                "1" | "true" | "yes" | "on" => Ok(true),
                "0" | "false" | "no" | "off" => Ok(false),
                _ => Err(TclError::Error(format!(
                    "expected boolean value but got \"{s}\""
                ))),
            },
        }
    }
}

/// Formats a double like Tcl does: always with a decimal point or
/// exponent so the value reads back as a double.
pub fn format_double(d: f64) -> String {
    if d.is_nan() {
        return "NaN".into();
    }
    if d.is_infinite() {
        return if d > 0.0 { "Inf".into() } else { "-Inf".into() };
    }
    if d == d.trunc() && d.abs() < 1e16 {
        format!("{d:.1}")
    } else {
        format!("{d}")
    }
}

/// One step of a parsed expression. The steps run in order over a stack
/// of operands; the jumps of `&&`, `||` and `?:` are already placed, so
/// an operand the short-circuit skips is never evaluated.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Push a literal.
    Lit(Value),
    /// `$name`: push the scalar's value, coerced.
    Var(String),
    /// `$name(index)`, `[script]` or a `"quoted"` operand holding
    /// substitutions: push it substituted like a script word, coerced.
    Sub(Token),
    /// Pop one operand, push the operator applied to it.
    Un(UnOp),
    /// Pop two operands, push the operator applied to them (never `&&`
    /// or `||`, which are jumps).
    Bin(BinOp),
    /// Pop `argc` operands, push the math function applied to them.
    Call(String, usize),
    /// Pop an operand; continue at the given op when it is false.
    JumpIfFalse(usize),
    /// Pop an operand; continue at the given op when it is true.
    JumpIfTrue(usize),
    /// Continue at the given op, past the other arm of a `?:`, `&&` or
    /// `||`.
    Jump(usize),
    /// Pop an operand, push 1 or 0 for its truth.
    Truth,
}

impl Op {
    /// The operand-stack depth after this op, given the depth before it.
    /// A `Jump` ends one arm with its value pushed; the other arm, which
    /// follows it, starts one value lower.
    pub(crate) fn depth_after(&self, depth: usize) -> usize {
        match self {
            Op::Lit(_) | Op::Var(_) | Op::Sub(_) => depth + 1,
            Op::Un(_) | Op::Truth => depth,
            Op::Call(_, argc) => depth + 1 - argc,
            Op::Bin(_) | Op::JumpIfFalse(_) | Op::JumpIfTrue(_) | Op::Jump(_) => depth - 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum UnOp {
    Neg,
    Pos,
    Not,
    BitNot,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum BinOp {
    Mul,
    Div,
    Mod,
    Add,
    Sub,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitXor,
    BitOr,
    And,
    Or,
}

/// The binary operators: text, operator and precedence (loosest lowest).
/// Two-character texts come first, so `||` is never read as `|` nor `<<`
/// as `<`.
const BINARY: [(&str, BinOp, u8); 18] = [
    ("||", BinOp::Or, 1),
    ("&&", BinOp::And, 2),
    ("==", BinOp::Eq, 6),
    ("!=", BinOp::Ne, 6),
    ("<=", BinOp::Le, 7),
    (">=", BinOp::Ge, 7),
    ("<<", BinOp::Shl, 8),
    (">>", BinOp::Shr, 8),
    ("|", BinOp::BitOr, 3),
    ("^", BinOp::BitXor, 4),
    ("&", BinOp::BitAnd, 5),
    ("<", BinOp::Lt, 7),
    (">", BinOp::Gt, 7),
    ("+", BinOp::Add, 9),
    ("-", BinOp::Sub, 9),
    ("*", BinOp::Mul, 10),
    ("/", BinOp::Div, 10),
    ("%", BinOp::Mod, 10),
];

/// An expression parsed once into its op program; evaluation only
/// performs the variable/command substitution, never re-lexing the text.
/// Parsing is pure — the program is valid for any interpreter state.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    ops: Vec<Op>,
}

impl CompiledExpr {
    /// The op program (for the bytecode lowering).
    pub(crate) fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Runs the op program: only substitution and arithmetic run.
    pub fn eval(&self, interp: &mut Interp) -> TclResult<Value> {
        let mut stack = std::mem::take(&mut interp.expr_stack);
        let r = self.run(interp, &mut stack);
        stack.clear();
        interp.expr_stack = stack;
        r
    }

    fn run(&self, interp: &mut Interp, stack: &mut Vec<Value>) -> TclResult<Value> {
        // The operand on top lives in `top` and the ones below it in
        // `stack`, so an operator replaces `top` in place. A push onto an
        // empty program stack moves a placeholder into `stack`; no
        // operator reaches below it.
        let mut top = Value::Int(0);
        let mut pc = 0;
        while let Some(op) = self.ops.get(pc) {
            pc += 1;
            let v = match op {
                Op::Lit(v) => v.clone(),
                Op::Var(name) => coerce_value(interp.get_var_ref(name)?),
                Op::Sub(t) => coerce_value(&interp.subst_token(t)?),
                Op::Call(name, 0) => eval_func(interp, name, &[])?,
                Op::Call(name, argc) => {
                    let mut args = stack.split_off(stack.len() + 1 - argc);
                    args.push(take(&mut top));
                    top = eval_func(interp, name, &args)?;
                    continue;
                }
                Op::Un(op) => {
                    top = eval_unop(*op, take(&mut top))?;
                    continue;
                }
                Op::Bin(op) => {
                    let a = stack.pop().expect("expr operand stack");
                    top = eval_binop(*op, a, take(&mut top))?;
                    continue;
                }
                Op::Truth => {
                    top = Value::Int(top.truthy()? as i64);
                    continue;
                }
                Op::JumpIfFalse(t) | Op::JumpIfTrue(t) => {
                    let cond =
                        std::mem::replace(&mut top, stack.pop().expect("expr operand stack"));
                    if cond.truthy()? == matches!(op, Op::JumpIfTrue(_)) {
                        pc = *t;
                    }
                    continue;
                }
                Op::Jump(t) => {
                    pc = *t;
                    continue;
                }
            };
            stack.push(std::mem::replace(&mut top, v));
        }
        Ok(top)
    }
}

fn take(v: &mut Value) -> Value {
    std::mem::replace(v, Value::Int(0))
}

/// Parses an expression once for repeated evaluation (`while`/`for`
/// guards, `expr` words), through the interpreter's expression cache. A
/// text that does not parse raises its syntax error here; nothing of the
/// expression has been evaluated by then, so the error comes exactly
/// where evaluating the text would raise it.
pub fn prepare_expr(interp: &mut Interp, text: &str) -> TclResult<Rc<CompiledExpr>> {
    if let Some(c) = interp.expr_cache_get(text) {
        return Ok(c);
    }
    let chars: Vec<char> = text.chars().collect();
    let mut p = Parser {
        chars: &chars,
        pos: 0,
        ops: Vec::new(),
        pending: Vec::new(),
    };
    p.parse(text)?;
    let c = Rc::new(CompiledExpr { ops: p.ops });
    interp.expr_cache_put(text, c.clone());
    Ok(c)
}

/// Evaluates an expression string in the context of an interpreter.
/// Already-seen expression texts hit the interpreter's parse cache.
pub fn eval_expr(interp: &mut Interp, text: &str) -> TclResult<Value> {
    prepare_expr(interp, text)?.eval(interp)
}

/// Evaluates an expression and renders the result as a string.
pub fn eval_expr_str(interp: &mut Interp, text: &str) -> TclResult<String> {
    Ok(eval_expr(interp, text)?.render())
}

/// Evaluates an expression into a dual-representation [`TclValue`]: a
/// numeric result carries its Int/Double rep, so `set x [expr ...]`
/// followed by `incr x` or another `expr $x` never re-parses text.
pub fn eval_expr_value(interp: &mut Interp, text: &str) -> TclResult<TclValue> {
    Ok(into_tcl_value(eval_expr(interp, text)?))
}

/// Converts an expression result into a [`TclValue`], preserving the
/// numeric representation (rendered lazily, in exactly `render()`'s form).
pub fn into_tcl_value(v: Value) -> TclValue {
    match v {
        Value::Int(i) => TclValue::from_int(i),
        Value::Dbl(d) => TclValue::from_double(d),
        Value::Str(s) => TclValue::from(s),
    }
}

/// Evaluates an expression as a boolean (for `if`, `while`, `for`).
pub fn eval_expr_bool(interp: &mut Interp, text: &str) -> TclResult<bool> {
    eval_expr(interp, text)?.truthy()
}

/// An operator of the parser's stack, waiting for what it applies to.
enum Pending {
    /// A prefix operator, waiting for its operand.
    Un(UnOp),
    /// A binary operator and its precedence, waiting for its right
    /// operand; for `&&` and `||`, also the index of the jump placed
    /// after the left one.
    Bin(BinOp, u8, usize),
    /// An open `(`.
    Paren,
    /// A math function's `name(`, with the arguments completed so far.
    Call(String, usize),
    /// A `?`, with the condition's `JumpIfFalse`: the then-arm is open.
    Then(usize),
    /// A `:`, with the then-arm's `Jump`: the else-arm is open.
    Else(usize),
}

/// The shunting-yard parser: one scan that alternates between reading an
/// operand (prefix operators, then a primary) and what follows it (a
/// binary operator, `?`, or the closer of the innermost open group),
/// emitting ops as soon as their operands are complete.
struct Parser<'a> {
    chars: &'a [char],
    pos: usize,
    ops: Vec<Op>,
    pending: Vec<Pending>,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Points the jump at `at` to the next op to be emitted.
    fn land(&mut self, at: usize) {
        let here = self.ops.len();
        match &mut self.ops[at] {
            Op::JumpIfFalse(t) | Op::JumpIfTrue(t) | Op::Jump(t) => *t = here,
            _ => unreachable!("land target is not a jump"),
        }
    }

    fn parse(&mut self, text: &str) -> TclResult<()> {
        loop {
            self.operand()?;
            // What follows an operand.
            loop {
                self.skip_ws();
                let rest = self.chars[self.pos..].iter().copied();
                let binary = BINARY
                    .iter()
                    .find(|(text, ..)| text.chars().eq(rest.clone().take(text.len())));
                if let Some(&(text, op, prec)) = binary {
                    self.pos += text.len();
                    self.reduce(prec);
                    let jump = match op {
                        BinOp::And => self.emit(Op::JumpIfFalse(0)),
                        BinOp::Or => self.emit(Op::JumpIfTrue(0)),
                        _ => 0,
                    };
                    self.pending.push(Pending::Bin(op, prec, jump));
                    break;
                }
                // A `?` or a closer: the innermost group's binary
                // operators are complete.
                self.reduce(0);
                if self.peek() == Some('?') {
                    self.pos += 1;
                    let jf = self.emit(Op::JumpIfFalse(0));
                    self.pending.push(Pending::Then(jf));
                    break;
                }
                // A closer ends the group's finished else-arms too.
                while let Some(&Pending::Else(j)) = self.pending.last() {
                    self.pending.pop();
                    self.land(j);
                }
                let next_operand = match (self.pending.pop(), self.peek()) {
                    (Some(Pending::Then(jf)), Some(':')) => {
                        let j = self.emit(Op::Jump(0));
                        self.land(jf);
                        self.pending.push(Pending::Else(j));
                        true
                    }
                    (Some(Pending::Call(name, argc)), Some(',')) => {
                        self.pending.push(Pending::Call(name, argc + 1));
                        true
                    }
                    (Some(Pending::Paren), Some(')')) => false,
                    (Some(Pending::Call(name, argc)), Some(')')) => {
                        self.emit(Op::Call(name, argc + 1));
                        false
                    }
                    (None, None) => return Ok(()),
                    (open, _) => {
                        return Err(match open {
                            Some(Pending::Then(_)) => {
                                TclError::error("missing \":\" in ternary expression")
                            }
                            Some(Pending::Paren) => {
                                TclError::error("unbalanced parentheses in expression")
                            }
                            Some(Pending::Call(..)) => {
                                TclError::error("missing close paren in function call")
                            }
                            _ => TclError::Error(format!("syntax error in expression \"{text}\"")),
                        })
                    }
                };
                self.pos += 1;
                if next_operand {
                    break;
                }
                self.prefixes();
            }
        }
    }

    /// Emits every pending binary operator of the innermost group that
    /// binds at least as tightly as `prec` (all of them for 0).
    fn reduce(&mut self, prec: u8) {
        while let Some(&Pending::Bin(op, p, jump)) = self.pending.last() {
            if p < prec {
                break;
            }
            self.pending.pop();
            if matches!(op, BinOp::And | BinOp::Or) {
                self.emit(Op::Truth);
                let j = self.emit(Op::Jump(0));
                self.land(jump);
                self.emit(Op::Lit(Value::Int((op == BinOp::Or) as i64)));
                self.land(j);
            } else {
                self.emit(Op::Bin(op));
            }
        }
    }

    /// An operand is complete: applies the prefix operators before it.
    fn prefixes(&mut self) {
        while let Some(&Pending::Un(op)) = self.pending.last() {
            self.pending.pop();
            self.emit(Op::Un(op));
        }
    }

    /// Reads one operand: pushes its prefix operators, `(`s and function
    /// calls' `name(`s as they come, until a primary's op is emitted.
    fn operand(&mut self) -> TclResult<()> {
        loop {
            self.skip_ws();
            let c = self
                .peek()
                .ok_or_else(|| TclError::error("empty expression"))?;
            let open = match c {
                '-' => Some(Pending::Un(UnOp::Neg)),
                '+' => Some(Pending::Un(UnOp::Pos)),
                '!' if self.chars.get(self.pos + 1) != Some(&'=') => Some(Pending::Un(UnOp::Not)),
                '~' => Some(Pending::Un(UnOp::BitNot)),
                '(' => Some(Pending::Paren),
                _ => None,
            };
            if let Some(open) = open {
                self.pos += 1;
                self.pending.push(open);
                continue;
            }
            let op = match c {
                '$' | '[' | '"' | '{' => {
                    let (token, next) = compile_operand(self.chars, self.pos)?;
                    self.pos = next;
                    // Tcl reads every operand as a number where it can,
                    // quoted or braced ones too: `"5" + 1` is 6.
                    match token {
                        Token::Literal(v) => Op::Lit(coerce(v.as_str())),
                        Token::VarSub(name, None) => Op::Var(name),
                        t => Op::Sub(t),
                    }
                }
                c if c.is_ascii_digit() || c == '.' => Op::Lit(self.parse_number()?),
                c if c.is_alphabetic() || c == '_' => match self.parse_func_or_word()? {
                    Some(op) => op,
                    None => continue,
                },
                other => {
                    return Err(TclError::Error(format!(
                        "syntax error in expression near \"{other}\""
                    )))
                }
            };
            self.emit(op);
            self.prefixes();
            return Ok(());
        }
    }

    fn parse_number(&mut self) -> TclResult<Value> {
        let start = self.pos;
        let chars = self.chars;
        let mut i = self.pos;
        // Hex?
        if chars[i] == '0' && i + 1 < chars.len() && (chars[i + 1] == 'x' || chars[i + 1] == 'X') {
            i += 2;
            let hstart = i;
            while i < chars.len() && chars[i].is_ascii_hexdigit() {
                i += 1;
            }
            if i == hstart {
                return Err(TclError::error("malformed hexadecimal constant"));
            }
            let text: String = chars[hstart..i].iter().collect();
            self.pos = i;
            let v = i64::from_str_radix(&text, 16)
                .map_err(|_| TclError::error("integer constant too large"))?;
            return Ok(Value::Int(v));
        }
        let mut is_float = false;
        while i < chars.len() && chars[i].is_ascii_digit() {
            i += 1;
        }
        if i < chars.len() && chars[i] == '.' {
            is_float = true;
            i += 1;
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
            }
        }
        if i < chars.len() && (chars[i] == 'e' || chars[i] == 'E') {
            let mut j = i + 1;
            if j < chars.len() && (chars[j] == '+' || chars[j] == '-') {
                j += 1;
            }
            if j < chars.len() && chars[j].is_ascii_digit() {
                is_float = true;
                i = j;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
            }
        }
        let text: String = chars[start..i].iter().collect();
        self.pos = i;
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| TclError::Error(format!("malformed number \"{text}\"")))?;
            Ok(Value::Dbl(v))
        } else if text.len() > 1 && text.starts_with('0') {
            // Leading zero: octal, like C.
            let v = i64::from_str_radix(&text[1..], 8)
                .map_err(|_| TclError::Error(format!("malformed octal number \"{text}\"")))?;
            Ok(Value::Int(v))
        } else {
            let v: i64 = text
                .parse()
                .map_err(|_| TclError::Error(format!("malformed number \"{text}\"")))?;
            Ok(Value::Int(v))
        }
    }

    /// A bare word (a boolean literal) or a math function call: its op,
    /// or `None` with the call's `name(` pushed when arguments follow.
    fn parse_func_or_word(&mut self) -> TclResult<Option<Op>> {
        let start = self.pos;
        let mut i = self.pos;
        while i < self.chars.len() && (self.chars[i].is_alphanumeric() || self.chars[i] == '_') {
            i += 1;
        }
        let word: String = self.chars[start..i].iter().collect();
        self.pos = i;
        self.skip_ws();
        if self.peek() == Some('(') {
            self.pos += 1;
            self.skip_ws();
            if self.peek() == Some(')') {
                self.pos += 1;
                return Ok(Some(Op::Call(word, 0)));
            }
            self.pending.push(Pending::Call(word, 0));
            return Ok(None);
        }
        // Bare words: boolean literals only.
        match word.as_str() {
            "true" | "yes" | "on" => Ok(Some(Op::Lit(Value::Int(1)))),
            "false" | "no" | "off" => Ok(Some(Op::Lit(Value::Int(0)))),
            _ => Err(TclError::Error(format!(
                "syntax error in expression: unexpected word \"{word}\""
            ))),
        }
    }
}

/// Coerces a raw string operand (a literal, `$var` or `[cmd]`) into a
/// numeric value when it looks like one, else keeps it a string.
pub(crate) fn coerce(s: &str) -> Value {
    let t = s.trim();
    if t.is_empty() {
        return Value::Str(s.to_string());
    }
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        if let Ok(v) = i64::from_str_radix(hex, 16) {
            return Value::Int(v);
        }
    }
    if let Ok(v) = t.parse::<i64>() {
        return Value::Int(v);
    }
    if let Ok(v) = t.parse::<f64>() {
        if t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        {
            return Value::Dbl(v);
        }
    }
    Value::Str(s.to_string())
}

/// Coerces a shared [`TclValue`] operand, consulting its cached numeric
/// rep first (the hot path for loop counters: no text parse at all) and
/// populating the cache for canonical spellings on a miss.
pub(crate) fn coerce_value(v: &TclValue) -> Value {
    if let Some(n) = v.cached_int() {
        return Value::Int(n);
    }
    if let Some(d) = v.cached_double() {
        return Value::Dbl(d);
    }
    let r = coerce(v.as_str());
    match &r {
        Value::Int(n) => v.cache_int_canonical(*n),
        Value::Dbl(d) => v.cache_double_canonical(*d),
        Value::Str(_) => {}
    }
    r
}

fn as_f64(v: &Value) -> TclResult<f64> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Dbl(d) => Ok(*d),
        Value::Str(s) => Err(TclError::Error(format!(
            "can't use non-numeric string \"{s}\" as operand of arithmetic operator"
        ))),
    }
}

fn as_i64(v: &Value) -> TclResult<i64> {
    match v {
        Value::Int(i) => Ok(*i),
        Value::Dbl(_) => Err(TclError::error(
            "can't use floating-point value as operand of integer operator",
        )),
        Value::Str(s) => Err(TclError::Error(format!(
            "can't use non-numeric string \"{s}\" as operand of arithmetic operator"
        ))),
    }
}

pub(crate) fn eval_unop(op: UnOp, v: Value) -> TclResult<Value> {
    match (op, v) {
        (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
        (UnOp::Neg, Value::Dbl(d)) => Ok(Value::Dbl(-d)),
        (UnOp::Pos, v @ (Value::Int(_) | Value::Dbl(_))) => Ok(v),
        (UnOp::Not, v) => Ok(Value::Int(if v.truthy()? { 0 } else { 1 })),
        (UnOp::BitNot, Value::Int(i)) => Ok(Value::Int(!i)),
        _ => Err(TclError::error(
            "can't use non-numeric string as operand of unary operator",
        )),
    }
}

pub(crate) fn eval_binop(op: BinOp, a: Value, b: Value) -> TclResult<Value> {
    use BinOp::*;
    let both_int = matches!((&a, &b), (Value::Int(_), Value::Int(_)));
    let any_str = matches!(&a, Value::Str(_)) || matches!(&b, Value::Str(_));
    match op {
        Add | Sub | Mul => {
            if both_int {
                let (x, y) = (as_i64(&a)?, as_i64(&b)?);
                let r = match op {
                    Add => x.checked_add(y),
                    Sub => x.checked_sub(y),
                    _ => x.checked_mul(y),
                };
                r.map(Value::Int)
                    .ok_or_else(|| TclError::error("integer overflow"))
            } else {
                let (x, y) = (as_f64(&a)?, as_f64(&b)?);
                Ok(Value::Dbl(match op {
                    Add => x + y,
                    Sub => x - y,
                    _ => x * y,
                }))
            }
        }
        Div => {
            if both_int {
                let (x, y) = (as_i64(&a)?, as_i64(&b)?);
                if y == 0 {
                    return Err(TclError::error("divide by zero"));
                }
                Ok(Value::Int(x.wrapping_div(y)))
            } else {
                let (x, y) = (as_f64(&a)?, as_f64(&b)?);
                if y == 0.0 {
                    return Err(TclError::error("divide by zero"));
                }
                Ok(Value::Dbl(x / y))
            }
        }
        Mod => {
            let (x, y) = (as_i64(&a)?, as_i64(&b)?);
            if y == 0 {
                return Err(TclError::error("divide by zero"));
            }
            Ok(Value::Int(x.wrapping_rem(y)))
        }
        Shl => Ok(Value::Int(as_i64(&a)?.wrapping_shl(as_i64(&b)? as u32))),
        Shr => Ok(Value::Int(as_i64(&a)?.wrapping_shr(as_i64(&b)? as u32))),
        BitAnd => Ok(Value::Int(as_i64(&a)? & as_i64(&b)?)),
        BitOr => Ok(Value::Int(as_i64(&a)? | as_i64(&b)?)),
        BitXor => Ok(Value::Int(as_i64(&a)? ^ as_i64(&b)?)),
        Lt | Gt | Le | Ge | Eq | Ne => {
            let ord = if any_str {
                a.render().cmp(&b.render())
            } else {
                let (x, y) = (as_f64(&a)?, as_f64(&b)?);
                x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
            };
            use std::cmp::Ordering::*;
            let r = match op {
                Lt => ord == Less,
                Gt => ord == Greater,
                Le => ord != Greater,
                Ge => ord != Less,
                Eq => ord == Equal,
                Ne => ord != Equal,
                _ => unreachable!(),
            };
            Ok(Value::Int(if r { 1 } else { 0 }))
        }
        And | Or => unreachable!("handled with short-circuit"),
    }
}

pub(crate) fn eval_func(interp: &mut Interp, name: &str, args: &[Value]) -> TclResult<Value> {
    let need = |n: usize| -> TclResult<()> {
        if args.len() != n {
            Err(TclError::Error(format!(
                "wrong number of arguments for math function \"{name}\""
            )))
        } else {
            Ok(())
        }
    };
    let f1 = |f: fn(f64) -> f64| -> TclResult<Value> {
        need(1)?;
        Ok(Value::Dbl(f(as_f64(&args[0])?)))
    };
    match name {
        "abs" => {
            need(1)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                v => Ok(Value::Dbl(as_f64(v)?.abs())),
            }
        }
        "acos" => f1(f64::acos),
        "asin" => f1(f64::asin),
        "atan" => f1(f64::atan),
        "atan2" => {
            need(2)?;
            Ok(Value::Dbl(as_f64(&args[0])?.atan2(as_f64(&args[1])?)))
        }
        "ceil" => f1(f64::ceil),
        "cos" => f1(f64::cos),
        "cosh" => f1(f64::cosh),
        "double" => {
            need(1)?;
            Ok(Value::Dbl(as_f64(&args[0])?))
        }
        "exp" => f1(f64::exp),
        "floor" => f1(f64::floor),
        "fmod" => {
            need(2)?;
            Ok(Value::Dbl(as_f64(&args[0])? % as_f64(&args[1])?))
        }
        "hypot" => {
            need(2)?;
            Ok(Value::Dbl(as_f64(&args[0])?.hypot(as_f64(&args[1])?)))
        }
        "int" => {
            need(1)?;
            Ok(Value::Int(as_f64(&args[0])? as i64))
        }
        "log" => f1(f64::ln),
        "log10" => f1(f64::log10),
        "pow" => {
            need(2)?;
            Ok(Value::Dbl(as_f64(&args[0])?.powf(as_f64(&args[1])?)))
        }
        "round" => {
            need(1)?;
            Ok(Value::Int(as_f64(&args[0])?.round() as i64))
        }
        "sin" => f1(f64::sin),
        "sinh" => f1(f64::sinh),
        "sqrt" => f1(f64::sqrt),
        "tan" => f1(f64::tan),
        "tanh" => f1(f64::tanh),
        "rand" => {
            need(0)?;
            // xorshift64*: deterministic, seedable with srand().
            let mut x = interp.rand_state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            interp.rand_state = x;
            let v = (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
            Ok(Value::Dbl(v))
        }
        "srand" => {
            need(1)?;
            interp.rand_state = (as_i64(&args[0])? as u64) | 1;
            Ok(Value::Dbl(0.0))
        }
        _ => Err(TclError::Error(format!("unknown math function \"{name}\""))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(s: &str) -> String {
        let mut i = Interp::new();
        eval_expr_str(&mut i, s).unwrap()
    }

    fn ev_err(s: &str) -> TclError {
        let mut i = Interp::new();
        eval_expr_str(&mut i, s).unwrap_err()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ev("1+2"), "3");
        assert_eq!(ev("2*3+4"), "10");
        assert_eq!(ev("2+3*4"), "14");
        assert_eq!(ev("(2+3)*4"), "20");
        assert_eq!(ev("7/2"), "3");
        assert_eq!(ev("7%3"), "1");
        assert_eq!(ev("7.0/2"), "3.5");
        assert_eq!(ev("-3"), "-3");
        assert_eq!(ev("- -3"), "3");
    }

    #[test]
    fn precedence_and_bitops() {
        assert_eq!(ev("1<<4"), "16");
        assert_eq!(ev("255>>4"), "15");
        assert_eq!(ev("6&3"), "2");
        assert_eq!(ev("6|3"), "7");
        assert_eq!(ev("6^3"), "5");
        assert_eq!(ev("~0"), "-1");
        assert_eq!(ev("1|2==2"), "1"); // == binds tighter than |
    }

    #[test]
    fn comparisons() {
        assert_eq!(ev("1 < 2"), "1");
        assert_eq!(ev("2 <= 2"), "1");
        assert_eq!(ev("3 > 4"), "0");
        assert_eq!(ev("1 == 1.0"), "1");
        assert_eq!(ev("\"abc\" == \"abc\""), "1");
        assert_eq!(ev("\"abc\" < \"abd\""), "1");
    }

    #[test]
    fn logical_short_circuit() {
        let mut i = Interp::new();
        // The rhs references an unset variable; && must not evaluate it.
        assert_eq!(eval_expr_str(&mut i, "0 && $nosuch").unwrap(), "0");
        assert_eq!(eval_expr_str(&mut i, "1 || $nosuch").unwrap(), "1");
        assert!(eval_expr_str(&mut i, "1 && $nosuch").is_err());
    }

    #[test]
    fn ternary_lazy() {
        let mut i = Interp::new();
        assert_eq!(eval_expr_str(&mut i, "1 ? 5 : $nosuch").unwrap(), "5");
        assert_eq!(eval_expr_str(&mut i, "0 ? $nosuch : 7").unwrap(), "7");
    }

    #[test]
    fn variables_and_commands() {
        let mut i = Interp::new();
        i.set_var("x", "10").unwrap();
        assert_eq!(eval_expr_str(&mut i, "$x * 2").unwrap(), "20");
        assert_eq!(eval_expr_str(&mut i, "[set x] + 1").unwrap(), "11");
        i.set_elem("a", "k", "3").unwrap();
        assert_eq!(eval_expr_str(&mut i, "$a(k)+1").unwrap(), "4");
    }

    #[test]
    fn math_functions() {
        assert_eq!(ev("sqrt(16)"), "4.0");
        assert_eq!(ev("int(3.9)"), "3");
        assert_eq!(ev("round(3.5)"), "4");
        assert_eq!(ev("abs(-4)"), "4");
        assert_eq!(ev("pow(2,10)"), "1024.0");
        assert_eq!(ev("double(2)"), "2.0");
        assert_eq!(ev("fmod(7.5, 2)"), "1.5");
    }

    #[test]
    fn hex_and_octal_constants() {
        assert_eq!(ev("0x10"), "16");
        assert_eq!(ev("010"), "8");
        assert_eq!(ev("0"), "0");
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(ev("1e3"), "1000.0");
        assert_eq!(ev("1.5e2 + 0.0"), "150.0");
    }

    #[test]
    fn errors() {
        assert!(ev_err("1/0").message().contains("divide by zero"));
        assert!(ev_err("1+").is_error());
        assert!(ev_err("(1").is_error());
        assert!(ev_err("nonsuchfunc(1)").is_error());
        assert!(ev_err("\"a\" + 1").is_error());
    }

    #[test]
    fn rand_is_deterministic_after_srand() {
        let mut i = Interp::new();
        eval_expr_str(&mut i, "srand(42)").unwrap();
        let a = eval_expr_str(&mut i, "rand()").unwrap();
        eval_expr_str(&mut i, "srand(42)").unwrap();
        let b = eval_expr_str(&mut i, "rand()").unwrap();
        assert_eq!(a, b);
        let v: f64 = a.parse().unwrap();
        assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn boolean_words() {
        assert_eq!(ev("true && on"), "1");
        assert_eq!(ev("false || off"), "0");
    }

    #[test]
    fn double_formatting() {
        assert_eq!(format_double(1.0), "1.0");
        assert_eq!(format_double(0.5), "0.5");
        assert_eq!(format_double(-2.0), "-2.0");
    }
}
