//! The `expr` expression evaluator.
//!
//! Tcl expressions have C-like syntax and semantics over integers, doubles
//! and strings. `expr` performs its own round of `$var` and `[command]`
//! substitution, which is what makes the `if {$x < 3} ...` idiom work:
//! the braces defer substitution to expression-evaluation time.
//!
//! Evaluation builds a small AST first so that `&&`, `||` and `?:` can
//! short-circuit: their unevaluated operand's variables are never read and
//! its command substitutions never run.

use std::rc::Rc;

use crate::error::{TclError, TclResult};
use crate::interp::Interp;
use crate::parser::{find_matching_brace, find_matching_bracket, parse_backslash, scan_varname};
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

#[derive(Debug, Clone)]
pub(crate) enum Node {
    Lit(Value),
    /// `$name` or `$name(indexText)`; resolved lazily.
    Var(String, Option<String>),
    /// `[script]`; run lazily.
    Cmd(String),
    Unary(UnOp, Box<Node>),
    Binary(BinOp, Box<Node>, Box<Node>),
    Ternary(Box<Node>, Box<Node>, Box<Node>),
    Call(String, Vec<Node>),
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

/// An expression parsed once into its AST; evaluation only performs the
/// variable/command substitution, never re-lexing the text. Parsing is
/// pure — the AST is valid for any interpreter state.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    node: Node,
}

impl CompiledExpr {
    /// The parsed expression tree (for the bytecode lowering).
    pub(crate) fn node(&self) -> &Node {
        &self.node
    }

    /// Evaluates the parsed tree: only substitution and arithmetic run.
    pub fn eval(&self, interp: &mut Interp) -> TclResult<Value> {
        eval_node(interp, &self.node)
    }
}

/// Parses an expression without evaluating it.
pub fn compile_expr(text: &str) -> TclResult<CompiledExpr> {
    Ok(CompiledExpr {
        node: parse_text(text)?,
    })
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
    let c = Rc::new(compile_expr(text)?);
    interp.expr_cache_put(text, c.clone());
    Ok(c)
}

fn parse_text(text: &str) -> TclResult<Node> {
    let chars: Vec<char> = text.chars().collect();
    let mut p = Parser {
        chars: &chars,
        pos: 0,
    };
    let node = p.parse_ternary()?;
    p.skip_ws();
    if p.pos < p.chars.len() {
        return Err(TclError::Error(format!(
            "syntax error in expression \"{text}\""
        )));
    }
    Ok(node)
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

struct Parser<'a> {
    chars: &'a [char],
    pos: usize,
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

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn parse_ternary(&mut self) -> TclResult<Node> {
        let cond = self.parse_binary(0)?;
        self.skip_ws();
        if self.peek() == Some('?') {
            self.pos += 1;
            let then = self.parse_ternary()?;
            self.skip_ws();
            if self.peek() != Some(':') {
                return Err(TclError::error("missing \":\" in ternary expression"));
            }
            self.pos += 1;
            let els = self.parse_ternary()?;
            return Ok(Node::Ternary(Box::new(cond), Box::new(then), Box::new(els)));
        }
        Ok(cond)
    }

    /// Precedence-climbing binary parser. Levels, loosest first:
    /// `||`, `&&`, `|`, `^`, `&`, `== !=`, `< > <= >=`, `<< >>`, `+ -`, `* / %`.
    fn parse_binary(&mut self, min_level: u8) -> TclResult<Node> {
        let mut lhs = if min_level >= 10 {
            self.parse_unary()?
        } else {
            self.parse_binary(min_level + 1)?
        };
        loop {
            self.skip_ws();
            let op = match self.match_op(min_level) {
                Some(op) => op,
                None => return Ok(lhs),
            };
            let rhs = if min_level >= 10 {
                self.parse_unary()?
            } else {
                self.parse_binary(min_level + 1)?
            };
            lhs = Node::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn match_op(&mut self, level: u8) -> Option<BinOp> {
        let c = self.peek()?;
        let c2 = self.peek2();
        let (op, len) = match level {
            0 => {
                if c == '|' && c2 == Some('|') {
                    (BinOp::Or, 2)
                } else {
                    return None;
                }
            }
            1 => {
                if c == '&' && c2 == Some('&') {
                    (BinOp::And, 2)
                } else {
                    return None;
                }
            }
            2 => {
                if c == '|' && c2 != Some('|') {
                    (BinOp::BitOr, 1)
                } else {
                    return None;
                }
            }
            3 => {
                if c == '^' {
                    (BinOp::BitXor, 1)
                } else {
                    return None;
                }
            }
            4 => {
                if c == '&' && c2 != Some('&') {
                    (BinOp::BitAnd, 1)
                } else {
                    return None;
                }
            }
            5 => match (c, c2) {
                ('=', Some('=')) => (BinOp::Eq, 2),
                ('!', Some('=')) => (BinOp::Ne, 2),
                _ => return None,
            },
            6 => match (c, c2) {
                ('<', Some('=')) => (BinOp::Le, 2),
                ('>', Some('=')) => (BinOp::Ge, 2),
                ('<', Some('<')) | ('>', Some('>')) => return None,
                ('<', _) => (BinOp::Lt, 1),
                ('>', _) => (BinOp::Gt, 1),
                _ => return None,
            },
            7 => match (c, c2) {
                ('<', Some('<')) => (BinOp::Shl, 2),
                ('>', Some('>')) => (BinOp::Shr, 2),
                _ => return None,
            },
            8 => match c {
                '+' => (BinOp::Add, 1),
                '-' => (BinOp::Sub, 1),
                _ => return None,
            },
            _ => match c {
                '*' => (BinOp::Mul, 1),
                '/' => (BinOp::Div, 1),
                '%' => (BinOp::Mod, 1),
                _ => return None,
            },
        };
        self.pos += len;
        Some(op)
    }

    fn parse_unary(&mut self) -> TclResult<Node> {
        self.skip_ws();
        match self.peek() {
            Some('-') => {
                self.pos += 1;
                Ok(Node::Unary(UnOp::Neg, Box::new(self.parse_unary()?)))
            }
            Some('+') => {
                self.pos += 1;
                Ok(Node::Unary(UnOp::Pos, Box::new(self.parse_unary()?)))
            }
            Some('!') if self.peek2() != Some('=') => {
                self.pos += 1;
                Ok(Node::Unary(UnOp::Not, Box::new(self.parse_unary()?)))
            }
            Some('~') => {
                self.pos += 1;
                Ok(Node::Unary(UnOp::BitNot, Box::new(self.parse_unary()?)))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> TclResult<Node> {
        self.skip_ws();
        let c = match self.peek() {
            Some(c) => c,
            None => return Err(TclError::error("empty expression")),
        };
        match c {
            '(' => {
                self.pos += 1;
                let inner = self.parse_ternary()?;
                self.skip_ws();
                if self.peek() != Some(')') {
                    return Err(TclError::error("unbalanced parentheses in expression"));
                }
                self.pos += 1;
                Ok(inner)
            }
            '$' => {
                let (name, index, next) = scan_varname(self.chars, self.pos + 1);
                if name.is_empty() {
                    return Err(TclError::error("\"$\" without variable name in expression"));
                }
                self.pos = next;
                Ok(Node::Var(name, index))
            }
            '[' => {
                let end = find_matching_bracket(self.chars, self.pos)?;
                let script: String = self.chars[self.pos + 1..end].iter().collect();
                self.pos = end + 1;
                Ok(Node::Cmd(script))
            }
            '"' => {
                let mut s = String::new();
                let mut i = self.pos + 1;
                while i < self.chars.len() && self.chars[i] != '"' {
                    if self.chars[i] == '\\' {
                        let (t, next) = parse_backslash(self.chars, i);
                        s.push_str(&t);
                        i = next;
                    } else {
                        s.push(self.chars[i]);
                        i += 1;
                    }
                }
                if i >= self.chars.len() {
                    return Err(TclError::error("missing \" in expression"));
                }
                self.pos = i + 1;
                Ok(Node::Lit(Value::Str(s)))
            }
            '{' => {
                let end = find_matching_brace(self.chars, self.pos)?;
                let s: String = self.chars[self.pos + 1..end].iter().collect();
                self.pos = end + 1;
                Ok(Node::Lit(Value::Str(s)))
            }
            c if c.is_ascii_digit() || c == '.' => self.parse_number(),
            c if c.is_alphabetic() || c == '_' => self.parse_func_or_word(),
            other => Err(TclError::Error(format!(
                "syntax error in expression near \"{other}\""
            ))),
        }
    }

    fn parse_number(&mut self) -> TclResult<Node> {
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
            return Ok(Node::Lit(Value::Int(v)));
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
            Ok(Node::Lit(Value::Dbl(v)))
        } else if text.len() > 1 && text.starts_with('0') {
            // Leading zero: octal, like C.
            let v = i64::from_str_radix(&text[1..], 8)
                .map_err(|_| TclError::Error(format!("malformed octal number \"{text}\"")))?;
            Ok(Node::Lit(Value::Int(v)))
        } else {
            let v: i64 = text
                .parse()
                .map_err(|_| TclError::Error(format!("malformed number \"{text}\"")))?;
            Ok(Node::Lit(Value::Int(v)))
        }
    }

    fn parse_func_or_word(&mut self) -> TclResult<Node> {
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
            let mut args = Vec::new();
            self.skip_ws();
            if self.peek() == Some(')') {
                self.pos += 1;
            } else {
                loop {
                    args.push(self.parse_ternary()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(',') => {
                            self.pos += 1;
                        }
                        Some(')') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(TclError::error("missing close paren in function call")),
                    }
                }
            }
            return Ok(Node::Call(word, args));
        }
        // Bare words: boolean literals only.
        match word.as_str() {
            "true" | "yes" | "on" => Ok(Node::Lit(Value::Int(1))),
            "false" | "no" | "off" => Ok(Node::Lit(Value::Int(0))),
            _ => Err(TclError::Error(format!(
                "syntax error in expression: unexpected word \"{word}\""
            ))),
        }
    }
}

/// Coerces a raw string operand (from `$var`/`[cmd]`) into a numeric value
/// when it looks like one, else keeps it a string.
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

fn eval_node(interp: &mut Interp, node: &Node) -> TclResult<Value> {
    match node {
        Node::Lit(v) => Ok(v.clone()),
        Node::Var(name, None) => Ok(coerce_value(interp.get_var_ref(name)?)),
        Node::Var(name, Some(raw)) => {
            let idx = interp.substitute_all(raw)?;
            Ok(coerce_value(interp.get_elem_ref(name, &idx)?))
        }
        Node::Cmd(script) => Ok(coerce_value(&interp.eval(script)?)),
        Node::Unary(op, a) => {
            let v = eval_node(interp, a)?;
            eval_unop(*op, v)
        }
        Node::Binary(BinOp::And, a, b) => {
            if !eval_node(interp, a)?.truthy()? {
                return Ok(Value::Int(0));
            }
            Ok(Value::Int(if eval_node(interp, b)?.truthy()? {
                1
            } else {
                0
            }))
        }
        Node::Binary(BinOp::Or, a, b) => {
            if eval_node(interp, a)?.truthy()? {
                return Ok(Value::Int(1));
            }
            Ok(Value::Int(if eval_node(interp, b)?.truthy()? {
                1
            } else {
                0
            }))
        }
        Node::Binary(op, a, b) => {
            let va = eval_node(interp, a)?;
            let vb = eval_node(interp, b)?;
            eval_binop(*op, va, vb)
        }
        Node::Ternary(c, t, e) => {
            if eval_node(interp, c)?.truthy()? {
                eval_node(interp, t)
            } else {
                eval_node(interp, e)
            }
        }
        Node::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_node(interp, a)?);
            }
            eval_func(interp, name, &vals)
        }
    }
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
