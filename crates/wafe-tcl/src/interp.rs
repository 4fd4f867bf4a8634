//! The Tcl interpreter: variable frames, command dispatch, evaluation.

use std::any::Any;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};

use wafe_trace::Metric::{self, *};
use wafe_trace::Telemetry;

use crate::compile::{compile, compile_subst, CompiledScript, LruCache, Token};
use crate::error::{TclError, TclResult};
use crate::expr::CompiledExpr;
use crate::hash::FnvMap;
use crate::value::Value;

/// Maximum nesting depth of script evaluation, mirroring Tcl's
/// `maxNestingDepth` interpreter limit.
pub const MAX_NESTING_DEPTH: usize = 500;

/// The error raised past [`MAX_NESTING_DEPTH`].
pub(crate) const NESTING_ERROR: &str = "too many nested calls to Tcl_Eval (infinite loop?)";

/// The native stack a thread needs to evaluate any script the
/// interpreter accepts, and the stack `waferd`'s workers run on. The
/// deepest evaluation allowed is [`MAX_NESTING_DEPTH`] levels: on x86-64
/// Linux, a nest of that many `expr {[...] + 0}` operands took 639 KiB
/// of stack in a release build and 2.8 MiB in an unoptimized one, and a
/// proc recursion to the limit through `if` guards 575 KiB and 2.4 MiB.
/// Expressions, `string match` and `format` use no stack that grows with
/// their input, and `regexp` patterns are bounded
/// ([`crate::regex::MAX_GROUP_DEPTH`], [`crate::regex::MAX_PIECES`]).
/// 8 MiB, the main thread's usual size, leaves the unoptimized build
/// almost three times its need.
pub const EVAL_STACK_SIZE: usize = 8 << 20;

/// Default bound of the script and expression caches (entries each).
pub const DEFAULT_CACHE_LIMIT: usize = 512;

/// Nesting depth beyond which scripts tree-walk instead of entering the
/// bytecode VM. The VM's dispatch loop adds native stack frames on every
/// re-entry (proc call, `EvalScript` escape); past this depth the
/// cheaper tree-walker frames keep `MAX_NESTING_DEPTH` levels of Tcl
/// recursion within the native stack. Results are identical either way.
pub(crate) const BC_MAX_DEPTH: usize = 16;

/// The unsized native-command function type behind [`CmdFn`].
pub type NativeFn = dyn Fn(&mut Interp, &[Value]) -> TclResult<Value>;

/// Signature of a native command (the analogue of `Tcl_CmdProc`).
///
/// `argv[0]` is the command name, like in C Tcl. Arguments arrive as
/// shared dual-representation [`Value`]s; a command that only needs the
/// text can treat them as `&str` (they deref), while numeric and list
/// commands reuse the cached internal representations.
pub type CmdFn = Rc<NativeFn>;

/// A weak handle to a resolved command, interned into command-name
/// `Value`s so repeated dispatch of the same word skips the table lookup.
/// Weak references break the cycle `ProcDef → CompiledScript →
/// Token::Literal(Value) → interned command → ProcDef` that a recursive
/// proc would otherwise create.
#[derive(Clone)]
pub(crate) enum CmdIntern {
    Native(Weak<NativeFn>),
    Proc(Weak<ProcDef>),
}

/// A user-defined procedure created with `proc`.
#[derive(Debug, Clone)]
pub struct ProcDef {
    /// Formal arguments: `(name, default)`. A trailing `args` collects the
    /// remaining actual arguments as a list.
    pub args: Vec<(String, Option<String>)>,
    /// The procedure body, evaluated in a fresh frame.
    pub body: String,
    /// The body's parse-once form, compiled when the proc is defined. A
    /// body with a syntax error still compiles: it raises the error when
    /// a call reaches it. Redefining a proc replaces the whole
    /// `ProcDef`, so a stale compiled body can never outlive its source
    /// text.
    pub compiled: Rc<CompiledScript>,
}

impl ProcDef {
    /// Builds a definition, compiling the body once up front.
    pub fn new(args: Vec<(String, Option<String>)>, body: String) -> Self {
        let compiled = Rc::new(compile(&body));
        ProcDef {
            args,
            body,
            compiled,
        }
    }
}

#[derive(Clone)]
enum Command {
    Native(CmdFn),
    Proc(Rc<ProcDef>),
}

/// An immutable table of native commands shared by `Rc` between
/// interpreters: the Tcl built-ins, plus whatever an embedding froze
/// into it (see [`Interp::freeze_commands`]). An interpreter looks a
/// name up in its own table first and falls back to its base, so
/// `proc`, `rename` and deletion only ever write the interpreter's own
/// table (a shadow, or a tombstone for a deleted base name).
#[derive(Default)]
pub struct CommandBase {
    cmds: FnvMap<String, CmdFn>,
    /// The [`BC_SPECIAL_NAMES`] that resolve to the pristine built-in
    /// here — the bytecode compiler's inlining precondition.
    bc_pristine: Vec<&'static str>,
}

impl CommandBase {
    /// Number of commands in the table.
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty()
    }
}

thread_local! {
    /// The Tcl built-ins, built once per thread.
    static TCL_BASE: Rc<CommandBase> = {
        let mut bare = Interp::with_base(Rc::new(CommandBase::default()), Telemetry::new());
        crate::commands::register_all(&mut bare);
        Rc::new(CommandBase {
            cmds: bare.native_commands(),
            bc_pristine: BC_SPECIAL_NAMES
                .iter()
                .copied()
                .filter(|name| bare.has_command(name))
                .collect(),
        })
    };
    /// Source of command epochs. Drawn per thread rather than per
    /// interpreter, so a command handle interned into a `Value` under
    /// one interpreter's epoch can never validate in another's.
    static NEXT_EPOCH: Cell<u64> = const { Cell::new(0) };
}

fn next_epoch() -> u64 {
    NEXT_EPOCH.with(|e| {
        e.set(e.get() + 1);
        e.get()
    })
}

/// A variable: scalar or associative array. Slots hold shared [`Value`]s,
/// so reading a variable is an `Rc` bump and cached representations
/// (numeric, list, script) survive across reads.
#[derive(Debug, Clone)]
pub enum Var {
    /// A scalar value.
    Scalar(Value),
    /// An associative array (`name(elem)` syntax).
    Array(HashMap<String, Value>),
}

#[derive(Debug, Clone)]
enum VarSlot {
    Value(Var),
    /// A link created by `global`/`upvar` to a variable in another frame.
    Link {
        frame: usize,
        name: String,
    },
}

#[derive(Default)]
struct Frame {
    vars: FnvMap<String, VarSlot>,
    /// Number of `VarSlot::Link` entries in `vars`. The bytecode VM's
    /// per-execution variable cache is sound only while no two names in
    /// the frame can alias the same variable, i.e. while this is zero.
    links: u32,
}

/// A shared output callback, as held by [`OutputSink::Func`].
pub type OutputFn = Rc<RefCell<dyn FnMut(&str)>>;

/// Destination for `echo`/`puts` output.
#[derive(Clone)]
pub enum OutputSink {
    /// Write to the process standard output (the default).
    Stdout,
    /// Append to a shared string buffer (used by tests and captures).
    Buffer(Rc<RefCell<String>>),
    /// Invoke a callback for every write (used by the Wafe session to
    /// route output into the frontend protocol).
    Func(OutputFn),
}

/// The Tcl interpreter.
///
/// # Examples
///
/// ```
/// use wafe_tcl::Interp;
/// let mut i = Interp::new();
/// i.register("double", |_, argv| {
///     let n: i64 = argv[1].parse().unwrap_or(0);
///     Ok((n * 2).into())
/// });
/// assert_eq!(i.eval("double 21").unwrap(), "42");
/// ```
pub struct Interp {
    /// This interpreter's own commands, consulted before `base`. `None`
    /// is a tombstone: a base command deleted or renamed away here.
    commands: FnvMap<String, Option<Command>>,
    /// The shared command table behind `commands`.
    base: Rc<CommandBase>,
    /// The embedding's per-interpreter state, for commands that live in
    /// a shared base and so cannot capture it (see [`Interp::context`]).
    context: Option<Rc<dyn Any>>,
    /// Replaced whenever the command table changes; validates the
    /// command handles interned into argv[0] `Value`s.
    cmd_epoch: u64,
    frames: Vec<Frame>,
    /// Index of the active variable frame (changed by `uplevel`).
    active: usize,
    /// Script nesting depth, charged as the tree-walker charges it.
    depth: usize,
    /// The part of `depth` charged for evaluations the bytecode VM
    /// inlined rather than entered (see [`Interp::at_inline_level`]).
    inlined: usize,
    output: OutputSink,
    /// Deterministic pseudo-random state for `expr rand()`.
    pub(crate) rand_state: u64,
    /// Variable traces (`trace variable`): global-variable name →
    /// `(ops, script)` pairs. Scripts run with `name element op`
    /// appended, like C Tcl.
    traces: HashMap<String, Vec<(String, String)>>,
    /// Guards against trace recursion (a trace writing its own variable).
    tracing: std::cell::Cell<u32>,
    /// Parse-once cache: script text → compiled form.
    script_cache: LruCache<Rc<CompiledScript>>,
    /// Parse-once cache for `expr` texts.
    expr_cache: LruCache<Rc<CompiledExpr>>,
    /// The operand stack `CompiledExpr::eval` reuses, so an evaluation
    /// allocates none; one nested in an operand's `[...]` finds it taken
    /// and uses a stack of its own.
    pub(crate) expr_stack: Vec<crate::expr::Value>,
    /// Parse-once cache for `subst` texts (see
    /// [`Interp::substitute_all`]).
    subst_cache: LruCache<Rc<[Token]>>,
    /// Telemetry store shared with the embedding (session, frontend).
    /// Disabled by default: each eval/dispatch pays one flag load.
    telemetry: Telemetry,
    /// Whether compiled scripts execute through the bytecode VM.
    /// Runtime-togglable (`interp bcdisable`) so the same binary can
    /// measure VM-on vs VM-off (the E23 bench).
    bc_enabled: bool,
    /// Bumped whenever a command the bytecode compiler inlines (`set`,
    /// `if`, `while`, …) is redefined; stamped into every compiled
    /// [`crate::bc::ByteCode`] so stale inlinings recompile instead of
    /// bypassing the new binding.
    pub(crate) bc_epoch: u64,
    /// Per-proc time / per-opcode hit profiler (`interp profile …`).
    pub(crate) profiler: crate::profile::Profiler,
}

/// The command names the bytecode compiler lowers to dedicated opcodes.
/// Redefining any of them invalidates compiled bytecode (see
/// [`Interp::bc_epoch`]).
pub(crate) const BC_SPECIAL_NAMES: [&str; 9] = [
    "set", "incr", "expr", "if", "while", "for", "foreach", "break", "continue",
];

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

/// The one-line script preview used as `tcl.eval` span detail: at most
/// 32 characters, whitespace flattened so span trees stay one line per
/// span.
fn span_preview(script: &str) -> String {
    let mut out = String::new();
    for (i, c) in script.chars().enumerate() {
        if i == 32 {
            out.push_str("...");
            break;
        }
        out.push(if c == '\n' || c == '\r' || c == '\t' {
            ' '
        } else {
            c
        });
    }
    out
}

impl Interp {
    /// Creates an interpreter with all built-in commands registered.
    pub fn new() -> Self {
        Self::with_base(TCL_BASE.with(Rc::clone), Telemetry::new())
    }

    /// Creates an interpreter whose commands are `base` (typically a
    /// table from [`freeze_commands`](Interp::freeze_commands)) and an
    /// empty table of its own, counting into `telemetry` (an embedding
    /// passes the store its other layers share).
    pub fn with_base(base: Rc<CommandBase>, telemetry: Telemetry) -> Self {
        Interp {
            commands: FnvMap::default(),
            base,
            context: None,
            cmd_epoch: next_epoch(),
            frames: vec![Frame::default()],
            active: 0,
            depth: 0,
            inlined: 0,
            output: OutputSink::Stdout,
            rand_state: 0x9e3779b97f4a7c15,
            traces: HashMap::new(),
            tracing: std::cell::Cell::new(0),
            script_cache: LruCache::new(
                DEFAULT_CACHE_LIMIT,
                [
                    TclCacheScriptHits,
                    TclCacheScriptMisses,
                    TclCacheScriptEvictions,
                ],
            ),
            expr_cache: LruCache::new(
                DEFAULT_CACHE_LIMIT,
                [TclCacheExprHits, TclCacheExprMisses, TclCacheExprEvictions],
            ),
            expr_stack: Vec::new(),
            subst_cache: LruCache::new(
                DEFAULT_CACHE_LIMIT,
                [
                    TclCacheSubstHits,
                    TclCacheSubstMisses,
                    TclCacheSubstEvictions,
                ],
            ),
            telemetry,
            bc_enabled: true,
            bc_epoch: 0,
            profiler: crate::profile::Profiler::default(),
        }
    }

    /// Flattens this interpreter's native commands — its base overlaid
    /// with its own table — into a new shared base. Procedures are not
    /// carried over: a base holds native commands only.
    pub fn freeze_commands(&self) -> Rc<CommandBase> {
        Rc::new(CommandBase {
            cmds: self.native_commands(),
            bc_pristine: BC_SPECIAL_NAMES
                .iter()
                .copied()
                .filter(|name| self.bc_special_pristine(name))
                .collect(),
        })
    }

    fn native_commands(&self) -> FnvMap<String, CmdFn> {
        self.command_names()
            .into_iter()
            .filter_map(|name| match self.lookup(&name) {
                Some(Command::Native(f)) => Some((name, f)),
                _ => None,
            })
            .collect()
    }

    /// Installs the embedding's per-interpreter state, retrievable with
    /// [`context`](Interp::context).
    pub fn set_context(&mut self, context: Rc<dyn Any>) {
        self.context = Some(context);
    }

    /// The state installed with [`set_context`](Interp::set_context),
    /// if it is a `T`. Commands in a shared [`CommandBase`] reach their
    /// interpreter's embedding through this.
    pub fn context<T: 'static>(&self) -> Option<Rc<T>> {
        self.context.clone()?.downcast().ok()
    }

    /// Resolves a command: this interpreter's table, then the base.
    fn lookup(&self, name: &str) -> Option<Command> {
        match self.commands.get(name) {
            Some(local) => local.clone(),
            None => self.base.cmds.get(name).cloned().map(Command::Native),
        }
    }

    /// Binds `name` in this interpreter's table.
    fn bind(&mut self, name: &str, cmd: Command) {
        self.cmd_epoch = next_epoch();
        self.note_bc_sensitive(name);
        self.commands.insert(name.to_string(), Some(cmd));
    }

    /// Unbinds `name`, leaving a tombstone when the base still has it.
    fn unbind(&mut self, name: &str) {
        self.cmd_epoch = next_epoch();
        self.note_bc_sensitive(name);
        if self.base.cmds.contains_key(name) {
            self.commands.insert(name.to_string(), None);
        } else {
            self.commands.remove(name);
        }
    }

    /// True while `name` still resolves to the pristine built-in (the
    /// bytecode compiler's inlining precondition).
    pub(crate) fn bc_special_pristine(&self, name: &str) -> bool {
        !self.commands.contains_key(name) && self.base.bc_pristine.contains(&name)
    }

    /// Bumps the bytecode epoch when a compiler-inlined command name is
    /// rebound, so compiled scripts pick up the new binding.
    fn note_bc_sensitive(&mut self, name: &str) {
        if BC_SPECIAL_NAMES.contains(&name) {
            self.bc_epoch += 1;
        }
    }

    /// Registers a native command, replacing any previous binding
    /// (the analogue of `Tcl_CreateCommand`).
    pub fn register<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&mut Interp, &[Value]) -> TclResult<Value> + 'static,
    {
        self.bind(name, Command::Native(Rc::new(f)));
    }

    /// Removes a command; returns true if it existed.
    pub fn unregister(&mut self, name: &str) -> bool {
        let existed = self.has_command(name);
        self.unbind(name);
        existed
    }

    /// Renames a command (`rename old new`); empty `new` deletes.
    pub fn rename_command(&mut self, old: &str, new: &str) -> TclResult<()> {
        let cmd = self.lookup(old).ok_or_else(|| {
            TclError::Error(format!("can't rename \"{old}\": command doesn't exist"))
        })?;
        if !new.is_empty() && self.has_command(new) {
            return Err(TclError::Error(format!(
                "can't rename to \"{new}\": command already exists"
            )));
        }
        self.unbind(old);
        if !new.is_empty() {
            self.bind(new, cmd);
        }
        Ok(())
    }

    /// True if a command (native or proc) with this name exists.
    pub fn has_command(&self, name: &str) -> bool {
        match self.commands.get(name) {
            Some(local) => local.is_some(),
            None => self.base.cmds.contains_key(name),
        }
    }

    /// Names of all registered commands, unsorted.
    pub fn command_names(&self) -> Vec<String> {
        let shadowed = |n: &String| self.commands.contains_key(n);
        self.base
            .cmds
            .keys()
            .filter(|n| !shadowed(n))
            .chain(
                self.commands
                    .iter()
                    .filter(|(_, c)| c.is_some())
                    .map(|(n, _)| n),
            )
            .cloned()
            .collect()
    }

    /// Names of all user-defined procedures.
    pub fn proc_names(&self) -> Vec<String> {
        self.commands
            .iter()
            .filter(|(_, c)| matches!(c, Some(Command::Proc(_))))
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Returns a proc definition, if `name` is a proc.
    pub fn get_proc(&self, name: &str) -> Option<Rc<ProcDef>> {
        match self.commands.get(name) {
            Some(Some(Command::Proc(p))) => Some(p.clone()),
            _ => None,
        }
    }

    /// Defines a procedure (the `proc` command calls this).
    pub fn define_proc(&mut self, name: &str, def: ProcDef) {
        self.bind(name, Command::Proc(Rc::new(def)));
    }

    /// Sets the output sink used by `echo` and `puts`.
    pub fn set_output(&mut self, sink: OutputSink) {
        self.output = sink;
    }

    /// Writes a string to the interpreter's output sink.
    pub fn write_output(&mut self, s: &str) {
        match &self.output {
            OutputSink::Stdout => print!("{s}"),
            OutputSink::Buffer(buf) => buf.borrow_mut().push_str(s),
            OutputSink::Func(f) => (f.borrow_mut())(s),
        }
    }

    // ----- variables --------------------------------------------------

    /// Current procedure-call level (0 = global).
    pub fn level(&self) -> usize {
        self.active
    }

    /// Follows `global`/`upvar` links to the owning frame. The common
    /// case (no link) borrows the caller's name — no allocation on the
    /// variable-access hot path.
    fn resolve<'a>(&self, mut frame: usize, name: &'a str) -> (usize, Cow<'a, str>) {
        let mut name: Cow<'a, str> = Cow::Borrowed(name);
        loop {
            match self.frames[frame].vars.get(name.as_ref()) {
                Some(VarSlot::Link { frame: f, name: n }) => {
                    let (f, n) = (*f, n.clone());
                    frame = f;
                    name = Cow::Owned(n);
                }
                _ => return (frame, name),
            }
        }
    }

    /// Reads a scalar variable in the active frame. The returned [`Value`]
    /// shares the variable's representation — cloning is an `Rc` bump and
    /// any cached numeric/list rep comes along for free.
    pub fn get_var(&self, name: &str) -> TclResult<Value> {
        self.get_var_ref(name).cloned()
    }

    /// Reads a scalar variable without cloning its value (the expression
    /// evaluator's hot path — the borrow ends before any mutation).
    pub(crate) fn get_var_ref(&self, name: &str) -> TclResult<&Value> {
        let (f, n) = self.resolve(self.active, name);
        match self.frames[f].vars.get(n.as_ref()) {
            Some(VarSlot::Value(Var::Scalar(s))) => Ok(s),
            Some(VarSlot::Value(Var::Array(_))) => Err(TclError::Error(format!(
                "can't read \"{name}\": variable is array"
            ))),
            _ => Err(TclError::Error(format!(
                "can't read \"{name}\": no such variable"
            ))),
        }
    }

    /// Reads an array element in the active frame.
    pub fn get_elem(&self, name: &str, index: &str) -> TclResult<Value> {
        self.get_elem_ref(name, index).cloned()
    }

    /// Reads an array element without cloning its value.
    pub(crate) fn get_elem_ref(&self, name: &str, index: &str) -> TclResult<&Value> {
        let (f, n) = self.resolve(self.active, name);
        match self.frames[f].vars.get(n.as_ref()) {
            Some(VarSlot::Value(Var::Array(map))) => map.get(index).ok_or_else(|| {
                TclError::Error(format!(
                    "can't read \"{name}({index})\": no such element in array"
                ))
            }),
            Some(VarSlot::Value(Var::Scalar(_))) => Err(TclError::Error(format!(
                "can't read \"{name}({index})\": variable isn't array"
            ))),
            _ => Err(TclError::Error(format!(
                "can't read \"{name}({index})\": no such variable"
            ))),
        }
    }

    /// Sets a scalar variable in the active frame. Accepts anything
    /// convertible to a [`Value`] (`&str`, `String`, `i64`, a shared
    /// `Value`…); storing a `Value` preserves its cached representations.
    pub fn set_var(&mut self, name: &str, value: impl Into<Value>) -> TclResult<()> {
        let value = value.into();
        let (f, n) = self.resolve(self.active, name);
        match self.frames[f].vars.get_mut(n.as_ref()) {
            Some(VarSlot::Value(Var::Array(_))) => Err(TclError::Error(format!(
                "can't set \"{name}\": variable is array"
            ))),
            Some(VarSlot::Value(Var::Scalar(s))) => {
                *s = value;
                self.fire_traces(&n, "", 'w');
                Ok(())
            }
            Some(VarSlot::Link { .. }) => unreachable!("resolve() follows links"),
            None => {
                self.frames[f]
                    .vars
                    .insert(n.to_string(), VarSlot::Value(Var::Scalar(value)));
                self.fire_traces(&n, "", 'w');
                Ok(())
            }
        }
    }

    /// Runs the traces registered for `name` matching operation `op`
    /// (`w` write, `u` unset). Trace-script errors are discarded, and
    /// recursion is bounded so a trace writing its own variable cannot
    /// loop forever.
    fn fire_traces(&mut self, name: &str, elem: &str, op: char) {
        if self.traces.is_empty() || self.tracing.get() >= 8 {
            return;
        }
        let scripts: Vec<String> = match self.traces.get(name) {
            Some(list) => list
                .iter()
                .filter(|(ops, _)| ops.contains(op))
                .map(|(_, s)| s.clone())
                .collect(),
            None => return,
        };
        if scripts.is_empty() {
            return;
        }
        self.tracing.set(self.tracing.get() + 1);
        for script in scripts {
            let full = format!(
                "{script} {} {} {}",
                crate::list::list_quote(name),
                crate::list::list_quote(elem),
                op
            );
            let _ = self.eval(&full);
        }
        self.tracing.set(self.tracing.get() - 1);
    }

    /// Registers a variable trace: `script` runs (with `name element op`
    /// appended) on every matching operation.
    pub fn add_trace(&mut self, name: &str, ops: &str, script: &str) {
        let (_, n) = self.resolve(self.active, name);
        self.traces
            .entry(n.into_owned())
            .or_default()
            .push((ops.to_string(), script.to_string()));
    }

    /// Removes a matching trace; returns true if one was removed.
    pub fn remove_trace(&mut self, name: &str, ops: &str, script: &str) -> bool {
        let (_, n) = self.resolve(self.active, name);
        if let Some(list) = self.traces.get_mut(n.as_ref()) {
            if let Some(ix) = list.iter().position(|(o, s)| o == ops && s == script) {
                list.remove(ix);
                return true;
            }
        }
        false
    }

    /// Lists the traces on a variable as `(ops, script)` pairs.
    pub fn trace_info(&self, name: &str) -> Vec<(String, String)> {
        let (_, n) = self.resolve(self.active, name);
        self.traces.get(n.as_ref()).cloned().unwrap_or_default()
    }

    /// Sets an array element in the active frame.
    pub fn set_elem(&mut self, name: &str, index: &str, value: impl Into<Value>) -> TclResult<()> {
        let value = value.into();
        let (f, n) = self.resolve(self.active, name);
        match self.frames[f]
            .vars
            .entry(n.to_string())
            .or_insert_with(|| VarSlot::Value(Var::Array(HashMap::new())))
        {
            VarSlot::Value(Var::Array(map)) => {
                map.insert(index.to_string(), value);
                self.fire_traces(&n, index, 'w');
                Ok(())
            }
            VarSlot::Value(Var::Scalar(_)) => Err(TclError::Error(format!(
                "can't set \"{name}({index})\": variable isn't array"
            ))),
            VarSlot::Link { .. } => unreachable!("resolve() follows links"),
        }
    }

    /// Unsets a variable (scalar or whole array) in the active frame.
    pub fn unset_var(&mut self, name: &str) -> TclResult<()> {
        let (f, n) = self.resolve(self.active, name);
        if self.frames[f].vars.remove(n.as_ref()).is_none() {
            return Err(TclError::Error(format!(
                "can't unset \"{name}\": no such variable"
            )));
        }
        self.fire_traces(&n, "", 'u');
        // Also remove the link itself if `name` was a link in the active frame.
        if f != self.active || n != name {
            if let Some(VarSlot::Link { .. }) = self.frames[self.active].vars.remove(name) {
                self.frames[self.active].links -= 1;
            }
        }
        Ok(())
    }

    /// Unsets one array element.
    pub fn unset_elem(&mut self, name: &str, index: &str) -> TclResult<()> {
        let (f, n) = self.resolve(self.active, name);
        match self.frames[f].vars.get_mut(n.as_ref()) {
            Some(VarSlot::Value(Var::Array(map))) => {
                if map.remove(index).is_none() {
                    return Err(TclError::Error(format!(
                        "can't unset \"{name}({index})\": no such element in array"
                    )));
                }
                Ok(())
            }
            _ => Err(TclError::Error(format!(
                "can't unset \"{name}({index})\": no such variable"
            ))),
        }
    }

    /// True if the variable (scalar or array) exists in the active frame.
    pub fn var_exists(&self, name: &str) -> bool {
        let (f, n) = self.resolve(self.active, name);
        self.frames[f].vars.contains_key(n.as_ref())
    }

    /// True if the variable exists and is an array.
    pub fn is_array(&self, name: &str) -> bool {
        let (f, n) = self.resolve(self.active, name);
        matches!(
            self.frames[f].vars.get(n.as_ref()),
            Some(VarSlot::Value(Var::Array(_)))
        )
    }

    /// Returns the element names of an array, unsorted.
    pub fn array_names(&self, name: &str) -> TclResult<Vec<String>> {
        let (f, n) = self.resolve(self.active, name);
        match self.frames[f].vars.get(n.as_ref()) {
            Some(VarSlot::Value(Var::Array(map))) => Ok(map.keys().cloned().collect()),
            _ => Err(TclError::Error(format!("\"{name}\" isn't an array"))),
        }
    }

    /// Names of variables visible in the active frame.
    pub fn var_names(&self) -> Vec<String> {
        self.frames[self.active].vars.keys().cloned().collect()
    }

    /// Names of global variables.
    pub fn global_names(&self) -> Vec<String> {
        self.frames[0].vars.keys().cloned().collect()
    }

    /// Creates a link named `local` in the active frame to `name` in
    /// `target_frame` (used by `global` and `upvar`).
    pub fn link_var(&mut self, local: &str, target_frame: usize, name: &str) -> TclResult<()> {
        if target_frame >= self.frames.len() {
            return Err(TclError::Error(format!(
                "bad level for variable link to \"{name}\""
            )));
        }
        let (tf, tn) = self.resolve(target_frame, name);
        if tf == self.active && tn == local {
            return Err(TclError::Error(format!(
                "can't upvar from variable to itself ({local})"
            )));
        }
        let old = self.frames[self.active].vars.insert(
            local.to_string(),
            VarSlot::Link {
                frame: tf,
                name: tn.into_owned(),
            },
        );
        if !matches!(old, Some(VarSlot::Link { .. })) {
            self.frames[self.active].links += 1;
        }
        Ok(())
    }

    /// True while the bytecode VM may cache scalar lookups of the active
    /// frame: no `global`/`upvar` links exist, so distinct names cannot
    /// alias one variable.
    pub(crate) fn bc_frame_cacheable(&self) -> bool {
        self.frames[self.active].links == 0
    }

    /// True if any variable write traces are registered (their scripts
    /// may touch arbitrary variables, so the VM must drop its cache).
    pub(crate) fn has_traces(&self) -> bool {
        !self.traces.is_empty()
    }

    // ----- evaluation -------------------------------------------------

    /// Evaluates a script and returns the result of its last command.
    ///
    /// Already-seen scripts skip lexing entirely: the text is looked up in
    /// the interpreter's parse-once cache and only substitution runs.
    pub fn eval(&mut self, script: &str) -> TclResult<Value> {
        let compiled = self.lookup_or_compile(script);
        self.eval_rc(compiled, || span_preview(script))
    }

    /// Evaluates an already-compiled script (same nesting accounting as
    /// [`Interp::eval`]).
    pub fn eval_compiled(&mut self, script: &Rc<CompiledScript>) -> TclResult<Value> {
        // Our own handle: cache eviction during evaluation must not be
        // able to drop the script out from under us.
        self.eval_rc(script.clone(), String::new)
    }

    /// The one evaluation entry: nesting limit, `tcl.eval` span (with
    /// `detail` as its text) and timer around the compiled script.
    fn eval_rc(
        &mut self,
        script: Rc<CompiledScript>,
        detail: impl FnOnce() -> String,
    ) -> TclResult<Value> {
        // One enabled-flag load when telemetry is off; nested evals
        // (bracket substitution, loop bodies) each count as one eval.
        let timer = self.telemetry.timer();
        // A top-level eval attributes the value layer's shimmer counts
        // to this interpreter's store.
        let _shimmer = (self.depth == 0).then(|| crate::value::count_into(&self.telemetry));
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            self.depth -= 1;
            return Err(TclError::error(NESTING_ERROR));
        }
        let span = self.telemetry.span_begin(Metric::TclEval.name(), detail);
        let r = self.eval_compiled_inner(&script);
        if span {
            self.telemetry.span_end();
        }
        self.depth -= 1;
        if timer.is_some() {
            self.telemetry.count(Metric::TclEvals);
            self.telemetry.observe_since(Metric::TclEval, timer);
        }
        r
    }

    /// Evaluates a script held in a [`Value`], caching the compiled form
    /// in the value itself. A braced body that is a shared literal of a
    /// compiled script (e.g. `catch {...}` inside a loop) hits the rep on
    /// every iteration after the first — no hashing, no text lookup.
    pub fn eval_value(&mut self, script: &Value) -> TclResult<Value> {
        let compiled = self.compiled_value(script);
        self.eval_rc(compiled, String::new)
    }

    /// The compiled form of a script held in a [`Value`] (loop bodies):
    /// its script rep, else the text cache's entry or a fresh compile,
    /// which then becomes the rep — so the same `Value` (a shared
    /// loop-body literal) compiles once whatever the cache bound.
    pub(crate) fn compiled_value(&mut self, script: &Value) -> Rc<CompiledScript> {
        if let Some(c) = script.cached_script() {
            return c;
        }
        let c = self.lookup_or_compile(script.as_str());
        script.cache_script(c.clone());
        c
    }

    /// Cache lookup + compile-on-miss. Text the cache does not keep
    /// (limit 0, over-long) is compiled for this run only.
    fn lookup_or_compile(&mut self, script: &str) -> Rc<CompiledScript> {
        self.script_cache
            .get_or_insert_with(script, &self.telemetry, || Rc::new(compile(script)))
    }

    // ----- telemetry --------------------------------------------------

    /// The interpreter's telemetry handle (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Replaces the telemetry handle, typically with one shared across
    /// the whole stack (interpreter, toolkit, pipe protocol) so a single
    /// snapshot sees every layer.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    // ----- counters ---------------------------------------------------

    /// The parse caches' sizes and bound — state, not counters, so read
    /// live rather than kept in the store.
    pub fn cache_sizes(&self) -> [(Metric, u64); 4] {
        [
            (TclCacheScriptEntries, self.script_cache.len() as u64),
            (TclCacheExprEntries, self.expr_cache.len() as u64),
            (TclCacheSubstEntries, self.subst_cache.len() as u64),
            (TclCacheLimit, self.script_cache.limit() as u64),
        ]
    }

    /// One metric as this interpreter reports it: a cache size read
    /// live, anything else from the telemetry store.
    pub fn metric(&self, m: Metric) -> u64 {
        let live = self.cache_sizes().into_iter().find(|&(k, _)| k == m);
        live.map_or_else(|| self.telemetry.value(m), |(_, v)| v)
    }

    // ----- bytecode layer --------------------------------------------

    /// Enables/disables the bytecode VM (the E23 same-binary baseline
    /// switch, and `interp bcdisable`/`bcenable`). Returns the previous
    /// setting. Compiled bytecode stays cached while disabled.
    pub fn set_bc_enabled(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.bc_enabled, on)
    }

    /// True while compiled scripts execute through the bytecode VM.
    pub fn bc_enabled(&self) -> bool {
        self.bc_enabled
    }

    /// Empties the parse caches (counters are kept).
    pub fn cache_clear(&mut self) {
        self.script_cache.clear();
        self.expr_cache.clear();
        self.subst_cache.clear();
    }

    /// The text caches' bound; 0 means they keep nothing.
    pub fn cache_limit(&self) -> usize {
        self.script_cache.limit()
    }

    /// Sets the bound of the script, expression and substitution text
    /// caches, trimming immediately. At `0` they keep and count nothing;
    /// `Value` script reps, proc bodies and bytecode are kept regardless.
    pub fn set_cache_limit(&mut self, limit: usize) {
        self.script_cache.set_limit(limit, &self.telemetry);
        self.expr_cache.set_limit(limit, &self.telemetry);
        self.subst_cache.set_limit(limit, &self.telemetry);
    }

    pub(crate) fn expr_cache_get(&mut self, text: &str) -> Option<Rc<CompiledExpr>> {
        self.expr_cache.get(text, &self.telemetry)
    }

    pub(crate) fn expr_cache_put(&mut self, text: &str, compiled: Rc<CompiledExpr>) {
        self.expr_cache.insert(text, compiled, &self.telemetry);
    }

    // ----- compiled evaluation ---------------------------------------

    /// Runs `f` with the nesting depth raised by `level`: the bracket
    /// and body evaluations the bytecode VM inlined between its entry and
    /// a call site, each of which the tree-walker charges one level. A
    /// nested evaluation from that site then hits
    /// [`MAX_NESTING_DEPTH`] exactly where the tree-walker would.
    pub(crate) fn at_inline_level<R>(&mut self, level: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        self.depth += level as usize;
        self.inlined += level as usize;
        let r = f(self);
        self.depth -= level as usize;
        self.inlined -= level as usize;
        r
    }

    fn eval_compiled_inner(&mut self, script: &CompiledScript) -> TclResult<Value> {
        // Bytecode fast path: lower the script once and dispatch a flat
        // instruction stream. The compiler declines rather than guesses —
        // a `None` here (a script holding a syntax error, a first run of
        // a script that does not loop, or `bcdisable`, or recursion past
        // `BC_MAX_DEPTH`)
        // means the tree-walker below runs instead.
        // The VM bound counts entered evaluations only: inlined ones add
        // no native frames.
        if self.bc_enabled && self.depth - self.inlined <= BC_MAX_DEPTH {
            if let Some(code) = crate::bc::bytecode_for(self, script) {
                // Code whose inlined brackets and bodies would nest past
                // the limit tree-walks, which raises the error at the
                // exact command.
                if self.depth + code.nesting <= MAX_NESTING_DEPTH {
                    return crate::bc::execute(self, &code);
                }
            }
        }
        let mut result = Value::empty();
        for cmd in &script.commands {
            result = match &cmd.literal {
                // All-literal command: substitution is the identity, so
                // the precomputed argv is invoked with no allocation. The
                // shared literal `Value`s accumulate cached reps (numeric,
                // interned command) across iterations.
                Some(words) => self.invoke(words)?,
                None => {
                    let mut words: Vec<Value> = Vec::with_capacity(cmd.words.len());
                    for w in &cmd.words {
                        words.push(self.subst_token(w)?);
                    }
                    self.invoke(&words)?
                }
            };
        }
        Ok(result)
    }

    /// Performs the per-evaluation substitution step for one token.
    pub(crate) fn subst_token(&mut self, token: &Token) -> TclResult<Value> {
        match token {
            Token::Literal(v) => Ok(v.clone()),
            Token::VarSub(name, None) => self.get_var(name),
            Token::VarSub(name, Some(index)) => {
                let mut idx = String::new();
                for part in index {
                    idx.push_str(&self.subst_token(part)?);
                }
                self.get_elem(name, &idx)
            }
            Token::BracketSub(inner) => self.eval_compiled(inner),
            Token::Compound(parts) => {
                let mut out = String::new();
                for part in parts {
                    out.push_str(&self.subst_token(part)?);
                }
                Ok(Value::from(out))
            }
            Token::Error(msg) => Err(TclError::error(&**msg)),
        }
    }

    /// Evaluates a script at a given frame level (used by `uplevel`).
    pub fn eval_at_level(&mut self, level: usize, script: &str) -> TclResult<Value> {
        if level >= self.frames.len() {
            return Err(TclError::Error(format!("bad level \"{level}\"")));
        }
        let saved = self.active;
        self.active = level;
        let r = self.eval(script);
        self.active = saved;
        r
    }

    /// Invokes a fully-substituted command word list.
    ///
    /// Unknown commands fall back to the `unknown` procedure when one is
    /// defined (classic Tcl: `proc unknown {args} {...}` intercepts every
    /// unresolved command with the original words as its arguments).
    pub fn invoke(&mut self, words: &[Value]) -> TclResult<Value> {
        let timer = self.telemetry.timer();
        let r = self.invoke_inner(words);
        if timer.is_some() {
            self.telemetry.count(Metric::TclDispatches);
            self.telemetry.observe_since(Metric::TclDispatch, timer);
        }
        r
    }

    fn invoke_inner(&mut self, words: &[Value]) -> TclResult<Value> {
        // Interned fast path: a command-name Value that already resolved
        // at the current epoch skips hashing the name entirely. Weak
        // handles fail closed — a dead upgrade falls through to lookup.
        if let Some(intern) = words[0].cached_cmd(self.cmd_epoch) {
            match intern {
                CmdIntern::Native(w) => {
                    if let Some(f) = w.upgrade() {
                        return f(self, words);
                    }
                }
                CmdIntern::Proc(w) => {
                    if let Some(p) = w.upgrade() {
                        return self.call_proc(&words[0], &p, &words[1..]);
                    }
                }
            }
        }
        match self.lookup(words[0].as_str()) {
            Some(Command::Native(f)) => {
                words[0].intern_cmd(self.cmd_epoch, CmdIntern::Native(Rc::downgrade(&f)));
                f(self, words)
            }
            Some(Command::Proc(p)) => {
                words[0].intern_cmd(self.cmd_epoch, CmdIntern::Proc(Rc::downgrade(&p)));
                self.call_proc(&words[0], &p, &words[1..])
            }
            None => {
                if words[0] != "unknown" {
                    if let Some(Command::Proc(p)) = self.lookup("unknown") {
                        return self.call_proc("unknown", &p, words);
                    }
                }
                Err(TclError::Error(format!(
                    "invalid command name \"{}\"",
                    words[0]
                )))
            }
        }
    }

    fn call_proc(&mut self, name: &str, p: &ProcDef, actuals: &[Value]) -> TclResult<Value> {
        let mut frame = Frame::default();
        let mut ai = 0usize;
        for (fi, (formal, default)) in p.args.iter().enumerate() {
            if formal == "args" && fi == p.args.len() - 1 {
                // The rest-args list is built as a shared list rep; it
                // renders to the canonical `list_join` form on demand.
                let rest = Value::from_list(actuals[ai.min(actuals.len())..].to_vec());
                frame
                    .vars
                    .insert("args".into(), VarSlot::Value(Var::Scalar(rest)));
                ai = actuals.len();
                break;
            }
            if ai < actuals.len() {
                frame.vars.insert(
                    formal.clone(),
                    VarSlot::Value(Var::Scalar(actuals[ai].clone())),
                );
                ai += 1;
            } else if let Some(d) = default {
                frame.vars.insert(
                    formal.clone(),
                    VarSlot::Value(Var::Scalar(Value::from(d.as_str()))),
                );
            } else {
                return Err(TclError::Error(format!(
                    "no value given for parameter \"{formal}\" to \"{name}\""
                )));
            }
        }
        if ai < actuals.len() {
            return Err(TclError::Error(format!(
                "called \"{name}\" with too many arguments"
            )));
        }
        self.frames.push(frame);
        let saved_active = self.active;
        self.active = self.frames.len() - 1;
        let span = self.telemetry.span_begin("tcl.proc", || name.to_string());
        let prof = self.profiler.enter(name);
        let r = self.eval_compiled(&p.compiled);
        if prof {
            self.profiler.exit();
        }
        if span {
            self.telemetry.span_end();
        }
        self.frames.pop();
        self.active = saved_active;
        match r {
            Ok(v) => Ok(v),
            Err(TclError::Return(v)) => Ok(Value::from(v)),
            Err(TclError::Break) => Err(TclError::error("invoked \"break\" outside of a loop")),
            Err(TclError::Continue) => {
                Err(TclError::error("invoked \"continue\" outside of a loop"))
            }
            Err(e) => Err(e),
        }
    }

    /// Performs `$`, `[]` and backslash substitution on an entire string
    /// (the text of `subst`, which is runtime data). The text compiles
    /// once, like a script; a syntax error is raised after the
    /// substitutions before it have run.
    pub fn substitute_all(&mut self, s: &str) -> TclResult<String> {
        let parts: Rc<[Token]> = self
            .subst_cache
            .get_or_insert_with(s, &self.telemetry, || compile_subst(s).into());
        let mut out = String::new();
        for part in parts.iter() {
            out.push_str(&self.subst_token(part)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut i = Interp::new();
        assert_eq!(i.eval("set x hello").unwrap(), "hello");
        assert_eq!(i.eval("set x").unwrap(), "hello");
        assert_eq!(i.get_var("x").unwrap(), "hello");
    }

    #[test]
    fn variable_substitution_forms() {
        let mut i = Interp::new();
        i.set_var("a", "1").unwrap();
        i.set_elem("arr", "k", "v").unwrap();
        assert_eq!(i.eval("set r $a").unwrap(), "1");
        assert_eq!(i.eval("set r ${a}x").unwrap(), "1x");
        assert_eq!(i.eval("set r $arr(k)").unwrap(), "v");
        i.set_var("key", "k").unwrap();
        assert_eq!(i.eval("set r $arr($key)").unwrap(), "v");
    }

    #[test]
    fn command_substitution() {
        let mut i = Interp::new();
        assert_eq!(i.eval("set r [set x 5]").unwrap(), "5");
        assert_eq!(i.eval("set r a[set x 5]b").unwrap(), "a5b");
    }

    #[test]
    fn braces_defer_substitution() {
        let mut i = Interp::new();
        i.set_var("x", "1").unwrap();
        assert_eq!(i.eval("set r {$x [set y]}").unwrap(), "$x [set y]");
    }

    #[test]
    fn quotes_substitute_but_keep_spaces() {
        let mut i = Interp::new();
        i.set_var("x", "1").unwrap();
        assert_eq!(i.eval("set r \"a $x b\"").unwrap(), "a 1 b");
    }

    #[test]
    fn semicolons_and_newlines_separate() {
        let mut i = Interp::new();
        assert_eq!(i.eval("set a 1; set b 2\nset c 3").unwrap(), "3");
        assert_eq!(i.get_var("a").unwrap(), "1");
        assert_eq!(i.get_var("b").unwrap(), "2");
    }

    #[test]
    fn comments_skipped() {
        let mut i = Interp::new();
        assert_eq!(i.eval("# comment\nset x 1").unwrap(), "1");
        // `#` not at command start is literal.
        assert_eq!(i.eval("set x a#b").unwrap(), "a#b");
    }

    #[test]
    fn backslash_newline_continues_command() {
        let mut i = Interp::new();
        assert_eq!(i.eval("set x \\\n   5").unwrap(), "5");
    }

    #[test]
    fn unknown_command_error() {
        let mut i = Interp::new();
        let e = i.eval("nosuchcmd").unwrap_err();
        assert_eq!(e.message(), "invalid command name \"nosuchcmd\"");
    }

    #[test]
    fn unset_and_exists() {
        let mut i = Interp::new();
        i.set_var("x", "1").unwrap();
        assert!(i.var_exists("x"));
        i.unset_var("x").unwrap();
        assert!(!i.var_exists("x"));
        assert!(i.unset_var("x").is_err());
        assert!(i.get_var("x").is_err());
    }

    #[test]
    fn proc_with_defaults_and_args() {
        let mut i = Interp::new();
        i.eval("proc f {a {b B} args} {return $a-$b-$args}")
            .unwrap();
        assert_eq!(i.eval("f 1").unwrap(), "1-B-");
        assert_eq!(i.eval("f 1 2").unwrap(), "1-2-");
        assert_eq!(i.eval("f 1 2 3 4").unwrap(), "1-2-3 4");
        assert!(i.eval("f").is_err());
    }

    #[test]
    fn proc_frames_isolate_variables() {
        let mut i = Interp::new();
        i.set_var("x", "global").unwrap();
        i.eval("proc f {} {set x local; set x}").unwrap();
        assert_eq!(i.eval("f").unwrap(), "local");
        assert_eq!(i.get_var("x").unwrap(), "global");
    }

    #[test]
    fn global_links_work() {
        let mut i = Interp::new();
        i.set_var("g", "1").unwrap();
        i.eval("proc f {} {global g; set g 2}").unwrap();
        i.eval("f").unwrap();
        assert_eq!(i.get_var("g").unwrap(), "2");
    }

    #[test]
    fn nesting_depth_limit() {
        let mut i = Interp::new();
        i.eval("proc f {} {f}").unwrap();
        let e = i.eval("f").unwrap_err();
        assert!(e.message().contains("too many nested calls"));
    }

    #[test]
    fn rename_command() {
        let mut i = Interp::new();
        i.eval("proc f {} {return hi}").unwrap();
        i.rename_command("f", "g").unwrap();
        assert_eq!(i.eval("g").unwrap(), "hi");
        assert!(i.eval("f").is_err());
        assert!(i.rename_command("nope", "x").is_err());
    }

    #[test]
    fn output_capture() {
        let buf = Rc::new(RefCell::new(String::new()));
        let mut i = Interp::new();
        i.set_output(OutputSink::Buffer(buf.clone()));
        i.eval("echo hello world").unwrap();
        assert_eq!(&*buf.borrow(), "hello world\n");
    }

    #[test]
    fn dollar_without_name_is_literal() {
        let mut i = Interp::new();
        assert_eq!(i.eval("set x $").unwrap(), "$");
        assert_eq!(i.eval("set x a$").unwrap(), "a$");
    }

    #[test]
    fn extra_chars_after_brace_error() {
        let mut i = Interp::new();
        assert!(i.eval("set x {a}b").is_err());
    }

    #[test]
    fn unknown_proc_intercepts_missing_commands() {
        let mut i = Interp::new();
        i.eval("proc unknown {args} {return \"caught: $args\"}")
            .unwrap();
        assert_eq!(i.eval("frobnicate a b").unwrap(), "caught: frobnicate a b");
        // Defined commands are unaffected.
        assert_eq!(i.eval("set x 1").unwrap(), "1");
    }

    #[test]
    fn unknown_absent_still_errors() {
        let mut i = Interp::new();
        let e = i.eval("frobnicate").unwrap_err();
        assert!(e.message().contains("invalid command name"));
    }
}
