//! Interpreter checkpointing: a rep-preserving snapshot of the global
//! frame and the proc table. The byte encoding lives with the rest of
//! the session snapshot format in `wafe_core::snapshot`.
//!
//! Two invariants the property suite pins start here:
//!
//! 1. **Capture never shimmers.** Reading a value for the snapshot uses
//!    [`Value::snapshot_parts`], which clones the cached rep and the
//!    *already computed* string rep without forcing a render or a
//!    parse. A dual-rep value crosses the checkpoint boundary with both
//!    representations intact.
//! 2. **Capture is canonical.** Globals and procs are captured in
//!    sorted order, so the same interpreter state always yields the
//!    same snapshot — re-parking a restored session yields a
//!    byte-identical blob.
//!
//! Restoring re-validates every cached rep against its string rep
//! ([`Value::from_snapshot_parts`], called by the decoder); a corrupt
//! blob degrades to string-only values instead of planting
//! non-canonical reps.

use crate::interp::{Interp, ProcDef};
use crate::Value;

/// One captured global variable.
#[derive(Debug, Clone)]
pub enum VarSnap {
    /// A scalar and its value.
    Scalar(Value),
    /// An associative array as key-sorted element pairs.
    Array(Vec<(String, Value)>),
}

/// One captured proc: `(name, formals-with-defaults, body)`.
pub type ProcSnap = (String, Vec<(String, Option<String>)>, String);

/// A rep-preserving snapshot of an interpreter's persistent scripting
/// state: the global frame and the proc table. Command registrations,
/// caches and telemetry are *not* captured — they are reconstructed by
/// the embedding when it builds the session the snapshot restores into.
#[derive(Debug, Clone, Default)]
pub struct InterpSnapshot {
    /// Global variables, name-sorted.
    pub globals: Vec<(String, VarSnap)>,
    /// User-defined procs, name-sorted: `(name, formals, body)`.
    pub procs: Vec<ProcSnap>,
}

impl InterpSnapshot {
    /// Captures the interpreter's global frame and proc table. Values
    /// are read without forcing representations (no shimmer).
    pub fn capture(interp: &Interp) -> InterpSnapshot {
        let mut globals = Vec::new();
        let mut names = interp.global_names();
        names.sort();
        for name in names {
            if interp.is_array(&name) {
                let mut keys = interp.array_names(&name).unwrap_or_default();
                keys.sort();
                let elems = keys
                    .into_iter()
                    .filter_map(|k| interp.get_elem(&name, &k).ok().map(|v| (k, v)))
                    .collect();
                globals.push((name, VarSnap::Array(elems)));
            } else if let Ok(v) = interp.get_var(&name) {
                globals.push((name, VarSnap::Scalar(v)));
            }
        }
        let mut procs = Vec::new();
        let mut proc_names = interp.proc_names();
        proc_names.sort();
        for name in proc_names {
            if let Some(def) = interp.get_proc(&name) {
                procs.push((name, def.args.clone(), def.body.clone()));
            }
        }
        InterpSnapshot { globals, procs }
    }

    /// Applies the snapshot to an interpreter: defines every proc
    /// (recompiling its body) and sets every global, preserving cached
    /// value reps. Existing state with colliding names is overwritten;
    /// everything else is left alone.
    pub fn apply(&self, interp: &mut Interp) {
        for (name, args, body) in &self.procs {
            interp.define_proc(name, ProcDef::new(args.clone(), body.clone()));
        }
        for (name, var) in &self.globals {
            match var {
                VarSnap::Scalar(v) => {
                    let _ = interp.set_var(name, v.clone());
                }
                VarSnap::Array(elems) => {
                    for (k, v) in elems {
                        let _ = interp.set_elem(name, k, v.clone());
                    }
                }
            }
        }
    }
}
