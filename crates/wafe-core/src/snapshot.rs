//! Session checkpointing: a versioned, checksummed binary snapshot of
//! a [`WafeSession`] — the rolling-restart foundation behind waferd's
//! park/restore (`docs/checkpoint.md`). This module is the whole byte
//! format; it writes through the same big-endian [`wafe_display::wire`]
//! codec display frames use.
//!
//! A snapshot is a header, five sections and a trailer:
//!
//! * **Header** — the magic `WAFESNAP`, a format-version byte and a
//!   flavour byte (the widget set the session was built with).
//! 1. **Interp** — global variables and procs, rep-preserving
//!    ([`wafe_tcl::InterpSnapshot`]).
//! 2. **Widgets** — structural creation records (name, class, parent,
//!    managed, re-convertible resource values, class-private state),
//!    replayed through `create_widget`/`set_resource` on restore.
//! 3. **Resource DB** — the Xrm database's specification lines, in
//!    insertion order (precedence ties resolve identically on replay).
//! 4. **Outbound** — application-bound lines queued at capture time
//!    (the supervisor's bounded queue in frontend mode, the protocol
//!    engine's pending lines in serve mode); the embedding replays them
//!    in order after restore.
//! 5. **Displays** — per-display damage state: frame sequence number,
//!    compositing flag, and the pending-frame damage rectangles, so a
//!    parked session that owes its remote client a frame still owes it
//!    after restore.
//!
//! * **Trailer** — FNV-1a over every preceding byte. A flipped bit
//!   anywhere, or a truncation, fails the decode.
//!
//! ## Versioning policy
//!
//! A reader accepts exactly its own [`FORMAT_VERSION`] and rejects
//! anything else with an error naming both versions — **never** a
//! best-effort decode of an unknown layout. Any layout change, however
//! small, bumps the version; parked sessions do not survive a format
//! bump (they are re-creatable state, and a silent mis-decode is worse
//! than an explicit re-login).
//!
//! The version is checked on the raw header *before* the checksum:
//! versions 1 and 2 had no trailer, and wrote the version as a
//! little-endian `u32` whose first byte is the version byte read here.
//! So an old blob fails with "format version N not supported", not
//! with a checksum error.

use wafe_display::wire::{DecodeError, Reader, Writer};
use wafe_tcl::snapshot::{InterpSnapshot, VarSnap};
use wafe_tcl::{IntRep, Value};

use crate::session::{Flavor, WafeSession};

/// The 8-byte magic every snapshot starts with.
pub const MAGIC: &[u8; 8] = b"WAFESNAP";

/// The format version this build writes and the only one it reads.
/// Version 2 added the display damage section; version 3 made the
/// blob big-endian, added the flavour byte and the checksum trailer.
pub const FORMAT_VERSION: u8 = 3;

/// One widget's structural creation record.
#[derive(Debug, Clone, PartialEq)]
pub struct WidgetSnap {
    /// Instance name.
    pub name: String,
    /// Class name.
    pub class: String,
    /// Parent instance name (None for shells created on the display).
    pub parent: Option<String>,
    /// Created managed?
    pub managed: bool,
    /// Had a window at capture time (re-realized on restore).
    pub realized: bool,
    /// Creation arguments rebuilding the non-default resource state.
    pub init: Vec<(String, String)>,
    /// Class-private instance state (text content, toggle state …),
    /// key-sorted.
    pub state: Vec<(String, String)>,
}

/// Damage/compositing state of one display at capture time, so a
/// remote display client's pending frame survives a park/restore.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DisplayDamageSnap {
    /// Sequence number of the last shipped frame.
    pub frame_seq: u64,
    /// A remote client was attached (compositing on).
    pub compositing: bool,
    /// The pending frame covers the whole screen.
    pub pending_full: bool,
    /// Pending damage rectangles `(x, y, w, h)`, canonical order.
    pub pending_rects: Vec<(i32, i32, u32, u32)>,
}

/// What a restore actually did — surfaced in telemetry and the
/// `session snapshots` listing rather than silently swallowed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Widgets created (or updated in place for pre-existing names).
    pub widgets: usize,
    /// Widget records that could not be replayed (e.g. class missing in
    /// this flavour).
    pub widgets_skipped: usize,
    /// Globals set.
    pub globals: usize,
    /// Procs defined.
    pub procs: usize,
}

/// A versioned snapshot of one session. Build with
/// [`capture`](Self::capture), move as bytes via
/// [`encode`](Self::encode)/[`decode`](Self::decode), and apply to a
/// fresh session with [`restore_into`](Self::restore_into).
#[derive(Debug, Clone, Default)]
pub struct SessionSnapshot {
    /// The widget set the session was built with; a snapshot restores
    /// only into a session of the same flavour.
    pub flavor: Flavor,
    /// Interpreter globals and procs.
    pub interp: InterpSnapshot,
    /// Widget creation records, in creation order.
    pub widgets: Vec<WidgetSnap>,
    /// Xrm database lines, in insertion order.
    pub xrm_lines: Vec<String>,
    /// Application-bound lines queued at capture time.
    pub outbound: Vec<String>,
    /// Per-display damage state, in display order.
    pub displays: Vec<DisplayDamageSnap>,
}

impl SessionSnapshot {
    /// Captures a session's persistent state. `outbound` is whatever
    /// application-bound queue the embedding owns at park time (the
    /// session itself cannot see it).
    pub fn capture(session: &WafeSession, outbound: Vec<String>) -> SessionSnapshot {
        let interp = InterpSnapshot::capture(&session.interp);
        let mut app = session.app.borrow_mut();
        let displays = app
            .displays
            .iter_mut()
            .map(|d| {
                let (frame_seq, compositing, pending_full, rects) = d.damage_state();
                DisplayDamageSnap {
                    frame_seq,
                    compositing,
                    pending_full,
                    pending_rects: rects.iter().map(|r| (r.x, r.y, r.w, r.h)).collect(),
                }
            })
            .collect();
        let mut widgets = Vec::new();
        for id in app.widgets_in_creation_order() {
            let rec = app.widget(id);
            let mut state: Vec<(String, String)> = rec
                .state
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            state.sort();
            widgets.push(WidgetSnap {
                name: rec.name.clone(),
                class: rec.class.name.clone(),
                parent: rec.parent.map(|p| app.widget(p).name.clone()),
                managed: rec.managed,
                realized: rec.realized,
                init: app.snapshot_init_pairs(id),
                state,
            });
        }
        SessionSnapshot {
            flavor: session.flavor,
            interp,
            widgets,
            xrm_lines: app.resource_db.lines(),
            outbound,
            displays,
        }
    }

    /// Applies the snapshot to a freshly built session of the same
    /// flavour (decode with [`decode_for`](Self::decode_for) to have
    /// that checked): merges the resource DB, replays widget creation,
    /// defines procs and sets globals. Returns what was restored; the
    /// caller replays [`outbound`](Self::outbound) through its own
    /// transport afterwards.
    pub fn restore_into(&self, session: &mut WafeSession) -> RestoreReport {
        let mut report = RestoreReport {
            globals: self.interp.globals.len(),
            procs: self.interp.procs.len(),
            ..RestoreReport::default()
        };
        {
            let mut app = session.app.borrow_mut();
            for line in &self.xrm_lines {
                app.resource_db.insert_line(line);
            }
            for snap in &self.widgets {
                let existing = app.lookup(&snap.name);
                let id = match existing {
                    Some(id) => {
                        // The fresh session already made this widget
                        // (the automatic topLevel shell): update its
                        // resources in place instead of re-creating.
                        for (name, text) in &snap.init {
                            let _ = app.set_resource(id, name, text);
                        }
                        id
                    }
                    None => {
                        let parent = snap.parent.as_ref().and_then(|p| app.lookup(p));
                        if snap.parent.is_some() && parent.is_none() {
                            report.widgets_skipped += 1;
                            continue;
                        }
                        match app.create_widget(
                            &snap.name,
                            &snap.class,
                            parent,
                            0,
                            &snap.init,
                            snap.managed,
                        ) {
                            Ok(id) => id,
                            Err(_) => {
                                report.widgets_skipped += 1;
                                continue;
                            }
                        }
                    }
                };
                for (k, v) in &snap.state {
                    app.set_state(id, k, v.clone());
                }
                report.widgets += 1;
            }
            for snap in &self.widgets {
                if !snap.realized {
                    continue;
                }
                if let Some(id) = app.lookup(&snap.name) {
                    if !app.is_realized(id) {
                        app.realize(id);
                    }
                }
            }
            for (i, snap) in self.displays.iter().enumerate() {
                if let Some(d) = app.displays.get_mut(i) {
                    let rects: Vec<wafe_xproto::Rect> = snap
                        .pending_rects
                        .iter()
                        .map(|&(x, y, w, h)| wafe_xproto::Rect::new(x, y, w, h))
                        .collect();
                    d.restore_damage_state(
                        snap.frame_seq,
                        snap.compositing,
                        snap.pending_full,
                        &rects,
                    );
                }
            }
        }
        self.interp.apply(&mut session.interp);
        report
    }

    /// Encodes the snapshot: header, the five sections, checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_bytes(MAGIC);
        w.put_u8(FORMAT_VERSION);
        w.put_u8(flavor_code(self.flavor));
        encode_interp(&mut w, &self.interp);
        w.put_u32(self.widgets.len() as u32);
        for wid in &self.widgets {
            w.put_str(&wid.name);
            w.put_str(&wid.class);
            w.put_opt_str(wid.parent.as_deref());
            w.put_u8(wid.managed as u8);
            w.put_u8(wid.realized as u8);
            put_pairs(&mut w, &wid.init);
            put_pairs(&mut w, &wid.state);
        }
        put_lines(&mut w, &self.xrm_lines);
        put_lines(&mut w, &self.outbound);
        w.put_u32(self.displays.len() as u32);
        for d in &self.displays {
            w.put_u64(d.frame_seq);
            w.put_u8(d.compositing as u8);
            w.put_u8(d.pending_full as u8);
            w.put_u32(d.pending_rects.len() as u32);
            for &(x, y, rw, rh) in &d.pending_rects {
                w.put_i32(x);
                w.put_i32(y);
                w.put_u32(rw);
                w.put_u32(rh);
            }
        }
        w.finish()
    }

    /// Decodes a snapshot, accepting exactly [`FORMAT_VERSION`].
    pub fn decode(bytes: &[u8]) -> Result<SessionSnapshot, String> {
        Self::decode_as(bytes, FORMAT_VERSION)
    }

    /// Decodes a snapshot that is to restore into a session of
    /// `flavor`, refusing one taken under another flavour: its widget
    /// records name classes the session may not have.
    pub fn decode_for(bytes: &[u8], flavor: Flavor) -> Result<SessionSnapshot, String> {
        let snap = Self::decode(bytes)?;
        if snap.flavor != flavor {
            return Err(format!(
                "snapshot taken under flavour {:?}, session is {flavor:?}",
                snap.flavor
            ));
        }
        Ok(snap)
    }

    /// Decodes a snapshot against an explicit reader version — the
    /// version-compatibility tests use this to model a future reader.
    /// The policy is exact match: any other version is rejected with an
    /// error naming both versions, never a best-effort decode.
    pub fn decode_as(bytes: &[u8], reader_version: u8) -> Result<SessionSnapshot, String> {
        let mut head = Reader::unverified(bytes);
        head.expect_magic(MAGIC)
            .map_err(|_| "not a Wafe snapshot (bad magic)".to_string())?;
        let version = head.u8().map_err(corrupt)?;
        if version != reader_version {
            return Err(format!(
                "snapshot format version {version} not supported (reader expects {reader_version})"
            ));
        }
        Self::decode_body(bytes).map_err(corrupt)
    }

    fn decode_body(bytes: &[u8]) -> Result<SessionSnapshot, DecodeError> {
        let mut r = Reader::checked(bytes)?;
        r.expect_magic(MAGIC)?;
        r.u8()?;
        let flavor = match r.u8()? {
            0 => Flavor::Athena,
            1 => Flavor::Motif,
            2 => Flavor::Both,
            _ => return Err(DecodeError::BadValue("flavour")),
        };
        let interp = decode_interp(&mut r)?;
        let nwidgets = r.u32()?;
        let mut widgets = Vec::new();
        for _ in 0..nwidgets {
            widgets.push(WidgetSnap {
                name: r.str()?,
                class: r.str()?,
                parent: r.opt_str()?,
                managed: r.u8()? != 0,
                realized: r.u8()? != 0,
                init: take_pairs(&mut r)?,
                state: take_pairs(&mut r)?,
            });
        }
        let xrm_lines = take_lines(&mut r)?;
        let outbound = take_lines(&mut r)?;
        let ndisplays = r.u32()?;
        let mut displays = Vec::new();
        for _ in 0..ndisplays {
            let frame_seq = r.u64()?;
            let compositing = r.u8()? != 0;
            let pending_full = r.u8()? != 0;
            let nrects = r.u32()?;
            let mut pending_rects = Vec::new();
            for _ in 0..nrects {
                pending_rects.push((r.i32()?, r.i32()?, r.u32()?, r.u32()?));
            }
            displays.push(DisplayDamageSnap {
                frame_seq,
                compositing,
                pending_full,
                pending_rects,
            });
        }
        r.done()?;
        Ok(SessionSnapshot {
            flavor,
            interp,
            widgets,
            xrm_lines,
            outbound,
            displays,
        })
    }
}

fn corrupt(e: DecodeError) -> String {
    format!("corrupt snapshot: {e}")
}

fn flavor_code(flavor: Flavor) -> u8 {
    match flavor {
        Flavor::Athena => 0,
        Flavor::Motif => 1,
        Flavor::Both => 2,
    }
}

// Value rep tags.
const REP_NONE: u8 = 0;
const REP_INT: u8 = 1;
const REP_DOUBLE: u8 = 2;
const REP_BOOL: u8 = 3;
const REP_LIST: u8 = 4;

// Variable slot kinds.
const VAR_SCALAR: u8 = 0;
const VAR_ARRAY: u8 = 1;

/// Encodes one value: presence-tagged string rep, then the cached rep.
/// `Script` reps are canonicalized to their source string (the compiled
/// body is a cache; it is rebuilt lazily after restore), so encoding is
/// stable under decode→encode.
fn encode_value(w: &mut Writer, v: &Value) {
    let (str_rep, rep) = v.snapshot_parts();
    // A Script rep without its source string cannot exist (scripts are
    // compiled from strings); degrade defensively to the rendered form.
    let str_rep = match (&str_rep, &rep) {
        (None, IntRep::Script(_)) => Some(v.shared_str()),
        _ => str_rep,
    };
    w.put_opt_str(str_rep.as_deref());
    match rep {
        IntRep::None | IntRep::Script(_) => w.put_u8(REP_NONE),
        IntRep::Int(n) => {
            w.put_u8(REP_INT);
            w.put_i64(n);
        }
        IntRep::Double(d) => {
            w.put_u8(REP_DOUBLE);
            w.put_f64(d);
        }
        IntRep::Bool(b) => {
            w.put_u8(REP_BOOL);
            w.put_u8(b as u8);
        }
        IntRep::List(elems) => {
            w.put_u8(REP_LIST);
            w.put_u32(elems.len() as u32);
            for e in elems.iter() {
                encode_value(w, e);
            }
        }
    }
}

/// Decodes one value, re-validating the rep against the string rep.
fn decode_value(r: &mut Reader) -> Result<Value, DecodeError> {
    let str_rep = r.opt_str()?.map(|s| s.into());
    let rep = match r.u8()? {
        REP_NONE => IntRep::None,
        REP_INT => IntRep::Int(r.i64()?),
        REP_DOUBLE => IntRep::Double(r.f64()?),
        REP_BOOL => IntRep::Bool(r.u8()? != 0),
        REP_LIST => {
            let n = r.u32()?;
            let mut elems = Vec::new();
            for _ in 0..n {
                elems.push(decode_value(r)?);
            }
            IntRep::List(elems.into())
        }
        _ => return Err(DecodeError::BadValue("value rep tag")),
    };
    Ok(Value::from_snapshot_parts(str_rep, rep))
}

/// Encodes an interpreter snapshot (canonical: capture sorts, and
/// `Script` reps degrade to source).
pub fn encode_interp(w: &mut Writer, snap: &InterpSnapshot) {
    w.put_u32(snap.globals.len() as u32);
    for (name, var) in &snap.globals {
        w.put_str(name);
        match var {
            VarSnap::Scalar(v) => {
                w.put_u8(VAR_SCALAR);
                encode_value(w, v);
            }
            VarSnap::Array(elems) => {
                w.put_u8(VAR_ARRAY);
                w.put_u32(elems.len() as u32);
                for (k, v) in elems {
                    w.put_str(k);
                    encode_value(w, v);
                }
            }
        }
    }
    w.put_u32(snap.procs.len() as u32);
    for (name, args, body) in &snap.procs {
        w.put_str(name);
        w.put_u32(args.len() as u32);
        for (arg, default) in args {
            w.put_str(arg);
            w.put_opt_str(default.as_deref());
        }
        w.put_str(body);
    }
}

/// Decodes an interpreter snapshot written by [`encode_interp`].
pub fn decode_interp(r: &mut Reader) -> Result<InterpSnapshot, DecodeError> {
    let nglobals = r.u32()?;
    let mut globals = Vec::new();
    for _ in 0..nglobals {
        let name = r.str()?;
        let var = match r.u8()? {
            VAR_SCALAR => VarSnap::Scalar(decode_value(r)?),
            VAR_ARRAY => {
                let n = r.u32()?;
                let mut elems = Vec::new();
                for _ in 0..n {
                    let k = r.str()?;
                    elems.push((k, decode_value(r)?));
                }
                VarSnap::Array(elems)
            }
            _ => return Err(DecodeError::BadValue("variable tag")),
        };
        globals.push((name, var));
    }
    let nprocs = r.u32()?;
    let mut procs = Vec::new();
    for _ in 0..nprocs {
        let name = r.str()?;
        let nargs = r.u32()?;
        let mut args = Vec::new();
        for _ in 0..nargs {
            let arg = r.str()?;
            args.push((arg, r.opt_str()?));
        }
        procs.push((name, args, r.str()?));
    }
    Ok(InterpSnapshot { globals, procs })
}

fn put_pairs(w: &mut Writer, pairs: &[(String, String)]) {
    w.put_u32(pairs.len() as u32);
    for (k, v) in pairs {
        w.put_str(k);
        w.put_str(v);
    }
}

fn take_pairs(r: &mut Reader) -> Result<Vec<(String, String)>, DecodeError> {
    let n = r.u32()?;
    let mut pairs = Vec::new();
    for _ in 0..n {
        let k = r.str()?;
        pairs.push((k, r.str()?));
    }
    Ok(pairs)
}

fn put_lines(w: &mut Writer, lines: &[String]) {
    w.put_u32(lines.len() as u32);
    for l in lines {
        w.put_str(l);
    }
}

fn take_lines(r: &mut Reader) -> Result<Vec<String>, DecodeError> {
    let n = r.u32()?;
    let mut lines = Vec::new();
    for _ in 0..n {
        lines.push(r.str()?);
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafe_tcl::Interp;

    fn park_restore(session: &WafeSession, outbound: Vec<String>) -> (WafeSession, Vec<String>) {
        let bytes = SessionSnapshot::capture(session, outbound).encode();
        let snap = SessionSnapshot::decode(&bytes).unwrap();
        // Canonical encoding: re-encoding the decoded snapshot is
        // byte-identical.
        assert_eq!(snap.encode(), bytes);
        let mut fresh = WafeSession::new(Flavor::Athena);
        snap.restore_into(&mut fresh);
        (fresh, snap.outbound.clone())
    }

    #[test]
    fn interp_state_and_widgets_survive() {
        let mut s = WafeSession::new(Flavor::Athena);
        s.eval("set user maria").unwrap();
        s.eval("proc greet {who} {return \"hello $who\"}").unwrap();
        s.eval("label hello topLevel label {Hello World}").unwrap();
        s.eval("mergeResources *Font fixed").unwrap();
        let (mut fresh, _) = park_restore(&s, vec![]);
        assert_eq!(fresh.eval("greet $user").unwrap(), "hello maria");
        assert!(fresh.app.borrow().lookup("hello").is_some());
        let app = fresh.app.borrow();
        let hello = app.lookup("hello").unwrap();
        assert_eq!(
            app.get_resource_string(hello, "label").unwrap(),
            "Hello World"
        );
        assert_eq!(app.resource_db.lines(), vec!["*Font: fixed".to_string()]);
    }

    #[test]
    fn realized_tree_is_rerealized() {
        let mut s = WafeSession::new(Flavor::Athena);
        s.eval("command go topLevel label Go callback {echo hi}")
            .unwrap();
        s.eval("realize").unwrap();
        let (fresh, _) = park_restore(&s, vec![]);
        let app = fresh.app.borrow();
        let go = app.lookup("go").unwrap();
        assert!(app.is_realized(go), "restored tree must be realized again");
    }

    #[test]
    fn outbound_lines_ride_along_in_order() {
        let s = WafeSession::new(Flavor::Athena);
        let queued = vec!["first".to_string(), "second".into(), "third".into()];
        let (_, out) = park_restore(&s, queued.clone());
        assert_eq!(out, queued);
    }

    #[test]
    fn display_damage_state_survives_park() {
        let mut s = WafeSession::new(Flavor::Athena);
        s.eval("label hello topLevel label {Hello World}").unwrap();
        s.eval("realize").unwrap();
        {
            let mut app = s.app.borrow_mut();
            let d = &mut app.displays[0];
            d.set_compositing(true);
            d.flush();
            d.take_frame_damage(); // Ship the attach frame.
            d.next_frame_seq();
        }
        s.eval("setValues hello label Changed").unwrap();
        {
            let mut app = s.app.borrow_mut();
            app.displays[0].flush();
            assert!(app.displays[0].has_pending_frame());
        }
        let (fresh, _) = park_restore(&s, vec![]);
        let mut app = fresh.app.borrow_mut();
        let d = &mut app.displays[0];
        assert_eq!(d.frame_seq(), 1);
        assert!(d.compositing(), "attach survives the park");
        assert!(
            d.has_pending_frame(),
            "the un-shipped frame is still owed after restore"
        );
    }

    #[test]
    fn version_mismatch_is_rejected_with_both_versions_named() {
        let s = WafeSession::new(Flavor::Athena);
        let bytes = SessionSnapshot::capture(&s, vec![]).encode();
        let err = SessionSnapshot::decode_as(&bytes, FORMAT_VERSION + 1).unwrap_err();
        assert!(err.contains(&format!("version {FORMAT_VERSION}")), "{err}");
        assert!(err.contains(&(FORMAT_VERSION + 1).to_string()), "{err}");
        assert!(SessionSnapshot::decode(b"NOTASNAP").is_err());
    }

    #[test]
    fn every_bit_flip_and_truncation_fails() {
        let mut s = WafeSession::new(Flavor::Athena);
        s.eval("set n [expr {6 * 7}]; set s {some text}").unwrap();
        s.eval("label hello topLevel label Hi").unwrap();
        let bytes = SessionSnapshot::capture(&s, vec!["tail".into()]).encode();
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                SessionSnapshot::decode(&bad).is_err(),
                "bit {bit} flipped silently"
            );
        }
        for cut in 0..bytes.len() {
            assert!(
                SessionSnapshot::decode(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn other_flavour_is_refused_naming_both() {
        let s = WafeSession::new(Flavor::Motif);
        let bytes = SessionSnapshot::capture(&s, vec![]).encode();
        assert_eq!(
            SessionSnapshot::decode(&bytes).unwrap().flavor,
            Flavor::Motif
        );
        assert!(SessionSnapshot::decode_for(&bytes, Flavor::Motif).is_ok());
        let err = SessionSnapshot::decode_for(&bytes, Flavor::Athena).unwrap_err();
        assert!(err.contains("Motif") && err.contains("Athena"), "{err}");
    }

    fn interp_roundtrip(i: &Interp) -> (Vec<u8>, InterpSnapshot) {
        let snap = InterpSnapshot::capture(i);
        let mut w = Writer::new();
        encode_interp(&mut w, &snap);
        let buf = w.finish();
        let mut r = Reader::checked(&buf).unwrap();
        let decoded = decode_interp(&mut r).unwrap();
        r.done().unwrap();
        let mut w = Writer::new();
        encode_interp(&mut w, &decoded);
        assert_eq!(buf, w.finish(), "decode→encode must be byte-identical");
        (buf, decoded)
    }

    #[test]
    fn scalars_arrays_and_procs_roundtrip() {
        let mut i = Interp::new();
        i.eval("set greeting {hello world}").unwrap();
        i.eval("set n 42").unwrap();
        i.eval("set prices(apple) 3; set prices(pear) 5").unwrap();
        i.eval("proc double {x} {expr {$x * 2}}").unwrap();
        let (_, snap) = interp_roundtrip(&i);
        let mut fresh = Interp::new();
        snap.apply(&mut fresh);
        assert_eq!(fresh.eval("set greeting").unwrap(), "hello world");
        assert_eq!(fresh.eval("double $n").unwrap(), "84");
        assert_eq!(fresh.eval("set prices(pear)").unwrap(), "5");
    }

    #[test]
    fn cached_int_rep_survives_without_shimmer() {
        let mut i = Interp::new();
        i.eval("set n [expr {40 + 2}]").unwrap();
        let (_, decoded) = interp_roundtrip(&i);
        let mut fresh = Interp::new();
        decoded.apply(&mut fresh);
        let v = fresh.get_var("n").unwrap();
        assert_eq!(v.cached_int(), Some(42), "int rep must cross the boundary");
    }

    #[test]
    fn corrupt_int_rep_is_dropped_not_trusted() {
        // Hand-build a blob whose Int rep disagrees with its string.
        let mut w = Writer::new();
        w.put_u32(1); // one global
        w.put_str("x");
        w.put_u8(VAR_SCALAR);
        w.put_opt_str(Some("7"));
        w.put_u8(REP_INT);
        w.put_i64(99);
        w.put_u32(0); // no procs
        let buf = w.finish();
        let snap = decode_interp(&mut Reader::checked(&buf).unwrap()).unwrap();
        let VarSnap::Scalar(v) = &snap.globals[0].1 else {
            panic!("scalar expected");
        };
        assert_eq!(v.as_str(), "7");
        assert_eq!(v.cached_int(), None, "non-canonical rep must be dropped");
    }

    #[test]
    fn truncated_blob_errors() {
        let mut i = Interp::new();
        i.eval("set s abc").unwrap();
        let (buf, _) = interp_roundtrip(&i);
        // The checksum trailer is excluded: this pins the structural
        // checks a truncated payload meets behind a valid trailer.
        let payload = &buf[..buf.len() - 4];
        for cut in [1, payload.len() / 2, payload.len() - 1] {
            assert!(
                decode_interp(&mut Reader::unverified(&payload[..cut])).is_err(),
                "cut at {cut} must error"
            );
        }
    }
}
