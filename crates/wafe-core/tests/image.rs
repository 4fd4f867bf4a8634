//! The shared toolkit image: sessions on one thread share class records
//! and the command table, yet each session's `proc`, `rename` and
//! deletion stay its own, and nothing a session can observe differs
//! from a session that built everything itself.
//!
//! The inventory fixtures (`tests/fixtures/inventory-<flavour>.txt`)
//! were written by sessions that built their own classes and commands;
//! each lists the sorted command names, the sorted class names and the
//! warnings a fresh session holds.

use std::rc::Rc;

use wafe_core::{Flavor, SessionSnapshot, ToolkitImage, WafeSession};

fn inventory(s: &WafeSession) -> String {
    let mut cmds = s.interp.command_names();
    cmds.sort();
    let mut app = s.app.borrow_mut();
    let classes = app.class_names();
    let warnings = app.take_warnings();
    format!(
        "# commands\n{}\n# classes\n{}\n# warnings\n{}\n",
        cmds.join("\n"),
        classes.join("\n"),
        warnings.join("\n")
    )
}

#[test]
fn each_flavour_keeps_its_command_class_and_warning_inventory() {
    for (flavor, name, stats) in [
        (Flavor::Athena, "athena", (62, 29)),
        (Flavor::Motif, "motif", (38, 29)),
        (Flavor::Both, "both", (69, 29)),
    ] {
        let path = format!(
            "{}/tests/fixtures/inventory-{name}.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        let want = std::fs::read_to_string(&path).expect("inventory fixture checked in");
        // The first session builds the image, the second reuses it:
        // both must look exactly like the pinned inventory.
        for _ in 0..2 {
            let s = WafeSession::new(flavor);
            assert_eq!(inventory(&s), want, "{name} inventory drifted");
            assert_eq!(
                s.command_stats(),
                stats,
                "{name} generated/hand-written split"
            );
        }
    }
}

#[test]
fn sessions_on_one_thread_share_one_image_per_flavour() {
    let a = WafeSession::new(Flavor::Athena);
    let b = WafeSession::new(Flavor::Athena);
    let m = WafeSession::new(Flavor::Motif);
    assert!(Rc::ptr_eq(a.image(), b.image()));
    assert!(!Rc::ptr_eq(a.image(), m.image()));
    assert!(Rc::ptr_eq(a.image(), &ToolkitImage::shared(Flavor::Athena)));
    // Class records are shared, instances are not.
    let (aa, ba) = (a.app.borrow(), b.app.borrow());
    assert!(Rc::ptr_eq(
        &aa.class("Label").unwrap(),
        &ba.class("Label").unwrap()
    ));
    let (ta, tb) = (
        aa.lookup("topLevel").unwrap(),
        ba.lookup("topLevel").unwrap(),
    );
    assert_eq!(ta, tb, "each session numbers its own widgets");
}

#[test]
fn proc_and_rename_in_one_session_are_invisible_in_another() {
    let mut a = WafeSession::new(Flavor::Athena);
    let mut b = WafeSession::new(Flavor::Athena);
    for s in [&mut a, &mut b] {
        s.eval("label l topLevel label start").unwrap();
        // Compiled and interned before A rebinds anything.
        s.eval("proc poke {} {return [sV l label poked]}").unwrap();
        s.eval("proc count {} {set n 2}").unwrap();
        assert_eq!(s.eval("poke").unwrap(), "");
        assert_eq!(s.eval("count").unwrap(), "2");
    }

    // A shadows a base command and an inlined built-in with procs,
    // deletes `label` and renames `command` onto the freed name.
    a.eval("proc sV {w r v} {return shadowed}").unwrap();
    a.eval("proc set {args} {return intercepted}").unwrap();
    a.eval("rename label {}").unwrap();
    a.eval("rename command label").unwrap();

    // A's cached and compiled code sees every change...
    assert_eq!(a.eval("poke").unwrap(), "shadowed");
    assert_eq!(a.eval("count").unwrap(), "intercepted");
    assert!(!a.interp.has_command("command"));
    a.eval("rename set {}").unwrap();
    a.eval("label b topLevel").unwrap();
    {
        let app = a.app.borrow();
        let w = app.lookup("b").unwrap();
        assert_eq!(app.widget(w).class.name, "Command");
    }
    let err = a.eval("rename sV label").unwrap_err();
    assert!(err.message().contains("already exists"), "{err:?}");

    // ...and B sees none of them.
    assert_eq!(b.eval("poke").unwrap(), "");
    assert_eq!(b.eval("gV l label").unwrap(), "poked");
    assert_eq!(b.eval("count").unwrap(), "2");
    b.eval("label l2 topLevel").unwrap();
    b.eval("command c topLevel").unwrap();
    assert_eq!(b.eval("info procs").unwrap(), "count poke");
    assert_eq!(
        b.eval("info commands set").unwrap(),
        "set",
        "A's deletion of set must not leak"
    );
    assert_eq!(
        a.eval("info commands s*").unwrap(),
        b.eval("info commands s*")
            .unwrap()
            .split(' ')
            .filter(|n| *n != "set")
            .collect::<Vec<_>>()
            .join(" ")
    );

    // A fresh session afterwards starts from the pristine image.
    let mut c = WafeSession::new(Flavor::Athena);
    c.eval("label l topLevel label fresh").unwrap();
    assert_eq!(c.eval("sV l label x; gV l label").unwrap(), "x");
    assert_eq!(c.eval("info procs").unwrap(), "");
}

#[test]
fn the_v3_fixture_restores_into_an_image_session_and_reencodes_identically() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/snapshot-v3.wsnap"
    );
    let bytes = std::fs::read(path).expect("fixture present and checked in");
    let snap = SessionSnapshot::decode(&bytes).expect("v3 decodes");
    // Another session on this thread has already used and modified its
    // own command table; the restore target must not notice.
    let mut other = WafeSession::new(Flavor::Athena);
    other.eval("proc greet {who} {return nope}").unwrap();
    other.eval("rename realize {}").unwrap();

    let mut fresh = WafeSession::new(Flavor::Athena);
    let report = snap.restore_into(&mut fresh);
    assert_eq!(report.widgets_skipped, 0, "{report:?}");
    assert_eq!(fresh.eval("greet $user").unwrap(), "hello maria");
    fresh.eval("realize").unwrap();
    assert_eq!(
        SessionSnapshot::capture(&fresh, snap.outbound.clone()).encode(),
        bytes,
        "restore then park must give back the fixture bytes"
    );
}
