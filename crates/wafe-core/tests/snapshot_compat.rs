//! Version-compatibility pinning for the session snapshot format.
//!
//! `tests/fixtures/snapshot-v3.wsnap` is a **checked-in** blob at the
//! current format version; `snapshot-v1.wsnap` and `snapshot-v2.wsnap`
//! are superseded formats, kept to pin the rejection path. These tests hold the format to its
//! documented policy (`docs/checkpoint.md`):
//!
//! * today's reader decodes the current checked-in blob and restores
//!   the exact session state it was captured from;
//! * a superseded blob (and a modelled future reader) is rejected with
//!   an error naming both versions — never a silent best-effort decode;
//! * today's encoder still produces the current blob byte-for-byte, so
//!   *any* layout change — however small — fails here and forces the
//!   author to bump [`FORMAT_VERSION`] and regenerate the fixture
//!   (`cargo test -p wafe-core regenerate_snapshot_fixture -- --ignored`).

use wafe_core::{Flavor, SessionSnapshot, WafeSession, FORMAT_VERSION};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/snapshot-v3.wsnap"
);

/// Superseded blobs, oldest first, with the version each was written
/// at. Neither has a checksum trailer.
const OLD_FIXTURES: [(&str, u8); 2] = [
    (
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/snapshot-v1.wsnap"
        ),
        1,
    ),
    (
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/snapshot-v2.wsnap"
        ),
        2,
    ),
];

/// The state frozen into the fixture. Deterministic by construction:
/// widget ids are virtual, captures are key-sorted, and no clock or
/// randomness is involved.
fn fixture_session() -> (WafeSession, Vec<String>) {
    let mut s = WafeSession::new(Flavor::Athena);
    s.eval("set user maria").unwrap();
    s.eval("set visits 42").unwrap();
    s.eval("proc greet {who} {return \"hello $who\"}").unwrap();
    s.eval("label banner topLevel label {Frozen State}")
        .unwrap();
    s.eval("command go topLevel label Go callback {echo pressed}")
        .unwrap();
    s.eval("mergeResources *Font fixed *banner.label {Frozen State}")
        .unwrap();
    s.eval("realize").unwrap();
    let outbound = vec!["queued-one".to_string(), "queued-two".to_string()];
    (s, outbound)
}

#[test]
fn checked_in_blob_decodes_and_restores() {
    let bytes = std::fs::read(FIXTURE).expect("fixture present and checked in");
    let snap = SessionSnapshot::decode(&bytes).expect("current reader accepts the current format");
    assert_eq!(snap.flavor, Flavor::Athena);
    assert_eq!(snap.outbound, ["queued-one", "queued-two"]);
    assert_eq!(snap.displays.len(), 1, "display damage section present");

    let mut fresh = WafeSession::new(Flavor::Athena);
    let report = snap.restore_into(&mut fresh);
    assert_eq!(report.widgets_skipped, 0, "{report:?}");
    assert_eq!(fresh.eval("greet $user").unwrap(), "hello maria");
    assert_eq!(fresh.eval("expr {$visits + 1}").unwrap(), "43");
    let app = fresh.app.borrow();
    let banner = app.lookup("banner").expect("banner restored");
    assert_eq!(
        app.get_resource_string(banner, "label").unwrap(),
        "Frozen State"
    );
    assert!(app.is_realized(banner), "realized flag survives");
}

/// A superseded blob is refused by the version check, before the
/// checksum: it names both versions instead of reporting corruption.
fn assert_superseded_rejected((path, version): (&str, u8)) {
    let bytes = std::fs::read(path).expect("old fixture present and checked in");
    let err = SessionSnapshot::decode(&bytes).expect_err("an old blob must not decode");
    assert!(
        err.contains(&format!("version {version} not supported")),
        "error must name the blob's version: {err}"
    );
    assert!(
        err.contains(&format!("expects {FORMAT_VERSION}")),
        "error must name the reader's version: {err}"
    );
}

#[test]
fn superseded_v1_blob_is_rejected_naming_both_versions() {
    assert_superseded_rejected(OLD_FIXTURES[0]);
}

#[test]
fn superseded_v2_blob_is_rejected_naming_both_versions() {
    assert_superseded_rejected(OLD_FIXTURES[1]);
}

#[test]
fn future_reader_rejects_the_current_blob_naming_both_versions() {
    let bytes = std::fs::read(FIXTURE).expect("fixture present and checked in");
    // Model the next format revision: a reader whose FORMAT_VERSION was
    // bumped. The policy is an explicit refusal — decoding garbage
    // against the wrong layout is the failure mode the version header
    // exists to prevent.
    let err = SessionSnapshot::decode_as(&bytes, FORMAT_VERSION + 1).unwrap_err();
    assert!(
        err.contains(&format!("version {FORMAT_VERSION}")),
        "error must name the blob's version: {err}"
    );
    assert!(
        err.contains(&format!("expects {}", FORMAT_VERSION + 1)),
        "error must name the reader's version: {err}"
    );
}

#[test]
fn todays_encoder_still_writes_the_fixture_bytes() {
    let bytes = std::fs::read(FIXTURE).expect("fixture present and checked in");
    let (s, outbound) = fixture_session();
    assert_eq!(
        SessionSnapshot::capture(&s, outbound).encode(),
        bytes,
        "snapshot layout changed: bump FORMAT_VERSION, regenerate the \
         fixture as snapshot-v{FORMAT_VERSION}.wsnap and extend these \
         tests per docs/checkpoint.md"
    );
}

/// Regenerates the fixture. Deliberately `#[ignore]`d: run it once
/// after a format change (with the version already bumped), commit the
/// new blob, and keep the old one for the rejection test.
#[test]
#[ignore = "writes tests/fixtures/snapshot-v3.wsnap; run after a format bump"]
fn regenerate_snapshot_fixture() {
    let (s, outbound) = fixture_session();
    let bytes = SessionSnapshot::capture(&s, outbound).encode();
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures")).unwrap();
    std::fs::write(FIXTURE, &bytes).unwrap();
    eprintln!("wrote {} bytes to {FIXTURE}", bytes.len());
}
