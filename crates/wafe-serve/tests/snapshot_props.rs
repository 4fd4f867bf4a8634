//! Property tests pinning the session snapshot codec — the suite the
//! park/restore machinery leans on.
//!
//! The invariants, each driven by generated states (wafe-prop's
//! deterministic xorshift cases):
//!
//! 1. **Canonical bytes** — `encode(decode(bytes)) == bytes` for every
//!    snapshot captured from a real session: the encoding has exactly
//!    one byte form per state.
//! 2. **Faithful restore** — capturing a restored session re-produces
//!    the original bytes: park → restore → park is a fixed point.
//! 3. **No shimmer** — capture peeks at `Value` dual reps, never forces
//!    one, and cached numeric reps survive the round trip.
//! 4. **Loud failure** — every truncation of a valid blob, a flipped
//!    bit anywhere in it, and random garbage all decode to an error;
//!    never a panic, never silent garbage state.

use wafe_core::snapshot::{decode_interp, encode_interp};
use wafe_core::{Flavor, SessionSnapshot, WafeSession};
use wafe_display::wire::{Reader, Writer};
use wafe_prop::{cases, Rng};
use wafe_tcl::snapshot::InterpSnapshot;
use wafe_tcl::value::IntRep;
use wafe_tcl::{Interp, Value};

const NAME_CHARS: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'x', 'y', 'z', '0', '1', '2', '_',
];

fn var_name(rng: &mut Rng, tag: usize) -> String {
    let len = rng.range(1, 8);
    format!("v{tag}_{}", rng.string_from(NAME_CHARS, len))
}

/// A random Value across every representation the codec carries:
/// plain strings (any Unicode), cached ints and doubles, lists —
/// sometimes with the string rep already forced, sometimes not.
fn random_value(rng: &mut Rng, depth: usize) -> Value {
    let v = match rng.below(5) {
        0 => Value::from(rng.unicode_string(0, 12)),
        1 => Value::from(rng.range_i64(-1_000_000, 1_000_000)),
        2 => Value::from((rng.unit_f64() - 0.5) * 1e6),
        3 if depth > 0 => {
            let n = rng.range(0, 4);
            Value::from_list((0..n).map(|_| random_value(rng, depth - 1)).collect())
        }
        _ => Value::from(rng.ascii_string(16)),
    };
    if rng.chance() {
        // Force the string rep so both reps are cached at capture.
        let _ = v.shared_str();
    }
    v
}

/// An interpreter snapshot's checksummed bytes.
fn interp_bytes(snap: &InterpSnapshot) -> Vec<u8> {
    let mut w = Writer::new();
    encode_interp(&mut w, snap);
    w.finish()
}

/// Decodes [`interp_bytes`], requiring the payload consumed exactly.
fn decode_interp_bytes(bytes: &[u8]) -> InterpSnapshot {
    let mut r = Reader::checked(bytes).unwrap();
    let snap = decode_interp(&mut r).unwrap();
    r.done().unwrap();
    snap
}

fn random_interp(rng: &mut Rng) -> Interp {
    let mut interp = Interp::new();
    for tag in 0..rng.range(0, 10) {
        let name = var_name(rng, tag);
        if rng.chance() {
            for e in 0..rng.range(1, 4) {
                interp
                    .set_elem(&name, &format!("k{e}"), random_value(rng, 1))
                    .unwrap();
            }
        } else {
            interp.set_var(&name, random_value(rng, 2)).unwrap();
        }
    }
    for tag in 0..rng.range(0, 4) {
        interp
            .eval(&format!(
                "proc p{tag} {{x}} {{return [expr {{$x + {tag}}}]}}"
            ))
            .unwrap();
    }
    interp
}

#[test]
fn interp_snapshots_roundtrip_byte_identically() {
    cases(300, |rng| {
        let interp = random_interp(rng);
        let bytes = interp_bytes(&InterpSnapshot::capture(&interp));

        // Canonical bytes: decode and re-encode is the identity.
        let decoded = decode_interp_bytes(&bytes);
        assert_eq!(
            interp_bytes(&decoded),
            bytes,
            "encode ∘ decode must be the identity"
        );

        // Faithful restore: applying to a fresh interp and re-capturing
        // reproduces the same bytes — park → restore → park is a fixed
        // point.
        let mut fresh = Interp::new();
        decoded.apply(&mut fresh);
        let third = interp_bytes(&InterpSnapshot::capture(&fresh));
        assert_eq!(third, bytes, "restore must reproduce the state");
    });
}

#[test]
fn capture_peeks_at_dual_reps_and_never_shimmers() {
    cases(200, |rng| {
        let n = rng.range_i64(-1_000_000_000, 1_000_000_000);
        let mut interp = Interp::new();

        // A pure-int Value whose string rep was never computed: capture
        // must not force it (forcing is the write half of shimmer).
        interp.set_var("lazy", Value::from(n)).unwrap();
        let snap = InterpSnapshot::capture(&interp);
        let lazy = interp.get_var("lazy").unwrap();
        let (s, rep) = lazy.snapshot_parts();
        assert!(s.is_none(), "capture must not force the string rep");
        assert!(matches!(rep, IntRep::Int(v) if v == n));

        // Both-reps-cached values keep the numeric rep through the
        // round trip: reading the restored value as an int must not
        // need a reparse.
        interp.set_var("eager", Value::from(n)).unwrap();
        let _ = interp.get_var("eager").unwrap().shared_str();
        let snap = {
            let _ = snap;
            InterpSnapshot::capture(&interp)
        };
        let decoded = decode_interp_bytes(&interp_bytes(&snap));
        let mut fresh = Interp::new();
        decoded.apply(&mut fresh);
        for name in ["lazy", "eager"] {
            let v = fresh.get_var(name).unwrap();
            let (_, rep) = v.snapshot_parts();
            assert!(
                matches!(rep, IntRep::Int(got) if got == n),
                "{name}: int rep must survive the round trip un-shimmered"
            );
            assert_eq!(v.shared_str().as_ref(), n.to_string());
        }
    });
}

/// Whole-session snapshots driven through the Tcl surface: variables,
/// procs, widgets with generated resource text, resource-DB lines and
/// a queued outbound tail.
#[test]
fn session_snapshots_roundtrip_and_restore_faithfully() {
    cases(60, |rng| {
        let mut s = WafeSession::new(Flavor::Athena);
        for tag in 0..rng.range(0, 6) {
            let name = var_name(rng, tag);
            let value = rng.ascii_string(20);
            s.eval(&wafe_tcl::list_join(&["set".into(), name, value]))
                .unwrap();
        }
        for w in 0..rng.range(0, 4) {
            let class = if rng.chance() { "label" } else { "command" };
            let text = rng.ascii_string(12);
            s.eval(&wafe_tcl::list_join(&[
                class.into(),
                format!("w{w}"),
                "topLevel".into(),
                "label".into(),
                text,
            ]))
            .unwrap();
        }
        if rng.chance() {
            s.eval("realize").unwrap();
        }
        let outbound: Vec<String> = (0..rng.range(0, 5)).map(|_| rng.ascii_string(24)).collect();

        let snap = SessionSnapshot::capture(&s, outbound.clone());
        let bytes = snap.encode();
        let decoded = SessionSnapshot::decode(&bytes).unwrap();
        assert_eq!(decoded.encode(), bytes, "canonical bytes");
        assert_eq!(decoded.outbound, outbound, "outbound order preserved");

        let mut fresh = WafeSession::new(Flavor::Athena);
        let report = decoded.restore_into(&mut fresh);
        assert_eq!(report.widgets_skipped, 0, "every record must replay");
        let again = SessionSnapshot::capture(&fresh, outbound).encode();
        assert_eq!(again, bytes, "park → restore → park is a fixed point");
    });
}

#[test]
fn truncations_and_garbage_fail_loudly_never_panic() {
    cases(120, |rng| {
        let mut s = WafeSession::new(Flavor::Athena);
        s.eval("set alpha 1").unwrap();
        s.eval("label sign topLevel label truncate-me").unwrap();
        let bytes = SessionSnapshot::capture(&s, vec!["tail".into()]).encode();

        // Every proper prefix is an error — the checksum trailer and
        // the length prefixes notice any truncation, at any boundary.
        let cut = rng.range(0, bytes.len());
        assert!(
            SessionSnapshot::decode(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} must be rejected",
            bytes.len()
        );

        // Random garbage never panics; without the magic it must err.
        let garbage: Vec<u8> = (0..rng.range(0, 64))
            .map(|_| rng.below(256) as u8)
            .collect();
        if !garbage.starts_with(b"WAFESNAP") {
            assert!(SessionSnapshot::decode(&garbage).is_err());
        }

        // A single flipped bit anywhere — header, string payload or
        // the trailer itself — is always caught: by the magic or
        // version check in the header, by the checksum everywhere else.
        let mut flipped = bytes.clone();
        let bit = rng.range(0, bytes.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(
            SessionSnapshot::decode(&flipped).is_err(),
            "bit {bit} flip must be rejected"
        );
    });
}
