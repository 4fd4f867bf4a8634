//! Whole-screen paints pinned to a fixture.
//!
//! `tests/fixtures/paint-hashes.txt` holds one FNV-1a-64 hash per scene:
//! the PPM bytes of a display's whole screen painted by X's rules. The
//! scenes are the E8 figure scripts (Figure 6's design tool on `:0`,
//! Figure 2's widget graph on a second display), the waferd-bench
//! `gui_frames` dashboard for seed 1, once set up and then after every
//! 50 of its first 200 seeded ops (label updates and button clicks), and
//! a form with 3-px borders whose child straddles the form's edge.
//!
//! Every hash is taken from the per-pixel X reference in
//! `wafe-xproto/tests/reference/mod.rs`, which shares no code with the
//! display's paint walk, and the walk's whole-screen repaint must equal
//! that reference pixel for pixel. So a difference here is a rendering
//! change, not a fixture to refresh.
//!
//! To add a scene, rewrite the fixture with `WAFE_WRITE_PAINT_FIXTURE=1
//! cargo test -p wafe-core --test paint_fixture`; the existing entries
//! must come out unchanged.

use wafe_core::{Flavor, WafeSession};

#[path = "../../wafe-xproto/tests/reference/mod.rs"]
mod reference;

fn fixture_path() -> String {
    format!(
        "{}/tests/fixtures/paint-hashes.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Hashes the X reference paint of display `index`, after checking
/// that the display's own whole-screen repaint matches it.
fn full_paint_hash(s: &WafeSession, index: usize) -> String {
    let mut app = s.app.borrow_mut();
    let d = &mut app.displays[index];
    d.request_full_frame();
    d.flush();
    let want = reference::reference_paint(d);
    assert!(
        d.framebuffer() == &want,
        "display {index}: the paint walk differs from the X reference"
    );
    let mut ppm = Vec::new();
    want.write_ppm(&mut ppm).expect("PPM to memory");
    format!("{:016x}", fnv1a64(&ppm))
}

/// E8's Figure 6 (the xwafedesign tool) and Figure 2 (the TreeGraph
/// widget graph on display `design:1`).
fn e8_figures(out: &mut Vec<(String, String)>) {
    let mut s = WafeSession::new(Flavor::Athena);
    for cmd in [
        "form design topLevel",
        "label title design label {Design: sample} borderWidth 0",
        "list folders design fromVert title list {inbox,outbox}",
        "command send design label Send fromVert folders",
        "realize",
    ] {
        s.eval(cmd).unwrap();
    }
    out.push(("e8-figure6".into(), full_paint_hash(&s, 0)));
    s.eval("applicationShell viewer design:1").unwrap();
    s.eval("treeGraph graph viewer").unwrap();
    for (node, parent) in [
        ("design", ""),
        ("title", "design"),
        ("folders", "design"),
        ("send", "design"),
    ] {
        let mut cmd = format!("label n_{node} graph label {node}");
        if !parent.is_empty() {
            cmd.push_str(&format!(" parentNode n_{parent}"));
        }
        s.eval(&cmd).unwrap();
    }
    s.eval("realize").unwrap();
    out.push(("e8-figure2-display0".into(), full_paint_hash(&s, 0)));
    out.push(("e8-figure2-display1".into(), full_paint_hash(&s, 1)));
}

/// waferd-bench's seeded generator (SplitMix64), so the dashboard here
/// is the one `gui_frames` drives.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    fn word(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..len)
            .map(|_| ALPHABET[self.range(0, ALPHABET.len() - 1)] as char)
            .collect()
    }
}

const ROWS: usize = 6;
const COLS: usize = 4;
const BUTTONS: usize = 4;

/// The `gui_frames` dashboard for seed 1, then its first 200 ops: a
/// label update, or a press and release in the middle of a button.
fn dashboard(out: &mut Vec<(String, String)>) {
    let mut rng = Rng(1 ^ 0x6775_6966);
    let mut s = WafeSession::new(Flavor::Athena);
    s.eval("form grid topLevel").unwrap();
    for r in 0..ROWS {
        for c in 0..COLS {
            let len = rng.range(2, 12);
            let mut cmd = format!(
                "label r{r}c{c} grid label {{{}}} width 120 height 24",
                rng.word(len)
            );
            if c > 0 {
                cmd.push_str(&format!(" fromHoriz r{r}c{}", c - 1));
            }
            if r > 0 {
                cmd.push_str(&format!(" fromVert r{}c{c}", r - 1));
            }
            s.eval(&cmd).unwrap();
        }
    }
    for b in 0..BUTTONS {
        let mut cmd = format!(
            "command b{b} grid label {{button {b}}} callback {{onclick {b}}} fromVert r{}c0",
            ROWS - 1
        );
        if b > 0 {
            cmd.push_str(&format!(" fromHoriz b{}", b - 1));
        }
        s.eval(&cmd).unwrap();
    }
    s.eval("label status grid label {clicks 0} width 200 fromVert b0")
        .unwrap();
    s.eval(
        "proc onclick {b} {global clicks; incr clicks; \
         sV status label \"clicks $clicks\"; echo click $b $clicks}",
    )
    .unwrap();
    s.eval("set clicks 0").unwrap();
    s.eval("realize").unwrap();
    let centre = |s: &mut WafeSession, b: usize| {
        let g: Vec<i32> = ["x", "y", "width", "height"]
            .iter()
            .map(|r| s.eval(&format!("gV b{b} {r}")).unwrap().parse().unwrap())
            .collect();
        (g[0] + g[2] / 2, g[1] + g[3] / 2)
    };
    let buttons: Vec<(i32, i32)> = (0..BUTTONS).map(|b| centre(&mut s, b)).collect();
    out.push(("gui-frames-seed1-setup".into(), full_paint_hash(&s, 0)));
    for id in 0..200u64 {
        if rng.range(0, 3) == 0 {
            let (x, y) = buttons[rng.range(0, BUTTONS - 1)];
            for press in [true, false] {
                {
                    let mut app = s.app.borrow_mut();
                    let d = &mut app.displays[0];
                    d.inject_pointer_move(x, y);
                    d.inject_button(1, press);
                }
                s.pump();
            }
        } else {
            let (row, col, len) = (
                rng.range(0, ROWS - 1),
                rng.range(0, COLS - 1),
                rng.range(1, 16),
            );
            s.eval(&format!("sV r{row}c{col} label {{{id} {}}}", rng.word(len)))
                .unwrap();
        }
        if (id + 1) % 50 == 0 {
            out.push((
                format!("gui-frames-seed1-op{}", id + 1),
                full_paint_hash(&s, 0),
            ));
        }
    }
}

/// A form with a 3-px border holding two 3-px-bordered labels; the
/// second straddles the form's right and bottom edges, so the form
/// clips it, border included, and the form's own border shows past it.
fn straddle(out: &mut Vec<(String, String)>) {
    let mut s = WafeSession::new(Flavor::Athena);
    for cmd in [
        "form f topLevel borderWidth 3 width 120 height 50",
        "label l f label {3-px border} borderWidth 3 width 80 height 20",
        "label r f fromHoriz l label {straddles the edge} borderWidth 3 \
         width 100 height 20 vertDistance 30",
        "realize",
    ] {
        s.eval(cmd).unwrap();
    }
    out.push(("straddle-3px-border".into(), full_paint_hash(&s, 0)));
}

#[test]
fn whole_screen_paints_match_the_fixture() {
    let mut scenes = Vec::new();
    e8_figures(&mut scenes);
    dashboard(&mut scenes);
    straddle(&mut scenes);
    let text: String = scenes
        .iter()
        .map(|(name, hash)| format!("{name} {hash}\n"))
        .collect();
    if std::env::var_os("WAFE_WRITE_PAINT_FIXTURE").is_some() {
        std::fs::write(fixture_path(), &text).expect("write the paint fixture");
        return;
    }
    let want = std::fs::read_to_string(fixture_path()).expect("read the paint fixture");
    for (got, want) in text.lines().zip(want.lines()) {
        assert_eq!(got, want, "scene painted differently");
    }
    assert_eq!(text.lines().count(), want.lines().count(), "scene count");
}
