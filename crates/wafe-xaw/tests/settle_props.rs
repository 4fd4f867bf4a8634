//! Oracle property test for incremental `setValues`: after every
//! mutation of a realized tree, `XtApp::settle` must leave the screen
//! exactly as a whole-tree resync would.
//!
//! Each case builds the same random widget tree twice. The subject app
//! takes every mutation through the public toolkit calls, which mark
//! what changed and settle incrementally. The twin applies the same
//! mutation through the raw store (no settle) and then runs the
//! whole-tree sequence — `do_layout(root)`, `sync_geometry(root)`,
//! `redisplay_tree(root)`, `flush` — the oracle. Structural mutations
//! (create, manage, unmanage, destroy) have no raw form: the twin runs
//! the same call and then the whole-tree sequence, so the subject's
//! state must be a fixed point of it. After each step the two apps must
//! agree on every widget's geometry, every window's rect, attributes,
//! mapping and display list, the queued events, the composited
//! framebuffer and the encoded bytes of the pending display frame.

use wafe_display::frame::Frame;
use wafe_prop::{cases, Rng};
use wafe_xt::converter::ConvertCtx;
use wafe_xt::{WidgetId, XtApp};

const COMPOSITES: [&str; 4] = ["Form", "Box", "Paned", "Viewport"];
const LEAVES: [&str; 4] = ["Label", "Command", "Toggle", "List"];
const COLOURS: [&str; 5] = ["red", "blue", "white", "gray80", "#336699"];
const TEXTS: [&str; 5] = ["", "x", "hello", "a longer label text", "42"];

fn build_app() -> XtApp {
    let mut app = XtApp::new();
    wafe_xaw::register_all(&mut app);
    app
}

/// One step of the random script, replayed identically on both apps.
#[derive(Debug, Clone)]
enum Op {
    Set(String, Vec<(String, String)>),
    Create {
        name: String,
        class: &'static str,
        parent: String,
        init: Vec<(String, String)>,
    },
    Manage(String),
    Unmanage(String),
    Destroy(String),
    Move(String, i32, i32),
    Resize(String, u32, u32, u32),
    ListChange(String, Vec<String>),
    Scroll(String, i32, i32),
    /// Raw stores on several widgets, each marked through the public
    /// mark calls, then one settle.
    Batch(Vec<(String, String, String)>),
}

/// A name for the `k`-th widget.
fn wname(k: usize) -> String {
    format!("w{k}")
}

fn class_of(app: &XtApp, name: &str) -> String {
    app.widget(app.lookup(name).unwrap()).class.name.clone()
}

fn parent_class(app: &XtApp, name: &str) -> Option<String> {
    let w = app.lookup(name)?;
    app.widget(w)
        .parent
        .map(|p| app.widget(p).class.name.clone())
}

/// Earlier managed-or-not siblings of `name` (Form constraint targets).
fn earlier_siblings(app: &XtApp, name: &str) -> Vec<String> {
    let w = app.lookup(name).unwrap();
    let Some(p) = app.widget(w).parent else {
        return Vec::new();
    };
    app.widget(p)
        .children
        .iter()
        .take_while(|&&c| c != w)
        .map(|&c| app.widget(c).name.clone())
        .collect()
}

/// A random resource assignment suited to the widget's class and
/// parent.
fn random_pair(rng: &mut Rng, app: &XtApp, name: &str) -> (String, String) {
    let class = class_of(app, name);
    let composite = COMPOSITES.contains(&class.as_str()) || class == "TopLevelShell";
    let mut choices: Vec<&str> = vec![
        "background",
        "borderColor",
        "borderWidth",
        "width",
        "height",
        "sensitive",
        "x",
        "y",
    ];
    if composite {
        choices.extend(
            ["hSpace", "orientation", "defaultDistance"]
                .iter()
                .filter(|r| match **r {
                    "hSpace" | "orientation" => class == "Box",
                    _ => class == "Form",
                }),
        );
    } else if class == "List" {
        choices.extend(["foreground", "list", "internalWidth"]);
    } else {
        choices.extend(["label", "label", "label", "foreground", "justify"]);
    }
    if parent_class(app, name).as_deref() == Some("Form") {
        choices.extend(["horizDistance", "vertDistance", "fromHoriz", "fromVert"]);
    }
    let res = *rng.pick(&choices);
    let value = match res {
        "background" | "borderColor" | "foreground" => rng.pick(&COLOURS).to_string(),
        "borderWidth" => rng.range(0, 4).to_string(),
        "width" | "height" => rng.range(0, 90).to_string(),
        "x" | "y" => rng.range_i64(-5, 60).to_string(),
        "sensitive" => if rng.chance() { "true" } else { "false" }.to_string(),
        "hSpace" | "defaultDistance" | "horizDistance" | "vertDistance" | "internalWidth" => {
            rng.range(0, 12).to_string()
        }
        "orientation" => rng.pick(&["horizontal", "vertical"]).to_string(),
        "justify" => rng.pick(&["left", "center", "right"]).to_string(),
        "label" => rng.pick(&TEXTS).to_string(),
        // " " is one empty item: with no internal margin the list
        // prefers zero width, which every later change re-measures.
        "list" => rng
            .vec(0, 4, |r| r.pick(&[" ", "x", "hello"]).to_string())
            .join(","),
        "fromHoriz" | "fromVert" => {
            let sibs = earlier_siblings(app, name);
            if sibs.is_empty() || rng.range(0, 4) == 0 {
                String::new()
            } else {
                rng.pick(&sibs).clone()
            }
        }
        _ => unreachable!(),
    };
    (res.to_string(), value)
}

fn random_init(rng: &mut Rng, class: &str) -> Vec<(String, String)> {
    let mut init = Vec::new();
    if rng.chance() {
        init.push(("width".into(), rng.range(8, 120).to_string()));
    }
    if rng.chance() {
        init.push(("height".into(), rng.range(8, 60).to_string()));
    }
    match class {
        "Label" | "Command" | "Toggle" => {
            init.push(("label".into(), rng.pick(&TEXTS[1..]).to_string()));
        }
        "List" => init.push(("list".into(), "one,two,three".into())),
        "Box" if rng.chance() => init.push(("orientation".into(), "horizontal".into())),
        _ => {}
    }
    init
}

/// A widget to create: name, class, parent name, creation arguments.
type Spec = (String, &'static str, String, Vec<(String, String)>);

/// A random tree under `topLevel`, in creation order.
fn build_tree(rng: &mut Rng) -> Vec<Spec> {
    let mut specs = Vec::new();
    let mut composites = vec![("topLevel".to_string(), "TopLevelShell")];
    let n = rng.range(3, 14);
    for k in 0..n {
        // The shell holds one child; later widgets go under composites.
        let (parent, pclass) = if k == 0 {
            composites[0].clone()
        } else {
            composites[rng.range(1, composites.len())].clone()
        };
        let class = if k == 0 || (composites.len() < 4 && rng.range(0, 3) == 0) {
            *rng.pick(&COMPOSITES)
        } else {
            *rng.pick(&LEAVES)
        };
        let name = wname(k);
        let mut init = random_init(rng, class);
        if pclass == "Form" {
            let sibs: Vec<&String> = specs
                .iter()
                .filter(|spec: &&Spec| spec.2 == parent)
                .map(|spec| &spec.0)
                .collect();
            if !sibs.is_empty() && rng.chance() {
                init.push(("fromHoriz".into(), (*rng.pick(&sibs)).clone()));
            }
            if !sibs.is_empty() && rng.chance() {
                init.push(("fromVert".into(), (*rng.pick(&sibs)).clone()));
            }
        }
        if COMPOSITES.contains(&class) {
            composites.push((name.clone(), class));
        }
        specs.push((name, class, parent, init));
    }
    specs
}

fn random_op(rng: &mut Rng, app: &XtApp, next: &mut usize) -> Op {
    let names: Vec<String> = app
        .widget_names()
        .into_iter()
        .filter(|n| n != "topLevel")
        .collect();
    let target = rng.pick(&names).clone();
    let class = class_of(app, &target);
    match rng.range(0, 20) {
        0..=6 => Op::Set(target.clone(), vec![random_pair(rng, app, &target)]),
        7..=8 => Op::Batch(
            (0..rng.range(2, 4))
                .map(|_| {
                    let name = rng.pick(&names).clone();
                    let (r, v) = random_pair(rng, app, &name);
                    (name, r, v)
                })
                .collect(),
        ),
        9..=10 => {
            let n = rng.range(2, 5);
            let pairs = (0..n).map(|_| random_pair(rng, app, &target)).collect();
            Op::Set(target, pairs)
        }
        11..=12 => {
            let parents: Vec<&String> = names
                .iter()
                .filter(|n| COMPOSITES.contains(&class_of(app, n).as_str()))
                .collect();
            if parents.is_empty() {
                return Op::Set(target.clone(), vec![random_pair(rng, app, &target)]);
            }
            let parent = (*rng.pick(&parents)).clone();
            let class = *rng.pick(&LEAVES);
            let name = wname(*next);
            *next += 1;
            let mut init = random_init(rng, class);
            if class_of(app, &parent) == "Form" {
                let p = app.lookup(&parent).unwrap();
                let sibs: Vec<String> = app
                    .widget(p)
                    .children
                    .iter()
                    .map(|&c| app.widget(c).name.clone())
                    .collect();
                if !sibs.is_empty() && rng.chance() {
                    init.push(("fromVert".into(), rng.pick(&sibs).clone()));
                }
            }
            Op::Create {
                name,
                class,
                parent,
                init,
            }
        }
        13 => Op::Unmanage(target),
        14 => Op::Manage(target),
        15 => {
            // Keep the shell's one child so the tree stays drawable.
            if target == "w0" {
                Op::Unmanage(target)
            } else {
                Op::Destroy(target)
            }
        }
        16 => Op::Move(
            "topLevel".into(),
            rng.range_i64(0, 200) as i32,
            rng.range_i64(0, 200) as i32,
        ),
        17 => Op::Resize(
            target,
            rng.range(1, 120) as u32,
            rng.range(1, 80) as u32,
            rng.range(0, 3) as u32,
        ),
        18 if class == "List" => {
            Op::ListChange(target, rng.vec(0, 5, |r| r.pick(&TEXTS[1..]).to_string()))
        }
        _ => {
            let viewports: Vec<&String> = names
                .iter()
                .filter(|n| class_of(app, n) == "Viewport")
                .collect();
            if viewports.is_empty() {
                Op::Set(target.clone(), vec![random_pair(rng, app, &target)])
            } else {
                Op::Scroll(
                    (*rng.pick(&viewports)).clone(),
                    rng.range_i64(0, 40) as i32,
                    rng.range_i64(0, 40) as i32,
                )
            }
        }
    }
}

/// The subject: every mutation through the public, settling calls.
fn apply_settled(app: &mut XtApp, op: &Op) {
    match op {
        Op::Set(name, pairs) => {
            let w = app.lookup(name).unwrap();
            let _ = app.set_values(w, pairs.iter().map(|(r, v)| (r.as_str(), v.as_str())));
        }
        Op::Create {
            name,
            class,
            parent,
            init,
        } => {
            let p = app.lookup(parent).unwrap();
            app.create_widget(name, class, Some(p), 0, init, true)
                .unwrap();
        }
        Op::Manage(name) => app.manage_child(app.lookup(name).unwrap()),
        Op::Unmanage(name) => app.unmanage_child(app.lookup(name).unwrap()),
        Op::Destroy(name) => app.destroy_widget(app.lookup(name).unwrap()),
        Op::Move(name, x, y) => app.move_widget(app.lookup(name).unwrap(), *x, *y),
        Op::Resize(name, w, h, b) => app.resize_widget(app.lookup(name).unwrap(), *w, *h, *b),
        Op::ListChange(name, items) => {
            wafe_xaw::list::list_change(app, app.lookup(name).unwrap(), items.clone())
        }
        Op::Scroll(name, x, y) => {
            wafe_xaw::paned::viewport_scroll(app, app.lookup(name).unwrap(), *x, *y)
        }
        Op::Batch(sets) => {
            for (name, r, v) in sets {
                let w = app.lookup(name).unwrap();
                if !raw_store(app, w, r, v) {
                    continue;
                }
                if app.widget(w).class.is_composite {
                    app.mark_layout(w);
                }
                let parent = app.widget(w).parent;
                if ["x", "y", "width", "height", "borderWidth"].contains(&r.as_str())
                    || parent.is_some_and(|p| app.widget(p).class.constraint(r).is_some())
                {
                    app.mark_layout(parent.unwrap_or(w));
                } else {
                    app.mark_redisplay(w);
                }
            }
            app.settle();
        }
    }
}

/// The whole-tree resync every realized mutation used to run.
fn full_resync(app: &mut XtApp, w: WidgetId) {
    let root = app.root_of(w);
    app.do_layout(root);
    app.sync_geometry(root);
    app.redisplay_tree(root);
    app.displays[0].flush();
}

/// Stores one resource the way `setValues` does, without settling.
fn raw_store(app: &mut XtApp, w: WidgetId, name: &str, text: &str) -> bool {
    let rec = app.widget(w);
    let (spec, constraint) = match rec.class.resource(name) {
        Some(spec) => (spec.clone(), false),
        None => {
            let p = rec.parent.unwrap();
            (app.widget(p).class.constraint(name).unwrap().clone(), true)
        }
    };
    let value = {
        let ctx = ConvertCtx {
            fonts: app.fonts_of(w),
        };
        match app.converters.convert(spec.ty, text, &ctx) {
            Ok(v) => v,
            Err(_) => return false,
        }
    };
    if constraint {
        app.put_constraint(w, spec.name, value);
    } else {
        app.put_resource(w, spec.name, value);
    }
    let ops = app.widget(w).class.ops.clone();
    ops.set_values(app, w, &[name.to_string()]);
    true
}

/// The oracle: the same mutation as it ran before incremental settle.
fn apply_oracle(app: &mut XtApp, op: &Op) {
    let root = app.lookup("topLevel").unwrap();
    match op {
        Op::Set(name, pairs) => {
            // One XtSetValues call: every pair stored, one resync.
            let w = app.lookup(name).unwrap();
            for (r, v) in pairs {
                if !raw_store(app, w, r, v) {
                    break;
                }
            }
            full_resync(app, w);
        }
        Op::Move(name, x, y) => {
            let w = app.lookup(name).unwrap();
            app.put_resource(w, "x", wafe_xt::ResourceValue::Pos(*x));
            app.put_resource(w, "y", wafe_xt::ResourceValue::Pos(*y));
            app.sync_geometry(app.root_of(w));
        }
        Op::Resize(name, width, height, border) => {
            let w = app.lookup(name).unwrap();
            app.put_resource(w, "width", wafe_xt::ResourceValue::Dim(*width));
            app.put_resource(w, "height", wafe_xt::ResourceValue::Dim(*height));
            app.put_resource(w, "borderWidth", wafe_xt::ResourceValue::Dim(*border));
            full_resync(app, w);
        }
        Op::ListChange(name, items) => {
            let w = app.lookup(name).unwrap();
            app.put_resource(w, "list", wafe_xt::ResourceValue::StrList(items.clone()));
            app.set_state(w, "selected", "-1");
            app.do_layout(root);
            app.sync_geometry(root);
            app.redisplay_widget(w);
        }
        Op::Scroll(name, x, y) => {
            let w = app.lookup(name).unwrap();
            app.set_state(w, "xoff", x.to_string());
            app.set_state(w, "yoff", y.to_string());
            app.do_layout(root);
            app.sync_geometry(root);
        }
        Op::Batch(sets) => {
            for (name, r, v) in sets {
                let w = app.lookup(name).unwrap();
                raw_store(app, w, r, v);
            }
            full_resync(app, root);
        }
        Op::Create { .. } | Op::Manage(_) | Op::Unmanage(_) | Op::Destroy(_) => {
            apply_settled(app, op);
            full_resync(app, root);
        }
    }
}

/// Asserts the two apps show the same thing, then ships both pending
/// frames (so the next step compares only its own damage).
fn assert_same(a: &mut XtApp, b: &mut XtApp, step: &str) {
    a.displays[0].flush();
    b.displays[0].flush();
    assert_eq!(a.widget_names(), b.widget_names(), "{step}: widget sets");
    for name in a.widget_names() {
        let (wa, wb) = (a.lookup(&name).unwrap(), b.lookup(&name).unwrap());
        for r in ["x", "y", "width", "height", "borderWidth"] {
            assert_eq!(
                a.get_resource_string(wa, r),
                b.get_resource_string(wb, r),
                "{step}: {name}.{r}"
            );
        }
        let (win_a, win_b) = (a.widget(wa).window, b.widget(wb).window);
        assert_eq!(win_a, win_b, "{step}: {name} window id");
        if let Some(win) = win_a {
            let (ra, rb) = (
                a.displays[0].window(win).unwrap(),
                b.displays[0].window(win).unwrap(),
            );
            assert_eq!(ra.rect, rb.rect, "{step}: {name} window rect");
            assert_eq!(ra.border_width, rb.border_width, "{step}: {name} border");
            assert_eq!(
                ra.border_pixel, rb.border_pixel,
                "{step}: {name} borderColor"
            );
            assert_eq!(ra.background, rb.background, "{step}: {name} background");
            assert_eq!(ra.mapped, rb.mapped, "{step}: {name} mapped");
            assert_eq!(ra.children, rb.children, "{step}: {name} stacking");
            assert_eq!(
                ra.display_list, rb.display_list,
                "{step}: {name} display list"
            );
        }
    }
    let events =
        |app: &mut XtApp| std::iter::from_fn(|| app.displays[0].next_event()).collect::<Vec<_>>();
    assert_eq!(events(a), events(b), "{step}: queued events");
    let (da, db) = (
        a.displays[0].take_frame_damage(),
        b.displays[0].take_frame_damage(),
    );
    assert_eq!(da, db, "{step}: frame damage");
    if a.displays[0].compositing() {
        assert!(
            a.displays[0].framebuffer() == b.displays[0].framebuffer(),
            "{step}: framebuffers differ"
        );
        let frame = |app: &mut XtApp, damage| {
            let d = &mut app.displays[0];
            let seq = d.next_frame_seq();
            Frame::build(d.framebuffer(), damage, seq).encode()
        };
        assert!(
            frame(a, &da) == frame(b, &db),
            "{step}: encoded frames differ"
        );
    }
}

/// Two identical realized apps built from `specs`; `composite`
/// attaches a display client to both, so every flush also paints
/// pixels.
fn realized_pair(specs: &[Spec], composite: bool) -> (XtApp, XtApp) {
    let mut apps = [build_app(), build_app()];
    for app in &mut apps {
        let top = app
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        for (name, class, parent, init) in specs {
            let p = app.lookup(parent).unwrap();
            app.create_widget(name, class, Some(p), 0, init, true)
                .unwrap();
        }
        app.realize(top);
        app.displays[0].set_compositing(composite);
    }
    let [a, b] = apps;
    (a, b)
}

#[test]
fn settle_matches_whole_tree_resync() {
    // Pixels are compared in every fourth case: painting a 1024x768
    // screen dominates the run, and damage is compared in all of them.
    cases(64, |rng| {
        let composite = rng.range(0, 4) == 0;
        let (mut subject, mut oracle) = realized_pair(&build_tree(rng), composite);
        assert_same(&mut subject, &mut oracle, "after realize");
        let mut next = 100;
        for step in 0..24 {
            let op = random_op(rng, &subject, &mut next);
            apply_settled(&mut subject, &op);
            apply_oracle(&mut oracle, &op);
            assert_same(&mut subject, &mut oracle, &format!("step {step}: {op:?}"));
        }
    });
}

/// A List with one empty item and no margin prefers zero width, so a
/// whole-tree pass re-measures it on every run: a non-geometry change
/// to it must re-lay out its parent too.
#[test]
fn zero_sized_widget_is_remeasured() {
    let pairs = |list: &str| vec![("list".to_string(), list.to_string())];
    let specs: Vec<Spec> = vec![
        ("f".into(), "Form", "topLevel".into(), vec![]),
        (
            "l".into(),
            "List",
            "f".into(),
            vec![
                ("internalWidth".into(), "0".into()),
                ("list".into(), " ".into()),
            ],
        ),
        (
            "r".into(),
            "Label",
            "f".into(),
            vec![("fromHoriz".into(), "l".into())],
        ),
    ];
    let (mut subject, mut oracle) = realized_pair(&specs, true);
    let l = subject.lookup("l").unwrap();
    assert_eq!(subject.dim_resource(l, "width"), 0);
    for (step, op) in [
        Op::Set("l".into(), pairs("hello")),
        Op::Set("l".into(), vec![("width".into(), "0".into())]),
        Op::Set("l".into(), pairs(" , ")),
        Op::Set("l".into(), vec![("width".into(), "0".into())]),
        Op::ListChange("l".into(), vec!["grown".into()]),
    ]
    .iter()
    .enumerate()
    {
        apply_settled(&mut subject, op);
        apply_oracle(&mut oracle, op);
        assert_same(&mut subject, &mut oracle, &format!("step {step}: {op:?}"));
    }
}
