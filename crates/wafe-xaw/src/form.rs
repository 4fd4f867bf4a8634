//! The Form constraint widget (and Box).
//!
//! Form is the layout engine of the paper's prime-factors example: the
//! constraint resources `fromVert` and `fromHoriz` chain children below
//! and beside each other.

use std::collections::HashMap;
use std::rc::Rc;

use wafe_xt::action::ActionTable;
use wafe_xt::resource::{core_resources, ResType, ResourceSpec, ResourceValue};
use wafe_xt::translation::TranslationTable;
use wafe_xt::widget::{Arrangement, Placement, WidgetClass, WidgetId, WidgetOps};
use wafe_xt::XtApp;

/// Form's own resources.
pub fn form_resources() -> Vec<ResourceSpec> {
    let mut v = core_resources();
    v.push(ResourceSpec::new(
        "defaultDistance",
        "Thickness",
        ResType::Dimension,
        "4",
    ));
    v
}

/// Form's constraint resources, imposed on its children.
pub fn form_constraints() -> Vec<ResourceSpec> {
    use ResType::*;
    vec![
        ResourceSpec::new("fromVert", "Widget", Widget, ""),
        ResourceSpec::new("fromHoriz", "Widget", Widget, ""),
        ResourceSpec::new("horizDistance", "Thickness", Int, "-1"),
        ResourceSpec::new("vertDistance", "Thickness", Int, "-1"),
        ResourceSpec::new("resizable", "Boolean", Boolean, "true"),
        ResourceSpec::new("top", "Edge", String, "rubber"),
        ResourceSpec::new("bottom", "Edge", String, "rubber"),
        ResourceSpec::new("left", "Edge", String, "rubber"),
        ResourceSpec::new("right", "Edge", String, "rubber"),
    ]
}

/// Form class methods: constraint layout.
pub struct FormOps;

fn widget_ref(app: &XtApp, child: WidgetId, name: &str) -> Option<WidgetId> {
    match app.constraint(child, name) {
        Some(ResourceValue::Widget(n)) if !n.is_empty() => app.lookup(n),
        _ => None,
    }
}

fn distance(app: &XtApp, child: WidgetId, name: &str, default: i32) -> i32 {
    match app.constraint(child, name) {
        Some(ResourceValue::Int(d)) if *d >= 0 => *d as i32,
        _ => default,
    }
}

/// A widget's width and height, borders included.
fn outer_size(app: &XtApp, w: WidgetId) -> (i32, i32) {
    let bw = 2 * app.dim_resource(w, "borderWidth");
    (
        (app.dim_resource(w, "width") + bw) as i32,
        (app.dim_resource(w, "height") + bw) as i32,
    )
}

impl WidgetOps for FormOps {
    /// Places managed children in creation order, each `horizDistance`
    /// right of its `fromHoriz` reference and `vertDistance` below its
    /// `fromVert` one, as in Xaw. A reference placed earlier in this
    /// plan is at its planned position; any other (a later or unmanaged
    /// sibling) is where it is stored. The form needs the placements'
    /// bounding box plus `defaultDistance`.
    fn arrange(&self, app: &XtApp, form: WidgetId) -> Option<Arrangement> {
        let dd = app.dim_resource(form, "defaultDistance") as i32;
        let children = &app.widget(form).children;
        // Each placed child's position and outer size.
        let mut placed: HashMap<WidgetId, (i32, i32, i32, i32)> =
            HashMap::with_capacity(children.len());
        let mut plan = Arrangement {
            placements: Vec::with_capacity(children.len()),
            ..Arrangement::default()
        };
        let (mut right, mut bottom) = (0i32, 0i32);
        for &c in children {
            if !app.widget(c).managed {
                continue;
            }
            let rect = |r: WidgetId| {
                placed.get(&r).copied().unwrap_or_else(|| {
                    let (w, h) = outer_size(app, r);
                    (app.pos_resource(r, "x"), app.pos_resource(r, "y"), w, h)
                })
            };
            let hd = distance(app, c, "horizDistance", dd);
            let vd = distance(app, c, "vertDistance", dd);
            let x = widget_ref(app, c, "fromHoriz").map_or(hd, |r| {
                let (rx, _, rw, _) = rect(r);
                rx + rw + hd
            });
            let y = widget_ref(app, c, "fromVert").map_or(vd, |r| {
                let (_, ry, _, rh) = rect(r);
                ry + rh + vd
            });
            let (cw, ch) = outer_size(app, c);
            placed.insert(c, (x, y, cw, ch));
            plan.placements.push(Placement::at(c, x, y));
            right = right.max(x + cw);
            bottom = bottom.max(y + ch);
        }
        plan.width = (right + dd).max(1) as u32;
        plan.height = (bottom + dd).max(1) as u32;
        Some(plan)
    }
}

/// Builds the Form class.
pub fn form_class() -> WidgetClass {
    WidgetClass {
        name: "Form".into(),
        resources: form_resources(),
        constraint_resources: form_constraints(),
        actions: ActionTable::new(),
        default_translations: TranslationTable::new(),
        ops: Rc::new(FormOps),
        is_shell: false,
        is_composite: true,
    }
}

/// Box's resources.
pub fn box_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = core_resources();
    v.push(ResourceSpec::new("hSpace", "HSpace", Dimension, "4"));
    v.push(ResourceSpec::new("vSpace", "VSpace", Dimension, "4"));
    v.push(ResourceSpec::new(
        "orientation",
        "Orientation",
        Orientation,
        "vertical",
    ));
    v
}

/// Box class methods: flow layout.
pub struct BoxOps;

impl WidgetOps for BoxOps {
    /// Stacks managed children `hSpace`/`vSpace` apart along the
    /// orientation; the box is as deep as its deepest child.
    fn arrange(&self, app: &XtApp, w: WidgetId) -> Option<Arrangement> {
        let hs = app.dim_resource(w, "hSpace") as i32;
        let vs = app.dim_resource(w, "vSpace") as i32;
        let horizontal = matches!(
            app.widget(w).resource("orientation"),
            Some(ResourceValue::Orientation(
                wafe_xt::resource::Orientation::Horizontal
            ))
        );
        let mut plan = Arrangement::default();
        let (mut x, mut y) = (hs, vs);
        let (mut widest, mut tallest) = (0i32, 0i32);
        for &c in &app.widget(w).children {
            if !app.widget(c).managed {
                continue;
            }
            plan.placements.push(Placement::at(c, x, y));
            let (cw, ch) = outer_size(app, c);
            if horizontal {
                x += cw + hs;
            } else {
                y += ch + vs;
            }
            widest = widest.max(cw);
            tallest = tallest.max(ch);
        }
        let (width, height) = if horizontal {
            (x, tallest + 2 * vs)
        } else {
            (widest + 2 * hs, y)
        };
        plan.width = width.max(1) as u32;
        plan.height = height.max(1) as u32;
        Some(plan)
    }
}

/// Builds the Box class.
pub fn box_class() -> WidgetClass {
    WidgetClass {
        name: "Box".into(),
        resources: box_resources(),
        constraint_resources: Vec::new(),
        actions: ActionTable::new(),
        default_translations: TranslationTable::new(),
        ops: Rc::new(BoxOps),
        is_shell: false,
        is_composite: true,
    }
}

/// Registers Form and Box.
pub fn register(app: &mut XtApp) {
    app.register_class(form_class());
    app.register_class(box_class());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> XtApp {
        let mut a = XtApp::new();
        crate::shell::register(&mut a);
        crate::label::register(&mut a);
        crate::command::register(&mut a);
        register(&mut a);
        a
    }

    #[test]
    fn from_vert_stacks_children() {
        // The paper's prime-factors tree: input, result fromVert input,
        // quit fromVert result, info fromVert result fromHoriz quit.
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let form = a
            .create_widget("topf", "Form", Some(top), 0, &[], true)
            .unwrap();
        let input = a
            .create_widget(
                "input",
                "Label",
                Some(form),
                0,
                &[("width".into(), "200".into())],
                true,
            )
            .unwrap();
        let result = a
            .create_widget(
                "result",
                "Label",
                Some(form),
                0,
                &[
                    ("width".into(), "200".into()),
                    ("fromVert".into(), "input".into()),
                ],
                true,
            )
            .unwrap();
        let quit = a
            .create_widget(
                "quit",
                "Command",
                Some(form),
                0,
                &[
                    ("label".into(), "quit".into()),
                    ("fromVert".into(), "result".into()),
                ],
                true,
            )
            .unwrap();
        let info = a
            .create_widget(
                "info",
                "Label",
                Some(form),
                0,
                &[
                    ("fromVert".into(), "result".into()),
                    ("fromHoriz".into(), "quit".into()),
                    ("borderWidth".into(), "0".into()),
                    ("width".into(), "150".into()),
                ],
                true,
            )
            .unwrap();
        a.realize(top);
        // input at top-left corner (+default distance).
        assert_eq!(a.pos_resource(input, "x"), 4);
        assert_eq!(a.pos_resource(input, "y"), 4);
        // result strictly below input.
        assert!(a.pos_resource(result, "y") > a.pos_resource(input, "y") + 10);
        assert_eq!(a.pos_resource(result, "x"), 4);
        // quit below result; info right of quit, same row.
        assert!(a.pos_resource(quit, "y") > a.pos_resource(result, "y"));
        assert_eq!(a.pos_resource(info, "y"), a.pos_resource(quit, "y"));
        assert!(a.pos_resource(info, "x") > a.pos_resource(quit, "x"));
        // Form wraps everything.
        assert!(a.dim_resource(form, "width") >= 208);
    }

    #[test]
    fn form_bounds_grow_with_children() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let form = a
            .create_widget("f", "Form", Some(top), 0, &[], true)
            .unwrap();
        let mut prev = String::new();
        for i in 0..5 {
            let name = format!("w{i}");
            let mut init = vec![
                ("width".to_string(), "50".to_string()),
                ("height".to_string(), "20".to_string()),
            ];
            if !prev.is_empty() {
                init.push(("fromVert".to_string(), prev.clone()));
            }
            a.create_widget(&name, "Label", Some(form), 0, &init, true)
                .unwrap();
            prev = name;
        }
        a.realize(top);
        // Five 20px-high widgets stacked: form height > 5*20.
        assert!(a.dim_resource(form, "height") > 100);
    }

    #[test]
    fn horiz_distance_respected() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let form = a
            .create_widget("f", "Form", Some(top), 0, &[], true)
            .unwrap();
        a.create_widget(
            "a",
            "Label",
            Some(form),
            0,
            &[("width".into(), "50".into())],
            true,
        )
        .unwrap();
        let b = a
            .create_widget(
                "b",
                "Label",
                Some(form),
                0,
                &[
                    ("fromHoriz".into(), "a".into()),
                    ("horizDistance".into(), "20".into()),
                ],
                true,
            )
            .unwrap();
        a.realize(top);
        let ax = a.pos_resource(a.lookup("a").unwrap(), "x");
        let abw = a.dim_resource(a.lookup("a").unwrap(), "borderWidth") as i32;
        assert_eq!(a.pos_resource(b, "x"), ax + 50 + 2 * abw + 20);
    }

    /// A reference not yet placed in the pass (here an unmanaged
    /// sibling) is where it is stored, when measuring a zero-sized form
    /// as when placing its children, so the form wraps what it places.
    #[test]
    fn zero_sized_form_measures_an_unmanaged_reference_where_it_is_stored() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let bx = a
            .create_widget("bx", "Box", Some(top), 0, &[], true)
            .unwrap();
        let form = a
            .create_widget("f", "Form", Some(bx), 0, &[], true)
            .unwrap();
        let size = |w: &str, h: &str| {
            vec![
                ("width".to_string(), w.to_string()),
                ("height".to_string(), h.to_string()),
            ]
        };
        let first = a
            .create_widget("first", "Label", Some(form), 0, &size("50", "20"), true)
            .unwrap();
        let mut init = size("30", "20");
        init.push(("fromHoriz".into(), "first".into()));
        let second = a
            .create_widget("second", "Label", Some(form), 0, &init, true)
            .unwrap();
        a.realize(top);
        let bw = a.dim_resource(second, "borderWidth") as i32;
        assert_eq!(a.pos_resource(first, "x"), 4);
        let x = 4 + 50 + 2 * bw + 4;
        assert_eq!(a.pos_resource(second, "x"), x);
        a.unmanage_child(first);
        assert_eq!(a.pos_resource(second, "x"), x, "placed after the stored x");
        a.set_resource(form, "width", "0").unwrap();
        assert_eq!(a.pos_resource(second, "x"), x);
        assert_eq!(a.dim_resource(form, "width") as i32, x + 30 + 2 * bw + 4);
    }

    #[test]
    fn box_vertical_and_horizontal() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let bx = a
            .create_widget(
                "bx",
                "Box",
                Some(top),
                0,
                &[("orientation".into(), "horizontal".into())],
                true,
            )
            .unwrap();
        let c1 = a
            .create_widget(
                "c1",
                "Label",
                Some(bx),
                0,
                &[
                    ("width".into(), "30".into()),
                    ("height".into(), "10".into()),
                ],
                true,
            )
            .unwrap();
        let c2 = a
            .create_widget(
                "c2",
                "Label",
                Some(bx),
                0,
                &[
                    ("width".into(), "30".into()),
                    ("height".into(), "10".into()),
                ],
                true,
            )
            .unwrap();
        a.realize(top);
        assert_eq!(a.pos_resource(c1, "y"), a.pos_resource(c2, "y"));
        assert!(a.pos_resource(c2, "x") > a.pos_resource(c1, "x"));
        // Vertical box stacks.
        let bv = a
            .create_widget("bv", "Box", Some(top), 0, &[], false)
            .unwrap();
        let d1 = a
            .create_widget(
                "d1",
                "Label",
                Some(bv),
                0,
                &[("height".into(), "10".into())],
                true,
            )
            .unwrap();
        let d2 = a
            .create_widget(
                "d2",
                "Label",
                Some(bv),
                0,
                &[("height".into(), "10".into())],
                true,
            )
            .unwrap();
        a.do_layout(bv);
        assert!(a.pos_resource(d2, "y") > a.pos_resource(d1, "y"));
    }

    #[test]
    fn unmanaged_children_skipped() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let form = a
            .create_widget("f", "Form", Some(top), 0, &[], true)
            .unwrap();
        a.create_widget(
            "vis",
            "Label",
            Some(form),
            0,
            &[
                ("width".into(), "50".into()),
                ("height".into(), "20".into()),
            ],
            true,
        )
        .unwrap();
        a.create_widget(
            "hid",
            "Label",
            Some(form),
            0,
            &[
                ("width".into(), "500".into()),
                ("height".into(), "500".into()),
            ],
            false,
        )
        .unwrap();
        a.realize(top);
        // The unmanaged 500px child must not blow up the form.
        assert!(a.dim_resource(form, "width") < 200);
    }
}
