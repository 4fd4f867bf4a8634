//! TreeGraph — a graph-layout composite, the stand-in for the XmGraph
//! widget of the paper's Figure 2.
//!
//! Children carry a `parentNode` constraint naming another child; the
//! layout arranges nodes in layers left-to-right and the redisplay draws
//! the connecting edges, like HP's XmGraph arranged Wafe's design tool
//! views.

use std::rc::Rc;

use wafe_xproto::framebuffer::DrawOp;
use wafe_xt::action::ActionTable;
use wafe_xt::resource::{core_resources, ResType, ResourceSpec, ResourceValue};
use wafe_xt::translation::TranslationTable;
use wafe_xt::widget::{Arrangement, Placement, WidgetClass, WidgetId, WidgetOps};
use wafe_xt::XtApp;

/// TreeGraph's resources.
pub fn treegraph_resources() -> Vec<ResourceSpec> {
    use ResType::*;
    let mut v = core_resources();
    v.extend([
        ResourceSpec::new("hSpace", "HSpace", Dimension, "30"),
        ResourceSpec::new("vSpace", "VSpace", Dimension, "10"),
        ResourceSpec::new("foreground", "Foreground", Pixel, "black"),
        ResourceSpec::new("orientation", "Orientation", Orientation, "horizontal"),
    ]);
    v
}

/// TreeGraph's constraint resources.
pub fn treegraph_constraints() -> Vec<ResourceSpec> {
    vec![ResourceSpec::new(
        "parentNode",
        "Widget",
        ResType::Widget,
        "",
    )]
}

fn node_parent(app: &XtApp, c: WidgetId) -> Option<WidgetId> {
    match app.constraint(c, "parentNode") {
        Some(ResourceValue::Widget(n)) if !n.is_empty() => app.lookup(n),
        _ => None,
    }
}

/// Each child's depth, in child order (root nodes are depth 0).
fn depths(app: &XtApp, w: WidgetId) -> Vec<usize> {
    let children = &app.widget(w).children;
    children
        .iter()
        .map(|&c| {
            let mut d = 0usize;
            let mut cur = c;
            // Bounded walk to guard against constraint cycles.
            for _ in 0..children.len() {
                match node_parent(app, cur) {
                    Some(p) if p != cur => {
                        d += 1;
                        cur = p;
                    }
                    _ => break,
                }
            }
            d
        })
        .collect()
}

/// TreeGraph class methods.
pub struct TreeGraphOps;

impl WidgetOps for TreeGraphOps {
    /// Puts each depth in a column left to right, as wide as its widest
    /// node, and stacks a column's nodes in creation order. The widget
    /// needs room for every column at the widest node's width (at least
    /// 60) and for the tallest column.
    fn arrange(&self, app: &XtApp, w: WidgetId) -> Option<Arrangement> {
        let children = &app.widget(w).children;
        let depth = depths(app, w);
        let hs = app.dim_resource(w, "hSpace");
        let vs = app.dim_resource(w, "vSpace");
        let layers = depth.iter().max().map_or(1, |d| d + 1);
        let mut layer_w = vec![0u32; layers];
        for (&c, &d) in children.iter().zip(&depth) {
            layer_w[d] = layer_w[d].max(app.dim_resource(c, "width"));
        }
        let mut layer_x = Vec::with_capacity(layers);
        let mut x = hs;
        for lw in &layer_w {
            layer_x.push(x as i32);
            x += lw + hs;
        }
        let mut layer_y = vec![vs; layers];
        let mut plan = Arrangement::default();
        for (&c, &d) in children.iter().zip(&depth) {
            plan.placements
                .push(Placement::at(c, layer_x[d], layer_y[d] as i32));
            layer_y[d] += app.dim_resource(c, "height") + vs;
        }
        let widest = layer_w.iter().copied().fold(60, u32::max);
        let tallest = if children.is_empty() {
            40 + vs
        } else {
            layer_y.iter().copied().fold(0, u32::max)
        };
        plan.width = (layers as u32 * (widest + hs) + hs).max(60);
        plan.height = tallest.max(40);
        Some(plan)
    }

    fn redisplay(&self, app: &XtApp, w: WidgetId) -> Vec<DrawOp> {
        // Edges from each node's right edge to its children's left edges.
        let fg = app.pixel_resource(w, "foreground");
        let mut ops = Vec::new();
        for &c in &app.widget(w).children {
            if let Some(p) = node_parent(app, c) {
                let px = app.pos_resource(p, "x") + app.dim_resource(p, "width") as i32;
                let py = app.pos_resource(p, "y") + app.dim_resource(p, "height") as i32 / 2;
                let cx = app.pos_resource(c, "x");
                let cy = app.pos_resource(c, "y") + app.dim_resource(c, "height") as i32 / 2;
                ops.push(DrawOp::DrawLine {
                    x1: px,
                    y1: py,
                    x2: cx,
                    y2: cy,
                    pixel: fg,
                });
            }
        }
        ops
    }
}

/// Registers the TreeGraph class.
pub fn register(app: &mut XtApp) {
    app.register_class(WidgetClass {
        name: "TreeGraph".into(),
        resources: treegraph_resources(),
        constraint_resources: treegraph_constraints(),
        actions: ActionTable::new(),
        default_translations: TranslationTable::new(),
        ops: Rc::new(TreeGraphOps),
        is_shell: false,
        is_composite: true,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> XtApp {
        let mut a = XtApp::new();
        crate::shell::register(&mut a);
        crate::label::register(&mut a);
        register(&mut a);
        a
    }

    #[test]
    fn tree_layers_left_to_right() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let g = a
            .create_widget("g", "TreeGraph", Some(top), 0, &[], true)
            .unwrap();
        let root = a
            .create_widget(
                "root",
                "Label",
                Some(g),
                0,
                &[("label".into(), "root".into())],
                true,
            )
            .unwrap();
        let kid1 = a
            .create_widget(
                "kid1",
                "Label",
                Some(g),
                0,
                &[
                    ("label".into(), "kid1".into()),
                    ("parentNode".into(), "root".into()),
                ],
                true,
            )
            .unwrap();
        let kid2 = a
            .create_widget(
                "kid2",
                "Label",
                Some(g),
                0,
                &[
                    ("label".into(), "kid2".into()),
                    ("parentNode".into(), "root".into()),
                ],
                true,
            )
            .unwrap();
        let grand = a
            .create_widget(
                "grand",
                "Label",
                Some(g),
                0,
                &[
                    ("label".into(), "grand".into()),
                    ("parentNode".into(), "kid1".into()),
                ],
                true,
            )
            .unwrap();
        a.realize(top);
        assert!(a.pos_resource(kid1, "x") > a.pos_resource(root, "x"));
        assert!(a.pos_resource(grand, "x") > a.pos_resource(kid1, "x"));
        // Siblings share a column, stacked.
        assert_eq!(a.pos_resource(kid1, "x"), a.pos_resource(kid2, "x"));
        assert!(a.pos_resource(kid2, "y") > a.pos_resource(kid1, "y"));
        // Edges drawn: 3 (root->kid1, root->kid2, kid1->grand).
        let ops = TreeGraphOps.redisplay(&a, g);
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn constraint_cycle_does_not_hang() {
        let mut a = app();
        let top = a
            .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
            .unwrap();
        let g = a
            .create_widget("g", "TreeGraph", Some(top), 0, &[], true)
            .unwrap();
        a.create_widget(
            "a",
            "Label",
            Some(g),
            0,
            &[("parentNode".into(), "b".into())],
            true,
        )
        .unwrap();
        a.create_widget(
            "b",
            "Label",
            Some(g),
            0,
            &[("parentNode".into(), "a".into())],
            true,
        )
        .unwrap();
        // Must terminate.
        a.realize(top);
    }
}
