//! A Tree draws its edges from its children's constraints, so a
//! constraint change must redraw it even when no child moves.

use wafe_xproto::framebuffer::DrawOp;
use wafe_xt::XtApp;

#[test]
fn reparenting_a_node_redraws_the_edges() {
    let mut app = XtApp::new();
    wafe_xaw::register_all(&mut app);
    let top = app
        .create_widget("topLevel", "TopLevelShell", None, 0, &[], true)
        .unwrap();
    let g = app
        .create_widget("g", "TreeGraph", Some(top), 0, &[], true)
        .unwrap();
    let a = app
        .create_widget("a", "Label", Some(g), 0, &[], true)
        .unwrap();
    let b = app
        .create_widget("b", "Label", Some(g), 0, &[], true)
        .unwrap();
    let parent_of_c = [("parentNode".to_string(), "a".to_string())];
    let c = app
        .create_widget("c", "Label", Some(g), 0, &parent_of_c, true)
        .unwrap();
    app.realize(top);
    // `c` keeps its layer and its slot in it, so no child moves.
    let at = |app: &XtApp| (app.pos_resource(c, "x"), app.pos_resource(c, "y"));
    let before = at(&app);
    app.set_resource(c, "parentNode", "b").unwrap();
    assert_eq!(at(&app), before);
    let mid_y = |w| app.pos_resource(w, "y") + app.dim_resource(w, "height") as i32 / 2;
    assert_ne!(mid_y(a), mid_y(b));
    let win = app.widget(g).window.unwrap();
    let shown = &app.displays[0].window(win).unwrap().display_list;
    assert!(
        matches!(shown[..], [DrawOp::DrawLine { y1, .. }] if y1 == mid_y(b)),
        "the one edge must start at b, got {shown:?}"
    );
}
