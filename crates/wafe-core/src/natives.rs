//! Native handlers backing the spec-generated commands.
//!
//! The spec layer converts Tcl string arguments into typed
//! [`NativeValue`]s (the generated "conversion, argument passing, error
//! messages" of the paper's code generator) and dispatches to the handler
//! registered under the C function name.

use std::collections::HashMap;
use std::rc::Rc;

use wafe_tcl::{list_join, CmdResult, Interp, TclError, Value};
use wafe_xproto::GrabKind;
use wafe_xt::{WidgetId, XtApp};

/// A typed argument produced by spec-driven conversion.
#[derive(Debug, Clone)]
pub enum NativeValue {
    /// A resolved widget.
    Widget(WidgetId),
    /// A boolean.
    Bool(bool),
    /// An integer (Int/Cardinal/Position/Dimension).
    Int(i64),
    /// A string.
    Str(String),
    /// A grab kind.
    Grab(GrabKind),
    /// The name of a Tcl output variable.
    Var(String),
}

impl NativeValue {
    fn widget(&self) -> WidgetId {
        match self {
            NativeValue::Widget(w) => *w,
            _ => panic!("spec conversion produced wrong type (expected Widget)"),
        }
    }

    fn boolean(&self) -> bool {
        match self {
            NativeValue::Bool(b) => *b,
            _ => panic!("spec conversion produced wrong type (expected Boolean)"),
        }
    }

    fn int(&self) -> i64 {
        match self {
            NativeValue::Int(i) => *i,
            _ => panic!("spec conversion produced wrong type (expected Int)"),
        }
    }

    fn string(&self) -> &str {
        match self {
            NativeValue::Str(s) => s,
            _ => panic!("spec conversion produced wrong type (expected String)"),
        }
    }

    fn grab(&self) -> GrabKind {
        match self {
            NativeValue::Grab(g) => *g,
            _ => panic!("spec conversion produced wrong type (expected GrabKind)"),
        }
    }

    fn var(&self) -> &str {
        match self {
            NativeValue::Var(v) => v,
            _ => panic!("spec conversion produced wrong type (expected VarName)"),
        }
    }
}

/// Signature of a native handler.
pub type NativeFn = Rc<dyn Fn(&mut Interp, &mut XtApp, &[NativeValue]) -> CmdResult>;

/// Builds the full native registry, keyed by C function name.
pub fn native_registry() -> HashMap<&'static str, NativeFn> {
    let mut m: HashMap<&'static str, NativeFn> = HashMap::new();
    let mut add =
        |name: &'static str,
         f: &'static dyn Fn(&mut Interp, &mut XtApp, &[NativeValue]) -> CmdResult| {
            m.insert(name, Rc::new(f));
        };

    add("XtDestroyWidget", &|_, app, a| {
        app.destroy_widget(a[0].widget());
        Ok(Value::empty())
    });
    add("XtManageChild", &|_, app, a| {
        app.manage_child(a[0].widget());
        Ok(Value::empty())
    });
    add("XtUnmanageChild", &|_, app, a| {
        app.unmanage_child(a[0].widget());
        Ok(Value::empty())
    });
    add("XtPopup", &|_, app, a| {
        app.popup(a[0].widget(), a[1].grab());
        Ok(Value::empty())
    });
    add("XtPopdown", &|_, app, a| {
        app.popdown(a[0].widget());
        Ok(Value::empty())
    });
    add("XtSetSensitive", &|_, app, a| {
        let v = if a[1].boolean() { "true" } else { "false" };
        app.set_resource(a[0].widget(), "sensitive", v)
            .map_err(|e| TclError::Error(e.to_string()))?;
        Ok(Value::empty())
    });
    add("XtIsRealized", &|_, app, a| {
        Ok(bool_str(app.is_realized(a[0].widget())))
    });
    add("XtIsSensitive", &|_, app, a| {
        Ok(bool_str(app.is_sensitive(a[0].widget())))
    });
    add("XtIsManaged", &|_, app, a| {
        Ok(bool_str(app.widget(a[0].widget()).managed))
    });
    add("XtIsShell", &|_, app, a| {
        Ok(bool_str(app.widget(a[0].widget()).class.is_shell))
    });
    add("XtParent", &|_, app, a| {
        Ok(app
            .widget(a[0].widget())
            .parent
            .map(|p| app.widget(p).name.clone())
            .unwrap_or_default()
            .into())
    });
    add("XtName", &|_, app, a| {
        Ok(app.widget(a[0].widget()).name.clone().into())
    });
    add("XtClass", &|_, app, a| {
        Ok(app.widget(a[0].widget()).class.name.clone().into())
    });
    add("XtGetResourceList", &|interp, app, a| {
        // The paper's example: returns the count, puts the name list into
        // the variable named by the second argument.
        let names = app.get_resource_list(a[0].widget());
        let count = names.len();
        interp.set_var(a[1].var(), list_join(&names))?;
        Ok(Value::from_int(count as i64))
    });
    add("XtMoveWidget", &|_, app, a| {
        app.move_widget(a[0].widget(), a[1].int() as i32, a[2].int() as i32);
        Ok(Value::empty())
    });
    add("XtResizeWidget", &|_, app, a| {
        app.resize_widget(
            a[0].widget(),
            a[1].int().max(1) as u32,
            a[2].int().max(1) as u32,
            a[3].int().max(0) as u32,
        );
        Ok(Value::empty())
    });
    add("XtAddGrab", &|_, app, a| {
        let w = a[0].widget();
        let di = app.widget(w).display_idx;
        if let Some(win) = app.widget(w).window {
            app.displays[di].add_grab(win, a[1].grab());
        }
        Ok(Value::empty())
    });
    add("XtRemoveGrab", &|_, app, a| {
        let w = a[0].widget();
        let di = app.widget(w).display_idx;
        if let Some(win) = app.widget(w).window {
            app.displays[di].remove_grab(win);
        }
        Ok(Value::empty())
    });
    add("XtOwnSelection", &|_, app, a| {
        let w = a[0].widget();
        let di = app.widget(w).display_idx;
        let win = app.widget(w).window.unwrap_or(app.displays[di].root());
        let atom = app.displays[di].intern_atom(a[1].string());
        app.displays[di].own_selection(atom, win, a[2].string().to_string());
        Ok(Value::empty())
    });
    add("XtGetSelectionValue", &|_, app, a| {
        let w = a[0].widget();
        let di = app.widget(w).display_idx;
        let atom = app.displays[di].intern_atom(a[1].string());
        Ok(app.displays[di].get_selection(atom).unwrap_or("").into())
    });
    add("XtDisownSelection", &|_, app, a| {
        let w = a[0].widget();
        let di = app.widget(w).display_idx;
        let win = app.widget(w).window.unwrap_or(app.displays[di].root());
        let atom = app.displays[di].intern_atom(a[1].string());
        app.displays[di].clear_selection(atom, win);
        Ok(Value::empty())
    });
    add("XtInstallAccelerators", &|_, app, a| {
        app.install_accelerators(a[0].widget(), a[1].widget());
        Ok(Value::empty())
    });
    add("XtInstallAllAccelerators", &|_, app, a| {
        app.install_all_accelerators(a[0].widget(), a[1].widget());
        Ok(Value::empty())
    });
    add("XtNameToWidget", &|_, app, a| {
        // Resolves a dotted child path ("form.quit") relative to a root.
        let mut cur = a[0].widget();
        'outer: for seg in a[1].string().split('.').filter(|s| !s.is_empty()) {
            let children: Vec<WidgetId> = app
                .widget(cur)
                .children
                .iter()
                .chain(app.widget(cur).popups.iter())
                .copied()
                .collect();
            for c in children {
                if app.widget(c).name == seg {
                    cur = c;
                    continue 'outer;
                }
            }
            return Err(TclError::Error(format!(
                "no child \"{seg}\" under \"{}\"",
                app.widget(cur).name
            )));
        }
        Ok(app.widget(cur).name.clone().into())
    });
    add("XtTranslateCoords", &|interp, app, a| {
        let w = a[0].widget();
        let di = app.widget(w).display_idx;
        let pos = match app.widget(w).window {
            Some(win) => app.displays[di].abs_position(win),
            None => wafe_xproto::Point::new(0, 0),
        };
        interp.set_elem(a[1].var(), "x", pos.x.to_string())?;
        interp.set_elem(a[1].var(), "y", pos.y.to_string())?;
        Ok("2".into())
    });

    // ----- Athena programmatic interface -----
    add("XawListHighlight", &|_, app, a| {
        wafe_xaw::list::list_highlight(app, a[0].widget(), a[1].int().max(0) as usize);
        Ok(Value::empty())
    });
    add("XawListUnhighlight", &|_, app, a| {
        wafe_xaw::list::list_unhighlight(app, a[0].widget());
        Ok(Value::empty())
    });
    add("XawListChange", &|_, app, a| {
        let items: Vec<String> = a[1]
            .string()
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        wafe_xaw::list::list_change(app, a[0].widget(), items);
        Ok(Value::empty())
    });
    add("XawListShowCurrent", &|interp, app, a| {
        let (idx, item) = wafe_xaw::list::list_show_current(app, a[0].widget());
        interp.set_var(a[1].var(), &item)?;
        Ok(idx.to_string().into())
    });
    add("XawScrollbarSetThumb", &|_, app, a| {
        wafe_xaw::scrollbar::scrollbar_set_thumb(app, a[0].widget(), a[1].int(), a[2].int());
        Ok(Value::empty())
    });
    add("XawDialogGetValueString", &|_, app, a| {
        Ok(wafe_xaw::dialog::dialog_get_value(app, a[0].widget()).into())
    });
    add("XawDialogAddButton", &|_, app, a| {
        wafe_xaw::dialog::dialog_add_button(app, a[0].widget(), a[1].string(), a[2].string())
            .map_err(|e| TclError::Error(e.to_string()))?;
        Ok(Value::empty())
    });
    add("XawStripChartAddSample", &|_, app, a| {
        let v: f64 = a[1].string().trim().parse().map_err(|_| {
            TclError::Error(format!("expected number but got \"{}\"", a[1].string()))
        })?;
        wafe_xaw::chart::stripchart_add_sample(app, a[0].widget(), v);
        Ok(Value::empty())
    });
    add("XawTextGetString", &|_, app, a| {
        Ok(app.str_resource(a[0].widget(), "string").into())
    });
    add("XawViewportSetCoordinates", &|_, app, a| {
        wafe_xaw::paned::viewport_scroll(app, a[0].widget(), a[1].int() as i32, a[2].int() as i32);
        Ok(Value::empty())
    });
    add("XawFormDoLayout", &|_, app, a| {
        let form = a[0].widget();
        if a[1].boolean() {
            if app.is_realized(form) {
                app.mark_layout(form);
                app.settle();
            } else {
                // Before realize: size the tree now, as it always has.
                let root = app.root_of(form);
                app.do_layout(root);
            }
        }
        Ok(Value::empty())
    });

    // ----- Rdd drag-and-drop extension -----
    add("RddDragSource", &|_, app, a| {
        wafe_xt::dnd::make_drag_source(app, a[0].widget(), a[1].string());
        Ok(Value::empty())
    });
    add("RddDropTarget", &|_, app, a| {
        wafe_xt::dnd::make_drop_target(app, a[0].widget(), a[1].string());
        Ok(Value::empty())
    });

    // ----- Motif programmatic interface -----
    add("XmCascadeButtonHighlight", &|_, app, a| {
        wafe_motif::widgets::cascade_button_highlight(app, a[0].widget(), a[1].boolean());
        Ok(Value::empty())
    });
    add("XmCommandAppendValue", &|_, app, a| {
        wafe_motif::widgets::command_append_value(app, a[0].widget(), a[1].string());
        Ok(Value::empty())
    });
    add("XmCommandError", &|_, app, a| {
        wafe_motif::widgets::command_error(app, a[0].widget(), a[1].string());
        Ok(Value::empty())
    });

    m
}

fn bool_str(b: bool) -> Value {
    Value::from_int(b as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_populated() {
        let r = native_registry();
        assert!(r.len() >= 30);
        assert!(r.contains_key("XtDestroyWidget"));
        assert!(r.contains_key("XtGetResourceList"));
        assert!(r.contains_key("XmCascadeButtonHighlight"));
    }
}
