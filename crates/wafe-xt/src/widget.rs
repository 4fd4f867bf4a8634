//! Widget classes and instance records.

use std::collections::HashMap;
use std::rc::Rc;

use wafe_xproto::framebuffer::DrawOp;
use wafe_xproto::WindowId;

use crate::action::ActionTable;
use crate::app::XtApp;
use crate::resource::{ResourceSpec, ResourceValue};
use crate::translation::TranslationTable;

/// Identifies a widget instance within an [`XtApp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WidgetId(pub u32);

/// Class methods — the analogue of the Xt class record's procedure
/// pointers. Implementations take the application context plus the
/// instance id (the crate is id-based to satisfy the borrow checker the
/// way Xt satisfies C's aliasing: one mutable world, names for parts).
pub trait WidgetOps {
    /// Called after the instance's resources are initialised.
    fn initialize(&self, _app: &mut XtApp, _w: WidgetId) {}

    /// The size a leaf wants, given its current resources. Called
    /// during geometry negotiation when `width`/`height` are 0 and the
    /// class has no [`WidgetOps::arrange`].
    fn preferred_size(&self, app: &XtApp, w: WidgetId) -> (u32, u32) {
        let width = app.dim_resource(w, "width").max(16);
        let height = app.dim_resource(w, "height").max(16);
        (width, height)
    }

    /// A composite's geometry rule, stated once: the size it needs and
    /// where its children go, from the current resources. `None` for
    /// leaves. The toolkit takes a zero-sized composite's size from it
    /// and stores the placements; no class writes geometry itself.
    fn arrange(&self, _app: &XtApp, _w: WidgetId) -> Option<Arrangement> {
        None
    }

    /// Produces the retained drawing for the widget's window.
    fn redisplay(&self, _app: &XtApp, _w: WidgetId) -> Vec<DrawOp> {
        Vec::new()
    }

    /// Called after `setValues` changed the named resources; returns
    /// what the class needs on top of the toolkit's own classification
    /// (see [`XtApp::set_values`]). The default asks for a redisplay,
    /// which is what Xt's `set_values` returning `True` means.
    fn set_values(&self, _app: &mut XtApp, _w: WidgetId, _changed: &[String]) -> SetValuesNeeds {
        SetValuesNeeds::REDISPLAY
    }

    /// Called before the instance is torn down.
    fn destroy(&self, _app: &mut XtApp, _w: WidgetId) {}
}

/// A composite's layout plan: like Xaw Box's `DoLayout`, one
/// computation gives both the size the composite needs and its
/// children's positions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Arrangement {
    /// The width the composite needs.
    pub width: u32,
    /// The height the composite needs.
    pub height: u32,
    /// Where each placed child goes, in child order.
    pub placements: Vec<Placement>,
}

/// One child's place in an [`Arrangement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The child.
    pub child: WidgetId,
    /// Its position in the composite.
    pub x: i32,
    /// Its position in the composite.
    pub y: i32,
    /// The width it is stretched to, if any.
    pub width: Option<u32>,
    /// The height it is stretched to, if any.
    pub height: Option<u32>,
}

impl Placement {
    /// A child moved to `(x, y)` at its own size.
    pub fn at(child: WidgetId, x: i32, y: i32) -> Placement {
        Placement {
            child,
            x,
            y,
            width: None,
            height: None,
        }
    }
}

/// What a class's `set_values` asks of the toolkit: Xt's `Boolean
/// redisplay` result plus a geometry request to the parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetValuesNeeds {
    /// The widget's own drawing is stale.
    pub redisplay: bool,
    /// The widget's size or position changed: the parent must re-lay
    /// it out.
    pub geometry: bool,
}

impl SetValuesNeeds {
    /// Redraw the widget; its geometry is unchanged.
    pub const REDISPLAY: SetValuesNeeds = SetValuesNeeds {
        redisplay: true,
        geometry: false,
    };
}

/// A widget class record.
pub struct WidgetClass {
    /// Class name, e.g. `Label` (used in Xrm class paths).
    pub name: String,
    /// Flattened resource list (superclass chain already folded in).
    pub resources: Vec<ResourceSpec>,
    /// Constraint resources this class imposes on its *children*
    /// (only for constraint composites like Form).
    pub constraint_resources: Vec<ResourceSpec>,
    /// Class action table.
    pub actions: ActionTable,
    /// Default translations installed on every new instance.
    pub default_translations: TranslationTable,
    /// Class methods.
    pub ops: Rc<dyn WidgetOps>,
    /// True for shells (popup/application/top-level).
    pub is_shell: bool,
    /// True if instances may have children.
    pub is_composite: bool,
}

impl WidgetClass {
    /// Looks up a resource spec by instance name.
    pub fn resource(&self, name: &str) -> Option<&ResourceSpec> {
        self.resources.iter().find(|r| r.name == name)
    }

    /// Looks up a constraint resource spec by instance name.
    pub fn constraint(&self, name: &str) -> Option<&ResourceSpec> {
        self.constraint_resources.iter().find(|r| r.name == name)
    }
}

impl std::fmt::Debug for WidgetClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WidgetClass")
            .field("name", &self.name)
            .field("resources", &self.resources.len())
            .field("is_shell", &self.is_shell)
            .field("is_composite", &self.is_composite)
            .finish()
    }
}

/// A widget instance.
pub struct WidgetRec {
    /// Instance id.
    pub id: WidgetId,
    /// Instance name (`label1`, `quit` …) — Wafe's handle for the widget.
    pub name: String,
    /// The class record.
    pub class: Rc<WidgetClass>,
    /// Parent widget (None for shells created on a display root).
    pub parent: Option<WidgetId>,
    /// Normal children, in creation order.
    pub children: Vec<WidgetId>,
    /// Popup children (shells popped up from this widget's tree).
    pub popups: Vec<WidgetId>,
    /// Typed resource storage.
    pub resources: HashMap<&'static str, ResourceValue>,
    /// Constraint resource storage (imposed by the parent's class).
    pub constraints: HashMap<&'static str, ResourceValue>,
    /// The widget's merged translation table.
    pub translations: TranslationTable,
    /// True once managed (`XtManageChild` — widget creation commands
    /// create managed widgets unless the optional argument says not to).
    pub managed: bool,
    /// True once a window exists.
    pub realized: bool,
    /// The server-side window, if realized.
    pub window: Option<WindowId>,
    /// Index of the display this widget lives on.
    pub display_idx: usize,
    /// For shells: currently popped up.
    pub popped_up: bool,
    /// Class-private instance state (text cursor position, toggle state,
    /// list selection …) — the analogue of the instance-record fields a C
    /// widget adds below its superclass part.
    pub state: HashMap<String, String>,
    /// Accelerators installed onto this widget (`XtInstallAccelerators`):
    /// each entry is a source widget's accelerator table; matching events
    /// here run the actions *on the source widget*.
    pub accelerators_installed: Vec<(TranslationTable, WidgetId)>,
}

impl WidgetRec {
    /// Reads a typed resource.
    pub fn resource(&self, name: &str) -> Option<&ResourceValue> {
        self.resources.get(name)
    }
}

impl std::fmt::Debug for WidgetRec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WidgetRec")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("class", &self.class.name)
            .field("managed", &self.managed)
            .field("realized", &self.realized)
            .finish()
    }
}

/// A plain leaf class with no behaviour — the base for tests and for
/// simple widgets.
pub struct CoreOps;

impl WidgetOps for CoreOps {}

/// Builds a minimal class (Core semantics) for tests and shells.
pub fn core_class(name: &str, is_shell: bool, is_composite: bool) -> WidgetClass {
    WidgetClass {
        name: name.to_string(),
        resources: crate::resource::core_resources(),
        constraint_resources: Vec::new(),
        actions: ActionTable::new(),
        default_translations: TranslationTable::new(),
        ops: Rc::new(CoreOps),
        is_shell,
        is_composite,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_class_shape() {
        let c = core_class("Core", false, false);
        assert_eq!(c.name, "Core");
        assert_eq!(c.resources.len(), 18);
        assert!(c.resource("background").is_some());
        assert!(c.resource("nosuch").is_none());
        assert!(!c.is_shell);
    }
}
