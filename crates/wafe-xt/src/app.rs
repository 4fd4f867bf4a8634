//! The application context: widget tree, realize, popups, event dispatch.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use wafe_trace::Telemetry;
use wafe_xproto::display::{Display, GrabKind, WindowAttributes};
use wafe_xproto::font::{FontDb, FontId};
use wafe_xproto::geometry::Rect;
use wafe_xproto::{Event, EventKind, Pixel, WindowId};

use crate::action::ActionTable;
use crate::callback::{CallbackItem, PredefinedCallback};
use crate::converter::{ConvertCtx, ConverterRegistry};
use crate::memstats::MemStats;
use crate::resource::ResourceValue;
use crate::translation::{MergeMode, TranslationTable};
use crate::widget::{WidgetClass, WidgetId, WidgetRec};
use crate::xrm::XrmDb;

/// Logical per-widget record overhead for memory accounting.
const WIDGET_OVERHEAD: usize = 64;

/// Core resources that are a widget's geometry: changing one is a
/// geometry request to the parent.
const GEOMETRY_RESOURCES: [&str; 5] = ["x", "y", "width", "height", "borderWidth"];

/// One piece of work a change to a realized widget leaves for
/// [`XtApp::settle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// Re-lay-out this widget's subtree (`do_layout`).
    Layout,
    /// The widget's geometry changed: its parent re-lays it out.
    Geometry,
    /// Created into a realized parent: windows are made after layout.
    Realize,
    /// Push the widget's geometry and attributes to its window.
    Sync,
    /// Sync the window and recompute the widget's drawing.
    Redraw,
    /// Sync the window and redraw the whole subtree (`sensitive`).
    RedrawTree,
}

/// Errors from toolkit operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XtError {
    /// No class registered under this name.
    UnknownClass(String),
    /// No widget with this name/id.
    UnknownWidget(String),
    /// A widget with this name already exists.
    DuplicateName(String),
    /// A resource conversion failed.
    Conversion {
        /// The resource being converted.
        resource: String,
        /// The converter's message.
        message: String,
    },
    /// Attempt to give children to a non-composite widget.
    NotComposite(String),
    /// The class has no resource of this name.
    NoSuchResource {
        /// Widget name.
        widget: String,
        /// Resource name.
        resource: String,
    },
}

impl std::fmt::Display for XtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XtError::UnknownClass(c) => write!(f, "unknown widget class \"{c}\""),
            XtError::UnknownWidget(w) => write!(f, "unknown widget \"{w}\""),
            XtError::DuplicateName(n) => write!(f, "widget name \"{n}\" already in use"),
            XtError::Conversion { resource, message } => {
                write!(
                    f,
                    "conversion failed for resource \"{resource}\": {message}"
                )
            }
            XtError::NotComposite(w) => write!(f, "widget \"{w}\" is not composite"),
            XtError::NoSuchResource { widget, resource } => {
                write!(f, "widget \"{widget}\" has no resource \"{resource}\"")
            }
        }
    }
}

impl std::error::Error for XtError {}

/// Why the host (the Wafe/Tcl layer) is being called back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostCallKind {
    /// A callback list fired; carries the resource name.
    Callback(String),
    /// The global `exec`-style action fired.
    Action,
}

/// A deferred invocation of host-language code — the analogue of Xt
/// calling an application's C callback function.
#[derive(Debug, Clone)]
pub struct HostCall {
    /// The invoking widget.
    pub widget: WidgetId,
    /// The invoking widget's name (for `%w`).
    pub widget_name: String,
    /// The script to run (still containing percent codes).
    pub script: String,
    /// The triggering event, if any (actions always have one).
    pub event: Option<Event>,
    /// Class-specific clientData percent payload (e.g. List: `i`, `s`).
    pub data: HashMap<char, String>,
    /// What fired.
    pub kind: HostCallKind,
}

/// The Xt application context.
pub struct XtApp {
    /// Open displays; index 0 is the default display.
    pub displays: Vec<Display>,
    widgets: HashMap<u32, WidgetRec>,
    by_name: HashMap<String, WidgetId>,
    /// Class records, converters and global actions are shared by `Rc`
    /// between contexts built with [`XtApp::sharing_toolkit`]; adding to
    /// one copies only that table (`Rc::make_mut`).
    classes: Rc<HashMap<String, Rc<WidgetClass>>>,
    /// The converter registry (add with [`XtApp::add_converter`]).
    pub converters: Rc<ConverterRegistry>,
    /// Application-wide actions, `XtAppAddActions` (add with
    /// [`XtApp::add_global_action`]).
    pub global_actions: Rc<ActionTable>,
    /// The resource database.
    pub resource_db: XrmDb,
    /// Memory accounting.
    pub memstats: MemStats,
    /// Telemetry store shared with the embedding (disabled by default).
    pub telemetry: Telemetry,
    host_calls: VecDeque<HostCall>,
    window_map: HashMap<(usize, WindowId), WidgetId>,
    next_id: u32,
    warnings: Vec<String>,
    /// The value in flight during an Rdd drag (see [`crate::dnd`]).
    pub dnd_payload: Option<String>,
    /// Work marked on realized widgets, done by the next
    /// [`XtApp::settle`].
    dirty: Vec<(WidgetId, Mark)>,
}

impl XtApp {
    /// Creates an application context with one display (`:0`).
    pub fn new() -> Self {
        Self::with_toolkit(
            Rc::default(),
            Rc::new(ConverterRegistry::new()),
            Rc::default(),
        )
    }

    /// A fresh application context — no widgets, default resource
    /// database — sharing this one's class records, converters and
    /// global actions: the toolkit is initialised once
    /// (`XtInitializeWidgetClass`), only instances are per context.
    pub fn sharing_toolkit(&self) -> Self {
        Self::with_toolkit(
            self.classes.clone(),
            self.converters.clone(),
            self.global_actions.clone(),
        )
    }

    fn with_toolkit(
        classes: Rc<HashMap<String, Rc<WidgetClass>>>,
        converters: Rc<ConverterRegistry>,
        global_actions: Rc<ActionTable>,
    ) -> Self {
        XtApp {
            displays: vec![Display::open(":0")],
            widgets: HashMap::new(),
            by_name: HashMap::new(),
            classes,
            converters,
            global_actions,
            resource_db: XrmDb::new(),
            memstats: MemStats::new(),
            telemetry: Telemetry::new(),
            host_calls: VecDeque::new(),
            window_map: HashMap::new(),
            next_id: 1,
            warnings: Vec::new(),
            dnd_payload: None,
            dirty: Vec::new(),
        }
    }

    /// Opens an additional display (`applicationShell top2 dec4:0`) and
    /// returns its index.
    pub fn open_display(&mut self, name: &str) -> usize {
        self.displays.push(Display::open(name));
        self.displays.len() - 1
    }

    // ----- classes ------------------------------------------------------

    /// Registers a widget class.
    pub fn register_class(&mut self, class: WidgetClass) {
        Rc::make_mut(&mut self.classes).insert(class.name.clone(), Rc::new(class));
    }

    /// Registers (or replaces) a converter (`XtAppAddConverter`).
    pub fn add_converter<F>(&mut self, ty: crate::resource::ResType, f: F)
    where
        F: Fn(&str, &ConvertCtx<'_>) -> Result<ResourceValue, String> + 'static,
    {
        Rc::make_mut(&mut self.converters).register(ty, f);
    }

    /// Adds (or replaces) a global action (`XtAppAddActions`).
    pub fn add_global_action<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&mut XtApp, WidgetId, &Event, &[String]) + 'static,
    {
        Rc::make_mut(&mut self.global_actions).add(name, f);
    }

    /// Looks up a registered class.
    pub fn class(&self, name: &str) -> Option<Rc<WidgetClass>> {
        self.classes.get(name).cloned()
    }

    /// Names of all registered classes, sorted.
    pub fn class_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.classes.keys().cloned().collect();
        v.sort();
        v
    }

    /// `XtGetResourceList`: the resource names of a widget's class, in
    /// class order.
    pub fn get_resource_list(&self, w: WidgetId) -> Vec<String> {
        let rec = &self.widgets[&w.0];
        rec.class
            .resources
            .iter()
            .map(|r| r.name.to_string())
            .collect()
    }

    // ----- widget tree ----------------------------------------------------

    /// Creates a widget.
    ///
    /// Resource precedence matches Xt: creation `init` arguments override
    /// the resource database, which overrides class defaults. Constraint
    /// resources are drawn from the parent class's constraint list.
    pub fn create_widget(
        &mut self,
        name: &str,
        class_name: &str,
        parent: Option<WidgetId>,
        display_idx: usize,
        init: &[(String, String)],
        managed: bool,
    ) -> Result<WidgetId, XtError> {
        let class = self
            .class(class_name)
            .ok_or_else(|| XtError::UnknownClass(class_name.to_string()))?;
        if self.by_name.contains_key(name) {
            return Err(XtError::DuplicateName(name.to_string()));
        }
        if let Some(p) = parent {
            let prec = self
                .widgets
                .get(&p.0)
                .ok_or_else(|| XtError::UnknownWidget(format!("#{}", p.0)))?;
            if !prec.class.is_composite {
                return Err(XtError::NotComposite(prec.name.clone()));
            }
        }
        let id = WidgetId(self.next_id);
        self.next_id += 1;
        let display_idx = parent
            .map(|p| self.widgets[&p.0].display_idx)
            .unwrap_or(display_idx);

        // Build the instance name/class paths for Xrm queries.
        let (mut names, mut classes) = match parent {
            Some(p) => self.widget_path(p),
            None => (Vec::new(), Vec::new()),
        };
        names.push(name.to_string());
        classes.push(class.name.clone());
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let class_refs: Vec<&str> = classes.iter().map(String::as_str).collect();

        let mut resources: HashMap<&'static str, ResourceValue> = HashMap::new();
        let mut tracked = WIDGET_OVERHEAD;
        for spec in &class.resources {
            let explicit = init
                .iter()
                .find(|(n, _)| n == spec.name)
                .map(|(_, v)| v.clone());
            let from_db = if explicit.is_none() {
                self.resource_db
                    .query(&name_refs, &class_refs, spec.name, spec.class)
            } else {
                None
            };
            let source_is_explicit = explicit.is_some();
            let text = explicit
                .or(from_db)
                .unwrap_or_else(|| spec.default.to_string());
            let fonts = &self.displays[display_idx].fonts;
            let value = match self
                .converters
                .convert(spec.ty, &text, &ConvertCtx { fonts })
            {
                Ok(v) => v,
                Err(message) => {
                    if source_is_explicit {
                        return Err(XtError::Conversion {
                            resource: spec.name.to_string(),
                            message,
                        });
                    }
                    // Bad database value: warn and fall back to the default.
                    self.warnings.push(format!(
                        "Xt warning: {message} (resource {} of {name}); using default",
                        spec.name
                    ));
                    self.converters
                        .convert(spec.ty, spec.default, &ConvertCtx { fonts })
                        .map_err(|message| XtError::Conversion {
                            resource: spec.name.to_string(),
                            message,
                        })?
                }
            };
            tracked += value.tracked_size();
            resources.insert(spec.name, value);
        }

        // Constraint resources come from the parent's class.
        let mut constraints: HashMap<&'static str, ResourceValue> = HashMap::new();
        if let Some(p) = parent {
            let pclass = self.widgets[&p.0].class.clone();
            for spec in &pclass.constraint_resources {
                let explicit = init
                    .iter()
                    .find(|(n, _)| n == spec.name)
                    .map(|(_, v)| v.clone());
                let text = explicit.unwrap_or_else(|| spec.default.to_string());
                let fonts = &self.displays[display_idx].fonts;
                let value = self
                    .converters
                    .convert(spec.ty, &text, &ConvertCtx { fonts })
                    .map_err(|message| XtError::Conversion {
                        resource: spec.name.to_string(),
                        message,
                    })?;
                tracked += value.tracked_size();
                constraints.insert(spec.name, value);
            }
        }

        // Translations: class defaults merged with any instance value.
        let mut translations = class.default_translations.clone();
        if let Some(ResourceValue::Translations(t)) = resources.get("translations") {
            if !t.entries.is_empty() {
                translations.merge(t.clone(), MergeMode::Override);
            }
        }

        let rec = WidgetRec {
            id,
            name: name.to_string(),
            class: class.clone(),
            parent,
            children: Vec::new(),
            popups: Vec::new(),
            resources,
            constraints,
            translations,
            managed,
            realized: false,
            window: None,
            display_idx,
            popped_up: false,
            state: HashMap::new(),
            accelerators_installed: Vec::new(),
        };
        self.memstats.alloc(tracked);
        self.telemetry.count("xt.widget.creates");
        self.telemetry
            .event("widget.create", || format!("{name} {}", class.name));
        self.widgets.insert(id.0, rec);
        self.by_name.insert(name.to_string(), id);
        if let Some(p) = parent {
            self.widgets.get_mut(&p.0).unwrap().children.push(id);
        }
        let ops = class.ops.clone();
        ops.initialize(self, id);

        // If the parent is already realized, realize the new widget into
        // the live tree (Wafe lets applications grow the tree at runtime):
        // the parent re-lays out, then the new windows are made.
        if let Some(p) = parent {
            if self.widgets[&p.0].realized {
                self.dirty.push((id, Mark::Realize));
                self.settle();
            }
        }
        Ok(id)
    }

    /// Destroys a widget and its subtree; fires `destroyCallback`s,
    /// releases windows, names and tracked memory. A realized parent
    /// re-lays out its remaining children.
    pub fn destroy_widget(&mut self, w: WidgetId) {
        let Some(rec) = self.widgets.get(&w.0) else {
            return;
        };
        let parent = rec.parent.filter(|_| rec.realized);
        self.destroy_subtree(w);
        if let Some(p) = parent {
            self.mark(p, Mark::Layout);
            self.settle();
        }
    }

    fn destroy_subtree(&mut self, w: WidgetId) {
        if !self.widgets.contains_key(&w.0) {
            return;
        }
        // Fire the destroy callback before teardown, like Xt phase one.
        self.call_callbacks(w, "destroyCallback", HashMap::new());
        let (children, popups) = {
            let rec = &self.widgets[&w.0];
            (rec.children.clone(), rec.popups.clone())
        };
        for c in popups {
            self.destroy_subtree(c);
        }
        for c in children {
            self.destroy_subtree(c);
        }
        let ops = self.widgets[&w.0].class.ops.clone();
        ops.destroy(self, w);
        let rec = self.widgets.remove(&w.0).unwrap();
        let mut tracked = WIDGET_OVERHEAD;
        tracked += rec
            .resources
            .values()
            .map(ResourceValue::tracked_size)
            .sum::<usize>();
        tracked += rec
            .constraints
            .values()
            .map(ResourceValue::tracked_size)
            .sum::<usize>();
        self.memstats.free(tracked);
        self.telemetry.count("xt.widget.destroys");
        self.telemetry.event("widget.destroy", || {
            format!("{} {}", rec.name, rec.class.name)
        });
        self.by_name.remove(&rec.name);
        if let Some(p) = rec.parent {
            if let Some(prec) = self.widgets.get_mut(&p.0) {
                prec.children.retain(|&c| c != w);
                prec.popups.retain(|&c| c != w);
            }
        }
        if let Some(win) = rec.window {
            self.window_map.remove(&(rec.display_idx, win));
            // Destroy the window only if an ancestor's window teardown
            // has not already taken it.
            self.displays[rec.display_idx].destroy_window(win);
        }
    }

    /// Looks up a widget by its Wafe name.
    pub fn lookup(&self, name: &str) -> Option<WidgetId> {
        self.by_name.get(name).copied()
    }

    /// The widget record (panics on stale id — internal use).
    pub fn widget(&self, w: WidgetId) -> &WidgetRec {
        &self.widgets[&w.0]
    }

    /// True if the id refers to a live widget.
    pub fn is_alive(&self, w: WidgetId) -> bool {
        self.widgets.contains_key(&w.0)
    }

    /// Mutable widget record.
    pub fn widget_mut(&mut self, w: WidgetId) -> &mut WidgetRec {
        self.widgets.get_mut(&w.0).unwrap()
    }

    /// Number of live widgets.
    pub fn widget_count(&self) -> usize {
        self.widgets.len()
    }

    /// Names of all live widgets, sorted.
    pub fn widget_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.by_name.keys().cloned().collect();
        v.sort();
        v
    }

    /// Live widgets in creation order. Ids are allocated monotonically
    /// and never reused, so id order *is* creation order — parents
    /// always precede their children, which is what lets the session
    /// checkpoint rebuild the tree by replaying creation records.
    pub fn widgets_in_creation_order(&self) -> Vec<WidgetId> {
        let mut ids: Vec<u32> = self.widgets.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().map(WidgetId).collect()
    }

    /// The `(resource, value)` creation arguments that rebuild this
    /// widget's current resource state: every class (and parent
    /// constraint) resource whose display string differs from its
    /// default *and* converts back to an equal value. Resources whose
    /// display form is not re-convertible (resolved fonts, decoded
    /// pixmaps, merged translation tables) are skipped — the checkpoint
    /// only records what it can prove it can restore.
    pub fn snapshot_init_pairs(&self, w: WidgetId) -> Vec<(String, String)> {
        let rec = &self.widgets[&w.0];
        let fonts = &self.displays[rec.display_idx].fonts;
        let ctx = ConvertCtx { fonts };
        let mut pairs = Vec::new();
        {
            let mut consider = |spec: &crate::resource::ResourceSpec,
                                value: Option<&ResourceValue>| {
                let Some(value) = value else { return };
                let text = value.to_display_string();
                if text == spec.default {
                    return;
                }
                if let Ok(back) = self.converters.convert(spec.ty, &text, &ctx) {
                    if back.to_display_string() == text {
                        pairs.push((spec.name.to_string(), text));
                    }
                }
            };
            for spec in &rec.class.resources {
                if spec.name == "translations" {
                    continue; // A merged table, not re-settable text.
                }
                consider(spec, rec.resources.get(spec.name));
            }
            if let Some(p) = rec.parent {
                for spec in &self.widgets[&p.0].class.constraint_resources {
                    consider(spec, rec.constraints.get(spec.name));
                }
            }
        }
        pairs
    }

    /// The shell at the root of a widget's tree.
    pub fn root_of(&self, mut w: WidgetId) -> WidgetId {
        while let Some(p) = self.widgets[&w.0].parent {
            w = p;
        }
        w
    }

    /// The instance name path and class path from the root down to `w`.
    pub fn widget_path(&self, w: WidgetId) -> (Vec<String>, Vec<String>) {
        let mut names = Vec::new();
        let mut classes = Vec::new();
        let mut cur = Some(w);
        while let Some(c) = cur {
            let rec = &self.widgets[&c.0];
            names.push(rec.name.clone());
            classes.push(rec.class.name.clone());
            cur = rec.parent;
        }
        names.reverse();
        classes.reverse();
        (names, classes)
    }

    // ----- typed resource accessors (for widget implementations) ---------

    /// Reads a dimension resource (0 when absent).
    pub fn dim_resource(&self, w: WidgetId, name: &str) -> u32 {
        match self.widgets[&w.0].resources.get(name) {
            Some(ResourceValue::Dim(d)) => *d,
            Some(ResourceValue::Int(i)) => *i as u32,
            _ => 0,
        }
    }

    /// Reads a position resource (0 when absent).
    pub fn pos_resource(&self, w: WidgetId, name: &str) -> i32 {
        match self.widgets[&w.0].resources.get(name) {
            Some(ResourceValue::Pos(p)) => *p,
            Some(ResourceValue::Int(i)) => *i as i32,
            _ => 0,
        }
    }

    /// Reads a string resource (empty when absent).
    pub fn str_resource(&self, w: WidgetId, name: &str) -> String {
        match self.widgets[&w.0].resources.get(name) {
            Some(ResourceValue::Str(s)) => s.clone(),
            Some(other) => other.to_display_string(),
            None => String::new(),
        }
    }

    /// Reads a boolean resource (false when absent).
    pub fn bool_resource(&self, w: WidgetId, name: &str) -> bool {
        matches!(
            self.widgets[&w.0].resources.get(name),
            Some(ResourceValue::Bool(true))
        )
    }

    /// Reads a pixel resource (black when absent).
    pub fn pixel_resource(&self, w: WidgetId, name: &str) -> Pixel {
        match self.widgets[&w.0].resources.get(name) {
            Some(ResourceValue::Pixel(p)) => *p,
            _ => 0,
        }
    }

    /// Reads a font resource (the default font when absent).
    pub fn font_resource(&self, w: WidgetId, name: &str) -> FontId {
        match self.widgets[&w.0].resources.get(name) {
            Some(ResourceValue::Font(f)) => *f,
            _ => self.displays[self.widgets[&w.0].display_idx]
                .fonts
                .default_font(),
        }
    }

    /// Reads class-private instance state.
    pub fn state(&self, w: WidgetId, key: &str) -> String {
        self.widgets[&w.0]
            .state
            .get(key)
            .cloned()
            .unwrap_or_default()
    }

    /// Writes class-private instance state.
    pub fn set_state(&mut self, w: WidgetId, key: &str, value: impl Into<String>) {
        self.widgets
            .get_mut(&w.0)
            .unwrap()
            .state
            .insert(key.to_string(), value.into());
    }

    /// The font database of the widget's display.
    pub fn fonts_of(&self, w: WidgetId) -> &FontDb {
        &self.displays[self.widgets[&w.0].display_idx].fonts
    }

    /// Writes a typed resource directly (no conversion, no hooks) —
    /// used by layout code for geometry fields.
    pub fn put_resource(&mut self, w: WidgetId, name: &'static str, value: ResourceValue) {
        let rec = self.widgets.get_mut(&w.0).unwrap();
        let old = rec.resources.insert(name, value);
        let newsz = rec.resources[name].tracked_size();
        if let Some(o) = old {
            self.memstats.free(o.tracked_size());
        }
        self.memstats.alloc(newsz);
    }

    /// Writes a constraint resource directly.
    pub fn put_constraint(&mut self, w: WidgetId, name: &'static str, value: ResourceValue) {
        let rec = self.widgets.get_mut(&w.0).unwrap();
        let old = rec.constraints.insert(name, value);
        let newsz = rec.constraints[name].tracked_size();
        if let Some(o) = old {
            self.memstats.free(o.tracked_size());
        }
        self.memstats.alloc(newsz);
    }

    /// Reads a constraint resource.
    pub fn constraint(&self, w: WidgetId, name: &str) -> Option<&ResourceValue> {
        self.widgets[&w.0].constraints.get(name)
    }

    // ----- setValues / getValues ------------------------------------------

    /// `XtSetValues` for one resource, from its string form.
    pub fn set_resource(&mut self, w: WidgetId, name: &str, text: &str) -> Result<(), XtError> {
        self.set_values(w, [(name, text)])
    }

    /// `XtSetValues`: sets resources from their string forms, then
    /// settles the screen once, as one Xt call does.
    ///
    /// Each value frees the old one's tracked memory (the paper's memory
    /// management discipline), is converted and stored, and the class's
    /// `set_values` reacts. On a realized widget the change is marked:
    /// a non-geometry resource of a leaf redraws that widget;
    /// `x`/`y`/`width`/`height`/`borderWidth` or a constraint re-lays
    /// out the parent; any resource of a composite re-lays out its
    /// subtree; `sensitive` redraws the subtree. If a value fails to
    /// convert, the ones already stored are still settled before the
    /// error returns.
    pub fn set_values<'a>(
        &mut self,
        w: WidgetId,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<(), XtError> {
        let mut result = Ok(());
        for (name, text) in pairs {
            result = self.store_value(w, name, text);
            if result.is_err() {
                break;
            }
        }
        self.settle();
        result
    }

    /// Converts and stores one resource, runs the class hook and marks
    /// what the change needs; settling is left to the caller.
    fn store_value(&mut self, w: WidgetId, name: &str, text: &str) -> Result<(), XtError> {
        let rec = self
            .widgets
            .get(&w.0)
            .ok_or_else(|| XtError::UnknownWidget(format!("#{}", w.0)))?;
        let class = rec.class.clone();
        let display_idx = rec.display_idx;
        let (ty, key, is_constraint) = if let Some(spec) = class.resource(name) {
            (spec.ty, spec.name, false)
        } else if let Some(pspec) = rec
            .parent
            .and_then(|p| self.widgets[&p.0].class.constraint(name).cloned())
        {
            (pspec.ty, pspec.name, true)
        } else {
            return Err(XtError::NoSuchResource {
                widget: rec.name.clone(),
                resource: name.to_string(),
            });
        };
        let fonts = &self.displays[display_idx].fonts;
        let value = self
            .converters
            .convert(ty, text, &ConvertCtx { fonts })
            .map_err(|message| XtError::Conversion {
                resource: name.to_string(),
                message,
            })?;
        if is_constraint {
            self.put_constraint(w, key, value);
        } else {
            if key == "translations" {
                if let ResourceValue::Translations(t) = &value {
                    self.widgets.get_mut(&w.0).unwrap().translations = t.clone();
                }
            }
            self.put_resource(w, key, value);
        }
        let needs = class.ops.clone().set_values(self, w, &[name.to_string()]);
        if needs.geometry || is_constraint || GEOMETRY_RESOURCES.contains(&key) {
            self.mark(w, Mark::Geometry);
        }
        if class.is_composite {
            self.mark(w, Mark::Layout);
        }
        if key == "sensitive" {
            self.mark(w, Mark::RedrawTree);
        } else if needs.redisplay {
            self.mark(w, Mark::Redraw);
        }
        Ok(())
    }

    /// `XtGetValues` (extended): the display-string form of a resource or
    /// constraint — the paper notes Wafe can read back even callback
    /// resources.
    pub fn get_resource_string(&self, w: WidgetId, name: &str) -> Result<String, XtError> {
        let rec = self
            .widgets
            .get(&w.0)
            .ok_or_else(|| XtError::UnknownWidget(format!("#{}", w.0)))?;
        if name == "translations" {
            return Ok(rec.translations.to_display_string());
        }
        if let Some(v) = rec.resources.get(name) {
            return Ok(v.to_display_string());
        }
        if let Some(v) = rec.constraints.get(name) {
            return Ok(v.to_display_string());
        }
        Err(XtError::NoSuchResource {
            widget: rec.name.clone(),
            resource: name.to_string(),
        })
    }

    /// Merges a translation table into a widget (`XtOverrideTranslations`
    /// and friends — the Wafe `action` command).
    pub fn merge_translations(&mut self, w: WidgetId, table: TranslationTable, mode: MergeMode) {
        let rec = self.widgets.get_mut(&w.0).unwrap();
        rec.translations.merge(table, mode);
    }

    /// `XtInstallAccelerators`: events arriving at `dest` that match
    /// `src`'s `accelerators` resource run `src`'s actions.
    pub fn install_accelerators(&mut self, dest: WidgetId, src: WidgetId) {
        let table = match self.widgets[&src.0].resources.get("accelerators") {
            Some(ResourceValue::Translations(t)) if !t.entries.is_empty() => t.clone(),
            _ => return,
        };
        self.widgets
            .get_mut(&dest.0)
            .unwrap()
            .accelerators_installed
            .push((table, src));
    }

    /// `XtInstallAllAccelerators`: installs the accelerators of every
    /// widget in `root`'s subtree onto `dest`.
    pub fn install_all_accelerators(&mut self, dest: WidgetId, root: WidgetId) {
        let mut stack = vec![root];
        while let Some(w) = stack.pop() {
            self.install_accelerators(dest, w);
            stack.extend(self.widgets[&w.0].children.iter().copied());
            stack.extend(self.widgets[&w.0].popups.iter().copied());
        }
    }

    // ----- geometry and realize -------------------------------------------

    /// Runs the size pass (bottom-up preferred sizes) and layout pass
    /// (top-down placement) over a tree.
    pub fn do_layout(&mut self, w: WidgetId) {
        self.size_pass(w);
        self.place_pass(w);
    }

    fn size_pass(&mut self, w: WidgetId) {
        let children = self.widgets[&w.0].children.clone();
        for c in children {
            self.size_pass(c);
        }
        let (width, height) = (
            self.dim_resource(w, "width"),
            self.dim_resource(w, "height"),
        );
        if width != 0 && height != 0 {
            return; // Sizes are sticky: only a zero size asks the class.
        }
        let ops = self.widgets[&w.0].class.ops.clone();
        let (pw, ph) = ops.preferred_size(self, w);
        if width == 0 {
            self.put_resource(w, "width", ResourceValue::Dim(pw));
        }
        if height == 0 {
            self.put_resource(w, "height", ResourceValue::Dim(ph));
        }
    }

    fn place_pass(&mut self, w: WidgetId) {
        let ops = self.widgets[&w.0].class.ops.clone();
        ops.layout(self, w);
        let children = self.widgets[&w.0].children.clone();
        for c in children {
            self.place_pass(c);
        }
    }

    /// `XtRealizeWidget`: computes layout, creates windows for the whole
    /// tree, maps managed widgets and paints.
    pub fn realize(&mut self, w: WidgetId) {
        if self.widgets[&w.0].realized {
            return;
        }
        self.do_layout(w);
        let display_idx = self.widgets[&w.0].display_idx;
        let root_win = self.displays[display_idx].root();
        self.create_windows(w, root_win);
        self.redisplay_tree(w);
        self.displays[display_idx].flush();
    }

    /// True if a widget has been realized.
    pub fn is_realized(&self, w: WidgetId) -> bool {
        self.widgets.get(&w.0).map(|r| r.realized).unwrap_or(false)
    }

    fn create_windows(&mut self, w: WidgetId, parent_window: WindowId) {
        let (rect, border, background, display_idx, managed, mapped_when_managed) = {
            let rec = &self.widgets[&w.0];
            (
                Rect::new(
                    self.pos_resource(w, "x"),
                    self.pos_resource(w, "y"),
                    self.dim_resource(w, "width").max(1),
                    self.dim_resource(w, "height").max(1),
                ),
                self.dim_resource(w, "borderWidth"),
                self.pixel_resource(w, "background"),
                rec.display_idx,
                rec.managed,
                self.bool_resource(w, "mappedWhenManaged"),
            )
        };
        let win = self.displays[display_idx].create_window(
            parent_window,
            WindowAttributes {
                rect,
                border_width: border,
                background,
                override_redirect: false,
            },
        );
        {
            let rec = self.widgets.get_mut(&w.0).unwrap();
            rec.window = Some(win);
            rec.realized = true;
        }
        self.window_map.insert((display_idx, win), w);
        if managed && mapped_when_managed {
            self.displays[display_idx].map_window(win);
        }
        let children = self.widgets[&w.0].children.clone();
        for c in children {
            self.create_windows(c, win);
        }
    }

    /// Pushes resource geometry down to the live windows of a subtree
    /// after a layout.
    pub fn sync_geometry(&mut self, w: WidgetId) {
        self.sync_window(w);
        let children = self.widgets[&w.0].children.clone();
        for c in children {
            self.sync_geometry(c);
        }
    }

    /// Pushes one widget's geometry and attributes to its window. The
    /// display ignores unchanged values, so a no-op costs no damage.
    fn sync_window(&mut self, w: WidgetId) {
        let rec = &self.widgets[&w.0];
        let display_idx = rec.display_idx;
        if let Some(win) = rec.window {
            let rect = Rect::new(
                self.pos_resource(w, "x"),
                self.pos_resource(w, "y"),
                self.dim_resource(w, "width").max(1),
                self.dim_resource(w, "height").max(1),
            );
            let bg = self.pixel_resource(w, "background");
            let bc = self.pixel_resource(w, "borderColor");
            let bw = self.dim_resource(w, "borderWidth");
            self.displays[display_idx].configure_window(win, rect);
            self.displays[display_idx].set_window_attrs(win, Some(bg), Some(bc), Some(bw));
        }
    }

    /// Recomputes the retained drawing of a whole tree; returns how many
    /// widgets it redrew.
    pub fn redisplay_tree(&mut self, w: WidgetId) -> usize {
        self.redisplay_widget(w);
        let children = self.widgets[&w.0].children.clone();
        let mut n = 1;
        for c in children {
            n += self.redisplay_tree(c);
        }
        n
    }

    /// Recomputes one widget's retained drawing.
    pub fn redisplay_widget(&mut self, w: WidgetId) {
        let rec = &self.widgets[&w.0];
        let (win, display_idx) = match rec.window {
            Some(win) => (win, rec.display_idx),
            None => return,
        };
        let ops = rec.class.ops.clone();
        let list = ops.redisplay(self, w);
        self.displays[display_idx].set_display_list(win, list);
    }

    /// Manages a child (maps it if realized) and relayouts the parent.
    pub fn manage_child(&mut self, w: WidgetId) {
        self.widgets.get_mut(&w.0).unwrap().managed = true;
        let rec = &self.widgets[&w.0];
        if let (Some(win), true) = (rec.window, self.bool_resource(w, "mappedWhenManaged")) {
            let di = rec.display_idx;
            self.displays[di].map_window(win);
        }
        self.mark(w, Mark::Geometry);
        self.settle();
    }

    /// Unmanages a child (unmaps it if realized) and relayouts the
    /// parent.
    pub fn unmanage_child(&mut self, w: WidgetId) {
        self.widgets.get_mut(&w.0).unwrap().managed = false;
        let rec = &self.widgets[&w.0];
        if let Some(win) = rec.window {
            let di = rec.display_idx;
            self.displays[di].unmap_window(win);
        }
        self.mark(w, Mark::Geometry);
        self.settle();
    }

    /// `XtMoveWidget`: places a widget's window without a layout pass.
    pub fn move_widget(&mut self, w: WidgetId, x: i32, y: i32) {
        self.put_resource(w, "x", ResourceValue::Pos(x));
        self.put_resource(w, "y", ResourceValue::Pos(y));
        self.mark(w, Mark::Sync);
        self.settle();
    }

    /// `XtResizeWidget`: sets a widget's size and border width; its
    /// parent re-lays it out.
    pub fn resize_widget(&mut self, w: WidgetId, width: u32, height: u32, border: u32) {
        self.put_resource(w, "width", ResourceValue::Dim(width));
        self.put_resource(w, "height", ResourceValue::Dim(height));
        self.put_resource(w, "borderWidth", ResourceValue::Dim(border));
        self.mark(w, Mark::Geometry);
        self.settle();
    }

    // ----- incremental settle ---------------------------------------------

    /// Marks a realized widget's drawing stale (its window attributes
    /// are re-synced too); the next [`Self::settle`] redraws it.
    pub fn mark_redisplay(&mut self, w: WidgetId) {
        self.mark(w, Mark::Redraw);
    }

    /// Marks a realized widget's subtree for re-layout (a composite's
    /// own resources or scroll state changed); [`Self::settle`] lays it
    /// out, then its parent too if its own geometry moved.
    pub fn mark_layout(&mut self, w: WidgetId) {
        self.mark(w, Mark::Layout);
    }

    fn mark(&mut self, w: WidgetId, mark: Mark) {
        if self.widgets.get(&w.0).is_some_and(|r| r.realized) {
            self.dirty.push((w, mark));
        }
    }

    /// Brings the screen up to date with every marked change, touching
    /// only what changed: the mark-then-settle of retained-mode
    /// toolkits (`needs_layout` / `needs_redraw`).
    ///
    /// 1. Layout runs only where requested: at the parent of a widget
    ///    whose geometry changed or that is zero-sized (a whole-tree size
    ///    pass would ask it for its preferred size again), and at a
    ///    composite whose resources changed. It walks up while a
    ///    laid-out widget's own geometry moves.
    /// 2. Widgets created into a realized parent get their windows.
    /// 3. Windows of laid-out subtrees and of marked widgets are synced;
    ///    resized windows get their redisplay through the `Expose`
    ///    events `configure_window` queues.
    /// 4. Laid-out subtrees and marked widgets are redisplayed.
    /// 5. Each touched display is flushed once.
    ///
    /// Steps 3 and 4 run in tree preorder, the order of the whole-tree
    /// `sync_geometry` and `redisplay_tree` walks, so the damage and
    /// events are those a whole-tree resync would produce.
    pub fn settle(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let marks = std::mem::take(&mut self.dirty);
        let mut layout = Vec::new();
        let mut realize = Vec::new();
        let mut sync = Vec::new();
        let mut redraw = Vec::new();
        let mut displays = Vec::new();
        for (w, mark) in marks {
            let Some(rec) = self.widgets.get(&w.0) else {
                continue;
            };
            if !displays.contains(&rec.display_idx) {
                displays.push(rec.display_idx);
            }
            match mark {
                Mark::Layout => layout.push(w),
                Mark::Geometry | Mark::Realize => layout.push(self.layout_parent(w)),
                Mark::Sync => sync.push((w, false)),
                Mark::Redraw | Mark::RedrawTree => {
                    sync.push((w, false));
                    redraw.push((w, mark == Mark::RedrawTree));
                }
            }
            let zero_sized =
                self.dim_resource(w, "width") == 0 || self.dim_resource(w, "height") == 0;
            if mark == Mark::Realize {
                realize.push(w);
            } else if zero_sized && mark != Mark::Sync {
                // A whole-tree size pass re-measures a zero-sized widget
                // on every run, so any change to it may resize it. (A
                // move never ran that pass.)
                layout.push(self.layout_parent(w));
            }
        }
        let laid_out = self.settle_layout(layout);
        let n_laid_out: usize = laid_out.iter().map(|&l| self.subtree_len(l)).sum();
        for w in realize {
            let rec = &self.widgets[&w.0];
            if let Some(p) = rec.parent.filter(|_| !rec.realized) {
                if let Some(pwin) = self.widgets[&p.0].window {
                    self.create_windows(w, pwin);
                }
            }
        }
        for &l in &laid_out {
            sync.push((l, true));
            redraw.push((l, true));
        }
        for (w, subtree) in self.in_preorder(sync) {
            if subtree {
                self.sync_geometry(w);
            } else {
                self.sync_window(w);
            }
        }
        let mut n_redrawn = 0;
        for (w, subtree) in self.in_preorder(redraw) {
            if subtree {
                n_redrawn += self.redisplay_tree(w);
            } else {
                self.redisplay_widget(w);
                n_redrawn += 1;
            }
        }
        self.telemetry.add("xt.settle.laid_out", n_laid_out as u64);
        self.telemetry.add("xt.settle.redrawn", n_redrawn as u64);
        for di in displays {
            self.displays[di].flush();
        }
    }

    /// The widget that lays `w` out: its parent, unless `w` is a shell
    /// at the top of its own window tree (a root or a popup).
    fn layout_parent(&self, w: WidgetId) -> WidgetId {
        match self.widgets[&w.0].parent {
            Some(p) if self.widgets[&p.0].children.contains(&w) => p,
            _ => w,
        }
    }

    /// Runs `do_layout` at each requested widget, shallowest first,
    /// skipping requests inside a subtree already laid out, and walks up
    /// to the parent while a laid-out widget's own geometry changed.
    /// Returns the roots of the laid-out subtrees.
    fn settle_layout(&mut self, mut pending: Vec<WidgetId>) -> Vec<WidgetId> {
        let mut done: Vec<WidgetId> = Vec::new();
        pending.retain(|w| self.is_realized(*w));
        pending.sort_by_key(|&w| std::cmp::Reverse(self.depth(w)));
        while let Some(l) = pending.pop() {
            if done.iter().any(|&d| self.is_ancestor_or_self(d, l)) {
                continue;
            }
            let before = self.geometry(l);
            self.do_layout(l);
            done.retain(|&d| !self.is_ancestor_or_self(l, d));
            done.push(l);
            if self.geometry(l) != before {
                let p = self.layout_parent(l);
                if p != l {
                    pending.push(p);
                }
            }
        }
        done
    }

    fn geometry(&self, w: WidgetId) -> (i32, i32, u32, u32, u32) {
        (
            self.pos_resource(w, "x"),
            self.pos_resource(w, "y"),
            self.dim_resource(w, "width"),
            self.dim_resource(w, "height"),
            self.dim_resource(w, "borderWidth"),
        )
    }

    fn depth(&self, mut w: WidgetId) -> usize {
        let mut d = 0;
        while let Some(p) = self.widgets[&w.0].parent {
            w = p;
            d += 1;
        }
        d
    }

    fn is_ancestor_or_self(&self, anc: WidgetId, mut w: WidgetId) -> bool {
        loop {
            if w == anc {
                return true;
            }
            match self.widgets[&w.0].parent {
                Some(p) => w = p,
                None => return false,
            }
        }
    }

    fn subtree_len(&self, w: WidgetId) -> usize {
        1 + self.widgets[&w.0]
            .children
            .iter()
            .map(|&c| self.subtree_len(c))
            .sum::<usize>()
    }

    /// Orders `(widget, whole subtree?)` items as a preorder walk of
    /// their trees visits them, dropping duplicates and items inside a
    /// listed subtree.
    fn in_preorder(&self, items: Vec<(WidgetId, bool)>) -> Vec<(WidgetId, bool)> {
        if items.len() < 2 {
            return items;
        }
        let mut keyed: Vec<(Vec<usize>, WidgetId, bool)> = items
            .into_iter()
            .map(|(w, subtree)| (self.preorder_key(w), w, subtree))
            .collect();
        // A subtree item sorts before a single item for the same widget.
        keyed.sort_by(|a, b| a.0.cmp(&b.0).then(b.2.cmp(&a.2)));
        let mut out: Vec<(WidgetId, bool)> = Vec::new();
        let mut covering: Option<Vec<usize>> = None;
        let mut last: Option<&Vec<usize>> = None;
        for (key, w, subtree) in &keyed {
            if covering.as_ref().is_some_and(|c| key.starts_with(c)) || last == Some(key) {
                continue;
            }
            if *subtree {
                covering = Some(key.clone());
            }
            last = Some(key);
            out.push((*w, *subtree));
        }
        out
    }

    /// A widget's place in a preorder walk: its root's id, then its
    /// index among its parent's children at each level (popups after
    /// children).
    fn preorder_key(&self, mut w: WidgetId) -> Vec<usize> {
        let mut key = Vec::new();
        while let Some(p) = self.widgets[&w.0].parent {
            let prec = &self.widgets[&p.0];
            let idx = match prec.children.iter().position(|&c| c == w) {
                Some(i) => i,
                None => prec.children.len() + prec.popups.iter().position(|&c| c == w).unwrap_or(0),
            };
            key.push(idx);
            w = p;
        }
        key.push(w.0 as usize);
        key.reverse();
        key
    }

    // ----- popups -----------------------------------------------------------

    /// Registers `shell` as a popup child of `parent` (shells created
    /// with a widget parent become popups, like `XtCreatePopupShell`).
    pub fn add_popup(&mut self, parent: WidgetId, shell: WidgetId) {
        self.widgets.get_mut(&parent.0).unwrap().popups.push(shell);
        // Popup shells are not normal children for layout purposes.
        self.widgets
            .get_mut(&parent.0)
            .unwrap()
            .children
            .retain(|&c| c != shell);
        self.widgets.get_mut(&shell.0).unwrap().parent = Some(parent);
    }

    /// `XtPopup`: realizes the shell if needed, maps and raises it and
    /// installs the grab.
    pub fn popup(&mut self, shell: WidgetId, grab: GrabKind) {
        let display_idx = self.widgets[&shell.0].display_idx;
        if !self.widgets[&shell.0].realized {
            self.do_layout(shell);
            let root_win = self.displays[display_idx].root();
            self.create_windows_popup(shell, root_win);
            self.redisplay_tree(shell);
        }
        let win = self.widgets[&shell.0].window.unwrap();
        self.displays[display_idx].map_window(win);
        self.displays[display_idx].raise_window(win);
        self.displays[display_idx].add_grab(win, grab);
        self.widgets.get_mut(&shell.0).unwrap().popped_up = true;
        self.displays[display_idx].flush();
    }

    fn create_windows_popup(&mut self, w: WidgetId, root_win: WindowId) {
        // Like create_windows but the shell itself maps only on popup.
        let saved_managed = self.widgets[&w.0].managed;
        self.widgets.get_mut(&w.0).unwrap().managed = false;
        self.create_windows(w, root_win);
        self.widgets.get_mut(&w.0).unwrap().managed = saved_managed;
    }

    /// `XtPopdown`: unmaps the shell and releases its grab.
    pub fn popdown(&mut self, shell: WidgetId) {
        let rec = &self.widgets[&shell.0];
        let display_idx = rec.display_idx;
        if let Some(win) = rec.window {
            self.displays[display_idx].remove_grab(win);
            self.displays[display_idx].unmap_window(win);
        }
        self.widgets.get_mut(&shell.0).unwrap().popped_up = false;
        self.displays[display_idx].flush();
    }

    /// True if the shell is currently popped up.
    pub fn is_popped_up(&self, shell: WidgetId) -> bool {
        self.widgets
            .get(&shell.0)
            .map(|r| r.popped_up)
            .unwrap_or(false)
    }

    // ----- callbacks -----------------------------------------------------------

    /// `XtCallCallbacks`: runs a widget's callback list. Scripts become
    /// host calls; predefined callbacks execute natively.
    pub fn call_callbacks(&mut self, w: WidgetId, resource: &str, data: HashMap<char, String>) {
        let rec = match self.widgets.get(&w.0) {
            Some(r) => r,
            None => return,
        };
        let items = match rec.resources.get(resource) {
            Some(ResourceValue::Callback(items)) => items.clone(),
            _ => return,
        };
        let widget_name = rec.name.clone();
        for item in items {
            match item {
                CallbackItem::Script(script) => {
                    self.host_calls.push_back(HostCall {
                        widget: w,
                        widget_name: widget_name.clone(),
                        script,
                        event: None,
                        data: data.clone(),
                        kind: HostCallKind::Callback(resource.to_string()),
                    });
                }
                CallbackItem::Predefined { kind, shell } => {
                    self.run_predefined(w, kind, &shell);
                }
            }
        }
    }

    /// Executes one of the paper's predefined callbacks against a named
    /// shell.
    pub fn run_predefined(&mut self, invoking: WidgetId, kind: PredefinedCallback, shell: &str) {
        let shell_id = match self.lookup(shell) {
            Some(s) => s,
            None => {
                self.warnings
                    .push(format!("predefined callback: no shell named \"{shell}\""));
                return;
            }
        };
        match kind {
            PredefinedCallback::None => self.popup(shell_id, GrabKind::None),
            PredefinedCallback::Exclusive => self.popup(shell_id, GrabKind::Exclusive),
            PredefinedCallback::Nonexclusive => self.popup(shell_id, GrabKind::Nonexclusive),
            PredefinedCallback::Popdown => self.popdown(shell_id),
            PredefinedCallback::Position => {
                // Under the invoking widget.
                let di = self.widgets[&invoking.0].display_idx;
                if let Some(win) = self.widgets[&invoking.0].window {
                    let abs = self.displays[di].abs_rect(win);
                    self.put_resource(shell_id, "x", ResourceValue::Pos(abs.x));
                    self.put_resource(shell_id, "y", ResourceValue::Pos(abs.y + abs.h as i32));
                }
                self.popup(shell_id, GrabKind::None);
            }
            PredefinedCallback::PositionCursor => {
                let di = self.widgets[&invoking.0].display_idx;
                let p = self.displays[di].pointer();
                self.put_resource(shell_id, "x", ResourceValue::Pos(p.x));
                self.put_resource(shell_id, "y", ResourceValue::Pos(p.y));
                self.popup(shell_id, GrabKind::None);
            }
        }
    }

    /// Queues a host call directly (used by the global `exec` action).
    pub fn queue_host_call(&mut self, call: HostCall) {
        self.telemetry.count("xt.hostcalls.queued");
        self.host_calls.push_back(call);
    }

    /// Takes all pending host calls for the embedding to execute.
    pub fn take_host_calls(&mut self) -> Vec<HostCall> {
        self.host_calls.drain(..).collect()
    }

    /// Number of queued host calls.
    pub fn pending_host_calls(&self) -> usize {
        self.host_calls.len()
    }

    // ----- event dispatch ---------------------------------------------------

    /// Processes every pending event on every display; returns how many
    /// were dispatched.
    pub fn dispatch_pending(&mut self) -> usize {
        let mut n = 0;
        for di in 0..self.displays.len() {
            while let Some(e) = self.displays[di].next_event() {
                self.dispatch_event(di, e);
                n += 1;
            }
        }
        if n > 0 {
            self.telemetry.add("xt.events.dispatched", n as u64);
        }
        n
    }

    fn dispatch_event(&mut self, display_idx: usize, event: Event) {
        let w = match self.window_map.get(&(display_idx, event.window)) {
            Some(w) => *w,
            None => return,
        };
        if !self.widgets.contains_key(&w.0) {
            return;
        }
        match event.kind {
            EventKind::Expose => {
                self.redisplay_widget(w);
                self.displays[display_idx].flush();
            }
            EventKind::ConfigureNotify => {
                // Keep x/y resources in sync with the server.
                self.put_resource(w, "x", ResourceValue::Pos(event.x));
                self.put_resource(w, "y", ResourceValue::Pos(event.y));
            }
            EventKind::MapNotify
            | EventKind::UnmapNotify
            | EventKind::DestroyNotify
            | EventKind::ClientMessage => {}
            _ => {
                if !self.is_sensitive(w) {
                    return;
                }
                let actions = self.widgets[&w.0]
                    .translations
                    .lookup(&event)
                    .map(|a| a.to_vec());
                if let Some(actions) = actions {
                    for (name, args) in actions {
                        self.run_action(w, &name, &args, &event);
                    }
                    return;
                }
                // Accelerators: the event matches here, but the actions
                // run on the source widget (`XtInstallAccelerators`).
                let accel = self.widgets[&w.0]
                    .accelerators_installed
                    .iter()
                    .find_map(|(table, src)| table.lookup(&event).map(|a| (a.to_vec(), *src)));
                if let Some((actions, src)) = accel {
                    if self.widgets.contains_key(&src.0) && self.is_sensitive(src) {
                        for (name, args) in actions {
                            self.run_action(src, &name, &args, &event);
                        }
                    }
                }
            }
        }
    }

    /// True if the widget and all its ancestors are sensitive.
    pub fn is_sensitive(&self, w: WidgetId) -> bool {
        let mut cur = Some(w);
        while let Some(c) = cur {
            if !self.bool_resource(c, "sensitive") {
                return false;
            }
            cur = self.widgets[&c.0].parent;
        }
        true
    }

    /// Runs a named action: widget-class table first, then the global
    /// table, else a warning (Xt's "can't find action" warning).
    pub fn run_action(&mut self, w: WidgetId, name: &str, args: &[String], event: &Event) {
        let class_action = self.widgets[&w.0].class.actions.get(name);
        if let Some(f) = class_action {
            f(self, w, event, args);
            return;
        }
        if let Some(f) = self.global_actions.get(name) {
            f(self, w, event, args);
            return;
        }
        self.warnings.push(format!(
            "Xt warning: could not find action procedure \"{name}\" for widget \"{}\"",
            self.widgets[&w.0].name
        ));
    }

    /// Drains accumulated warnings.
    pub fn take_warnings(&mut self) -> Vec<String> {
        std::mem::take(&mut self.warnings)
    }

    /// Adds a warning (used by embedding layers).
    pub fn warn(&mut self, message: impl Into<String>) {
        self.warnings.push(message.into());
    }

    /// The widget owning a window, if any.
    pub fn widget_for_window(&self, display_idx: usize, win: WindowId) -> Option<WidgetId> {
        self.window_map.get(&(display_idx, win)).copied()
    }
}

impl Default for XtApp {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::widget::core_class;

    fn app_with_core() -> XtApp {
        let mut app = XtApp::new();
        app.register_class(core_class("Shell", true, true));
        app.register_class(core_class("Core", false, false));
        app.register_class(core_class("Box", false, true));
        app
    }

    fn mk(app: &mut XtApp, name: &str, class: &str, parent: Option<WidgetId>) -> WidgetId {
        app.create_widget(name, class, parent, 0, &[], true)
            .unwrap()
    }

    #[test]
    fn create_and_lookup() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let c = mk(&mut app, "child", "Core", Some(top));
        assert_eq!(app.lookup("top"), Some(top));
        assert_eq!(app.lookup("child"), Some(c));
        assert_eq!(app.widget(c).parent, Some(top));
        assert_eq!(app.widget(top).children, vec![c]);
        assert_eq!(app.widget_count(), 2);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut app = app_with_core();
        mk(&mut app, "top", "Shell", None);
        let e = app
            .create_widget("top", "Shell", None, 0, &[], true)
            .unwrap_err();
        assert_eq!(e, XtError::DuplicateName("top".into()));
    }

    #[test]
    fn unknown_class_rejected() {
        let mut app = app_with_core();
        let e = app
            .create_widget("x", "Nope", None, 0, &[], true)
            .unwrap_err();
        assert_eq!(e, XtError::UnknownClass("Nope".into()));
    }

    #[test]
    fn children_of_leaf_rejected() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let leaf = mk(&mut app, "leaf", "Core", Some(top));
        let e = app
            .create_widget("sub", "Core", Some(leaf), 0, &[], true)
            .unwrap_err();
        assert_eq!(e, XtError::NotComposite("leaf".into()));
    }

    #[test]
    fn init_args_override_defaults() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let w = app
            .create_widget(
                "w",
                "Core",
                Some(top),
                0,
                &[
                    ("background".into(), "red".into()),
                    ("width".into(), "123".into()),
                ],
                true,
            )
            .unwrap();
        assert_eq!(app.pixel_resource(w, "background"), 0xff0000);
        assert_eq!(app.dim_resource(w, "width"), 123);
    }

    #[test]
    fn bad_init_arg_is_error() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let e = app
            .create_widget(
                "w",
                "Core",
                Some(top),
                0,
                &[("width".into(), "wide".into())],
                true,
            )
            .unwrap_err();
        assert!(matches!(e, XtError::Conversion { .. }));
    }

    #[test]
    fn resource_db_precedence() {
        let mut app = app_with_core();
        app.resource_db.insert("*background", "blue");
        let top = mk(&mut app, "top", "Shell", None);
        let a = mk(&mut app, "a", "Core", Some(top));
        assert_eq!(app.pixel_resource(a, "background"), 0x0000ff);
        // Explicit argument still wins over the database.
        let b = app
            .create_widget(
                "b",
                "Core",
                Some(top),
                0,
                &[("background".into(), "red".into())],
                true,
            )
            .unwrap();
        assert_eq!(app.pixel_resource(b, "background"), 0xff0000);
    }

    #[test]
    fn bad_db_value_warns_and_uses_default() {
        let mut app = app_with_core();
        app.resource_db.insert("*background", "nocolorofthisname");
        let top = mk(&mut app, "top", "Shell", None);
        let a = mk(&mut app, "a", "Core", Some(top));
        assert_eq!(app.pixel_resource(a, "background"), 0xffffff);
        assert!(!app.take_warnings().is_empty());
    }

    #[test]
    fn set_get_resource_roundtrip() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let w = mk(&mut app, "w", "Core", Some(top));
        app.set_resource(w, "background", "tomato").unwrap();
        assert_eq!(app.get_resource_string(w, "background").unwrap(), "#ff6347");
        assert!(app.set_resource(w, "nosuch", "x").is_err());
        assert!(app.get_resource_string(w, "nosuch").is_err());
    }

    #[test]
    fn memory_accounting_balances_on_destroy() {
        let mut app = app_with_core();
        let before = app.memstats.current();
        let top = mk(&mut app, "top", "Shell", None);
        for i in 0..10 {
            let w = mk(&mut app, &format!("w{i}"), "Core", Some(top));
            app.set_resource(w, "background", "red").unwrap();
        }
        assert!(app.memstats.current() > before);
        app.destroy_widget(top);
        assert_eq!(
            app.memstats.current(),
            before,
            "destroy must free all tracked memory"
        );
        assert_eq!(app.widget_count(), 0);
    }

    #[test]
    fn memory_update_frees_old_value() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let w = mk(&mut app, "w", "Core", Some(top));
        app.put_resource(w, "accel_dummy", ResourceValue::Str("0123456789".into()));
        let with_long = app.memstats.current();
        app.put_resource(w, "accel_dummy", ResourceValue::Str("x".into()));
        assert_eq!(app.memstats.current(), with_long - 9);
    }

    #[test]
    fn realize_creates_and_maps_windows() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let w = app
            .create_widget(
                "w",
                "Core",
                Some(top),
                0,
                &[
                    ("width".into(), "50".into()),
                    ("height".into(), "20".into()),
                ],
                true,
            )
            .unwrap();
        app.realize(top);
        assert!(app.is_realized(top));
        assert!(app.is_realized(w));
        let win = app.widget(w).window.unwrap();
        assert!(app.displays[0].is_viewable(win));
        assert_eq!(app.widget_for_window(0, win), Some(w));
    }

    #[test]
    fn unmanaged_widget_not_mapped() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let w = app
            .create_widget("w", "Core", Some(top), 0, &[], false)
            .unwrap();
        app.realize(top);
        let win = app.widget(w).window.unwrap();
        assert!(!app.displays[0].is_viewable(win));
        app.manage_child(w);
        assert!(app.displays[0].is_viewable(win));
        app.unmanage_child(w);
        assert!(!app.displays[0].is_viewable(win));
    }

    #[test]
    fn create_into_realized_tree() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        app.realize(top);
        let w = mk(&mut app, "late", "Core", Some(top));
        assert!(app.is_realized(w));
        assert!(app.displays[0].is_viewable(app.widget(w).window.unwrap()));
    }

    #[test]
    fn popup_popdown_with_grabs() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        app.realize(top);
        let shell = mk(&mut app, "menu", "Shell", None);
        let e = app
            .create_widget("entry", "Core", Some(shell), 0, &[], true)
            .unwrap();
        let _ = e;
        app.popup(shell, GrabKind::Exclusive);
        assert!(app.is_popped_up(shell));
        assert_eq!(app.displays[0].grab_depth(), 1);
        app.popdown(shell);
        assert!(!app.is_popped_up(shell));
        assert_eq!(app.displays[0].grab_depth(), 0);
    }

    #[test]
    fn predefined_callbacks_drive_popups() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let button = app
            .create_widget(
                "b",
                "Core",
                Some(top),
                0,
                &[
                    ("width".into(), "40".into()),
                    ("height".into(), "20".into()),
                ],
                true,
            )
            .unwrap();
        app.realize(top);
        let shell = mk(&mut app, "popup", "Shell", None);
        mk(&mut app, "inner", "Core", Some(shell));
        // none: up with no grab.
        app.run_predefined(button, PredefinedCallback::None, "popup");
        assert!(app.is_popped_up(shell));
        assert_eq!(app.displays[0].grab_depth(), 0);
        app.run_predefined(button, PredefinedCallback::Popdown, "popup");
        assert!(!app.is_popped_up(shell));
        // exclusive: up with grab.
        app.run_predefined(button, PredefinedCallback::Exclusive, "popup");
        assert_eq!(app.displays[0].grab_depth(), 1);
        app.run_predefined(button, PredefinedCallback::Popdown, "popup");
        // position: shell placed under the button.
        app.run_predefined(button, PredefinedCallback::Position, "popup");
        let by = app.pos_resource(shell, "y");
        assert!(by > 0, "shell should sit below the button, y={by}");
        app.run_predefined(button, PredefinedCallback::Popdown, "popup");
        // positionCursor: at the pointer.
        app.displays[0].inject_pointer_move(333, 222);
        app.dispatch_pending();
        app.run_predefined(button, PredefinedCallback::PositionCursor, "popup");
        assert_eq!(app.pos_resource(shell, "x"), 333);
        assert_eq!(app.pos_resource(shell, "y"), 222);
        // Unknown shell warns.
        app.run_predefined(button, PredefinedCallback::None, "ghost");
        assert!(!app.take_warnings().is_empty());
    }

    #[test]
    fn callbacks_queue_host_calls() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let w = mk(&mut app, "w", "Core", Some(top));
        app.put_resource(
            w,
            "destroyCallback",
            ResourceValue::Callback(vec![CallbackItem::Script("echo bye %w".into())]),
        );
        app.call_callbacks(w, "destroyCallback", HashMap::new());
        let calls = app.take_host_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].script, "echo bye %w");
        assert_eq!(calls[0].widget_name, "w");
        assert_eq!(
            calls[0].kind,
            HostCallKind::Callback("destroyCallback".into())
        );
    }

    #[test]
    fn destroy_fires_destroy_callback() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let w = mk(&mut app, "w", "Core", Some(top));
        app.set_resource(w, "destroyCallback", "echo destroyed")
            .unwrap();
        app.destroy_widget(w);
        let calls = app.take_host_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].script, "echo destroyed");
        assert!(app.lookup("w").is_none());
    }

    #[test]
    fn translations_drive_actions() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let w = app
            .create_widget(
                "w",
                "Core",
                Some(top),
                0,
                &[
                    ("width".into(), "100".into()),
                    ("height".into(), "100".into()),
                    ("translations".into(), "<Btn1Down>: ring()".into()),
                ],
                true,
            )
            .unwrap();
        let fired = Rc::new(std::cell::Cell::new(0));
        let f2 = fired.clone();
        app.add_global_action("ring", move |_, _, _, _| {
            f2.set(f2.get() + 1);
        });
        app.realize(top);
        app.dispatch_pending();
        let win = app.widget(w).window.unwrap();
        let abs = app.displays[0].abs_rect(win);
        app.displays[0].inject_click(abs.x + 5, abs.y + 5, 1);
        app.dispatch_pending();
        assert_eq!(fired.get(), 1);
        // Button 2 does not match.
        app.displays[0].inject_click(abs.x + 5, abs.y + 5, 2);
        app.dispatch_pending();
        assert_eq!(fired.get(), 1);
    }

    #[test]
    fn insensitive_widget_ignores_events() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let w = app
            .create_widget(
                "w",
                "Core",
                Some(top),
                0,
                &[
                    ("width".into(), "100".into()),
                    ("height".into(), "100".into()),
                    ("translations".into(), "<Btn1Down>: ring()".into()),
                ],
                true,
            )
            .unwrap();
        let fired = Rc::new(std::cell::Cell::new(0));
        let f2 = fired.clone();
        app.add_global_action("ring", move |_, _, _, _| f2.set(f2.get() + 1));
        app.realize(top);
        app.dispatch_pending();
        app.set_resource(w, "sensitive", "false").unwrap();
        let win = app.widget(w).window.unwrap();
        let abs = app.displays[0].abs_rect(win);
        app.displays[0].inject_click(abs.x + 5, abs.y + 5, 1);
        app.dispatch_pending();
        assert_eq!(fired.get(), 0);
        // Parent insensitivity also blocks (ancestorSensitive).
        app.set_resource(w, "sensitive", "true").unwrap();
        app.set_resource(top, "sensitive", "false").unwrap();
        app.displays[0].inject_click(abs.x + 5, abs.y + 5, 1);
        app.dispatch_pending();
        assert_eq!(fired.get(), 0);
    }

    #[test]
    fn unknown_action_warns() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let w = app
            .create_widget(
                "w",
                "Core",
                Some(top),
                0,
                &[
                    ("width".into(), "50".into()),
                    ("height".into(), "50".into()),
                    ("translations".into(), "<Btn1Down>: missing()".into()),
                ],
                true,
            )
            .unwrap();
        app.realize(top);
        app.dispatch_pending();
        let abs = app.displays[0].abs_rect(app.widget(w).window.unwrap());
        app.displays[0].inject_click(abs.x + 2, abs.y + 2, 1);
        app.dispatch_pending();
        let warnings = app.take_warnings();
        assert!(warnings.iter().any(|m| m.contains("missing")));
    }

    #[test]
    fn get_resource_list_matches_class() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let w = mk(&mut app, "w", "Core", Some(top));
        let list = app.get_resource_list(w);
        assert_eq!(list.len(), 18);
        assert_eq!(list[0], "destroyCallback");
    }

    #[test]
    fn widget_path_for_xrm() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let b = mk(&mut app, "box", "Box", Some(top));
        let l = mk(&mut app, "leaf", "Core", Some(b));
        let (names, classes) = app.widget_path(l);
        assert_eq!(names, vec!["top", "box", "leaf"]);
        assert_eq!(classes, vec!["Shell", "Box", "Core"]);
    }

    #[test]
    fn second_display_widgets() {
        let mut app = app_with_core();
        let di = app.open_display("dec4:0");
        let top2 = app
            .create_widget("top2", "Shell", None, di, &[], true)
            .unwrap();
        let c = mk(&mut app, "c", "Core", Some(top2));
        assert_eq!(app.widget(c).display_idx, di);
        app.realize(top2);
        assert!(app.displays[di].is_viewable(app.widget(c).window.unwrap()));
        assert_eq!(app.displays[0].window_count(), 1); // only its root
    }

    #[test]
    fn merge_translations_override() {
        let mut app = app_with_core();
        let top = mk(&mut app, "top", "Shell", None);
        let w = mk(&mut app, "w", "Core", Some(top));
        let t = TranslationTable::parse("<Key>q: quitaction()").unwrap();
        app.merge_translations(w, t, MergeMode::Override);
        assert!(app.widget(w).translations.entries.len() == 1);
        let t2 = TranslationTable::parse("<Key>w: other()").unwrap();
        app.merge_translations(w, t2, MergeMode::Augment);
        assert_eq!(app.widget(w).translations.entries.len(), 2);
    }
}
