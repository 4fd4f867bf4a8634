//! The toolkit image: everything about a session that depends only on
//! the flavour, built once per flavour and per thread and shared by
//! `Rc` between sessions.
//!
//! Xt initialises a widget class record once per process
//! (`XtInitializeWidgetClass`); only widget instances belong to an
//! application. The image is that split for Wafe: it holds the class
//! records, the converters and global actions, the parsed
//! specification, and the command table — Tcl built-ins, widget-creation
//! commands, spec-generated and hand-written commands. A
//! [`WafeSession`](crate::WafeSession) then builds only instance state:
//! the widget tree with `topLevel`, the resource database, the
//! interpreter's frames and caches, and its control handlers.
//!
//! The image's commands capture nothing per session. They reach their
//! session through the interpreter's context slot
//! ([`Interp::context`], holding the session's `SessionCtx`). `proc` and `rename`
//! in one session write that interpreter's own command table, so they
//! never show in another session.
//!
//! The image is derived only from compiled-in specification text and
//! the flavour, so it is never part of a snapshot.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use wafe_tcl::error::wrong_num_args;
use wafe_tcl::{CommandBase, Interp, TclError};
use wafe_trace::Telemetry;
use wafe_xproto::GrabKind;
use wafe_xt::app::HostCallKind;
use wafe_xt::{XtApp, XtError};

use crate::natives::{native_registry, NativeFn, NativeValue};
use crate::session::{Flavor, SessionCtx};
use crate::session::{EXT_SPEC, MOTIF_SPEC, SHELLS_SPEC, XAW_SPEC, XT_SPEC};
use crate::spec::{parse_spec, ClassSpec, CommandSpec, SpecFile, SpecType};

/// The immutable, per-flavour half of a Wafe session.
pub struct ToolkitImage {
    /// The flavour the image was built for.
    pub flavor: Flavor,
    /// An application context with no widgets whose class records,
    /// converters and global actions every session shares
    /// ([`XtApp::sharing_toolkit`]).
    toolkit: XtApp,
    spec: SpecFile,
    commands: Rc<CommandBase>,
    handwritten: usize,
    warnings: Vec<String>,
}

thread_local! {
    static IMAGES: RefCell<Vec<Rc<ToolkitImage>>> = const { RefCell::new(Vec::new()) };
}

impl ToolkitImage {
    /// The calling thread's image for `flavor`, built on first use.
    pub fn shared(flavor: Flavor) -> Rc<ToolkitImage> {
        if let Some(image) =
            IMAGES.with(|m| m.borrow().iter().find(|i| i.flavor == flavor).cloned())
        {
            return image;
        }
        let image = Rc::new(ToolkitImage::build(flavor));
        IMAGES.with(|m| m.borrow_mut().push(image.clone()));
        image
    }

    /// Builds an image from scratch: registers the widget classes,
    /// converters and the global `exec` action, parses the
    /// specification files and builds the command table.
    pub fn build(flavor: Flavor) -> ToolkitImage {
        let mut toolkit = XtApp::new();
        match flavor {
            Flavor::Athena => wafe_xaw::register_all(&mut toolkit),
            Flavor::Motif => {
                wafe_xaw::shell::register(&mut toolkit);
                wafe_motif::register_all(&mut toolkit);
            }
            Flavor::Both => {
                wafe_xaw::register_all(&mut toolkit);
                wafe_motif::register_all(&mut toolkit);
            }
        }
        if flavor != Flavor::Athena {
            // The mofe flavour installs the XmString compound converter.
            toolkit.add_converter(wafe_xt::ResType::Compound, |s, _| {
                Ok(wafe_xt::ResourceValue::Compound(
                    wafe_motif::parse_xmstring(s),
                ))
            });
        }
        // The global `exec` action: "Wafe registers a global action exec
        // which accepts any Wafe command as argument."
        toolkit.add_global_action("exec", |app, w, event, args| {
            let widget_name = app.widget(w).name.clone();
            app.queue_host_call(wafe_xt::HostCall {
                widget: w,
                widget_name,
                script: args.join(" "),
                event: Some(event.clone()),
                data: HashMap::new(),
                kind: HostCallKind::Action,
            });
        });

        let spec = load_specs(flavor);
        let mut interp = Interp::new();
        let mut warnings = Vec::new();
        for cs in &spec.classes {
            register_class_command(&mut interp, cs);
        }
        let natives = native_registry();
        for cs in &spec.commands {
            match natives.get(cs.c_name.as_str()) {
                Some(native) => register_spec_command(&mut interp, cs, native.clone()),
                None => warnings.push(format!("spec command {} has no native handler", cs.c_name)),
            }
        }
        let before = interp.command_names().len();
        crate::commands::register_handwritten(&mut interp);
        let handwritten = interp.command_names().len() - before;
        ToolkitImage {
            flavor,
            toolkit,
            spec,
            commands: interp.freeze_commands(),
            handwritten,
            warnings,
        }
    }

    /// A fresh application context sharing the image's class records,
    /// converters and global actions, carrying the image's warnings and
    /// counting into the session's `telemetry`.
    pub(crate) fn new_app(&self, telemetry: Telemetry) -> XtApp {
        let mut app = self.toolkit.sharing_toolkit(telemetry);
        for w in &self.warnings {
            app.warn(w.clone());
        }
        app
    }

    /// The shared command table.
    pub fn commands(&self) -> &Rc<CommandBase> {
        &self.commands
    }

    /// The parsed specification.
    pub fn spec(&self) -> &SpecFile {
        &self.spec
    }

    /// `(generated, handwritten)` command counts.
    pub fn command_stats(&self) -> (usize, usize) {
        (self.spec.generated_count(), self.handwritten)
    }
}

fn load_specs(flavor: Flavor) -> SpecFile {
    let mut spec = parse_spec(XT_SPEC).expect("xt.wspec must parse");
    spec.extend(parse_spec(SHELLS_SPEC).expect("shells.wspec must parse"));
    spec.extend(parse_spec(EXT_SPEC).expect("ext.wspec must parse"));
    match flavor {
        Flavor::Athena => spec.extend(parse_spec(XAW_SPEC).expect("xaw.wspec must parse")),
        Flavor::Motif => spec.extend(parse_spec(MOTIF_SPEC).expect("motif.wspec must parse")),
        Flavor::Both => {
            spec.extend(parse_spec(XAW_SPEC).expect("xaw.wspec must parse"));
            spec.extend(parse_spec(MOTIF_SPEC).expect("motif.wspec must parse"));
        }
    }
    spec
}

/// Registers a widget-creation command from a `~widgetClass` block.
fn register_class_command(interp: &mut Interp, cs: &ClassSpec) {
    let class_name = cs.class.clone();
    let usage = format!(
        "{} name father ?unmanaged? ?resource value ...?",
        cs.command
    );
    interp.register(&cs.command, move |interp, argv| {
        if argv.len() < 3 {
            return Err(wrong_num_args(&usage));
        }
        let name = argv[1].clone();
        let father = &argv[2];
        let mut rest = &argv[3..];
        let mut managed = true;
        if rest.first().map(|s| s == "unmanaged").unwrap_or(false) {
            managed = false;
            rest = &rest[1..];
        }
        if rest.len() % 2 != 0 {
            return Err(TclError::error(
                "resource arguments must come in attribute value pairs",
            ));
        }
        let init: Vec<(String, String)> = rest
            .chunks(2)
            .map(|c| (c[0].to_string(), c[1].to_string()))
            .collect();
        let cx = SessionCtx::of(interp)?;
        let mut app = cx.app.borrow_mut();
        let class = app.class(&class_name).ok_or_else(|| {
            TclError::Error(format!(
                "widget class \"{class_name}\" not available in this Wafe binary"
            ))
        })?;
        let father_id = app.lookup(father);
        let created = match father_id {
            Some(f) if class.is_shell => {
                // A shell with a widget father is a popup shell.
                let di = app.widget(f).display_idx;
                match app.create_widget(&name, &class_name, None, di, &init, managed) {
                    Ok(id) => {
                        app.add_popup(f, id);
                        Ok(id)
                    }
                    Err(e) => Err(e),
                }
            }
            Some(f) => app.create_widget(&name, &class_name, Some(f), 0, &init, managed),
            None if class.is_shell => {
                // "applicationShell top2 dec4:0": the father names a
                // display instead of a widget.
                let di = app
                    .displays
                    .iter()
                    .position(|d| d.name == *father)
                    .unwrap_or_else(|| app.open_display(father));
                app.create_widget(&name, &class_name, None, di, &init, managed)
            }
            None => Err(XtError::UnknownWidget(father.to_string())),
        };
        created
            .map(|_| name)
            .map_err(|e| TclError::Error(e.to_string()))
    });
}

/// Registers a function command from a spec block, wrapping the native
/// handler with generated argument conversion.
fn register_spec_command(interp: &mut Interp, cs: &CommandSpec, native: NativeFn) {
    let inputs = cs.inputs.clone();
    let outputs = cs.outputs.clone();
    let usage = {
        let args: Vec<String> = inputs
            .iter()
            .map(|t| format!("{t:?}").to_lowercase())
            .chain(outputs.iter().map(|_| "varName".to_string()))
            .collect();
        format!("{} {}", cs.command, args.join(" "))
    };
    interp.register(&cs.command, move |interp, argv| {
        let expected = 1 + inputs.len() + outputs.len();
        if argv.len() != expected {
            return Err(wrong_num_args(&usage));
        }
        let cx = SessionCtx::of(interp)?;
        let mut vals: Vec<NativeValue> = Vec::with_capacity(inputs.len() + outputs.len());
        {
            let app = cx.app.borrow();
            for (i, ty) in inputs.iter().enumerate() {
                vals.push(convert_arg(&app, *ty, &argv[1 + i])?);
            }
        }
        for (j, _) in outputs.iter().enumerate() {
            vals.push(NativeValue::Var(argv[1 + inputs.len() + j].to_string()));
        }
        let mut app = cx.app.borrow_mut();
        native(interp, &mut app, &vals)
    });
}

/// Converts one Tcl argument per the spec type.
fn convert_arg(app: &XtApp, ty: SpecType, text: &str) -> Result<NativeValue, TclError> {
    match ty {
        SpecType::Widget => app
            .lookup(text)
            .map(NativeValue::Widget)
            .ok_or_else(|| TclError::Error(format!("unknown widget \"{text}\""))),
        SpecType::Boolean => match text.to_lowercase().as_str() {
            "true" | "yes" | "on" | "1" => Ok(NativeValue::Bool(true)),
            "false" | "no" | "off" | "0" => Ok(NativeValue::Bool(false)),
            _ => Err(TclError::Error(format!(
                "expected boolean but got \"{text}\""
            ))),
        },
        SpecType::Int | SpecType::Cardinal | SpecType::Position | SpecType::Dimension => text
            .trim()
            .parse::<i64>()
            .map(NativeValue::Int)
            .map_err(|_| TclError::Error(format!("expected integer but got \"{text}\""))),
        SpecType::String => Ok(NativeValue::Str(text.to_string())),
        SpecType::GrabKind => match text {
            "none" => Ok(NativeValue::Grab(GrabKind::None)),
            "exclusive" => Ok(NativeValue::Grab(GrabKind::Exclusive)),
            "nonexclusive" => Ok(NativeValue::Grab(GrabKind::Nonexclusive)),
            _ => Err(TclError::Error(format!(
                "expected none, exclusive, or nonexclusive but got \"{text}\""
            ))),
        },
        SpecType::VarName => Ok(NativeValue::Var(text.to_string())),
        SpecType::Void => Err(TclError::error("void is not an argument type")),
    }
}
