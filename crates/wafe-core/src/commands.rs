//! Hand-written Wafe commands (the 40% the code generator does not
//! produce): `setValues`/`sV`, `getValues`/`gV`, `mergeResources`,
//! `action`, `callback`, `realize`, `quit`, `snapshot`, timeouts,
//! `processEvents`, channel configuration and statistics.

use wafe_tcl::error::wrong_num_args;
use wafe_tcl::{Metric, TclError, Value};
use wafe_xproto::geometry::Rect;
use wafe_xt::callback::{CallbackItem, PredefinedCallback};
use wafe_xt::resource::ResourceValue;
use wafe_xt::translation::{MergeMode, TranslationTable};

use wafe_tcl::Interp;

use crate::session::{pump, SessionCtx, Timer};

/// Registers every hand-written command into `interp` (the toolkit
/// image's command table; see [`crate::image`]).
pub fn register_handwritten(interp: &mut Interp) {
    register_set_values(interp);
    register_get_values(interp);
    register_merge_resources(interp);
    register_load_resource_file(interp);
    register_action(interp);
    register_callback(interp);
    register_realize(interp);
    register_quit(interp);
    register_snapshot(interp);
    register_snapshot_ppm(interp);
    register_timeouts(interp);
    register_work_procs(interp);
    register_process_events(interp);
    register_channel(interp);
    register_widget_tree(interp);
    register_stats(interp);
    register_telemetry(interp);
    register_backend_controls(interp);
}

/// `backend status|restart|kill|config|queue`, `faultpoint
/// set|clear|list`, `serve status|sessions|drain|limits`, `session
/// park|restore|snapshots` and `display attach|detach|frame|event|status`
/// — the embedder control surface. The embedding process (wafe-serve's
/// scheduler and frontend) registers the real commands on the session's
/// interpreter, shadowing these placeholders; in a plain session each
/// command reports which embedding it needs.
fn register_backend_controls(interp: &mut Interp) {
    for name in ["backend", "faultpoint", "serve", "session", "display"] {
        register_placeholder(interp, name);
    }
}

/// Puts back the placeholder of embedder command `name` (a no-op for
/// any other name): an embedder that was handed a command it does not
/// serve withdraws it this way.
pub fn register_placeholder(interp: &mut Interp, name: &str) {
    let absent = match name {
        "backend" | "faultpoint" => "requires frontend mode (no backend attached)",
        "serve" => "requires server mode (no waferd scheduler attached)",
        "session" => "requires server mode (no session registry attached)",
        "display" => "requires server mode (no display channel attached)",
        _ => return,
    };
    interp.register(name, move |_, argv| {
        Err(TclError::Error(format!("{} {absent}", argv[0])))
    });
}

/// The key-sorted `(key, value)` pairs behind `telemetry snapshot`,
/// `telemetry json` and the `serve metrics` exposition: the store's
/// pairs ([`wafe_trace::export::telemetry_pairs`]) plus the state read
/// live — the interpreter's cache sizes and the toolkit's memory totals.
pub fn session_snapshot_pairs(
    interp: &wafe_tcl::Interp,
    app_rc: &std::rc::Rc<std::cell::RefCell<wafe_xt::XtApp>>,
) -> Vec<(String, String)> {
    let mut pairs = wafe_trace::export::telemetry_pairs(interp.telemetry());
    let m = &app_rc.borrow().memstats;
    let mem = [
        (Metric::XtMemCurrent, m.current()),
        (Metric::XtMemPeak, m.peak()),
        (Metric::XtMemAllocs, m.alloc_count()),
        (Metric::XtMemFrees, m.free_count()),
        (Metric::XtMemOverfree, m.overfree_count()),
    ];
    for (k, v) in interp.cache_sizes().into_iter().chain(mem) {
        pairs.push((k.name().to_string(), v.to_string()));
    }
    // Deterministic contract: the output is key-sorted, so
    // tests can assert on it verbatim.
    pairs.sort();
    pairs
}

/// `telemetry snapshot|json|journal ?n?|histogram name|spans …|export
/// chrome path|reset|enable|disable|enabled` — the unified introspection
/// surface across the interpreter, the toolkit and the pipe protocol
/// (see `docs/telemetry.md`).
fn register_telemetry(interp: &mut Interp) {
    interp.register("telemetry", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        if argv.len() < 2 {
            return Err(wrong_num_args("telemetry option ?arg?"));
        }
        let tel = interp.telemetry().clone();
        match argv[1].as_str() {
            "snapshot" | "json" => {
                if argv.len() > 3 {
                    return Err(wrong_num_args(&format!("telemetry {} ?prefix?", argv[1])));
                }
                let prefix = argv.get(2).map(|v| v.to_string()).unwrap_or_default();
                let pairs = session_snapshot_pairs(interp, &cx.app)
                    .into_iter()
                    .filter(|(k, _)| k.starts_with(&prefix));
                if argv[1].as_str() == "snapshot" {
                    let words: Vec<String> = pairs.flat_map(|(k, v)| [k, v]).collect();
                    return Ok(Value::from(wafe_tcl::list_join(&words)));
                }
                // The same pairs as one JSON object. Every value is an
                // unsigned integer, so they are emitted bare; keys keep
                // their dotted form.
                let fields: Vec<String> = pairs
                    .map(|(k, v)| format!("{}:{v}", wafe_trace::export::json_string(&k)))
                    .collect();
                Ok(Value::from(format!("{{{}}}", fields.join(","))))
            }
            "journal" => {
                let n = match argv.len() {
                    2 => usize::MAX,
                    3 => argv[2].parse().map_err(|_| {
                        TclError::Error(format!("expected integer but got \"{}\"", argv[2]))
                    })?,
                    _ => return Err(wrong_num_args("telemetry journal ?n?")),
                };
                let entries: Vec<String> = tel
                    .journal_recent(n)
                    .into_iter()
                    .map(|e| {
                        wafe_tcl::list_join(&[
                            e.seq.to_string(),
                            e.at_us.to_string(),
                            e.kind.to_string(),
                            e.detail,
                        ])
                    })
                    .collect();
                Ok(Value::from(wafe_tcl::list_join(&entries)))
            }
            "histogram" => {
                if argv.len() != 3 {
                    return Err(wrong_num_args("telemetry histogram name"));
                }
                let h = Metric::from_name(&argv[2])
                    .and_then(|m| tel.histogram(m))
                    .ok_or_else(|| TclError::Error(format!("no histogram \"{}\"", argv[2])))?;
                let words: Vec<String> = [
                    ("count", h.count),
                    ("minNs", h.min_ns),
                    ("maxNs", h.max_ns),
                    ("p50Ns", h.p50_ns),
                    ("p90Ns", h.p90_ns),
                    ("p99Ns", h.p99_ns),
                    ("sumNs", h.sum_ns),
                ]
                .iter()
                .flat_map(|(k, v)| [k.to_string(), v.to_string()])
                .collect();
                Ok(Value::from(wafe_tcl::list_join(&words)))
            }
            "spans" => {
                if argv.len() != 3 {
                    return Err(wrong_num_args(
                        "telemetry spans on|off|enabled|tree|stats|clear",
                    ));
                }
                match argv[2].as_str() {
                    "on" => {
                        tel.set_spans_enabled(true);
                        Ok(Value::empty())
                    }
                    "off" => {
                        tel.set_spans_enabled(false);
                        Ok(Value::empty())
                    }
                    "enabled" => Ok(if tel.spans_enabled() { "1" } else { "0" }.into()),
                    "tree" => {
                        // The causal tree of every retained span. The
                        // spans of the command rendering the tree are
                        // still open, so they never show up in their
                        // own output — the render is deterministic.
                        let spans = tel.spans_recent(usize::MAX);
                        Ok(Value::from(
                            wafe_trace::span::render_tree(&spans)
                                .trim_end_matches('\n')
                                .to_string(),
                        ))
                    }
                    "stats" => {
                        let s = tel.span_stats();
                        let words: Vec<String> = [
                            ("retained", s.retained as u64),
                            ("total", s.total),
                            ("dropped", s.dropped),
                            ("capacity", s.capacity as u64),
                            ("open", s.open as u64),
                        ]
                        .iter()
                        .flat_map(|(k, v)| [k.to_string(), v.to_string()])
                        .collect();
                        Ok(Value::from(wafe_tcl::list_join(&words)))
                    }
                    "clear" => {
                        tel.spans_clear();
                        Ok(Value::empty())
                    }
                    bad => Err(TclError::Error(format!(
                        "bad spans option \"{bad}\": must be on, off, enabled, tree, stats, or clear"
                    ))),
                }
            }
            "export" => {
                // telemetry export chrome path — the retained span tree
                // as Chrome trace-event JSON, loadable in
                // chrome://tracing / Perfetto. Returns the span count.
                if argv.len() != 4 || argv[2].as_str() != "chrome" {
                    return Err(wrong_num_args("telemetry export chrome path"));
                }
                let spans = tel.spans_recent(usize::MAX);
                let json = wafe_trace::export::chrome_trace(&spans);
                std::fs::write(argv[3].as_str(), json).map_err(|e| {
                    TclError::Error(format!("cannot write \"{}\": {e}", argv[3]))
                })?;
                Ok(Value::from_int(spans.len() as i64))
            }
            "reset" => {
                if argv.len() != 2 {
                    return Err(wrong_num_args("telemetry reset"));
                }
                tel.reset();
                Ok(Value::empty())
            }
            "enable" => {
                if argv.len() != 2 {
                    return Err(wrong_num_args("telemetry enable"));
                }
                tel.set_enabled(true);
                Ok(Value::empty())
            }
            "disable" => {
                if argv.len() != 2 {
                    return Err(wrong_num_args("telemetry disable"));
                }
                tel.set_enabled(false);
                Ok(Value::empty())
            }
            "enabled" => {
                if argv.len() != 2 {
                    return Err(wrong_num_args("telemetry enabled"));
                }
                Ok(if tel.enabled() { "1" } else { "0" }.into())
            }
            other => Err(TclError::Error(format!(
                "bad option \"{other}\": must be snapshot, json, journal, histogram, spans, export, reset, enable, disable, or enabled"
            ))),
        }
    });
}

fn register_set_values(interp: &mut Interp) {
    let handler = |interp: &mut Interp, argv: &[Value]| {
        let cx = SessionCtx::of(interp)?;
        if argv.len() < 4 || !(argv.len() - 2).is_multiple_of(2) {
            return Err(wrong_num_args(
                "setValues widget resource value ?resource value ...?",
            ));
        }
        let mut app = cx.app.borrow_mut();
        let w = app
            .lookup(&argv[1])
            .ok_or_else(|| TclError::Error(format!("unknown widget \"{}\"", argv[1])))?;
        // One XtSetValues call: every pair is stored, then one settle.
        app.set_values(
            w,
            argv[2..]
                .chunks(2)
                .map(|pair| (pair[0].as_str(), pair[1].as_str())),
        )
        .map_err(|e| TclError::Error(e.to_string()))?;
        Ok(Value::empty())
    };
    // "For convenience the command setValues is registered as well under
    // the name sV."
    interp.register("setValues", handler);
    interp.register("sV", handler);
}

fn register_get_values(interp: &mut Interp) {
    let handler = |interp: &mut Interp, argv: &[Value]| {
        let cx = SessionCtx::of(interp)?;
        if argv.len() != 3 {
            return Err(wrong_num_args("getValue widget resource"));
        }
        let app = cx.app.borrow();
        let w = app
            .lookup(&argv[1])
            .ok_or_else(|| TclError::Error(format!("unknown widget \"{}\"", argv[1])))?;
        app.get_resource_string(w, &argv[2])
            .map(Value::from)
            .map_err(|e| TclError::Error(e.to_string()))
    };
    interp.register("getValue", handler);
    interp.register("getValues", handler);
    interp.register("gV", handler);
}

fn register_load_resource_file(interp: &mut Interp) {
    interp.register("loadResourceFile", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        // The resource-file mechanism: "Using a resource description
        // file, which is evaluated at startup time of the application."
        if argv.len() != 2 {
            return Err(wrong_num_args("loadResourceFile fileName"));
        }
        let text = std::fs::read_to_string(argv[1].as_str()).map_err(|e| {
            TclError::Error(format!("couldn't read resource file \"{}\": {e}", argv[1]))
        })?;
        let n = cx.app.borrow_mut().resource_db.merge_text(&text);
        Ok(Value::from_int(n as i64))
    });
}

fn register_merge_resources(interp: &mut Interp) {
    interp.register("mergeResources", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        if argv.len() < 3 || (argv.len() - 1) % 2 != 0 {
            return Err(wrong_num_args(
                "mergeResources resource value ?resource value ...?",
            ));
        }
        let mut app = cx.app.borrow_mut();
        for pair in argv[1..].chunks(2) {
            let line = format!("{}: {}", pair[0], pair[1]);
            if !app.resource_db.insert_line(&line) {
                return Err(TclError::Error(format!(
                    "malformed resource specification \"{}\"",
                    pair[0]
                )));
            }
        }
        Ok(Value::empty())
    });
}

fn register_action(interp: &mut Interp) {
    interp.register("action", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        if argv.len() < 4 {
            return Err(wrong_num_args(
                "action widget override|augment|replace translation ?translation ...?",
            ));
        }
        let mode = MergeMode::parse(&argv[2]).ok_or_else(|| {
            TclError::Error(format!(
                "bad mode \"{}\": must be override, augment, or replace",
                argv[2]
            ))
        })?;
        let table = TranslationTable::parse(&argv[3..].join("\n")).map_err(TclError::Error)?;
        let mut app = cx.app.borrow_mut();
        let w = app
            .lookup(&argv[1])
            .ok_or_else(|| TclError::Error(format!("unknown widget \"{}\"", argv[1])))?;
        app.merge_translations(w, table, mode);
        Ok(Value::empty())
    });
}

fn register_callback(interp: &mut Interp) {
    interp.register("callback", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        if argv.len() != 5 {
            return Err(wrong_num_args("callback widget resource function shell"));
        }
        let kind = PredefinedCallback::parse(&argv[3]).ok_or_else(|| {
            TclError::Error(format!(
                "bad predefined callback \"{}\": must be none, exclusive, nonexclusive, popdown, position, or positionCursor",
                argv[3]
            ))
        })?;
        let mut app = cx.app.borrow_mut();
        let w = app
            .lookup(&argv[1])
            .ok_or_else(|| TclError::Error(format!("unknown widget \"{}\"", argv[1])))?;
        let mut items = match app.widget(w).resource(&argv[2]) {
            Some(ResourceValue::Callback(items)) => items.clone(),
            Some(_) => {
                return Err(TclError::Error(format!(
                    "resource \"{}\" of \"{}\" is not a callback list",
                    argv[2], argv[1]
                )))
            }
            None => {
                return Err(TclError::Error(format!(
                    "widget \"{}\" has no resource \"{}\"",
                    argv[1], argv[2]
                )))
            }
        };
        items.push(CallbackItem::Predefined { kind, shell: argv[4].to_string() });
        // Resolve the static key through the class's resource spec.
        let key = app
            .widget(w)
            .class
            .resource(&argv[2])
            .map(|spec| spec.name)
            .expect("resource existence checked above");
        app.put_resource(w, key, ResourceValue::Callback(items));
        Ok(Value::empty())
    });
}

fn register_realize(interp: &mut Interp) {
    interp.register("realize", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        if argv.len() != 1 {
            return Err(wrong_num_args("realize"));
        }
        let shells: Vec<wafe_xt::WidgetId> = {
            let app = cx.app.borrow();
            app.widget_names()
                .iter()
                .filter_map(|n| app.lookup(n))
                .filter(|&w| {
                    let rec = app.widget(w);
                    rec.parent.is_none()
                        && matches!(
                            rec.class.name.as_str(),
                            "TopLevelShell" | "ApplicationShell"
                        )
                })
                .collect()
        };
        for s in shells {
            cx.app.borrow_mut().realize(s);
        }
        let ndisplays = cx.app.borrow().displays.len();
        for di in 0..ndisplays {
            cx.app.borrow_mut().displays[di].flush();
        }
        pump(interp, &cx.app, &cx.quit);
        Ok(Value::empty())
    });
}

fn register_quit(interp: &mut Interp) {
    interp.register("quit", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        if argv.len() != 1 {
            return Err(wrong_num_args("quit"));
        }
        cx.quit.set(true);
        Ok(Value::empty())
    });
}

fn register_snapshot(interp: &mut Interp) {
    interp.register("snapshot", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        // snapshot ?x y w h? ?displayIndex? — reproduction aid: the ASCII
        // figure of the current screen.
        let (rect, di) = match argv.len() {
            1 => (Rect::new(0, 0, 640, 400), 0usize),
            5 | 6 => {
                let p = |s: &Value| {
                    s.parse::<i64>()
                        .map_err(|_| TclError::Error(format!("expected integer but got \"{s}\"")))
                };
                let rect = Rect::new(
                    p(&argv[1])? as i32,
                    p(&argv[2])? as i32,
                    p(&argv[3])?.max(1) as u32,
                    p(&argv[4])?.max(1) as u32,
                );
                let di = argv.get(5).map(p).transpose()?.unwrap_or(0) as usize;
                (rect, di)
            }
            _ => return Err(wrong_num_args("snapshot ?x y width height? ?display?")),
        };
        let mut app = cx.app.borrow_mut();
        if di >= app.displays.len() {
            return Err(TclError::Error(format!("no display {di}")));
        }
        app.displays[di].flush();
        Ok(Value::from(app.displays[di].snapshot_ascii(rect)))
    });
}

fn register_snapshot_ppm(interp: &mut Interp) {
    interp.register("snapshotPpm", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        // snapshotPpm fileName ?displayIndex? — writes a real PPM image
        // of the composited screen (the reproduction's figure files).
        if argv.len() != 2 && argv.len() != 3 {
            return Err(wrong_num_args("snapshotPpm fileName ?display?"));
        }
        let di: usize = argv
            .get(2)
            .map(|s| s.parse())
            .transpose()
            .map_err(|_| TclError::Error(format!("expected integer but got \"{}\"", argv[2])))?
            .unwrap_or(0);
        let mut app = cx.app.borrow_mut();
        if di >= app.displays.len() {
            return Err(TclError::Error(format!("no display {di}")));
        }
        app.displays[di].flush();
        let mut file = std::fs::File::create(argv[1].as_str())
            .map_err(|e| TclError::Error(format!("cannot create \"{}\": {e}", argv[1])))?;
        app.displays[di]
            .framebuffer()
            .write_ppm(&mut file)
            .map_err(|e| TclError::Error(format!("cannot write \"{}\": {e}", argv[1])))?;
        Ok(Value::empty())
    });
}

fn register_timeouts(interp: &mut Interp) {
    interp.register("addTimeOut", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        if argv.len() != 3 {
            return Err(wrong_num_args("addTimeOut milliseconds script"));
        }
        let ms: u64 = argv[1]
            .parse()
            .map_err(|_| TclError::Error(format!("expected integer but got \"{}\"", argv[1])))?;
        cx.timers.borrow_mut().push(Timer {
            deadline_ms: cx.clock_ms.get() + ms,
            script: argv[2].to_string(),
        });
        Ok(Value::empty())
    });

    interp.register("advanceTime", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        if argv.len() != 2 {
            return Err(wrong_num_args("advanceTime milliseconds"));
        }
        let ms: u64 = argv[1]
            .parse()
            .map_err(|_| TclError::Error(format!("expected integer but got \"{}\"", argv[1])))?;
        let target = cx.clock_ms.get() + ms;
        loop {
            let next = {
                let t = cx.timers.borrow();
                t.iter()
                    .enumerate()
                    .filter(|(_, t)| t.deadline_ms <= target)
                    .min_by_key(|(_, t)| t.deadline_ms)
                    .map(|(i, t)| (i, t.deadline_ms))
            };
            match next {
                Some((i, deadline)) => {
                    let t = cx.timers.borrow_mut().remove(i);
                    cx.clock_ms.set(deadline);
                    let _ = interp.eval(&t.script);
                    pump(interp, &cx.app, &cx.quit);
                }
                None => break,
            }
        }
        cx.clock_ms.set(target);
        Ok(Value::empty())
    });
}

fn register_work_procs(interp: &mut Interp) {
    interp.register("addWorkProc", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        // XtAppAddWorkProc: the script runs whenever the loop is idle; a
        // true result removes it (like returning True from C).
        if argv.len() != 2 {
            return Err(wrong_num_args("addWorkProc script"));
        }
        let id = cx.next_work_id.get();
        cx.next_work_id.set(id + 1);
        cx.work_procs.borrow_mut().push((id, argv[1].to_string()));
        Ok(Value::from_int(id as i64))
    });

    interp.register("removeWorkProc", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        if argv.len() != 2 {
            return Err(wrong_num_args("removeWorkProc id"));
        }
        let id: u64 = argv[1]
            .parse()
            .map_err(|_| TclError::Error(format!("expected integer but got \"{}\"", argv[1])))?;
        let before = cx.work_procs.borrow().len();
        cx.work_procs.borrow_mut().retain(|(i, _)| *i != id);
        Ok(Value::from(if cx.work_procs.borrow().len() < before {
            "1"
        } else {
            "0"
        }))
    });
}

fn register_process_events(interp: &mut Interp) {
    interp.register("processEvents", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        if argv.len() != 1 {
            return Err(wrong_num_args("processEvents"));
        }
        pump(interp, &cx.app, &cx.quit);
        Ok(Value::empty())
    });
}

fn register_channel(interp: &mut Interp) {
    interp.register("getChannel", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        if argv.len() != 1 {
            return Err(wrong_num_args("getChannel"));
        }
        Ok(Value::from(cx.channel_fd.get().to_string()))
    });

    interp.register("setCommunicationVariable", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        if argv.len() != 4 {
            return Err(wrong_num_args(
                "setCommunicationVariable varName byteCount script",
            ));
        }
        let bytes: usize = argv[2]
            .parse()
            .map_err(|_| TclError::Error(format!("expected integer but got \"{}\"", argv[2])))?;
        *cx.comm_var.borrow_mut() = Some((argv[1].to_string(), bytes, argv[3].to_string()));
        Ok(Value::empty())
    });
}

fn register_widget_tree(interp: &mut Interp) {
    interp.register("widgetTree", |interp, argv| {
        let cx = SessionCtx::of(interp)?;
        // widgetTree ?root? — the widget hierarchy as a nested Tcl list:
        // {name class {children...}}. Introspection for design tools.
        if argv.len() > 2 {
            return Err(wrong_num_args("widgetTree ?root?"));
        }
        let app = cx.app.borrow();
        let root = match argv.get(1) {
            Some(name) => app
                .lookup(name)
                .ok_or_else(|| TclError::Error(format!("unknown widget \"{name}\"")))?,
            None => app
                .lookup("topLevel")
                .ok_or_else(|| TclError::error("no topLevel widget"))?,
        };
        fn describe(app: &wafe_xt::XtApp, w: wafe_xt::WidgetId) -> String {
            let rec = app.widget(w);
            let kids: Vec<String> = rec
                .children
                .iter()
                .chain(rec.popups.iter())
                .map(|&c| describe(app, c))
                .collect();
            wafe_tcl::list_join(&[
                rec.name.clone(),
                rec.class.name.clone(),
                wafe_tcl::list_join(&kids),
            ])
        }
        Ok(Value::from(describe(&app, root)))
    });
}

fn register_stats(interp: &mut Interp) {
    interp.register("wafeStats", |interp, argv| {
        if argv.len() != 1 {
            return Err(wrong_num_args("wafeStats"));
        }
        let (generated, handwritten) = SessionCtx::of(interp)?.image.command_stats();
        Ok(Value::from(format!(
            "generated {generated} handwritten {handwritten}"
        )))
    });

    interp.register("referenceGuide", |interp, argv| {
        if argv.len() != 1 {
            return Err(wrong_num_args("referenceGuide"));
        }
        Ok(Value::from(
            SessionCtx::of(interp)?.image.spec().reference_guide(),
        ))
    });
}
