//! The remote display channel: `display` control surface plus the
//! per-session frame pump the scheduler drives.
//!
//! A client opts in with `%display attach`; from then on every
//! scheduler sweep flushes the session's display and — when damage is
//! pending and the connection's frame slot is free — ships one
//! `!display frame <hex>` notice carrying an encoded
//! [`wafe_display::Frame`]. Input comes back as `%display event <hex>`
//! lines decoded into the display's synthetic injection API, so the
//! remote user's clicks and keys run the same translation machinery as
//! the paper's local ones.
//!
//! Backpressure is *coalesce-to-latest*: each connection has one
//! outbound frame slot, and while it holds an unsent frame no frame is
//! built — the damage keeps accumulating in the display's pending-frame
//! tracker and collapses into one bigger (at worst full-screen) frame
//! once the flush has taken the slot's frame. A slow client falls
//! behind in time, never in content, and memory stays bounded.

use std::cell::Cell;
use std::rc::Rc;

use wafe_core::WafeSession;
use wafe_display::{from_hex, hex_line, modifiers_from_mask, Frame, InputEvent};
use wafe_ipc::fault::truncate_line;
use wafe_ipc::{FaultAction, FaultPlan};
use wafe_tcl::{TclError, Value};

use wafe_trace::Metric;

/// Per-connection display-channel state, shared between the control
/// handler (which runs inside the interpreter) and the scheduler
/// (which pumps frames after the quantum). Survives a park/restore
/// engine swap the same way [`crate::SessionCtl`] does.
#[derive(Default)]
pub struct DisplayCtl {
    attached: Cell<bool>,
}

impl DisplayCtl {
    /// Whether a display client is attached to this connection.
    pub fn attached(&self) -> bool {
        self.attached.get()
    }
}

/// Registers the `display` command on one session's interpreter,
/// shadowing the toolkit image's placeholder.
pub fn install_display_control(ctl: &Rc<DisplayCtl>, session: &mut WafeSession) {
    let c = ctl.clone();
    let app = session.app.clone();
    let tel = session.telemetry.clone();
    session.interp.register("display", move |_, argv| {
        display_control(&c, &app, &tel, argv)
            .map(Value::from)
            .map_err(TclError::Error)
    });
}

fn display_control(
    ctl: &Rc<DisplayCtl>,
    app: &Rc<std::cell::RefCell<wafe_xt::XtApp>>,
    tel: &wafe_trace::Telemetry,
    argv: &[Value],
) -> Result<String, String> {
    const USAGE: &str = "display attach|detach|frame|status|event hexbytes";
    let mut app = app.borrow_mut();
    let d = app
        .displays
        .get_mut(0)
        .ok_or_else(|| "no display open".to_string())?;
    match argv.get(1).map(Value::as_str) {
        Some("attach") if argv.len() == 2 => {
            // Attach turns compositing on and schedules a full first
            // frame; the scheduler ships it on the next sweep.
            d.set_compositing(true);
            ctl.attached.set(true);
            tel.count(Metric::DisplayAttach);
            Ok(String::new())
        }
        Some("detach") if argv.len() == 2 => {
            d.set_compositing(false);
            ctl.attached.set(false);
            tel.count(Metric::DisplayDetach);
            Ok(String::new())
        }
        Some("frame") if argv.len() == 2 => {
            // Client-requested resync: the next shipped frame covers
            // the whole screen (the recovery path after it rejected a
            // corrupt frame).
            d.request_full_frame();
            tel.count(Metric::DisplayResync);
            Ok(String::new())
        }
        Some("status") if argv.len() == 2 => Ok(wafe_tcl::list_join(&[
            "attached".into(),
            (ctl.attached() as u8).to_string(),
            "seq".into(),
            d.frame_seq().to_string(),
            "pending".into(),
            (d.has_pending_frame() as u8).to_string(),
        ])),
        Some("event") if argv.len() == 3 => {
            let ev = from_hex(argv[2].as_str())
                .and_then(|bytes| InputEvent::decode(&bytes))
                .map_err(|e| {
                    // Loud rejection: counted, and the command errors
                    // (which the engine tallies as a protocol error) —
                    // never a silent best-effort injection.
                    tel.count(Metric::DisplayEventRejected);
                    format!("display event rejected: {e}")
                })?;
            tel.count(Metric::DisplayEvent);
            match ev {
                InputEvent::Key { name, modifiers } => {
                    d.inject_key_named(&name, modifiers_from_mask(modifiers));
                }
                InputEvent::Text { text } => d.inject_key_text(&text),
                InputEvent::Button {
                    button,
                    press,
                    x,
                    y,
                } => {
                    d.inject_pointer_move(x, y);
                    d.inject_button(button, press);
                }
                InputEvent::Motion { x, y } => d.inject_pointer_move(x, y),
                InputEvent::Resize { .. } => {
                    // The simulated screen is fixed-size; a viewport
                    // change just asks for a repaint at full coverage.
                    d.request_full_frame();
                }
            }
            Ok(String::new())
        }
        _ => Err(format!("wrong # args: should be \"{USAGE}\"")),
    }
}

/// Builds at most one frame for a session: flush the display, and if
/// damage is pending and the connection's frame `slot` is free, encode
/// the frame into it (consulting the `display` fault point on the way
/// out).
pub fn pump_frame(
    session: &WafeSession,
    ctl: &DisplayCtl,
    slot: &mut Option<String>,
    faults: &mut Option<FaultPlan>,
) {
    if !ctl.attached() {
        return;
    }
    let tel = session.telemetry.clone();
    let line = {
        let mut app = session.app.borrow_mut();
        let Some(d) = app.displays.get_mut(0) else {
            return;
        };
        d.flush();
        if !d.has_pending_frame() {
            return;
        }
        if slot.is_some() {
            // Backpressure: a frame is still unsent. Leave the damage
            // accumulating — it coalesces into the next frame.
            tel.count(Metric::DisplayFrameDeferred);
            return;
        }
        let damage = d.take_frame_damage();
        let seq = d.next_frame_seq();
        let frame = Frame::build(d.framebuffer(), &damage, seq);
        let bytes = frame.encode();
        tel.count(Metric::DisplayFrame);
        if frame.full {
            tel.count(Metric::DisplayFrameFull);
        }
        tel.add(Metric::DisplayFrameRects, frame.rects.len() as u64);
        // Byte sizes recorded as histogram samples: `telemetry
        // histogram display.frame.bytes` answers "how big are frames".
        tel.observe_ns(Metric::DisplayFrameBytes, bytes.len() as u64);
        hex_line("!display frame ", &bytes)
    };
    let mut line = line;
    if let Some(plan) = faults {
        for action in plan.fire("display") {
            match action {
                FaultAction::Drop | FaultAction::Wedge => {
                    tel.count(Metric::DisplayFaultDrop);
                    return;
                }
                FaultAction::Garble => {
                    tel.count(Metric::DisplayFaultGarble);
                    line = plan.garble_line(&line);
                }
                FaultAction::Truncate(n) => {
                    tel.count(Metric::DisplayFaultTruncate);
                    line = truncate_line(&line, n);
                }
                _ => {}
            }
        }
    }
    *slot = Some(line);
}
