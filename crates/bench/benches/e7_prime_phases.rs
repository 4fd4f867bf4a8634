//! E7 — Figure 5: the three phases of a frontend application, measured
//! with the protocol engine (deterministic; the real-process run lives in
//! `tests/frontend_prime.rs`).

use bench::{criterion_group, criterion_main, Criterion};
use wafe_core::Flavor;
use wafe_ipc::ProtocolEngine;
use wafe_tcl::Metric;

use bench::{banner, row};

const TREE_LINES: &[&str] = &[
    "%form top topLevel",
    "%asciiText input top editType edit width 200",
    "%action input override {<Key>Return: exec(echo [gV input string])}",
    "%label result top label {} width 200 fromVert input",
    "%command quit top fromVert result callback quit",
    "%label info top fromVert result fromHoriz quit label {} borderWidth 0 width 150",
    "%realize",
];

fn regenerate_figure() {
    banner(
        "E7",
        "Figure 5 — the three phases of a Wafe frontend application",
    );
    let mut e = ProtocolEngine::new(Flavor::Athena);
    let start = std::time::Instant::now();
    for line in TREE_LINES {
        e.handle_line(line).unwrap();
    }
    row(
        "phase 2 (widget tree, 7 protocol lines)",
        format!("{:?}", start.elapsed()),
    );
    // Phase 3: the read loop, one interaction.
    let start = std::time::Instant::now();
    {
        let mut app = e.session.app.borrow_mut();
        let input = app.lookup("input").unwrap();
        let win = app.widget(input).window.unwrap();
        app.displays[0].set_input_focus(Some(win));
        app.displays[0].inject_key_text("360\n");
    }
    e.session.pump();
    let sent = e.take_app_lines();
    assert_eq!(sent, vec!["360"]);
    e.handle_line("%sV result label {5*3*3*2*2*2}").unwrap();
    e.handle_line("%sV info label {0 seconds}").unwrap();
    row(
        "phase 3 (keypress -> answer applied)",
        format!("{:?}", start.elapsed()),
    );
    println!("{}", e.session.eval("snapshot 0 0 280 100").unwrap());
    let tel = &e.session.telemetry;
    row(
        "protocol lines interpreted",
        tel.value(Metric::IpcLinesInterpreted),
    );
    row(
        "protocol lines passed through",
        tel.value(Metric::IpcLinesPassthrough),
    );
}

fn bench(c: &mut Criterion) {
    regenerate_figure();
    let mut group = c.benchmark_group("e7_prime_phases");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.sample_size(20);
    group.bench_function("phase2_widget_tree", |b| {
        b.iter(|| {
            let mut e = ProtocolEngine::new(Flavor::Athena);
            for line in TREE_LINES {
                e.handle_line(std::hint::black_box(line)).unwrap();
            }
            e
        });
    });
    group.bench_function("phase3_interaction", |b| {
        let mut e = ProtocolEngine::new(Flavor::Athena);
        for line in TREE_LINES {
            e.handle_line(line).unwrap();
        }
        b.iter(|| {
            {
                let mut app = e.session.app.borrow_mut();
                let input = app.lookup("input").unwrap();
                let win = app.widget(input).window.unwrap();
                app.displays[0].set_input_focus(Some(win));
                app.displays[0].inject_key_named("Return", wafe_xproto::Modifiers::NONE);
            }
            e.session.pump();
            let _ = e.take_app_lines();
            e.handle_line("%sV result label {5*3*3*2*2*2}").unwrap();
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
