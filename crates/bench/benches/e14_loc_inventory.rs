//! E14 — scale comparison with the paper's "The Wafe source is currently
//! about 13000 lines of C code": the reproduction's lines-of-code
//! inventory per layer. The Rust total is larger because the paper links
//! against Tcl, Xt, Xaw and X11 — all of which this reproduction had to
//! build.
//!
//! The inventory covers the whole tree: every `crates/*/src` plus the
//! root package's `src/`. The bench fails if a crate directory is
//! missing from the layer table, so the total cannot silently drift
//! away from the tree. Results go to stdout and `BENCH_e14.json`.

use bench::{criterion_group, criterion_main, Criterion};

use bench::{banner, count_loc, row, workspace_root};

/// Every layer, in dependency order: `(label, source dir)`.
const LAYERS: [(&str, &str); 13] = [
    ("wafe-trace (telemetry)", "crates/wafe-trace/src"),
    ("wafe-tcl (Tcl interpreter)", "crates/wafe-tcl/src"),
    (
        "wafe-xproto (X display simulation)",
        "crates/wafe-xproto/src",
    ),
    ("wafe-display (display protocol)", "crates/wafe-display/src"),
    ("wafe-xt (Xt Intrinsics)", "crates/wafe-xt/src"),
    ("wafe-xaw (Athena widgets)", "crates/wafe-xaw/src"),
    ("wafe-motif (Motif subset)", "crates/wafe-motif/src"),
    ("wafe-core (Wafe command layer)", "crates/wafe-core/src"),
    ("wafe-ipc (%-line protocol)", "crates/wafe-ipc/src"),
    (
        "wafe-serve (event loop: frontend, server)",
        "crates/wafe-serve/src",
    ),
    ("src (binaries: wafe, waferd, backends)", "src"),
    ("wafe-prop (property-test harness)", "crates/wafe-prop/src"),
    ("bench (benchmark harness)", "crates/bench/src"),
];

fn regenerate_inventory() {
    banner(
        "E14",
        "lines of code per layer (paper: Wafe itself ~13000 lines of C)",
    );
    let root = workspace_root();
    for entry in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = format!(
            "crates/{}/src",
            entry.expect("crates/ entry").file_name().to_string_lossy()
        );
        assert!(
            LAYERS.iter().any(|&(_, d)| d == dir),
            "{dir} is missing from the E14 layer table"
        );
    }
    let mut total = 0usize;
    let mut wafe_itself = 0usize;
    let mut json_layers = Vec::new();
    for (label, dir) in LAYERS {
        let loc = count_loc(&root.join(dir));
        row(label, loc);
        total += loc;
        if dir.contains("wafe-core") || dir.contains("wafe-ipc") {
            wafe_itself += loc;
        }
        json_layers.push(format!("    {{\"dir\": \"{dir}\", \"loc\": {loc}}}"));
    }
    row("total (crates/*/src + src)", total);
    row("the Wafe-equivalent part (core + ipc)", wafe_itself);
    println!(
        "  (the paper's 13000 C lines cover only the Wafe-equivalent part;\n   \
         Tcl/Xt/Xaw/X11 were linked libraries there, built from scratch here)"
    );
    assert!(total > 10000, "inventory implausibly small: {total}");

    let out = format!(
        "{{\n  \"experiment\": \"e14_loc_inventory\",\n  \"layers\": [\n{}\n  ],\n  \
         \"total\": {total},\n  \"wafe_equivalent\": {wafe_itself}\n}}\n",
        json_layers.join(",\n")
    );
    let path = root.join("BENCH_e14.json");
    std::fs::write(&path, out).expect("write BENCH_e14.json");
    println!("  wrote {}", path.display());
}

fn bench(c: &mut Criterion) {
    regenerate_inventory();
    let mut group = c.benchmark_group("e14_loc_inventory");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.sample_size(10);
    let root = workspace_root();
    group.bench_function("count_workspace_loc", |b| {
        b.iter(|| count_loc(&root.join("crates")));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
