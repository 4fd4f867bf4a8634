#!/bin/sh
# Offline CI gate: formatting, lints, release build, full test suite.
# Everything runs with --offline — the workspace has no external
# dependencies by design (see docs/eval-cache.md and crates/wafe-prop).
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc --workspace --no-deps (intra-doc links, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test -q --offline"
cargo test -q --offline

# Flake detector over the whole workspace (the root Cargo.toml's
# default-members make plain `cargo test` cover every crate): ten more
# consecutive full runs must all pass. The suites are compiled by the
# step above, so each run pays only test time.
echo "== whole-workspace suite x10 (600s guard)"
timeout 600 sh -c '
    i=1
    while [ $i -le 10 ]; do
        cargo test -q --offline >/tmp/wafe-ci-flake.out 2>&1 \
            || { tail -40 /tmp/wafe-ci-flake.out; echo "workspace run $i failed"; exit 1; }
        i=$((i + 1))
    done
' || { echo "whole-workspace suite x10: FAILED (or exceeded 600s)"; exit 1; }

# The chaos suite is deterministic by construction (seeded fault plans,
# virtual tick clock); 50 consecutive runs under a hard timeout catch
# any flakiness regression. The suite is compiled by the test step
# above, so the loop only pays test startup time.
echo "== supervisor chaos suite x50 (60s guard)"
timeout 60 sh -c '
    i=1
    while [ $i -le 50 ]; do
        cargo test -q -p wafe-ipc --test supervisor_chaos --offline \
            >/dev/null 2>&1 || { echo "chaos run $i failed"; exit 1; }
        i=$((i + 1))
    done
' || { echo "supervisor chaos suite: FAILED (or exceeded 60s)"; exit 1; }

# The serve scheduler and event-loop tests are deterministic the same
# way (virtual tick clock, the simulated net, no wall-clock asserts);
# repeat both suites as a flakiness gate too.
echo "== serve deterministic suite x50 (60s guard)"
timeout 60 sh -c '
    i=1
    while [ $i -le 50 ]; do
        cargo test -q -p wafe-serve --test serve_deterministic --test event_loop_sim \
            --offline >/dev/null 2>&1 || { echo "serve run $i failed"; exit 1; }
        i=$((i + 1))
    done
' || { echo "serve deterministic suite: FAILED (or exceeded 60s)"; exit 1; }

# The snapshot property suite pins the checkpoint codec park/restore
# rides on (canonical bytes, fixed-point restore, no shimmer, loud
# failure on truncation/garbage). Each run is ~700 generated cases off
# a fresh xorshift seed; five consecutive runs under a hard timeout
# keep it honest without dominating the gate.
echo "== snapshot property suite x5 (60s guard)"
timeout 60 sh -c '
    i=1
    while [ $i -le 5 ]; do
        cargo test -q -p wafe-serve --test snapshot_props --offline \
            >/dev/null 2>&1 || { echo "snapshot props run $i failed"; exit 1; }
        i=$((i + 1))
    done
' || { echo "snapshot property suite: FAILED (or exceeded 60s)"; exit 1; }

# waferd smoke test: spawn the release binary, connect N clients over
# loopback, round-trip one command each, then drain from a client and
# require a clean exit — all under a hard timeout. Before the drain, one
# scrape of the --metrics endpoint must show the server-wide counters,
# and a second one must match a client's `serve status` key by key.
echo "== waferd smoke test (30s guard)"
timeout 30 sh -c '
    ./target/release/waferd --quiet --max-sessions 16 --metrics 127.0.0.1:0 \
        > /tmp/waferd-ci.out 2>&1 &
    pid=$!
    port=""
    mport=""
    i=0
    while [ $i -lt 50 ]; do
        port=$(sed -n "s/.*listening tcp 127\.0\.0\.1:\([0-9]*\)/\1/p" /tmp/waferd-ci.out)
        mport=$(sed -n "s/.*metrics tcp 127\.0\.0\.1:\([0-9]*\)/\1/p" /tmp/waferd-ci.out)
        [ -n "$port" ] && [ -n "$mport" ] && break
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$port" ] || { echo "waferd did not report a port"; kill $pid; exit 1; }
    [ -n "$mport" ] || { echo "waferd did not report a metrics port"; kill $pid; exit 1; }
    python3 - "$port" "$mport" <<"EOF" || { kill $pid; exit 1; }
import socket, sys
port, mport = int(sys.argv[1]), int(sys.argv[2])
conns = []
for c in range(8):
    s = socket.create_connection(("127.0.0.1", port), timeout=5)
    f = s.makefile("rw", newline="\n")
    f.write(f"%set v smoke-{c}\n%echo [set v]\n"); f.flush()
    got = f.readline().rstrip("\n")
    assert got == f"smoke-{c}", f"client {c}: {got!r}"
    conns.append((s, f))
scrape = socket.create_connection(("127.0.0.1", mport), timeout=5)
page = scrape.makefile("rb").read().decode()
scrape.close()
for want in ("wafe_serve_server_accepted 8", "wafe_serve_server_commands 16",
             "wafe_serve_server_active 8"):
    assert want + "\n" in page, f"metrics scrape lacks {want!r}: {page!r}"
# serve status and the scrape are one view: every numeric status key
# equals its wafe_serve_server_<key> row (commands one more, since the
# status line is counted once it returns), and the rolled-up session
# total wafe_serve_commands agrees with both.
f = conns[0][1]
f.write("%echo [serve status]\n"); f.flush()
words = f.readline().split()
status = {}
for k, v in zip(words[0::2], words[1::2]):
    if k == "shards":
        break
    if v.isdigit():
        status[k] = int(v)
assert status.get("commands") == 16, f"serve status: {words!r}"
scrape = socket.create_connection(("127.0.0.1", mport), timeout=5)
page = scrape.makefile("rb").read().decode()
scrape.close()
rows = dict(l.rsplit(" ", 1) for l in page.splitlines() if l)
for k, v in status.items():
    want = str(v + 1 if k == "commands" else v)
    got = rows.get("wafe_serve_server_" + k)
    assert got == want, f"status {k} {v} vs scrape {got!r}: {page!r}"
assert rows.get("wafe_serve_commands") == "17", f"no roll-up row: {page!r}"
s, f = conns[0]
f.write("%serve drain\n"); f.flush()
for s, f in conns:
    assert f.readline() == "", "expected EOF after drain"
    s.close()
EOF
    wait $pid || { echo "waferd exited non-zero"; exit 1; }
    grep -q "waferd drained" /tmp/waferd-ci.out \
        || { echo "waferd did not report a clean drain"; exit 1; }
' || { echo "waferd smoke test: FAILED (or exceeded 30s)"; exit 1; }

# Display smoke test: attach the display protocol over real TCP, drive
# a widget update, and require a checksum-valid frame notice back —
# the browser-free path through the exact bytes the canvas client sees.
echo "== waferd display smoke test (30s guard)"
timeout 30 sh -c '
    ./target/release/waferd --quiet --max-sessions 4 > /tmp/waferd-ci-display.out 2>&1 &
    pid=$!
    port=""
    i=0
    while [ $i -lt 50 ]; do
        port=$(sed -n "s/.*listening tcp 127\.0\.0\.1:\([0-9]*\)/\1/p" /tmp/waferd-ci-display.out)
        [ -n "$port" ] && break
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$port" ] || { echo "waferd did not report a port"; kill $pid; exit 1; }
    python3 - "$port" <<"EOF" || { kill $pid; exit 1; }
import socket, sys

def fnv1a(data):
    h = 0x811C9DC5
    for b in data:
        h = ((h ^ b) * 16777619) & 0xFFFFFFFF
    return h

def read_frame(f):
    while True:
        line = f.readline()
        assert line, "EOF before a display frame arrived"
        line = line.rstrip("\n")
        if not line.startswith("!display frame "):
            continue
        payload = bytes.fromhex(line.split(" ", 2)[2])
        assert payload[:4] == b"WFRM", "bad frame magic"
        assert int.from_bytes(payload[4:8], "big") == 1, "bad frame version"
        want = int.from_bytes(payload[-4:], "big")
        assert fnv1a(payload[:-4]) == want, "frame checksum mismatch"
        w = int.from_bytes(payload[16:20], "big")
        h = int.from_bytes(payload[20:24], "big")
        assert (w, h) == (1024, 768), f"unexpected screen {w}x{h}"
        return int.from_bytes(payload[8:16], "big")

port = int(sys.argv[1])
s = socket.create_connection(("127.0.0.1", port), timeout=10)
f = s.makefile("rw", newline="\n")
f.write("%display attach\n")
f.write("%label hello topLevel label {ci smoke} width 120 height 40\n")
f.write("%realize\n")
f.flush()
first = read_frame(f)
# Frames coalesce to latest while unsent, so the second update is only
# driven after the first frame has been read off the wire.
f.write("%setValues hello label {ci smoke updated}\n")
f.flush()
second = read_frame(f)
assert second > first, f"frame seq did not advance: {first} -> {second}"
s.close()
EOF
    kill $pid 2>/dev/null
    wait $pid 2>/dev/null
    exit 0
' || { echo "waferd display smoke test: FAILED (or exceeded 30s)"; exit 1; }

# Perf gates. Each compares ratios from one run, not raw ns, so the
# gates are machine-portable. Timing asserts are noise-sensitive right
# after the heavy steps above, so each bench gets one retry before the
# gate fails.
run_bench() {
    cargo bench -q -p bench --bench "$1" --offline >/dev/null 2>&1 \
        || cargo bench -q -p bench --bench "$1" --offline >/dev/null
}

# E21 is the dual-rep value model: building a list of 4N elements with
# lappend must take at most 6x as long as building one of N (linear is
# 4x, the strings-only model's quadratic growth 16x). Both sides come
# from the same run; the bench asserts it too.
echo "== bench e21 smoke run + <=6x lappend growth gate"
run_bench e21_value_reps
python3 -c '
import json
d = json.load(open("BENCH_e21.json"))
g = d["growth_ratio"]
assert g <= 6.0, "e21: lappend growth %.2fx at 4N > 6x" % g
print("  lappend growth at 4N: %.2fx (gate <=6x) ok" % g)
' || { echo "BENCH_e21.json: malformed or above the 6x growth gate"; exit 1; }

# E22 is the multi-session server and E24 the readiness-driven event
# loop at scale. Each run asserts its own invariants: e22 that 64
# sessions are truly concurrent with zero protocol corruption; e24 (in
# CI at its smoke shape, 256 clients via WAFE_E24_CLIENTS; the full
# 1k/4k/10k sweep is a manual run) that peak_active == clients, again
# with zero corruption. The gate requires the 256-client commands/s to
# stay within 70% of the 64-client e22 figure: 4x the concurrency must
# not cost more than the noise band. Either figure alone swings by a
# third between back-to-back runs on a small VM, so both come from
# five alternating e22 / e24 rounds of this run and the gate compares
# their medians.
echo "== bench e22/e24 smoke rounds (256 clients) + >=70% of e22-c64 gate"
rounds=$(mktemp -d)
i=1
while [ $i -le 5 ]; do
    run_bench e22_serve_throughput
    cp BENCH_e22.json "$rounds/e22-$i.json"
    WAFE_E24_CLIENTS=256 cargo bench -q -p bench --bench e24_serve_scale \
        --offline >/dev/null 2>&1 \
        || WAFE_E24_CLIENTS=256 cargo bench -q -p bench \
            --bench e24_serve_scale --offline >/dev/null
    cp target/BENCH_e24_smoke.json "$rounds/e24-$i.json"
    i=$((i + 1))
done
python3 - "$rounds" <<"EOF" || { echo "e22/e24: malformed JSON or below the 70% gate"; exit 1; }
import glob, json, statistics, sys
def cps(kind, workload):
    return [
        {w["name"]: w for w in json.load(open(f))["workloads"]}[workload]["commands_per_sec"]
        for f in sorted(glob.glob(f"{sys.argv[1]}/{kind}-*.json"))
    ]
c64, c256 = cps("e22", "serve_c64"), cps("e24", "poll_c256")
m64, m256 = statistics.median(c64), statistics.median(c256)
ratio = m256 / m64
assert ratio >= 0.70, (
    "e24: median %.0f cmd/s at 256 clients is %.0f%% of the e22 c64 median (%.0f), gate 70%%"
    % (m256, ratio * 100, m64))
print("  256-client commands/s: median %.0f over %d rounds (%.0f%% of the e22 c64 median %.0f, gate >=70%%) ok"
      % (m256, len(c256), ratio * 100, m64))
EOF
rm -rf "$rounds"

# E23 is the bytecode VM: the run itself asserts byte-identical output
# against the tree-walker on every workload, and the gate below requires
# >=3x on the loop-heavy workload and on the one-shot loop line (a
# fresh interpreter per run: it pins that a loop is lowered on its
# first run). The speedup field is a median of interleaved per-round
# tree/VM ratios, so machine-wide drift cancels.
echo "== bench e23 smoke run + >=3x VM gates"
run_bench e23_bytecode
python3 -c '
import json
d = json.load(open("BENCH_e23.json"))
s = {w["name"]: w["speedup"] for w in d["workloads"]}
for name in ("loop_heavy_factor", "one_shot_tight_arith"):
    assert s[name] >= 3.0, "e23: %s %.2fx < 3x" % (name, s[name])
    print("  %s: %.2fx (gate >=3x) ok" % (name, s[name]))
' || { echo "BENCH_e23.json: malformed or below the 3x gate"; exit 1; }

# E26 is the observability plane: the run itself asserts output parity
# with spans/profiler on, and the gate below requires the *disabled*
# cost (span checks + the per-instruction profiler branch, computed
# from per-site costs inside one binary) to stay within 2% of the
# all-off baseline on the E19 loop-heavy workload.
echo "== bench e26 smoke run + <=2% disabled-overhead gate"
run_bench e26_span_overhead
python3 -c '
import json
d = json.load(open("BENCH_e26.json"))
pct = d["disabled_overhead_pct"]
assert pct <= 2.0, "e26: disabled overhead %.2f%% > 2%%" % pct
print("  disabled overhead: %.2f%% (gate <=2%%) ok" % pct)
' || { echo "BENCH_e26.json: malformed or above the 2% disabled gate"; exit 1; }

# E27 is session checkpointing: the run itself asserts park → restore
# → park is a byte-identical fixed point, and the gate below requires
# restore p99 <= 10ms — above that, "hot handoff" on reconnect would
# be a stall the user can feel.
echo "== bench e27 smoke run + <=10ms restore-p99 gate"
run_bench e27_checkpoint
python3 -c '
import json
d = json.load(open("BENCH_e27.json"))
p99 = d["restore_p99_us"]
assert p99 <= 10000.0, "e27: restore p99 %.1fus > 10ms" % p99
print("  restore p99: %.1fus (gate <=10ms) ok" % p99)
' || { echo "BENCH_e27.json: malformed or above the 10ms restore gate"; exit 1; }

# E28 is the display protocol: the run itself asserts every frame
# decodes back to the bytes it encoded, and the gate below requires
# damage-tracked frames to ship >=5x fewer bytes than full repaints on
# the dashboard workload — below that, per-mutation damage bookkeeping
# would not earn its keep and the protocol could just ship screens.
echo "== bench e28 smoke run + >=5x bytes-saved gate"
run_bench e28_display
python3 -c '
import json
d = json.load(open("BENCH_e28.json"))
r = d["bytes_saved_ratio"]
assert r >= 5.0, "e28: bytes_saved_ratio %.1fx < 5x" % r
print("  bytes saved: %.1fx (gate >=5x) ok" % r)
' || { echo "BENCH_e28.json: malformed or below the 5x gate"; exit 1; }

# E30 is the shared toolkit image: with the per-flavour setup built
# once per thread, creating a session must cost at most a fifth of
# building the image (the setup every session used to repeat), in both
# time and resident memory. Both sides come from the same run, so the
# gate needs no kept-alive baseline. The bench asserts it too.
echo "== bench e30 smoke run + session <=1/5 image gate"
run_bench e30_session_image
python3 -c '
import json
d = json.load(open("BENCH_e30.json"))
t = d["image_build_us"] / d["session_create_us"]
m = d["image_kb"] / d["session_kb"]
assert t >= 5.0 and m >= 5.0, (
    "e30: session costs 1/%.1f of an image in time and 1/%.1f in memory, gate 1/5"
    % (t, m))
print("  session create: %.1f us, %.1f KiB (image %.1f us, %.1f KiB: %.1fx, %.1fx; gate >=5x) ok"
      % (d["session_create_us"], d["session_kb"], d["image_build_us"], d["image_kb"], t, m))
' || { echo "BENCH_e30.json: malformed or below the 5x gate"; exit 1; }

# E31 is incremental setValues: a label's new text settles only the
# label, so one label setValues on a realized 242-widget form grid must
# cost at most 1.5x the 26-widget figure (the whole-tree resync it
# replaced grew ~10x over the same sizes). Both sides come from the
# same run, sizes interleaved round by round; the bench asserts it too.
echo "== bench e31 smoke run + label setValues 242 <=1.5x 26 widgets gate"
run_bench e31_set_values
python3 -c '
import json
d = json.load(open("BENCH_e31.json"))
g = {r["widgets"]: r["label_us"] for r in d["grids"]}
r = g[242] / g[26]
assert r <= 1.5, (
    "e31: label setValues %.1f us at 242 widgets is %.2fx the 26-widget %.1f us, gate 1.5x"
    % (g[242], r, g[26]))
print("  label setValues: %.1f us at 26, %.1f us at 242 widgets (%.2fx, gate <=1.5x) ok"
      % (g[26], g[242], r))
' || { echo "BENCH_e31.json: malformed or above the 1.5x gate"; exit 1; }

# The E31 ticker is a label update flushed, composited and built into a
# frame with a display client attached. The flush paints only the
# damage, so the frame costs the label: on the 242-widget grid the
# ticker must keep at least 0.65 of its 26-widget frames/s (a root-down
# paint of every window dropped it to ~0.5). Same run as the gate above,
# sizes interleaved round by round.
echo "== e31 ticker frames/s 242 >=0.65x 26 widgets gate"
python3 -c '
import json
d = json.load(open("BENCH_e31.json"))
f = {r["widgets"]: r["ticker_frames_per_sec"] for r in d["grids"]}
r = f[242] / f[26]
assert r >= 0.65, (
    "e31: ticker %.0f frames/s at 242 widgets is %.2fx the 26-widget %.0f, gate 0.65x"
    % (f[242], r, f[26]))
print("  ticker: %.0f frames/s at 26, %.0f at 242 widgets (%.2fx, gate >=0.65x) ok"
      % (f[26], f[242], r))
' || { echo "BENCH_e31.json: malformed or below the 0.65x ticker gate"; exit 1; }

# The E31 deep-tree row is the same ticker on 1, 8 and 64 subtrees of
# eight nested Forms each, none overlapping the updated leaf. The paint
# walk returns at a window whose visible area misses the damage, so a
# sibling subtree costs one intersection: the leaf's frame at 64
# subtrees must cost at most 1.5x the one-subtree figure (a walk that
# visits every window read ~2.2x). Same run as the gates above, sizes
# interleaved round by round.
echo "== e31 deep-tree leaf frame 64 <=1.5x 1 subtree gate"
python3 -c '
import json
d = json.load(open("BENCH_e31.json"))
f = {r["subtrees"]: r["leaf_frame_us"] for r in d["deep_trees"]}
r = f[64] / f[1]
assert r <= 1.5, (
    "e31: leaf frame %.2f us with 64 subtrees is %.2fx the 1-subtree %.2f us, gate 1.5x"
    % (f[64], r, f[1]))
print("  deep tree: %.2f us/frame at 1, %.2f at 64 subtrees (%.2fx, gate <=1.5x) ok"
      % (f[1], f[64], r))
' || { echo "BENCH_e31.json: malformed or above the 1.5x deep-tree gate"; exit 1; }

# A width setValues in a fromHoriz chain re-lays out the form, but the
# relayout configures only the labels that moved or resized and redraws
# only the resized label and the form. Counted, not timed: the widgets
# redrawn per width op must be the same at 26, 98 and 242 widgets (the
# subtree redraw it replaced redrew every widget). Same run as above.
echo "== e31 width setValues redraws the same count at 26, 98, 242 widgets gate"
python3 -c '
import json
d = json.load(open("BENCH_e31.json"))
g = {r["widgets"]: r for r in d["grids"]}
n = [g[k]["width_redrawn_per_op"] for k in (26, 98, 242)]
assert n[0] == n[1] == n[2], (
    "e31: width setValues redraws %s widgets at 26/98/242 widgets, gate: equal" % n)
print("  width setValues: %.1f redrawn at 26/98/242 widgets, %s configured (gate: redrawn equal) ok"
      % (n[0], "/".join("%.1f" % g[k]["width_configured_per_op"] for k in (26, 98, 242))))
' || { echo "BENCH_e31.json: malformed or width redraws grow with the tree"; exit 1; }

# E19 is the parse-once cache: a proc or loop body is lexed once per
# run, so ~2.4 KiB of comment lines padded into every body of the
# loop-heavy (`factor 3599`) and proc-heavy workloads must cost at most
# 1.25x the plain bodies (the median of interleaved per-round ratios,
# same run). A re-parse on every run read 4.2-4.5x / 1.9-2.8x. The bench asserts
# it too; the VM disengaging on the same `factor` workload is E23's
# gate above.
echo "== bench e19 smoke run + padded/plain <=1.25x gate"
run_bench e19_eval_cache
python3 -c '
import json
d = json.load(open("BENCH_e19.json"))
for w in d["workloads"]:
    r = w["padded_ratio"]
    assert r <= 1.25, "e19: %s padded/plain %.2fx > 1.25x" % (w["name"], r)
    print("  %s: padded/plain %.2fx (gate <=1.25x) ok" % (w["name"], r))
' || { echo "BENCH_e19.json: malformed or above the 1.25x padded gate"; exit 1; }

echo "CI OK"
