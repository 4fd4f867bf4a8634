#!/usr/bin/env bash
# Builds the release waferd and the benchmark from source, then runs one
# benchmark run. Run from the repository root:
#
#   bash waferd-bench/run.sh --workload line_rtt --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); build
# logs go to stderr so the last stdout line stays the JSON result.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin waferd >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2

exec "$target/release/waferd-bench" --waferd "$target/release/waferd" \
    --out "$target/waferd-bench" "$@"
