#!/usr/bin/env bash
# One benchmark run, one process:
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#
# Builds the benchmark package from source (offline; a no-op when it is up
# to date), then runs it. The last line of standard output is the result
# object. Works from any directory; traces go to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Build output goes where the caller's CARGO_TARGET_DIR says (resolved
# against the caller's directory), else to benchmark/target.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

BENCH_GIT_REV="${BENCH_GIT_REV:-$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)}" \
    exec "$target/release/aaa-benchmark" --out "$here/out" "$@"
