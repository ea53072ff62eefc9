#!/bin/bash
# The webvuln benchmark: builds the harness, then runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#   benchmark/run.sh --smoke
#   benchmark/run.sh --repeat K [--seeds A,B] [--out FILE]
#   benchmark/run.sh --compare BEFORE.json AFTER.json
#
# Without --workload every workload runs. The last line of standard
# output is the result as one JSON object; README.md explains it.
# Everything this script and the harness write goes under
# benchmark/target/ (and $CARGO_TARGET_DIR when cargo builds).
set -u
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT" || exit 1
T=benchmark/target
BIN="$T/wvbench"

# Repetition, comparison and the smoke run are bookkeeping over single
# runs of this script; report.py does it.
for arg in "$@"; do
  case "$arg" in
    --smoke|--repeat|--compare) exec python3 benchmark/report.py "$@" ;;
  esac
done

# Builds $BIN: by cargo when the workspace resolves offline (cargo then
# decides what is stale), else by the repository's bare-rustc shadow
# build with the harness linked against its rlibs. The shadow rlibs are
# rebuilt when a library source is newer than they are, the harness when
# its own sources or the rlibs are newer than it is.
build() {
  local cargo_dir="${CARGO_TARGET_DIR:-$T/cargo}" rlib="$T/shadow/libwebvuln.rlib"
  if cargo build --release --offline --manifest-path benchmark/Cargo.toml \
      --target-dir "$cargo_dir" >"$T/build.log" 2>&1; then
    cp -u "$cargo_dir/release/wvbench" "$BIN" && echo cargo >"$T/build.path"
    return
  fi
  if [ ! -f scripts/shadow/build.sh ]; then
    echo "benchmark/run.sh: cargo cannot build the harness and there is no shadow build" >&2
    tail -n 5 "$T/build.log" >&2
    return 1
  fi
  if [ ! -f "$rlib" ] ||
      [ -n "$(find Cargo.toml src crates scripts -type f -newer "$rlib" -print -quit 2>/dev/null)" ]; then
    rm -f "$rlib"
    SHADOW_DIR="$ROOT/$T/shadow" bash scripts/shadow/build.sh >>"$T/build.log" 2>&1 || {
      echo "benchmark/run.sh: shadow build failed; see $T/build.log" >&2
      tail -n 20 "$T/build.log" >&2
      return 1
    }
  fi
  if [ ! -x "$BIN" ] || [ "$(cat "$T/build.path" 2>/dev/null)" != shadow ] ||
      [ -n "$(find benchmark/src "$rlib" -type f -newer "$BIN" -print -quit)" ]; then
    rm -f "$BIN"
    rustc --edition 2021 -O -L "$T/shadow" --extern webvuln="$rlib" \
        --crate-name wvbench benchmark/src/main.rs -o "$BIN" >>"$T/build.log" 2>&1 || {
      echo "benchmark/run.sh: cannot compile the harness; see $T/build.log" >&2
      tail -n 40 "$T/build.log" >&2
      return 1
    }
  fi
  echo shadow >"$T/build.path"
}

mkdir -p "$T" || exit 1
# One build at a time: two runs started together must not both compile.
exec 9>"$T/build.lock"
flock 9 2>/dev/null
build || exit 1
flock -u 9 2>/dev/null
exec 9>&-

WVBENCH_BUILD="$(cat "$T/build.path")" \
WVBENCH_RUSTC="$(rustc --version 2>/dev/null)" \
WVBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  exec "$BIN" --target "$T" "$@"
