#!/usr/bin/env bash
# The repository's one benchmark. Builds the harness in release mode, then:
#
#   benchmark/run.sh [--seed N] [--out FILE] [--smoke]
#       every workload once untraced (end-to-end metrics) and once traced
#       (per-layer metrics); checks outputs, prints `workload name unit value`,
#       writes the JSON result file; exits non-zero on any incorrect output.
#       --smoke runs a tenth of the operations and is for plumbing, not timing.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result object
#       described in BENCHMARK.json's contract.
#   benchmark/run.sh compare A.json B.json
#       applies BENCHMARK.json's bounds to two result files.
set -euo pipefail

started_in="$PWD"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR means relative to where the command was started.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
  case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) export CARGO_TARGET_DIR="$started_in/$CARGO_TARGET_DIR" ;;
  esac
  target="$CARGO_TARGET_DIR"
else
  target="$root/target" # benchmark/.cargo/config.toml
fi

# Built from benchmark/ so its .cargo/config.toml applies. Without the
# repository around it (no ../Cargo.toml) this fails and so does the script.
(cd "$here" && cargo build --release --offline --quiet) >&2

bin="$target/release/gpupoly-benchmark"
if [ "${1:-}" = "compare" ]; then
  exec "$bin" "$@"
fi
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" "$@" --out-dir "$here/out"
  fi
done
exec "$bin" all "$@" --out-dir "$here/out"
