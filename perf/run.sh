#!/usr/bin/env bash
# The one command of the benchmark: build `perf` (release, offline) and
# run it with the arguments given.
#
#   perf/run.sh                                   all seven workloads, then the traced run
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                 one run; last line of stdout is the result
#   perf/run.sh agree A.json B.json               is result set B no worse than A? (same seed)
#   perf/run.sh catalogue > BENCHMARK.json        rewrite the benchmark file from src/metrics.rs
#
# See perf/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# A driver sets CARGO_TARGET_DIR. Standalone, share the repo's ./target
# so the crates the root build already compiled are reused.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perf" "$@"
