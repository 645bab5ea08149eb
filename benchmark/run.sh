#!/usr/bin/env bash
# Entry point named in BENCHMARK.json:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds if the sources changed (a no-op otherwise), then runs one workload.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
bash benchmark/build.sh >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/layerbench" "$@"
