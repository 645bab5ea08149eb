#!/usr/bin/env bash
# Build the benchmark binary, offline, apart from any run: compilation
# never lands in setup_s. Honors CARGO_TARGET_DIR (relative to the
# repository root, as cargo resolves it); defaults to benchmark/target.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo build --release --offline --manifest-path benchmark/Cargo.toml
