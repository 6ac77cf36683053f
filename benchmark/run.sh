#!/usr/bin/env bash
# The benchmark's own gate, then the ledger: format, lint, smoke-check, run.
# From anywhere; extra arguments go to `run` (e.g. --reps 5 --json out/ledger.json).
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --offline --release --manifest-path "$manifest" --all-targets -- -D warnings
cargo run --offline --release --quiet --manifest-path "$manifest" -- check
cargo run --offline --release --quiet --manifest-path "$manifest" -- run "$@"
