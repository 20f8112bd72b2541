#!/bin/sh
# Format, lint and unit-test the benchmark package on its own, without
# touching the repository's workspace. One CI line can call this:
#   sh benchmark/check.sh
set -eu
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
# Histogram percentiles, windowed p99, PRNG determinism, request-stream
# digests, the JSON codec, quartiles, `compare`, and BENCHMARK.json held
# against the metric catalogue.
cargo test --offline --manifest-path "$manifest" --release -q
