#!/usr/bin/env bash
# Repo CI gate: release build, workspace tests, and warning-free clippy.
# Run from the repo root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Resilience-suite hygiene: panics caught by the runtime print full traces,
# and a regression that reintroduces a hang fails the gate instead of
# wedging CI (the suite's slowest healthy run is well under this ceiling).
export RUST_BACKTRACE=1
TEST_TIMEOUT="${CI_TEST_TIMEOUT:-900}"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo build --release -p lamellar-bench (benches compile)"
cargo build --release -p lamellar-bench --bins

echo "==> cargo build --release perfbench (the performance ledger still compiles)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "==> cargo test -q (hard ${TEST_TIMEOUT}s timeout)"
timeout --signal=KILL "$TEST_TIMEOUT" cargo test -q --workspace

echo "==> perf smoke: unit-AM histogram gate (aggregation factor, zero replies)"
# Deterministic counts, not timings: a tiny 4-PE unit-AM histogram must show
# zero reply envelopes and a healthy envelopes-per-chunk aggregation factor.
cargo test -q --release --test perf_smoke

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "CI OK"
