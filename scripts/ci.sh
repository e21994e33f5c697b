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

echo "==> cargo build --release -p lamellar-bench"
cargo build --release -p lamellar-bench --bins

echo "==> ablation_executor smoke (reads the executor counters from pool.stats())"
cargo run --release -p lamellar-bench --bin ablation_executor -- --tasks 2000 --workers 2

echo "==> ablation_batch_size smoke (the 50 000 limit ships 200 KB sub-batches through the large-payload fallback)"
cargo run --release -p lamellar-bench --bin ablation_batch_size -- --pes 2 --scale 200

echo "==> ablation_faultplane smoke (reliable transport end to end under loss, beside its no-plane baseline)"
cargo run --release -p lamellar-bench --bin ablation_faultplane -- --msgs 5000 --payload 64

echo "==> cargo build --release perfbench (the performance ledger still compiles)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "==> cargo test -q (hard ${TEST_TIMEOUT}s timeout)"
timeout --signal=KILL "$TEST_TIMEOUT" cargo test -q --workspace

echo "==> perf smoke: unit-AM histogram gate (aggregation factor, zero replies) + array batch inline gate (no spills, zero replies)"
# Deterministic counts, not timings: a tiny 4-PE unit-AM histogram must show
# zero reply envelopes and a healthy envelopes-per-chunk aggregation factor,
# and a 2-PE batch_add_ff histogram must run every served sub-batch inline.
cargo test -q --release --test perf_smoke --test perf_smoke_array

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "CI OK"
