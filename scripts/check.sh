#!/usr/bin/env bash
# Full local gate: formatting, lints, and the test suite.
# CI runs exactly this script; run it before pushing.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> cluster differential + property + golden suites (release)"
cargo test --offline --release -p ivdss-cluster

echo "==> network loopback e2e + protocol fuzz (release)"
cargo test --offline --release -p ivdss-net

echo "==> adaptive-scheduling differential + property + golden suites (release)"
cargo test --offline --release -p ivdss-sched

echo "==> scenario engine property + golden + catalog-pin suites (release)"
cargo test --offline --release -p ivdss-scenarios
cargo test --offline --release -p ivdss-dsim --test golden_scenario --test scenario_catalog_pins

echo "==> storage differential + property + calibration + golden suites (release)"
cargo test --offline --release -p ivdss-storage
cargo test --offline --release -p ivdss-dsim --test calibration_regression
cargo test --offline --release -p ivdss-serve --test golden_storage_trace

echo "==> repo benchmark builds (perfbench is its own cargo workspace)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> repo benchmark smoke run (correctness checks and regime guards)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 1 --seconds 1 --trace 0

echo "==> markdown link check"
scripts/linkcheck.sh

echo "All checks passed."
