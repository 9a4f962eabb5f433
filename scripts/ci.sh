#!/usr/bin/env bash
# Offline-safe CI gate: everything here runs without network access — the
# workspace's only dependencies are in-tree path crates (see Cargo.toml),
# so no registry fetch is ever needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (tier-1)"
cargo test -q

echo "==> cargo test --workspace"
cargo test --workspace -q

# The end-to-end benchmark is its own workspace, so --workspace never
# builds it; testing it here makes an API change that breaks it fail CI.
echo "==> e2ebench tests (separate workspace)"
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

echo "==> determinism + timing artifact (quick mode; fig6/fig7/queued/availability suites)"
cargo run --release -p quasaq-bench --bin bench -- --quick

echo "==> cached-admission + stochastic-link brownout smoke (cached vs plain admission at 3 and 30 servers, bit-identical; nonzero brownout shedding at 3)"
cargo run --release -p quasaq-bench --bin bench -- --smoke

echo "==> scenario gallery (every scenarios/*.toml: serial + parallel, bit-identical, golden match)"
cargo run --release -p quasaq-bench --bin bench -- --gallery

echo "==> service-shell loopback smoke (TCP shell vs in-process driver decision identity, 1/2/4 threads)"
cargo run --release -p quasaq-bench --bin bench -- --load --quick

echo "CI green."
