#!/usr/bin/env bash
# The full offline gate: everything CI runs, runnable on a laptop with
# no network (the workspace has no external dependencies by design —
# see DESIGN.md §7).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> product crates read no environment (worlds are configured by setters)"
if grep -rn 'std::env' crates/{core,hkernel,hlink,hsfs,hvm,hobj,hfault,hsan}/src; then
  echo "std::env in a product crate: the test knobs belong in tests/common" >&2
  exit 1
fi

echo "==> crates/bench reads no host clock (it prints simulated tables only)"
if grep -rnE 'std::time|Instant' crates/bench; then
  echo "host clock in crates/bench: host wall time belongs to perfbench" >&2
  exit 1
fi

echo "==> product crates read no host clock (simulated time is the only clock they keep)"
if grep -rnE 'std::time|Instant::' crates/{core,hkernel,hlink,hsfs,hvm,hobj,hfault,hsan}/src; then
  echo "host clock in a product crate: host wall time belongs to perfbench" >&2
  exit 1
fi

echo "==> World::publish is the only code that appends to the trace ring"
if awk '/^    (pub )?fn /{f=$0} /\.record\(/ && f !~ /fn publish\(/{print FILENAME":"FNR": "$0; bad=1} END{exit !bad}' crates/core/src/world.rs; then
  echo "trace ring appended outside World::publish: price records with CostModel::price there" >&2
  exit 1
fi

echo "==> hlink applies relocations only in hlink::tramp (one patcher for lds, instantiation and ldl)"
if grep -rnE 'patch_word|\.apply\(' crates/hlink/src --exclude=tramp.rs; then
  echo "relocation applied outside crates/hlink/src/tramp.rs: call hlink::tramp::patch" >&2
  exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> interpreter, kernel and linker in the optimized build (block replay fast paths, warm-against-cold block-cache, page-table and module-index properties, debug_asserts off)"
cargo test -q --release -p hvm -p hkernel -p hlink
cargo test -q --release --test e12_bbcache

echo "==> process lifecycle (e7: fork/wait semantics, one world's table stays O(live))"
cargo test -q --release --test e7_fork_semantics

echo "==> sanitizer suite (hsan unit + e9 differential/property harness)"
cargo test -q --release -p hsan
cargo test -q --release --test e9_sanitizer

echo "==> crash-point exhaustion (e13: every disk-write index, torn and clean)"
cargo test -q --release --test e13_crash

echo "==> hsfs in the optimized build (live tree equals disk image; verified-bit memo equals a full re-hash)"
cargo test -q --release -p hsfs

echo "==> disk-integrity properties (e14: corruption detect/heal/contain)"
cargo test -q --release --test e14_integrity

echo "==> configuration lattice (every free toggle free, every cell replays and passes World::audit)"
cargo test -q --release --test lattice

echo "==> prelink snapshots (e15: identity, staleness, crash sweep)"
cargo test -q --release --test e15_snapshot

echo "==> perfbench suite (same-seed replay, sim-ledger conservation, skew = failure)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> bench regression gate"
bash scripts/bench_compare.sh

echo "All checks passed."
