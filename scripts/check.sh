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

echo "==> World keeps one map keyed by pid (per-process state lives in its runtime record)"
if [ "$(grep -cE '(HashMap|BTreeMap)<Pid' crates/core/src/world.rs)" -gt 1 ]; then
  grep -nE '(HashMap|BTreeMap)<Pid' crates/core/src/world.rs
  echo "a second pid-keyed map in World: add the field to ProcRuntime, which the kernel's fork/exit journal creates and reaps" >&2
  exit 1
fi

echo "==> the block cache and the linker each keep one set of totals (nothing per space or per process to fold)"
if awk '/^pub struct (LinkState|BbCache) \{/{s=1} s && !/^ *\/\// && /(LdlStats|BbStats)/{print FILENAME":"FNR": "$0; bad=1} /^\}/{s=0} END{exit !bad}' \
  crates/hlink/src/ldl.rs crates/hvm/src/bbcache.rs \
  || grep -rnE 'reaped_ldl|reaped_bb|\.absorb\(|\.accumulate\(' crates/{core,hkernel,hlink,hvm}/src; then
  echo "a per-space or per-process counter set is back: count in SharedText (blocks) or World's LdlStats (linker)" >&2
  exit 1
fi

echo "==> the memory layer counts once (TLB/COW totals in KernelStats, pressure counters from record tallies)"
if awk '/^pub struct AddressSpace \{/{s=1} s && !/^ *\/\// && /^ *(pub )?stats:/{print FILENAME":"FNR": "$0; bad=1}
        /^struct PoolInner \{/{p=1} p && !/^ *\/\// && /^ *(evictions|writebacks|swap_outs|swap_ins|oom_kills):/{print FILENAME":"FNR": "$0; bad=1}
        /^\}/{s=0; p=0} END{exit !bad}' crates/hkernel/src/mem.rs \
  || grep -rnE 'fold_counters|MemStats' crates/hkernel/src; then
  echo "a per-space or pool-side counter is back: count TLB/COW in the kernel's KernelStats, read pressure from the trace tallies" >&2
  exit 1
fi

echo "==> hsfs has one block hash (journal::block_hash) and one digest hash (fs.rs's byte-wise fnv1a)"
if awk '/^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/{f=$0; sub(/^ *(pub(\([a-z]+\))? )?fn /, "", f); sub(/[^a-z_0-9].*/, "", f)}
        /0x[0-9a-fA-F_]*01[bB]3/ && !(FILENAME ~ /journal\.rs$/ && f == "block_hash") && !(FILENAME ~ /\/fs\.rs$/ && f == "fnv1a") {print FILENAME":"FNR": "$0; bad=1}
        END{exit !bad}' crates/hsfs/src/*.rs \
  || grep -rnE '\bfnv1a *\(' crates/hsfs/src --exclude=fs.rs; then
  echo "a second hash in hsfs: hash disk blocks with journal::block_hash; byte-wise fnv1a is state_digest's alone" >&2
  exit 1
fi

echo "==> scripts/perf_ab.sh parses (syntax only: host-speed A/Bs are too noisy for CI)"
bash -n scripts/perf_ab.sh

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
