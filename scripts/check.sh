#!/usr/bin/env bash
# The full offline gate: everything CI runs, runnable on a laptop with
# no network (the workspace has no external dependencies by design —
# see DESIGN.md §7).
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints each non-comment line of struct $2 in file $1 that matches regex $3; succeeds if any.
struct_has() {
  awk -v s="$2" -v re="$3" '$0 ~ ("^(pub[^ ]* )?struct " s " \\{") {i=1; next} i && /^\}/ {i=0}
      i && !/^ *\/\// && $0 ~ re {print FILENAME":"FNR": "$0; bad=1} END{exit !bad}' "$1"
}
fail() { echo "$1" >&2; exit 1; }

# Rules a lint can hold are in crates/clippy.toml (the clippy step below); these guard the rest.

echo "==> World keeps one map keyed by pid (per-process state lives in its runtime record)"
# Clippy bans paths, not a key type in one struct's fields.
[ "$(grep -cE '(HashMap|BTreeMap)<Pid' crates/core/src/world.rs)" -gt 1 ] \
  && grep -nE '(HashMap|BTreeMap)<Pid' crates/core/src/world.rs \
  && fail "a second pid-keyed map in World: add the field to ProcRuntime, which the kernel's fork/exit journal creates and reaps"

echo "==> one decoded-block table (keyed by text source: no block map or drop journal in an address space)"
# No lint bans a field type in one struct only (clippy.toml holds the journal's one reader).
grep -rnE 'BbCache|BbStats|exited_bb|reaped_bb' crates/{core,hkernel,hlink,hvm}/src \
  || struct_has crates/hkernel/src/mem.rs AddressSpace '(Instr|BlockTable|BbInvalidation|Map<)' \
  && fail "a second block structure or drop journal: key blocks by text source in the kernel's BlockTable and journal drops there"

echo "==> the linker keeps one set of totals (nothing per process to fold)"
# LdlStats is World's type; only its place as a LinkState field is banned.
struct_has crates/hlink/src/ldl.rs LinkState LdlStats \
  || grep -rnE 'reaped_ldl|\.absorb\(|\.accumulate\(' crates/{core,hkernel,hlink,hvm}/src \
  && fail "a per-process linker counter set is back: count in World's LdlStats"

echo "==> the memory layer counts once (TLB/COW totals in KernelStats, pressure counters from record tallies)"
# A counter is a field name, not a path clippy could ban.
struct_has crates/hkernel/src/mem.rs AddressSpace '^ *(pub )?stats:' \
  || struct_has crates/hkernel/src/mem.rs PoolInner '^ *(evictions|writebacks|swap_outs|swap_ins|oom_kills):' \
  || grep -rnE 'fold_counters|MemStats' crates/hkernel/src \
  && fail "a per-space or pool-side counter is back: count TLB/COW in the kernel's KernelStats, read pressure from the trace tallies"

echo "==> hsfs has one block hash (journal::block_hash) and one digest hash (fs.rs's private byte-wise fnv1a)"
# A constant is a value, not a path: clippy cannot ban the FNV prime.
awk '/^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/{f=$0; sub(/^ *(pub(\([a-z]+\))? )?fn /, "", f); sub(/[^a-z_0-9].*/, "", f)}
    /0x[0-9a-fA-F_]*01[bB]3/ && !(FILENAME ~ /journal\.rs$/ && f == "block_hash") && !(FILENAME ~ /\/fs\.rs$/ && f == "fnv1a") {print FILENAME":"FNR": "$0; bad=1}
    END{exit !bad}' crates/hsfs/src/*.rs \
  && fail "a second hash in hsfs: hash disk blocks with journal::block_hash; byte-wise fnv1a is state_digest's alone"

echo "==> one CRC-32 routine (hobj::binfmt::crc32): no CRC polynomial or table elsewhere in crates/, no unsafe in hobj"
# Clippy cannot ban a value. A hex literal is compared with its underscores
# and leading zeros dropped: the reflected and normal IEEE polynomials and
# the first non-zero entry of the byte table; a 256-entry u32 array is a table.
! find crates -name '*.rs' ! -path crates/hobj/src/binfmt.rs -print0 | xargs -0 awk '
        { rest = $0
          while (match(rest, /0[xX][0-9a-fA-F_]+/)) {
            lit = tolower(substr(rest, RSTART + 2, RLENGTH - 2)); gsub(/_/, "", lit); sub(/^0+/, "", lit)
            if (lit == "edb88320" || lit == "4c11db7" || lit == "77073096") { print FILENAME":"FNR": "$0; bad = 1 }
            rest = substr(rest, RSTART + RLENGTH)
          } }
        /\[u32; *256\]/ { print FILENAME":"FNR": "$0; bad = 1 }
        END { exit bad }' \
  || ! grep -q '^#!\[forbid(unsafe_code)\]' crates/hobj/src/lib.rs \
  && fail "a second CRC-32 (or unsafe code in hobj): checksum with hobj::binfmt::crc32"

echo "==> boot builds no paths and fsck does not probe the priced table"
# Clippy bans a method everywhere, not in one function. The boot scan classifies
# files by FileSystem::top_name; fsck reads SharedFs::table_inos (its tests may probe).
awk '/fn boot_scan\(/{b=1} b && /path_of\(/{print FILENAME":"FNR": "$0; bad=1} b && /^    \}$/{b=0}
    END{exit !bad}' crates/hsfs/src/shared.rs \
  || awk '/^ *#\[cfg\(test\)\]/{t=1; next} t && /^}/{t=0; next} t && /^[^ ].*;$/{t=0; next}
      !t && /addr_to_ino\(/{print FILENAME":"FNR": "$0; bad=1} END{exit !bad}' crates/hsfs/src/tools.rs \
  && fail "a path built in SharedFs::boot_scan or a priced probe in fsck: classify by FileSystem::top_name, read SharedFs::table_inos"

echo "==> cargo clippy -- -D warnings (with crates/clippy.toml's rules: a broken rule fails here, before the long suites)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> scripts/perf_ab.sh parses (syntax only: host-speed A/Bs are too noisy for CI)"
bash -n scripts/perf_ab.sh

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> bench gate (every BENCH_2.json row and every rendered EXPERIMENTS.md table exact: seconds once built, before the long suites)"
bash scripts/bench_compare.sh

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

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "All checks passed."
