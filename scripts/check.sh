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

echo "==> one decoded-block table (keyed by text source: no block map in an address space, no journal to collect per process)"
# The table's journal is the only one: BbInvalidation lives in
# hvm/src/bbcache.rs, and a BlockInvalidated record is made only where
# the kernel drains that journal (patterns that match one are fine).
if grep -rnE 'BbCache|BbStats|exited_bb|reaped_bb' crates/{core,hkernel,hlink,hvm}/src \
  || awk '/^pub struct AddressSpace \{/{s=1} s && !/^ *\/\// && /(Instr|BlockTable|Map<)/{print FILENAME":"FNR": "$0; bad=1} /^\}/{s=0} END{exit !bad}' \
    crates/hkernel/src/mem.rs \
  || find crates/{core,hkernel,hlink,hvm}/src -name '*.rs' ! -path crates/hvm/src/bbcache.rs ! -path crates/hkernel/src/event.rs -print0 \
    | xargs -0 awk 'FNR == 1 {f = ""} /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/{f=$0; sub(/^ *(pub(\([a-z]+\))? )?fn /, "", f); sub(/[^a-z_0-9].*/, "", f)}
        !/^ *(\/\/|pub use )/ && (/BbInvalidation/ || (/BlockInvalidated \{/ && !/\.\./)) && f != "drain_bb_events" {print FILENAME":"FNR": "$0; bad=1}
        END{exit !bad}'; then
  echo "a second block structure or drop journal: key blocks by text source in the kernel's BlockTable and journal drops there" >&2
  exit 1
fi

echo "==> the linker keeps one set of totals (nothing per process to fold)"
if awk '/^pub struct LinkState \{/{s=1} s && !/^ *\/\// && /LdlStats/{print FILENAME":"FNR": "$0; bad=1} /^\}/{s=0} END{exit !bad}' \
  crates/hlink/src/ldl.rs \
  || grep -rnE 'reaped_ldl|\.absorb\(|\.accumulate\(' crates/{core,hkernel,hlink,hvm}/src; then
  echo "a per-process linker counter set is back: count in World's LdlStats" >&2
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

echo "==> one CRC-32 routine (hobj::binfmt::crc32): no CRC polynomial or table elsewhere in crates/, no unsafe in hobj"
# A hex literal is compared with its underscores and leading zeros
# dropped: the reflected and normal IEEE polynomials and the first
# non-zero entry of the byte table; a 256-entry u32 array is a table.
if ! find crates -name '*.rs' ! -path crates/hobj/src/binfmt.rs -print0 | xargs -0 awk '
        { rest = $0
          while (match(rest, /0[xX][0-9a-fA-F_]+/)) {
            lit = tolower(substr(rest, RSTART + 2, RLENGTH - 2)); gsub(/_/, "", lit); sub(/^0+/, "", lit)
            if (lit == "edb88320" || lit == "4c11db7" || lit == "77073096") { print FILENAME":"FNR": "$0; bad = 1 }
            rest = substr(rest, RSTART + RLENGTH)
          } }
        /\[u32; *256\]/ { print FILENAME":"FNR": "$0; bad = 1 }
        END { exit bad }' \
  || ! grep -q '^#!\[forbid(unsafe_code)\]' crates/hobj/src/lib.rs; then
  echo "a second CRC-32 (or unsafe code in hobj): checksum with hobj::binfmt::crc32" >&2
  exit 1
fi

echo "==> boot builds no paths and fsck does not probe the priced table"
# The boot scan classifies files by top-level name (FileSystem::top_name);
# fsck reads SharedFs::table_inos. Test code in tools.rs may probe.
if awk '/fn boot_scan\(/{b=1} b && /path_of\(/{print FILENAME":"FNR": "$0; bad=1} b && /^    \}$/{b=0}
        END{exit !bad}' crates/hsfs/src/shared.rs \
  || awk '/^ *#\[cfg\(test\)\]/{t=1; next} t && /^}/{t=0; next} t && /^[^ ].*;$/{t=0; next}
          !t && /addr_to_ino\(/{print FILENAME":"FNR": "$0; bad=1} END{exit !bad}' crates/hsfs/src/tools.rs; then
  echo "a path built in SharedFs::boot_scan or a priced probe in fsck: classify by FileSystem::top_name, read SharedFs::table_inos" >&2
  exit 1
fi

echo "==> the disk twin shares the live tree's inodes (slots hold Arcs; advisory locks live in FileSystem::locks)"
# A lock in the inode would un-share it from the twin on every
# try_lock/unlock, and inodes held by value make each re-twin a deep copy.
if awk '/^(pub(\([a-z]+\))? )?struct Inode \{/{i=1} i && !/^ *\/\// && /^ *(pub(\([a-z]+\))? )?lock *:/{print FILENAME":"FNR": "$0; bad=1}
        /^(pub(\([a-z]+\))? )?struct FileSystem \{/{f=1} f && !/^ *\/\// && /^ *(pub(\([a-z]+\))? )?slots *: *Vec *< *Option *< *Inode *>/{print FILENAME":"FNR": "$0; bad=1}
        /^\}/{i=0; f=0} END{exit !bad}' crates/hsfs/src/fs.rs; then
  echo "a lock field in Inode or inodes held by value in FileSystem::slots: keep locks in FileSystem::locks and slots as Option<Arc<Inode>>" >&2
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
