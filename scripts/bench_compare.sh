#!/usr/bin/env bash
# Deterministic bench gate: the one place simulated numbers reach the
# repository.
#
# Runs every bench in crates/bench. Each prints its cost-model
# simulated-time table to stderr as markdown under an `=== ID: title ===`
# line (`bench::report_detailed`), and appends its rows to BENCH_JSON_OUT,
# which this script sorts into one JSON baseline:
#
#     { "<bench id>/<row label>": {"sim_ns":<n>[,"detail":"<d>"]}, ... }
#
# Simulated time is exactly reproducible on any machine, so the gate is
# exact. With BENCH_2.json committed it writes nothing and fails if
#   - the fresh baseline differs from BENCH_2.json in any byte: a row
#     whose sim_ns moved by 1 ns, a dropped row or a new one; or
#   - EXPERIMENTS.md, with each bench's table spliced between
#     `<!-- bench:ID -->` and `<!-- /bench -->`, differs from the
#     committed file.
# Without BENCH_2.json it writes both files, so the regeneration is
# `rm BENCH_2.json && bash scripts/bench_compare.sh`, and `git diff`
# shows exactly which rows and cells moved.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=BENCH_2.json
DOC=EXPERIMENTS.md

jsonl=$(mktemp)
tables=$(mktemp)
new_json=$(mktemp)
new_doc=$(mktemp)
trap 'rm -f "$jsonl" "$tables" "$new_json" "$new_doc"' EXIT

echo "==> running benches ..."
if ! BENCH_JSON_OUT="$jsonl" cargo bench -q -p bench 2>"$tables" >/dev/null; then
    cat "$tables" >&2
    exit 1
fi

if ! [ -s "$jsonl" ]; then
    echo "bench_compare: benches emitted no rows" >&2
    exit 1
fi

# JSON-lines -> one sorted JSON object of per-row objects. Each input
# line is {"bench":"K","sim_ns":N[,"detail":"D"]}; split on '"' that
# makes the key $4, the detail (when present) $10.
LC_ALL=C sort "$jsonl" | awk -F'"' '
    {
        v = $0
        sub(/.*"sim_ns":/, "", v)
        sub(/[^0-9].*/, "", v)
        n += 1
        keys[n] = $4
        vals[n] = v
        dets[n] = ($8 == "detail") ? $10 : ""
    }
    END {
        print "{"
        for (i = 1; i <= n; i++) {
            line = "  \"" keys[i] "\": {\"sim_ns\":" vals[i]
            if (dets[i] != "")
                line = line ",\"detail\":\"" dets[i] "\""
            line = line "}" (i < n ? "," : "")
            print line
        }
        print "}"
    }' > "$new_json"

# EXPERIMENTS.md with each bench's table (the `|` lines under its
# `=== ID: title ===` line) between that id's markers. Every table needs
# a marker, and every marker a table and a closing marker.
awk -v doc="$DOC" '
    NR == FNR {
        if (/^=== /) { id = $2; sub(/:$/, "", id) } else if (/^\|/) table[id] = table[id] $0 "\n"
        next
    }
    /^<!-- \/bench -->$/ { inside = 0 }
    inside { next }
    { print }
    /^<!-- bench:[^ ]+ -->$/ {
        id = $2; sub(/^bench:/, "", id)
        if (!(id in table)) { print "bench_compare: no bench prints table " id > "/dev/stderr"; bad = 1 }
        printf "%s", table[id]
        used[id] = 1
        inside = 1
    }
    END {
        for (id in table) if (!(id in used)) { print "bench_compare: no <!-- bench:" id " --> marker in " doc > "/dev/stderr"; bad = 1 }
        if (inside) { print "bench_compare: a <!-- bench:ID --> marker is never closed in " doc > "/dev/stderr"; bad = 1 }
        exit bad
    }' "$tables" "$DOC" > "$new_doc"

if [ -f "$OUT" ]; then
    echo "==> comparing against $OUT and $DOC (exact)"
    status=0
    diff -u --label "$OUT (committed)" --label "$OUT (benches)" "$OUT" "$new_json" || status=1
    diff -u --label "$DOC (committed)" --label "$DOC (benches)" "$DOC" "$new_doc" || status=1
    if [ "$status" -ne 0 ]; then
        echo "bench_compare: FAILED (a simulated row or a rendered table differs; '-' is committed, '+' is what the benches print)" >&2
        echo "bench_compare: if intentional, regenerate both with: rm $OUT && bash scripts/bench_compare.sh" >&2
        exit 1
    fi
    echo "bench_compare: OK ($(grep -c '"sim_ns"' "$OUT") rows and every $DOC table exact)"
else
    cp "$new_json" "$OUT"
    cp "$new_doc" "$DOC"
    echo "bench_compare: wrote $OUT ($(grep -c '"sim_ns"' "$OUT") rows) and $DOC's tables; commit both"
fi
