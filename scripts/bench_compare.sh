#!/usr/bin/env bash
# Deterministic bench-regression gate.
#
# Runs every bench in crates/bench (each prints one cost-model
# simulated-time table, exactly reproducible on any machine) and
# collects the per-row numbers emitted via BENCH_JSON_OUT into a JSON
# baseline:
#
#     { "<bench id>/<row label>": {"sim_ns":<n>}, ... }
#
# Rows are matched by the *structural* "bench" key of each emitted JSON
# line — labels are stable identifiers, and volatile observables
# (eviction counts, peak frames) travel in the separate "detail" field,
# which is carried into the baseline for humans but never participates
# in matching or comparison.
#
# If the baseline file BENCH_2.json is already committed, the row
# *sets* must match exactly in both directions — a baseline row with no
# current counterpart fails the gate, and so does a current row absent
# from the baseline (new rows must be committed deliberately by
# regenerating) — and a row that grew by more than 10 percent fails.
# The fresh results are then written to the baseline path — simulated
# time is deterministic, so the file only changes when the code's cost
# behavior actually changed, and `git diff` shows exactly which rows
# moved.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=BENCH_2.json
TOL=10

jsonl=$(mktemp)
new_json=$(mktemp)
trap 'rm -f "$jsonl" "$new_json"' EXIT

echo "==> running benches ..."
BENCH_JSON_OUT="$jsonl" cargo bench -q -p bench >/dev/null

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

# "key<TAB>sim_ns" pairs from a baseline-format JSON object.
parse() {
    awk -F'"' '/"sim_ns":/ {
        v = $0
        sub(/.*"sim_ns":/, "", v)
        sub(/[^0-9].*/, "", v)
        if ($2 != "" && v != "") print $2 "\t" v
    }' "$1"
}

if [ -f "$OUT" ]; then
    # Shape-check the committed baseline before comparing. A truncated,
    # hand-edited, or merge-mangled file would otherwise surface as a
    # confusing MISSING/NEW storm — or an abrupt `set -e` death with no
    # hint — so name the offending lines and the fix instead.
    bad=$(awk '
        /^[{}],?$/ { next }
        /^  "[^"]+": \{"sim_ns":[0-9]+(,"detail":"[^"]*")?\},?$/ { next }
        { printf "  line %d: %s\n", NR, $0 }' "$OUT")
    if ! [ -s "$OUT" ] || [ -n "$bad" ]; then
        echo "bench_compare: baseline $OUT is malformed (empty or unparseable rows):" >&2
        [ -n "$bad" ] && echo "$bad" | head -5 >&2
        echo "bench_compare: regenerate it with: rm $OUT && bash scripts/bench_compare.sh" >&2
        echo "bench_compare: then commit the regenerated baseline" >&2
        exit 1
    fi
    echo "==> comparing against $OUT (tolerance ${TOL}%)"
    status=0
    if ! awk -F'\t' -v tol="$TOL" '
        NR == FNR { base[$1] = $2; next }
        { cur[$1] = $2 }
        END {
            fail = 0
            for (k in base) {
                if (!(k in cur)) {
                    printf "MISSING   %s (baseline %s, no longer reported)\n", k, base[k]
                    fail = 1
                } else if (base[k] + 0 > 0 && cur[k] + 0 > base[k] * (1 + tol / 100)) {
                    printf "REGRESSED %s: %s -> %s (+%.1f%%)\n", k, base[k], cur[k], (cur[k] / base[k] - 1) * 100
                    fail = 1
                }
            }
            for (k in cur) {
                if (!(k in base)) {
                    printf "NEW       %s = %s (not in baseline)\n", k, cur[k]
                    fail = 1
                }
            }
            exit fail
        }' <(parse "$OUT") <(parse "$new_json"); then
        status=1
    fi
    if [ "$status" -ne 0 ]; then
        echo "bench_compare: FAILED (>${TOL}% regression, dropped row, or unbaselined row vs $OUT)" >&2
        echo "bench_compare: if intentional, regenerate with: rm $OUT && bash scripts/bench_compare.sh" >&2
        exit 1
    fi
    cp "$new_json" "$OUT"
    echo "bench_compare: OK ($(parse "$OUT" | wc -l) rows within ${TOL}%)"
else
    cp "$new_json" "$OUT"
    echo "bench_compare: baseline created at $OUT ($(parse "$OUT" | wc -l) rows); commit it"
fi
