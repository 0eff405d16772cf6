#!/usr/bin/env bash
# Alternating-pairs host-speed A/B of the working tree against a parent
# revision, on one perfbench workload.
#
#   bash scripts/perf_ab.sh <parent-rev> <workload> <seed> <pairs> [seconds]
#
# The parent revision is exported with `git archive` into a temporary
# directory (an interrupted run leaves nothing registered in .git) and
# both sides are built and run with the command BENCHMARK.json records,
# each from its own checkout root, so both pick up the root
# .cargo/config.toml the same way. Each pair runs the two sides back to
# back for `seconds` (default: BENCHMARK.json's run_seconds), and the
# side that runs first alternates from pair to pair. The script prints
# every pair's ops_per_s, op_p50_us, op_p99_us, setup_s, peak_rss_mib,
# sim_ms_per_op and ops timed (peak_rss_mib grows with the passes a run
# completes, since perfbench keeps every sample), then each side's
# median and quartiles of the first five and the number of pairs the
# working tree won on ops_per_s.
# It writes nothing under perfbench/ but the build output cargo keeps
# in perfbench/target.
#
# Host timings are noisy on shared machines; CI only syntax-checks
# this script. Set TMPDIR to choose where the parent checkout goes.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
  echo "usage: $0 <parent-rev> <workload> <seed> <pairs> [seconds]" >&2
  exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4
if [ -n "${RUSTFLAGS:-}" ]; then
  echo "RUSTFLAGS is set: it replaces .cargo/config.toml's flags, so the two builds would not match" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
seconds=${5:-$(jq -r '.run_seconds' "$root/BENCHMARK.json")}
mapfile -t cmd < <(jq -r '.command[]' "$root/BENCHMARK.json")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"

# Build both sides before the first timed run, each from its own root.
for side in "$work/parent" "$root"; do
  echo "==> building $side" >&2
  (cd "$side" && cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml)
done

# run <dir> <out>: one timed run; the last stdout line is the JSON result.
run() {
  (cd "$1" && "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    2>/dev/null | tail -n 1 >"$2")
}
metric() { jq -r ".metrics.$2.value" "$1"; }
metrics=(ops_per_s op_p50_us op_p99_us setup_s peak_rss_mib)

printf 'parent/change per pair\n%-4s %-6s' pair first
printf ' %21s' "${metrics[@]}"
echo ' sim_ms_per_op ops_timed'

wins=0
for ((i = 1; i <= pairs; i++)); do
  a=$work/parent.$i.json b=$work/change.$i.json
  if ((i % 2)); then
    first=parent
    run "$work/parent" "$a"
    run "$root" "$b"
  else
    first=change
    run "$root" "$b"
    run "$work/parent" "$a"
  fi
  for f in "$a" "$b"; do
    if [ "$(jq -r '.correct' "$f")" != true ] || [ "$(jq -r '.failed' "$f")" != 0 ]; then
      echo "pair $i: a run was not correct or had failed ops: $f" >&2
      cat "$f" >&2
      exit 1
    fi
  done
  line=$(printf '%-4s %-6s' "$i" "$first")
  for m in "${metrics[@]}"; do
    va=$(metric "$a" "$m") vb=$(metric "$b" "$m")
    echo "$va" >>"$work/$m.parent"
    echo "$vb" >>"$work/$m.change"
    line+=$(printf ' %21s' "$(printf '%.6g/%.6g' "$va" "$vb")")
  done
  oa=$(metric "$a" ops_per_s) ob=$(metric "$b" ops_per_s)
  awk -v a="$oa" -v b="$ob" 'BEGIN { exit !(b > a) }' && wins=$((wins + 1))
  sa=$(metric "$a" sim_ms_per_op) sb=$(metric "$b" sim_ms_per_op)
  if [ "$sa" = "$sb" ]; then line+=" $sa"; else line+=" $sa -> $sb (MOVED)"; fi
  echo "$line $(jq -r '.attempted' "$a")/$(jq -r '.attempted' "$b")"
done

# quartiles <file>: median, q1 and q3 by linear interpolation.
quartiles() {
  sort -g "$1" | awk '{ v[NR] = $1 }
    function q(p,  h, l) { h = 1 + (NR - 1) * p; l = int(h); return v[l] + (h - l) * (v[l + (l < NR)] - v[l]) }
    END { printf "median %.6g (q1 %.6g, q3 %.6g, IQR %.3g)", q(0.5), q(0.25), q(0.75), q(0.75) - q(0.25) }'
}
for m in "${metrics[@]}"; do
  echo "$m: parent $(quartiles "$work/$m.parent")  change $(quartiles "$work/$m.change")"
done
echo "change won $wins of $pairs pairs on ops_per_s ($workload, seed $seed, ${seconds} s runs, parent $rev)"
