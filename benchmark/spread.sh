#!/usr/bin/env bash
# How steady is the benchmark across seeds? Runs every workload ten times,
# each time with another seed, and prints for each end-to-end metric the
# distance between the first and third quartile of its ten values
# (statistics.quantiles(values, n=4)) as a share of their median, beside
# the bound from BENCHMARK.json. The driver accepts the benchmark only
# while every spread except setup_s's stays within its bound; the aim is
# a third of the bound. Exits non-zero when a spread exceeds its bound.
#
#   bash benchmark/spread.sh [outfile] [first-seed]   # default benchmark/SPREAD.md, seeds 1..10
#
# Takes about eighteen minutes.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="${1:-benchmark/SPREAD.md}"
first="${2:-1}"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
runs="benchmark/out/spread"
rm -rf "$runs"
mkdir -p "$runs"

bash benchmark/build.sh
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/layerbench"

for w in $workloads; do
  for ((s = first; s < first + 10; s++)); do
    echo "run $w seed $s" >&2
    "$bin" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 | tail -1 >"$runs/$w.$s.json"
  done
done

status=0
python3 - "$runs" "$first" "$seconds" >"$out" <<'EOF' || status=$?
import glob, json, statistics, sys

runs, first, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3]
manifest = json.load(open("BENCHMARK.json"))
failures = []
print("# Spread across seeds")
print()
print(f"`bash benchmark/spread.sh` on the reference box: seeds {first}..{first + 9}, `--seconds {seconds}`.")
print("`spread` is the distance between the first and third quartile of the ten values as a")
print("share of their median; a spread above a third of its bound is marked `*`, one above")
print("the bound `NO`. `setup_s` is exempt from the bound on spread.")
print()
print("| workload | metric | unit | median | min | max | spread | bound | ok |")
print("|---|---|---|---|---|---|---|---|---|")
for w in sorted(x["name"] for x in manifest["workloads"]):
    rows = []
    for f in sorted(glob.glob(f"{runs}/{w}.*.json")):
        j = json.load(open(f))
        if not j["correct"] or j["failed"] != 0:
            failures.append(f"{f}: correct={j['correct']} failed={j['failed']}")
        rows.append({k: v["value"] for k, v in j["metrics"].items()})
    for m in sorted(manifest["end_to_end"], key=lambda m: m["name"]):
        vals = [r[m["name"]] for r in rows]
        q = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q[2] - q[0]) / med
        if len(set(vals)) == 1:
            failures.append(f"{w}/{m['name']}: reads {vals[0]} on every run")
        mark = "yes" if spread < m["bound"] / 3 else "*" if spread <= m["bound"] else "NO"
        if mark == "NO" and m["name"] != "setup_s":
            failures.append(f"{w}/{m['name']}: spread {spread:.4f} above bound {m['bound']}")
        print(f"| {w} | {m['name']} | {m['unit']} | {med:.6g} | {min(vals):.6g} | {max(vals):.6g} | {spread:.3%} | {m['bound']:.0%} | {mark} |")
print()
if failures:
    print("## FAILED")
    print()
    for f in failures:
        print(f"- {f}")
    sys.exit(1)
print("Every spread within its bound.")
EOF
cat "$out"
exit $status
