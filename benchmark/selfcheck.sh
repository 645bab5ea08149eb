#!/usr/bin/env bash
# Does the benchmark agree with itself? Builds once, runs every workload
# in two alternating sets of three runs (A B A B A B) at the default
# seed, and prints per workload and metric both medians, their relative
# gap and the bound from BENCHMARK.json. Then runs every workload twice
# at a second seed to show that virtual metrics change with the seed and
# repeat exactly within it. Exits non-zero when a gap exceeds its bound,
# a virtual metric does not repeat, or a run reports a failed op.
#
#   bash benchmark/selfcheck.sh [outfile]      # default benchmark/BASELINE.md
#
# Takes about fifteen minutes. The committed BASELINE.md is this script's
# output on the reference box.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="${1:-benchmark/BASELINE.md}"
seed=20250613
other_seed=7
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
runs="benchmark/out/selfcheck"
rm -rf "$runs"
mkdir -p "$runs"

bash benchmark/build.sh
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/layerbench"

for w in $workloads; do
  for i in 1 2 3; do
    for set in a b; do
      echo "run $w set $set #$i" >&2
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -1 >"$runs/$w.$set.$i.json"
    done
  done
  for i in 1 2; do
    echo "run $w seed $other_seed #$i" >&2
    "$bin" --workload "$w" --seed "$other_seed" --seconds "$seconds" --trace 0 | tail -1 >"$runs/$w.s.$i.json"
  done
done

status=0
python3 - "$runs" "$seed" "$other_seed" "$seconds" >"$out" <<'EOF' || status=$?
import json, statistics, sys

runs, seed, other_seed, seconds = sys.argv[1:5]
manifest = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in manifest["end_to_end"]}
VIRTUAL = [n for n in bounds if n.startswith("virt_")]
failures = []

def load(w, tag, i):
    j = json.load(open(f"{runs}/{w}.{tag}.{i}.json"))
    if not j["correct"] or j["failed"] != 0:
        failures.append(f"{w} {tag}#{i}: correct={j['correct']} failed={j['failed']}")
    return {k: v["value"] for k, v in j["metrics"].items()}

print("# Self-check baseline")
print()
print(f"`bash benchmark/selfcheck.sh` on the reference box: seed {seed}, `--seconds {seconds}`, two")
print("alternating sets of three runs per workload. `gap` is how much worse set B's median")
print("is than set A's, as a share of A's (negative: better). Virtual metrics must agree to")
print("the last digit.")
print()
print("| workload | metric | unit | set A median | set B median | gap | bound | ok |")
print("|---|---|---|---|---|---|---|---|")
rows = []
for w in sorted(x["name"] for x in manifest["workloads"]):
    a = [load(w, "a", i) for i in (1, 2, 3)]
    b = [load(w, "b", i) for i in (1, 2, 3)]
    for name in sorted(bounds):
        m = bounds[name]
        ma = statistics.median(r[name] for r in a)
        mb = statistics.median(r[name] for r in b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        if name in VIRTUAL:
            ok = len({r[name] for r in a + b}) == 1
        else:
            ok = worse <= m["bound"]
        if not ok:
            failures.append(f"{w}/{name}: A {ma} B {mb} gap {worse:+.4f} bound {m['bound']}")
        rows.append(f"| {w} | {name} | {m['unit']} | {ma:.6g} | {mb:.6g} | {worse:+.2%} | {m['bound']:.0%} | {'yes' if ok else 'NO'} |")
print("\n".join(rows))
print()
print(f"## Seed {other_seed} against seed {seed}")
print()
print("Two runs at the second seed: virtual metrics repeat exactly within a seed and move")
print("with it.")
print()
print(f"| workload | metric | unit | seed {seed} | seed {other_seed} | repeats | moves |")
print("|---|---|---|---|---|---|---|")
for w in sorted(x["name"] for x in manifest["workloads"]):
    base = load(w, "a", 1)
    s = [load(w, "s", i) for i in (1, 2)]
    for name in sorted(VIRTUAL):
        repeats = s[0][name] == s[1][name]
        moves = s[0][name] != base[name]
        if not repeats:
            failures.append(f"{w}/{name}: seed {other_seed} gave {s[0][name]} then {s[1][name]}")
        print(f"| {w} | {name} | {bounds[name]['unit']} | {base[name]:.9g} | {s[0][name]:.9g} | {'yes' if repeats else 'NO'} | {'yes' if moves else 'no'} |")
    if all(s[0][n] == base[n] for n in VIRTUAL):
        failures.append(f"{w}: no virtual metric moved with the seed")
print()
if failures:
    print("## FAILED")
    print()
    for f in failures:
        print(f"- {f}")
    sys.exit(1)
print("All gaps within bounds.")
EOF
cat "$out"
exit $status
