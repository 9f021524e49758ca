#!/usr/bin/env bash
# A/B of the repository benchmark: the checkout this script is in against
# another commit, in interleaved pairs.
#
#   scripts/ab.sh <ref> [pairs] [seed0] [workload...]
#
# <ref> is exported with `git archive` into .bench_build/ab/<sha>/ and its
# benchmark built there. For each workload (default: every one in
# BENCHMARK.json) and pair i, both sides run `benchmark/run.sh -workload W
# -seed seed0+i -seconds 24 -trace 0`, the ref first on even i and this
# checkout first on odd i: the host drifts over minutes, so only pairs run
# back to back compare. Every run's JSON line goes to
# .bench_build/ab/runs-<time>.jsonl; the table printed last gives, per
# workload and end-to-end metric, each side's median and quartiles, the
# ratio of the medians (this checkout over the ref), the pairs this checkout
# won, and a verdict against the metric's bound in BENCHMARK.json; for the
# wall-clock metrics, which the benchmark scales by a reference it times
# beside the ops, "raw" is the ratio of the medians as measured:
#
#   moves       it won at least 9 of 10 pairs and the medians differ by
#               more than the ref's interquartile range;
#   holds       its median is within the bound of the ref's, and both
#               sides' spread is inside the bound;
#   worse       its median is worse than the ref's by more than the bound;
#   unresolved  the spread is wider than the bound, or fewer than ten
#               pairs ran and it would read moves or worse.
set -euo pipefail
ref=${1:?usage: scripts/ab.sh <ref> [pairs] [seed0] [workload...]}
pairs=${2:-10}
seed0=${3:-101}
shift $(( $# < 3 ? $# : 3 ))
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
base="$root/.bench_build/ab/$sha"
if [ ! -f "$base/BENCHMARK.json" ]; then
	mkdir -p "$base"
	git -C "$root" archive "$sha" | tar -x -C "$base"
fi
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	mapfile -t workloads < <(python3 -c 'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' "$root/BENCHMARK.json")
fi
out="$root/.bench_build/ab/runs-$(date +%Y%m%d-%H%M%S).jsonl"
run() { # side dir workload seed
	local res raw
	res=$(bash "$2/benchmark/run.sh" -workload "$3" -seed "$4" -seconds 24 -trace 0)
	raw=$(sed -n 's/.*as measured: //p' <<<"$res" | tail -n 1 |
		awk '{printf "{"; for (i = 1; i < NF; i += 2) printf "%s\"%s\":%s", (i > 1 ? "," : ""), $i, $(i + 1); printf "}"}')
	printf '{"side":"%s","workload":"%s","seed":%s,"raw":%s,"run":%s}\n' "$1" "$3" "$4" "${raw:-{\}}" "$(tail -n 1 <<<"$res")" >>"$out"
}
for w in "${workloads[@]}"; do
	for ((i = 0; i < pairs; i++)); do
		s=$((seed0 + i))
		echo "ab: $w seed $s ($((i + 1))/$pairs)" >&2
		if ((i % 2 == 0)); then
			run ref "$base" "$w" "$s"
			run new "$root" "$w" "$s"
		else
			run new "$root" "$w" "$s"
			run ref "$base" "$w" "$s"
		fi
	done
done
echo "ab: runs in $out" >&2
python3 - "$root/BENCHMARK.json" "$out" "$ref" <<'PY'
import json, statistics, sys

bench, runs, ref = json.load(open(sys.argv[1])), [json.loads(l) for l in open(sys.argv[2])], sys.argv[3]

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

print(f"{'workload':16} {'metric':16} {'ref median [q1, q3]':>30} {'new median [q1, q3]':>30} {'new/ref':>8} {'raw':>6} {'wins':>6}  verdict")
for w in [x["name"] for x in bench["workloads"]]:
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        pair = {}
        for r in runs:
            if r["workload"] == w and name in r["run"].get("metrics", {}):
                pair.setdefault(r["seed"], {})[r["side"]] = r["run"]["metrics"][name]["value"]
        pair = [p for p in pair.values() if len(p) == 2]
        if not pair:
            continue
        a, b = [p["ref"] for p in pair], [p["new"] for p in pair]
        qa, qb = quartiles(a), quartiles(b)
        better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
        wins = sum(better(p["new"], p["ref"]) for p in pair)
        ma, mb = qa[1], qb[1]
        ratio = mb / ma if ma else float("inf") if mb else 1.0
        raw = {s: [r["raw"][name] for r in runs if r["workload"] == w and r["side"] == s and name in r.get("raw", {})] for s in ("ref", "new")}
        raw = f"{statistics.median(raw['new']) / statistics.median(raw['ref']):6.3f}" if raw["ref"] and raw["new"] else f"{'':6}"
        worse = (mb - ma if lower else ma - mb) > bound * abs(ma)
        spread = max(qa[2] - qa[0], qb[2] - qb[0]) > bound * abs(ma)
        if len(pair) >= 10 and 10 * wins >= 9 * len(pair) and abs(mb - ma) > qa[2] - qa[0]:
            verdict = "moves"
        elif worse:
            verdict = "worse" if len(pair) >= 10 else "unresolved"
        elif spread and not all(better(y, x) for x in a for y in b):
            verdict = "unresolved"
        else:
            verdict = "holds"
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"{w:16} {name:16} {fmt(qa):>30} {fmt(qb):>30} {ratio:8.3f} {raw} {wins:>3}/{len(pair):<2}  {verdict}")
print(f"ref = {ref}; new = this checkout; {len(runs)} runs")
PY
