#!/usr/bin/env bash
# abbench runs the benchmark (perfbench/run.sh) on a base revision and on
# the working tree as interleaved pairs and scores the pairs.
#
# Usage:
#   scripts/abbench.sh REV [WORKLOAD [SEED [SECONDS [PAIRS]]]]
#   scripts/abbench.sh --score FILE
#
# Defaults: WORKLOAD=churn SEED=1 SECONDS=50 PAIRS=10.
#
# The run mode snapshots REV (git archive) and the working tree (tracked
# and untracked, non-ignored files) into .bench_build/ab/, so edits made
# while it runs do not leak into it, and builds each snapshot with its
# own perfbench/run.sh. Pair i runs both sides with
# `--workload W --seed S --seconds N --trace 0`; the side that runs
# first alternates from pair to pair. Every pair is kept as one JSON line
# in .bench_build/ab/<run>/pairs.jsonl:
#
#   {"pair":1,"first":"base","workload":"churn","seed":1,"seconds":50,
#    "base_rev":"…","head_rev":"…","base":{perfbench result},"head":{…}}
#
# For every end-to-end metric of BENCHMARK.json the score prints the
# median per-pair ratio head/base, the pairs head won (k/N), the exact
# two-sided sign-test p over the untied pairs, and a 95% bootstrap
# interval of the median ratio. The run mode then appends one JSON line
# per (revs, workload, seed, metric) to BENCH_ab.jsonl; --score FILE
# scores recorded pairs and writes nothing.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

score() { # score PAIRS_FILE [APPEND_TO]
    python3 - "$root/BENCHMARK.json" "$@" <<'EOF'
import json, math, random, statistics, sys

bench_path, pairs_path = sys.argv[1], sys.argv[2]
append_to = sys.argv[3] if len(sys.argv) > 3 else None
metrics = json.load(open(bench_path))["end_to_end"]
pairs = [json.loads(l) for l in open(pairs_path) if l.strip()]
if not pairs:
    sys.exit("abbench: no pairs in " + pairs_path)
meta = pairs[0]

def sign_p(k, n):
    """Exact two-sided sign test: P(a split at least as uneven as k of n)."""
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(k, n - k) + 1)) / 2 ** n
    return min(1.0, 2 * tail)

def boot_ci(xs, reps=10000):
    rng = random.Random(1)  # fixed, so a rescore prints the same interval
    meds = sorted(statistics.median(rng.choices(xs, k=len(xs))) for _ in range(reps))
    return meds[int(0.025 * reps)], meds[int(0.975 * reps) - 1]

def side(p, s):
    r = p[s]
    return r.get("correct", True), r.get("failed", 0), r.get("attempted", 0)

print(f"abbench: {meta.get('workload')} seed {meta.get('seed')}, {len(pairs)} pairs, "
      f"base {meta.get('base_rev')} -> head {meta.get('head_rev')}")
for s in ("base", "head"):
    ok = all(side(p, s)[0] for p in pairs)
    failed = sum(side(p, s)[1] for p in pairs)
    att = sum(side(p, s)[2] for p in pairs)
    share = failed / att if att else 0.0
    print(f"  {s}: correct={str(ok).lower()} failed={failed}/{att} ({share:.2e})")
print(f"  {'metric':<16} {'median ratio':>12} {'wins':>6} {'sign p':>7} {'95% CI of median':>20} {'bound':>6}  verdict")
rows = []
for m in metrics:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    ratios = []
    for p in pairs:
        b = p["base"]["metrics"].get(name, {}).get("value")
        h = p["head"]["metrics"].get(name, {}).get("value")
        if b is None or h is None or b == 0:
            continue
        ratios.append(h / b)
    if not ratios:
        continue
    n = len(ratios)
    wins = sum(1 for r in ratios if (r > 1 if higher else r < 1))
    untied = sum(1 for r in ratios if r != 1)
    p = sign_p(wins, untied)
    med = statistics.median(ratios)
    lo, hi = boot_ci(ratios)
    # worse(r) > 0 when r is a regression; the bound is a relative change.
    worse = (lambda r: 1 - r) if higher else (lambda r: r - 1)
    if worse(med) > bound:
        verdict = "worse"
    elif max(worse(lo), worse(hi)) > bound:
        verdict = "unresolved"
    else:
        verdict = "ok"
    print(f"  {name:<16} {med:>12.4f} {wins:>3}/{n:<2} {p:>7.3f} {'[%.4f, %.4f]' % (lo, hi):>20} {bound:>6}  {verdict}")
    rows.append({
        "base_rev": meta.get("base_rev"), "head_rev": meta.get("head_rev"),
        "workload": meta.get("workload"), "seed": meta.get("seed"),
        "seconds": meta.get("seconds"), "pairs": n, "metric": name,
        "better": m["better"], "bound": bound, "median_ratio": round(med, 6),
        "wins": wins, "sign_p": round(p, 6), "ci95": [round(lo, 6), round(hi, 6)],
        "verdict": verdict,
        "correct": all(side(q, "base")[0] and side(q, "head")[0] for q in pairs),
    })
if append_to:
    with open(append_to, "a") as f:
        for r in rows:
            f.write(json.dumps(r, sort_keys=True) + "\n")
    print(f"abbench: appended {len(rows)} lines to {append_to}")
EOF
}

if [[ "${1:-}" == "--score" ]]; then
    score "${2:?usage: scripts/abbench.sh --score FILE}"
    exit 0
fi

rev="${1:?usage: scripts/abbench.sh REV [WORKLOAD [SEED [SECONDS [PAIRS]]]] | --score FILE}"
workload="${2:-churn}"
seed="${3:-1}"
seconds="${4:-50}"
npairs="${5:-10}"

base_rev=$(git rev-parse --short "$rev")
head_rev="$(git rev-parse --short HEAD)+worktree"
run="$(date -u +%Y%m%dT%H%M%SZ)-$base_rev-$workload-s$seed"
dir="$root/.bench_build/ab/$run"
mkdir -p "$dir/base" "$dir/head"

git archive "$base_rev" | tar -x -C "$dir/base"
# Tracked and untracked files, less those deleted from the work tree.
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
    tar --null -T - -c | tar -x -C "$dir/head"

# One side's run: prints the JSON result line, or exits the script.
bench() { # bench SIDE
    local log="$dir/$1.log"
    local out
    out=$(cd "$dir/$1" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>>"$log" | tail -n 1) || {
        echo "abbench: $1 run failed; see $log" >&2
        exit 1
    }
    printf '%s' "$out"
}

pairs="$dir/pairs.jsonl"
for i in $(seq 1 "$npairs"); do
    if ((i % 2)); then first=base second=head; else first=head second=base; fi
    declare -A res=()
    res[$first]=$(bench "$first")
    res[$second]=$(bench "$second")
    printf '{"pair":%d,"first":"%s","workload":"%s","seed":%d,"seconds":%d,"base_rev":"%s","head_rev":"%s","base":%s,"head":%s}\n' \
        "$i" "$first" "$workload" "$seed" "$seconds" "$base_rev" "$head_rev" \
        "${res[base]}" "${res[head]}" >>"$pairs"
    echo "abbench: pair $i/$npairs done ($first first)" >&2
    unset res
done

score "$pairs" "$root/BENCH_ab.jsonl"
