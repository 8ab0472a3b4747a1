#!/usr/bin/env bash
# benchgate.sh compares the cold 81-point explore benchmarks and the staged
# fine-space exploration of HEAD against a base commit on the same machine, so
# the gate reads a regression of the change and not a difference between
# machines.
#
# Usage: bash .github/benchgate.sh <base-ref>
#
# The base commit is checked out into a temporary git worktree. Both sides'
# test binaries are built once, then BenchmarkExploreCold (one worker),
# BenchmarkExploreColdParallel (GOMAXPROCS workers) and
# BenchmarkExploreStagedFine (the training set on the fine space with staged
# fidelity, fresh engine per iteration) run ROUNDS times per side at a fixed
# iteration count, alternating which side runs first. The script
# prints the median ns/op and allocs/op of each side and exits 1 when a HEAD
# median is more than MAX_REGRESS above the base median, or when either side
# lacks a benchmark.
set -euo pipefail

readonly MAX_REGRESS=0.25
readonly ROUNDS=5
readonly BENCHES="BenchmarkExploreCold BenchmarkExploreColdParallel BenchmarkExploreStagedFine"

base_ref=${1:?usage: benchgate.sh <base-ref>}
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$base_ref^{commit}")
work=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true
	rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$work/base" "$base"

(cd "$work/base" && go test -c -o "$work/base.test" .)
(cd "$root" && go test -c -o "$work/head.test" .)

run() { # run <side> <dir>: one round of both benchmarks, appended to <side>.txt
	(cd "$2" && "$work/$1.test" -test.run '^$' \
		-test.bench "^(${BENCHES// /|})\$" \
		-test.benchtime 20x -test.benchmem -test.timeout 10m) >>"$work/$1.txt"
}
for ((r = 0; r < ROUNDS; r++)); do
	if ((r % 2 == 0)); then
		run base "$work/base"
		run head "$root"
	else
		run head "$root"
		run base "$work/base"
	fi
done

echo "benchgate: HEAD $(git -C "$root" rev-parse --short HEAD) vs base $(git -C "$root" rev-parse --short "$base"), median of $ROUNDS rounds"
awk -v benches="$BENCHES" -v rounds="$ROUNDS" -v max="$MAX_REGRESS" '
# median sorts the values recorded for one side, benchmark and unit.
function median(side, name, unit,    n, i, j, v, t) {
	n = runs[side, name]
	for (i = 1; i <= n; i++) v[i] = val[side, name, unit, i]
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	return v[int((n + 1) / 2)]
}
$1 ~ /^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	k = ++runs[side, name]
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") val[side, name, "ns/op", k] = $i + 0
		if ($(i + 1) == "allocs/op") val[side, name, "allocs/op", k] = $i + 0
	}
}
END {
	printf "%-30s %-10s %14s %14s %8s\n", "benchmark", "unit", "base", "head", "delta"
	fail = 0
	nb = split(benches, names, " ")
	for (b = 1; b <= nb; b++) {
		name = names[b]
		if (runs["base", name] != rounds || runs["head", name] != rounds) {
			printf "benchgate: %s ran %d times at base and %d at HEAD, want %d each\n",
				name, runs["base", name], runs["head", name], rounds
			fail = 1
			continue
		}
		for (u = 1; u <= 2; u++) {
			unit = (u == 1 ? "ns/op" : "allocs/op")
			bm = median("base", name, unit)
			hm = median("head", name, unit)
			flag = ""
			if (hm > bm * (1 + max)) { flag = "  REGRESSED"; fail = 1 }
			printf "%-30s %-10s %14.0f %14.0f %+7.1f%%%s\n", name, unit, bm, hm, 100 * (hm - bm) / bm, flag
		}
	}
	if (fail) printf "benchgate: FAIL (bound: HEAD median at most %.0f%% above base)\n", 100 * max
	else printf "benchgate: ok (HEAD median within %.0f%% of base on every benchmark)\n", 100 * max
	exit fail
}' side=base "$work/base.txt" side=head "$work/head.txt"
