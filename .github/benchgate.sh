#!/usr/bin/env bash
# benchgate.sh compares the cold 81-point explore benchmarks, the streaming
# fine and mixfine sweeps, the staged fine-space exploration, the Table I
# pipeline and the budgeted searches of HEAD against a base commit on the
# same machine, so the gate reads a regression of the change and not a
# difference between machines.
#
# Usage: bash .github/benchgate.sh <base-ref>
#
# The base commit is checked out into a temporary git worktree. Both sides'
# test binaries are built once, then BenchmarkExploreCold (one worker),
# BenchmarkExploreColdParallel (GOMAXPROCS workers),
# BenchmarkExploreStagedFine (the training set on the fine space with staged
# fidelity, fresh engine per iteration), BenchmarkExploreStreamFine (the
# training set on the fine space), BenchmarkExploreStreamMixFine (three
# networks on the mixfine space), BenchmarkPipeline (perfbench's pipeline
# operation: train and test on the fine space with staged fidelity) and
# BenchmarkSearchFine (perfbench explore's searches: anneal and genetic at a
# 5% budget on fine and mixfine) run ROUNDS times per side at a fixed
# iteration count: COLD_ITERS for the two cold explores, which take about
# 5 ms each, so one side's run lasts about half a second and host noise
# moves it less, and ITERS for the rest. A round
# runs the base and HEAD once each, alternating which side goes first, so
# both runs of a round see the same host speed. The verdict rests on those
# pairs: for each benchmark and unit the script takes each round's HEAD/base
# ratio and exits 1 when the median ratio is more than MAX_REGRESS above 1,
# or when either side lacks a benchmark. It prints both sides' medians, the
# median ratio and the ratio's quartiles.
#
# Because a benchmark the base commit lacks fails the gate, a new benchmark
# joins BENCHES one commit after the one that adds it; CI's bench smoke runs
# it until then.
set -euo pipefail

readonly MAX_REGRESS=0.25
readonly ROUNDS=5
readonly COLD_ITERS=100
readonly ITERS=20
readonly COLD="BenchmarkExploreCold BenchmarkExploreColdParallel"
readonly REST="BenchmarkExploreStagedFine BenchmarkExploreStreamFine BenchmarkExploreStreamMixFine BenchmarkPipeline BenchmarkSearchFine"
readonly BENCHES="$COLD $REST"

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

bench() { # bench <side> <dir> <iterations> <names>: one run of the named benchmarks, appended to <side>.txt
	(cd "$2" && "$work/$1.test" -test.run '^$' \
		-test.bench "^(${4// /|})\$" \
		-test.benchtime "$3x" -test.benchmem -test.timeout 10m) >>"$work/$1.txt"
}
run() { # run <side> <dir>: one round of every benchmark
	bench "$1" "$2" "$COLD_ITERS" "$COLD"
	bench "$1" "$2" "$ITERS" "$REST"
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

echo "benchgate: HEAD $(git -C "$root" rev-parse --short HEAD) vs base $(git -C "$root" rev-parse --short "$base"), $ROUNDS paired rounds"
awk -v benches="$BENCHES" -v rounds="$ROUNDS" -v max="$MAX_REGRESS" '
# sorted copies the n values of arr[1..n] into out[1..n] in ascending order.
function sorted(arr, n, out,    i, j, t) {
	for (i = 1; i <= n; i++) out[i] = arr[i]
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
}
# rank returns the p-quantile of the sorted values s[1..n] by nearest rank.
function rank(s, n, p,    k) {
	k = int(p * n + 0.999999)
	return s[k < 1 ? 1 : k]
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
	printf "%-30s %-10s %14s %14s %8s %19s\n", "benchmark", "unit", "base median", "head median", "ratio", "ratio quartiles"
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
			delete bv; delete hv; delete rv; delete bs; delete hs; delete rs
			for (r = 1; r <= rounds; r++) {
				bv[r] = val["base", name, unit, r]
				hv[r] = val["head", name, unit, r]
				rv[r] = bv[r] > 0 ? hv[r] / bv[r] : 1
			}
			sorted(bv, rounds, bs)
			sorted(hv, rounds, hs)
			sorted(rv, rounds, rs)
			ratio = rank(rs, rounds, 0.5)
			flag = ""
			if (ratio > 1 + max) { flag = "  REGRESSED"; fail = 1 }
			printf "%-30s %-10s %14.0f %14.0f %7.3fx %9.3f-%.3f%s\n", name, unit,
				rank(bs, rounds, 0.5), rank(hs, rounds, 0.5), ratio,
				rank(rs, rounds, 0.25), rank(rs, rounds, 0.75), flag
		}
	}
	if (fail) printf "benchgate: FAIL (bound: median HEAD/base ratio over the rounds at most %.2f)\n", 1 + max
	else printf "benchgate: ok (median HEAD/base ratio within %.0f%% on every benchmark)\n", 100 * max
	exit fail
}' side=base "$work/base.txt" side=head "$work/head.txt"
