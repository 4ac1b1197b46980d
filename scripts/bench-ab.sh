#!/usr/bin/env bash
# Same-host A/B of the benchmark (perfbench/): builds it from a base git
# ref and from this checkout, then for each workload in turn runs PAIRS
# interleaved pairs untraced, alternating which side goes first, and
# prints that workload's medians and quartile spreads (`perfbench -compare
# base head`) followed by every pair's grid_wall_s and sim_minst_per_s and
# the head's pair wins. WORKLOADS is one name or a comma-separated list,
# so one command shows whether any end-to-end metric got worse anywhere.
#
#   bash scripts/bench-ab.sh BASE WORKLOADS [PAIRS [SECONDS [SEED]]]
#   make bench-ab BASE=main~1 WORKLOAD=fig10-cold,warm-sweep,fabric-tcp PAIRS=10
#
# After the tables it prints the change's net line count against BASE
# (`git diff --shortstat`), once over all files and once over non-test .go
# files, for the PR description next to the A/B numbers. It counts tracked
# files only, so `git add` new files first.
#
# Run it from the repository root. The base sources (a `git archive` of
# BASE) and each side's build (its own CARGO_TARGET_DIR) live in a
# temporary directory under ${TMPDIR:-/tmp}, removed on exit; every run's
# output is kept in .bench_build/ab/<workload>-seed<N>/{base,head}.txt.
# A run that fails its correctness checks stops the comparison.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 BASE WORKLOADS [PAIRS [SECONDS [SEED]]]" >&2
	exit 2
fi
base_ref=$1 pairs=${3:-10} seconds=${4:-30} seed=${5:-0}
IFS=, read -r -a workloads <<<"$2"

root="$(pwd)"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base-src"
git archive "$base_ref" | tar -x -C "$tmp/base-src"

# run SIDE WORKLOAD: one untraced run of the side's perfbench, appended to
# SIDE.txt. perfbench/run.sh rebuilds only on the first call of each side.
run() {
	local src="$root"
	[ "$1" = base ] && src="$tmp/base-src"
	(cd "$src" && CARGO_TARGET_DIR="$tmp/$1-build" bash perfbench/run.sh \
		--workload "$2" --seed "$seed" --seconds "$seconds" --trace 0) | tee -a "$res/$1.txt" | tail -n 1
}

# value METRIC FILE: the metric's value in a run's final JSON line.
value() { sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p" "$2"; }

for workload in "${workloads[@]}"; do
	res="$root/.bench_build/ab/$workload-seed$seed"
	mkdir -p "$res"
	: >"$res/base.txt"
	: >"$res/head.txt"

	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
		for side in $order; do
			echo "$workload pair $i/$pairs: $side" >&2
			run "$side" "$workload" >"$tmp/$side-$i.json"
		done
	done

	echo "== $workload"
	"$tmp/head-build/perfbench" -compare "$res/base.txt" "$res/head.txt"

	echo
	printf '%-5s %14s %14s %16s %16s\n' pair base_wall_s head_wall_s base_minst_per_s head_minst_per_s
	wall_wins=0 rate_wins=0
	for i in $(seq 1 "$pairs"); do
		bw=$(value grid_wall_s "$tmp/base-$i.json") hw=$(value grid_wall_s "$tmp/head-$i.json")
		br=$(value sim_minst_per_s "$tmp/base-$i.json") hr=$(value sim_minst_per_s "$tmp/head-$i.json")
		printf '%-5s %14s %14s %16s %16s\n' "$i" "$bw" "$hw" "$br" "$hr"
		wall_wins=$((wall_wins + $(awk -v b="$bw" -v h="$hw" 'BEGIN { print (h < b) }')))
		rate_wins=$((rate_wins + $(awk -v b="$br" -v h="$hr" 'BEGIN { print (h > b) }')))
	done
	echo "head wins: grid_wall_s $wall_wins/$pairs, sim_minst_per_s $rate_wins/$pairs"
	echo
done

echo "net lines vs $base_ref:"
echo "  all files:          $(git diff --shortstat "$base_ref")"
echo "  non-test .go files: $(git diff --shortstat "$base_ref" -- '*.go' ':(exclude)*_test.go')"
