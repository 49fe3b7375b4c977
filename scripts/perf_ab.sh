#!/usr/bin/env bash
# Same-host throughput gate for the detailed core. Builds the merge base of
# HEAD and <base-ref> in a git worktree, runs the perfbench `detailed`
# workload on it and on this checkout in 5 alternating pairs, and fails when
# this checkout's median minsts_per_s is below 0.80x the base's.
#
#   bash scripts/perf_ab.sh <base-ref>
#
# Run it from the root of the checkout; the history must reach the merge base
# (in CI, check out with fetch-depth: 0). Everything it builds and writes goes
# under .bench_build/perf_ab/.
#
# Threshold: perfbench/README.md "Known limits" measures the `detailed`
# workload's interquartile range at 0.10-0.14 of its median on a 2-vCPU host.
# A median over 5 pairs moves less than one run does, so a change with no cost
# stays above 0.80x, while a slowdown of a fifth or more fails.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: bash scripts/perf_ab.sh <base-ref>" >&2
	exit 2
fi
base="$(git merge-base HEAD "$1")"
root="$(pwd)"
work="$root/.bench_build/perf_ab"
mkdir -p "$work"
git worktree remove --force "$work/base" 2>/dev/null || true
git worktree add --detach "$work/base" "$base" >/dev/null
trap 'git -C "$root" worktree remove --force "$work/base"' EXIT

# measure DIR runs the workload in checkout DIR and prints its minsts_per_s.
measure() {
	local line
	line="$(cd "$1" && bash perfbench/run.sh --workload detailed --seed 1 --seconds 10 --trace 0 | tail -n 1)"
	jq -e '.failed == 0' >/dev/null <<<"$line" || {
		echo "perf_ab: golden gate failed in $1" >&2
		exit 1
	}
	jq -r '.metrics.minsts_per_s.value' <<<"$line"
}

base_runs=() head_runs=()
for pair in 1 2 3 4 5; do
	if [ $((pair % 2)) -eq 1 ]; then
		b="$(measure "$work/base")"
		h="$(measure "$root")"
	else
		h="$(measure "$root")"
		b="$(measure "$work/base")"
	fi
	base_runs+=("$b")
	head_runs+=("$h")
	echo "pair $pair: base $b  head $h Minst/s"
done

median() { printf '%s\n' "$@" | sort -g | sed -n 3p; }
mb="$(median "${base_runs[@]}")"
mh="$(median "${head_runs[@]}")"
echo "median minsts_per_s: base ${base:0:12} $mb, head $mh"
if awk -v h="$mh" -v b="$mb" 'BEGIN { exit !(h < 0.80 * b) }'; then
	echo "perf_ab: FAIL: head median is below 0.80x the base median" >&2
	exit 1
fi
echo "perf_ab: OK"
