#!/bin/sh
# bench_gate.sh — benchmark regression gate.
#
# Runs every benchmark in the GATES table BENCH_GATE_RUNS times, keeps
# the best run (best-of-N tempers scheduler noise), and compares it
# against the most recent entry for that benchmark in its checked-in
# trajectory file. It FAILS when any gate's best run is past its
# threshold, a ratio of that baseline. Run by the CI bench-gate job on
# every PR and mirrored locally by `make ci`.
#
# The gates:
# - BenchmarkSweep: price-sweep rows/sec must stay at or above 75% of
#   the baseline.
# - BenchmarkServeMixed: serve-stack ns/op must stay within 2x. The
#   looser threshold catches the handler stack falling off a cliff, not
#   10% mux noise; 1000 iterations amortize mux warmup without the full
#   1s recording run.
# - BenchmarkCollectivePlan: collective-planner ns/op within 2x, at 100
#   iterations.
# - BenchmarkCollectiveSweep: words-law collective-sweep rows/sec at or
#   above 75%. This keeps words-axis collective sweeps sub-linear (laws
#   engaged): falling back to per-cell evaluation drops throughput by
#   two orders of magnitude. Its engine reference
#   (BenchmarkCollectiveSweepEngine) is recorded for the trajectory but
#   not gated.
#
# Intentional regressions (e.g. a correctness fix that costs
# throughput): apply the `bench-regression-ok` label to the PR — the CI
# job maps it to ALLOW_BENCH_REGRESSION=1, which downgrades every gate
# failure to a warning — and record the new baseline with
# `make bench-record` in the same PR so the trajectory documents the
# step.
#
# Environment: GO (default "go"), ALLOW_BENCH_REGRESSION (default 0),
# BENCH_GATE_RUNS (best-of runs, default 3).
set -eu

cd "$(dirname "$0")/.."
GO="${GO:-go}"
RUNS="${BENCH_GATE_RUNS:-3}"

# One gate per line. metric is the trajectory JSON key; the go test
# unit is derived from it (rows_per_sec -> rows/sec, ns_per_op ->
# ns/op). direction says which way is better; threshold is the ratio
# of the baseline the best run must stay at or beyond.
#
# file                  benchmark                package                metric       direction threshold benchtime
GATES='
BENCH_sweep.json        BenchmarkSweep           ./internal/sweep/      rows_per_sec higher    0.75      1x
BENCH_serve.json        BenchmarkServeMixed      ./internal/serve/      ns_per_op    lower     2.0       1000x
BENCH_collective.json   BenchmarkCollectivePlan  ./internal/collective/ ns_per_op    lower     2.0       100x
BENCH_collective.json   BenchmarkCollectiveSweep ./internal/sweep/      rows_per_sec higher    0.75      1x
'

fail=0
while read -r file bench pkg metric direction threshold benchtime; do
	[ -n "$file" ] || continue
	unit="$(printf '%s' "$metric" | sed 's#_per_#/#')"
	base="$(grep "\"name\":\"$bench\"" "$file" 2>/dev/null | tail -1 \
		| sed -n "s/.*\"$metric\":\([0-9.eE+]*\).*/\1/p")"
	if [ -z "$base" ]; then
		echo "bench_gate: no $bench $metric baseline in $file" >&2
		echo "bench_gate: record one with 'make bench-record' and commit it" >&2
		exit 1
	fi

	best=""
	i=0
	while [ "$i" -lt "$RUNS" ]; do
		i=$((i + 1))
		out="$("$GO" test -bench "$bench\$" -benchtime "$benchtime" -run '^$' "$pkg" </dev/null)"
		cur="$(printf '%s\n' "$out" | awk -v b="^$bench" -v u="$unit" '$1 ~ b {
			for (i = 1; i < NF; i++) if ($(i + 1) == u) print $i }')"
		if [ -z "$cur" ]; then
			echo "bench_gate: $bench reported no $unit:" >&2
			printf '%s\n' "$out" >&2
			exit 1
		fi
		echo "$bench run $i/$RUNS: $cur $unit"
		best="$(awk -v a="$best" -v b="$cur" -v d="$direction" 'BEGIN {
			print (a == "" || (d == "higher" ? b > a : b < a)) ? b : a }')"
	done

	ok="$(awk -v c="$best" -v b="$base" -v t="$threshold" -v d="$direction" 'BEGIN {
		print (d == "higher" ? c >= t * b : c <= t * b) ? 1 : 0 }')"
	verdict="best $best $unit vs baseline $base, threshold ${threshold}x baseline, $direction is better"
	if [ "$ok" = "1" ]; then
		echo "bench_gate: $bench ok ($verdict)"
	elif [ "${ALLOW_BENCH_REGRESSION:-0}" = "1" ]; then
		echo "bench_gate: $bench REGRESSION ($verdict) but ALLOW_BENCH_REGRESSION=1; passing with a warning" >&2
	else
		echo "bench_gate: FAIL — $bench regressed ($verdict)" >&2
		fail=1
	fi
done <<EOF
$GATES
EOF

if [ "$fail" = "1" ]; then
	echo "bench_gate: FAIL — a gate regressed past its threshold (see above)." >&2
	echo "bench_gate: if intentional, apply the 'bench-regression-ok' PR label and re-record" >&2
	echo "bench_gate: the baseline with 'make bench-record' in the same PR." >&2
	exit 1
fi
echo "bench_gate: PASS"
