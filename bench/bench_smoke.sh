#!/bin/sh
# bench_smoke — run every bench harness in smoke mode and validate the
# metrics snapshots they export against the schema (docs/TRACE_FORMAT.md §4).
#
# Usage: bench_smoke.sh <bench-bin-dir> <validate_metrics-binary>
#
# M4X4_SMOKE=1 shrinks each figure's sweep to a couple of points and skips
# the google-benchmark microbenchmarks; M4X4_METRICS_DIR points the exports
# at a scratch directory that is validated (and removed) afterwards.
# M4X4_BENCH_PERF_OUT puts the BENCH_perf.json document that abl_cc_handoff,
# abl_overload, bench_perf and bench_city merge their blocks into in the
# same directory, so the merged document is schema-checked too.
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 <bench-bin-dir> <validate_metrics-binary>" >&2
    exit 2
fi
bindir=$1
validator=$2

outdir=$(mktemp -d "${TMPDIR:-/tmp}/m4x4_bench_smoke.XXXXXX") || exit 1
trap 'rm -rf "$outdir"' EXIT

status=0
ran=0
for bench in "$bindir"/fig* "$bindir"/abl_* "$bindir"/bench_perf "$bindir"/bench_city; do
    [ -x "$bench" ] || continue
    case $(basename "$bench") in
        validate_metrics) continue ;;
    esac
    ran=$((ran + 1))
    echo "== smoke: $(basename "$bench")"
    if ! M4X4_SMOKE=1 M4X4_METRICS_DIR="$outdir" \
         M4X4_BENCH_PERF_OUT="$outdir/bench_perf.json" "$bench" > /dev/null; then
        echo "bench_smoke: $(basename "$bench") FAILED" >&2
        status=1
    fi
done

if [ "$ran" -eq 0 ]; then
    echo "bench_smoke: no bench binaries found in $bindir" >&2
    exit 1
fi

"$validator" "$outdir" || status=1
exit $status
