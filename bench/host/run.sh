#!/usr/bin/env bash
# Builds the host-speed benchmark from the sources of the checkout it is run
# from (run it from the repository root) and runs one workload:
#
#   bash bench/host/run.sh --workload scan --seed 1 --seconds 30 --trace 0
#
# --trace 1 adds the profiled repetitions and the layer microbenchmarks and
# reports the per-layer metrics instead of the end-to-end ones. The last
# line of standard output is a JSON result object. Everything the build
# and the run write stays under .bench_build/ in the checkout.
set -euo pipefail

workload=all seed=1 seconds=0 trace=0
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload=$2 ;;
	--seed) seed=$2 ;;
	--seconds) seconds=$2 ;;
	--trace) trace=$2 ;;
	*)
		echo "run.sh: unknown argument $1" >&2
		exit 2
		;;
	esac
	shift 2
done

out=$PWD/.bench_build/host
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench/host build -o "$out/host" . >&2

args=(-workload "$workload" -seed "$seed" -seconds "$seconds" -out "$out/summary-$workload-$seed.json")
if [ "$trace" = 1 ]; then
	args+=(-trace "$out/trace-$workload-$seed")
fi
exec "$out/host" "${args[@]}"
