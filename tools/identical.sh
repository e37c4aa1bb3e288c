#!/usr/bin/env bash
# identical.sh BASE: check that daxbench built from the working tree writes
# the same artifacts as daxbench built at git revision BASE.
#
# Both binaries run `-quick all` with every export on and DAXVM_GIT_SHA
# fixed. Then each BENCH_*.json is compared after `jq -S 'del(.host)'`,
# stdout without its `host:` lines, and the profile, timeline, spans and
# trace files byte for byte. Exits 1 and names every file that differs.
#
# Usage: make identical BASE=<rev>   (or: bash tools/identical.sh <rev>)
set -euo pipefail

base=${1:?usage: tools/identical.sh <base-rev>}
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# A plain export of BASE: no checkout state to clean up if interrupted.
mkdir -p "$tmp/src"
git -C "$root" archive "$rev" | tar -x -C "$tmp/src"
echo "identical: building daxbench at $base ($rev) and from the working tree"
(cd "$tmp/src" && go build -o "$tmp/base.bin" ./cmd/daxbench)
(cd "$root" && go build -o "$tmp/head.bin" ./cmd/daxbench)

run() { # run <binary> <out-dir>
	mkdir -p "$2"
	DAXVM_GIT_SHA=identical "$1" -quick \
		-metrics-out "$2" -profile-out "$2/profile.folded" \
		-timeline-out "$2/timeline.csv" -spans-out "$2/spans.json" \
		-trace "$2/trace.json" all >"$2/stdout.txt"
}
for side in base head; do
	echo "identical: running $side"
	run "$tmp/$side.bin" "$tmp/$side"
done

# norm prints file $1 as compared: artifacts without their host block,
# stdout without its host: lines, everything else as is.
norm() {
	case $(basename "$1") in
	BENCH_*.json) jq -S 'del(.host)' "$1" ;;
	stdout.txt) grep -v '^host:' "$1" || true ;;
	*) cat "$1" ;;
	esac
}

status=0
for f in $( (ls "$tmp/base"; ls "$tmp/head") | sort -u); do
	a=$tmp/base/$f b=$tmp/head/$f
	if [ ! -e "$a" ] || [ ! -e "$b" ]; then
		echo "differs: $f (only on one side)"
		status=1
	elif ! cmp -s <(norm "$a") <(norm "$b"); then
		echo "differs: $f"
		status=1
	fi
done
if [ $status -eq 0 ]; then
	echo "identical: every file matches $base"
fi
exit $status
