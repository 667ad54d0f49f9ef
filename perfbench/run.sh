#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the root of
# the repository:
#
#   bash perfbench/run.sh --workload tpch-stream --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all        # every workload, one after another
#
# Build output, the Go build cache and run data stay under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

if [[ -z "${PERFBENCH_COMMIT:-}" && -e "$root/.git" ]]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)
	export PERFBENCH_COMMIT
fi

args=("$@")
for i in "${!args[@]}"; do
	if [[ "${args[$i]}" == "--workload" && "${args[$((i + 1))]:-}" == "all" ]]; then
		status=0
		for w in tpch-stream tpch-serve mixed-writes; do
			args[$((i + 1))]=$w
			echo "=== $w"
			"$build/bin/perfbench" "${args[@]}" || status=1
		done
		exit $status
	fi
done
exec "$build/bin/perfbench" "$@"
