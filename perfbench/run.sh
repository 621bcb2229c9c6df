#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash perfbench/run.sh --workload census-mid --seed 1 --seconds 40 --trace 0
#
# Everything it writes (Go build cache, binary, span dumps, run records)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# The go command's env file and telemetry live under the config directory.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

# Identify the code under test: the commit when this is a git checkout,
# otherwise a digest of the Go sources.
if [ -e "$root/.git" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	export PERFBENCH_COMMIT="$commit"
else
	export PERFBENCH_COMMIT="src-sha256:$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

exec "$out/perfbench" -dir "$out/run" "$@"
