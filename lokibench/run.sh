#!/usr/bin/env bash
# Builds the benchmark program from the source tree it sits in, then runs it
# from the tree's root with the given arguments:
#
#   bash lokibench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The Go build cache, module cache and binary live under .bench_build/ in
# the tree, so nothing is read or written outside it. Build output goes to
# standard error; standard output carries only the benchmark's report.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
(cd "$root/lokibench" && go build -o "$build/lokibench" .) >&2
cd "$root"
exec "$build/lokibench" "$@"
