#!/usr/bin/env bash
# BENCHMARK.json's command. It builds the benchmark from source inside the
# checkout it is run from — compiler cache and temporary files included, so
# that nothing is read or written outside it — and runs one measurement:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The last line of standard output is the result, one JSON object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/pardis-benchmark" .) >&2
cd "$root"
exec "$build/pardis-benchmark" "$@"
