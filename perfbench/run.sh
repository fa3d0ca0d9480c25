#!/usr/bin/env bash
# Builds cmd/serve and the benchmark from this checkout, then runs one
# benchmark run. Every build and run artifact stays under .bench_build/
# at the checkout root.
#
# Usage (from the checkout root):
#
#	bash perfbench/run.sh --workload read_steady --seed 42 --seconds 30 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gopath"

# Fall back to the standard Go install location when go is not on PATH.
command -v go >/dev/null 2>&1 || PATH="$PATH:/usr/local/go/bin"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
unset GOWORK

# The benchmark is its own module (perfbench/go.mod) that imports the
# program under test through a replace directive, so both builds fail
# fast when the checkout holds no program.
(cd "$root" && go build -o "$build/bin/serve" ./cmd/serve) >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -serve "$build/bin/serve" -work "$build/run" "$@"
