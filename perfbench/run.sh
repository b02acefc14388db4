#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#	bash perfbench/run.sh --workload city --seed 1 --seconds 35 --trace 0
#
# Run it from the root of a checkout. Everything the build writes (the Go
# build cache, the binary, toolchain state) stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a vifi checkout (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# The revision is stamped only when the root is itself a git work tree.
commit=none
if [[ -e .git ]] && commit=$(git rev-parse HEAD 2>/dev/null); then
	git diff --quiet HEAD 2>/dev/null || commit+="+modified"
else
	commit=none
fi
go -C perfbench build -ldflags "-X main.commit=$commit" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
