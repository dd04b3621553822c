#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#	bash bench/run.sh --workload paper --seed 0 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, temporary
# files, the binary, trace output) goes under .bench_build/ in the current
# directory; nothing is read from or written to the user's Go caches.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# VCS stamping (the revision in the environment record) needs a readable git
# repository around the sources; build without it when that fails.
(cd bench && { go build -o "$out/resexbench" . ||
	go build -buildvcs=false -o "$out/resexbench" .; }) >&2
exec "$out/resexbench" "$@"
