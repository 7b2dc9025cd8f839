#!/usr/bin/env bash
# Builds the benchmark and the wfnode/wfrouter binaries from the tree,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload served-ingest --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache
# live under .bench_build/ in the working directory, so nothing outside
# the checkout is written.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . \
	&& go build -o "$out/bin/" webfountain/cmd/wfnode webfountain/cmd/wfrouter) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
