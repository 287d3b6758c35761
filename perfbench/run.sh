#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
# Everything the build and the run write stays under .bench_build in the
# checkout this script lives in.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/cache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export GOCACHE="$out/cache/go-build" GOMODCACHE="$out/cache/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -work "$out/work" "$@"
