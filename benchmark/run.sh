#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload rewrite-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporaries) stays in
# .bench_build/ at the repository root; the toolchain is used offline. The
# build needs the whole repository: the benchmark is its own Go module
# that imports the chimera packages from the directory above it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
    TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
    GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$out/chimera-benchmark" .) >&2
exec "$out/chimera-benchmark" "$@"
