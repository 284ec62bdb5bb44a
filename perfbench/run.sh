#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root, e.g.
#
#   bash perfbench/run.sh --workload rgg2d-boruvka --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the instance files all go under
# .bench_build in the current directory; nothing is written elsewhere. The
# build needs the repository's go.mod one level above this directory, so
# the script fails (non-zero, no result line) in a copy holding only the
# benchmark.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOWORK=off

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --commit "$commit" "$@"
