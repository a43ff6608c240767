#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash bench/run.sh --workload megastorm --seed 3 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, go command state)
# stays under .bench_build/ at the root of the checkout. The build needs the
# repository's own module one directory up, so in a directory holding only
# the benchmark it fails and the script exits non-zero without a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

(
	cd "$root/bench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local \
		XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly \
		go build -o "$out/bench" .
)

cd "$root"
exec "$out/bench" "$@"
