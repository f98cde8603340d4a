#!/usr/bin/env bash
# Builds the distflow benchmark from the sources of this checkout and
# runs it; every argument is passed through to the benchmark binary.
#
#   bash flowbench/run.sh --workload gnp-cold --seed 3 --seconds 30 --trace 0
#   bash flowbench/run.sh --workload all
#
# Build outputs (binary, Go build cache, span files) stay under
# .bench_build/ at the checkout root. Build diagnostics go to stderr so
# the last line of stdout is always the benchmark's JSON result; a
# failed build exits non-zero without printing one.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# Record which sources were measured: the git commit when this checkout
# is a git work tree of its own, otherwise the benchmark hashes the Go
# sources itself.
if [ -z "${FLOWBENCH_COMMIT:-}" ]; then
	top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null || true)"
	if [ "$top" = "$root" ]; then
		FLOWBENCH_COMMIT="$(git -C "$root" rev-parse HEAD)"
	fi
fi
export FLOWBENCH_COMMIT="${FLOWBENCH_COMMIT:-}"

go build -C flowbench -o "$out/flowbench" . >&2
exec "$out/flowbench" "$@"
