#!/usr/bin/env bash
# Builds the layered benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload batch-paper --seed 1 --seconds 10 --trace 0
#
# Every build artifact (the binary, the Go build cache and temporary files,
# the Go tool's config and telemetry files) and every file the benchmark
# writes stays under .bench_build/perfbench in the checkout. Without the
# repository sources next to this directory the build fails and the script
# exits non-zero before printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
# A soft heap limit keeps the process small on a shared machine. Only
# live-append comes near it: the server keeps every settled job's clusters,
# so its live heap grows by tens of MB per iteration, and without a limit
# the garbage collector would let the process grow to twice that.
export GOMEMLIMIT=1536MiB
exec "$out/perfbench" --work "$out" "$@"
