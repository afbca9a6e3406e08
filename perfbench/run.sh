#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Every build and
# run artifact stays inside the checkout, under .bench_build/.
#   bash perfbench/run.sh --workload batch-ht --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
# Use the installed toolchain and no user-level Go settings.
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out"
# The benchmark imports the program's packages through ../go.mod: the
# build fails, and the run with it, when the program is not beside it.
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root: the program's source is missing" >&2
	exit 1
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
