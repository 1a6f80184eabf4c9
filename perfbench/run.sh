#!/usr/bin/env bash
# Builds the benchmark from source into the build directory and runs it.
# Run from the repository root; every argument is passed on, e.g.
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
# Build products, the Go build cache, the go command's own files, traces
# and the retrain registry all stay inside the build directory
# ($CARGO_TARGET_DIR, else .bench_build).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp"

(
	cd "$here"
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
	go build -buildvcs=false -o "$build/perfbench" .
)

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --out "$build" --commit "$commit" "$@"
