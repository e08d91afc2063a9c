#!/usr/bin/env bash
# Builds the benchmark harness, cmd/serve and cmd/diagnose from this
# checkout, then runs the harness with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload week-mixed --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artefact stays
# under .bench_build in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
go -C perfbench build -o "$out/bin/" . hpcfail/cmd/serve hpcfail/cmd/diagnose
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out/perfbench" "$@"
