#!/usr/bin/env bash
# Builds hnowd and the benchmark program from this checkout, then runs the
# program with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload plan-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ (Go build cache included), and the build is not
# part of any measurement.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/hnowd" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the repository root; go.mod, cmd/hnowd and benchmark/ must be present" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config/go/telemetry"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
# Telemetry is switched off there: in its default "local" mode the go
# command starts a detached upload process that can outlive this script.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/hnowd" ./cmd/hnowd
(cd "$root/benchmark" && go build -o "$out/hnowdbench" .)
exec "$out/hnowdbench" -hnowd "$out/hnowd" -work "$out/work" "$@"
