#!/usr/bin/env bash
# Builds the LAN benchmark and runs one workload. Run it from the root of
# a LAN checkout; every argument goes to the benchmark:
#
#   bash lanbench/run.sh --workload aids-exact --seed 1 --seconds 16 --trace 0
#
# Build outputs, the Go build cache and scratch snapshots all stay under
# .bench_build in the checkout (or $CARGO_TARGET_DIR when it is set).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/lan.go" ] || [ ! -f "$root/lanbench/go.mod" ]; then
	echo "lanbench: run from the root of a LAN checkout (go.mod, lan.go and lanbench/ not all found in $root)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/lanbench" && go build -o "$out/lanbench" .)
exec "$out/lanbench" -workdir "$out/tmp" "$@"
