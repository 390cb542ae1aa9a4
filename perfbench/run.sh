#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build/ in the current directory): the Go build cache,
# the binary and the traced run's span files. Run it from the repository
# root; outside a checkout of the module the build fails and so does
# this script.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# No toolchain download, no VCS stamping (the checkout need not be a git
# repository), and Go's caches and config kept inside the checkout.
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" --out "$out" "$@"
