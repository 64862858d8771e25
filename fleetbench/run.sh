#!/usr/bin/env bash
# Builds the fleet benchmark from the sources of the checkout it sits in and
# runs it. Run from the checkout root:
#
#   bash fleetbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build artefact (compiler cache, temporary files, the binary) stays
# under .bench_build/ in the current directory. Without the repository's
# go.mod one directory up the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The go command writes its telemetry counters under the user config
# directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" "$@"
