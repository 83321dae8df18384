#!/usr/bin/env bash
# Builds the co-analysis benchmark and runs it from the repository root:
#
#   bash bench/run.sh --workload paper-batch --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare parent.jsonl change.jsonl
#
# Every build product, the Go build cache, generated logs and daemon data
# stay under .bench_build/ in the checkout, so a run writes nothing
# outside it. The benchmark itself builds cmd/coanalyze and cmd/bgpd
# from this checkout before it times anything.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
