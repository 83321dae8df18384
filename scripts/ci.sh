#!/usr/bin/env bash
# CI gate: `make check` (gofmt, build, vet, lint, tests, race-detector pass,
# smokes, membound) and `make fuzz` at a short FUZZTIME, plus the
# cross-file checks make cannot express: the baseline filenames and
# package lists that the Makefile, cmd/bgpbench and the CI workflow
# each spell, and the optional third-party linters.
set -euo pipefail
cd "$(dirname "$0")/.."

# The bench gate lives in the workflow, not here, but its baseline
# filename is spelled in three places; if `make bench-baseline` writes a
# different file than the workflow compares against (or the committed
# baseline is missing), the gate silently rots.
BENCH_BASELINE=$(sed -n 's/.*bgpbench run .* -out \([A-Za-z0-9_.]*\.json\).*/\1/p' Makefile)
if ! grep -q -- "-baseline $BENCH_BASELINE" .github/workflows/ci.yml; then
	echo "ci.sh drift: 'make bench-baseline' writes $BENCH_BASELINE but the CI bench job gates a different file" >&2
	exit 1
fi
if [ ! -f "$BENCH_BASELINE" ]; then
	echo "ci.sh drift: bench baseline $BENCH_BASELINE is not committed — run 'make bench-baseline'" >&2
	exit 1
fi

# `make bench` must exercise the same package set the bgpbench CI gate
# measures; the two lists are spelled in the Makefile and in
# cmd/bgpbench/main.go, so diff them.
MAKE_BENCH_PKGS=$(sed -n 's/^BENCH_PKGS[[:space:]]*=[[:space:]]*//p' Makefile | tr ' ' '\n' | sort)
TOOL_BENCH_PKGS=$(sed -n 's/^var benchPackages = \[\]string{\(.*\)}$/\1/p' cmd/bgpbench/main.go | tr -d '",' | tr ' ' '\n' | sort)
if [ "$MAKE_BENCH_PKGS" != "$TOOL_BENCH_PKGS" ]; then
	echo "ci.sh drift: Makefile BENCH_PKGS and cmd/bgpbench benchPackages disagree:" >&2
	echo "  Makefile:  $(echo $MAKE_BENCH_PKGS)" >&2
	echo "  bgpbench:  $(echo $TOOL_BENCH_PKGS)" >&2
	exit 1
fi

# `make membound` runs inside `make check` below; the workflow's
# standalone membound job must run the same script.
if ! grep -q 'scripts/membound.sh' .github/workflows/ci.yml; then
	echo "ci.sh drift: the CI workflow has no membound job running scripts/membound.sh" >&2
	exit 1
fi

# Same three-way agreement for the escape gate: `make escape-baseline`
# writes the file the CI escape job compares against, and it must be
# committed.
ESCAPE_BASELINE=$(sed -n 's|.*cmd/bgpescape run -out \([A-Za-z0-9_.]*\.json\).*|\1|p' Makefile)
if ! grep -q -- "-baseline $ESCAPE_BASELINE" .github/workflows/ci.yml; then
	echo "ci.sh drift: 'make escape-baseline' writes $ESCAPE_BASELINE but the CI escape job gates a different file" >&2
	exit 1
fi
if [ ! -f "$ESCAPE_BASELINE" ]; then
	echo "ci.sh drift: escape baseline $ESCAPE_BASELINE is not committed — run 'make escape-baseline'" >&2
	exit 1
fi

echo "== make check"
make check

# Third-party linters run when available; the build environment is
# offline, so they are gated rather than installed here.
if command -v staticcheck >/dev/null 2>&1; then
	echo "== staticcheck"
	staticcheck ./...
else
	echo "== staticcheck (not installed; skipped)"
fi
if command -v govulncheck >/dev/null 2>&1; then
	echo "== govulncheck"
	govulncheck ./...
else
	echo "== govulncheck (not installed; skipped)"
fi

echo "== make fuzz (${FUZZTIME:=10s} per target)"
make fuzz FUZZTIME="$FUZZTIME"

echo "CI OK"
