#!/usr/bin/env bash
# CI gate: build, vet, full tests, race-detector pass, and a short fuzz
# smoke of the line parsers. Mirrors `make check` plus fuzzing; keep the
# two in sync.
set -euo pipefail
cd "$(dirname "$0")/.."

# Drift check: this script mirrors `make check` (plus fuzzing); the
# comment used to be the only enforcement. CI_STEPS is the set of make
# check steps this script implements — if the Makefile's check recipe
# gains or loses a step without this script following, fail loudly.
CI_STEPS="build vet lint test race smoke membound"
MAKE_STEPS=$(sed -n 's/^check:[[:space:]]*//p' Makefile)
echo "== drift check (ci.sh vs make check)"
for s in $MAKE_STEPS; do
	case " $CI_STEPS " in
	*" $s "*) ;;
	*)
		echo "ci.sh drift: 'make check' runs '$s' but ci.sh does not — update ci.sh (and CI_STEPS)" >&2
		exit 1
		;;
	esac
done
for s in $CI_STEPS; do
	case " $MAKE_STEPS " in
	*" $s "*) ;;
	*)
		echo "ci.sh drift: ci.sh runs '$s' but 'make check' does not — update the Makefile check recipe" >&2
		exit 1
		;;
	esac
done

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

# The membound gate is one script spelled in three places: the Makefile
# membound target, the standalone CI membound job, and this script's
# own invocation below. If the Makefile target points elsewhere (or the
# workflow drops the job), fail loudly.
MEMBOUND_SCRIPT=$(sed -n '/^membound:/{n;s/^[[:space:]]*//p;}' Makefile | awk '{print $1}')
if [ "$MEMBOUND_SCRIPT" != "./scripts/membound.sh" ]; then
	echo "ci.sh drift: 'make membound' runs '$MEMBOUND_SCRIPT' but ci.sh runs ./scripts/membound.sh" >&2
	exit 1
fi
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

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== bgplint (determinism, domain & concurrency analyzers; baseline-gated, SARIF artifact)"
go build -o bin/bgplint ./cmd/bgplint
./bin/bgplint -baseline lint.baseline.json -sarif bgplint.sarif ./... ./cmd/... ./examples/...

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

echo "== go test"
go test ./...

# The serve hammer tests only exercise real interleavings with enough
# parallelism; force at least four Ps even on small CI runners.
NP=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 4)
if [ "$NP" -lt 4 ]; then NP=4; fi
echo "== go test -race (GOMAXPROCS=$NP)"
GOMAXPROCS=$NP go test -race ./...

echo "== bgpd smoke (end-to-end daemon golden diff)"
./scripts/smoke_bgpd.sh

echo "== policy smoke (matrix digests + cross-policy comparison)"
./scripts/smoke_policies.sh

echo "== membound (bounded-memory spill/merge equivalence)"
./scripts/membound.sh

echo "== fuzz smoke (${FUZZTIME:=10s} per target)"
go test ./internal/raslog -fuzz FuzzParseRecord -fuzztime "$FUZZTIME"
go test ./internal/joblog -fuzz FuzzParseJob -fuzztime "$FUZZTIME"
# Table I counts the job log's bytes from Job.MarshaledLen; it must
# equal the length AppendLine writes for any field values.
go test ./internal/joblog -fuzz FuzzJobMarshaledLen -fuzztime "$FUZZTIME"
go test ./internal/bgp -fuzz FuzzParseLocation -fuzztime "$FUZZTIME"
# -race: the symtab fuzz body reads frozen snapshots from concurrent
# goroutines; the corpus cache makes the explored inputs accumulate.
go test -race ./internal/symtab -fuzz FuzzSymtab -fuzztime "$FUZZTIME"
# Ingest-endpoint fuzz: malformed POST bodies must never panic the
# daemon or leave a partially applied batch behind.
go test ./internal/serve -fuzz FuzzIngestBatch -fuzztime "$FUZZTIME"
# Durability-boundary fuzz: seal → persist → recover must reproduce the
# sealed state exactly, and restored segments must reject appends.
go test ./internal/serve -fuzz FuzzSegmentSealRestore -fuzztime "$FUZZTIME"
# Segment-codec fuzz: arbitrary bytes must decode to a structured
# *FormatError or to a segment whose re-encoding is the consumed
# prefix — never a panic. The corpus accumulates in the same
# ~/.cache/go-build/fuzz cache the workflow persists across runs.
go test ./internal/store -fuzz FuzzSegmentCodec -fuzztime "$FUZZTIME"

echo "CI OK"
