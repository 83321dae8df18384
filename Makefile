# Tier-1 gate: `make check` is what CI runs on every change (through
# scripts/ci.sh, which adds `make fuzz`) — gofmt, build, vet, tests, the
# race-detector pass, the smokes, the membound gate, and the bgplint
# determinism analyzers (see internal/lint and DESIGN.md "Determinism
# invariants").

GO ?= go

.PHONY: all fmt build vet test race lint lint-baseline check smoke smoke-golden membound fuzz bench bench-baseline escape escape-baseline golden

all: check

# Every Go file, analyzer fixtures included, must be gofmt output; the
# benchmark's build tree (.bench_build, gitignored) is not source.
fmt:
	@out=$$(find . -name '*.go' -not -path './.bench_build/*' -not -path './.git/*' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l: not gofmt output (run gofmt -w):"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Every concurrency change must survive the race detector: the sharded
# log decode (TestParallelMatchesSequential), the ensemble and matrix
# campaign pools, and the serve hammer tests run under it here. The
# hammer tests only exercise real interleavings with enough parallelism,
# so force at least four Ps even on small CI runners.
RACE_PROCS = $(shell np=$$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 4); if [ "$$np" -lt 4 ]; then np=4; fi; echo $$np)
race:
	GOMAXPROCS=$(RACE_PROCS) $(GO) test -race ./...

# The twelve determinism, domain, concurrency & hot-path analyzers
# (atomicpub, callgraph, commitseq, detrand, errcode, frozen, idkind,
# latebind, lockguard, maporder, seedtaint, sharedfold), run in both
# forms the CI lint job runs. The standalone form is gated against the
# committed baseline: only NEW failing findings fail (exit 1; exit 2 =
# tool failure). Warn-tier findings (latebind, idkind) print without
# failing; add -strict to gate them too. The vet-driver form also
# covers _test.go files and fails on any error-tier finding.
LINT_PKGS = ./... ./cmd/... ./examples/...
lint:
	$(GO) build -o bin/bgplint ./cmd/bgplint
	./bin/bgplint -baseline lint.baseline.json $(LINT_PKGS)
	$(GO) vet -vettool=$(CURDIR)/bin/bgplint ./...

# Snapshot current findings into the committed baseline (the
# suppression workflow; see README "Linting"). Review the diff like
# code.
lint-baseline:
	$(GO) build -o bin/bgplint ./cmd/bgplint
	./bin/bgplint -write-baseline lint.baseline.json $(LINT_PKGS)

check: fmt build vet lint test race smoke membound

# End-to-end daemon smoke: boot bgpd over a deterministic sample
# campaign, curl every endpoint family, and diff the answers against
# the goldens under testdata/serve/. `make smoke-golden` regenerates
# them after an intentional output change.
smoke:
	./scripts/smoke_bgpd.sh
	./scripts/smoke_policies.sh

smoke-golden:
	./scripts/smoke_bgpd.sh -update
	./scripts/smoke_policies.sh -update

# Bounded-memory equivalence gate: coanalyze a multi-campaign log under
# GOMEMLIMIT with a -mem-budget far below the FATAL event payload
# (forcing spill + merged reload), check that the runs hold the log's
# FATAL rows and nothing else, and diff the output against the
# unconstrained run. The CI membound job runs the same script; a
# ci.sh check keeps it there.
membound:
	./scripts/membound.sh

# Short fuzz smoke of the line parsers, the job line's length count,
# the location-code grammar, the symbol-table round trip, the ingest
# endpoints, and the seal/persist/restore durability boundary (the
# checked-in corpora and seed inputs always run as part of `test`; this
# explores further). The symtab target runs under -race: its fuzz body
# exercises frozen snapshots under concurrent readers.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/raslog -fuzz FuzzParseRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/joblog -fuzz FuzzParseJob -fuzztime $(FUZZTIME)
	$(GO) test ./internal/joblog -fuzz FuzzJobMarshaledLen -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bgp -fuzz FuzzParseLocation -fuzztime $(FUZZTIME)
	$(GO) test -race ./internal/symtab -fuzz FuzzSymtab -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -fuzz FuzzIngestBatch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -fuzz FuzzSegmentSealRestore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -fuzz FuzzSegmentCodec -fuzztime $(FUZZTIME)

# The bgpbench-gated package set; a ci.sh drift check keeps this list
# aligned with cmd/bgpbench's benchPackages so `make bench` exercises
# exactly what CI gates.
BENCH_PKGS = ./internal/raslog ./internal/joblog ./internal/filter ./internal/serve ./internal/store .
bench:
	$(GO) test -bench . -benchmem -run '^$$' $(BENCH_PKGS)

# Regenerate the committed benchmark baseline the CI `bench` job gates
# against (fixed -benchtime/-count so reports stay diffable). Like
# lint-baseline, review the bench.baseline.json diff like code — a looser
# baseline is a perf regression being waved through.
bench-baseline:
	$(GO) run ./cmd/bgpbench run -count 5 -benchtime 2000x -out bench.baseline.json

# Compiler escape-analysis budget gate, the repo's static allocation
# gate: rebuild the hot packages with -gcflags=-json and fail on new
# heap-escape sites, lost inlining, or any escape inside the per-event
# ingest codec roots (see cmd/bgpescape and DESIGN.md "Hot-path
# invariants").
escape:
	$(GO) build -o bin/bgpescape ./cmd/bgpescape
	./bin/bgpescape run -out escape-current.json
	./bin/bgpescape compare -baseline escape.baseline.json -current escape-current.json

# Regenerate the committed escape baseline after an intentional
# allocation change; review the escape.baseline.json diff like code.
escape-baseline:
	$(GO) run ./cmd/bgpescape run -out escape.baseline.json

# Regenerate the golden report after an intentional output change.
golden:
	$(GO) test ./cmd/bgpreport -run TestGoldenReport -update
