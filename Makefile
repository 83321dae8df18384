# Tier-1 gate: `make check` is what CI runs on every change — build,
# vet, tests, the race-detector pass that guards the parallel
# analysis engine (see internal/parallel and TestParallelMatchesSequential),
# and the bgplint determinism analyzers (see internal/lint and DESIGN.md
# "Determinism invariants").

GO ?= go

.PHONY: all build vet test race lint lint-baseline check smoke smoke-golden membound fuzz bench bench-baseline escape escape-baseline golden

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Every concurrency change must survive the race detector; the
# equivalence, sharding and serve hammer tests run under it here. The
# hammer tests only exercise real interleavings with enough parallelism,
# so force at least four Ps even on small CI runners.
RACE_PROCS = $(shell np=$$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 4); if [ "$$np" -lt 4 ]; then np=4; fi; echo $$np)
race:
	GOMAXPROCS=$(RACE_PROCS) $(GO) test -race ./...

# Determinism, domain, concurrency & hot-path analyzers (atomicpub,
# callgraph, commitseq, detrand, errcode, frozen, hotpath, idkind,
# latebind, lockguard, maporder, seedtaint, sharedfold), gated against
# the committed baseline: only NEW failing findings fail (exit 1;
# exit 2 = tool failure). Warn-tier findings (hotpath, latebind,
# idkind) print without failing; add -strict to gate them too.
# Also runnable through the vet driver, which additionally covers
# _test.go files: go vet -vettool=$(PWD)/bin/bgplint ./...
LINT_PKGS = ./... ./cmd/... ./examples/...
lint:
	$(GO) build -o bin/bgplint ./cmd/bgplint
	./bin/bgplint -baseline lint.baseline.json $(LINT_PKGS)

# Snapshot current findings into the committed baseline (the
# suppression workflow; see README "Linting"). Review the diff like
# code.
lint-baseline:
	$(GO) build -o bin/bgplint ./cmd/bgplint
	./bin/bgplint -write-baseline lint.baseline.json $(LINT_PKGS)

check: build vet lint test race smoke membound

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
# GOMEMLIMIT with a -mem-budget far below the event payload (forcing
# spill + zone-map-filtered reload) and diff the output against the
# unconstrained run. A ci.sh drift check keeps this script, this
# target, and the CI membound job pointing at the same gate.
membound:
	./scripts/membound.sh

# Short fuzz smoke of the line parsers, the location-code grammar, the
# symbol-table round trip, the ingest endpoints, and the seal/persist/
# restore durability boundary (the checked-in corpora and seed inputs
# always run as part of `test`; this explores further). The symtab
# target runs under -race: its fuzz body exercises frozen snapshots
# under concurrent readers.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/raslog -fuzz FuzzParseRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/joblog -fuzz FuzzParseJob -fuzztime $(FUZZTIME)
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

# Compiler escape-analysis budget gate: rebuild the hot packages with
# -gcflags=-json and fail on new heap-escape sites, lost inlining, or
# any escape inside the per-event ingest codec roots (see cmd/bgpescape
# and DESIGN.md "Hot-path invariants").
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
