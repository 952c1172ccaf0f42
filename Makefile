GO ?= go

.PHONY: build test check fmt-check lint examples ledger metrics-lint fuzz-smoke trace-demo size results-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race-enabled gate the parallel cone engine is held to. Every
# package benchmark runs once so none can rot; numbers come from the
# ledger (`make ledger`), not from here. The GOMAXPROCS=1 line runs the
# in-order, one-worker path of the batch fan-outs (Read's blocks,
# foldAtBirth, FromResult and the cone crediting it drives), which a
# multi-core runner never takes, and BenchmarkRead runs at one and two
# CPUs for the same reason.
check: fmt-check lint examples
	$(GO) vet ./...
	$(GO) test -race ./...
	GOMAXPROCS=1 $(GO) test ./internal/paths/... ./internal/core/... ./internal/cone/... ./internal/warehouse/...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...
	$(GO) test -run '^$$' -bench '^BenchmarkRead$$' -benchtime 1x -cpu 1,2 ./internal/paths

# Every Go file outside testdata/ (whose analyzer fixtures pin their own
# layout) is gofmt-clean; the target lists any that is not and fails.
fmt-check:
	@out=$$(find . -name '*.go' ! -path '*/testdata/*' | xargs gofmt -l) && \
		{ [ -z "$$out" ] || { echo "gofmt -l lists:"; echo "$$out"; exit 1; }; }

# The example programs are the facade's only callers besides its own
# tests: run each end to end (loopback only, a few seconds each); a
# non-zero exit fails the target.
examples:
	@for e in examples/*/; do echo "$(GO) run ./$$e"; $(GO) run ./$$e > /dev/null || exit 1; done

# The repo's own analyzer suite (DESIGN.md §9): concurrency,
# determinism, observability-naming, error-wrapping, publish-freeze,
# hot-path allocation, and lock-discipline invariants. Exit 1 means
# findings; suppress individual lines with
# `//lint:ignore <analyzer> <reason>`, or use the //asrank:
# annotations the dataflow analyzers read (see DESIGN.md §9).
lint:
	$(GO) run ./cmd/asrank-lint ./...

# The repo's benchmark ledger (benchmark/README.md): four workloads,
# end-to-end and per-layer numbers, exit 1 on any failed output check.
ledger:
	$(GO) run ./benchmark

# The number a simplicity PR quotes: non-test Go lines outside
# benchmark/ and testdata/, comments and blanks included, in total and
# per package directory.
size:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' \
		| xargs wc -l | sed 's|/[^/]*\.go$$||' \
		| awk '$$2 == "total" { total += $$1; next } { n[$$2] += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", total }' | sort -k2

# The committed results/ are what the code produces: regenerate every
# experiment at full scale into a temp dir (~25 s) and diff it against
# the tree. A diff means a change moved a generated corpus or an
# inference — regenerate results/ on purpose and re-read
# EXPERIMENTS.md's shape checks, or fix the change.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) run ./cmd/experiments -out "$$tmp" > /dev/null && \
		diff -r "$$tmp" results && echo "results/ is what cmd/experiments writes"

# Standalone exposition-format gate: the strict Prometheus text-format
# checks on obs itself plus the end-to-end /metrics surface.
metrics-lint:
	$(GO) test -count=1 -run 'TestExposition|TestLint' ./internal/obs
	$(GO) test -count=1 -run TestMetricsEndToEnd ./internal/apiserver

# End-to-end span-trace demo (DESIGN.md §12): simulate a seed topology,
# replay it into a live collector through chaos-injected dials, run
# inference, and write the PP cones — each stage writing a -trace capture. Every file is
# schema-self-checked on write; drag any of them into
# https://ui.perfetto.dev (or chrome://tracing) to browse.
TRACEDIR ?= trace-demo

trace-demo:
	mkdir -p $(TRACEDIR)/bin
	$(GO) build -o $(TRACEDIR)/bin/ ./cmd/topogen ./cmd/collector ./cmd/bgpsim ./cmd/asrank ./cmd/ascone
	$(TRACEDIR)/bin/topogen -ases 800 -seed 42 -o $(TRACEDIR)/topo.txt
	$(TRACEDIR)/bin/bgpsim -topo $(TRACEDIR)/topo.txt -vps 8 -seed 42 \
		-o $(TRACEDIR)/paths.txt -trace $(TRACEDIR)/bgpsim-trace.json
	$(TRACEDIR)/bin/collector -listen 127.0.0.1:17901 \
		-paths $(TRACEDIR)/collected.txt & pid=$$!; sleep 1; \
	$(TRACEDIR)/bin/bgpsim -topo $(TRACEDIR)/topo.txt -vps 8 -seed 42 \
		-replay 127.0.0.1:17901 -chaos-seed 42 -retries 16 \
		-trace $(TRACEDIR)/replay-trace.json || { kill -INT $$pid; exit 1; }; \
	kill -INT $$pid; wait $$pid
	$(TRACEDIR)/bin/asrank -paths $(TRACEDIR)/paths.txt \
		-o $(TRACEDIR)/rels.txt -trace $(TRACEDIR)/asrank-trace.json
	$(TRACEDIR)/bin/ascone -paths $(TRACEDIR)/paths.txt -method pp \
		-ppdc $(TRACEDIR)/ppdc.txt -trace $(TRACEDIR)/ascone-trace.json > $(TRACEDIR)/rank.txt
	@echo "traces in $(TRACEDIR)/: bgpsim-trace.json replay-trace.json asrank-trace.json ascone-trace.json"

# Short native-fuzzing pass over every decoder target, seeded with the
# shared chaos-corrupted corpus (FuzzRead diffs the path-text reader
# against the reader it replaced, FuzzFromMRT loads a simulated RIB
# snapshot as exactly its rows and refuses its update trace,
# FuzzSanitize step 1 against the per-row sanitizer it replaced,
# FuzzSequences the sequence table against a string-keyed map and free
# list, FuzzInferDenseVsOracle steps 5–9 against the inferencer they
# replaced, FuzzCorpusIndex the corpus index after any add/remove
# program against a naive recount,
# FuzzManifest a store's honest segments against any manifest at all,
# FuzzParseTraceparent the API's traceparent request header, and the
# RPSL and topology-text readers of the shipped CLIs through a write
# and a second read). Each target gets FUZZTIME; `go test`
# allows only one -fuzz pattern per invocation, hence one line each.
FUZZTIME ?= 5s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseAttributes$$' -fuzztime $(FUZZTIME) ./internal/bgp
	$(GO) test -run '^$$' -fuzz '^FuzzParseUpdate$$' -fuzztime $(FUZZTIME) ./internal/bgp
	$(GO) test -run '^$$' -fuzz '^FuzzParseOpenBody$$' -fuzztime $(FUZZTIME) ./internal/bgp
	$(GO) test -run '^$$' -fuzz '^FuzzReadMessage$$' -fuzztime $(FUZZTIME) ./internal/bgp
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime $(FUZZTIME) ./internal/mrt
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/paths
	$(GO) test -run '^$$' -fuzz '^FuzzFromMRT$$' -fuzztime $(FUZZTIME) ./internal/paths
	$(GO) test -run '^$$' -fuzz '^FuzzSanitize$$' -fuzztime $(FUZZTIME) ./internal/paths
	$(GO) test -run '^$$' -fuzz '^FuzzSequences$$' -fuzztime $(FUZZTIME) ./internal/paths
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/relfile
	$(GO) test -run '^$$' -fuzz '^FuzzInferDenseVsOracle$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCorpusIndex$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/rpsl
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/topology
	$(GO) test -run '^$$' -fuzz '^FuzzParseSegment$$' -fuzztime $(FUZZTIME) ./internal/warehouse
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime $(FUZZTIME) ./internal/warehouse
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzCorpusMutator$$' -fuzztime $(FUZZTIME) ./internal/streamtest
