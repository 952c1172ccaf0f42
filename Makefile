GO ?= go

.PHONY: build test check fmt-check lint examples ledger metrics-lint doc-check fuzz-smoke fuzz-check trace-demo size results-check cover-programs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race-enabled gate the parallel cone engine is held to. Every
# package benchmark runs once so none can rot; numbers come from the
# ledger (`make ledger`), not from here. The GOMAXPROCS=1 line runs the
# in-order, one-worker path of the batch fan-outs (Read's blocks,
# foldAtBirth, FromResult and the cone crediting it drives), which a
# multi-core runner never takes, and the benchmarks of those paths —
# Read's blocks, the grouped sanitize, the three-task foldAtBirth and
# the crediting shards' merge — run at one and two CPUs for the same
# reason.
check: fmt-check lint examples
	$(GO) vet ./...
	$(GO) test -race ./...
	GOMAXPROCS=1 $(GO) test ./internal/paths/... ./internal/core/... ./internal/cone/... ./internal/warehouse/...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...
	$(GO) test -run '^$$' -bench '^Benchmark(Read|Sanitize|InferBatch|FromResult)$$' -benchtime 1x -cpu 1,2 \
		./internal/paths ./internal/core ./internal/warehouse

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
# experiment at full scale into a temp dir (~10 s) and diff it against
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

# The docs name only what exists: every Test*, Fuzz* or Benchmark* name
# DESIGN.md, README.md or EXPERIMENTS.md cites is defined by a _test.go
# file, and every asrank_* metric family they cite (a _bucket, _count or
# _sum suffix stripped; a file name such as asrank_test.go is not one) is
# a string literal in a non-test Go file outside testdata/, where the
# families are registered. Lists each miss; exit 1
# if there is any.
DOCS = DESIGN.md README.md EXPERIMENTS.md

doc-check:
	@fail=0; \
	for n in $$(grep -ohE '\b(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*' $(DOCS) | sort -u); do \
		grep -rqE --include='*_test.go' "^func $$n\(" . || { echo "doc-check: no _test.go defines $$n"; fail=1; }; \
	done; \
	for n in $$(grep -ohE '\basrank_[a-z0-9_]*[a-z0-9](\.go)?\b' $(DOCS) | grep -v '\.go$$' | sed -E 's/_(bucket|count|sum)$$//' | sort -u); do \
		grep -rqF --include='*.go' --exclude='*_test.go' --exclude-dir=testdata "\"$$n\"" . || { echo "doc-check: no Go file registers $$n"; fail=1; }; \
	done; \
	exit $$fail

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

# Program coverage: which statements the shipped programs run, where
# `go test -cover` says what the tests reach. Builds every cmd/ binary
# and the benchmark with -cover -coverpkg=./..., runs a fixed program
# set — every benchmark workload for 3 s, untraced and traced;
# cmd/experiments; the trace-demo pipeline, chaos replay included;
# asrankd over the pipeline's corpus with a warehouse, its debug
# listener and a streaming collector fed by one more bgpsim replay,
# every API, health and debug route fetched once (/metrics in both
# exposition formats), then SIGINT so it drains and writes its data;
# ascone's BGP-observed cones weighted by addresses and its cones over
# asrank's relationship file; bgpsim's MRT RIB snapshot inferred by
# asrank -mrt; the examples through `go run -cover` — then prints `go tool covdata
# percent`, the total, and every function no program ran (0.0 %, also
# written to zero.txt). A program that exits non-zero, or a route that
# cannot be fetched, is reported and the pass goes on.
# COVERDIR keeps the build, raw data and listings (default: a temp dir).
COVERDIR ?=

cover-programs:
	@dir="$(COVERDIR)"; [ -n "$$dir" ] || dir=$$(mktemp -d); \
	b="$$dir/bin"; r="$$dir/run"; mkdir -p "$$b" "$$r" "$$dir/data" || exit 1; \
	$(GO) build -cover -coverpkg=./... -o "$$b/" ./cmd/... ./benchmark || exit 1; \
	export GOCOVERDIR="$$dir/data"; \
	run() { "$$@" > "$$r/last.out" 2>&1 || echo "cover-programs: $$* exited $$?"; }; \
	run "$$b/benchmark" --seconds 3; \
	run "$$b/experiments" -out "$$r/results"; \
	run "$$b/topogen" -ases 800 -seed 42 -o "$$r/topo.txt"; \
	run "$$b/bgpsim" -topo "$$r/topo.txt" -vps 8 -seed 42 -o "$$r/paths.txt" -trace "$$r/bgpsim-trace.json"; \
	"$$b/collector" -listen 127.0.0.1:17911 -paths "$$r/collected.txt" 2> "$$r/collector.log" & pid=$$!; sleep 1; \
	run "$$b/bgpsim" -topo "$$r/topo.txt" -vps 8 -seed 42 -replay 127.0.0.1:17911 -chaos-seed 42 -retries 16 -trace "$$r/replay-trace.json"; \
	kill -INT $$pid; wait $$pid; \
	"$$b/asrankd" -paths "$$r/paths.txt" -warehouse "$$r/wh" -listen 127.0.0.1:18921 \
		-debug-listen 127.0.0.1:16921 -stream-listen 127.0.0.1:17921 -epoch-interval 1s \
		2> "$$r/asrankd.log" & pid=$$!; sleep 2; \
	run "$$b/bgpsim" -topo "$$r/topo.txt" -vps 6 -seed 43 -replay 127.0.0.1:17921 -retries 16; sleep 2; \
	get() { curl -sf -o /dev/null "$$@" || echo "cover-programs: GET $$* failed"; }; \
	api=http://127.0.0.1:18921; dbg=http://127.0.0.1:16921; \
	asn=$$(curl -s "$$api/api/v1/clique" | grep -oE '"asn":[0-9]+' | head -n 1 | cut -d: -f2); \
	for u in api/v1/health api/v1/clique api/v1/asns "api/v1/asns?limit=5&offset=5&pretty" "api/v1/asns?ids=$$asn,1" \
		api/v1/asns/$$asn api/v1/asns/$$asn/links api/v1/asns/$$asn/cone api/v1/asns/$$asn/cone/contains/$$asn \
		api/v1/epochs api/v1/asns/$$asn/history "api/v1/diff?from=0&to=1" healthz readyz; do get "$$api/$$u"; done; \
	for u in metrics debug/pprof/ debug/pprof/cmdline debug/pprof/symbol "debug/pprof/profile?seconds=1" \
		"debug/pprof/trace?seconds=1" "debug/trace?sec=1" debug/flight "debug/flight?format=tree" \
		debug/oplog "debug/oplog?format=json" debug/epochs; do get "$$dbg/$$u"; done; \
	get -H 'Accept: application/openmetrics-text; version=1.0.0' "$$dbg/metrics"; \
	kill -INT $$pid; wait $$pid; \
	run "$$b/asrank" -paths "$$r/paths.txt" -o "$$r/rels.txt" -trace "$$r/asrank-trace.json"; \
	run "$$b/ascone" -paths "$$r/paths.txt" -method pp -ppdc "$$r/ppdc.txt" -trace "$$r/ascone-trace.json"; \
	run "$$b/ascone" -paths "$$r/paths.txt" -method bgp -weight addresses; \
	run "$$b/ascone" -paths "$$r/paths.txt" -rels "$$r/rels.txt"; \
	run "$$b/bgpsim" -topo "$$r/topo.txt" -vps 8 -seed 42 -format mrt -o "$$r/rib.mrt"; \
	run "$$b/asrank" -mrt "$$r/rib.mrt" -o "$$r/rels-mrt.txt"; \
	for e in examples/*/; do run $(GO) run -cover -coverpkg=./... ./$$e; done; \
	$(GO) tool covdata percent -i "$$dir/data"; \
	$(GO) tool covdata textfmt -i "$$dir/data" -o "$$dir/cover.out" && \
	$(GO) tool cover -func "$$dir/cover.out" > "$$dir/func.txt" && \
	awk '$$NF == "0.0%"' "$$dir/func.txt" > "$$dir/zero.txt" && \
	cat "$$dir/zero.txt" && tail -n 1 "$$dir/func.txt" && \
	echo "cover-programs: $$(wc -l < "$$dir/zero.txt") functions at 0.0 %; listings in $$dir"

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

# fuzz-smoke's list is kept by hand: every func Fuzz* a _test.go file
# outside testdata/ defines must have its `-fuzz '^Name$$'` line above,
# naming its package. Lists each target without one; exit 1 if there is
# any.
fuzz-check:
	@listed=$$(sed -nE 's/.*-fuzz .\^(Fuzz[A-Za-z0-9_]*)\$$\$$. .* (\.\/[^ ]+)$$/\2 \1/p' Makefile); fail=0; \
	for f in $$(grep -rlE --include='*_test.go' --exclude-dir=testdata '^func Fuzz' .); do \
		for n in $$(sed -nE 's/^func (Fuzz[A-Za-z0-9_]*)\(.*/\1/p' "$$f"); do \
			echo "$$listed" | grep -qxF "$$(dirname "$$f") $$n" || \
				{ echo "fuzz-check: $$n ($$(dirname "$$f")) has no fuzz-smoke line"; fail=1; }; \
		done; \
	done; \
	[ $$fail = 0 ] && echo "fuzz-check: every fuzz target is in fuzz-smoke"; exit $$fail
