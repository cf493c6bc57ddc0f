# Developer targets. `make check` is the tier-1 verification extension
# recorded in ROADMAP.md: build, vet, and the full test suite under the
# race detector (the concurrent query-serving layer must stay race-free).

GO ?= go

.PHONY: build test check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

check: build
	$(GO) vet ./...
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 100x .

# bench-smoke runs the serving-relevant benchmarks once each — no
# timings asserted, just "they still build, run, and agree" (the
# indexed benchmarks cross-check their evaluators' result counts).
# -benchmem is on so a single run already shows allocs/op: the ordinal
# bitset path is an allocation-budget feature, and its regressions are
# visible in allocs/op long before they show up in wall time. CI runs
# this so a refactor cannot silently break the benchmark harness
# between loadbench refreshes.
.PHONY: bench-smoke
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkPlanCache|BenchmarkDeepDescendant|BenchmarkHeightSweep|BenchmarkFreshEngineIndexed' -benchmem -benchtime 1x .
	$(GO) test -run xxx -bench 'BenchmarkRecEval' -benchmem -benchtime 1x ./internal/xpath

# perfbench-check vets and tests the serving benchmark. perfbench is a
# nested module, so the root `go build ./...` and `go test ./...` skip
# it; this target catches a change that breaks what it uses of the
# program (identifiers it pins, the defaults in its config.json).
.PHONY: perfbench-check
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# loadsmoke drives the in-process hospital server through a short ramp
# and fails (exit 2) if overload is reached without the admitted-latency
# bound holding. CI runs this; `make loadbench` is the longer run that
# regenerates the committed BENCH_svload.json.
.PHONY: loadsmoke loadbench
loadsmoke:
	$(GO) run ./cmd/svload -builtin hospital -levels 4,16,64 -duration 500ms \
		-timeout 250ms -max-inflight 8 -out /dev/null

loadbench:
	$(GO) run ./cmd/svload -builtin hospital -levels 4,16,64 -duration 2s \
		-timeout 250ms -max-inflight 16 -out BENCH_svload.json

# netsmoke drives a real svserve over TCP (ReadHeaderTimeout, graceful
# drain, /explainz on a recursive query, /metricsz validated by
# promcheck); `make profile` captures a CPU profile from a loaded
# server into profile.cpu.pprof.
.PHONY: netsmoke profile
netsmoke:
	bash scripts/netsmoke.sh

profile:
	bash scripts/profile.sh

# fuzz-smoke gives every fuzz target a short budget (go test accepts one
# -fuzz pattern per invocation, hence the one-target-per-line shape).
# CI runs this; locally, raise FUZZTIME for a deeper pass.
FUZZTIME ?= 20s

.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test ./internal/xpath -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xpath -fuzz 'FuzzParseQual$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xpath -fuzz 'FuzzEval$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xpath -fuzz 'FuzzEvalQual$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dtd -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dtd -fuzz 'FuzzParseElementSyntax$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dtd -fuzz 'FuzzMatchLabels$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rewrite -fuzz 'FuzzRewriteRecursive$$' -fuzztime $(FUZZTIME)
