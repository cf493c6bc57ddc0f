# Developer targets. `make check` is the tier-1 verification extension
# recorded in ROADMAP.md: build, gofmt (any Go file of the repo that
# `gofmt -l` names fails the target; ignored build trees such as
# .bench_build/ are skipped), vet, and the full test suite under the race detector (the
# concurrent query-serving layer must stay race-free).

GO ?= go

.PHONY: build test check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

check: build
	@unformatted=$$(gofmt -l $$(git ls-files --cached --others --exclude-standard '*.go')); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: not formatted:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 100x .

# bench-smoke runs the serving-relevant benchmarks once each — no
# timings asserted, just "they still build, run, and agree" (the
# deep-descendant benchmark cross-checks the evaluator's result counts
# against the reference).
# -benchmem is on so a single run already shows allocs/op: the ordinal
# bitset path is an allocation-budget feature, and its regressions are
# visible in allocs/op long before they show up in wall time. CI runs
# this so a refactor cannot silently break the benchmark harness
# between loadbench refreshes.
.PHONY: bench-smoke
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkPlanCache|BenchmarkDeepDescendant|BenchmarkHeightSweep|BenchmarkFreshEngineIndexed' -benchmem -benchtime 1x .
	$(GO) test -run xxx -bench 'BenchmarkRecEval|BenchmarkSigmaGuard' -benchmem -benchtime 1x ./internal/xpath
	$(GO) test -run xxx -bench 'BenchmarkOptimizeUnion|BenchmarkPlanMiss' -benchmem -benchtime 1x ./internal/optimize
	$(GO) test -run xxx -bench 'BenchmarkParseDocument|BenchmarkValidate' -benchmem -benchtime 1x ./internal/xmltree
	$(GO) test -run xxx -bench 'BenchmarkWriteResult|BenchmarkServeQuery' -benchmem -benchtime 1x ./internal/serve

# perfbench-check vets and tests the serving benchmark. perfbench is a
# nested module, so the root `go build ./...` and `go test ./...` skip
# it; this target catches a change that breaks what it uses of the
# program (identifiers it pins, the defaults in its config.json).
.PHONY: perfbench-check
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# netlines reports the lines a change adds and removes against BASE
# (a git revision), split into non-test Go, test Go and testdata, with
# perfbench/ excluded: make netlines BASE=<rev>.
BASE ?= HEAD

.PHONY: netlines
netlines:
	bash scripts/netlines.sh $(BASE)

# abbench-check scores the committed fixture of recorded benchmark
# pairs with scripts/abbench.sh --score and checks the wins count and
# the exact sign-test p. Run the A/B itself with
# `bash scripts/abbench.sh REV [workload seed seconds pairs]`.
.PHONY: abbench-check
abbench-check:
	@out=$$(bash scripts/abbench.sh --score scripts/testdata/abbench_churn_seed1.jsonl) && \
		echo "$$out" && echo "$$out" | grep -Eq '^  throughput_rps +[0-9.]+ +10/10 +0\.002 '

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
	$(GO) test ./internal/xpath -fuzz 'FuzzParameterizedString$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dtd -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dtd -fuzz 'FuzzParseElementSyntax$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dtd -fuzz 'FuzzMatchLabels$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rewrite -fuzz 'FuzzRewriteRecursive$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xmltree -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -fuzz 'FuzzQueryParams$$' -fuzztime $(FUZZTIME)
