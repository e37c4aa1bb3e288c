# Local CI for the daxvm simulator. `make ci` is what a pipeline runs.

GO ?= go

.PHONY: ci build fmt vet lint lint-json test race fuzz bench-host-test smoke smoke-all perf-gate validate-baselines baseline identical clean

ci: fmt vet lint build test race bench-host-test smoke smoke-all perf-gate validate-baselines

# Experiments the perf gate runs: cheap, deterministic, and together they
# exercise the journal, allocator, file tables and mapped-access paths.
GATE_IDS = storage ftcost numa

build:
	$(GO) build ./...

# gofmt -l prints offending files; fail when it prints anything.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Project-specific static analysis: determinism, attribution balance,
# lock discipline, charge units, deterministic map export, whole-program
# lock order and hot-path allocations (see tools/simlint; suppress
# findings with //lint:ignore <analyzer> <why>).
lint:
	$(GO) run ./tools/simlint ./...

# Machine-readable lint dump: one JSON finding per line (suppressed
# findings included) in lint.json, which stays untracked. Exit status
# still reflects unsuppressed findings.
lint-json:
	$(GO) run ./tools/simlint -json ./... > lint.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Explore every Fuzz* target beyond its committed corpus for FUZZTIME
# each. Not part of ci: `go test` (and so `make test`) already replays
# each target's corpus under testdata/fuzz/. A failing input is written
# there; commit it so the finding replays on every run. Minimization of
# each new interesting input is bounded at 2s: under Go's default (60s)
# the fuzzer can spend most of a short budget minimizing and reports 0
# execs/sec meanwhile.
FUZZTIME ?= 30s
fuzz:
	@set -e; for file in $$(grep -rl --include='*_test.go' --exclude-dir=testdata --exclude-dir=.bench_build '^func Fuzz' .); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$file"); do \
			echo "fuzz: $$target in ./$$(dirname "$$file") for $(FUZZTIME)"; \
			$(GO) test "./$$(dirname "$$file")" -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 2s; \
		done; \
	done

# The host-speed benchmark (bench/host) is a module of its own, so
# `go test ./...` at the root never builds it; test it separately so a
# change to the simulator's packages cannot break it unnoticed.
bench-host-test:
	cd bench/host && $(GO) test ./...

# End-to-end artifact check: run one quick experiment through the CLI and
# validate the BENCH_*.json it writes (schema validation runs in-process
# via TestArtifactSmoke; this exercises the daxbench flag plumbing too).
smoke:
	@tmp="$$(mktemp -d)"; \
	$(GO) run ./cmd/daxbench -quick -metrics-out "$$tmp" storage >/dev/null && \
	test -s "$$tmp/BENCH_storage.json" && \
	$(GO) test ./internal/bench/ -run TestArtifactSmoke -count=1 >/dev/null && \
	echo "smoke: BENCH_storage.json written and schema-validated"; \
	rc=$$?; rm -rf "$$tmp"; exit $$rc

# Every experiment end to end in one process, the README quick start: a
# panic, or a peak RSS above 512 MB (memory that finished kernels fail
# to release, or tables that grow), fails CI. The bound is at least 25 %
# above the worst of repeated measured runs (CHANGES.md).
smoke-all:
	@tmp="$$(mktemp -d)"; \
	$(GO) build -o "$$tmp/daxbench" ./cmd/daxbench && \
	$(GO) run ./tools/peakrss -max-mb 512 -- "$$tmp/daxbench" -quick all >/dev/null && \
	echo "smoke-all: every experiment ran"; \
	rc=$$?; rm -rf "$$tmp"; exit $$rc

# Perf-regression gate: rerun the gate experiments in quick mode and
# compare each artifact against the committed baseline. The simulator is
# deterministic, so any drift is a real cost-model change — exit 1 tells
# the committer to either fix it or refresh the baseline (make baseline)
# with justification.
perf-gate:
	@tmp="$$(mktemp -d)"; rc=0; \
	$(GO) run ./cmd/daxbench -quick -metrics-out "$$tmp" $(GATE_IDS) >/dev/null || rc=1; \
	for id in $(GATE_IDS); do \
		$(GO) run ./cmd/daxbench -compare "bench/baseline/BENCH_$$id.json" "$$tmp/BENCH_$$id.json" || rc=1; \
	done; \
	rm -rf "$$tmp"; \
	if [ $$rc -eq 0 ]; then echo "perf-gate: ok"; else echo "perf-gate: FAILED"; fi; exit $$rc

# Every committed baseline must parse and pass schema validation: a
# hand-edited or truncated baseline would otherwise surface as a
# confusing compare failure on someone else's branch.
validate-baselines:
	$(GO) run ./cmd/daxbench -validate bench/baseline/*.json
	@echo "validate-baselines: ok"

# Refresh the committed perf-gate baselines (review the diff before
# committing: every change here is a deliberate cost-model retune).
baseline:
	$(GO) run ./cmd/daxbench -quick -metrics-out bench/baseline $(GATE_IDS) >/dev/null
	@echo "baseline: refreshed bench/baseline/ for: $(GATE_IDS)"

# Artifact identity against a base revision: every experiment's quick run,
# all exports on, must match what daxbench built at BASE writes (host
# timings aside). Not part of ci, because it needs a base revision:
#   make identical BASE=HEAD~1
identical:
	@test -n "$(BASE)" || { echo "usage: make identical BASE=<rev>"; exit 2; }
	bash tools/identical.sh "$(BASE)"

clean:
	$(GO) clean ./...
