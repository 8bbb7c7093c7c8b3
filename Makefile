GO ?= go

# Coverage floor enforced by `make cover-check` (and CI). Raise it when
# coverage grows; never lower it to merge.
COVER_FLOOR ?= 78.0

# The benchmark families gated against BENCH_BASELINE.json. -cpu is
# pinned so sub-benchmark names (and the -N suffix) are identical across
# machines; -count 5 lets benchdiff take the noise-resistant median.
BENCH_GATE  ?= BenchmarkLODMatch|BenchmarkPlanner|BenchmarkSlotMatch|BenchmarkSchedCycle|BenchmarkWALAppend|BenchmarkGraphMemory|BenchmarkSchedMemory|BenchmarkShardedThroughput
BENCH_FLAGS  = -run NONE -bench '$(BENCH_GATE)' -benchtime 0.5s -count 5 -cpu 4
# Packages holding gated benchmarks.
BENCH_PKGS   = . ./internal/sched ./internal/wal ./internal/resgraph ./internal/shard

.PHONY: all build test test-race race bench repro cover cover-check \
	lint bench-baseline bench-regress bench-pairs fmt vet loc clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-race is what CI runs: the full suite under the race detector.
test-race:
	$(GO) test -race ./...

race: test-race

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every figure/table of the paper's evaluation (~3 minutes).
repro:
	$(GO) run ./cmd/fluxion-bench -experiment all -csv repro-csv

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# cover-check fails when total statement coverage drops below
# COVER_FLOOR. CI runs this on every push.
cover-check:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' \
		|| { echo "coverage $$total% is below the $(COVER_FLOOR)% floor" >&2; exit 1; }

lint:
	golangci-lint run

# bench-baseline refreshes BENCH_BASELINE.json from a fresh run of the
# gated benchmarks. Commit the result when a perf change is intended.
bench-baseline:
	$(GO) test $(BENCH_FLAGS) $(BENCH_PKGS) > bench-current.txt
	$(GO) run ./cmd/benchdiff -baseline BENCH_BASELINE.json -input bench-current.txt -write

# bench-regress is the CI perf gate: fails when a gated benchmark is
# >20% slower than BENCH_BASELINE.json after machine-speed calibration.
bench-regress:
	$(GO) test $(BENCH_FLAGS) $(BENCH_PKGS) > bench-current.txt
	$(GO) run ./cmd/benchdiff -baseline BENCH_BASELINE.json -input bench-current.txt

# bench-pairs compares bench/ built from the working tree against BASE
# in PAIRS alternating pairs per workload and seed, appends every run's
# JSON line to bench-pairs.jsonl and prints medians, BASE's IQR and pairs
# won per metric. BASE, PAIRS, SEEDS, WORKLOADS and BENCH_SECONDS given on
# the make command line reach the script through the environment; their
# defaults are in scripts/bench-pairs.sh.
bench-pairs:
	./scripts/bench-pairs.sh

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# loc prints the root module's non-test Go line count (bench/ is its own
# module and excluded). The count going down while decisions and the
# bench gate hold still is the progress signal for removing twin paths.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 \
		| xargs -0 cat | wc -l | awk '{print "non-test Go lines (root module, excluding bench/):", $$1}'

clean:
	rm -f cover.out dead.out bench-current.txt bench-pairs.jsonl
	rm -rf repro-csv
