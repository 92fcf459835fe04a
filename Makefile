# Targets mirror the CI jobs in .github/workflows/ci.yml — `make ci`
# runs the same gate locally.

GO ?= go

.PHONY: all build vet fmt fmt-check test race bench fuzz faults churn-gauntlet \
	scale-gate cover reach examples golden-check simbench-check lint ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt rewrites; fmt-check fails (like CI) when anything needs formatting.
fmt:
	gofmt -w .

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

test:
	$(GO) test -shuffle=on ./...

# The shard coordinator's tests run ten more times under the detector,
# as in CI's sharded-equivalence cell: a busy round hands engines between
# goroutines, and the tests cover rounds on the caller and handed off.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestShards' ./internal/sim

# Compile and run every benchmark exactly once so they cannot bit-rot,
# printing allocs/op (the sim, iommu, iova, ptable, stats and core
# benchmarks' allocation counts); use `go test -bench=. -benchmem ./...`
# for real measurements.
bench:
	$(GO) test -run=NoTests -bench=. -benchtime=1x -benchmem ./...

# Mirrors the CI fuzz job, 30 s per target (go test fuzzes one target a
# call): the IOMMU's LRU caches against an independently written oracle,
# then the device TLB's same-page runs and leaf-checked staleness against
# per-transaction twins and a page-table walk. A failing input lands in
# the package's testdata/fuzz/<target>, where plain `go test` replays it.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLRU$$' -fuzztime 30s ./internal/iommu
	$(GO) test -run '^$$' -fuzz '^FuzzATC$$' -fuzztime 30s ./internal/ats

# One figure's quick JSON artifact, for any id `fsbench -list` prints:
# `make bench-serving` writes BENCH_serving.json.
bench-%:
	$(GO) run ./cmd/fsbench -fig $* -quick -json > BENCH_$*.json

# The CI cluster-scale gate: asserts the sharded engine's >= 1.5x
# wall-clock speedup at 4 shards / 64 hosts. Needs >= 4 idle cores; the
# test skips itself otherwise.
scale-gate:
	CLUSTER_SCALE_GATE=1 $(GO) test -run TestClusterScaleSpeedup -v ./internal/host

# The fault-campaign gate, and all of CI's fault-campaign job: safety
# figure, the replay-determinism and safety-property sweeps, and the
# 8-host sharded cluster campaign. FAULT_SEEDS widens both sweeps (CI
# uses 64, the nightly schedule 1024; default 8 keeps local runs quick);
# the cluster campaign runs FAULT_SEEDS/16 cluster seeds, at least 4.
faults: bench-faults
	$(GO) test -timeout 30m -run 'TestReplayDeterminism|TestStrictSafetyModesNeverServeStale|TestStrawmanCaughtWithinOneWindow|TestCapabilityFamilySafetyOrdering' -v ./internal/fault
	$(GO) test -timeout 30m -run TestClusterFaultCampaign -v ./internal/host

# The serving-gauntlet CI job: serving figure, cohort-vs-exact
# equivalence under the race detector, and the churn fault campaign
# (strict/fns/cap at churn 0.3, zero stale-served DMAs). FAULT_SEEDS
# widens the campaign exactly like `faults`.
churn-gauntlet: bench-serving
	$(GO) test -race -run 'TestCohortExactEquivalence|TestServingDeterminismAndReplay|TestGroupingInvariance|TestDeterministicReplay' ./internal/host ./internal/cohort
	$(GO) test -run TestServingChurnFaultCampaign ./internal/host

# Coverage with the CI ratchet: fails when total statement coverage falls
# below ci/coverage_floor.txt. Bump the floor when coverage rises.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	floor=$$(cat ci/coverage_floor.txt); \
	echo "total coverage: $${total}% (floor: $${floor}%)"; \
	if awk -v t="$$total" -v f="$$floor" 'BEGIN { exit !(t < f) }'; then \
		echo "coverage $${total}% fell below the floor $${floor}%" >&2; exit 1; \
	fi
	$(GO) tool cover -html=coverage.out -o coverage.html

# Which production code the entry points run: build fsbench, fstrace,
# the five examples and fssim's test binary with statement coverage of
# every package, run fsbench -fig all -quick, fssim's golden vectors
# (TestGoldenFssimRuns runs each as fssim), fstrace in both kinds and
# each example, then print coverage per package and in total and list
# the functions at 0% in .reach/zero.txt. It reports; nothing gates on
# it. About two minutes on 2 vCPUs.
REACH := $(CURDIR)/.reach
EXAMPLES := ablation cotenant keyvalue quickstart rpclatency
REACH_CMDS := cmd/fsbench cmd/fstrace $(addprefix examples/,$(EXAMPLES))

reach:
	rm -rf $(REACH) && mkdir -p $(REACH)/bin $(REACH)/cov
	for p in $(REACH_CMDS); do \
		$(GO) build -cover -coverpkg=fastsafe/... -o $(REACH)/bin/ ./$$p || exit 1; \
	done
	$(GO) test -c -cover -coverpkg=fastsafe/... -o $(REACH)/bin/fssim.test ./cmd/fssim
	export GOCOVERDIR=$(REACH)/cov && \
	$(REACH)/bin/fsbench -fig all -quick > /dev/null && \
	(cd cmd/fssim && $(REACH)/bin/fssim.test -test.run '^TestGoldenFssimRuns$$' -test.gocoverdir=$(REACH)/cov) && \
	$(REACH)/bin/fstrace -kind locality > /dev/null && \
	$(REACH)/bin/fstrace -kind latency > /dev/null && \
	for e in $(EXAMPLES); do \
		$(REACH)/bin/$$e > /dev/null || exit 1; \
	done
	$(GO) tool covdata percent -i=$(REACH)/cov
	$(GO) tool covdata textfmt -i=$(REACH)/cov -o=$(REACH)/cover.out
	$(GO) tool cover -func=$(REACH)/cover.out | tail -1
	$(GO) tool covdata func -i=$(REACH)/cov | awk '$$NF == "0.0%"' > $(REACH)/zero.txt
	@echo "$$(wc -l < $(REACH)/zero.txt) functions at 0% (listed in .reach/zero.txt)"

# Build and run every example (CI's examples job): one that fails to
# build or exits non-zero fails the target. About 4 s on 2 vCPUs.
examples:
	for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		$(GO) run ./examples/$$e || exit 1; \
	done

# Regenerate every golden file and fail if any drift from the committed
# ones — catches accidentally-committed stale goldens.
golden-check:
	UPDATE_GOLDEN=1 $(GO) test -run Golden ./internal/core ./internal/experiments ./internal/host ./cmd/fssim ./cmd/fstrace
	git diff --exit-code

# The simulator benchmark (simbench/) is its own Go module, so the root
# build and test skip it: vet and race-test it against this tree, so an
# API change it depends on fails here instead of in the benchmark run.
simbench-check:
	cd simbench && $(GO) vet . && $(GO) test -race .

# Mirrors the CI lint job. Each analyzer is skipped with a notice when
# its binary is not on PATH (install with:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
#   go install golang.org/x/vuln/cmd/govulncheck@latest ).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping" >&2; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping" >&2; \
	fi

ci: build vet fmt-check lint test race bench fuzz faults churn-gauntlet cover examples golden-check simbench-check
