# Targets mirror the CI jobs in .github/workflows/ci.yml — `make ci`
# runs the same gate locally.

GO ?= go

.PHONY: all build vet fmt fmt-check test race bench bench-multidev bench-timeline \
	faults bench-faults bench-cluster bench-clusterscale bench-rdma \
	bench-capability bench-serving bench-adaptive churn-gauntlet scale-gate cover \
	golden-check simbench-check lint ci

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

race:
	$(GO) test -race ./...

# Compile and run every benchmark exactly once so they cannot bit-rot;
# use `go test -bench=. -benchmem ./...` for real measurements.
bench:
	$(GO) test -run=NoTests -bench=. -benchtime=1x ./...

# The figures CI publishes as artifacts.
bench-multidev:
	$(GO) run ./cmd/fsbench -fig multidev -quick -json > BENCH_multidevice.json

bench-timeline:
	$(GO) run ./cmd/fsbench -fig timeline -quick -json > BENCH_timeline.json

bench-faults:
	$(GO) run ./cmd/fsbench -fig faults -quick -json > BENCH_faults.json

bench-cluster:
	$(GO) run ./cmd/fsbench -fig cluster -quick -json > BENCH_cluster.json

bench-clusterscale:
	$(GO) run ./cmd/fsbench -fig clusterscale -quick -json > BENCH_clusterscale.json

bench-rdma:
	$(GO) run ./cmd/fsbench -fig rdma -quick -json > BENCH_rdma.json

bench-capability:
	$(GO) run ./cmd/fsbench -fig capability -quick -json > BENCH_capability.json

bench-serving:
	$(GO) run ./cmd/fsbench -fig serving -quick -json > BENCH_serving.json

bench-adaptive:
	$(GO) run ./cmd/fsbench -fig adaptive -quick -json > BENCH_adaptive.json

# The CI cluster-scale gate: asserts the sharded engine's >= 1.5x
# wall-clock speedup at 4 shards / 64 hosts. Needs >= 4 idle cores; the
# test skips itself otherwise.
scale-gate:
	CLUSTER_SCALE_GATE=1 $(GO) test -run TestClusterScaleSpeedup -v ./internal/host

# The fault-campaign gate: safety figure plus the replay-determinism and
# safety-property sweeps. FAULT_SEEDS widens the sweep (CI uses 64, the
# nightly schedule 1024; default 8 keeps local runs quick).
faults: bench-faults
	$(GO) test -run 'TestReplayDeterminism|TestStrictSafetyModesNeverServeStale|TestStrawmanCaughtWithinOneWindow|TestCapabilityFamilySafetyOrdering' ./internal/fault

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

# Regenerate every golden file and fail if any drift from the committed
# ones — catches accidentally-committed stale goldens.
golden-check:
	UPDATE_GOLDEN=1 $(GO) test -run Golden ./internal/experiments ./internal/host
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

ci: build vet fmt-check lint test race bench faults churn-gauntlet cover golden-check simbench-check
