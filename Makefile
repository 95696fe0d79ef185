GO ?= go
FUZZTIME ?= 15s
BENCHTIME ?= 1s
BENCHDATE := $(shell date +%Y-%m-%d)

# BENCH_GOFLAGS is the GOFLAGS value shared by `make bench` and
# `make lint`: the noalloc analyzer shells out to `go build -gcflags=-m`
# with the inherited environment, so running both under the same flags
# keeps the escape analysis the lint gate sees identical to the
# conditions the benchmarks measure.
BENCH_GOFLAGS ?=

.PHONY: all build test race fuzz vet lint vuln bench benchdiff smoke-bench loadgen profile chaos shards ci clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 CI gate: the full suite under the race detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: the gocad-lint suite machine-checks
# the kernel's determinism, token-lifecycle, RMI-safety, capability-
# sandbox, wire-codec-symmetry and no-alloc invariants (DESIGN.md §8 and
# §13). Zero findings is a hard CI gate; -timings surfaces the load and
# per-analyzer wall time. GOFLAGS matches `make bench` so the noalloc
# escape analysis sees benchmark conditions.
lint:
	GOFLAGS="$(BENCH_GOFLAGS)" $(GO) run ./cmd/gocad-lint -timings ./...
	GOFLAGS="$(BENCH_GOFLAGS)" $(GO) test -count=1 -run='TestRepoIsClean|CodecParity' ./internal/lint/... ./internal/core/

# Non-blocking dependency-vulnerability advisory; skipped silently when
# govulncheck is not installed (it is not vendored).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "govulncheck: advisory findings above (non-blocking)"; \
	else \
		echo "govulncheck not installed; skipping advisory scan"; \
	fi

# Benchmark regression diff: compares the two most recent BENCH_*.json
# snapshots (see `make bench`) and exits 1 when any benchmark is more
# than 20% worse on ns/op or allocs/op. ci.sh runs it as a non-blocking
# advisory over all benchmarks and then as a BLOCKING gate over the
# low-noise event-kernel benchmarks (SKIP_KERNEL_BENCH_GATE=1 bypasses
# the gate); run it by hand with explicit files to gate a change:
#   go run ./cmd/benchdiff BENCH_old.json BENCH_new.json
benchdiff:
	@set -- $$(ls -1 BENCH_*.json 2>/dev/null | sort | tail -2); \
	if [ "$$#" -eq 2 ]; then \
		$(GO) run ./cmd/benchdiff "$$1" "$$2"; \
	else \
		echo "fewer than two BENCH_*.json snapshots; run make bench"; \
	fi

# Short fuzz smoke: the RMI wire codec and mux, the wire primitives, the
# shard partitioner, the calendar queue, and the word gate evaluator
# against its scalar oracle. This is the one fuzz list; ci.sh and the CI
# workflow call `make fuzz FUZZTIME=...`. Each target must run in its own
# invocation (go test allows one -fuzz at a time).
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzBinaryCodec$$' -fuzztime=$(FUZZTIME) ./internal/rmi/
	$(GO) test -run='^$$' -fuzz='^FuzzBinaryDecode$$' -fuzztime=$(FUZZTIME) ./internal/rmi/
	$(GO) test -run='^$$' -fuzz='^FuzzMuxResponses$$' -fuzztime=$(FUZZTIME) ./internal/rmi/
	$(GO) test -run='^$$' -fuzz='^FuzzMuxFaultyConn$$' -fuzztime=$(FUZZTIME) ./internal/rmi/
	$(GO) test -run='^$$' -fuzz='^FuzzWirePrimitives$$' -fuzztime=$(FUZZTIME) ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzPartitionCircuit$$' -fuzztime=$(FUZZTIME) ./internal/shard/
	$(GO) test -run='^$$' -fuzz='^FuzzQueueOrdering$$' -fuzztime=$(FUZZTIME) ./internal/sim/
	$(GO) test -run='^$$' -fuzz='^FuzzEvaluatorVsScalar$$' -fuzztime=$(FUZZTIME) ./internal/gate/

# Deterministic chaos sweep under the race detector: seeded replica
# fault schedules (kill, partition, slow-drip, flap) across replica
# counts, pipeline depths and cache settings, every cell asserting
# bit-identical results while one replica stays healthy and explicit
# degradation when none does. Seeded and bounded — a red run is a real
# regression, never flake.
chaos:
	$(GO) test -race -count=1 -run='Chaos|Hedged|Failover|Quorum' ./internal/core/ ./internal/netsim/ ./internal/fault/
	$(GO) test -race -count=1 ./internal/replica/

# Sharded-execution determinism gate under the race detector: the shard
# engine's unit matrix plus the scenario-level determinism matrix —
# every cell asserts byte-identical results against the single-scheduler
# baseline across shard counts, worker counts and window sizes.
shards:
	$(GO) test -race -count=1 -run='Shard|Partition|Generate' ./internal/shard/ ./internal/core/

# CPU and heap profiles of the hottest Table 2 scenario (MR on the
# emulated-local profile: full simulator client, real RMI marshalling,
# no network transit — the kernel and fault-path costs dominate).
# Profiles land in gitignored profiles/; inspect with
#   go tool pprof profiles/cpu.out
profile:
	@mkdir -p profiles
	GOFLAGS="$(BENCH_GOFLAGS)" $(GO) test -run='^$$' -bench='BenchmarkTable2Scenarios/MR-local' \
		-benchtime=$(BENCHTIME) -cpuprofile=profiles/cpu.out -memprofile=profiles/heap.out .
	@echo "profiles written to profiles/cpu.out and profiles/heap.out"

# Full benchmark sweep with allocation stats, archived as a dated JSON
# snapshot (one go-test event per line) for regression comparison.
# internal/sim rides along so the kernel's arena/pool delivery
# benchmarks land in the snapshot — ci.sh's blocking kernel gate
# compares them.
bench:
	GOFLAGS="$(BENCH_GOFLAGS)" $(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) -json . ./internal/sim/ | tee BENCH_$(BENCHDATE).json
	@echo "benchmark snapshot written to BENCH_$(BENCHDATE).json"
	$(GO) run ./cmd/gocad-loadgen -selftest

# Quick CI smoke: the kernel and fault-simulation benchmarks only, one
# short iteration each — catches crashes and gross regressions, not noise.
smoke-bench:
	$(GO) test -run='^$$' -bench='SchedulerThroughput|VirtualVsSerialFaultSim|Figure4VirtualFaultSim' -benchmem -benchtime=100x .

# Gateway load smoke: gocad-loadgen storms an in-process gateway at 4x
# MaxSessions and asserts the admission-control contract end to end —
# bit-identical fingerprints for admitted sessions, typed prompt
# rejections for the rest, and /metrics + billing-ledger counters that
# reconcile exactly with the client-side counts. Prints sessions/sec
# and call latency percentiles (p50/p99/p999).
loadgen:
	$(GO) run ./cmd/gocad-loadgen -selftest

ci: build vet lint test race chaos shards fuzz smoke-bench loadgen vuln

clean:
	$(GO) clean ./...
