# Developer entry points. `make check` is the tier-1 gate (lint + vet +
# build + race-enabled tests — the parallel experiment engine and the
# sharded simulation runtime are real concurrency, so the race detector is
# load-bearing). `make bench-quick` snapshots wall-clock and allocation
# numbers into BENCH_PR10.json.

GO ?= go

.PHONY: check ci test build vet lint race chaos fuzz-smoke replay-smoke ha-smoke detect-smoke bench-quick bench trace-demo

check: lint vet build
	$(GO) test -race ./...

# Full CI gate: everything `check` runs, plus an uncached race pass over the
# concurrency-bearing packages, the chaos conformance campaign through the
# tfbench binary, a one-simulated-minute churn replay against the real
# control plane, a single-scenario anomaly-detection scorecard, and a short
# fuzz smoke of the frame and snapshot decoders, and an HA smoke that
# replays churn against a 3-node replicated control plane while killing
# the Raft leader mid-saga. This is the target a pipeline should invoke.
ci: check race chaos replay-smoke ha-smoke detect-smoke fuzz-smoke

# Uncached (-count=1) race-detector pass over the packages with real
# concurrency: the LLC protocol under the parallel experiment engine, the
# cluster, the sharded simulation runtime (kernel stepping + conservative
# window barriers), the telemetry surfaces (metrics registry, trace ring,
# control-plane handlers) that are read while the simulation runs, and the
# saga/journal/reconciler machinery plus the node agents it drives, and
# the churn-trace replay driver that hammers the control plane.
race:
	$(GO) test -race -count=1 ./internal/llc/ ./internal/core/ \
		./internal/sim/ ./internal/sim/shard/ ./internal/chaos/ \
		./internal/metrics/ ./internal/trace/ ./internal/controlplane/ \
		./internal/agent/ ./internal/dctrace/ ./internal/bench/ \
		./internal/raft/ ./internal/timeseries/...

# Run the fault-injection conformance campaigns (docs/RELIABILITY.md):
# the datapath catalogue and the control-plane saga/recovery/reconciliation
# catalogue. Fails if any scenario violates its invariants. Writes
# chaos_report.json (git-ignored).
chaos:
	$(GO) run ./cmd/tfbench -chaos -seed 1 -parallel 0 -chaos-out chaos_report.json

# One simulated minute of seeded datacenter churn (attach/detach arrivals,
# flap storms, pressure walks) replayed through the real saga engine with
# transport faults on. Exits non-zero on any invariant violation.
replay-smoke:
	$(GO) run ./cmd/tfbench -experiment replay -replay-minutes 1 -seed 1 >/dev/null

# HA smoke: the same churn replay against the in-process 3-node Raft test
# rig (internal/cpworld builds the world; the replicated journal is a test
# rig, not a daemon mode), killing the leader mid-saga twice and failing
# over to a freshly elected successor. Exits non-zero on any invariant
# violation (committed-saga loss, diverged replica logs, orphaned donor
# memory).
ha-smoke:
	$(GO) run ./cmd/tfbench -experiment replay -replay-minutes 1 -seed 1 \
		-replay-ha 3 -replay-leader-kills 2 >/dev/null

# One chaos scenario scored against its ground-truth labels through the
# online anomaly detector — exits non-zero below the precision/recall gate.
detect-smoke:
	$(GO) run ./cmd/tfbench -experiment detect -detect-scenario replay-storm -seed 1 >/dev/null

# Brief coverage-guided fuzz of the LLC frame decoder and the flight-
# recorder snapshot decoder against corrupted and truncated wire images.
fuzz-smoke:
	$(GO) test ./internal/llc/ -fuzz FuzzDecodeCorrupted -fuzztime 10s
	$(GO) test ./internal/timeseries/ -fuzz FuzzSeriesDecode -fuzztime 10s

vet:
	$(GO) vet ./...

lint:
	sh scripts/lint.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Micro-benchmarks for the sim kernel (including the run-to-horizon
# windowed stepping), the shard group barrier, and the dcsim placement
# index.
bench:
	$(GO) test -run xxx -bench 'BenchmarkKernel|BenchmarkGroup|BenchmarkDcsim' \
		-benchmem -benchtime 5x ./internal/sim/ ./internal/sim/shard/ \
		./internal/dcsim/

# Wall-clock / allocation snapshot: sequential vs parallel quick suite,
# kernel/placement micro-benchmarks, the sharded rack-scaling sweep
# (tfbench -experiment rack at 1/2/4/8 shards), the saga path with
# tracing off vs on, the churn-replay saga throughput, the flight
# recorder off vs on, the journal fsync group-commit sweep, and the
# Raft quorum-commit append latency (3/5 nodes), written to
# BENCH_PR10.json.
bench-quick:
	sh scripts/benchsnap.sh BENCH_PR10.json

# Produce a sample cross-layer trace (and metrics snapshot) from the quick
# Figure 5 run: open trace_fig5.json in Perfetto (https://ui.perfetto.dev)
# or chrome://tracing. See docs/OBSERVABILITY.md. Both outputs are
# git-ignored.
trace-demo:
	$(GO) run ./cmd/tfbench -experiment fig5 -trace trace_fig5.json -metrics metrics_fig5.json
