# Developer entry points. `make check` is the tier-1 gate (lint + vet +
# build + race-enabled tests — the parallel experiment engine and the
# sharded simulation runtime are real concurrency, so the race detector is
# load-bearing). `make bench-quick` rewrites BENCH_PR15.json, the newest
# of the committed BENCH_PR*.json snapshots, with this host's wall-clock
# and allocation numbers.

GO ?= go

.PHONY: check ci test build vet lint race chaos fuzz-smoke replay-smoke detect-smoke perfbench-test bench-quick bench trace-demo

check: lint vet build
	$(GO) test -race ./...

# Full CI gate: everything `check` runs, plus an uncached race pass over the
# concurrency-bearing packages, the chaos conformance campaign through the
# tfbench binary, a one-simulated-minute churn replay against the real
# control plane, a single-scenario anomaly-detection scorecard, a short
# fuzz smoke of the frame and snapshot decoders, and the benchmark
# module's own tests. This is the target a pipeline should invoke.
ci: check race chaos replay-smoke detect-smoke fuzz-smoke perfbench-test

# Uncached (-count=1) race-detector pass over the packages with real
# concurrency: the LLC protocol under the parallel experiment engine, the
# cluster, the sharded simulation runtime (kernel stepping + conservative
# window barriers), the telemetry surfaces (metrics registry, trace ring,
# control-plane handlers) that are read while the simulation runs, and the
# saga/journal/reconciler machinery plus the node agents it drives, the
# churn-trace replay driver that hammers the control plane, the graph
# store whose path searches run under its read lock beside writers, the
# phy channels whose counters collectors snapshot mid-run and whose
# delivery queues the LLC feeds, the endpoints and fabric switches
# whose request pools and forwarded frames ride the same kernel-local
# queues, and the search and key-value workloads whose figure cells run
# in parallel (Figure 9's cells all read one shared index set). The shard
# runtime runs again at 1, 2 and 4 Ps: every window inline, two runners,
# and more runners than a 2-core host has cores.
race:
	$(GO) test -race -count=1 -cpu 1,2,4 ./internal/sim/shard/
	$(GO) test -race -count=1 ./internal/llc/ ./internal/core/ ./internal/phy/ \
		./internal/sim/ ./internal/chaos/ \
		./internal/metrics/ ./internal/trace/ ./internal/controlplane/ \
		./internal/agent/ ./internal/dctrace/ ./internal/bench/ \
		./internal/timeseries/... ./internal/graphdb/ \
		./internal/endpoint/ ./internal/fabric/ \
		./internal/workloads/search/ ./internal/workloads/kvcache/

# Run the fault-injection conformance campaigns (docs/RELIABILITY.md):
# the datapath catalogue and the control-plane saga/recovery/reconciliation
# catalogue. Fails if any scenario violates its invariants. Writes
# chaos_report.json (git-ignored).
chaos:
	$(GO) run ./cmd/tfbench -experiment chaos -seed 1 -parallel 0 -out chaos_report.json

# One simulated minute of seeded datacenter churn (attach/detach arrivals,
# flap storms, pressure walks) replayed through the real saga engine with
# transport faults on. Exits non-zero on any invariant violation.
replay-smoke:
	$(GO) run ./cmd/tfbench -experiment replay -replay-minutes 1 -seed 1 >/dev/null

# One chaos scenario scored against its ground-truth labels through the
# online anomaly detector — exits non-zero below the precision/recall gate.
detect-smoke:
	$(GO) run ./cmd/tfbench -experiment detect -scenario replay-storm -seed 1 >/dev/null

# Brief coverage-guided fuzz of the LLC frame decoder and the flight-
# recorder snapshot decoder against corrupted and truncated wire images,
# of the LLC's one-block frame decode against a decoder that allocates
# every transaction (same frames, no shared data capacity),
# of the sim kernel's event lanes against plain events (same firing
# order and counters under any mix of schedules, cancels and windows),
# of process reuse against spawning without it (same firing log and
# counters under random spawn/sleep/signal/resource programs), of
# Sleep's fast path against a Sleep that always parks (same firing log,
# clock and counters under ties, injections, cancels, Stop, tracers and
# windows), and of the 32-bit-tag cache against a slice-per-set LRU
# reference (same lookup results and residency under lookups and flushes,
# with addresses up to the top of each shape's tag range).
fuzz-smoke:
	$(GO) test ./internal/llc/ -fuzz FuzzDecodeCorrupted -fuzztime 10s
	$(GO) test ./internal/llc/ -fuzz FuzzDecodeBlock -fuzztime 10s
	$(GO) test ./internal/timeseries/ -fuzz FuzzSeriesDecode -fuzztime 10s
	$(GO) test ./internal/sim/ -fuzz FuzzLaneOrder -fuzztime 10s
	$(GO) test ./internal/sim/ -fuzz FuzzProcReuse -fuzztime 10s
	$(GO) test ./internal/sim/ -fuzz FuzzSleepFastPath -fuzztime 10s
	$(GO) test ./internal/mem/ -fuzz FuzzCacheLRU -fuzztime 10s

# The benchmark (perfbench/) is its own Go module, so `go test ./...` at
# the root never reaches its tests: run them from inside it.
perfbench-test:
	cd perfbench && $(GO) test ./...

vet:
	$(GO) vet ./...

lint:
	sh scripts/lint.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Micro-benchmarks for the sim kernel (including the run-to-horizon
# windowed stepping and a 2,000-timer backlog on plain events against
# one lane), simulated-process switching and spawning, the shard
# group barrier, and the dcsim placement index; then the datapath: one
# LLC frame and its credit return on a lossless port pair, one cacheline
# load through the whole stack with attribution off, on, and with the
# flight recorder, and the same loads from 256 concurrent issuers on one
# link (BenchmarkClusterLoadPipelined, which also reports events per
# load). The datapath runs 20,000 iterations, so its
# allocs/op is the steady-state cost rather than setup. Last, the figure
# hot paths: one cache lookup (hit- and miss-heavy) and one Figure 9
# quick-scale index build at 5 and 32 shards.
bench:
	$(GO) test -run xxx -bench 'BenchmarkKernel|BenchmarkProc|BenchmarkGroup|BenchmarkDcsim' \
		-benchmem -benchtime 5x ./internal/sim/ ./internal/sim/shard/ \
		./internal/dcsim/
	$(GO) test -run xxx -bench 'BenchmarkPortFrame|BenchmarkClusterLoad' \
		-benchmem -benchtime 20000x ./internal/llc/ ./internal/core/
	$(GO) test -run xxx -bench 'BenchmarkCacheLookup' -benchmem ./internal/mem/
	$(GO) test -run xxx -bench 'BenchmarkBuildIndex' -benchmem -benchtime 10x \
		./internal/workloads/search/

# Wall-clock / allocation snapshot: sequential vs parallel quick suite,
# kernel/placement micro-benchmarks, the sharded rack-scaling sweep
# (tfbench -experiment rack at 1/2/4/8 shards), the saga path with
# tracing off vs on, the churn-replay saga throughput, the flight
# recorder off vs on, the journal fsync group-commit sweep, and the
# fabric path planner on the churn-shaped model, written to
# BENCH_PR15.json.
bench-quick:
	sh scripts/benchsnap.sh BENCH_PR15.json

# Produce a sample cross-layer trace (and metrics snapshot) from the quick
# Figure 5 run, then analyse it offline: the three slowest transactions'
# stage spans and every stage's share of round-trip time. Open
# trace_fig5.json in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
# See docs/OBSERVABILITY.md. Both outputs are git-ignored.
trace-demo:
	$(GO) run ./cmd/tfbench -experiment fig5 -trace trace_fig5.json -metrics metrics_fig5.json
	$(GO) run ./cmd/tftrace -top 3 -stalls trace_fig5.json
