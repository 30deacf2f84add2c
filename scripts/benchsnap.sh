#!/bin/sh
# benchsnap.sh OUT.json — record a wall-clock/allocation snapshot:
#   * quick-scale tfbench full suite, sequential (-parallel 1) vs all
#     cores (-parallel 0)
#   * sim kernel schedule/run micro-benchmark (ns/op, allocs/op)
#   * dcsim placement micro-benchmark (ns/op)
#   * full-datapath cacheline load with latency attribution off vs on
#     (ns/op, allocs/op) — the on/off delta is the attribution overhead,
#     and the off row documents the disabled path's allocation count
#   * sharded-scaling: the rack-scale scenario (tfbench -experiment rack)
#     at 1/2/4/8 simulation shards — the simulation results are identical
#     across the sweep (asserted by internal/bench tests; the shard-health
#     section describes the runtime and varies with the shard count);
#     only wall-clock differs
#   * control-plane saga path with tracing off vs on (ns/op, allocs/op) —
#     the off row documents that the disabled-tracing saga path adds zero
#     allocations over the pre-tracing baseline
#   * churn replay: two simulated minutes of datacenter-shaped load
#     (tfbench -experiment replay) through the real saga engine with
#     transport faults on — committed sagas per simulated minute plus the
#     wall clock for the whole replay
#   * flight recorder: the full-datapath cacheline load with the recorder
#     sampling at the default 5 us tick vs off — the off row must stay
#     allocation-identical to the latency-attribution off row (the
#     disabled recorder is not on the datapath at all)
#   * journal append: FileJournal appends at fsync group-commit sizes
#     1/8/64 — the per-record fsync cost amortized across the batch
#   * plan channels: one fabric path planned and released on the churn
#     benchmark's 8-host x 32-transceiver full mesh with half of it
#     reserved (ns/op, allocs/op)
# The parallel and sequential suites print byte-identical output (asserted
# by internal/bench tests); only wall-clock may differ.
set -eu

out=${1:-BENCH_PR15.json}
bin=$(mktemp -t tfbench.XXXXXX)
trap 'rm -f "$bin"' EXIT

go build -o "$bin" ./cmd/tfbench

now_s() { date +%s.%N 2>/dev/null || date +%s; }
elapsed() { awk "BEGIN{printf \"%.2f\", $2 - $1}"; }

t0=$(now_s)
"$bin" -parallel 1 >/dev/null 2>&1
t1=$(now_s)
seq_s=$(elapsed "$t0" "$t1")

t0=$(now_s)
"$bin" -parallel 0 >/dev/null 2>&1
t1=$(now_s)
par_s=$(elapsed "$t0" "$t1")

# Sharded-scaling sweep: same seeded rack, increasing shard counts. The
# -full scenario (32 hosts, 160 attachments, 1280 flows) is big enough for
# the window parallelism to dominate the barrier cost.
rack_rows=
for shards in 1 2 4 8; do
	t0=$(now_s)
	"$bin" -experiment rack -full -shards "$shards" >/dev/null 2>&1
	t1=$(now_s)
	rack_s=$(elapsed "$t0" "$t1")
	rack_rows="$rack_rows    { \"shards\": $shards, \"wall_seconds\": $rack_s },
"
done
rack_rows=$(printf '%s' "$rack_rows" | sed '$s/,$//')

kern=$(go test -run xxx -bench 'BenchmarkKernelScheduleRun$' -benchmem \
	-benchtime 5x ./internal/sim/ | \
	awk '$1 ~ /^BenchmarkKernelScheduleRun(-[0-9]+)?$/ {print $3, $7}')
kern_ns=$(echo "$kern" | awk '{print $1}')
kern_allocs=$(echo "$kern" | awk '{print $2}')

winb=$(go test -run xxx -bench 'BenchmarkKernelRunBeforeWindows$' -benchmem \
	-benchtime 5x ./internal/sim/ | \
	awk '$1 ~ /^BenchmarkKernelRunBeforeWindows(-[0-9]+)?$/ {print $3, $9}')
win_ns=$(echo "$winb" | awk '{print $1}')
win_allocs=$(echo "$winb" | awk '{print $2}')

barrier=$(go test -run xxx -bench 'BenchmarkGroupBarrierOverhead$' \
	-benchtime 3x ./internal/sim/shard/ | \
	awk '$1 ~ /^BenchmarkGroupBarrierOverhead(-[0-9]+)?$/ {print $5}')

place=$(go test -run xxx -bench 'BenchmarkDcsimPlace/fixed' -benchtime 3x \
	./internal/dcsim/ | awk '/BenchmarkDcsimPlace\/fixed/ {print $3}')

saga=$(go test -run xxx -bench 'BenchmarkSagaAttachDetach' -benchmem \
	-benchtime 200x ./internal/controlplane/)
saga_off_ns=$(echo "$saga" | awk '$1 ~ /^BenchmarkSagaAttachDetach(-[0-9]+)?$/ {print $3}')
saga_off_allocs=$(echo "$saga" | awk '$1 ~ /^BenchmarkSagaAttachDetach(-[0-9]+)?$/ {print $7}')
saga_on_ns=$(echo "$saga" | awk '$1 ~ /^BenchmarkSagaAttachDetachTraced(-[0-9]+)?$/ {print $3}')
saga_on_allocs=$(echo "$saga" | awk '$1 ~ /^BenchmarkSagaAttachDetachTraced(-[0-9]+)?$/ {print $7}')

attr=$(go test -run xxx -bench 'BenchmarkClusterLoadAttr' -benchmem \
	-benchtime 2000x ./internal/core/)
attr_off_ns=$(echo "$attr" | awk '/BenchmarkClusterLoadAttrOff/ {print $3}')
attr_off_allocs=$(echo "$attr" | awk '/BenchmarkClusterLoadAttrOff/ {print $7}')
attr_on_ns=$(echo "$attr" | awk '/BenchmarkClusterLoadAttrOn/ {print $3}')
attr_on_allocs=$(echo "$attr" | awk '/BenchmarkClusterLoadAttrOn/ {print $7}')

rec=$(go test -run xxx -bench 'BenchmarkClusterLoadRecorderOn' -benchmem \
	-benchtime 2000x ./internal/core/)
rec_on_ns=$(echo "$rec" | awk '/BenchmarkClusterLoadRecorderOn/ {print $3}')
rec_on_allocs=$(echo "$rec" | awk '/BenchmarkClusterLoadRecorderOn/ {print $7}')

jrnl=$(go test -run xxx -bench 'BenchmarkJournalAppendSyncEvery' -benchmem \
	-benchtime 200x ./internal/controlplane/)
jrnl_1_ns=$(echo "$jrnl" | awk '$1 ~ /^BenchmarkJournalAppendSyncEvery1(-[0-9]+)?$/ {print $3}')
jrnl_8_ns=$(echo "$jrnl" | awk '$1 ~ /^BenchmarkJournalAppendSyncEvery8(-[0-9]+)?$/ {print $3}')
jrnl_64_ns=$(echo "$jrnl" | awk '$1 ~ /^BenchmarkJournalAppendSyncEvery64(-[0-9]+)?$/ {print $3}')

plan=$(go test -run xxx -bench 'BenchmarkPlanChannels$' -benchmem \
	-benchtime 2000x ./internal/controlplane/ | \
	awk '$1 ~ /^BenchmarkPlanChannels(-[0-9]+)?$/ {print $3, $7}')
plan_ns=$(echo "$plan" | awk '{print $1}')
plan_allocs=$(echo "$plan" | awk '{print $2}')

# Churn replay: 2 simulated minutes of seeded datacenter load through the
# real control plane (sagas over a lossy transport, journal, reconciler,
# autoscaler). The stdout line reads
#   sagas committed    NNNN (RRRR.R per sim-minute, SS.SS per sim-second)
t0=$(now_s)
replay_out=$("$bin" -experiment replay -replay-minutes 2 -seed 1 2>/dev/null)
t1=$(now_s)
replay_s=$(elapsed "$t0" "$t1")
replay_committed=$(printf '%s\n' "$replay_out" | \
	awk '/sagas committed/ {print $3}')
replay_per_min=$(printf '%s\n' "$replay_out" | \
	awk '/sagas committed/ {gsub(/\(/, "", $4); print $4}')

# Real scheduler-visible core count. BENCH_PR4.json recorded 1 because
# getconf _NPROCESSORS_ONLN reports the container host's online-processor
# view on some runtimes; nproc respects the cpuset/affinity mask actually
# available to this process. Fall back through the chain otherwise.
cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

cat > "$out" <<EOF
{
  "snapshot": "quick-suite wall clock + kernel/placement/attribution micro-benchmarks + sharded rack scaling + churn-replay saga throughput + flight-recorder overhead + journal group-commit sweep + fabric path planning",
  "date": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "host_cores": $cores,
  "quick_suite_wall_seconds": {
    "sequential": $seq_s,
    "parallel_all_cores": $par_s
  },
  "sharded_scaling": {
    "scenario": "tfbench -experiment rack -full (32 hosts, 160 attachments, 1280 flows; seeded stdout byte-identical across shard counts)",
    "runs": [
$rack_rows
    ]
  },
  "kernel_schedule_run": {
    "ns_per_op": $kern_ns,
    "allocs_per_op": $kern_allocs
  },
  "kernel_run_before_windows": {
    "ns_per_op": $win_ns,
    "allocs_per_op": $win_allocs
  },
  "shard_barrier_ns_per_window": $barrier,
  "dcsim_place_fixed_ns_per_op": $place,
  "cluster_load_latency_attr": {
    "off": { "ns_per_op": $attr_off_ns, "allocs_per_op": $attr_off_allocs },
    "on": { "ns_per_op": $attr_on_ns, "allocs_per_op": $attr_on_allocs }
  },
  "saga_attach_detach_tracing": {
    "note": "one journaled attach+detach saga pair against 3 agents; off = tracing disabled (nil-guarded emission sites add zero allocations), on = default 16Ki event log on the monotonic clock",
    "off": { "ns_per_op": $saga_off_ns, "allocs_per_op": $saga_off_allocs },
    "on": { "ns_per_op": $saga_on_ns, "allocs_per_op": $saga_on_allocs }
  },
  "churn_replay": {
    "note": "tfbench -experiment replay -replay-minutes 2 -seed 1: seeded attach/detach churn with flap storms and pressure walks driven through the journaled saga engine over a lossy transport (faults + autoscaler on)",
    "sagas_committed": $replay_committed,
    "sagas_per_sim_minute": $replay_per_min,
    "wall_seconds": $replay_s
  },
  "flight_recorder": {
    "note": "full-datapath cacheline load with the flight recorder sampling at the default 5 us tick; off = recorder never enabled, which must stay allocation-identical to cluster_load_latency_attr.off (the disabled recorder adds no events and no allocations)",
    "off": { "ns_per_op": $attr_off_ns, "allocs_per_op": $attr_off_allocs },
    "on": { "ns_per_op": $rec_on_ns, "allocs_per_op": $rec_on_allocs }
  },
  "journal_append": {
    "note": "FileJournal.Append with fsync group commit (SetSyncEvery): batch sizes 1 (write-through, the default), 8, and 64; the batched rows amortize one fsync across the batch, a crash may lose at most the last N-1 records",
    "sync_every_1_ns_per_op": $jrnl_1_ns,
    "sync_every_8_ns_per_op": $jrnl_8_ns,
    "sync_every_64_ns_per_op": $jrnl_64_ns
  },
  "plan_channels": {
    "note": "Model.PlanChannels + ReleasePaths for one channel on an 8-host x 32-transceiver full mesh with a seeded half of the transceivers reserved, cycling through the ordered host pairs: one search per free source over sorted adjacency",
    "ns_per_op": $plan_ns,
    "allocs_per_op": $plan_allocs
  }
}
EOF
echo "wrote $out (sequential ${seq_s}s, parallel ${par_s}s)"
