package main

// The metric catalogue. Every run prints every metric of its kind, on every
// workload: a per-layer metric of a layer the workload does not use reads 0,
// which is the no-change prediction for it. BENCHMARK.json lists the same
// names and units; the smoke test keeps the two in step.

// metricSpec names one metric, its unit and which direction is better.
// Per-layer metrics also say which end-to-end metric they should move and
// on which workloads (README.md gives the reasoning).
type metricSpec struct {
	name, unit, better string
	moves, on          string
}

// endToEnd is measured with tracing off. The same four hold on every
// workload; an "op" is a Load or Store on rack and link-saturate, one
// figure on figures, and one saga on churn.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "allocs_per_op", unit: "count", better: "lower"},
	{name: "live_heap_mb", unit: "MiB", better: "lower"},
}

const (
	datapath = "rack, link-saturate"
	allWL    = "rack, link-saturate, figures, churn"
)

var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		// sim: the discrete-event kernel.
		{"sim.events", "count", "lower", "ops_per_s", datapath},
		{"sim.events_per_op", "count", "lower", "ops_per_s", datapath},
		{"sim.events_per_host_s", "1/s", "higher", "ops_per_s", datapath},
		{"sim.self_pct", "%", "lower", "ops_per_s", "rack, link-saturate, figures"},
		// sim/shard: conservative windows over per-host kernels.
		{"shard.windows", "count", "lower", "ops_per_s", "rack"},
		{"shard.events_per_window", "count", "higher", "ops_per_s", "rack"},
		{"shard.imbalance", "ratio", "lower", "ops_per_s", "rack"},
		{"shard.balance_bound", "ratio", "higher", "ops_per_s", "rack"},
		{"shard.barrier_stall_ns", "ns", "lower", "ops_per_s", "rack"},
		{"shard.flushed", "count", "lower", "ops_per_s", "rack"},
		{"shard.max_flush_depth", "count", "lower", "ops_per_s", "rack"},
		{"shard.self_pct", "%", "lower", "ops_per_s", "rack"},
		// capi, rmmu: the compute-side transaction layer.
		{"capi.transactions", "count", "lower", "ops_per_s", datapath},
		{"capi.self_pct", "%", "lower", "ops_per_s", datapath},
		{"rmmu.self_pct", "%", "lower", "ops_per_s", datapath},
		// llc: framing, credits and go-back-N replay.
		{"llc.frames", "count", "lower", "sim.goodput_gibps, ops_per_s", datapath},
		{"llc.control_frames", "count", "lower", "sim.goodput_gibps", "link-saturate"},
		{"llc.replayed", "count", "lower", "sim.goodput_gibps, sim.load_rtt_p99_ns", "link-saturate"},
		{"llc.replay_ratio", "ratio", "lower", "sim.goodput_gibps", "link-saturate"},
		{"llc.txns_per_frame", "ratio", "higher", "sim.goodput_gibps", "link-saturate"},
		{"llc.credit_stalls", "count", "lower", "sim.load_rtt_p99_ns", "link-saturate"},
		{"llc.credit_probes", "count", "lower", "sim.goodput_gibps", "link-saturate"},
		{"llc.crc_errors", "count", "lower", "sim.goodput_gibps", "link-saturate"},
		{"llc.self_pct", "%", "lower", "ops_per_s", datapath},
		// phy: the serial channels.
		{"phy.sent", "count", "lower", "sim.goodput_gibps", datapath},
		{"phy.dropped", "count", "lower", "sim.goodput_gibps", "link-saturate"},
		{"phy.corrupted", "count", "lower", "sim.goodput_gibps", "link-saturate"},
		{"phy.self_pct", "%", "lower", "ops_per_s", datapath},
		// The simulated system's own results (identical for a seed).
		{"sim.load_rtt_p50_ns", "ns", "lower", "-", datapath},
		{"sim.load_rtt_p99_ns", "ns", "lower", "-", datapath},
		{"sim.goodput_gibps", "GiB/s", "higher", "-", datapath},
	}
	// latency: simulated time per stage of the round trip.
	for _, st := range stageNames {
		m = append(m,
			metricSpec{"stage." + st + ".mean_ns", "ns", "lower", "sim.load_rtt_p50_ns", datapath},
			metricSpec{"stage." + st + ".p99_ns", "ns", "lower", "sim.load_rtt_p99_ns", datapath})
	}
	m = append(m, []metricSpec{
		{"stage.reconcile_err_pct", "%", "lower", "-", datapath},
		{"stage.skewed", "count", "lower", "-", datapath},
		// endpoint: donor C1 and the analytic RemoteBackend.
		{"endpoint.self_pct", "%", "lower", "ops_per_s", "link-saturate, figures"},
		// The figures' memory, placement and application models.
		{"mem.self_pct", "%", "lower", "ops_per_s", "figures"},
		{"numa.self_pct", "%", "lower", "ops_per_s", "figures"},
		{"workloads.imdb.self_pct", "%", "lower", "ops_per_s", "figures"},
		{"workloads.kvcache.self_pct", "%", "lower", "ops_per_s", "figures"},
		{"workloads.search.self_pct", "%", "lower", "ops_per_s", "figures"},
		{"workloads.stream.self_pct", "%", "lower", "ops_per_s", "figures"},
		{"workloads.ycsb.self_pct", "%", "lower", "ops_per_s", "figures"},
		{"dcsim.self_pct", "%", "lower", "ops_per_s", "figures"},
		{"figures.total_s", "s", "lower", "ops_per_s", "figures"},
	}...)
	for _, f := range figureNames {
		m = append(m, metricSpec{"figures." + f + "_s", "s", "lower", "ops_per_s", "figures"})
	}
	m = append(m, []metricSpec{
		// controlplane: the saga engine, reconciler and autoscaler.
		{"saga.p50_us", "us", "lower", "ops_per_s", "churn"},
		{"saga.p99_us", "us", "lower", "ops_per_s", "churn"},
		{"saga.self_us_p50", "us", "lower", "ops_per_s", "churn"},
		{"saga.self_us_p99", "us", "lower", "saga.p99_us", "churn"},
	}...)
	for _, st := range sagaStages {
		m = append(m, metricSpec{"saga.step." + st + "_us", "us", "lower", "saga.p50_us", "churn"})
	}
	m = append(m, []metricSpec{
		{"saga.retries", "count", "lower", "saga.p99_us", "churn"},
		{"saga.compensations", "count", "lower", "saga.p99_us", "churn"},
		{"saga.parked", "count", "lower", "saga.p99_us", "churn"},
		{"saga.rejected", "count", "lower", "ops_per_s", "churn"},
		{"reconcile.ms_per_pass", "ms", "lower", "ops_per_s", "churn"},
		{"reconcile.repairs", "count", "lower", "ops_per_s", "churn"},
		{"autoscale.ms_per_eval", "ms", "lower", "ops_per_s", "churn"},
		{"controlplane.self_pct", "%", "lower", "ops_per_s", "churn"},
		// graphdb: the topology model's path planning inside each attach.
		{"graphdb.self_pct", "%", "lower", "ops_per_s, saga.p50_us", "churn"},
		// journal
		{"journal.appends_per_saga", "count", "lower", "saga.p50_us", "churn"},
		{"journal.bytes", "bytes", "lower", "saga.p50_us", "churn"},
		{"journal.us_per_append", "us", "lower", "saga.p50_us", "churn"},
		// transport and agent
		{"transport.sends_per_saga", "count", "lower", "saga.p99_us", "churn"},
		{"transport.drops", "count", "lower", "saga.p99_us", "churn"},
		{"transport.dups", "count", "lower", "saga.p99_us", "churn"},
		{"transport.ambiguous", "count", "lower", "saga.p99_us", "churn"},
		{"transport.us_per_send", "us", "lower", "saga.p99_us", "churn"},
		{"agent.self_pct", "%", "lower", "saga.p99_us", "churn"},
		// core as the saga executor
		{"executor.attach_us_p50", "us", "lower", "saga.p50_us", "churn"},
		{"executor.attach_us_p99", "us", "lower", "saga.p99_us", "churn"},
		{"executor.detach_us_p50", "us", "lower", "saga.p50_us", "churn"},
		{"core.self_pct", "%", "lower", "ops_per_s, setup_s", allWL},
		// dctrace: the churn trace generator
		{"dctrace.gen_s", "s", "lower", "setup_s", "churn"},
		// Go runtime
		{"gc.cycles", "count", "lower", "allocs_per_op", allWL},
		{"gc.pause_ms", "ms", "lower", "ops_per_s", allWL},
		{"gc.self_pct", "%", "lower", "allocs_per_op, ops_per_s", allWL},
		// The tracing itself: traced against untraced ops_per_s.
		{"trace.overhead_pct", "%", "lower", "-", allWL},
	}...)
	return m
}

// selfPctLayers maps each *.self_pct metric prefix to the profile layer it
// reads (see layerShares).
var selfPctLayers = map[string]string{
	"sim": "sim", "shard": "sim.shard", "capi": "capi", "rmmu": "rmmu",
	"llc": "llc", "phy": "phy", "endpoint": "endpoint", "mem": "mem",
	"numa": "numa", "dcsim": "dcsim", "controlplane": "controlplane",
	"agent": "agent", "core": "core", "gc": "gc", "graphdb": "graphdb",
	"workloads.imdb": "workloads.imdb", "workloads.kvcache": "workloads.kvcache",
	"workloads.search": "workloads.search", "workloads.stream": "workloads.stream",
	"workloads.ycsb": "workloads.ycsb",
}

// sagaStages are the categories the saga event log charges wall time to
// (trace.StageCategory).
var sagaStages = []string{"journal", "agent", "backoff", "run", "engine"}
