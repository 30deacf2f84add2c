// Package bench is the experiment harness: one function per table/figure of
// the paper's evaluation, each regenerating the corresponding rows/series.
// cmd/tfbench and the repository-root benchmarks both drive it.
//
// Absolute values come from a simulator, not the authors' POWER9 testbed;
// the quantities to compare against the paper are the *shapes*: who wins,
// by roughly what factor, and where the crossovers fall (see
// EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/core"
	"thymesisflow/internal/dcsim"
	"thymesisflow/internal/dctrace"
	"thymesisflow/internal/endpoint"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/workloads/imdb"
	"thymesisflow/internal/workloads/kvcache"
	"thymesisflow/internal/workloads/search"
	"thymesisflow/internal/workloads/stream"
	"thymesisflow/internal/workloads/ycsb"
)

// Scale selects experiment sizing.
type Scale int

// Sizing presets.
const (
	// Quick shrinks workloads for CI-style runs (seconds).
	Quick Scale = iota
	// Full runs the calibrated defaults (minutes).
	Full
)

// Fig1 reproduces Figure 1: fragmentation index and switch-off potential
// for the fixed vs disaggregated data-centre models.
func Fig1(w io.Writer, scale Scale) dcsim.Study {
	cfg := dctrace.DefaultConfig()
	servers := dcsim.DefaultServers
	if scale == Quick {
		cfg.Tasks = 12000
		servers = 800
		// Keep steady-state demand at ~85% of the smaller infrastructure.
		cfg.ArrivalRate = cfg.ArrivalRate * float64(servers) / dcsim.DefaultServers
	}
	study := dcsim.RunStudy(cfg, servers, dcsim.DefaultLinksPerModule)
	fmt.Fprintf(w, "Figure 1 — data-centre utilization (%d servers / %d+%d modules, %d tasks)\n",
		servers, servers, servers, cfg.Tasks)
	fmt.Fprintf(w, "  memory/CPU demand-ratio spread: %.1f orders of magnitude\n", study.RatioOrders)
	fmt.Fprintf(w, "  %-14s %-10s %-10s %-10s %-10s\n", "model", "fragCPU%", "fragMEM%", "offCPU%", "offMEM%")
	fmt.Fprintf(w, "  %-14s %-10.2f %-10.2f %-10.2f %-10.2f\n", "fixed",
		100*study.Fixed.FragmentationCPU, 100*study.Fixed.FragmentationMem,
		100*study.Fixed.OffCPU, 100*study.Fixed.OffMem)
	fmt.Fprintf(w, "  %-14s %-10.2f %-10.2f %-10.2f %-10.2f\n", "disaggregated",
		100*study.Disagg.FragmentationCPU, 100*study.Disagg.FragmentationMem,
		100*study.Disagg.OffCPU, 100*study.Disagg.OffMem)
	fmt.Fprintf(w, "  paper:      fixed 16 / 29.5 / ~1 / ~1 ; disaggregated 3.86 / 9.2 / 8 / 27\n")
	return study
}

// RTT reproduces the Section V headline: the ~950 ns hardware datapath flit
// round trip, measured through the full transaction path (RMMU ->
// routing -> LLC framing -> phy -> memory endpoint and back).
func RTT(w io.Writer) sim.Time {
	tb, err := core.NewTestbed(core.ConfigSingleDisaggregated, 64<<20)
	if err != nil {
		panic(err)
	}
	att := tb.Att
	k := tb.Cluster.K
	const probes = 100
	var total sim.Time
	k.Go("rtt-probe", func(p *sim.Proc) {
		for i := 0; i < probes; i++ {
			start := p.Now()
			if _, err := tb.Cluster.Load(p, att, int64(i)*128, 128); err != nil {
				panic(err)
			}
			total += p.Now() - start
		}
	})
	k.Run()
	avg := total / probes
	fmt.Fprintf(w, "Section V — datapath round trip: measured %v per 128B load "+
		"(paper: ~950ns flit RTT + donor DRAM)\n", avg)
	fmt.Fprintf(w, "  budget: 4 FPGA-stack crossings + 6 serDES crossings = %v\n",
		endpoint.DatapathRTT)
	return avg
}

// Fig5Stream reproduces Figure 5: STREAM bandwidth for every kernel, thread
// count and ThymesisFlow configuration. It runs sequentially; use
// Runner.Fig5Stream to spread the cells across cores.
func Fig5Stream(w io.Writer, scale Scale) map[string]float64 {
	return seqRunner.Fig5Stream(w, scale)
}

// Fig5Stream is the parallel-cell form of the package-level function: one
// cell per (thread count, configuration) pair.
func (r *Runner) Fig5Stream(w io.Writer, scale Scale) map[string]float64 {
	configs := []core.MemoryConfig{
		core.ConfigSingleDisaggregated, core.ConfigBondingDisaggregated, core.ConfigInterleaved,
	}
	threadCounts := []int{4, 8, 16}
	type cell struct {
		threads int
		cfg     core.MemoryConfig
		res     []stream.Result
	}
	cells := make([]cell, 0, len(threadCounts)*len(configs))
	for _, threads := range threadCounts {
		for _, cfg := range configs {
			cells = append(cells, cell{threads: threads, cfg: cfg})
		}
	}
	r.Run(len(cells), func(i int) {
		c := &cells[i]
		tb, err := core.NewTestbed(c.cfg, 4<<30)
		if err != nil {
			panic(err)
		}
		if r.Tracer != nil {
			tb.Cluster.K.SetTracer(r.Tracer)
			probeDatapath(tb)
		}
		if r.Metrics != nil {
			tb.Cluster.RegisterMetrics(r.Metrics, fmt.Sprintf("fig5.%s.%d.", c.cfg, c.threads))
		}
		sc := stream.DefaultConfig(c.threads)
		if scale == Quick {
			sc.Elements = 20_000_000
			sc.Iterations = 1
		}
		res, err := stream.Run(tb.Server, tb.Placer(), sc)
		if err != nil {
			panic(err)
		}
		c.res = res
	})
	out := make(map[string]float64)
	fmt.Fprintf(w, "Figure 5 — STREAM sustained bandwidth (GiB/s); theoretical channel max 12.5\n")
	fmt.Fprintf(w, "  %-22s %-8s %8s %8s %8s %8s\n", "config", "threads", "copy", "scale", "add", "triad")
	for _, c := range cells {
		row := make(map[stream.Kernel]float64)
		for _, res := range c.res {
			row[res.Kernel] = res.GiBps
			out[fmt.Sprintf("%v/%d/%v", c.cfg, c.threads, res.Kernel)] = res.GiBps
		}
		fmt.Fprintf(w, "  %-22s %-8d %8.2f %8.2f %8.2f %8.2f\n", c.cfg, c.threads,
			row[stream.Copy], row[stream.Scale], row[stream.Add], row[stream.Triad])
	}
	return out
}

// probeDatapath issues a short burst of functional loads through the full
// transaction datapath (RMMU -> routing -> LLC -> phy -> donor C1 and
// back). STREAM itself is priced through the analytic backend, which never
// emits llc/capi frames — so a traced run starts with this probe to put the
// transaction layers on the record. It runs to completion before the
// workload starts and only executes when a tracer is attached, leaving
// untraced results untouched.
func probeDatapath(tb *core.Testbed) {
	if tb.Att == nil {
		return
	}
	k := tb.Cluster.K
	k.Go("trace-probe", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			if _, err := tb.Cluster.Load(p, tb.Att, int64(i)*capi.Cacheline, capi.Cacheline); err != nil {
				panic(err)
			}
		}
	})
	k.Run()
}

// Fig6Profile reproduces Figure 6: VoltDB package IPC and utilized cores
// across YCSB workloads and partition counts, local vs single-disaggregated,
// plus the Section VI-D backend-stall fractions.
func Fig6Profile(w io.Writer, scale Scale) {
	workloads := ycsb.Workloads()
	partitions := []int{4, 16, 32, 64}
	if scale == Quick {
		workloads = []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC}
		partitions = []int{4, 16, 32}
	}
	fmt.Fprintf(w, "Figure 6 — VoltDB profiling (IPC = package IPC, UCC = utilized cores)\n")
	fmt.Fprintf(w, "  %-3s %-5s | %-24s | %-24s\n", "wl", "parts", "local IPC/UCC/stall%", "single-disagg IPC/UCC/stall%")
	for _, wl := range workloads {
		for _, parts := range partitions {
			row := make(map[core.MemoryConfig]*imdb.Result)
			for _, cfg := range []core.MemoryConfig{core.ConfigLocal, core.ConfigSingleDisaggregated} {
				rc := imdb.DefaultRunConfig(wl, parts)
				if scale == Quick {
					rc.Clients = 100
					rc.OpsPerClient = 25
				}
				res, err := imdb.Run(cfg, rc)
				if err != nil {
					panic(err)
				}
				row[cfg] = res
			}
			l, s := row[core.ConfigLocal].Perf, row[core.ConfigSingleDisaggregated].Perf
			fmt.Fprintf(w, "  %-3v %-5d | %6.2f %6.2f %6.1f%%    | %6.2f %6.2f %6.1f%%\n",
				wl, parts,
				l.PackageIPC(), l.UtilizedCores(), 100*l.BackendStallFraction(),
				s.PackageIPC(), s.UtilizedCores(), 100*s.BackendStallFraction())
		}
	}
	fmt.Fprintf(w, "  paper stall fractions: local 55.5%%, single-disaggregated 80.9%%\n")
}

// Fig7Throughput reproduces Figure 7: YCSB A and E throughput for 4 and 32
// partitions under all five configurations. It runs sequentially; use
// Runner.Fig7Throughput to spread the cells across cores.
func Fig7Throughput(w io.Writer, scale Scale) map[string]float64 {
	return seqRunner.Fig7Throughput(w, scale)
}

// Fig7Throughput is the parallel-cell form of the package-level function:
// one cell per (workload, partitions, configuration) tuple.
func (r *Runner) Fig7Throughput(w io.Writer, scale Scale) map[string]float64 {
	configs := core.AllConfigs()
	type cell struct {
		wl         ycsb.Workload
		parts      int
		cfg        core.MemoryConfig
		throughput float64
	}
	var cells []cell
	for _, wl := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadE} {
		for _, parts := range []int{4, 32} {
			for _, cfg := range configs {
				cells = append(cells, cell{wl: wl, parts: parts, cfg: cfg})
			}
		}
	}
	r.Run(len(cells), func(i int) {
		c := &cells[i]
		rc := imdb.DefaultRunConfig(c.wl, c.parts)
		if scale == Quick {
			rc.Clients = 120
			rc.OpsPerClient = 20
		}
		if c.wl == ycsb.WorkloadE {
			rc.Clients = 60
			rc.OpsPerClient = 12
		}
		res, err := imdb.Run(c.cfg, rc)
		if err != nil {
			panic(err)
		}
		c.throughput = res.Throughput
	})
	out := make(map[string]float64)
	fmt.Fprintf(w, "Figure 7 — YCSB throughput (ops/sec)\n")
	for i, c := range cells {
		if i%len(configs) == 0 {
			fmt.Fprintf(w, "  %v p=%-3d:", c.wl, c.parts)
		}
		out[fmt.Sprintf("%v/%d/%v", c.wl, c.parts, c.cfg)] = c.throughput
		fmt.Fprintf(w, " %s=%.0f", c.cfg, c.throughput)
		if i%len(configs) == len(configs)-1 {
			fmt.Fprintln(w)
		}
	}
	return out
}

// Fig8Memcached reproduces Figure 8: the Memcached GET latency CDF per
// configuration (reported as avg/p50/p90/p99 plus CDF points). It runs
// sequentially; use Runner.Fig8Memcached to spread the cells across cores.
func Fig8Memcached(w io.Writer, scale Scale) map[core.MemoryConfig]*kvcache.Result {
	return seqRunner.Fig8Memcached(w, scale)
}

// Fig8Memcached is the parallel-cell form of the package-level function:
// one cell per configuration.
func (r *Runner) Fig8Memcached(w io.Writer, scale Scale) map[core.MemoryConfig]*kvcache.Result {
	configs := core.AllConfigs()
	results := make([]*kvcache.Result, len(configs))
	r.Run(len(configs), func(i int) {
		rc := kvcache.DefaultRunConfig()
		if scale == Quick {
			rc.Threads = 32
			rc.RequestsPerThread = 800
			rc.CacheBytes = 64 << 20
			rc.Keys = 2_000_000
		}
		res, err := kvcache.Run(configs[i], rc)
		if err != nil {
			panic(err)
		}
		results[i] = res
	})
	out := make(map[core.MemoryConfig]*kvcache.Result)
	fmt.Fprintf(w, "Figure 8 — Memcached GET latency (microseconds)\n")
	fmt.Fprintf(w, "  %-22s %8s %8s %8s %8s %8s %8s\n",
		"config", "avg", "p50", "p90", "p99", "hit%", "ops/s")
	for i, cfg := range configs {
		res := results[i]
		out[cfg] = res
		h := res.GetLatency
		fmt.Fprintf(w, "  %-22s %8.0f %8.0f %8.0f %8.0f %7.1f%% %8.0f\n",
			cfg, h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99),
			100*res.HitRatio, res.Throughput)
	}
	fmt.Fprintf(w, "  paper avgs: local 600, interleaved 614, single 635, bonding 650, scale-out 713; hit ~81%%\n")
	return out
}

// Fig9Search reproduces Figure 9: ESRally "nested" track throughput across
// challenges, shard counts and configurations. It runs sequentially; use
// Runner.Fig9Search to spread the cells across cores.
func Fig9Search(w io.Writer, scale Scale) map[string]float64 {
	return seqRunner.Fig9Search(w, scale)
}

// Fig9Search is the parallel-cell form of the package-level function: one
// cell per (challenge, shards, configuration) tuple. The cells share one
// index set, so each index shape is built once per call; queries only
// read it, and it is dropped when the call returns.
func (r *Runner) Fig9Search(w io.Writer, scale Scale) map[string]float64 {
	configs := core.AllConfigs()
	type cell struct {
		ch         search.Challenge
		shards     int
		cfg        core.MemoryConfig
		throughput float64
	}
	var cells []cell
	for _, ch := range search.Challenges() {
		for _, shards := range []int{5, 32} {
			for _, cfg := range configs {
				cells = append(cells, cell{ch: ch, shards: shards, cfg: cfg})
			}
		}
	}
	indexes := search.NewIndexes()
	r.Run(len(cells), func(i int) {
		c := &cells[i]
		rc := search.DefaultRunConfig(c.ch, c.shards)
		if scale == Quick {
			rc.Clients = 32
			rc.OpsPerClient = 2
			rc.Corpus.Docs = 120_000
			if c.ch == search.MA {
				rc.OpsPerClient = 10
			}
		}
		res, err := search.Run(c.cfg, rc, indexes)
		if err != nil {
			panic(err)
		}
		c.throughput = res.Throughput
	})
	out := make(map[string]float64)
	fmt.Fprintf(w, "Figure 9 — ESRally \"nested\" track throughput (ops/sec)\n")
	for i, c := range cells {
		if i%len(configs) == 0 {
			fmt.Fprintf(w, "  %-8v sh=%-3d:", c.ch, c.shards)
		}
		out[fmt.Sprintf("%v/%d/%v", c.ch, c.shards, c.cfg)] = c.throughput
		fmt.Fprintf(w, " %s=%.0f", c.cfg, c.throughput)
		if i%len(configs) == len(configs)-1 {
			fmt.Fprintln(w)
		}
	}
	return out
}
