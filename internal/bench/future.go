package bench

import (
	"fmt"
	"io"

	"thymesisflow/internal/core"
	"thymesisflow/internal/mem"
	"thymesisflow/internal/numa"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/workloads/kvcache"
	"thymesisflow/internal/workloads/stream"
)

// AblationHBM evaluates the Section VII proposal of an HBM caching layer at
// the compute endpoint: the Memcached experiment on single-disaggregated
// memory, with and without a 4 GiB HBM cache in front of the network. It
// runs sequentially; use Runner.AblationHBM to spread the cells across
// cores.
func AblationHBM(w io.Writer, scale Scale) {
	seqRunner.AblationHBM(w, scale)
}

// AblationHBM is the parallel-cell form of the package-level function: one
// cell per HBM sizing.
func (r *Runner) AblationHBM(w io.Writer, scale Scale) {
	rc := kvcache.DefaultRunConfig()
	if scale == Quick {
		rc.Threads = 32
		rc.RequestsPerThread = 800
		rc.CacheBytes = 64 << 20
		rc.Keys = 2_000_000
	}
	sizes := []int64{0, 4 << 30}
	type cell struct {
		res     *kvcache.Result
		hitRate float64
	}
	cells := make([]cell, len(sizes))
	r.Run(len(sizes), func(i int) {
		hbm := sizes[i]
		tb, err := core.NewTestbedSpec(core.TestbedSpec{
			Config:      core.ConfigSingleDisaggregated,
			RemoteBytes: rc.CacheBytes * 2,
			HostMutate:  func(hc *core.HostConfig) { hc.LLCSizePerSocket = 24 << 20 },
			AttachMutate: func(as *core.AttachSpec) {
				as.HBMCacheBytes = hbm
			},
		})
		if err != nil {
			panic(err)
		}
		res, err := kvcache.RunOn(tb, rc)
		if err != nil {
			panic(err)
		}
		cells[i].res = res
		hits, misses := tb.Att.Backend.HBMStats()
		if hits+misses > 0 {
			cells[i].hitRate = float64(hits) / float64(hits+misses)
		}
	})
	fmt.Fprintf(w, "Ablation A4 — HBM caching layer (Section VII future work)\n")
	for i, hbm := range sizes {
		res := cells[i].res
		fmt.Fprintf(w, "  hbm=%-6v avg=%4.0fus p90=%4.0fus p99=%4.0fus hbm-hit=%4.1f%%\n",
			hbm > 0, res.GetLatency.Mean(), res.GetLatency.Quantile(0.9),
			res.GetLatency.Quantile(0.99), 100*cells[i].hitRate)
	}
}

// integrationLevel is one hardware-integration scenario of Section VII.
type integrationLevel struct {
	name string
	// serdes/stack crossing counts and per-crossing latencies.
	serdes, stacks      int
	serdesLat, stackLat sim.Time
}

// ProjectionIntegration quantifies the latency headroom the paper
// identifies (Section VII): driving the SoC transceivers directly saves
// four serDES crossings, and an ASIC implementation shrinks the PCS cost.
func ProjectionIntegration(w io.Writer) {
	levels := []integrationLevel{
		{"FPGA prototype (paper)", 6, 4, phy.SerdesCrossing, phy.FPGAStackCrossing},
		{"SoC-integrated (saves 4 serDES)", 2, 4, phy.SerdesCrossing, phy.FPGAStackCrossing},
		{"ASIC (+ cheap PCS, faster logic)", 2, 2, 20 * sim.Nanosecond, 80 * sim.Nanosecond},
	}
	fmt.Fprintf(w, "Projection P1 — hardware integration levels (Section VII)\n")
	fmt.Fprintf(w, "  %-34s %10s %14s\n", "design point", "flit RTT", "vs prototype")
	base := sim.Time(0)
	for i, l := range levels {
		rtt := sim.Time(l.serdes)*l.serdesLat + sim.Time(l.stacks)*l.stackLat
		if i == 0 {
			base = rtt
		}
		fmt.Fprintf(w, "  %-34s %10v %13.0f%%\n", l.name, rtt, 100*float64(rtt)/float64(base))
	}
}

// ProjectionMultiStack sweeps the channel count toward the platform limit
// the paper cites (Section VII: a POWER9 carries four OpenCAPI stacks,
// 800 Gbit/s per processor) using one donor per pair of channels so the
// per-donor C1 ceiling does not mask fabric scaling.
// It runs sequentially; use Runner.ProjectionMultiStack to spread the
// cells across cores.
func ProjectionMultiStack(w io.Writer, scale Scale) {
	seqRunner.ProjectionMultiStack(w, scale)
}

// ProjectionMultiStack is the parallel-cell form of the package-level
// function: one cell per donor count.
func (r *Runner) ProjectionMultiStack(w io.Writer, scale Scale) {
	donorCounts := []int{1, 2, 4}
	gibps := make([]float64, len(donorCounts))
	r.Run(len(donorCounts), func(i int) {
		donors := donorCounts[i]
		cluster := core.NewCluster()
		server, err := cluster.AddHost(core.DefaultHostConfig("server0"))
		if err != nil {
			panic(err)
		}
		// One attachment (2 bonded channels) per donor; application pages
		// interleave across all of them — the pooled-memory form of
		// disaggregation.
		nodes := make([]mem.NodeID, 0, donors)
		for d := 0; d < donors; d++ {
			donorName := fmt.Sprintf("donor%d", d)
			if _, err := cluster.AddHost(core.DefaultHostConfig(donorName)); err != nil {
				panic(err)
			}
			att, err := cluster.Attach(core.AttachSpec{
				ComputeHost: "server0", DonorHost: donorName,
				Bytes: 6 << 30, Channels: 2,
			})
			if err != nil {
				panic(err)
			}
			nodes = append(nodes, att.Node)
		}
		sc := stream.DefaultConfig(16)
		sc.Iterations = 1
		if scale == Quick {
			sc.Elements = 20_000_000
		}
		res, err := stream.Run(server, numa.Interleave(nodes...), sc)
		if err != nil {
			panic(err)
		}
		gibps[i] = res[0].GiBps
	})
	fmt.Fprintf(w, "Projection P2 — multi-channel / multi-donor scaling (STREAM copy, 16 threads)\n")
	fmt.Fprintf(w, "  %-10s %-8s %12s\n", "channels", "donors", "copy GiB/s")
	for i, donors := range donorCounts {
		fmt.Fprintf(w, "  %-10d %-8d %12.2f\n", donors*2, donors, gibps[i])
	}
	fmt.Fprintf(w, "  (each donor contributes its own C1 interface, so pooling from\n")
	fmt.Fprintf(w, "   multiple donors scales past the single-donor 16 GiB/s ceiling)\n")
}
