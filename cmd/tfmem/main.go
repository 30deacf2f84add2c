// Command tfmem is a memory microbenchmark (in the spirit of lmbench / the
// Intel Memory Latency Checker) for the simulated ThymesisFlow testbed: it
// reports pointer-chase latency and streaming bandwidth for local DRAM and
// for each disaggregated configuration, making the cost model behind every
// experiment directly inspectable.
//
// Usage:
//
//	tfmem                 # latency + bandwidth for all configurations
//	tfmem -threads 8      # bandwidth at a specific thread count
package main

import (
	"flag"
	"fmt"
	"log"

	"thymesisflow/internal/core"
	"thymesisflow/internal/mem"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/workloads/stream"
)

func main() {
	threads := flag.Int("threads", 8, "threads for the bandwidth sweep")
	flag.Parse()

	fmt.Println("ThymesisFlow memory microbenchmark")
	fmt.Printf("%-24s %16s %18s\n", "configuration", "load-to-use", "stream copy GiB/s")

	for _, cfg := range []core.MemoryConfig{
		core.ConfigLocal,
		core.ConfigSingleDisaggregated,
		core.ConfigBondingDisaggregated,
		core.ConfigInterleaved,
	} {
		lat := latencyProbe(cfg)
		bw := bandwidthProbe(cfg, *threads)
		fmt.Printf("%-24s %16v %18.2f\n", cfg, lat, bw)
	}
	fmt.Println("\nreference points: local DRAM ~90ns; ThymesisFlow datapath RTT ~950ns;")
	fmt.Println("one channel 12.5 GiB/s; OpenCAPI C1 ceiling ~16 GiB/s.")
}

// chases is the number of dependent loads the latency probe issues.
const chases = 2000

// latencyProbe measures average dependent-load latency: each access must
// complete before the next address is known, so no latency is hidden.
func latencyProbe(cfg core.MemoryConfig) sim.Time {
	tb, err := core.NewTestbed(cfg, 1<<30)
	if err != nil {
		log.Fatal(err)
	}
	buf, err := tb.Server.Mem.Alloc(256<<20, tb.Placer())
	if err != nil {
		log.Fatal(err)
	}
	var avg sim.Time
	tb.Cluster.K.Go("probe", func(p *sim.Proc) {
		th := tb.Server.NewThread(0)
		lines := buf.Size / mem.CachelineSize
		state := uint64(12345)
		start := p.Now()
		for i := 0; i < chases; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			off := int64(state%uint64(lines)) * mem.CachelineSize
			th.Access(p, buf.Addr(off), 8, false)
		}
		avg = (p.Now() - start) / sim.Time(chases)
	})
	tb.Cluster.K.Run()
	return avg
}

// bandwidthProbe runs the STREAM copy kernel.
func bandwidthProbe(cfg core.MemoryConfig, threads int) float64 {
	tb, err := core.NewTestbed(cfg, 4<<30)
	if err != nil {
		log.Fatal(err)
	}
	res, err := stream.Run(tb.Server, tb.Placer(), stream.Config{
		Elements:   20_000_000,
		Threads:    threads,
		Iterations: 1,
		ChunkBytes: 4 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res {
		if r.Kernel == stream.Copy {
			return r.GiBps
		}
	}
	return 0
}
