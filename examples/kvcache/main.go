// kvcache example: run the Memcached-like cache under the Facebook ETC
// workload on every memory configuration of the paper and print the GET
// latency distributions (the Figure 8 experiment).
//
//	go run ./examples/kvcache
package main

import (
	"fmt"
	"log"

	"thymesisflow/internal/core"
	"thymesisflow/internal/workloads/kvcache"
)

func main() {
	rc := kvcache.DefaultRunConfig()
	rc.Threads = 32
	rc.RequestsPerThread = 1500
	rc.CacheBytes = 96 << 20
	rc.Keys = 3_000_000

	warmups := kvcache.NewWarmups() // each cache shape is warmed once
	fmt.Println("Memcached / ETC workload across memory configurations")
	fmt.Printf("%-22s %8s %8s %8s %8s %8s %9s\n",
		"config", "avg(us)", "p50", "p90", "p99", "hit%", "ops/s")
	for _, cfg := range core.AllConfigs() {
		res, err := kvcache.Run(cfg, rc, warmups)
		if err != nil {
			log.Fatal(err)
		}
		h := res.GetLatency
		fmt.Printf("%-22s %8.0f %8.0f %8.0f %8.0f %7.1f%% %9.0f\n",
			cfg, h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99),
			100*res.HitRatio, res.Throughput)
	}

	// Print the CDF of the single-disaggregated configuration, the curve
	// Figure 8 plots.
	res, err := kvcache.Run(core.ConfigSingleDisaggregated, rc, warmups)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsingle-disaggregated GET latency CDF (sampled):")
	cdf := res.GetLatency.CDF()
	step := len(cdf) / 12
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(cdf); i += step {
		fmt.Printf("  %6.0f us  %6.2f%%\n", cdf[i].Value, 100*cdf[i].Fraction)
	}
}
