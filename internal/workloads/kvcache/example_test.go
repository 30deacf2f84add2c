package kvcache_test

import (
	"fmt"

	"thymesisflow/internal/core"
	"thymesisflow/internal/workloads/kvcache"
)

// Example runs a small ETC experiment on the local configuration and shows
// the quantities Figure 8 is built from.
func Example() {
	rc := kvcache.DefaultRunConfig()
	rc.Threads = 8
	rc.RequestsPerThread = 200
	rc.CacheBytes = 16 << 20
	rc.Keys = 200_000
	res, err := kvcache.Run(core.ConfigLocal, rc, kvcache.NewWarmups())
	if err != nil {
		panic(err)
	}
	fmt.Printf("config=%v\n", res.Config)
	fmt.Printf("measured GETs > 1000: %v\n", res.GetLatency.Count() > 1000)
	fmt.Printf("GET:SET near 30:1: %v\n",
		res.GetLatency.Count() > 15*res.SetLatency.Count())
	fmt.Printf("p90 above p50: %v\n",
		res.GetLatency.Quantile(0.9) >= res.GetLatency.Quantile(0.5))
	// Output:
	// config=local
	// measured GETs > 1000: true
	// GET:SET near 30:1: true
	// p90 above p50: true
}
