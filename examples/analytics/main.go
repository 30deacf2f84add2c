// analytics example: run the Elasticsearch-like engine on the Rally
// "nested" track across memory configurations (the Figure 9 experiment),
// showing where scale-out beats disaggregation and where they tie.
//
//	go run ./examples/analytics
package main

import (
	"fmt"
	"log"

	"thymesisflow/internal/core"
	"thymesisflow/internal/workloads/search"
)

func main() {
	fmt.Println("Elasticsearch-like engine, Rally \"nested\" track (queries/sec)")
	indexes := search.NewIndexes() // each index shape is built once
	for _, ch := range search.Challenges() {
		for _, shards := range []int{5, 32} {
			fmt.Printf("%-8v shards=%-3d:", ch, shards)
			for _, cfg := range core.AllConfigs() {
				rc := search.DefaultRunConfig(ch, shards)
				rc.Clients = 32
				rc.OpsPerClient = 2
				rc.Corpus.Docs = 200_000
				if ch == search.MA {
					rc.OpsPerClient = 10
				}
				res, err := search.Run(cfg, rc, indexes)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  %s=%.0f", cfg, res.Throughput)
			}
			fmt.Println()
		}
	}
	fmt.Println("\nexpected shape (paper Fig. 9): scale-out wins RTQ and the nested")
	fmt.Println("challenges; all configurations tie on MA; shard scaling degrades the")
	fmt.Println("synchronization-heavy challenges.")
}
