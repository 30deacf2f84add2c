package search_test

import (
	"fmt"

	"thymesisflow/internal/core"
	"thymesisflow/internal/workloads/search"
)

// Example runs one Figure 9 cell: the random-tag challenge on the
// scale-out configuration.
func Example() {
	rc := search.DefaultRunConfig(search.RTQ, 4)
	rc.Clients = 8
	rc.OpsPerClient = 2
	rc.Corpus = search.CorpusConfig{Seed: 1, Docs: 40_000, Tags: 50, TagsPerDoc: 3}
	res, err := search.Run(core.ConfigScaleOut, rc, search.NewIndexes())
	if err != nil {
		panic(err)
	}
	fmt.Printf("challenge=%v shards=%d\n", res.Challenge, res.Shards)
	fmt.Printf("queries returned hits: %v\n", res.TotalHits > 0)
	fmt.Printf("throughput positive: %v\n", res.Throughput > 0)
	// Output:
	// challenge=RTQ shards=4
	// queries returned hits: true
	// throughput positive: true
}
