package core

import (
	"testing"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/sim"
)

// loadAllocBudget caps the allocations of one cacheline load through the
// full datapath with attribution off. What remains per load (3.0): the
// request transaction, and the transaction blocks decoded from the request
// and the response frames (a read response carries no data here, so it
// has no data block). Data frames' wire arrays return to their sender's
// free list when acknowledged, and control frames reuse the arrays of
// control frames their port decoded.
const loadAllocBudget = 4

// pipelinedAllocBudget caps the allocations of one load when 256 issuers
// share the link, so frames carry about three transactions: the request
// transaction, and a share of the transaction blocks decoded from the
// request and response frames (1.67 in all). A frame path that allocated
// its data wire arrays again would cost about two thirds more per load.
const pipelinedAllocBudget = 2

// TestClusterLoadAllocs pins the datapath's allocation cost per load on
// one kernel. The testbed is built once and measured by checkLoadAllocs.
func TestClusterLoadAllocs(t *testing.T) {
	tb, err := NewTestbed(ConfigSingleDisaggregated, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	checkLoadAllocs(t, tb)
}

// TestClusterLoadAllocsSharded is TestClusterLoadAllocs with the compute
// and donor hosts on different shards: every frame and credit return of a
// load crosses a shard conduit, and a crossing must cost no allocation
// beyond what the same frame costs on one kernel.
func TestClusterLoadAllocsSharded(t *testing.T) {
	tb, err := NewTestbedSpec(TestbedSpec{Config: ConfigSingleDisaggregated, RemoteBytes: 64 << 20, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := tb.Cluster
	if c.ShardOf(tb.Server.Name) == c.ShardOf(tb.Donor.Name) {
		t.Fatal("compute and donor hosts share a shard; the attachment does not cross")
	}
	checkLoadAllocs(t, tb)
}

// checkLoadAllocs measures the allocations per load on tb's attachment.
// Each measured run spawns one process on the compute host that issues n
// synchronous loads, so the process spawn is the only fixed cost and the
// cost per load must not grow with n.
func checkLoadAllocs(t *testing.T, tb *Testbed) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	small := loadAllocs(t, tb, 1, 1_000)
	large := loadAllocs(t, tb, 1, 10_000)
	if large > small {
		t.Errorf("%.3f allocs per load at 10k loads, %.3f at 1k: the cost grows with the run", large, small)
	}
	if small > loadAllocBudget {
		t.Errorf("%.3f allocs per load, budget %d", small, loadAllocBudget)
	}
	t.Logf("%.3f allocs per load at 1k loads, %.3f at 10k", small, large)
}

// TestClusterLoadAllocsPipelined pins the allocations per load on a loaded
// link: 256 issuers, as in BenchmarkClusterLoadPipelined, so the wire
// arrays are recycled while many frames are in flight. The 256 process
// spawns are a fixed cost, so it is measured as the difference between a
// run of 40k loads and one of 10k.
func TestClusterLoadAllocsPipelined(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	tb, err := NewTestbed(ConfigSingleDisaggregated, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	small := loadAllocs(t, tb, 256, 10_000) * 10_000
	large := loadAllocs(t, tb, 256, 40_000) * 40_000
	perLoad := (large - small) / 30_000
	if perLoad > pipelinedAllocBudget {
		t.Errorf("%.3f allocs per load with 256 issuers, budget %d", perLoad, pipelinedAllocBudget)
	}
	t.Logf("%.3f allocs per load with 256 issuers", perLoad)
}

// loadAllocs returns the allocations per load of n cacheline loads on tb's
// attachment, spread over the given number of issuer processes on the
// compute host.
func loadAllocs(t *testing.T, tb *Testbed, issuers, n int) float64 {
	t.Helper()
	c, att := tb.Cluster, tb.Att
	return testing.AllocsPerRun(3, func() {
		for i := 0; i < issuers; i++ {
			first, last := i*n/issuers, (i+1)*n/issuers
			tb.Server.K.Go("loads", func(p *sim.Proc) {
				for j := first; j < last; j++ {
					off := int64(j%4096) * capi.Cacheline
					if _, err := c.Load(p, att, off, capi.Cacheline); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		c.Run()
	}) / float64(n)
}
