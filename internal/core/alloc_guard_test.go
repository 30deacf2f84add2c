package core

import (
	"testing"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/sim"
)

// loadAllocBudget caps the allocations of one cacheline load through the
// full datapath with attribution off. What remains per load: the request
// transaction, the two data frames' and two credit returns' wire arrays,
// and the request and response transactions decoded from the wire.
const loadAllocBudget = 10

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
	c, att := tb.Cluster, tb.Att
	loads := func(n int) {
		tb.Server.K.Go("loads", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				off := int64(i%256) * capi.Cacheline
				if _, err := c.Load(p, att, off, capi.Cacheline); err != nil {
					t.Error(err)
					return
				}
			}
		})
		c.Run()
	}
	small := testing.AllocsPerRun(3, func() { loads(1_000) }) / 1_000
	large := testing.AllocsPerRun(3, func() { loads(10_000) }) / 10_000
	if large > small {
		t.Errorf("%.3f allocs per load at 10k loads, %.3f at 1k: the cost grows with the run", large, small)
	}
	if small > loadAllocBudget {
		t.Errorf("%.3f allocs per load, budget %d", small, loadAllocBudget)
	}
	t.Logf("%.3f allocs per load at 1k loads, %.3f at 10k", small, large)
}
