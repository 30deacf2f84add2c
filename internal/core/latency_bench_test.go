package core

import (
	"testing"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/sim"
)

// benchClusterLoads drives b.N synchronous cacheline loads through the full
// datapath (capi -> rmmu -> llc -> phy -> donor and back) inside one kernel
// process. With attrOn the latency-attribution sink is enabled, so the
// Off/On pair measures exactly what attribution costs per transaction — and
// documents that the disabled path stays on the pre-attribution allocation
// count (the nil-check discipline shared with internal/trace).
func benchClusterLoads(b *testing.B, attrOn bool) {
	tb, err := NewTestbed(ConfigSingleDisaggregated, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	if attrOn {
		tb.Cluster.EnableLatency()
	}
	c, att := tb.Cluster, tb.Att

	var loadErr error
	b.ReportAllocs()
	b.ResetTimer()
	c.K.Go("bench-loads", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			off := int64(i%256) * capi.Cacheline
			if _, err := c.Load(p, att, off, capi.Cacheline); err != nil {
				loadErr = err
				return
			}
		}
	})
	c.K.Run()
	b.StopTimer()
	if loadErr != nil {
		b.Fatal(loadErr)
	}
	if attrOn {
		if sink := c.LatencySink(); sink.Count() != int64(b.N) {
			b.Fatalf("sink observed %d round trips, want %d", sink.Count(), b.N)
		}
	}
}

func BenchmarkClusterLoadAttrOff(b *testing.B) { benchClusterLoads(b, false) }
func BenchmarkClusterLoadAttrOn(b *testing.B)  { benchClusterLoads(b, true) }

// BenchmarkClusterLoadPipelined spreads b.N cacheline loads over 256
// concurrent issuers, so the link is loaded and frames pack several
// transactions: the loaded counterpart of the one-issuer AttrOff loop. Its
// allocs/op is the cost of one load with shared frames and credit returns,
// and events/load is the simulator's work per load.
func BenchmarkClusterLoadPipelined(b *testing.B) {
	const issuers = 256
	tb, err := NewTestbed(ConfigSingleDisaggregated, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	c, att := tb.Cluster, tb.Att

	var loadErr error
	b.ReportAllocs()
	b.ResetTimer()
	ev0 := c.K.Executed()
	for i := 0; i < issuers; i++ {
		first, n := i*b.N/issuers, (i+1)*b.N/issuers-i*b.N/issuers
		c.K.Go("bench-issuer", func(p *sim.Proc) {
			for j := first; j < first+n; j++ {
				off := int64(j%4096) * capi.Cacheline
				if _, err := c.Load(p, att, off, capi.Cacheline); err != nil {
					loadErr = err
					return
				}
			}
		})
	}
	c.K.Run()
	b.StopTimer()
	if loadErr != nil {
		b.Fatal(loadErr)
	}
	b.ReportMetric(float64(c.K.Executed()-ev0)/float64(b.N), "events/load")
}

// BenchmarkClusterLoadRecorderOn measures the same load loop with the
// flight recorder sampling on the default grid (driven through Cluster.Run,
// the pump path). The delta against AttrOff is the whole recording cost;
// with the recorder off the run never touches the recorder code at all, so
// AttrOff doubles as the recorder-disabled allocation guard.
func BenchmarkClusterLoadRecorderOn(b *testing.B) {
	tb, err := NewTestbed(ConfigSingleDisaggregated, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	c, att := tb.Cluster, tb.Att
	c.EnableFlightRecorder(FlightOptions{})

	var loadErr error
	b.ReportAllocs()
	b.ResetTimer()
	c.K.Go("bench-loads", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			off := int64(i%256) * capi.Cacheline
			if _, err := c.Load(p, att, off, capi.Cacheline); err != nil {
				loadErr = err
				return
			}
		}
	})
	c.Run()
	b.StopTimer()
	if loadErr != nil {
		b.Fatal(loadErr)
	}
	if rec := c.FlightRecorder(); rec != nil {
		if _, points, _ := rec.Stats(); points == 0 {
			b.Fatal("recorder sampled nothing")
		}
	}
}
