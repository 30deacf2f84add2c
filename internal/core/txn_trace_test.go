package core

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/llc"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/trace"
)

// TestTracedTransactionsMatchRecords runs 256 concurrent processes against
// one lossy, credit-starved single-channel attachment with both a tracer
// and a latency sink on, exports the trace, parses it back, and checks the
// derived spans against the latency records: every transaction's stage
// spans tile its root, every root is its issuer's measured round trip,
// each critical path holds only its own spans, and the trace-side
// credit_stall share is the sink's.
func TestTracedTransactionsMatchRecords(t *testing.T) {
	const procs, opsPerProc = 256, 8
	tb, err := NewTestbedSpec(TestbedSpec{
		Config:      ConfigSingleDisaggregated,
		RemoteBytes: procs * capi.Cacheline,
		HostMutate: func(hc *HostConfig) {
			hc.SectionSize = 1 << 20
			hc.RMMUSections = 256
		},
		// A credit window of a quarter of the issuers makes them stall.
		AttachMutate: func(as *AttachSpec) {
			cfg := llc.DefaultConfig()
			cfg.Credits = procs / 4
			as.LLC = &cfg
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, att := tb.Cluster, tb.Att
	sink := c.EnableLatency()
	ring := trace.NewRing(1 << 18)
	c.K.SetTracer(ring)
	c.ApplyFaultSchedule(att, phy.FaultSchedule{Base: phy.FaultConfig{DropProb: 2e-3, CorruptProb: 1e-3, Seed: 1}})

	// Each issuer measures its own round trips: the record starts when the
	// endpoint accepts the request and finishes when the issuer wakes, so
	// the measured time is the record's Elapsed.
	type rtt struct {
		start, dur int64
		store      bool
	}
	measured := map[rtt]int{}
	for i := 0; i < procs; i++ {
		off := int64(i) * capi.Cacheline
		c.K.Go(fmt.Sprintf("issuer%d", i), func(p *sim.Proc) {
			for op := 0; op < opsPerProc; op++ {
				store := op%4 != 0
				start := c.K.NowPS()
				var err error
				if store {
					err = c.Store(p, att, off, make([]byte, capi.Cacheline))
				} else {
					_, err = c.Load(p, att, off, capi.Cacheline)
				}
				if err != nil {
					t.Error(err)
					return
				}
				measured[rtt{start, c.K.NowPS() - start, store}]++
			}
		})
	}
	c.Run()

	traffic := att.Traffic()
	if traffic.CreditStalls == 0 || traffic.TxReplayed == 0 {
		t.Fatalf("credit stalls %d, replayed frames %d: the run must exercise both", traffic.CreditStalls, traffic.TxReplayed)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("ring evicted %d events; raise its capacity", ring.Dropped())
	}
	var buf bytes.Buffer
	if err := ring.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	txns := trace.Transactions(events)
	if len(txns) != procs*opsPerProc {
		t.Fatalf("%d traced transactions, want %d", len(txns), procs*opsPerProc)
	}
	traced := map[rtt]int{}
	for _, tx := range txns {
		end := tx.Root.TS
		for _, s := range tx.Stages {
			if s.TS != end {
				t.Fatalf("txn %d: stage %s starts at %d, previous ends at %d", tx.Root.Txn, s.Name, s.TS, end)
			}
			end += s.Dur
		}
		if end != tx.Root.TS+tx.Root.Dur {
			t.Fatalf("txn %d: stages end at %d, root at %d", tx.Root.Txn, end, tx.Root.TS+tx.Root.Dur)
		}
		traced[rtt{tx.Root.TS, tx.Root.Dur, tx.Root.Name == "write_req"}]++
	}
	if len(traced) != len(measured) {
		t.Fatalf("%d distinct traced round trips, %d measured", len(traced), len(measured))
	}
	for k, n := range measured {
		if traced[k] != n {
			t.Fatalf("round trip %+v measured %d times, traced %d times", k, n, traced[k])
		}
	}

	const top = 3
	paths := trace.CriticalPaths(events, top)
	durs := make([]int64, len(txns))
	for i, tx := range txns {
		durs[i] = tx.Root.Dur
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] > durs[j] })
	if len(paths) != top {
		t.Fatalf("%d critical paths, want %d", len(paths), top)
	}
	for i, cp := range paths {
		if cp.Root.Dur != durs[i] {
			t.Fatalf("critical path %d is %d ps, the %d-th slowest is %d ps", i, cp.Root.Dur, i+1, durs[i])
		}
		var sum int64
		for _, s := range cp.Stages {
			if s.Txn != cp.Root.Txn {
				t.Fatalf("critical path of txn %d holds a span of txn %d", cp.Root.Txn, s.Txn)
			}
			sum += s.Dur
		}
		if sum != cp.Root.Dur {
			t.Fatalf("critical path of txn %d: stages sum to %d ps, root is %d ps", cp.Root.Txn, sum, cp.Root.Dur)
		}
	}

	b := sink.Snapshot()
	shares := trace.AttributeStalls(events)
	if int64(shares.RoundTrips) != b.Count {
		t.Fatalf("trace holds %d round trips, sink %d", shares.RoundTrips, b.Count)
	}
	var traceShare, sinkShare float64
	for _, s := range shares.Stages {
		if s.Stage == "credit_stall" {
			traceShare = s.SharePct
		}
	}
	for _, s := range b.Stages {
		if s.Stage == "credit_stall" {
			sinkShare = s.SharePct
		}
	}
	if sinkShare == 0 || math.Abs(traceShare-sinkShare) > 1e-6*sinkShare {
		t.Fatalf("credit_stall share: trace %.9f%%, sink %.9f%%", traceShare, sinkShare)
	}
	t.Logf("%d transactions, %d events, credit_stall %.3f%% of RTT, %d replayed frames",
		len(txns), len(events), sinkShare, traffic.TxReplayed)
}
