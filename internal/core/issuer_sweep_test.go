package core

import (
	"testing"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/llc"
	"thymesisflow/internal/sim"
)

// sweepPoint is one issuer count of the loaded-link sweep.
type sweepPoint struct {
	issuers       int
	txnsPerFrame  float64 // transactions per data frame, both directions
	padPerFrame   float64 // nop padding flits per data frame
	loadsPerUS    float64 // loads completed per simulated microsecond
	meanRTTns     float64
	eventsPerLoad float64
}

// runIssuerSweep drives `issuers` concurrent processes, each issuing
// `perIssuer` synchronous cacheline loads, through the single-disaggregated
// testbed (one lossless channel, default credits). Throughput is measured
// up to the last load's completion, so trailing tail-loss timers do not
// dilute it; events per load count everything the run executes.
func runIssuerSweep(tb testing.TB, issuers, perIssuer int) sweepPoint {
	tb.Helper()
	bed, err := NewTestbed(ConfigSingleDisaggregated, 64<<20)
	if err != nil {
		tb.Fatal(err)
	}
	c, att := bed.Cluster, bed.Att
	k := c.K
	ev0 := k.Executed()
	var rttSum, last sim.Time
	loads := 0
	for i := 0; i < issuers; i++ {
		base := i * perIssuer
		k.Go("issuer", func(p *sim.Proc) {
			for j := 0; j < perIssuer; j++ {
				off := int64((base+j)%4096) * capi.Cacheline
				t0 := p.Now()
				if _, err := c.Load(p, att, off, capi.Cacheline); err != nil {
					tb.Error(err)
					return
				}
				rttSum += p.Now() - t0
				last = p.Now()
				loads++
			}
		})
	}
	c.Run()
	if want := issuers * perIssuer; loads != want {
		tb.Fatalf("%d issuers: %d loads completed, want %d", issuers, loads, want)
	}
	var frames, txns, pad int64
	for _, port := range att.Ports() {
		for _, q := range []*llc.Port{port, port.Peer()} {
			st := q.Stats()
			frames += st.TxFrames
			txns += st.TxTransactions
			pad += st.PaddingFlits
		}
	}
	return sweepPoint{
		issuers:       issuers,
		txnsPerFrame:  float64(txns) / float64(frames),
		padPerFrame:   float64(pad) / float64(frames),
		loadsPerUS:    float64(loads) / (float64(last) / float64(sim.Microsecond)),
		meanRTTns:     float64(rttSum) / float64(loads) / float64(sim.Nanosecond),
		eventsPerLoad: float64(k.Executed()-ev0) / float64(loads),
	}
}

// TestIssuerSweepPacksFrames gates the LLC framer under load. A frame is
// formed only when the serializer is about to free, so transactions that
// arrive while the wire is busy share the next frame: packing must not fall
// as issuers rise, and at 256 issuers the link must carry at least 75% of
// the flit-arithmetic bound. That bound is three 128 B read responses (5
// flits each) per 16-flit frame, one frame per FrameBytes at the channel
// rate: 3 / 38.1 ns, about 78 loads/us. A single issuer never finds the
// serializer busy, so it forms every frame at the instant it did before
// pull framing: its RTT and event count are pinned.
func TestIssuerSweepPacksFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs ~50k loads")
	}
	var prev sweepPoint
	for _, n := range []int{1, 16, 64, 256, 512} {
		pt := runIssuerSweep(t, n, 64)
		t.Logf("%3d issuers: %.2f txns/frame, %.2f pad flits/frame, %.1f loads/us, mean RTT %.0f ns, %.2f events/load",
			n, pt.txnsPerFrame, pt.padPerFrame, pt.loadsPerUS, pt.meanRTTns, pt.eventsPerLoad)
		if n > 1 && pt.txnsPerFrame < prev.txnsPerFrame {
			t.Errorf("%d issuers pack %.2f txns/frame, fewer than %d issuers' %.2f",
				n, pt.txnsPerFrame, prev.issuers, prev.txnsPerFrame)
		}
		switch n {
		case 1:
			if got := int64(pt.meanRTTns + 0.5); got != 1124 {
				t.Errorf("1 issuer: mean RTT %.1f ns, want 1124", pt.meanRTTns)
			}
			if got := int64(pt.eventsPerLoad*100 + 0.5); got != 1502 {
				t.Errorf("1 issuer: %.3f events per load, want 15.02", pt.eventsPerLoad)
			}
		case 256:
			if pt.txnsPerFrame <= 2.5 {
				t.Errorf("256 issuers: %.2f txns/frame, want > 2.5", pt.txnsPerFrame)
			}
			if pt.loadsPerUS < 58 {
				t.Errorf("256 issuers: %.1f loads/us, want >= 58 (75%% of the ~78 flit bound)", pt.loadsPerUS)
			}
		}
		prev = pt
	}
}
