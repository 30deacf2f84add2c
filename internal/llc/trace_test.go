package llc

import (
	"testing"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/trace"
)

// TestPortTraceEvents drives a lossy link with a tracer attached and checks
// the protocol's trace vocabulary shows up: gap instants and closed
// replay-window spans. Per-frame and per-transaction timing is not a port
// event: it reaches the trace through the transactions' latency records.
func TestPortTraceEvents(t *testing.T) {
	k := sim.NewKernel()
	// Big enough to retain the whole run: the kernel's per-event sim spans
	// dominate, and eviction would drop the early gap instants.
	ring := trace.NewRing(1 << 16)
	k.SetTracer(ring)
	a, b := newTestPair(k, phy.FaultConfig{DropProb: 0.10, Seed: 7}, DefaultConfig())
	var got int
	b.OnReceive = func(*capi.Transaction) { got++ }
	const n = 300
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a.SendFrom(p, readReq(uint32(i)))
			p.Sleep(20 * sim.Nanosecond)
		}
	})
	k.RunUntil(50 * sim.Millisecond)
	if got != n {
		t.Fatalf("delivered %d, want %d", got, n)
	}

	var gaps, replaySpans, emptyReplay int
	for _, e := range ring.Snapshot() {
		if e.Layer != trace.LayerLLC && e.Layer != trace.LayerPhy && e.Layer != trace.LayerSim {
			t.Fatalf("unexpected layer %q", e.Layer)
		}
		if e.Layer != trace.LayerLLC {
			continue
		}
		switch {
		case e.Name == "rx_gap" && e.Ph == trace.PhaseInstant:
			gaps++
		case e.Name == "replay" && e.Ph == trace.PhaseSpan:
			replaySpans++
			if e.Dur <= 0 {
				emptyReplay++
			}
		case e.Name == "tx_frame" || e.Name == "credit_stall":
			t.Fatalf("per-frame or per-transaction event %q on the port", e.Name)
		}
	}
	if gaps == 0 || replaySpans == 0 {
		t.Fatalf("gaps=%d replaySpans=%d; expected replay activity under 10%% loss", gaps, replaySpans)
	}
	if emptyReplay != 0 {
		t.Fatalf("%d replay spans closed without covering any time", emptyReplay)
	}
}
