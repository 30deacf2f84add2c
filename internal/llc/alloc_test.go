package llc

import (
	"testing"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
)

// runFrames sends n read requests over a fresh lossless pair, one frame
// each, and checks that b received all of them. The request is reused:
// ports never modify what they send.
func runFrames(tb testing.TB, n int) {
	k := sim.NewKernel()
	a, b := newTestPair(k, phy.FaultConfig{}, DefaultConfig())
	got := 0
	b.OnReceive = func(*capi.Transaction) { got++ }
	req := readReq(1)
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a.Send(req)
			p.Sleep(sim.Microsecond)
		}
	})
	k.Run()
	if got != n {
		tb.Fatalf("received %d of %d requests", got, n)
	}
}

// frameAllocBudget is what one frame costs on a steady lossless pair: the
// data frame's wire array, the transaction decoded from it, and the wire
// array of the credit return that acknowledges it.
const frameAllocBudget = 3

// TestPortFrameAllocs pins the per-frame allocations of a steady lossless
// Port pair. Callbacks are bound once and the queues, the replay ring and
// the packing and decode arrays are reused, so the cost of 9,000 extra
// frames must be the budget per frame.
func TestPortFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	small := testing.AllocsPerRun(3, func() { runFrames(t, 1_000) })
	large := testing.AllocsPerRun(3, func() { runFrames(t, 10_000) })
	perFrame := (large - small) / 9_000
	if perFrame > frameAllocBudget {
		t.Errorf("%.2f allocs per frame, budget %d", perFrame, frameAllocBudget)
	}
	t.Logf("%.0f allocs at 1k frames, %.0f at 10k: %.2f per frame", small, large, perFrame)
}

// BenchmarkPortFrame measures one request frame and its credit return on a
// steady lossless pair: encode, phy delivery, decode, and the control
// frame back.
func BenchmarkPortFrame(b *testing.B) {
	b.ReportAllocs()
	runFrames(b, b.N)
}
