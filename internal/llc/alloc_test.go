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
// block of transactions decoded from it (a frame with data adds the block
// of their data), and the credit return's wire array. The data frame's wire
// array returns to the sender's free list when the ack prunes it. A credit
// return reuses the array of a control frame its port decoded, but here
// traffic flows one way, so b never decodes one.
const frameAllocBudget = 2

// TestPortFrameAllocs pins the per-frame allocations of a steady lossless
// Port pair. Callbacks are bound once and the queues, the replay ring, the
// packing and decode arrays and the wire arrays are reused, so the cost of
// 9,000 extra frames must be the budget per frame.
func TestPortFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	small := testing.AllocsPerRun(3, func() { runFrames(t, 1_000) })
	large := testing.AllocsPerRun(3, func() { runFrames(t, 10_000) })
	perFrame := (large - small) / 9_000
	// The 0.001 (9 allocations in all) is for strays: the runtime's own,
	// or a reused array growing once, are not a cost per frame.
	if perFrame > frameAllocBudget+0.001 {
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
