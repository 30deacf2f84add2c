package llc

import (
	"testing"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
)

// TestTxReplayExhaustionEscalates kills the forward channel entirely: the
// transmitter must retransmit MaxReplayAttempts times, then fence the link
// and notify the upper layer instead of retrying forever.
func TestTxReplayExhaustionEscalates(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	a, b := newTestPair(k, phy.FaultConfig{}, cfg)
	b.OnReceive = func(*capi.Transaction) {}
	notified := false
	a.OnLinkDown = func() { notified = true }
	a.Channel().SetFaults(phy.FaultConfig{DropProb: 1})
	k.Go("tx", func(p *sim.Proc) { a.Send(readReq(1)) })
	k.RunUntil(5 * sim.Millisecond)
	if !a.Down() {
		t.Fatalf("port not down after dead link (stats %+v)", a.Stats())
	}
	if !notified {
		t.Fatal("OnLinkDown not invoked")
	}
	st := a.Stats()
	if st.ReplayExhausted != 1 || st.LinkDownEvents != 1 {
		t.Fatalf("escalation counters = %+v", st)
	}
	if st.TxReplayed != int64(cfg.MaxReplayAttempts) {
		t.Fatalf("TxReplayed = %d, want %d", st.TxReplayed, cfg.MaxReplayAttempts)
	}
	// Further sends on a down port are abandoned, not queued.
	k.Go("tx2", func(p *sim.Proc) { a.Send(readReq(2)) })
	k.RunUntil(6 * sim.Millisecond)
	if a.Stats().TxAbandoned == 0 {
		t.Fatal("send on a down port was not counted as abandoned")
	}
}

// TestRxReplayStallEscalates starves the receiver of a requested replay:
// a forged out-of-order frame opens a gap the peer can never fill, so the
// receive side must eventually declare the link dead.
func TestRxReplayStallEscalates(t *testing.T) {
	k := sim.NewKernel()
	a, b := newTestPair(k, phy.FaultConfig{}, DefaultConfig())
	a.OnReceive = func(*capi.Transaction) {}
	b.OnReceive = func(*capi.Transaction) {}
	_ = a
	// Inject a frame far ahead of b's expected sequence; a has nothing in
	// its replay buffer, so b's replay requests can make no progress.
	f := &Frame{Kind: kindData, Seq: 5, Txns: []*capi.Transaction{readReq(9)}}
	wire := f.Encode()
	k.Go("inject", func(p *sim.Proc) {
		b.Deliver(phy.Delivery{Payload: (*[FrameBytes]byte)(wire), Bytes: len(wire)})
	})
	k.RunUntil(5 * sim.Millisecond)
	if !b.Down() {
		t.Fatalf("receiver not down after unanswerable gap (stats %+v)", b.Stats())
	}
	st := b.Stats()
	if st.ReplayExhausted != 1 || st.LinkDownEvents != 1 {
		t.Fatalf("escalation counters = %+v", st)
	}
	if st.RxGaps == 0 {
		t.Fatal("gap was not detected")
	}
}

// TestCreditProbeRepairsLostReturns drops every reverse-direction frame for
// a window long enough to lose several credit returns, then heals the link:
// the transmitter's probe cycle must recover the lost credits and drain all
// traffic with credits conserved.
func TestCreditProbeRepairsLostReturns(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Credits = 4
	a, b := newTestPair(k, phy.FaultConfig{}, cfg)
	got := 0
	b.OnReceive = func(*capi.Transaction) { got++ }
	// Reverse channel (b's outbound) black-holes all credit returns for
	// 100 us — well under the escalation budget of MaxReplayAttempts
	// probe timeouts.
	b.Channel().SetSchedule(phy.FaultSchedule{
		Windows: []phy.Window{{From: 0, To: 100 * sim.Microsecond, DropProb: 1}},
	})
	const n = 20
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a.Send(readReq(uint32(i)))
		}
	})
	k.RunUntil(10 * sim.Millisecond)
	if got != n {
		t.Fatalf("delivered %d, want %d (stats a=%+v)", got, n, a.Stats())
	}
	if a.Credits() != cfg.Credits {
		t.Fatalf("credits = %d after drain, want %d (conservation)", a.Credits(), cfg.Credits)
	}
	st := a.Stats()
	if st.CreditProbes == 0 {
		t.Fatal("no credit probes sent despite lost returns")
	}
	if st.LinkDownEvents != 0 {
		t.Fatalf("spurious escalation: %+v", st)
	}
}

// TestCreditStarvationEscalates black-holes the reverse channel forever:
// the probe cycle must exhaust its attempts and fence the link rather than
// stalling silently with pending traffic.
func TestCreditStarvationEscalates(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Credits = 4
	a, b := newTestPair(k, phy.FaultConfig{}, cfg)
	b.OnReceive = func(*capi.Transaction) {}
	b.Channel().SetFaults(phy.FaultConfig{DropProb: 1})
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			a.Send(readReq(uint32(i)))
		}
	})
	k.RunUntil(10 * sim.Millisecond)
	if !a.Down() {
		t.Fatalf("transmitter not down after permanent starvation (stats %+v)", a.Stats())
	}
	st := a.Stats()
	if st.CreditProbes != int64(cfg.MaxReplayAttempts) {
		t.Fatalf("CreditProbes = %d, want %d", st.CreditProbes, cfg.MaxReplayAttempts)
	}
	if st.TxAbandoned == 0 {
		t.Fatal("pending transactions were not abandoned on escalation")
	}
}

// TestSendFromReleasedOnLinkDown verifies that a process stalled on credits
// is released (with its transaction abandoned) when the port escalates,
// instead of blocking forever.
func TestSendFromReleasedOnLinkDown(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Credits = 2
	a, b := newTestPair(k, phy.FaultConfig{}, cfg)
	b.OnReceive = func(*capi.Transaction) {}
	b.Channel().SetFaults(phy.FaultConfig{DropProb: 1}) // no credit returns ever
	returned := false
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			a.SendFrom(p, readReq(uint32(i)))
		}
		returned = true
	})
	k.RunUntil(20 * sim.Millisecond)
	if !a.Down() {
		t.Fatalf("port not down (stats %+v)", a.Stats())
	}
	if !returned {
		t.Fatal("SendFrom caller still blocked after link-down")
	}
}
