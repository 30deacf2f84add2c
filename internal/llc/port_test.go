package llc

import (
	"fmt"
	"testing"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/latency"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
)

func newTestPair(k *sim.Kernel, faults phy.FaultConfig, cfg Config) (*Port, *Port) {
	link := phy.NewLink(k, "test", phy.LanesPerChannel, 100*sim.Nanosecond, faults)
	return NewPair(k, "llc", link, cfg)
}

func readReq(tag uint32) *capi.Transaction {
	return &capi.Transaction{Op: capi.OpReadReq, Addr: uint64(tag) * 128, Size: 128, Tag: tag}
}

func TestPortDeliversInOrder(t *testing.T) {
	k := sim.NewKernel()
	a, b := newTestPair(k, phy.FaultConfig{}, DefaultConfig())
	var got []uint32
	b.OnReceive = func(txn *capi.Transaction) { got = append(got, txn.Tag) }
	const n = 100
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a.Send(readReq(uint32(i)))
			p.Sleep(10 * sim.Nanosecond)
		}
	})
	k.RunUntil(sim.Millisecond)
	if len(got) != n {
		t.Fatalf("delivered %d transactions, want %d", len(got), n)
	}
	for i, tag := range got {
		if tag != uint32(i) {
			t.Fatalf("out-of-order delivery at %d: %v", i, got[:i+1])
		}
	}
}

func TestPortRecoversFromFrameLoss(t *testing.T) {
	k := sim.NewKernel()
	a, b := newTestPair(k, phy.FaultConfig{DropProb: 0.10, Seed: 7}, DefaultConfig())
	var got []uint32
	b.OnReceive = func(txn *capi.Transaction) { got = append(got, txn.Tag) }
	const n = 500
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a.SendFrom(p, readReq(uint32(i)))
			p.Sleep(20 * sim.Nanosecond)
		}
	})
	k.RunUntil(50 * sim.Millisecond)
	if len(got) != n {
		t.Fatalf("delivered %d transactions under loss, want %d (stats a=%+v b=%+v)",
			len(got), n, a.Stats(), b.Stats())
	}
	for i, tag := range got {
		if tag != uint32(i) {
			t.Fatalf("order violated under loss at %d", i)
		}
	}
	if a.Stats().TxReplayed == 0 {
		t.Fatal("no frames were replayed despite 10% loss")
	}
}

func TestPortRecoversFromCorruption(t *testing.T) {
	k := sim.NewKernel()
	a, b := newTestPair(k, phy.FaultConfig{CorruptProb: 0.10, Seed: 3}, DefaultConfig())
	var got int
	b.OnReceive = func(*capi.Transaction) { got++ }
	const n = 400
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a.SendFrom(p, readReq(uint32(i)))
			p.Sleep(20 * sim.Nanosecond)
		}
	})
	k.RunUntil(50 * sim.Millisecond)
	if got != n {
		t.Fatalf("delivered %d under corruption, want %d", got, n)
	}
	if b.Stats().RxCRCErrors == 0 {
		t.Fatal("expected CRC errors with corruption injection")
	}
}

func TestPortNoDuplicateDeliveryUnderReplay(t *testing.T) {
	k := sim.NewKernel()
	a, b := newTestPair(k, phy.FaultConfig{DropProb: 0.25, Seed: 11}, DefaultConfig())
	seen := make(map[uint32]int)
	b.OnReceive = func(txn *capi.Transaction) { seen[txn.Tag]++ }
	const n = 200
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a.SendFrom(p, readReq(uint32(i)))
			p.Sleep(50 * sim.Nanosecond)
		}
	})
	k.RunUntil(100 * sim.Millisecond)
	for tag, count := range seen {
		if count != 1 {
			t.Fatalf("transaction %d delivered %d times", tag, count)
		}
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct transactions, want %d", len(seen), n)
	}
}

func TestPortCreditBackpressure(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Credits = 8
	a, b := newTestPair(k, phy.FaultConfig{}, cfg)
	var got int
	b.OnReceive = func(*capi.Transaction) { got++ }
	// Burst far more than the credit window in one instant.
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			a.Send(readReq(uint32(i)))
		}
	})
	k.RunUntil(sim.Millisecond)
	if got != 100 {
		t.Fatalf("delivered %d, want 100 (credits must recycle)", got)
	}
	if a.Credits() != cfg.Credits {
		t.Fatalf("credits = %d after drain, want %d", a.Credits(), cfg.Credits)
	}
}

func TestPortCreditsNeverExceedLimit(t *testing.T) {
	// The panic inside handleControl guards the invariant; this test drives
	// enough traffic to exercise many credit-return frames.
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Credits = 16
	a, b := newTestPair(k, phy.FaultConfig{}, cfg)
	b.OnReceive = func(*capi.Transaction) {}
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			a.SendFrom(p, readReq(uint32(i)))
			if i%7 == 0 {
				p.Sleep(100 * sim.Nanosecond)
			}
		}
	})
	k.RunUntil(10 * sim.Millisecond)
	if a.Stats().TxTransactions != 300 {
		t.Fatalf("sent %d, want 300", a.Stats().TxTransactions)
	}
}

func TestPortBidirectional(t *testing.T) {
	k := sim.NewKernel()
	a, b := newTestPair(k, phy.FaultConfig{}, DefaultConfig())
	var gotA, gotB int
	a.OnReceive = func(*capi.Transaction) { gotA++ }
	b.OnReceive = func(*capi.Transaction) { gotB++ }
	k.Go("txA", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			a.Send(readReq(uint32(i)))
			p.Sleep(15 * sim.Nanosecond)
		}
	})
	k.Go("txB", func(p *sim.Proc) {
		for i := 0; i < 70; i++ {
			b.Send(readReq(uint32(1000 + i)))
			p.Sleep(15 * sim.Nanosecond)
		}
	})
	k.RunUntil(sim.Millisecond)
	if gotB != 50 || gotA != 70 {
		t.Fatalf("bidirectional delivery gotA=%d gotB=%d, want 70/50", gotA, gotB)
	}
}

func TestPortPadsIncompleteFrames(t *testing.T) {
	k := sim.NewKernel()
	a, b := newTestPair(k, phy.FaultConfig{}, DefaultConfig())
	b.OnReceive = func(*capi.Transaction) {}
	k.Go("tx", func(p *sim.Proc) {
		a.Send(readReq(1)) // a single 1-flit transaction in a 16-flit frame
	})
	k.RunUntil(sim.Millisecond)
	if pad := a.Stats().PaddingFlits; pad != FrameFlits-1 {
		t.Fatalf("padding flits = %d, want %d", pad, FrameFlits-1)
	}
}

func TestPortLatencyIncludesCrossings(t *testing.T) {
	k := sim.NewKernel()
	a, b := newTestPair(k, phy.FaultConfig{}, DefaultConfig())
	var deliveredAt sim.Time
	b.OnReceive = func(*capi.Transaction) { deliveredAt = k.Now() }
	k.Go("tx", func(p *sim.Proc) { a.Send(readReq(1)) })
	k.RunUntil(sim.Millisecond)
	// One-way: serialization of 512 B at 12.5 GiB/s (~38ns) + 100ns crossing.
	if deliveredAt < 100*sim.Nanosecond || deliveredAt > 250*sim.Nanosecond {
		t.Fatalf("one-way delivery at %v, want ~138ns", deliveredAt)
	}
}

// Stress determinism: two identical runs must produce identical stats.
func TestPortDeterminism(t *testing.T) {
	run := func() string {
		k := sim.NewKernel()
		a, b := newTestPair(k, phy.FaultConfig{DropProb: 0.05, CorruptProb: 0.05, Seed: 99}, DefaultConfig())
		b.OnReceive = func(*capi.Transaction) {}
		k.Go("tx", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				a.SendFrom(p, readReq(uint32(i)))
				p.Sleep(30 * sim.Nanosecond)
			}
		})
		end := k.RunUntil(100 * sim.Millisecond)
		return fmt.Sprintf("%v %+v %+v", end, a.Stats(), b.Stats())
	}
	if run() != run() {
		t.Fatal("simulation is nondeterministic")
	}
}

// Attribution records cross a same-kernel pair as delivery aux data, exactly
// as on a shard boundary: under drops and CRC errors every delivered
// transaction gets the record its sender attached, once.
func TestPortAttributionRecordsUnderLoss(t *testing.T) {
	k := sim.NewKernel()
	a, b := newTestPair(k, phy.FaultConfig{DropProb: 1e-2, CorruptProb: 1e-2, Seed: 11}, DefaultConfig())
	const n = 2000
	sent := make([]*latency.Record, n)
	seen := make(map[*latency.Record]int)
	b.OnReceive = func(txn *capi.Transaction) {
		if txn.Lat != sent[txn.Tag] {
			t.Errorf("transaction %d delivered with record %p, want %p", txn.Tag, txn.Lat, sent[txn.Tag])
		}
		seen[txn.Lat]++
	}
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			txn := readReq(uint32(i))
			txn.Lat = latency.NewRecord(k.NowPS())
			sent[i] = txn.Lat
			a.SendFrom(p, txn)
			p.Sleep(100 * sim.Nanosecond)
		}
	})
	k.RunUntil(100 * sim.Millisecond)
	delivered := b.Stats().RxTransactions
	if st := a.Stats(); st.TxReplayed == 0 || b.Stats().RxCRCErrors == 0 || delivered < n/2 {
		t.Fatalf("run did not exercise delivery under replay: a=%+v b=%+v", st, b.Stats())
	}
	// Delivery is in order, so the first `delivered` transactions are the
	// delivered ones; any others were abandoned when a port escalated to
	// link-down.
	for i, r := range sent {
		want := 0
		if int64(i) < delivered {
			want = 1
		}
		if seen[r] != want {
			t.Fatalf("record of transaction %d attached %d times, want %d", i, seen[r], want)
		}
	}
}
