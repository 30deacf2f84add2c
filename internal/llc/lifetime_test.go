package llc

import (
	"testing"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/fabric"
	"thymesisflow/internal/latency"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
)

// TestReplayedCopyOutlivesAck pins the half of the wire-buffer lifetime
// rule that keeps arrays alive: a frame that went on the wire more than
// once never has its array reused, because a copy of it can still be on
// the wire after the peer's CumAck prunes its replay slot.
//
// The link's round trip (30 us) is longer than the replay timeout (20 us),
// so every frame's tail-loss timer fires before its ack returns and sends a
// copy that is still in flight when the ack prunes the slot. Every frame
// here is sent at least twice, so none is recycled. A write leaves every
// 2 us, so several new frames follow each prune while the old copy is in
// flight: a port that recycled such arrays would have overwritten it by
// the time it lands. 5% of frames are dropped on top.
// TestWireArraysNotReusedInFlight checks the other half, that frames sent
// once are recycled, and only once their copy has arrived.
//
// Each arriving array must still hold the frame it first carried, the
// stale copies must count as duplicates, and every write must arrive once,
// in order, with its own data and its own attribution record.
func TestReplayedCopyOutlivesAck(t *testing.T) {
	for _, viaSwitch := range []bool{false, true} {
		name := "direct"
		if viaSwitch {
			name = "switch"
		}
		t.Run(name, func(t *testing.T) { replayedCopyOutlivesAck(t, viaSwitch) })
	}
}

func replayedCopyOutlivesAck(t *testing.T, viaSwitch bool) {
	const (
		n      = 400
		oneWay = 15 * sim.Microsecond
		gap    = 2 * sim.Microsecond
	)
	k := sim.NewKernel()
	faults := phy.FaultConfig{DropProb: 0.05, Seed: 11}
	var a, b *Port
	// toB is the channel whose deliveries reach b.
	var toB *phy.Channel
	if viaSwitch {
		// Two hops of half the latency each, bridged by a packet switch
		// that queues every frame before forwarding it.
		la := phy.NewLink(k, "a-sw", phy.LanesPerChannel, oneWay/2, faults)
		faults.Seed += 2
		lb := phy.NewLink(k, "sw-b", phy.LanesPerChannel, oneWay/2, faults)
		a, b = NewPair(k, "llc", &phy.Link{AtoB: la.AtoB, BtoA: lb.BtoA}, DefaultConfig())
		sw := fabric.NewSwitch(k, "sw", fabric.Config{Ports: 4, Mode: fabric.Packet})
		if err := sw.Connect(la.AtoB, lb.AtoB); err != nil {
			t.Fatal(err)
		}
		if err := sw.Connect(lb.BtoA, la.BtoA); err != nil {
			t.Fatal(err)
		}
		la.BtoA.OnDeliver(a.Deliver)
		toB = lb.AtoB
	} else {
		link := phy.NewLink(k, "slow", phy.LanesPerChannel, oneWay, faults)
		a, b = NewPair(k, "llc", link, DefaultConfig())
		toB = link.AtoB
	}

	// Watch every data frame on its way into b: an array must decode to
	// the sequence number it carried when first seen, and a copy whose
	// frame the sender has already pruned is a stale copy.
	firstSeq := map[*[FrameBytes]byte]uint64{}
	stale := 0
	toB.OnDeliver(func(d phy.Delivery) {
		if w, ok := d.Payload.(*[FrameBytes]byte); ok {
			f, err := Decode(w[:])
			if err != nil {
				t.Fatalf("clean wire array fails to decode: %v", err)
			}
			if seq, seen := firstSeq[w]; !seen {
				firstSeq[w] = f.Seq
			} else if f.Seq != seq {
				t.Fatalf("wire array first carried frame %d, now frame %d", seq, f.Seq)
			}
			if firstSeq[w] < a.oldestKept {
				stale++
			}
		}
		b.Deliver(d)
	})

	recs := make([]*latency.Record, n)
	next := 0
	b.OnReceive = func(txn *capi.Transaction) {
		i := int(txn.Tag)
		if i != next {
			t.Fatalf("write %d arrived, want %d", i, next)
		}
		next++
		if !capi.PatternMatches(txn.Data, uint64(i)) {
			t.Fatalf("write %d arrived with damaged data", i)
		}
		if txn.Lat != recs[i] {
			t.Fatalf("write %d arrived with another write's attribution record", i)
		}
	}
	a.OnReceive = func(*capi.Transaction) {}
	k.Go("writer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			data := make([]byte, capi.Cacheline)
			capi.FillPattern(data, uint64(i))
			recs[i] = latency.NewRecord(k.NowPS())
			a.Send(&capi.Transaction{Op: capi.OpWriteReq, Addr: uint64(i) * capi.Cacheline,
				Size: capi.Cacheline, Tag: uint32(i), Data: data, Lat: recs[i]})
			p.Sleep(gap)
		}
	})
	k.Run()

	if next != n {
		t.Fatalf("%d of %d writes arrived (a %+v, b %+v)", next, n, a.Stats(), b.Stats())
	}
	st := b.Stats()
	if st.RxCRCErrors != 0 {
		t.Fatalf("%d CRC errors on a link that only drops", st.RxCRCErrors)
	}
	if stale == 0 {
		t.Fatal("no copy of a pruned frame arrived: the scenario exercised nothing")
	}
	if st.RxDuplicates < int64(stale) {
		t.Fatalf("%d stale copies arrived but only %d counted as duplicates", stale, st.RxDuplicates)
	}
	t.Logf("%d stale copies, %d duplicates, %d replayed, %d gaps", stale, st.RxDuplicates, a.Stats().TxReplayed, st.RxGaps)
}
