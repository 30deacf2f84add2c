package llc

import (
	"testing"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
)

// framerWatch observes one port's framer from outside its protocol: when
// each data frame was formed, when its tail-loss timer was armed, when each
// credit return was sent, and, in transmission order, what its outbound
// channel carried and when each frame began serializing.
type framerWatch struct {
	formed, armed map[uint64]sim.Time
	ctlSent       []sim.Time
	serStart      []sim.Time
	dataSeq       []uint64 // a data frame's sequence number, ^0 for a control frame
}

// watchFramer wraps p's bound flush, credit-return and tail-loss callbacks
// with recorders. Each wrapper calls the port's own handler, so the
// protocol runs unchanged.
func watchFramer(k *sim.Kernel, p *Port) *framerWatch {
	w := &framerWatch{formed: map[uint64]sim.Time{}, armed: map[uint64]sim.Time{}}
	p.bind()
	p.t.flush = func() {
		from := p.nextSeq
		p.flush()
		for seq := from; seq < p.nextSeq; seq++ {
			w.formed[seq] = k.Now()
		}
	}
	p.t.credit = func() {
		w.ctlSent = append(w.ctlSent, k.Now())
		p.sendCreditReturn()
	}
	p.t.txTimers = sim.NewLane(k, func(tt txTimer) {
		if tt.attempt == 0 {
			w.armed[tt.seq] = k.Now() - p.cfg.ReplayTimeout
		}
		p.txTimeout(tt)
	})
	return w
}

// logWire re-points ch's deliveries through a recorder in front of dst.
// A frame's serialization starts its wire time plus the crossing before
// it arrives.
func (w *framerWatch) logWire(k *sim.Kernel, ch *phy.Channel, oneWay sim.Time, dst *Port) {
	ch.OnDeliver(func(d phy.Delivery) {
		start := k.Now() - oneWay - sim.DurationForBytes(int64(d.Bytes), ch.Rate())
		seq := ^uint64(0)
		if wire, ok := d.Payload.(*[FrameBytes]byte); ok {
			f, err := Decode(wire[:])
			if err != nil {
				panic(err)
			}
			seq = f.Seq
		}
		w.serStart = append(w.serStart, start)
		w.dataSeq = append(w.dataSeq, seq)
		dst.Deliver(d)
	})
}

// TestFramerInvariants drives a port pair with bursts of 64 read requests
// answered by 128 B responses, so both directions carry a deep pending
// backlog, and checks what pull framing promises:
//   - no data frame is formed while the serializer is more than one frame
//     time from free, so at most one formed frame waits ahead of the wire;
//   - a credit return never waits behind more than one data frame beyond
//     the one already serializing;
//   - each tail-loss timer is armed no more than one frame time before its
//     frame starts serializing;
//   - credits are conserved, and every transaction is delivered once, in
//     order.
func TestFramerInvariants(t *testing.T) {
	const (
		oneWay = 100 * sim.Nanosecond
		bursts = 4
		depth  = 64
	)
	k := sim.NewKernel()
	cfg := DefaultConfig()
	link := phy.NewLink(k, "framer", phy.LanesPerChannel, oneWay, phy.FaultConfig{})
	a, b := NewPair(k, "llc", link, cfg)
	frameTime := sim.DurationForBytes(FrameBytes, link.AtoB.Rate())

	wa, wb := watchFramer(k, a), watchFramer(k, b)
	wa.logWire(k, link.AtoB, oneWay, b)
	wb.logWire(k, link.BtoA, oneWay, a)

	var reqs, resps []uint32
	data := make([]byte, capi.Cacheline)
	b.OnReceive = func(txn *capi.Transaction) {
		reqs = append(reqs, txn.Tag)
		txn.Respond(data)
		b.Send(txn)
	}
	a.OnReceive = func(txn *capi.Transaction) { resps = append(resps, txn.Tag) }
	k.Go("bursts", func(p *sim.Proc) {
		for i := 0; i < bursts; i++ {
			for j := 0; j < depth; j++ {
				a.Send(readReq(uint32(i*depth + j)))
			}
			p.Sleep(100 * sim.Nanosecond)
		}
	})
	k.Run()

	for _, side := range []struct {
		name string
		p    *Port
		w    *framerWatch
	}{{"a", a, wa}, {"b", b, wb}} {
		st := side.p.Stats()
		if int64(len(side.w.formed)) != st.TxFrames || int64(len(side.w.armed)) != st.TxFrames {
			t.Fatalf("%s: watched %d formations and %d timers for %d frames",
				side.name, len(side.w.formed), len(side.w.armed), st.TxFrames)
		}
		ctl := 0
		for i, seq := range side.w.dataSeq {
			start := side.w.serStart[i]
			if seq != ^uint64(0) {
				if ahead := start - side.w.formed[seq]; ahead > frameTime {
					t.Errorf("%s: frame %d formed %v before it began serializing; the limit is one frame time, %v",
						side.name, seq, ahead, frameTime)
				}
				if ahead := start - side.w.armed[seq]; ahead > frameTime {
					t.Errorf("%s: frame %d's tail-loss timer armed %v before the frame began serializing",
						side.name, seq, ahead)
				}
				continue
			}
			sent := side.w.ctlSent[ctl]
			ctl++
			behind := 0
			for j := 0; j < i; j++ {
				if side.w.dataSeq[j] != ^uint64(0) && side.w.serStart[j] > sent {
					behind++
				}
			}
			if behind > 1 {
				t.Errorf("%s: credit return sent at %v waited behind %d queued data frames", side.name, sent, behind)
			}
		}
		if ctl != len(side.w.ctlSent) || int64(ctl) != st.TxControl {
			t.Fatalf("%s: %d control frames on the wire, %d credit returns sent, %d counted",
				side.name, ctl, len(side.w.ctlSent), st.TxControl)
		}
		if side.p.Credits() != cfg.Credits || side.p.ReplayDepth() != 0 {
			t.Errorf("%s: %d credits and %d unacknowledged frames after the drain, want %d and 0",
				side.name, side.p.Credits(), side.p.ReplayDepth(), cfg.Credits)
		}
	}
	for name, got := range map[string][]uint32{"requests": reqs, "responses": resps} {
		if len(got) != bursts*depth {
			t.Fatalf("%d %s delivered, want %d", len(got), name, bursts*depth)
		}
		for i, tag := range got {
			if tag != uint32(i) {
				t.Fatalf("%s delivered out of order: position %d holds tag %d", name, i, tag)
			}
		}
	}
}
