package llc

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"thymesisflow/internal/capi"
	"thymesisflow/internal/fabric"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/sim/shard"
)

// TestWireArraysNotReusedInFlight pins the wire-array recycling rule (see
// the package doc): a port writes a data or control wire array again only
// when no copy of it is in flight. It follows every copy of every array
// from the moment its first channel hands it on until a port receives it,
// and fails if an array is handed on carrying a new frame while a copy of
// it is still in flight, or if a copy arrives with bytes other than those
// it left with. Reads flow one way and 128 B responses the other, so both
// ports send data and control frames. It runs on a direct link and through
// a packet switch that queues every frame, without faults and with drops
// plus corruption, on one kernel and with the ports on two shards, and it
// checks that both kinds of array were recycled.
func TestWireArraysNotReusedInFlight(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, viaSwitch := range []bool{false, true} {
			for _, lossy := range []bool{false, true} {
				name := fmt.Sprintf("shards=%d/direct", shards)
				if viaSwitch {
					name = fmt.Sprintf("shards=%d/switch", shards)
				}
				if lossy {
					name += "/lossy"
				}
				t.Run(name, func(t *testing.T) { checkRecycling(t, shards, viaSwitch, lossy) })
			}
		}
	}
}

// wireWatch follows the copies of every wire array. Faults are drawn only
// on the channel that hands a copy on first, so every copy the watch sees
// leave reaches a port. A broken rule panics at once, before the damaged
// copy can upset the protocol. A mutex guards the watch: on two shards
// both ends run at once.
type wireWatch struct {
	mu       sync.Mutex
	inFlight map[any]int    // copies handed on and not yet received
	image    map[any][]byte // the bytes an array last left with
	reused   map[int]int    // arrays handed on again with a new frame, by wire size
}

func newWireWatch() *wireWatch {
	return &wireWatch{inFlight: map[any]int{}, image: map[any][]byte{}, reused: map[int]int{}}
}

func payloadBytes(p any) []byte {
	switch w := p.(type) {
	case *[FrameBytes]byte:
		return w[:]
	case *[ControlFrameBytes]byte:
		return w[:]
	}
	panic("llc: non-frame payload on channel")
}

// sent records a copy as its first channel hands it on.
func (w *wireWatch) sent(d phy.Delivery) {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := payloadBytes(d.Payload)
	if old, seen := w.image[d.Payload]; seen && !bytes.Equal(old, now) {
		if n := w.inFlight[d.Payload]; n > 0 {
			panic(fmt.Sprintf("llc: a %d B wire array was re-encoded while %d copies of it were in flight", len(now), n))
		}
		w.reused[len(now)]++
	}
	w.image[d.Payload] = append([]byte(nil), now...)
	w.inFlight[d.Payload]++
}

// received records a copy as it reaches a port.
func (w *wireWatch) received(d phy.Delivery) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if now := payloadBytes(d.Payload); !bytes.Equal(w.image[d.Payload], now) {
		panic(fmt.Sprintf("llc: a %d B wire array arrived holding other bytes than it left with", len(now)))
	}
	w.inFlight[d.Payload]--
}

// tap is a phy.Injector that shows each copy to the watch as the channel
// hands it on, then passes it to next, which delivers it at `at`.
type tap struct {
	w    *wireWatch
	next func(at sim.Time, d phy.Delivery)
}

func (tp tap) Send(at sim.Time, d phy.Delivery) {
	tp.w.sent(d)
	tp.next(at, d)
}

func checkRecycling(t *testing.T, shards int, viaSwitch, lossy bool) {
	const (
		bursts = 200
		burst  = 12
		oneWay = 200 * sim.Nanosecond
	)
	var ka, kb *sim.Kernel
	var g *shard.Group
	if shards == 2 {
		g = shard.NewGroup(2, phy.SerdesCrossing)
		ka, kb = g.Shard(0).Kernel(), g.Shard(1).Kernel()
	} else {
		ka = sim.NewKernel()
		kb = ka
	}
	// deliverOn returns how a copy handed on by ch reaches ch's receiver:
	// an event on the shared kernel, or a conduit between the shards.
	deliverOn := func(ch *phy.Channel, from, to int) func(sim.Time, phy.Delivery) {
		if g == nil || from == to {
			kk := ka
			if from == 1 {
				kk = kb
			}
			return func(at sim.Time, d phy.Delivery) { kk.ScheduleAt(at, func() { ch.Deliver(d) }) }
		}
		return shard.Connect(g, g.Shard(from), g.Shard(to), phy.SerdesCrossing, ch.Deliver).Send
	}

	w := newWireWatch()
	var faults phy.FaultConfig
	if lossy {
		faults = phy.FaultConfig{DropProb: 0.02, CorruptProb: 0.02, Seed: 5}
	}
	var a, b *Port
	// first are the channels each port transmits on, last the channels
	// whose deliveries reach a port; on a direct link they are the same.
	var first, last [2]*phy.Channel
	if viaSwitch {
		// The switch lives on a's kernel: a reaches it on a local hop, b
		// on a hop that crosses shards.
		la := phy.NewLinkSplit(ka, ka, "a-sw", phy.LanesPerChannel, oneWay/2, phy.FaultConfig{})
		lb := phy.NewLinkSplit(ka, kb, "sw-b", phy.LanesPerChannel, oneWay/2, phy.FaultConfig{})
		a, b = NewPairOn(ka, kb, "llc", &phy.Link{AtoB: la.AtoB, BtoA: lb.BtoA}, DefaultConfig())
		sw := fabric.NewSwitch(ka, "sw", fabric.Config{Ports: 4, Mode: fabric.Packet, CrossingLatency: 300 * sim.Nanosecond})
		if err := sw.Connect(la.AtoB, lb.AtoB); err != nil {
			t.Fatal(err)
		}
		if err := sw.Connect(lb.BtoA, la.BtoA); err != nil {
			t.Fatal(err)
		}
		la.AtoB.SetRemote(tap{w, deliverOn(la.AtoB, 0, 0)})
		lb.BtoA.SetRemote(tap{w, deliverOn(lb.BtoA, 1, 0)})
		if g != nil {
			lb.AtoB.SetRemote(shard.Connect(g, g.Shard(0), g.Shard(1), phy.SerdesCrossing, lb.AtoB.Deliver))
		}
		first, last = [2]*phy.Channel{la.AtoB, lb.BtoA}, [2]*phy.Channel{lb.AtoB, la.BtoA}
	} else {
		link := phy.NewLinkSplit(ka, kb, "ab", phy.LanesPerChannel, oneWay, phy.FaultConfig{})
		a, b = NewPairOn(ka, kb, "llc", link, DefaultConfig())
		link.AtoB.SetRemote(tap{w, deliverOn(link.AtoB, 0, 1)})
		link.BtoA.SetRemote(tap{w, deliverOn(link.BtoA, 1, 0)})
		first = [2]*phy.Channel{link.AtoB, link.BtoA}
		last = first
	}
	for i, ch := range first {
		f := faults
		f.Seed += int64(i)
		ch.SetFaults(f)
	}
	for i, p := range []*Port{b, a} {
		ch, p := last[i], p
		ch.OnDeliver(func(d phy.Delivery) {
			w.received(d)
			p.Deliver(d)
		})
	}

	// b answers every read with its line's pattern; a checks each answer.
	b.OnReceive = func(txn *capi.Transaction) {
		txn.Op = capi.OpReadResp
		txn.Data = make([]byte, capi.Cacheline)
		capi.FillPattern(txn.Data, txn.Addr)
		b.Send(txn)
	}
	next := uint32(0)
	var errs []string
	a.OnReceive = func(txn *capi.Transaction) {
		if txn.Tag != next || !capi.PatternMatches(txn.Data, txn.Addr) {
			errs = append(errs, fmt.Sprintf("response %d arrived as tag %d, pattern ok %v", next, txn.Tag, capi.PatternMatches(txn.Data, txn.Addr)))
		}
		next++
	}
	ka.Go("reader", func(p *sim.Proc) {
		for i := 0; i < bursts; i++ {
			for j := 0; j < burst; j++ {
				tag := uint32(i*burst + j)
				a.SendFrom(p, &capi.Transaction{Op: capi.OpReadReq, Addr: uint64(tag) * capi.Cacheline, Size: capi.Cacheline, Tag: tag})
			}
			p.Sleep(sim.Time(i%5) * sim.Microsecond / 2)
		}
	})
	if g != nil {
		g.Run()
	} else {
		ka.Run()
	}

	if len(errs) > 0 {
		t.Fatalf("%d bad responses, first: %s", len(errs), errs[0])
	}
	if next != bursts*burst || a.Down() || b.Down() {
		t.Fatalf("%d of %d responses arrived (a down %v, b down %v)", next, bursts*burst, a.Down(), b.Down())
	}
	for key, n := range w.inFlight {
		if n != 0 {
			t.Fatalf("%d copies of a %d B array never arrived", n, len(payloadBytes(key)))
		}
	}
	if w.reused[FrameBytes] == 0 || w.reused[ControlFrameBytes] == 0 {
		t.Fatalf("recycling never happened: %d data and %d control arrays reused", w.reused[FrameBytes], w.reused[ControlFrameBytes])
	}
	sa, sb := a.Stats(), b.Stats()
	if lossy && sa.TxReplayed+sb.TxReplayed == 0 {
		t.Fatal("a lossy run replayed nothing")
	}
	t.Logf("%d data and %d control arrays reused; %d+%d data frames, %d+%d replayed",
		w.reused[FrameBytes], w.reused[ControlFrameBytes], sa.TxFrames, sb.TxFrames, sa.TxReplayed, sb.TxReplayed)
}
