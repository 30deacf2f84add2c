package endpoint

import (
	"bytes"
	"testing"

	"thymesisflow/internal/llc"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/trace"
)

// rig wires one compute endpoint to one memory endpoint over a single
// bidirectional channel and maps one section.
type rig struct {
	k     *sim.Kernel
	ce    *ComputeEndpoint
	me    *MemoryEndpoint
	cPort *llc.Port
	// region stolen at the donor
	reg *StolenRegion
}

func newRig(t *testing.T, faults phy.FaultConfig) *rig {
	t.Helper()
	k := sim.NewKernel()
	ce, err := NewCompute(k, "compute0", 4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	me := NewMemory(k, "memory0", 90*sim.Nanosecond)

	link := phy.NewLink(k, "wire0", phy.LanesPerChannel, phy.SerdesCrossing, faults)
	cPort, mPort := llc.NewPair(k, "llc0", link, llc.DefaultConfig())
	ce.AttachPort(cPort)
	me.AttachPort(mPort)

	reg, err := me.Steal("stealer", 0x10000000, 1<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := ce.RMMU().Map(0, reg.Base, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := ce.Router().AddFlow(1, cPort); err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, ce: ce, me: me, cPort: cPort, reg: reg}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	r := newRig(t, phy.FaultConfig{})
	want := make([]byte, 128)
	for i := range want {
		want[i] = byte(i * 3)
	}
	var got []byte
	r.k.Go("app", func(p *sim.Proc) {
		if err := r.ce.Store(p, 0x340*128, want); err != nil {
			t.Error(err)
			return
		}
		data, err := r.ce.Load(p, 0x340*128, 128)
		if err != nil {
			t.Error(err)
			return
		}
		got = data
	})
	r.k.RunUntil(sim.Millisecond)
	if !bytes.Equal(got, want) {
		t.Fatalf("data corrupted through the datapath: got %v", got[:8])
	}
	if loads, stores := r.ce.Stats(); loads != 1 || stores != 1 {
		t.Fatalf("stats loads=%d stores=%d", loads, stores)
	}
}

func TestDataSurvivesLossyLink(t *testing.T) {
	r := newRig(t, phy.FaultConfig{DropProb: 0.05, CorruptProb: 0.05, Seed: 21})
	ok := false
	r.k.Go("app", func(p *sim.Proc) {
		payload := bytes.Repeat([]byte{0xAB}, 128)
		for i := 0; i < 50; i++ {
			addr := uint64(i) * 128
			if err := r.ce.Store(p, addr, payload); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < 50; i++ {
			addr := uint64(i) * 128
			data, err := r.ce.Load(p, addr, 128)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(data, payload) {
				t.Errorf("data at %#x corrupted", addr)
				return
			}
		}
		ok = true
	})
	r.k.RunUntil(100 * sim.Millisecond)
	if !ok {
		t.Fatal("workload did not complete over lossy link")
	}
}

func TestReadLatencyMatchesDatapathRTT(t *testing.T) {
	r := newRig(t, phy.FaultConfig{})
	var lat sim.Time
	r.k.Go("app", func(p *sim.Proc) {
		start := p.Now()
		if _, err := r.ce.Load(p, 0, 128); err != nil {
			t.Error(err)
		}
		lat = p.Now() - start
	})
	r.k.RunUntil(sim.Millisecond)
	// Datapath RTT (950ns) + donor DRAM (90ns) + serialization/framing.
	if lat < DatapathRTT {
		t.Fatalf("load latency %v below the 950ns datapath RTT", lat)
	}
	if lat > DatapathRTT+300*sim.Nanosecond {
		t.Fatalf("load latency %v too far above 950ns + DRAM", lat)
	}
}

// TestFaultDuringIngressReturns covers a request faulted while its issuer
// is still in the ingress crossing: FaultOutstanding finds no waiter then,
// so the issuer must see the error when it wakes instead of forwarding the
// request and waiting for a response that never comes.
func TestFaultDuringIngressReturns(t *testing.T) {
	r := newRig(t, phy.FaultConfig{})
	var err error
	returned := false
	r.k.Go("app", func(p *sim.Proc) {
		_, err = r.ce.Load(p, 0, 128)
		returned = true
	})
	r.k.Schedule(SideLatency/2, func() { r.ce.FaultOutstanding(ErrLinkDown) })
	r.k.RunUntil(sim.Millisecond)
	if !returned {
		t.Fatal("load faulted during ingress never returned")
	}
	if err != ErrLinkDown {
		t.Fatalf("load returned %v, want ErrLinkDown", err)
	}
	if st := r.cPort.Stats(); st.TxTransactions != 0 || st.TxFrames != 0 {
		t.Fatalf("faulted load was forwarded: %d transactions in %d frames", st.TxTransactions, st.TxFrames)
	}
	if n := r.ce.Outstanding(); n != 0 {
		t.Fatalf("%d requests outstanding after the fault", n)
	}
}

func TestUnmappedSectionRejected(t *testing.T) {
	r := newRig(t, phy.FaultConfig{})
	r.k.Go("app", func(p *sim.Proc) {
		if _, err := r.ce.Load(p, 3<<20, 128); err == nil {
			t.Error("load through unmapped section succeeded")
		}
	})
	r.k.RunUntil(sim.Millisecond)
}

// TestTracedIssueWithoutSink checks that a tracer alone turns latency
// records on: a completed load is traced as its round trip plus stage
// spans tiling it, and a failed translation as one translate_fault
// instant with no transaction.
func TestTracedIssueWithoutSink(t *testing.T) {
	r := newRig(t, phy.FaultConfig{})
	ring := trace.NewRing(1 << 12)
	r.k.SetTracer(ring)
	var lat sim.Time
	r.k.Go("app", func(p *sim.Proc) {
		start := p.Now()
		if _, err := r.ce.Load(p, 0, 128); err != nil {
			t.Error(err)
		}
		lat = p.Now() - start
		if _, err := r.ce.Load(p, 3<<20, 128); err == nil {
			t.Error("load through unmapped section succeeded")
		}
	})
	r.k.RunUntil(sim.Millisecond)

	var root trace.Event
	var stages, faults int
	var sum int64
	for _, e := range ring.Snapshot() {
		switch {
		case e.Txn != 0 && e.Name == "read_req":
			root = e
		case e.Txn != 0:
			stages++
			sum += e.Dur
		case e.Layer == trace.LayerRMMU && e.Name == "translate_fault" && e.Ph == trace.PhaseInstant:
			faults++
		}
	}
	if root.Layer != trace.LayerCAPI || root.Dur != int64(lat) {
		t.Fatalf("root span %+v, want a %d ps capi read_req", root, lat)
	}
	if stages == 0 || sum != root.Dur {
		t.Fatalf("%d stage spans summing to %d ps for a %d ps round trip", stages, sum, root.Dur)
	}
	if faults != 1 {
		t.Fatalf("%d translate_fault instants, want 1", faults)
	}
}

func TestIllegalDonorAddressRejected(t *testing.T) {
	// Map a second section whose donor base points outside any stolen
	// region: the memory endpoint must reject the transaction.
	r := newRig(t, phy.FaultConfig{})
	if err := r.ce.RMMU().Map(1, 0x40000000, 1, false); err != nil {
		t.Fatal(err)
	}
	r.k.Go("app", func(p *sim.Proc) {
		r.ce.Store(p, 1<<20, bytes.Repeat([]byte{1}, 128)) // parks forever
	})
	r.k.RunUntil(5 * sim.Millisecond)
	if _, rejected := r.me.Stats(); rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
}

func TestStealValidation(t *testing.T) {
	k := sim.NewKernel()
	me := NewMemory(k, "m", 90*sim.Nanosecond)
	if _, err := me.Steal("p", 0x1000, 100, false); err == nil {
		t.Fatal("unaligned size accepted")
	}
	if _, err := me.Steal("p", 0x1001, 1<<20, false); err == nil {
		t.Fatal("unaligned base accepted")
	}
	r1, err := me.Steal("p", 0x100000, 1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := me.Steal("q", 0x180000, 1<<20, false); err == nil {
		t.Fatal("overlapping steal accepted")
	}
	if err := me.Release(r1); err != nil {
		t.Fatal(err)
	}
	if err := me.Release(r1); err == nil {
		t.Fatal("double release accepted")
	}
	if _, err := me.Steal("q", 0x180000, 1<<20, false); err != nil {
		t.Fatalf("steal after release failed: %v", err)
	}
}

func TestRemoteBackendLatency(t *testing.T) {
	k := sim.NewKernel()
	b := NewRemoteBackend(k, "tf", 1, nil, 90*sim.Nanosecond)
	lat := b.Access(128, false)
	want := DatapathRTT + 90*sim.Nanosecond
	if lat < want || lat > want+50*sim.Nanosecond {
		t.Fatalf("unloaded access latency %v, want ~%v", lat, want)
	}
	if b.BaseLatency() != want {
		t.Fatalf("base latency %v", b.BaseLatency())
	}
}

func TestRemoteBackendBandwidthCaps(t *testing.T) {
	k := sim.NewKernel()
	single := NewRemoteBackend(k, "tf1", 1, nil, 90*sim.Nanosecond)
	if bw := single.StreamBandwidth(); bw != phy.ChannelBytesPerSec {
		t.Fatalf("single-channel bw = %v, want %v", bw, float64(phy.ChannelBytesPerSec))
	}
	bonded := NewRemoteBackend(k, "tf2", 2, nil, 90*sim.Nanosecond)
	// Two channels would give 25 GiB/s but the C1 ceiling is 16 GiB/s.
	if bw := bonded.StreamBandwidth(); bw != C1BytesPerSec {
		t.Fatalf("bonded bw = %v, want C1 ceiling %v", bw, float64(C1BytesPerSec))
	}
}

func TestRemoteBackendCongestionWaste(t *testing.T) {
	k := sim.NewKernel()
	b := NewRemoteBackend(k, "tf", 1, nil, 90*sim.Nanosecond)
	// Build a deep backlog, then measure marginal goodput: it must fall
	// below the clean channel rate by roughly Alpha.
	const chunk = 1 << 20
	for i := 0; i < 200; i++ {
		b.ReserveStream(chunk)
	}
	before := b.ReserveStream(chunk)
	after := b.ReserveStream(chunk)
	marginal := float64(chunk) / (after - before).Seconds()
	clean := float64(phy.ChannelBytesPerSec)
	if marginal > clean*0.92 {
		t.Fatalf("marginal goodput %.3g under overload, want < 0.92 of %.3g", marginal, clean)
	}
	if marginal < clean*0.8 {
		t.Fatalf("congestion waste too aggressive: %.3g", marginal)
	}
}

func TestRemoteBackendBondedSplitsLoad(t *testing.T) {
	k := sim.NewKernel()
	b := NewRemoteBackend(k, "tf", 2, nil, 90*sim.Nanosecond)
	b.ReserveStream(2 << 20)
	chs := b.Channels()
	if chs[0].TotalBytes() == 0 || chs[1].TotalBytes() == 0 {
		t.Fatalf("bonded stream not split: %d/%d", chs[0].TotalBytes(), chs[1].TotalBytes())
	}
	diff := chs[0].TotalBytes() - chs[1].TotalBytes()
	if diff < 0 {
		diff = -diff
	}
	if diff > 1<<10 {
		t.Fatalf("bonded split unbalanced: %d/%d", chs[0].TotalBytes(), chs[1].TotalBytes())
	}
}
