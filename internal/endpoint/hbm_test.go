package endpoint

import (
	"testing"

	"thymesisflow/internal/mem"
	"thymesisflow/internal/sim"
)

func TestHBMHitServedLocally(t *testing.T) {
	k := sim.NewKernel()
	b := NewRemoteBackend(k, "tf", 1, nil, 90*sim.Nanosecond)
	b.EnableHBMCache(HBMConfig{SizeBytes: 1 << 20, Ways: 8, HitLatency: 150 * sim.Nanosecond})

	// First access: miss, full datapath latency.
	miss := b.AccessAt(0x1000, mem.CachelineSize, false)
	if miss < DatapathRTT {
		t.Fatalf("first access %v should pay the full RTT", miss)
	}
	// Second access to the same line: HBM hit, an order of magnitude lower.
	hit := b.AccessAt(0x1000, mem.CachelineSize, false)
	if hit > 200*sim.Nanosecond {
		t.Fatalf("HBM hit latency %v, want ~150ns", hit)
	}
	hits, misses := b.HBMStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hbm stats hits=%d misses=%d", hits, misses)
	}
}

func TestHBMEvictionRestoresRTT(t *testing.T) {
	k := sim.NewKernel()
	b := NewRemoteBackend(k, "tf", 1, nil, 90*sim.Nanosecond)
	// Tiny direct-mapped-ish cache: 2 sets x 1 way.
	b.EnableHBMCache(HBMConfig{SizeBytes: 2 * mem.CachelineSize, Ways: 1, HitLatency: 150 * sim.Nanosecond})
	b.AccessAt(0x0000, mem.CachelineSize, false)
	// Same set (stride = 2 lines with 2 sets), evicts the first.
	b.AccessAt(0x0100, mem.CachelineSize, false)
	again := b.AccessAt(0x0000, mem.CachelineSize, false)
	if again < DatapathRTT {
		t.Fatalf("evicted line should pay the full RTT again, got %v", again)
	}
}

func TestHBMDisabledFallsBack(t *testing.T) {
	k := sim.NewKernel()
	b := NewRemoteBackend(k, "tf", 1, nil, 90*sim.Nanosecond)
	withAddr := b.AccessAt(0x42000, mem.CachelineSize, false)
	plain := b.Access(mem.CachelineSize, false)
	diff := withAddr - plain
	if diff < -20*sim.Nanosecond || diff > 20*sim.Nanosecond {
		t.Fatalf("AccessAt without HBM diverges from Access: %v vs %v", withAddr, plain)
	}
}

func TestHBMThroughThreadAccess(t *testing.T) {
	// End to end: a thread re-reading a remote buffer larger than its CPU
	// caches but smaller than the HBM cache should see HBM-hit latencies
	// on the second pass.
	k := sim.NewKernel()
	sys := mem.NewSystem(k, 0)
	b := NewRemoteBackend(k, "tf", 1, nil, 90*sim.Nanosecond)
	b.EnableHBMCache(HBMConfig{SizeBytes: 64 << 20, Ways: 8, HitLatency: 150 * sim.Nanosecond})
	remote := sys.AddNode(&mem.Node{
		Name: "remote", CPULess: true, Capacity: 1 << 30, Distance: 100, Backend: b,
	})
	sys.SetLLC(0, mem.NewCache("llc", 1<<20, 8))
	buf, err := sys.Alloc(16<<20, func(int) mem.NodeID { return remote })
	if err != nil {
		t.Fatal(err)
	}
	cfg := mem.DefaultCPUConfig()
	cfg.L1Size, cfg.L2Size = 16<<10, 64<<10 // small CPU caches
	th := mem.NewThread(sys, 0, cfg)
	var firstPass, secondPass sim.Time
	k.Go("app", func(p *sim.Proc) {
		const stride = 64 << 10 // new page (and new lines) each access
		start := p.Now()
		for off := int64(0); off < buf.Size; off += stride {
			th.Access(p, buf.Addr(off), 8, false)
		}
		firstPass = p.Now() - start
		// Cold CPU caches for the second pass: a fresh thread and LLC.
		th = mem.NewThread(sys, 0, cfg)
		sys.SetLLC(0, mem.NewCache("llc", 1<<20, 8))
		start = p.Now()
		for off := int64(0); off < buf.Size; off += stride {
			th.Access(p, buf.Addr(off), 8, false)
		}
		secondPass = p.Now() - start
	})
	k.Run()
	if secondPass*3 > firstPass {
		t.Fatalf("HBM cache ineffective: first=%v second=%v", firstPass, secondPass)
	}
	hits, _ := b.HBMStats()
	if hits == 0 {
		t.Fatal("no HBM hits recorded")
	}
}
