package kvcache

import (
	"math"
	"slices"
	"testing"

	"thymesisflow/internal/core"
	"thymesisflow/internal/numa"
	"thymesisflow/internal/sim"
)

func newLocalServer(t *testing.T, capacity int64, storeValues bool) (*core.Testbed, *Server) {
	t.Helper()
	tb, err := core.NewTestbed(core.ConfigLocal, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(tb.Server, numa.Local(tb.Server.LocalNode(0)), ServerConfig{
		CapacityBytes: capacity,
		StoreValues:   storeValues,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb, s
}

func TestGetSetRoundTrip(t *testing.T) {
	tb, s := newLocalServer(t, 1<<20, true)
	k := tb.Cluster.K
	k.Go("c", func(p *sim.Proc) {
		th := tb.Server.NewThread(0)
		val := []byte("hello-thymesisflow")
		if err := s.Set(p, th, 77, int64(len(val)), val); err != nil {
			t.Error(err)
			return
		}
		got, hit := s.Get(p, th, 77)
		if !hit || string(got) != string(val) {
			t.Errorf("get = %q, %v", got, hit)
		}
		if _, hit := s.Get(p, th, 999); hit {
			t.Error("missing key reported as hit")
		}
	})
	k.Run()
	hits, misses, sets, _ := s.Stats()
	if hits != 1 || misses != 1 || sets != 1 {
		t.Fatalf("stats = %d/%d/%d", hits, misses, sets)
	}
}

func TestLRUEvictionUnderPressure(t *testing.T) {
	// Tiny cache: a stream of distinct 1KiB-class values must evict the
	// oldest entries, and re-getting the newest must still hit.
	tb, s := newLocalServer(t, 64<<10, false)
	k := tb.Cluster.K
	k.Go("c", func(p *sim.Proc) {
		th := tb.Server.NewThread(0)
		for key := uint64(0); key < 500; key++ {
			if err := s.Set(p, th, key, 900, nil); err != nil {
				t.Error(err)
				return
			}
		}
		if _, hit := s.Get(p, th, 499); !hit {
			t.Error("most recent key evicted")
		}
		if _, hit := s.Get(p, th, 0); hit {
			t.Error("oldest key survived a 500-item stream through a 64-slot cache")
		}
	})
	k.Run()
	_, _, _, evicts := s.Stats()
	if evicts == 0 {
		t.Fatal("no evictions recorded")
	}
	if s.UsedBytes() > 64<<10 {
		t.Fatalf("capacity exceeded: %d", s.UsedBytes())
	}
}

func TestSetUpdatesExistingKey(t *testing.T) {
	tb, s := newLocalServer(t, 1<<20, true)
	k := tb.Cluster.K
	k.Go("c", func(p *sim.Proc) {
		th := tb.Server.NewThread(0)
		s.Set(p, th, 5, 10, []byte("aaaaaaaaaa")) //nolint:errcheck
		s.Set(p, th, 5, 4, []byte("bbbb"))        //nolint:errcheck
		got, hit := s.Get(p, th, 5)
		if !hit || string(got) != "bbbb" {
			t.Errorf("updated value = %q", got)
		}
	})
	k.Run()
}

func TestOversizedValueRejected(t *testing.T) {
	tb, s := newLocalServer(t, 1<<20, false)
	k := tb.Cluster.K
	k.Go("c", func(p *sim.Proc) {
		th := tb.Server.NewThread(0)
		if err := s.Set(p, th, 1, 1<<20, nil); err == nil {
			t.Error("oversized value accepted")
		}
	})
	k.Run()
}

func TestZipfSkew(t *testing.T) {
	gen := NewGenerator(DefaultETCConfig(1_000_000), 0)
	counts := make(map[int64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[gen.zipf.Next()]++
	}
	// Rank 1 should receive ~1/ln(N) of requests (~7%), and the top-100
	// ranks should dominate the long tail per-rank.
	if frac := float64(counts[1]) / draws; frac < 0.03 || frac > 0.15 {
		t.Fatalf("rank-1 fraction = %.3f, want ~0.07", frac)
	}
	if counts[1] < counts[1000]*10 {
		t.Fatalf("insufficient skew: rank1=%d rank1000=%d", counts[1], counts[1000])
	}
}

func TestValueSizesDeterministicAndBounded(t *testing.T) {
	cfg := DefaultETCConfig(1000)
	var total float64
	for rank := int64(1); rank <= 1000; rank++ {
		key := keyID(rank)
		a, b := valueSize(sizeMu(cfg), key), valueSize(sizeMu(cfg), key)
		if a != b {
			t.Fatal("value size not deterministic per key")
		}
		if a < 16 || a > 8192-itemOverhead {
			t.Fatalf("value size %d out of slab range", a)
		}
		total += float64(a)
	}
	mean := total / 1000
	if mean < 200 || mean > 900 {
		t.Fatalf("mean value size = %.0f, want a few hundred bytes", mean)
	}
}

func TestRunLocalSmall(t *testing.T) {
	rc := DefaultRunConfig()
	rc.Threads = 16
	rc.RequestsPerThread = 300
	rc.CacheBytes = 32 << 20
	rc.Keys = 1_000_000
	res, err := Run(core.ConfigLocal, rc, NewWarmups())
	if err != nil {
		t.Fatal(err)
	}
	if res.GetLatency.Count() == 0 || res.SetLatency.Count() == 0 {
		t.Fatal("no latencies recorded")
	}
	ratio := float64(res.GetLatency.Count()) / float64(res.SetLatency.Count())
	if ratio < 15 || ratio > 60 {
		t.Fatalf("GET:SET ratio = %.1f, want ~30", ratio)
	}
	if res.HitRatio < 0.5 || res.HitRatio > 0.99 {
		t.Fatalf("hit ratio = %.2f", res.HitRatio)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

func TestRunLatencyOrderingAcrossConfigs(t *testing.T) {
	rc := DefaultRunConfig()
	rc.Threads = 32
	rc.RequestsPerThread = 400
	rc.CacheBytes = 64 << 20
	rc.Keys = 2_000_000
	warmups := NewWarmups()
	mean := func(cfg core.MemoryConfig) float64 {
		res, err := Run(cfg, rc, warmups)
		if err != nil {
			t.Fatal(err)
		}
		return res.GetLatency.Mean()
	}
	local := mean(core.ConfigLocal)
	single := mean(core.ConfigSingleDisaggregated)
	scaleOut := mean(core.ConfigScaleOut)
	// Figure 8: local fastest; disaggregated within ~7%; scale-out worst
	// (proxy hop + network synchronization).
	if !(local < single) {
		t.Fatalf("local %.0fus should beat single-disaggregated %.0fus", local, single)
	}
	if single/local > 1.25 {
		t.Fatalf("single-disaggregated %.0fus more than 25%% over local %.0fus", single, local)
	}
	if !(scaleOut > single) {
		t.Fatalf("scale-out %.0fus should exceed single-disaggregated %.0fus", scaleOut, single)
	}
	if math.IsNaN(local + single + scaleOut) {
		t.Fatal("NaN latency")
	}
}

func TestSlabStats(t *testing.T) {
	tb, s := newLocalServer(t, 1<<20, false)
	k := tb.Cluster.K
	k.Go("c", func(p *sim.Proc) {
		th := tb.Server.NewThread(0)
		// Three items in the 128B class (value 40 + overhead 56 = 96 <= 128),
		// one in the 1024B class.
		for key := uint64(0); key < 3; key++ {
			if err := s.Set(p, th, key, 40, nil); err != nil {
				t.Error(err)
			}
		}
		if err := s.Set(p, th, 99, 900, nil); err != nil {
			t.Error(err)
		}
		// Delete-by-overwrite shrinks one item into a smaller class,
		// leaving a free slot behind.
		if err := s.Set(p, th, 99, 40, nil); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	slabs := s.Slabs()
	var total int64
	for _, st := range slabs {
		total += st.Items
		if st.WasteBytes < 0 {
			t.Fatalf("negative waste in class %d", st.ClassBytes)
		}
	}
	if total != 4 {
		t.Fatalf("total items = %d, want 4", total)
	}
	// Class 128 (index 1) holds all four items now; class 1024 has a freed slot.
	if slabs[1].Items != 4 {
		t.Fatalf("class-128 items = %d, want 4", slabs[1].Items)
	}
	if slabs[4].FreeSlots != 1 || slabs[4].Items != 0 {
		t.Fatalf("class-1024 = %+v, want one free slot", slabs[4])
	}
	// Used bytes never exceed class capacity.
	for _, st := range slabs {
		if st.Items > 0 && st.UsedBytes+st.WasteBytes != st.Items*st.ClassBytes {
			t.Fatalf("class %d accounting broken: %+v", st.ClassBytes, st)
		}
	}
}

// TestWarmupReplayMatchesWarm checks that a server loaded from a recorded
// warm-up plan holds exactly what warming it directly leaves: the same
// items in the same LRU order at the same arena offsets, the same slab
// free lists and the same allocator state. A shard of a two-way split
// and a cache small enough to evict during warm-up are covered too.
func TestWarmupReplayMatchesWarm(t *testing.T) {
	etc := DefaultETCConfig(200_000)
	wu := NewWarmups()
	for _, tc := range []struct {
		capacity      int64
		shard, shards int
		evicts        bool
	}{{4 << 20, 0, 1, false}, {2 << 20, 1, 2, false}, {19_000, 0, 1, true}} {
		_, want := newLocalServer(t, tc.capacity, false)
		warm(want, etc, tc.shard, tc.shards)
		freed := 0
		for _, fl := range want.free {
			freed += len(fl)
		}
		if (freed > 0) != tc.evicts {
			t.Fatalf("%+v: warm-up left %d free slots", tc, freed)
		}
		for round := 0; round < 2; round++ { // warm and record, then replay
			_, got := newLocalServer(t, tc.capacity, false)
			wu.warm(got, etc, tc.shard, tc.shards)
			if got.used != want.used || got.nextOff != want.nextOff || len(got.index) != len(want.index) {
				t.Fatalf("%+v round %d: used/nextOff/items %d/%d/%d, want %d/%d/%d", tc, round,
					got.used, got.nextOff, len(got.index), want.used, want.nextOff, len(want.index))
			}
			g, w := got.head.next, want.head.next
			for ; w != want.tail; g, w = g.next, w.next {
				if g.key != w.key || g.size != w.size || g.off != w.off || g.cls != w.cls || got.index[g.key] != g {
					t.Fatalf("%+v round %d: LRU item %+v, want %+v", tc, round, *g, *w)
				}
			}
			if g != got.tail {
				t.Fatalf("%+v round %d: replayed LRU chain is longer than the warmed one", tc, round)
			}
			for c := range want.free {
				if !slices.Equal(got.free[c], want.free[c]) {
					t.Fatalf("%+v round %d: class %d free list %v, want %v", tc, round, c, got.free[c], want.free[c])
				}
			}
		}
	}
}
