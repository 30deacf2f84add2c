package mem

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache("t", 8*1024, 8)
	if c.Lookup(0x1000) {
		t.Fatal("first access should miss")
	}
	if !c.Lookup(0x1000) {
		t.Fatal("second access should hit")
	}
	if !c.Lookup(0x1000 + CachelineSize - 1) {
		t.Fatal("same-line access should hit")
	}
	if c.Lookup(0x1000 + CachelineSize) {
		t.Fatal("next-line access should miss")
	}
	if c.Hits() != 2 || c.Misses() != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache with exactly 2 sets: lines with even line-index map to set
	// 0, odd to set 1.
	c := NewCache("t", 2*2*CachelineSize, 2)
	addr := func(lineIdx uint64) uint64 { return lineIdx * CachelineSize }
	c.Lookup(addr(0)) // set 0
	c.Lookup(addr(2)) // set 0
	c.Lookup(addr(0)) // touch 0: now MRU
	c.Lookup(addr(4)) // set 0: evicts line 2 (LRU)
	if !c.Contains(addr(0)) {
		t.Fatal("MRU line evicted")
	}
	if c.Contains(addr(2)) {
		t.Fatal("LRU line not evicted")
	}
	if !c.Contains(addr(4)) {
		t.Fatal("new line not installed")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	c := NewCache("t", 32*1024, 8)
	linesInCache := c.SizeBytes() / CachelineSize
	// Touch exactly the cache's capacity worth of lines twice: second pass
	// must be all hits.
	for pass := 0; pass < 2; pass++ {
		for i := int64(0); i < linesInCache; i++ {
			c.Lookup(uint64(i * CachelineSize))
		}
	}
	if c.Hits() != linesInCache {
		t.Fatalf("second pass hits = %d, want %d (misses %d)", c.Hits(), linesInCache, c.Misses())
	}
}

// Property: the number of resident lines never exceeds capacity, and a
// just-installed line is always resident.
func TestQuickCacheInvariants(t *testing.T) {
	c := NewCache("t", 4*1024, 4)
	maxLines := c.SizeBytes() / CachelineSize
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Lookup(uint64(a))
			if !c.Contains(uint64(a)) {
				return false
			}
		}
		var resident int64
		for set := 0; set < c.sets; set++ {
			resident += int64(c.fill[set])
			if int(c.fill[set]) > c.ways {
				return false
			}
		}
		return resident <= maxLines
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refCache is the slice-per-set LRU that Cache replaced, kept as the
// reference model its flat tag rows must match lookup for lookup.
type refCache struct {
	sets, ways   int
	lines        [][]uint64 // lines[set]: index 0 is most recently used
	hits, misses int64
}

func newRefCache(c *Cache) *refCache {
	return &refCache{sets: c.sets, ways: c.ways, lines: make([][]uint64, c.sets)}
}

func (r *refCache) lookup(addr uint64) bool {
	la := addr >> 7
	set := int(la) & (r.sets - 1)
	ways := r.lines[set]
	for i, tag := range ways {
		if tag == la {
			copy(ways[1:i+1], ways[:i])
			ways[0] = la
			r.hits++
			return true
		}
	}
	r.misses++
	if len(ways) < r.ways {
		ways = append(ways, 0)
	}
	copy(ways[1:], ways)
	ways[0] = la
	r.lines[set] = ways
	return false
}

func (r *refCache) contains(addr uint64) bool {
	la := addr >> 7
	for _, tag := range r.lines[int(la)&(r.sets-1)] {
		if tag == la {
			return true
		}
	}
	return false
}

func (r *refCache) flush() {
	for i := range r.lines {
		r.lines[i] = r.lines[i][:0]
	}
}

// cacheShapes are the geometries the equivalence checks cover: L1 and L2
// shapes, a 20-way LLC shape, a single set, and a direct-mapped cache.
var cacheShapes = []struct {
	name       string
	sets, ways int
}{
	{"32x8", 32, 8},
	{"512x8", 512, 8},
	{"256x20", 256, 20},
	{"1x4", 1, 4},
	{"64x1", 64, 1},
}

// lookupOp is one step of an equivalence run: a Lookup of addr, or a
// Flush.
type lookupOp struct {
	addr  uint64
	flush bool
}

// checkAgainstRef replays ops on a fresh Cache of the given shape and on
// the reference model, failing on the first difference in a Lookup result,
// a Contains probe, or the hit and miss counters.
func checkAgainstRef(t *testing.T, sets, ways int, ops []lookupOp) {
	t.Helper()
	c := NewCache("t", int64(sets*ways*CachelineSize), ways)
	if c.sets != sets || c.ways != ways {
		t.Fatalf("shape %dx%d built as %dx%d", sets, ways, c.sets, c.ways)
	}
	ref := newRefCache(c)
	for i, op := range ops {
		if op.flush {
			c.Flush()
			ref.flush()
			continue
		}
		if got, want := c.Lookup(op.addr), ref.lookup(op.addr); got != want {
			t.Fatalf("op %d: Lookup(%#x) = %v, reference %v", i, op.addr, got, want)
		}
		// Probe a neighbouring line too, which may or may not be resident.
		probe := op.addr ^ uint64(i%3)*CachelineSize*uint64(sets)
		if got, want := c.Contains(probe), ref.contains(probe); got != want {
			t.Fatalf("op %d: Contains(%#x) = %v, reference %v", i, probe, got, want)
		}
		if c.Hits() != ref.hits || c.Misses() != ref.misses {
			t.Fatalf("op %d: hits/misses %d/%d, reference %d/%d",
				i, c.Hits(), c.Misses(), ref.hits, ref.misses)
		}
	}
}

func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, sh := range cacheShapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sh.sets * sh.ways)))
			// Addresses span twice the capacity, so hits, misses and
			// evictions all occur; a Flush every ~2,000 lookups.
			span := int64(2 * sh.sets * sh.ways * CachelineSize)
			ops := make([]lookupOp, 20_000)
			for i := range ops {
				if rng.Intn(2000) == 0 {
					ops[i].flush = true
					continue
				}
				ops[i].addr = uint64(rng.Int63n(span))
			}
			checkAgainstRef(t, sh.sets, sh.ways, ops)
		})
	}
}

// FuzzCacheLRU drives Cache and the reference model with the same decoded
// stream: the first byte picks a shape, then each 2-byte word is a line
// index folded into four times the shape's capacity (0xFFFF is a Flush).
func FuzzCacheLRU(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1, 0, 0xFF, 0xFF, 0, 1})
	f.Add([]byte{2, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 0, 0})
	f.Add([]byte{3, 9, 9, 8, 8, 7, 7, 9, 9, 6, 6, 5, 5, 8, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sh := cacheShapes[int(data[0])%len(cacheShapes)]
		var ops []lookupOp
		for b := data[1:]; len(b) >= 2; b = b[2:] {
			w := binary.LittleEndian.Uint16(b)
			if w == 0xFFFF {
				ops = append(ops, lookupOp{flush: true})
				continue
			}
			line := uint64(w) % uint64(4*sh.sets*sh.ways)
			ops = append(ops, lookupOp{addr: line*CachelineSize + uint64(b[0]&(CachelineSize-1))})
		}
		checkAgainstRef(t, sh.sets, sh.ways, ops)
	})
}

func TestNewCacheRejectsWideAssociativity(t *testing.T) {
	for _, w := range []int{0, -1, maxWays + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCache with %d ways did not panic", w)
				}
			}()
			NewCache("t", 1<<20, w)
		}()
	}
	if c := NewCache("t", int64(maxWays)*CachelineSize, maxWays); c.sets != 1 {
		t.Fatalf("%d-way cache has %d sets, want 1", maxWays, c.sets)
	}
}

// An untouched cache costs its fill counts and one block header per 64
// sets: the default 120 MiB 20-way LLC (32,768 sets), which every host
// builds one of per socket, stays under 64 KiB.
func TestNewCacheFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCache("llc", 120<<20, 20)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewCache(120 MiB, 20-way) allocated %d bytes, want < 64 KiB", got)
	}
}

var benchHit bool

// BenchmarkCacheLookup measures one Lookup on a warm cache, with line
// addresses from an xorshift stream: hit-heavy on the L1 shape with a
// working set of half its capacity, miss-heavy on the 16 MiB 20-way LLC
// the figures configure, with addresses spread over 16× its capacity.
func BenchmarkCacheLookup(b *testing.B) {
	cases := []struct {
		name string
		size int64
		ways int
		span uint64 // power of two
	}{
		{"hit", 32 << 10, 8, 16 << 10},
		{"miss", 16 << 20, 20, 256 << 20},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			c := NewCache("b", bc.size, bc.ways)
			x := uint64(88172645463325252)
			next := func() uint64 {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return x & (bc.span - 1)
			}
			for i := 0; i < 1<<20; i++ {
				c.Lookup(next())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchHit = c.Lookup(next())
			}
		})
	}
}
