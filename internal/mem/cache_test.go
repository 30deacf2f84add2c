package mem

import (
	"encoding/binary"
	"math"
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
	linesInCache := c.sets * c.ways
	// Touch exactly the cache's capacity worth of lines twice: second pass
	// must be all hits.
	for pass := 0; pass < 2; pass++ {
		hits := 0
		for i := 0; i < linesInCache; i++ {
			if c.Lookup(uint64(i * CachelineSize)) {
				hits++
			}
		}
		if want := pass * linesInCache; hits != want {
			t.Fatalf("pass %d hits = %d, want %d", pass, hits, want)
		}
	}
}

// Property: the number of resident lines never exceeds capacity, a
// just-installed line is always resident, and each row's valid ways are a
// prefix (no empty way before a full one), which the lookup scan relies on.
func TestQuickCacheInvariants(t *testing.T) {
	c := NewCache("t", 4*1024, 4)
	maxLines := c.sets * c.ways
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Lookup(uint64(a))
			if !c.Contains(uint64(a)) {
				return false
			}
		}
		resident := 0
		for set := 0; set < c.sets; set++ {
			row := c.row(uint(set))
			n := 0
			for n < len(row) && row[n] != 0 {
				n++
			}
			for _, tag := range row[n:] {
				if tag != 0 {
					return false
				}
			}
			resident += n
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
	sets, ways int
	lines      [][]uint64 // lines[set]: index 0 is most recently used
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
			return true
		}
	}
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
// shapes, two 20-way LLC shapes, a single set, and a direct-mapped cache.
var cacheShapes = []struct {
	name       string
	sets, ways int
}{
	{"32x8", 32, 8},
	{"512x8", 512, 8},
	{"256x20", 256, 20},
	{"1x4", 1, 4},
	{"64x1", 64, 1},
	{"4096x20", 4096, 20},
}

// addrBases returns the bases the equivalence checks offset their
// addresses by, for a cache of the given sets whose accesses span span
// bytes: zero, multiples of 2^39 (above the default host's address space,
// so lines that share a set and their low tag bits differ only in high tag
// bits), and the top of the range the cache's 32-bit tags cover, less four
// set spans of room for checkAgainstRef's neighbour probes.
func addrBases(sets int, span uint64) []uint64 {
	top := uint64(math.MaxUint32)*uint64(sets)*CachelineSize - span - 4*uint64(sets)*CachelineSize
	bases := []uint64{0}
	for _, b := range []uint64{1 << 39, 3 << 39, 1 << 40, 5 << 41} {
		if b <= top {
			bases = append(bases, b)
		}
	}
	return append(bases, top)
}

// lookupOp is one step of an equivalence run: a Lookup of addr, or a
// Flush.
type lookupOp struct {
	addr  uint64
	flush bool
}

// checkAgainstRef replays ops on a fresh Cache of the given shape and on
// the reference model, failing on the first difference in a Lookup result
// or a Contains probe.
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
	}
}

func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, sh := range cacheShapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sh.sets * sh.ways)))
			// Addresses span twice the capacity above each base, and
			// every set sees at least 40 lookups, so hits, misses and
			// evictions all occur; about ten Flushes a run.
			span := int64(2 * sh.sets * sh.ways * CachelineSize)
			bases := addrBases(sh.sets, uint64(span))
			ops := make([]lookupOp, max(20_000, 40*sh.sets))
			for i := range ops {
				if rng.Intn(len(ops)/10) == 0 {
					ops[i].flush = true
					continue
				}
				ops[i].addr = bases[rng.Intn(len(bases))] + uint64(rng.Int63n(span))
			}
			checkAgainstRef(t, sh.sets, sh.ways, ops)
		})
	}
}

// FuzzCacheLRU drives Cache and the reference model with the same decoded
// stream: the first byte picks a shape, then each 3-byte group is a 2-byte
// line index folded into four times the shape's capacity (0xFFFF is a
// Flush) and a byte that picks one of addrBases to offset it by.
func FuzzCacheLRU(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1, 0, 0xFF, 0xFF, 0, 1})
	f.Add([]byte{2, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 0, 0})
	f.Add([]byte{3, 9, 9, 8, 8, 7, 7, 9, 9, 6, 6, 5, 5, 8, 8})
	f.Add([]byte{5, 1, 0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 0xFF, 0xFF, 0, 1, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sh := cacheShapes[int(data[0])%len(cacheShapes)]
		lines := uint64(4 * sh.sets * sh.ways)
		bases := addrBases(sh.sets, lines*CachelineSize)
		var ops []lookupOp
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			w := binary.LittleEndian.Uint16(b)
			if w == 0xFFFF {
				ops = append(ops, lookupOp{flush: true})
				continue
			}
			line := uint64(w) % lines
			base := bases[int(b[2])%len(bases)]
			ops = append(ops, lookupOp{addr: base + line*CachelineSize + uint64(b[0]&(CachelineSize-1))})
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

var footprintSink *Cache

// An untouched cache is one small struct: the default 120 MiB 20-way LLC
// (32,768 sets), which every host builds one of per socket, costs one
// allocation of at most 128 B until its first lookup.
func TestNewCacheFootprint(t *testing.T) {
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, func() { footprintSink = NewCache("llc", 120<<20, 20) }); allocs != 1 {
		t.Fatalf("NewCache(120 MiB, 20-way) made %v allocations, want 1", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		footprintSink = NewCache("llc", 120<<20, 20)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 128 {
		t.Fatalf("NewCache(120 MiB, 20-way) allocated %d bytes, want at most 128", got)
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
