// Package mem models the memory hierarchy of the simulated hosts: a
// set-associative cache hierarchy (L1/L2 private, LLC shared per socket),
// DRAM backends with load-dependent queueing, a paged physical address space
// spread over NUMA nodes, and the per-thread access costing used by every
// simulated workload.
//
// The model is calibrated to the POWER9 AC922 systems used in the paper
// (Section V) and to the ThymesisFlow datapath numbers (950 ns flit RTT,
// 12.5 GiB/s per network channel, ~16 GiB/s OpenCAPI C1 ceiling).
package mem

import "fmt"

// CachelineSize is the POWER9 cacheline size in bytes; it is also the
// OpenCAPI transaction payload the ThymesisFlow prototype carries.
const CachelineSize = 128

// setBlock is the number of sets whose tag rows share one lazily allocated
// block, so a large LLC that a run barely touches costs a slice header per
// 64 sets and a fill byte per set.
const setBlock = 64

// maxWays is the largest associativity the per-set fill count can hold.
const maxWays = 255

// Cache is a set-associative cache with LRU replacement, tracked at
// cacheline granularity. It is purely functional (hit/miss bookkeeping);
// timing is applied by the caller using the cache's configured latency.
type Cache struct {
	sets     int
	ways     int
	lineBits uint
	// blocks[set/setBlock] holds the tag rows of up to setBlock consecutive
	// sets, ways tags per row, allocated on the first touch of any of them.
	// A row is LRU-ordered: index 0 is most recently used, and only its
	// first fill[set] tags are valid.
	blocks [][]uint64
	fill   []uint8

	hits   int64
	misses int64
}

// NewCache builds a cache of the given total size and associativity.
// size must be a multiple of ways*CachelineSize; sets are forced to a power
// of two for cheap indexing. The name labels the cache in panics only.
func NewCache(name string, size int64, ways int) *Cache {
	if ways <= 0 || ways > maxWays {
		panic(fmt.Sprintf("mem: cache %s: ways %d outside [1,%d]", name, ways, maxWays))
	}
	sets := int(size / (int64(ways) * CachelineSize))
	if sets <= 0 {
		sets = 1
	}
	// Round sets down to a power of two.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	return &Cache{
		sets:     sets,
		ways:     ways,
		lineBits: 7, // log2(CachelineSize)
		blocks:   make([][]uint64, (sets+setBlock-1)/setBlock),
		fill:     make([]uint8, sets),
	}
}

// SizeBytes returns the total capacity in bytes.
func (c *Cache) SizeBytes() int64 { return int64(c.sets) * int64(c.ways) * CachelineSize }

// set returns the set index of line address la.
func (c *Cache) set(la uint64) uint { return uint(la) & uint(c.sets-1) }

// row returns the tag row of set, allocating its block on first touch.
func (c *Cache) row(set uint) []uint64 {
	blk := c.blocks[set/setBlock]
	if blk == nil {
		blk = make([]uint64, min(c.sets, setBlock)*c.ways)
		c.blocks[set/setBlock] = blk
	}
	i := set % setBlock * uint(c.ways)
	return blk[i : i+uint(c.ways)]
}

// Lookup probes the cache for the line containing addr and updates LRU
// state. On a miss the line is installed, possibly evicting the LRU way.
// It reports whether the access hit.
func (c *Cache) Lookup(addr uint64) bool {
	la := addr >> c.lineBits
	set := c.set(la)
	row := c.row(set)
	n := int(c.fill[set])
	for i, tag := range row[:n] {
		if tag == la {
			// Move to front (MRU).
			copy(row[1:i+1], row[:i])
			row[0] = la
			c.hits++
			return true
		}
	}
	c.misses++
	if n < c.ways {
		n++
		c.fill[set] = uint8(n)
	}
	copy(row[1:n], row[:n-1])
	row[0] = la
	return false
}

// Contains probes without updating LRU or statistics.
func (c *Cache) Contains(addr uint64) bool {
	la := addr >> c.lineBits
	set := c.set(la)
	blk := c.blocks[set/setBlock]
	if blk == nil {
		return false
	}
	i := set % setBlock * uint(c.ways)
	for _, tag := range blk[i : i+uint(c.fill[set])] {
		if tag == la {
			return true
		}
	}
	return false
}

// Flush empties the cache.
func (c *Cache) Flush() { clear(c.fill) }

// Hits returns the number of lookup hits since creation.
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns the number of lookup misses since creation.
func (c *Cache) Misses() int64 { return c.misses }
