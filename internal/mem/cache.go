// Package mem models the memory hierarchy of the simulated hosts: a
// set-associative cache hierarchy (L1/L2 private, LLC shared per socket),
// DRAM backends with load-dependent queueing, a paged physical address space
// spread over NUMA nodes, and the per-thread access costing used by every
// simulated workload.
//
// A Cache costs only what it holds. Each way stores the tag proper (the
// line address above the set-index bits) plus one as a uint32, so zero marks
// an empty way and rows need no fill count. The block index and the tag rows
// are allocated on first touch: an LLC that no thread probes is one small
// struct. A 32-bit tag covers just under 16 TiB of address space even for
// the 32-set L1, far above the largest simulated host (768 GiB); a lookup
// past a cache's bound panics.
//
// The model is calibrated to the POWER9 AC922 systems used in the paper
// (Section V) and to the ThymesisFlow datapath numbers (950 ns flit RTT,
// 12.5 GiB/s per network channel, ~16 GiB/s OpenCAPI C1 ceiling).
package mem

import (
	"fmt"
	"math"
	"math/bits"
)

// CachelineSize is the POWER9 cacheline size in bytes; it is also the
// OpenCAPI transaction payload the ThymesisFlow prototype carries.
const CachelineSize = 128

// lineBits is log2(CachelineSize).
const lineBits = 7

// setBlock is the number of sets whose tag rows share one lazily allocated
// block, so a large LLC that a run barely touches costs a slice header per
// 64 sets.
const setBlock = 64

// maxWays is the largest associativity a cache may have: a lookup scans and
// shifts its row linearly, so rows stay as narrow as real caches are.
const maxWays = 255

// Cache is a set-associative cache with LRU replacement, tracked at
// cacheline granularity. It is purely functional (hit/miss bookkeeping);
// timing is applied by the caller using the cache's configured latency.
type Cache struct {
	name    string
	sets    int
	ways    int
	setBits uint // log2(sets)
	// blocks[set/setBlock] holds the tag rows of up to setBlock consecutive
	// sets, ways tags per row. The index is built on the first Lookup and
	// each block on the first touch of any of its sets. A row is
	// LRU-ordered, index 0 most recently used; a way holds the tag proper
	// plus one, and its valid ways are a prefix ended by the first zero.
	blocks [][]uint32
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
	return &Cache{name: name, sets: sets, ways: ways, setBits: uint(bits.TrailingZeros(uint(sets)))}
}

// overflow panics for an address whose tag proper does not fit in 32 bits.
func (c *Cache) overflow(addr uint64) {
	panic(fmt.Sprintf("mem: cache %s: address %#x beyond the %#x its 32-bit tags cover",
		c.name, addr, uint64(math.MaxUint32)*uint64(c.sets)*CachelineSize))
}

// row returns the tag row of set, allocating the block index and the
// set's block on first touch.
func (c *Cache) row(set uint) []uint32 {
	if c.blocks == nil {
		c.blocks = make([][]uint32, (c.sets+setBlock-1)/setBlock)
	}
	blk := c.blocks[set/setBlock]
	if blk == nil {
		blk = make([]uint32, min(c.sets, setBlock)*c.ways)
		c.blocks[set/setBlock] = blk
	}
	i := set % setBlock * uint(c.ways)
	return blk[i : i+uint(c.ways)]
}

// Lookup probes the cache for the line containing addr and updates LRU
// state. On a miss the line is installed, possibly evicting the LRU way.
// It reports whether the access hit.
func (c *Cache) Lookup(addr uint64) bool {
	la := addr >> lineBits
	if la>>c.setBits >= math.MaxUint32 {
		c.overflow(addr)
	}
	tag := uint32(la>>c.setBits) + 1
	row := c.row(uint(la) & uint(c.sets-1))
	for i, t := range row {
		if t == tag {
			// Move to front (MRU).
			copy(row[1:i+1], row[:i])
			row[0] = tag
			return true
		}
	}
	// Miss: install at the front. The shift drops the last way, which is
	// the LRU line of a full row or else empty.
	copy(row[1:], row[:len(row)-1])
	row[0] = tag
	return false
}
