package mem

import "math"

// Contains probes without updating LRU state: the cache tests' check of
// what is resident.
func (c *Cache) Contains(addr uint64) bool {
	la := addr >> lineBits
	if la>>c.setBits >= math.MaxUint32 {
		c.overflow(addr)
	}
	tag := uint32(la>>c.setBits) + 1
	set := uint(la) & uint(c.sets-1)
	if c.blocks == nil || c.blocks[set/setBlock] == nil {
		return false
	}
	for _, t := range c.row(set) {
		if t == tag {
			return true
		}
		if t == 0 {
			return false
		}
	}
	return false
}

// Flush empties the cache, keeping its allocated blocks: the reference
// checks' way to start every set over.
func (c *Cache) Flush() {
	for _, blk := range c.blocks {
		clear(blk)
	}
}
