package mem_test

import (
	"testing"

	"thymesisflow/internal/core"
	"thymesisflow/internal/endpoint"
	"thymesisflow/internal/mem"
)

// A cache's 32-bit tags cover MaxUint32 × sets lines: for the 32-set L1
// that is 16 TiB less one 4 KiB set span. The last line below the bound
// looks up; the first line at it panics instead of aliasing a lower tag.
func TestCacheTagOverflowPanics(t *testing.T) {
	const bound = 1<<44 - 32*mem.CachelineSize
	c := mem.NewCache("L1D", 32<<10, 8) // 32 sets
	if c.Lookup(bound - 1) {
		t.Fatal("first lookup below the bound hit")
	}
	if !c.Lookup(bound - mem.CachelineSize) {
		t.Fatal("lookup of the same line missed")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Lookup(%#x) past the tag bound did not panic", uint64(bound))
		}
	}()
	c.Lookup(bound)
}

// Every cache a default host builds (L1, L2, the per-socket LLC) and the
// default HBM cache must reach the largest address such a host can map:
// its DRAM plus every RMMU section of attachable remote memory, above the
// unused first page.
func TestDefaultHostAddressesFit(t *testing.T) {
	cfg := core.DefaultHostConfig("h")
	hbm := endpoint.DefaultHBMConfig()
	top := uint64(mem.DefaultPageSize) + uint64(cfg.Sockets)*uint64(cfg.DRAMPerSocket) +
		uint64(cfg.RMMUSections)*uint64(cfg.SectionSize) - 1
	if top < 768<<30-1 {
		t.Fatalf("default host maps up to %#x, below its 768 GiB", top)
	}
	for _, c := range []*mem.Cache{
		mem.NewCache("L1D", cfg.CPU.L1Size, cfg.CPU.L1Ways),
		mem.NewCache("L2", cfg.CPU.L2Size, cfg.CPU.L2Ways),
		mem.NewCache("llc", cfg.LLCSizePerSocket, cfg.LLCWays),
		mem.NewCache("hbm", hbm.SizeBytes, hbm.Ways),
	} {
		c.Lookup(top)
		if !c.Lookup(top) {
			t.Fatalf("line at %#x not resident after its lookup", top)
		}
	}
}
