package numa

import (
	"testing"

	"thymesisflow/internal/mem"
	"thymesisflow/internal/sim"
)

func newSys(t *testing.T, localCap, remoteCap int64) (*mem.System, mem.NodeID, mem.NodeID) {
	t.Helper()
	k := sim.NewKernel()
	sys := mem.NewSystem(k, 0)
	local := sys.AddNode(&mem.Node{
		Name: "local", Capacity: localCap, Distance: 10,
		Backend: mem.NewDRAMBackend(k, "dram", 90*sim.Nanosecond, 140e9),
	})
	remote := sys.AddNode(&mem.Node{
		Name: "remote", CPULess: true, Capacity: remoteCap, Distance: 80,
		Backend: mem.NewDRAMBackend(k, "far", 950*sim.Nanosecond, 12.5e9),
	})
	return sys, local, remote
}

// pagesOn returns the number of pages node id holds.
func pagesOn(sys *mem.System, id mem.NodeID) int64 { return sys.Node(id).Used / sys.PageSize }

func TestLocalPlacer(t *testing.T) {
	sys, local, _ := newSys(t, 1<<30, 1<<30)
	buf, err := sys.Alloc(10*sys.PageSize, Local(local))
	if err != nil {
		t.Fatal(err)
	}
	for pg := int64(0); pg < 10; pg++ {
		if sys.NodeOf(buf.Addr(pg*sys.PageSize)) != local {
			t.Fatalf("page %d not local", pg)
		}
	}
}

func TestInterleavePlacer(t *testing.T) {
	sys, local, remote := newSys(t, 1<<30, 1<<30)
	buf, err := sys.Alloc(10*sys.PageSize, Interleave(local, remote))
	if err != nil {
		t.Fatal(err)
	}
	for pg := int64(0); pg < 10; pg++ {
		want := local
		if pg%2 == 1 {
			want = remote
		}
		if got := sys.NodeOf(buf.Addr(pg * sys.PageSize)); got != want {
			t.Fatalf("page %d on %d, want %d", pg, got, want)
		}
	}
	// 50/50 split, the paper's interleaved configuration.
	if pagesOn(sys, local) != 5 || pagesOn(sys, remote) != 5 {
		t.Fatalf("split %d/%d", pagesOn(sys, local), pagesOn(sys, remote))
	}
}

func TestPreferredSpillsWhenFull(t *testing.T) {
	sys, local, remote := newSys(t, 4*mem.DefaultPageSize, 1<<30)
	buf, err := sys.Alloc(8*sys.PageSize, Preferred(sys, local, remote))
	if err != nil {
		t.Fatal(err)
	}
	_ = buf
	if pagesOn(sys, local) != 4 || pagesOn(sys, remote) != 4 {
		t.Fatalf("preferred split %d/%d, want 4/4", pagesOn(sys, local), pagesOn(sys, remote))
	}
}

func TestWeightedInterleave(t *testing.T) {
	sys, local, remote := newSys(t, 1<<30, 1<<30)
	placer, err := WeightedInterleave([]mem.NodeID{local, remote}, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Alloc(8*sys.PageSize, placer); err != nil {
		t.Fatal(err)
	}
	if pagesOn(sys, local) != 6 || pagesOn(sys, remote) != 2 {
		t.Fatalf("weighted split %d/%d, want 6/2", pagesOn(sys, local), pagesOn(sys, remote))
	}
	if _, err := WeightedInterleave([]mem.NodeID{local}, []int{0}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := WeightedInterleave([]mem.NodeID{local}, []int{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestBalancerMigratesHotRemotePages(t *testing.T) {
	sys, local, remote := newSys(t, 1<<30, 1<<30)
	buf, err := sys.Alloc(4*sys.PageSize, Local(remote))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBalancer(sys, local, sim.Millisecond)
	// Page 0 is hot, page 1 is lukewarm, pages 2-3 cold.
	for i := 0; i < 100; i++ {
		b.RecordAccess(buf.Addr(0))
	}
	b.RecordAccess(buf.Addr(sys.PageSize))
	b.BatchLimit = 1
	cost := b.MaybeScan(2 * sim.Millisecond)
	if cost == 0 {
		t.Fatal("scan performed no migration")
	}
	if sys.NodeOf(buf.Addr(0)) != local {
		t.Fatal("hot page not migrated")
	}
	if sys.NodeOf(buf.Addr(sys.PageSize)) != remote {
		t.Fatal("batch limit exceeded")
	}
	migrated, _ := b.Stats()
	if migrated != 1 {
		t.Fatalf("migrated = %d, want 1", migrated)
	}
}

func TestBalancerRespectsPeriod(t *testing.T) {
	sys, local, remote := newSys(t, 1<<30, 1<<30)
	buf, _ := sys.Alloc(sys.PageSize, Local(remote))
	b := NewBalancer(sys, local, sim.Millisecond)
	b.RecordAccess(buf.Addr(0))
	if cost := b.MaybeScan(500 * sim.Microsecond); cost != 0 {
		t.Fatal("scan ran before period elapsed")
	}
	if sys.NodeOf(buf.Addr(0)) != remote {
		t.Fatal("page migrated before scan period")
	}
}

func TestBalancerIgnoresLocalAndCPUNodes(t *testing.T) {
	sys, local, remote := newSys(t, 1<<30, 1<<30)
	lbuf, _ := sys.Alloc(sys.PageSize, Local(local))
	b := NewBalancer(sys, local, sim.Millisecond)
	for i := 0; i < 50; i++ {
		b.RecordAccess(lbuf.Addr(0))
	}
	b.MaybeScan(2 * sim.Millisecond)
	migrated, _ := b.Stats()
	if migrated != 0 {
		t.Fatalf("migrated local pages: %d", migrated)
	}
	_ = remote
}

func TestDrainMovesEverything(t *testing.T) {
	sys, local, remote := newSys(t, 1<<30, 1<<30)
	if _, err := sys.Alloc(16*sys.PageSize, Local(remote)); err != nil {
		t.Fatal(err)
	}
	moved, err := Drain(sys, remote, local)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 16 {
		t.Fatalf("drained %d pages, want 16", moved)
	}
	if pagesOn(sys, remote) != 0 {
		t.Fatal("pages remain after drain")
	}
	// Node can now be removed without panicking.
	sys.RemoveNode(remote)
}

func TestDrainFailsWhenTargetFull(t *testing.T) {
	sys, local, remote := newSys(t, 2*mem.DefaultPageSize, 1<<30)
	if _, err := sys.Alloc(8*sys.PageSize, Local(remote)); err != nil {
		t.Fatal(err)
	}
	moved, err := Drain(sys, remote, local)
	if err == nil {
		t.Fatal("drain into full node succeeded")
	}
	if moved != 2 {
		t.Fatalf("moved %d before failing, want 2", moved)
	}
}
