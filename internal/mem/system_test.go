package mem

import (
	"math/rand"
	"testing"

	"thymesisflow/internal/sim"
)

func testSystem(t *testing.T) (*sim.Kernel, *System, NodeID, NodeID) {
	t.Helper()
	k := sim.NewKernel()
	sys := NewSystem(k, 0)
	local := sys.AddNode(&Node{
		Name: "local", Socket: 0, Capacity: 1 << 30, Distance: 10,
		Backend: NewDRAMBackend(k, "dram0", 90*sim.Nanosecond, 140e9),
	})
	remote := sys.AddNode(&Node{
		Name: "remote", Socket: 0, CPULess: true, Capacity: 1 << 30, Distance: 80,
		Backend: NewDRAMBackend(k, "dram-far", 950*sim.Nanosecond, 12.5e9),
	})
	sys.SetLLC(0, NewCache("LLC0", 8<<20, 16))
	return k, sys, local, remote
}

func TestAllocPlacesPages(t *testing.T) {
	_, sys, local, remote := testSystem(t)
	buf, err := sys.Alloc(10*sys.PageSize, func(pg int) NodeID {
		if pg%2 == 0 {
			return local
		}
		return remote
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Node(local).Used != 5*sys.PageSize || sys.Node(remote).Used != 5*sys.PageSize {
		t.Fatalf("usage local=%d remote=%d", sys.Node(local).Used, sys.Node(remote).Used)
	}
	for pg := int64(0); pg < 10; pg++ {
		got := sys.NodeOf(buf.Addr(pg * sys.PageSize))
		want := local
		if pg%2 == 1 {
			want = remote
		}
		if got != want {
			t.Fatalf("page %d on node %d, want %d", pg, got, want)
		}
	}
	sys.Free(buf)
	if sys.Node(local).Used != 0 || sys.Node(remote).Used != 0 {
		t.Fatal("Free did not release pages")
	}
}

func TestAllocOutOfMemory(t *testing.T) {
	_, sys, local, _ := testSystem(t)
	if _, err := sys.Alloc(2<<30, func(int) NodeID { return local }); err == nil {
		t.Fatal("over-capacity Alloc succeeded")
	}
	// Failed alloc must not leak partial usage.
	if sys.Node(local).Used != 0 {
		t.Fatalf("failed alloc leaked %d bytes", sys.Node(local).Used)
	}
}

func TestMigratePage(t *testing.T) {
	_, sys, local, remote := testSystem(t)
	buf, err := sys.Alloc(sys.PageSize, func(int) NodeID { return local })
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.MigratePage(buf.Addr(0), remote); err != nil {
		t.Fatal(err)
	}
	if sys.NodeOf(buf.Addr(0)) != remote {
		t.Fatal("page not migrated")
	}
	if sys.Node(local).Used != 0 || sys.Node(remote).Used != sys.PageSize {
		t.Fatal("usage not transferred on migration")
	}
}

func TestRemoveNodeWithPagesPanics(t *testing.T) {
	_, sys, local, _ := testSystem(t)
	if _, err := sys.Alloc(sys.PageSize, func(int) NodeID { return local }); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RemoveNode with mapped pages did not panic")
		}
	}()
	sys.RemoveNode(local)
}

func TestThreadAccessLatencyOrdering(t *testing.T) {
	k, sys, local, remote := testSystem(t)
	lbuf, _ := sys.Alloc(1<<20, func(int) NodeID { return local })
	rbuf, _ := sys.Alloc(1<<20, func(int) NodeID { return remote })

	var missLocal, hitLocal, missRemote sim.Time
	k.Go("t", func(p *sim.Proc) {
		th := NewThread(sys, 0, DefaultCPUConfig())
		missLocal = th.Access(p, lbuf.Addr(0), 8, false)
		hitLocal = th.Access(p, lbuf.Addr(0), 8, false)
		missRemote = th.Access(p, rbuf.Addr(0), 8, false)
	})
	k.Run()
	if !(hitLocal < missLocal && missLocal < missRemote) {
		t.Fatalf("latency ordering violated: hit=%v local-miss=%v remote-miss=%v",
			hitLocal, missLocal, missRemote)
	}
	if missRemote < 950*sim.Nanosecond {
		t.Fatalf("remote miss %v under the 950ns datapath RTT", missRemote)
	}
	if missLocal < 90*sim.Nanosecond || missLocal > 200*sim.Nanosecond {
		t.Fatalf("local miss %v outside plausible DRAM range", missLocal)
	}
}

func TestThreadPerfAccounting(t *testing.T) {
	k, sys, local, _ := testSystem(t)
	buf, _ := sys.Alloc(1<<20, func(int) NodeID { return local })
	th := NewThread(sys, 0, DefaultCPUConfig())
	k.Go("t", func(p *sim.Proc) {
		th.Compute(p, 1000)
		th.Access(p, buf.Addr(0), CachelineSize, false)
	})
	k.Run()
	perf := th.Perf()
	if perf.Instructions != 1001 {
		t.Fatalf("instructions = %d, want 1001", perf.Instructions)
	}
	if perf.Cycles <= 500 {
		t.Fatalf("cycles = %d, want > 500 (1000 instr at IPC 2)", perf.Cycles)
	}
	if perf.StallBackend == 0 {
		t.Fatal("memory miss produced no backend stalls")
	}
	if perf.TaskClockPS == 0 {
		t.Fatal("task clock not accounted")
	}
}

func TestStreamChunkBandwidthBound(t *testing.T) {
	k, sys, _, remote := testSystem(t)
	// 12.5 GB/s remote pipe; one thread with MLP 20 @950ns caps at
	// 20*128/950ns = 2.69 GB/s, so the thread limit should bind.
	th := NewThread(sys, 0, DefaultCPUConfig())
	const bytes = 1 << 20
	var took sim.Time
	k.Go("t", func(p *sim.Proc) {
		start := p.Now()
		th.StreamChunk(p, remote, bytes, 0)
		took = p.Now() - start
	})
	k.Run()
	gotBW := float64(bytes) / took.Seconds()
	if gotBW > 3.0e9 || gotBW < 2.3e9 {
		t.Fatalf("single-thread remote stream = %.3g B/s, want ~2.69e9 (MLP bound)", gotBW)
	}
}

func TestStreamAggregateSaturatesPipe(t *testing.T) {
	k, sys, _, remote := testSystem(t)
	const bytes = 4 << 20
	const threads = 8
	var totalBytes int64
	for i := 0; i < threads; i++ {
		th := NewThread(sys, 0, DefaultCPUConfig())
		k.Go("t", func(p *sim.Proc) {
			for c := 0; c < 4; c++ {
				th.StreamChunk(p, remote, bytes/4, 0)
				totalBytes += bytes / 4
			}
		})
	}
	end := k.Run()
	agg := float64(totalBytes) / end.Seconds()
	// 8 threads * 2.69 GB/s offered = 21.5 > 12.5 pipe; expect ~pipe rate.
	if agg < 11e9 || agg > 13e9 {
		t.Fatalf("aggregate stream = %.3g B/s, want ~12.5e9 (pipe bound)", agg)
	}
}

// refPages is a map-backed page table, the reference the dense table is
// checked against.
type refPages map[uint64]NodeID

// checkPageTable compares every page up to two past the bump cursor, and
// each node's usage and AnyPageOn, against the reference.
func checkPageTable(t *testing.T, sys *System, ref refPages, step int) {
	t.Helper()
	ps := uint64(sys.PageSize)
	for pg := uint64(0); pg < sys.nextAddr/ps+2; pg++ {
		want, mapped := ref[pg]
		got, ok := nodeOf(sys, pg*ps)
		if ok != mapped || (ok && got != want) {
			t.Fatalf("step %d: page %d: NodeOf = %d (mapped %v), reference %d (mapped %v)",
				step, pg, got, ok, want, mapped)
		}
	}
	for id, n := range sys.nodes {
		if n == nil {
			continue
		}
		var pages int64
		lowest, found := uint64(0), false
		for pg, owner := range ref {
			if owner != NodeID(id) {
				continue
			}
			pages++
			if !found || pg < lowest {
				lowest, found = pg, true
			}
		}
		if n.Used != pages*sys.PageSize {
			t.Fatalf("step %d: node %d Used = %d, reference %d", step, id, n.Used, pages*sys.PageSize)
		}
		addr, ok := sys.AnyPageOn(NodeID(id))
		if ok != found || addr != lowest*ps {
			t.Fatalf("step %d: AnyPageOn(%d) = %#x %v, reference %#x %v",
				step, id, addr, ok, lowest*ps, found)
		}
	}
}

// nodeOf is NodeOf with its unmapped-address panic turned into ok=false.
func nodeOf(sys *System, addr uint64) (id NodeID, ok bool) {
	defer func() {
		if recover() != nil {
			id, ok = 0, false
		}
	}()
	return sys.NodeOf(addr), true
}

func TestPageTableMatchesReference(t *testing.T) {
	k := sim.NewKernel()
	sys := NewSystem(k, 0)
	const nodes = 3
	for i := 0; i < nodes; i++ {
		// Small nodes, so allocations regularly fail part-way and roll back.
		sys.AddNode(&Node{Name: "n", Capacity: 24 * sys.PageSize, Distance: 10,
			Backend: NewDRAMBackend(k, "dram", 90*sim.Nanosecond, 140e9)})
	}
	ref := refPages{}
	var live []*Buffer
	rng := rand.New(rand.NewSource(5))
	failed, migrated := 0, 0
	for step := 0; step < 1000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // Alloc, sometimes failing and rolling back
			pages := 1 + rng.Intn(8)
			placed := make([]NodeID, pages)
			buf, err := sys.Alloc(int64(pages)*sys.PageSize-int64(rng.Intn(100)), func(pg int) NodeID {
				placed[pg] = NodeID(rng.Intn(nodes))
				return placed[pg]
			})
			if err != nil {
				failed++
				break
			}
			for i, id := range placed {
				ref[buf.Base/uint64(sys.PageSize)+uint64(i)] = id
			}
			live = append(live, buf)
		case op < 6 && len(live) > 0: // Free
			i := rng.Intn(len(live))
			buf := live[i]
			sys.Free(buf)
			for pg := buf.Base / uint64(sys.PageSize); pg < (buf.Base+uint64(buf.Size))/uint64(sys.PageSize); pg++ {
				delete(ref, pg)
			}
			live = append(live[:i], live[i+1:]...)
		case len(live) > 0: // MigratePage, failing when the target is full
			buf := live[rng.Intn(len(live))]
			addr := buf.Addr(rng.Int63n(buf.Size))
			to := NodeID(rng.Intn(nodes))
			pg := addr / uint64(sys.PageSize)
			if err := sys.MigratePage(addr, to); err == nil {
				if ref[pg] != to {
					migrated++
				}
				ref[pg] = to
			}
		}
		checkPageTable(t, sys, ref, step)
	}
	if migrated == 0 || failed == 0 {
		t.Fatalf("degenerate run: %d migrations, %d failed allocs", migrated, failed)
	}

	// A node is removable only once its last page has migrated away.
	for pg, owner := range ref {
		if owner != 0 {
			continue
		}
		if err := sys.MigratePage(pg*uint64(sys.PageSize), 1); err != nil {
			// Node 1 is full: make room by freeing everything else.
			for _, buf := range live {
				sys.Free(buf)
			}
			live, ref = nil, refPages{}
			break
		}
		ref[pg] = 1
	}
	checkPageTable(t, sys, ref, -1)
	sys.RemoveNode(0)
	if sys.Node(0) != nil {
		t.Fatal("RemoveNode left the node in place")
	}
	if _, err := sys.Alloc(sys.PageSize, func(int) NodeID { return 0 }); err == nil {
		t.Fatal("Alloc on a removed node succeeded")
	}
	checkPageTable(t, sys, ref, -2)
}

func TestFailedAllocRollsBackPageTable(t *testing.T) {
	_, sys, local, remote := testSystem(t)
	keep, err := sys.Alloc(2*sys.PageSize, func(int) NodeID { return local })
	if err != nil {
		t.Fatal(err)
	}
	before := len(sys.pageNode)
	// Fills remote, then fails on the first page past its capacity.
	if _, err := sys.Alloc(2<<30, func(int) NodeID { return remote }); err == nil {
		t.Fatal("over-capacity Alloc succeeded")
	}
	if len(sys.pageNode) != before || sys.Node(remote).Used != 0 {
		t.Fatalf("failed Alloc left %d table entries and %d bytes used",
			len(sys.pageNode)-before, sys.Node(remote).Used)
	}
	// The rolled-back addresses are handed out again, right after keep.
	next, err := sys.Alloc(sys.PageSize, func(int) NodeID { return remote })
	if err != nil {
		t.Fatal(err)
	}
	if next.Base != keep.Base+uint64(keep.Size) {
		t.Fatalf("next Alloc at %#x, want %#x", next.Base, keep.Base+uint64(keep.Size))
	}
}

func TestNodeOfFreedPagePanics(t *testing.T) {
	_, sys, local, _ := testSystem(t)
	buf, err := sys.Alloc(3*sys.PageSize, func(int) NodeID { return local })
	if err != nil {
		t.Fatal(err)
	}
	sys.Free(buf)
	for off := int64(0); off < buf.Size; off += sys.PageSize {
		if _, ok := nodeOf(sys, buf.Addr(off)); ok {
			t.Fatalf("NodeOf of freed page at offset %d did not panic", off)
		}
	}
	if _, ok := nodeOf(sys, 0); ok {
		t.Fatal("NodeOf(0) did not panic")
	}
	if _, ok := sys.AnyPageOn(local); ok {
		t.Fatal("AnyPageOn found a page on a node whose pages were all freed")
	}
}

// Once its lines are resident, Thread.Access walks the cache hierarchy
// without allocating.
func TestThreadAccessAllocs(t *testing.T) {
	k, sys, local, _ := testSystem(t)
	buf, err := sys.Alloc(1<<20, func(int) NodeID { return local })
	if err != nil {
		t.Fatal(err)
	}
	th := NewThread(sys, 0, DefaultCPUConfig())
	var allocs float64
	k.Go("t", func(p *sim.Proc) {
		access := func() { th.Access(p, buf.Addr(4096), 4*CachelineSize, false) }
		access() // warm: installs the lines and each cache's first block
		allocs = testing.AllocsPerRun(100, access)
	})
	k.Run()
	if allocs != 0 {
		t.Fatalf("warm Thread.Access allocated %.1f times per call, want 0", allocs)
	}
}
