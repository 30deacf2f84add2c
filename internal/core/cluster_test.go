package core

import (
	"bytes"
	"math/rand"
	"testing"

	"thymesisflow/internal/mem"
	"thymesisflow/internal/numa"
	"thymesisflow/internal/sim"
)

func smallHostConfig(name string) HostConfig {
	cfg := DefaultHostConfig(name)
	cfg.DRAMPerSocket = 4 << 30
	cfg.SectionSize = 1 << 20 // small sections keep tests fast
	cfg.RMMUSections = 64
	return cfg
}

func newTestCluster(t *testing.T) (*Cluster, *Host, *Host) {
	t.Helper()
	c := NewCluster()
	a, err := c.AddHost(smallHostConfig("hostA"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.AddHost(smallHostConfig("hostB"))
	if err != nil {
		t.Fatal(err)
	}
	return c, a, b
}

func TestAttachCreatesNUMANode(t *testing.T) {
	c, a, b := newTestCluster(t)
	att, err := c.Attach(AttachSpec{ComputeHost: "hostA", DonorHost: "hostB", Bytes: 4 << 20, Channels: 1})
	if err != nil {
		t.Fatal(err)
	}
	node := a.Mem.Node(att.Node)
	if node == nil || !node.CPULess {
		t.Fatal("attachment did not create a CPU-less NUMA node")
	}
	if node.Capacity != 4<<20 {
		t.Fatalf("node capacity = %d, want %d", node.Capacity, 4<<20)
	}
	if node.Distance <= 10 {
		t.Fatalf("remote node distance = %d, want > local 10", node.Distance)
	}
	if len(att.Sections) != 4 {
		t.Fatalf("sections = %d, want 4", len(att.Sections))
	}
	// Donor capacity shrank by the stolen amount.
	if got := b.Mem.Node(b.LocalNode(0)).Capacity; got != 4<<30-4<<20 {
		t.Fatalf("donor capacity = %d", got)
	}
	// Allocation on the disaggregated node works.
	if _, err := a.Mem.Alloc(1<<20, numa.Local(att.Node)); err != nil {
		t.Fatalf("alloc on disaggregated node: %v", err)
	}
}

func TestAttachRoundsUpToSections(t *testing.T) {
	c, _, _ := newTestCluster(t)
	att, err := c.Attach(AttachSpec{ComputeHost: "hostA", DonorHost: "hostB", Bytes: 1<<20 + 1})
	if err != nil {
		t.Fatal(err)
	}
	if att.Bytes != 2<<20 {
		t.Fatalf("attachment bytes = %d, want 2 MiB", att.Bytes)
	}
}

func TestAttachValidation(t *testing.T) {
	c, _, _ := newTestCluster(t)
	if _, err := c.Attach(AttachSpec{ComputeHost: "hostA", DonorHost: "hostA", Bytes: 1 << 20}); err == nil {
		t.Fatal("self-attach accepted")
	}
	if _, err := c.Attach(AttachSpec{ComputeHost: "hostA", DonorHost: "nope", Bytes: 1 << 20}); err == nil {
		t.Fatal("unknown donor accepted")
	}
	if _, err := c.Attach(AttachSpec{ComputeHost: "hostA", DonorHost: "hostB", Bytes: 0}); err == nil {
		t.Fatal("zero-byte attach accepted")
	}
	if _, err := c.Attach(AttachSpec{ComputeHost: "hostA", DonorHost: "hostB", Bytes: 1 << 40}); err == nil {
		t.Fatal("attach beyond donor capacity accepted")
	}
	// 65 sections overflow the 64-section RMMU after the donor steal: the
	// failed attach must give the donor capacity back and unmap what it
	// mapped, so the full 64 sections still attach afterwards.
	if _, err := c.Attach(AttachSpec{ComputeHost: "hostA", DonorHost: "hostB", Bytes: 65 << 20}); err == nil {
		t.Fatal("attach beyond the RMMU section table accepted")
	}
	hb, _ := c.Host("hostB")
	if got := hb.Mem.Node(hb.LocalNode(0)).Capacity; got != 4<<30 {
		t.Fatalf("donor capacity leaked by failed attach: %d", got)
	}
	if _, err := c.Attach(AttachSpec{ComputeHost: "hostA", DonorHost: "hostB", Bytes: 64 << 20}); err != nil {
		t.Fatalf("attach after failed attach: %v", err)
	}
}

func TestFunctionalLoadStoreThroughDatapath(t *testing.T) {
	c, _, _ := newTestCluster(t)
	att, err := c.Attach(AttachSpec{
		ComputeHost: "hostA", DonorHost: "hostB", Bytes: 1 << 20, Channels: 1, Backing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x5A}, 128)
	var got []byte
	c.K.Go("app", func(p *sim.Proc) {
		if err := c.Store(p, att, 4096, want); err != nil {
			t.Error(err)
			return
		}
		data, err := c.Load(p, att, 4096, 128)
		if err != nil {
			t.Error(err)
			return
		}
		got = data
	})
	c.K.RunUntil(sim.Millisecond)
	if !bytes.Equal(got, want) {
		t.Fatal("data corrupted through full cluster datapath")
	}
}

func TestBondedAttachmentUsesBothChannels(t *testing.T) {
	c, _, _ := newTestCluster(t)
	att, err := c.Attach(AttachSpec{
		ComputeHost: "hostA", DonorHost: "hostB", Bytes: 1 << 20, Channels: 2, Backing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !att.Bonded {
		t.Fatal("two-channel attachment not marked bonded")
	}
	c.K.Go("app", func(p *sim.Proc) {
		buf := make([]byte, 128)
		for i := int64(0); i < 16; i++ {
			if err := c.Store(p, att, i*128, buf); err != nil {
				t.Error(err)
				return
			}
		}
	})
	c.K.RunUntil(sim.Millisecond)
	s0 := att.computePorts[0].Stats().TxTransactions
	s1 := att.computePorts[1].Stats().TxTransactions
	if s0 == 0 || s1 == 0 {
		t.Fatalf("bonding did not spread transactions: %d/%d", s0, s1)
	}
}

func TestDetachRestoresEverything(t *testing.T) {
	c, a, b := newTestCluster(t)
	att, err := c.Attach(AttachSpec{ComputeHost: "hostA", DonorHost: "hostB", Bytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Allocate pages on the remote node so detach has to migrate them.
	if _, err := a.Mem.Alloc(1<<20, numa.Local(att.Node)); err != nil {
		t.Fatal(err)
	}
	if err := c.Detach(att.ID); err != nil {
		t.Fatal(err)
	}
	if a.Mem.Node(att.Node) != nil {
		t.Fatal("NUMA node survives detach")
	}
	if got := b.Mem.Node(b.LocalNode(0)).Capacity; got != 4<<30 {
		t.Fatalf("donor capacity not restored: %d", got)
	}
	// Pages were migrated locally, not lost.
	if pages := a.Mem.Node(a.LocalNode(0)).Used / a.Mem.PageSize; pages != (1<<20)/a.Mem.PageSize {
		t.Fatalf("migrated pages = %d", pages)
	}
	if len(c.Attachments()) != 0 {
		t.Fatal("attachment list not empty")
	}
	if err := c.Detach(att.ID); err == nil {
		t.Fatal("double detach accepted")
	}
	// The freed RMMU/router state allows a fresh attachment.
	if _, err := c.Attach(AttachSpec{ComputeHost: "hostA", DonorHost: "hostB", Bytes: 1 << 20}); err != nil {
		t.Fatalf("re-attach after detach: %v", err)
	}
}

func TestTestbedConfigs(t *testing.T) {
	for _, cfg := range AllConfigs() {
		tb, err := NewTestbed(cfg, 64<<20)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if got := len(tb.ServerInstances()); (cfg == ConfigScaleOut) != (got == 2) {
			t.Fatalf("%v: %d instances", cfg, got)
		}
		placer := tb.Placer()
		if placer == nil {
			t.Fatalf("%v: nil placer", cfg)
		}
		// Allocate a buffer and check placement matches the configuration.
		buf, err := tb.Server.Mem.Alloc(8*tb.Server.Mem.PageSize, placer)
		if err != nil {
			t.Fatalf("%v: alloc: %v", cfg, err)
		}
		remote := int64(0)
		for pg := int64(0); pg < 8; pg++ {
			id := tb.Server.Mem.NodeOf(buf.Addr(pg * tb.Server.Mem.PageSize))
			if tb.Server.Mem.Node(id).CPULess {
				remote++
			}
		}
		switch cfg {
		case ConfigLocal, ConfigScaleOut:
			if remote != 0 {
				t.Fatalf("%v: %d remote pages", cfg, remote)
			}
		case ConfigSingleDisaggregated, ConfigBondingDisaggregated:
			if remote != 8 {
				t.Fatalf("%v: %d remote pages, want 8", cfg, remote)
			}
		case ConfigInterleaved:
			if remote != 4 {
				t.Fatalf("%v: %d remote pages, want 4", cfg, remote)
			}
		}
	}
}

func TestLatencyOrderingAcrossConfigs(t *testing.T) {
	// A demand miss on the disaggregated node must cost ~RTT more than a
	// local miss, and the bonded attachment must not be slower than single.
	lat := func(cfg MemoryConfig) sim.Time {
		tb, err := NewTestbed(cfg, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := tb.Server.Mem.Alloc(1<<20, tb.Placer())
		if err != nil {
			t.Fatal(err)
		}
		var l sim.Time
		tb.Cluster.K.Go("probe", func(p *sim.Proc) {
			th := tb.Server.NewThread(0)
			l = th.Access(p, buf.Addr(0), 8, false)
		})
		tb.Cluster.K.Run()
		return l
	}
	local := lat(ConfigLocal)
	single := lat(ConfigSingleDisaggregated)
	if single < local+900*sim.Nanosecond {
		t.Fatalf("single (%v) should exceed local (%v) by ~950ns RTT", single, local)
	}
	_ = mem.CachelineSize
}

func TestAppNodesPerConfig(t *testing.T) {
	for _, cfg := range AllConfigs() {
		tb, err := NewTestbed(cfg, 64<<20)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		nodes := tb.AppNodes(tb.Server)
		switch cfg {
		case ConfigInterleaved:
			if len(nodes) != 2 {
				t.Fatalf("%v: nodes = %v, want local+remote", cfg, nodes)
			}
		case ConfigSingleDisaggregated, ConfigBondingDisaggregated:
			if len(nodes) != 1 || !tb.Server.Mem.Node(nodes[0]).CPULess {
				t.Fatalf("%v: nodes = %v, want the disaggregated node", cfg, nodes)
			}
		default:
			if len(nodes) != 1 || tb.Server.Mem.Node(nodes[0]).CPULess {
				t.Fatalf("%v: nodes = %v, want local", cfg, nodes)
			}
		}
		// Scale-out second instance always allocates locally.
		if cfg == ConfigScaleOut {
			n := tb.AppNodes(tb.Donor)
			if len(n) != 1 || tb.Donor.Mem.Node(n[0]).CPULess {
				t.Fatalf("scale-out donor instance nodes = %v", n)
			}
		}
	}
}

// TestSectionsReusedAcrossDetach churns attachments on a 512-section host:
// Detach returns its RMMU sections, so a thousand attach/detach cycles fit
// in the table, and the device ranges of live attachments never overlap.
func TestSectionsReusedAcrossDetach(t *testing.T) {
	c := NewCluster()
	cfg := smallHostConfig("hostA")
	cfg.RMMUSections = 512
	if _, err := c.AddHost(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddHost(smallHostConfig("hostB")); err != nil {
		t.Fatal(err)
	}
	attach := func(mib int64) *Attachment {
		t.Helper()
		att, err := c.Attach(AttachSpec{ComputeHost: "hostA", DonorHost: "hostB", Bytes: mib << 20, Channels: 1})
		if err != nil {
			t.Fatal(err)
		}
		return att
	}
	for i := 0; i < 1000; i++ {
		att := attach(1)
		if err := c.Detach(att.ID); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	// Mixed sizes with several attachments live fragment the table; every
	// live range must stay disjoint.
	rng := rand.New(rand.NewSource(1))
	var live []*Attachment
	for i := 0; i < 1000; i++ {
		if len(live) == 8 {
			j := rng.Intn(len(live))
			if err := c.Detach(live[j].ID); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		}
		live = append(live, attach(1+rng.Int63n(16)))
		for x, a := range live {
			for _, b := range live[x+1:] {
				if a.DeviceBase < b.DeviceBase+uint64(b.Bytes) && b.DeviceBase < a.DeviceBase+uint64(a.Bytes) {
					t.Fatalf("step %d: %s [%#x,+%d) overlaps %s [%#x,+%d)", i,
						a.ID, a.DeviceBase, a.Bytes, b.ID, b.DeviceBase, b.Bytes)
				}
			}
		}
	}
}
