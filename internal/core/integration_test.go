package core

import (
	"testing"

	"thymesisflow/internal/mem"
	"thymesisflow/internal/numa"
	"thymesisflow/internal/phy"
	"thymesisflow/internal/sim"
)

// TestMultiDonorPooling attaches memory from two donors to one compute
// host and interleaves an allocation across both — the rack-scale pooling
// the paper motivates.
func TestMultiDonorPooling(t *testing.T) {
	c := NewCluster()
	if _, err := c.AddHost(smallHostConfig("compute")); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"donorA", "donorB"} {
		if _, err := c.AddHost(smallHostConfig(d)); err != nil {
			t.Fatal(err)
		}
	}
	attA, err := c.Attach(AttachSpec{ComputeHost: "compute", DonorHost: "donorA", Bytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	attB, err := c.Attach(AttachSpec{ComputeHost: "compute", DonorHost: "donorB", Bytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if attA.NetworkID == attB.NetworkID {
		t.Fatal("attachments share a network ID")
	}
	host, _ := c.Host("compute")
	buf, err := host.Mem.Alloc(2<<20, numa.Interleave(attA.Node, attB.Node))
	if err != nil {
		t.Fatal(err)
	}
	if host.Mem.Node(attA.Node).Used == 0 || host.Mem.Node(attB.Node).Used == 0 {
		t.Fatal("interleave did not spread pages over both donors")
	}
	// Accesses route to the right donor backends.
	k := c.K
	k.Go("probe", func(p *sim.Proc) {
		th := host.NewThread(0)
		th.Access(p, buf.Addr(0), 8, false)
		th.Access(p, buf.Addr(host.Mem.PageSize), 8, false)
	})
	k.Run()
	if attA.Backend.Channels()[0].TotalBytes() == 0 {
		t.Fatal("donor A backend saw no traffic")
	}
	if attB.Backend.Channels()[0].TotalBytes() == 0 {
		t.Fatal("donor B backend saw no traffic")
	}
	// Detach both in reverse order.
	if err := c.Detach(attB.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Detach(attA.ID); err != nil {
		t.Fatal(err)
	}
}

// TestDonorServesTwoHosts shares one donor's memory between two compute
// hosts: two stolen regions, two flows, one shared C1 interface.
func TestDonorServesTwoHosts(t *testing.T) {
	c := NewCluster()
	for _, n := range []string{"computeA", "computeB", "donor"} {
		if _, err := c.AddHost(smallHostConfig(n)); err != nil {
			t.Fatal(err)
		}
	}
	attA, err := c.Attach(AttachSpec{ComputeHost: "computeA", DonorHost: "donor", Bytes: 2 << 20, Backing: true})
	if err != nil {
		t.Fatal(err)
	}
	attB, err := c.Attach(AttachSpec{ComputeHost: "computeB", DonorHost: "donor", Bytes: 2 << 20, Backing: true})
	if err != nil {
		t.Fatal(err)
	}
	donor, _ := c.Host("donor")
	if got := len(donor.Memory.Regions()); got != 2 {
		t.Fatalf("donor regions = %d, want 2", got)
	}
	// The two compute hosts write different data to their own regions;
	// isolation must hold.
	k := c.K
	k.Go("appA", func(p *sim.Proc) {
		c.Store(p, attA, 0, fill(128, 0xAA)) //nolint:errcheck
	})
	k.Go("appB", func(p *sim.Proc) {
		c.Store(p, attB, 0, fill(128, 0xBB)) //nolint:errcheck
	})
	k.RunUntil(sim.Millisecond)
	var gotA, gotB []byte
	k.Go("verify", func(p *sim.Proc) {
		gotA, _ = c.Load(p, attA, 0, 128)
		gotB, _ = c.Load(p, attB, 0, 128)
	})
	k.RunUntil(2 * sim.Millisecond)
	if gotA[0] != 0xAA || gotB[0] != 0xBB {
		t.Fatalf("cross-host isolation violated: A=%x B=%x", gotA[0], gotB[0])
	}
	// Both attachments share the donor's C1 pipe.
	if attA.Backend.StreamBandwidth() != attB.Backend.StreamBandwidth() {
		t.Fatal("backends disagree on the shared C1 ceiling")
	}
}

func fill(n int, b byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// TestHBMAttachSpec wires the Section VII HBM cache through the public
// attach path and observes re-access latency dropping.
func TestHBMAttachSpec(t *testing.T) {
	c := NewCluster()
	for _, n := range []string{"compute", "donor"} {
		if _, err := c.AddHost(smallHostConfig(n)); err != nil {
			t.Fatal(err)
		}
	}
	att, err := c.Attach(AttachSpec{
		ComputeHost: "compute", DonorHost: "donor",
		Bytes: 4 << 20, HBMCacheBytes: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := att.Backend.AccessAt(0x0, mem.CachelineSize, false)
	warm := att.Backend.AccessAt(0x0, mem.CachelineSize, false)
	if warm*3 > cold {
		t.Fatalf("HBM cache ineffective through AttachSpec: cold=%v warm=%v", cold, warm)
	}
}

// TestClusterWorkloadOverLossyLinks runs real loads/stores through a
// cluster whose links drop and corrupt frames: the LLC replay protocol
// must make the datapath lossless.
func TestClusterWorkloadOverLossyLinks(t *testing.T) {
	c := NewCluster()
	c.Faults = phy.FaultConfig{DropProb: 0.02, CorruptProb: 0.02, Seed: 5}
	for _, n := range []string{"compute", "donor"} {
		if _, err := c.AddHost(smallHostConfig(n)); err != nil {
			t.Fatal(err)
		}
	}
	att, err := c.Attach(AttachSpec{
		ComputeHost: "compute", DonorHost: "donor", Bytes: 2 << 20, Channels: 2, Backing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	c.K.Go("app", func(p *sim.Proc) {
		for i := 0; i < 60; i++ {
			data := fill(128, byte(i))
			if err := c.Store(p, att, int64(i)*128, data); err != nil {
				t.Error(err)
				return
			}
			got, err := c.Load(p, att, int64(i)*128, 128)
			if err != nil {
				t.Error(err)
				return
			}
			if got[0] != byte(i) {
				t.Errorf("iteration %d: data corrupted", i)
				return
			}
			completed++
		}
	})
	c.K.RunUntil(sim.Second)
	if completed != 60 {
		t.Fatalf("only %d/60 operations completed over lossy links", completed)
	}
}

// TestAttachManySections exercises a larger attachment (many RMMU sections
// and hotplug operations in one shot).
func TestAttachManySections(t *testing.T) {
	c := NewCluster()
	cfg := smallHostConfig("compute")
	cfg.RMMUSections = 128
	if _, err := c.AddHost(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddHost(smallHostConfig("donor")); err != nil {
		t.Fatal(err)
	}
	att, err := c.Attach(AttachSpec{ComputeHost: "compute", DonorHost: "donor", Bytes: 100 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(att.Sections) != 100 {
		t.Fatalf("sections = %d, want 100", len(att.Sections))
	}
	host, _ := c.Host("compute")
	if got := host.Hotplug.OnlineBytes(); got != 100<<20 {
		t.Fatalf("online bytes = %d", got)
	}
	if got := len(host.Compute.RMMU().MappedSections()); got != 100 {
		t.Fatalf("mapped sections = %d", got)
	}
	if err := c.Detach(att.ID); err != nil {
		t.Fatal(err)
	}
	if got := len(host.Compute.RMMU().MappedSections()); got != 0 {
		t.Fatalf("sections leaked after detach: %d", got)
	}
}
