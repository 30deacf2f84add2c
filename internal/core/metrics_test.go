package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"thymesisflow/internal/metrics"
	"thymesisflow/internal/sim"
)

// instrumentedPair builds a cluster with a compute host m00 and a donor
// host m01 (one per shard when sharded).
func instrumentedPair(t *testing.T, shards int) *Cluster {
	t.Helper()
	c := NewClusterShards(shards)
	for _, name := range []string{"m00", "m01"} {
		if _, err := c.AddHost(detHostConfig(name)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func attachPair(t *testing.T, c *Cluster, channels int) *Attachment {
	t.Helper()
	att, err := c.Attach(AttachSpec{
		ComputeHost: "m00", DonorHost: "m01", Bytes: 1 << 20, Channels: channels, Backing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return att
}

// driveSeeded runs ops seeded loads and stores against att from its compute
// host and runs the cluster until it drains.
func driveSeeded(t *testing.T, c *Cluster, att *Attachment, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var opErr error
	c.hosts[att.ComputeHost].K.Go("metrics-w", func(p *sim.Proc) {
		buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		for o := 0; o < ops; o++ {
			p.Sleep(sim.Time(rng.Intn(500)) * sim.Nanosecond)
			off := int64(rng.Intn(1<<10)) * 128
			var err error
			if rng.Intn(2) == 0 {
				_, err = c.Load(p, att, off, 64)
			} else {
				err = c.Store(p, att, off, buf)
			}
			if err != nil {
				opErr = err
				return
			}
		}
	})
	c.Run()
	if opErr != nil {
		t.Fatal(opErr)
	}
}

// TestQueueDepthSumsShards: sim.queue_depth counts the pending events of
// every shard kernel, not only shard 0's.
func TestQueueDepthSumsShards(t *testing.T) {
	c := instrumentedPair(t, 2)
	kernels := c.Kernels()
	for i := 0; i < 3; i++ {
		kernels[1].Schedule(sim.Microsecond, func() {})
	}
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg, "")
	want := 0
	for _, k := range kernels {
		want += k.Pending()
	}
	if want <= kernels[0].Pending() {
		t.Fatalf("setup: shard 1 holds no pending events (total %d)", want)
	}
	if got := reg.Snapshot().Gauges["sim.queue_depth"]; got != float64(want) {
		t.Fatalf("sim.queue_depth = %v, want %d (sum over shards)", got, want)
	}
}

// TestInstrumentNamingParity: the metrics registry and the flight recorder
// bind the same instrument tables, so on a sharded cluster with a bonded
// attachment they carry the same names and kinds, and after the final
// sample every registry value equals its last recorded point. Across
// several scrapes the port counters track the port cumulatively.
func TestInstrumentNamingParity(t *testing.T) {
	c := instrumentedPair(t, 2)
	c.Faults.Seed = 11
	c.Faults.DropProb = 1e-3
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg, "")
	rec := c.EnableFlightRecorder(FlightOptions{})
	att := attachPair(t, c, 2)

	port := att.computePorts[0]
	var snap metrics.Snapshot
	var prev int64
	for phase := int64(0); phase < 3; phase++ {
		driveSeeded(t, c, att, 100+phase, 60)
		snap = reg.Snapshot()
		got := snap.Counters["llc.att-0.p0.tx_transactions"]
		if got != port.Stats().TxTransactions {
			t.Fatalf("scrape %d: tx_transactions = %d, want %d", phase, got, port.Stats().TxTransactions)
		}
		if got <= prev {
			t.Fatalf("scrape %d: tx_transactions %d did not advance past %d", phase, got, prev)
		}
		prev = got
		if g := snap.Gauges["llc.att-0.p0.credits"]; g != float64(port.Credits()) {
			t.Fatalf("scrape %d: credits = %v, want %d", phase, g, port.Credits())
		}
	}

	kinds := map[string]string{}
	for name := range snap.Counters {
		kinds[name] = "counter"
	}
	for name := range snap.Gauges {
		kinds[name] = "gauge"
	}
	series := rec.Snapshot().Series
	var onlyRec []string
	for _, ss := range series {
		kind, ok := kinds[ss.Name]
		if !ok {
			onlyRec = append(onlyRec, ss.Name)
			continue
		}
		delete(kinds, ss.Name)
		if kind != ss.Kind {
			t.Errorf("%s: registry %s, recorder %s", ss.Name, kind, ss.Kind)
		}
		last := ss.Points[len(ss.Points)-1].V
		reg := snap.Gauges[ss.Name]
		if kind == "counter" {
			reg = float64(snap.Counters[ss.Name])
		}
		if reg != last {
			t.Errorf("%s: registry %v, last recorded point %v", ss.Name, reg, last)
		}
	}
	onlyReg := make([]string, 0, len(kinds))
	for name := range kinds {
		onlyReg = append(onlyReg, name)
	}
	sort.Strings(onlyReg)
	if len(onlyRec) > 0 || len(onlyReg) > 0 {
		t.Fatalf("name sets differ:\nrecorder only: %v\nregistry only: %v", onlyRec, onlyReg)
	}
	for _, want := range []string{
		"llc.att-0.p1.credit_stalls", "llc.att-0.q1.link_down_events", "phy.att-0.c1.rev.bytes",
		"backend.att-0.bytes", "capi.m00.outstanding", "shard.1.barrier_stall_ns", "sim.queue_depth",
	} {
		if _, ok := snap.Counters[want]; !ok {
			if _, ok := snap.Gauges[want]; !ok {
				t.Errorf("catalogue lacks %s", want)
			}
		}
	}
}

// TestDetachedAttachmentMetrics: after Detach an attachment's Prometheus
// counters keep their final values, and the next attachment (a new att-N)
// starts from zero.
func TestDetachedAttachmentMetrics(t *testing.T) {
	c := instrumentedPair(t, 1)
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg, "")
	att := attachPair(t, c, 1)
	driveSeeded(t, c, att, 1, 40)
	before := reg.Snapshot()
	const tx = "llc.att-0.p0.tx_transactions"
	if before.Counters[tx] == 0 {
		t.Fatal("no traffic reached the registry")
	}
	if err := c.Detach(att.ID); err != nil {
		t.Fatal(err)
	}
	c.Run()
	next := attachPair(t, c, 1)
	if next.ID != "att-1" {
		t.Fatalf("next attachment is %s, want att-1", next.ID)
	}
	after := reg.Snapshot()

	var kept int
	for name, v := range before.Counters {
		if !strings.Contains(name, ".att-0.") {
			continue
		}
		kept++
		if after.Counters[name] != v {
			t.Errorf("%s = %d after detach, want final %d", name, after.Counters[name], v)
		}
	}
	if kept == 0 {
		t.Fatal("no att-0 counters registered")
	}
	var fresh int
	for name, v := range after.Counters {
		if strings.Contains(name, ".att-1.") {
			fresh++
			if v != 0 {
				t.Errorf("%s = %d before any traffic, want 0", name, v)
			}
		}
	}
	if fresh != kept {
		t.Fatalf("att-1 has %d counters, att-0 had %d", fresh, kept)
	}

	var buf bytes.Buffer
	if err := after.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		fmt.Sprintf("llc_att_0_p0_tx_transactions %d\n", before.Counters[tx]),
		"llc_att_1_p0_tx_transactions 0\n",
	} {
		if !strings.Contains(buf.String(), line) {
			t.Fatalf("exposition missing %q", line)
		}
	}
}

// TestFlightSampleAllocs: one recorder sample of a sharded cluster — every
// table read, shard health included — allocates nothing.
func TestFlightSampleAllocs(t *testing.T) {
	c := instrumentedPair(t, 2)
	c.EnableFlightRecorder(FlightOptions{})
	att := attachPair(t, c, 2)
	driveSeeded(t, c, att, 3, 20)
	ts := int64(c.K.Now())
	if n := testing.AllocsPerRun(20, func() {
		ts++
		c.flight.sampleAll(ts)
	}); n != 0 {
		t.Fatalf("sampleAll allocated %.1f times per sample", n)
	}
}
