package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"thymesisflow/internal/sim"
	"thymesisflow/internal/trace"
)

// The cross-shard determinism property: a seeded scenario must produce a
// byte-identical state digest and merged trace at ANY shard count,
// regardless of GOMAXPROCS — sharded == sequential, event for event. The
// scenario builds a random topology from the seed, drives seeded Load/Store
// flows from every compute host, optionally injects phy faults (exercising
// cross-shard replay), and optionally detaches an attachment mid-run.

type detTopology struct {
	name       string
	hosts      int
	attaches   int
	workers    int // per attachment
	ops        int // per worker
	corruptPct float64
	dropPct    float64
	detachMid  bool
	// ring attaches host i to donor i+1, so that no donor serves two
	// attachments: a cross-shard attachment gets a private C1 pipe
	// (docs/PARALLEL_SIM.md), so shared donors would make the shard counts
	// contend differently under dense traffic.
	ring bool
}

var detTopologies = []detTopology{
	{name: "clean-4h", hosts: 4, attaches: 6, workers: 2, ops: 10},
	{name: "faulty-5h", hosts: 5, attaches: 7, workers: 2, ops: 8,
		corruptPct: 0.03, dropPct: 0.02, detachMid: true},
	// Dense enough that most windows go to the shard runners.
	{name: "dense-4h", hosts: 4, attaches: 4, workers: 64, ops: 4, ring: true},
}

func detHostConfig(name string) HostConfig {
	cfg := DefaultHostConfig(name)
	cfg.Sockets = 1
	cfg.CoresPerSocket = 4
	cfg.DRAMPerSocket = 256 << 20
	cfg.SectionSize = 1 << 20 // keep attach rounding (and donor footprint) small
	cfg.RMMUSections = 64
	return cfg
}

// runDetScenario executes one seeded scenario on the given shard count and
// returns the canonical digest.
func runDetScenario(t *testing.T, topo detTopology, seed int64, shards int) string {
	t.Helper()
	c := NewClusterShards(shards)
	c.Faults.Seed = seed
	c.Faults.CorruptProb = topo.corruptPct
	c.Faults.DropProb = topo.dropPct

	// One trace ring per kernel; LayerSim events are excluded from the
	// merge (queue depth is per-kernel by construction).
	kernels := c.Kernels()
	rings := make([]*trace.Ring, len(kernels))
	for i, k := range kernels {
		rings[i] = trace.NewRing(1 << 18)
		k.SetTracer(rings[i])
	}

	hosts := make([]*Host, topo.hosts)
	for i := range hosts {
		h, err := c.AddHost(detHostConfig(fmt.Sprintf("h%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
	}

	// Topology and flow schedules come from a setup-time PRNG, so they are
	// identical for every shard count.
	rng := rand.New(rand.NewSource(seed))
	type flow struct {
		att    *Attachment
		host   *Host
		sleeps []sim.Time
		isLoad []bool
		offs   []int64
	}
	var flows []flow
	atts := make([]*Attachment, 0, topo.attaches)
	for a := 0; a < topo.attaches; a++ {
		ci := rng.Intn(topo.hosts)
		di := (ci + 1 + rng.Intn(topo.hosts-1)) % topo.hosts
		if topo.ring {
			ci, di = a%topo.hosts, (a+1)%topo.hosts
		}
		att, err := c.Attach(AttachSpec{
			ComputeHost: hosts[ci].Name,
			DonorHost:   hosts[di].Name,
			Bytes:       1 << 20,
			Channels:    1 + rng.Intn(2),
			Backing:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		atts = append(atts, att)
		for w := 0; w < topo.workers; w++ {
			f := flow{att: att, host: hosts[ci]}
			for o := 0; o < topo.ops; o++ {
				f.sleeps = append(f.sleeps, sim.Time(rng.Intn(2000))*sim.Nanosecond)
				f.isLoad = append(f.isLoad, rng.Intn(2) == 0)
				f.offs = append(f.offs, int64(rng.Intn(1<<12))*128)
			}
			flows = append(flows, f)
		}
	}

	for i, f := range flows {
		f := f
		f.host.K.Go(fmt.Sprintf("det-w%d", i), func(p *sim.Proc) {
			buf := []byte{byte(i), byte(i >> 8), 3, 5, 7, 11, 13, 17}
			for o := range f.sleeps {
				p.Sleep(f.sleeps[o])
				if f.att.State() != StateActive {
					return
				}
				var err error
				if f.isLoad[o] {
					_, err = c.Load(p, f.att, f.offs[o], 64)
				} else {
					err = c.Store(p, f.att, f.offs[o], buf)
				}
				if err != nil && f.att.State() == StateActive {
					p.Kernel().Stop()
					return
				}
			}
		})
	}

	if topo.detachMid {
		// Detach the first attachment mid-run, driven from its compute
		// host's shard (the lifecycle invariant: one shard drives
		// cluster-level mutations at a time).
		victim := atts[0]
		ch := c.hosts[victim.ComputeHost]
		ch.K.Schedule(30*sim.Microsecond, func() {
			_ = c.BeginDetach(victim.ID, false, nil)
		})
	}

	c.Run()

	var b strings.Builder
	c.StateDigest(&b)
	writeMergedTrace(&b, rings)
	return b.String()
}

// writeMergedTrace merges per-kernel trace rings into one canonical stream:
// LayerSim events are dropped (dispatch spans and queue depths are
// per-kernel bookkeeping), the rest sort by every payload field. Ring
// sequence numbers are ignored — they depend on the shard layout.
func writeMergedTrace(b *strings.Builder, rings []*trace.Ring) {
	var evs []trace.Event
	for _, r := range rings {
		for _, e := range r.Snapshot() {
			if e.Layer == trace.LayerSim {
				continue
			}
			evs = append(evs, e)
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		a, c := evs[i], evs[j]
		if a.TS != c.TS {
			return a.TS < c.TS
		}
		if a.Layer != c.Layer {
			return a.Layer < c.Layer
		}
		if a.Name != c.Name {
			return a.Name < c.Name
		}
		if a.Ph != c.Ph {
			return a.Ph < c.Ph
		}
		if a.Dur != c.Dur {
			return a.Dur < c.Dur
		}
		return a.Value < c.Value
	})
	fmt.Fprintf(b, "trace %d events\n", len(evs))
	for _, e := range evs {
		fmt.Fprintf(b, "%d %s %s %c %d %g\n", e.TS, e.Layer, e.Name, e.Ph, e.Dur, e.Value)
	}
}

// TestShardedDeterminism compares every sharded run with the sequential
// one at GOMAXPROCS 1, 2 and 4: one runner runs every window inline; two
// runners pin 3 or more shards between them; four start more runners than
// a 2-core host has cores. Every run must also leave no runner behind.
func TestShardedDeterminism(t *testing.T) {
	seeds := []int64{1, 42, 977, 31337}
	for _, topo := range detTopologies {
		for _, seed := range seeds {
			topo, seed := topo, seed
			t.Run(fmt.Sprintf("%s/seed%d", topo.name, seed), func(t *testing.T) {
				want := runDetScenario(t, topo, seed, 1)
				if !strings.Contains(want, " capi read_req X ") && !strings.Contains(want, " capi write_req X ") {
					t.Fatalf("scenario produced no traffic:\n%s", firstLines(want, 10))
				}
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
				for _, procs := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(procs)
					for _, shards := range []int{2, 3, topo.hosts} {
						before := runtime.NumGoroutine()
						got := runDetScenario(t, topo, seed, shards)
						if got != want {
							t.Fatalf("digest at %d shards, GOMAXPROCS %d diverges from sequential\n%s",
								shards, procs, digestDiff(want, got))
						}
						checkNoGoroutineLeft(t, before)
					}
				}
			})
		}
	}
}

// checkNoGoroutineLeft fails t if more goroutines run than before a run
// that has returned. A runner that has signalled its exit may still be
// unwinding, so the count gets a second to settle.
func checkNoGoroutineLeft(t *testing.T, before int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for i := 0; n > before && i < 1000; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Fatalf("%d goroutines still running after the run returned, %d before it", n, before)
	}
}

// TestShardedDeterminismRepeated re-runs one sharded scenario several times
// in-process: the merge must not depend on goroutine scheduling.
func TestShardedDeterminismRepeated(t *testing.T) {
	topo := detTopologies[0]
	base := runDetScenario(t, topo, 7, 3)
	for i := 0; i < 3; i++ {
		if got := runDetScenario(t, topo, 7, 3); got != base {
			t.Fatalf("run %d diverged from first sharded run\n%s", i, digestDiff(base, got))
		}
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// digestDiff renders the first few differing lines of two digests.
func digestDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  sequential: %s\n  sharded:    %s\n", i+1, w, g)
		if shown++; shown >= 8 {
			fmt.Fprintf(&b, "  ... (further differences suppressed)\n")
			break
		}
	}
	return b.String()
}
