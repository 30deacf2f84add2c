package shard

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"thymesisflow/internal/sim"
)

const hop = 50 * sim.Nanosecond

// call is the delivery handler of conduits that carry callbacks.
func call(fn func()) { fn() }

// pingPongSequential runs the reference version of the cross-shard ping-pong
// on one shared kernel: two actors exchange `rounds` messages with a fixed
// hop delay, each logging (time, actor, payload) at delivery.
func pingPongSequential(rounds int) []string {
	k := sim.NewKernel()
	var log []string
	var send func(to int, round int)
	recv := func(actor, round int) {
		log = append(log, fmt.Sprintf("%v actor%d round%d", k.Now(), actor, round))
		if round < rounds {
			send(1-actor, round+1)
		}
	}
	send = func(to, round int) {
		k.ScheduleAt(k.Now()+hop, func() { recv(to, round) })
	}
	k.Schedule(0, func() { send(1, 1) })
	k.Run()
	return log
}

// pingPongSharded runs the same exchange with each actor on its own shard,
// messages crossing on conduits.
func pingPongSharded(rounds int) []string {
	g := NewGroup(2, hop)
	a, b := g.Shard(0), g.Shard(1)
	ab := Connect(g, a, b, hop, call)
	ba := Connect(g, b, a, hop, call)
	ks := []*sim.Kernel{a.Kernel(), b.Kernel()}
	outbound := []*Conduit[func()]{ab, ba}
	var log []string
	var send func(to, round int)
	recv := func(actor, round int) {
		log = append(log, fmt.Sprintf("%v actor%d round%d", ks[actor].Now(), actor, round))
		if round < rounds {
			send(1-actor, round+1)
		}
	}
	send = func(to, round int) {
		from := 1 - to
		outbound[from].Send(ks[from].Now()+hop, func() { recv(to, round) })
	}
	ks[0].Schedule(0, func() { send(1, 1) })
	g.Run()
	return log
}

func TestCrossShardMatchesSequential(t *testing.T) {
	want := pingPongSequential(64)
	got := pingPongSharded(64)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded log diverges\n got: %v\nwant: %v", got, want)
	}
}

// TestInjectedOrdering checks the core interleaving property: a delivery
// injected with its remote transmit time sorts among same-instant local
// events exactly where a shared kernel would have placed it.
func TestInjectedOrdering(t *testing.T) {
	seq := func() []string {
		k := sim.NewKernel()
		var log []string
		// Remote transmit at t=0 for delivery at t=100ns...
		k.ScheduleAt(100*sim.Nanosecond, func() { log = append(log, "remote") })
		// ...and a local event at 60ns that schedules for the same instant.
		k.ScheduleAt(60*sim.Nanosecond, func() {
			k.ScheduleAt(100*sim.Nanosecond, func() { log = append(log, "local") })
		})
		k.Run()
		return log
	}()
	shd := func() []string {
		g := NewGroup(2, hop)
		c := Connect(g, g.Shard(1), g.Shard(0), hop, call)
		k := g.Shard(0).Kernel()
		var log []string
		// Same remote transmit, staged from shard 1 at its t=0.
		g.Shard(1).Kernel().Schedule(0, func() {
			c.Send(100*sim.Nanosecond, func() { log = append(log, "remote") })
		})
		k.ScheduleAt(60*sim.Nanosecond, func() {
			k.ScheduleAt(100*sim.Nanosecond, func() { log = append(log, "local") })
		})
		g.Run()
		return log
	}()
	if !reflect.DeepEqual(seq, shd) {
		t.Fatalf("interleaving diverges: sequential %v, sharded %v", seq, shd)
	}
	if want := []string{"remote", "local"}; !reflect.DeepEqual(seq, want) {
		t.Fatalf("sequential reference order = %v, want %v", seq, want)
	}
}

func TestConduitLookaheadViolationPanics(t *testing.T) {
	g := NewGroup(2, hop)
	c := Connect(g, g.Shard(0), g.Shard(1), hop, call)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below the lookahead did not panic")
		}
	}()
	c.Send(hop/2, func() {})
}

func TestConnectBelowLookaheadPanics(t *testing.T) {
	g := NewGroup(2, hop)
	defer func() {
		if recover() == nil {
			t.Fatal("Connect below the group lookahead did not panic")
		}
	}()
	Connect(g, g.Shard(0), g.Shard(1), hop-1, call)
}

func TestRunUntilParksClocks(t *testing.T) {
	g := NewGroup(2, hop)
	fired := false
	g.Shard(0).Kernel().ScheduleAt(10*sim.Microsecond, func() { fired = true })
	end := g.RunUntil(sim.Microsecond)
	if fired {
		t.Fatal("event beyond the limit fired")
	}
	if end != sim.Microsecond {
		t.Fatalf("end = %v, want %v", end, sim.Microsecond)
	}
	for i := 0; i < g.Len(); i++ {
		if now := g.Shard(i).Kernel().Now(); now != sim.Microsecond {
			t.Fatalf("shard %d clock = %v, want parked at %v", i, now, sim.Microsecond)
		}
	}
	g.RunUntil(20 * sim.Microsecond)
	if !fired {
		t.Fatal("event not fired after second RunUntil")
	}
}

// TestScheduledConservation: one cross-shard delivery costs one scheduled
// event on the destination, so the group-wide total matches the sequential
// run's count.
func TestScheduledConservation(t *testing.T) {
	const rounds = 32
	g := NewGroup(2, hop)
	a, b := g.Shard(0), g.Shard(1)
	ab, ba := Connect(g, a, b, hop, call), Connect(g, b, a, hop, call)
	ks := []*sim.Kernel{a.Kernel(), b.Kernel()}
	outbound := []*Conduit[func()]{ab, ba}
	var send func(to, round int)
	recv := func(actor, round int) {
		if round < rounds {
			send(1-actor, round+1)
		}
	}
	send = func(to, round int) {
		from := 1 - to
		outbound[from].Send(ks[from].Now()+hop, func() { recv(to, round) })
	}
	ks[0].Schedule(0, func() { send(1, 1) })
	g.Run()
	total := ks[0].Scheduled() + ks[1].Scheduled()
	if want := uint64(rounds + 1); total != want {
		t.Fatalf("scheduled %d events across shards, want %d", total, want)
	}
}

// TestHealthCounters drives the ping-pong and checks the runtime health
// snapshot: windows/events accounting, barrier stall attribution, and flush
// depth all add up.
func TestHealthCounters(t *testing.T) {
	const rounds = 64
	g := NewGroup(2, hop)
	a, b := g.Shard(0), g.Shard(1)
	ab, ba := Connect(g, a, b, hop, call), Connect(g, b, a, hop, call)
	ks := []*sim.Kernel{a.Kernel(), b.Kernel()}
	outbound := []*Conduit[func()]{ab, ba}
	var send func(to, round int)
	recv := func(actor, round int) {
		if round < rounds {
			send(1-actor, round+1)
		}
	}
	send = func(to, round int) {
		from := 1 - to
		outbound[from].Send(ks[from].Now()+hop, func() { recv(to, round) })
	}
	ks[0].Schedule(0, func() { send(1, 1) })
	g.Run()

	h := g.Health()
	if h.Windows == 0 {
		t.Fatal("no windows recorded")
	}
	var events uint64
	for i, st := range h.Shards {
		if st.Shard != i {
			t.Fatalf("shard index %d at position %d", st.Shard, i)
		}
		events += st.Events
	}
	// The ping-pong fires one kickoff plus one delivery per round, and each
	// shard executed its own half.
	if want := uint64(rounds + 1); events != want {
		t.Fatalf("events across shards = %d, want %d", events, want)
	}
	if h.Flushed != rounds {
		t.Fatalf("flushed = %d, want %d cross-shard messages", h.Flushed, rounds)
	}
	if h.MaxFlushDepth < 1 {
		t.Fatalf("max flush depth = %d, want >= 1", h.MaxFlushDepth)
	}
	// The exchange is strictly alternating: while one shard runs a window the
	// other waits, so both accumulate barrier stall.
	for _, st := range h.Shards {
		if st.StallPS <= 0 {
			t.Fatalf("shard %d recorded no barrier stall: %+v", st.Shard, h.Shards)
		}
	}
	if h.EventsPerWindow <= 0 {
		t.Fatalf("events per window = %v", h.EventsPerWindow)
	}
	// A symmetric ping-pong splits work evenly (the kickoff event gives shard
	// 0 at most one extra event).
	if h.Imbalance < 1 || h.Imbalance > 1.1 {
		t.Fatalf("imbalance = %v, want ~1.0", h.Imbalance)
	}
}

// TestHealthDeterministic runs the same seeded workload twice and requires
// byte-identical health snapshots: the counters must derive from virtual
// time only, never host scheduling.
func TestHealthDeterministic(t *testing.T) {
	run := func() Health {
		g := NewGroup(2, hop)
		a, b := g.Shard(0), g.Shard(1)
		ab, ba := Connect(g, a, b, hop, call), Connect(g, b, a, hop, call)
		ks := []*sim.Kernel{a.Kernel(), b.Kernel()}
		outbound := []*Conduit[func()]{ab, ba}
		var send func(to, round int)
		recv := func(actor, round int) {
			if round < 128 {
				send(1-actor, round+1)
			}
		}
		send = func(to, round int) {
			from := 1 - to
			outbound[from].Send(ks[from].Now()+hop, func() { recv(to, round) })
		}
		ks[0].Schedule(0, func() { send(1, 1) })
		g.Run()
		return g.Health()
	}
	h1, h2 := run(), run()
	if !reflect.DeepEqual(h1, h2) {
		t.Fatalf("health diverges across identical runs:\n1: %+v\n2: %+v", h1, h2)
	}
}

// ringModel runs a ring of chains: on each of n nodes, `chains` local
// chains fire every 1-5 ns, and every eighth firing mails a message to the
// next node, which logs it on arrival. A chain is a self-rescheduling event,
// or with procs a process that sleeps between firings. send(from, at, fn)
// carries a message from node `from`. The local delays never equal the hop
// and each node hears from one neighbour only, so no delivery ties a local
// event or another node's delivery on (time, send time): a sharded run must
// log exactly what one shared kernel logs. It returns each node's log.
func ringModel(ks []*sim.Kernel, send func(from int, at sim.Time, fn func()), chains, fires int, procs bool) [][]string {
	n := len(ks)
	logs := make([][]string, n)
	for s := 0; s < n; s++ {
		k := ks[s]
		for c := 0; c < chains; c++ {
			// fire logs firing number `fired` and returns the delay to the
			// next one.
			fire := func(fired int) sim.Time {
				logs[s] = append(logs[s], fmt.Sprintf("%v c%d #%d", k.Now(), c, fired))
				if fired%8 == 0 {
					msg := fmt.Sprintf("from%d c%d #%d", s, c, fired)
					dst := (s + 1) % n
					send(s, k.Now()+hop, func() {
						logs[dst] = append(logs[dst], fmt.Sprintf("%v %s", ks[dst].Now(), msg))
					})
				}
				return sim.Time(1+(fired*7+c)%5) * sim.Nanosecond
			}
			first := sim.Time(c%3) * sim.Nanosecond
			if procs {
				k.Go(fmt.Sprintf("n%d.c%d", s, c), func(p *sim.Proc) {
					p.Sleep(first)
					for fired := 1; fired <= fires; fired++ {
						if d := fire(fired); fired < fires {
							p.Sleep(d)
						}
					}
				})
				continue
			}
			fired := 0
			var step func()
			step = func() {
				fired++
				if d := fire(fired); fired < fires {
					k.Schedule(d, step)
				}
			}
			k.Schedule(first, step)
		}
	}
	return logs
}

// TestDenseWindowsMatchSequential runs windows of a few hundred events, so
// that they go to the runners, at GOMAXPROCS 1, 2 and 4 and 2 to 4 shards:
// the inline path, more shards than runners, and more runners than a
// 2-core host has cores. The chains are events, then processes whose
// coroutines the test goroutine creates and the runners resume. Every run
// must log what one shared kernel logs, and no runner may outlive RunUntil.
func TestDenseWindowsMatchSequential(t *testing.T) {
	const chains, fires = 12, 300
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []bool{false, true} {
		for _, shards := range []int{2, 3, 4} {
			k := sim.NewKernel()
			ks := make([]*sim.Kernel, shards)
			for i := range ks {
				ks[i] = k
			}
			want := ringModel(ks, func(_ int, at sim.Time, fn func()) { k.ScheduleAt(at, fn) }, chains, fires, procs)
			k.Run()
			for _, maxprocs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(maxprocs)
				g := NewGroup(shards, hop)
				conduits := make([]*Conduit[func()], shards)
				for s := range ks {
					ks[s] = g.Shard(s).Kernel()
					conduits[s] = Connect(g, g.Shard(s), g.Shard((s+1)%shards), hop, call)
				}
				got := ringModel(ks, func(from int, at sim.Time, fn func()) { conduits[from].Send(at, fn) }, chains, fires, procs)
				before := runtime.NumGoroutine()
				g.Run()
				where := fmt.Sprintf("procs %v, %d shards, GOMAXPROCS %d", procs, shards, maxprocs)
				for s := range got {
					if !reflect.DeepEqual(got[s], want[s]) {
						t.Fatalf("%s: node %d's log diverges from the shared kernel's", where, s)
					}
				}
				if maxprocs > 1 && g.epoch == 0 {
					t.Errorf("%s: no window went to the runners", where)
				}
				// A runner that has signalled its exit may still be
				// unwinding: give the count a second to settle.
				n := runtime.NumGoroutine()
				for i := 0; n > before && i < 1000; i++ {
					time.Sleep(time.Millisecond)
					n = runtime.NumGoroutine()
				}
				if n > before {
					t.Errorf("%s: %d goroutines after RunUntil, %d before", where, n, before)
				}
			}
		}
	}
}

// padded is a counter alone on its cache line, so that shards running in
// parallel never write the same line.
type padded struct {
	n int
	_ [56]byte
}

// BenchmarkGroupWindows measures window stepping with dense cross-shard
// traffic: each shard runs a self-rescheduling local chain while handing
// messages to its neighbour every eighth event.
func BenchmarkGroupWindows(b *testing.B) {
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) { benchGroupWindows(b, shards) })
	}
}

func benchGroupWindows(b *testing.B, shards int) {
	const events = 100_000
	b.ReportAllocs()
	var windows uint64
	for i := 0; i < b.N; i++ {
		g := NewGroup(shards, hop)
		conduits := make([]*Conduit[func()], g.Len())
		for s := 0; s < g.Len(); s++ {
			conduits[s] = Connect(g, g.Shard(s), g.Shard((s+1)%g.Len()), hop, call)
		}
		// Per-shard counters: shards execute concurrently inside a window.
		fired := make([]padded, g.Len())
		perShard := events / g.Len()
		for s := 0; s < g.Len(); s++ {
			s := s
			k := g.Shard(s).Kernel()
			next := g.Shard((s + 1) % g.Len()).Kernel()
			var step func()
			step = func() {
				fired[s].n++
				if fired[s].n >= perShard {
					return
				}
				if fired[s].n%8 == 0 {
					conduits[s].Send(k.Now()+hop, func() { next.Schedule(0, func() {}) })
				}
				k.Schedule(sim.Time(fired[s].n%7)*sim.Nanosecond, step)
			}
			k.Schedule(0, step)
		}
		g.Run()
		total := 0
		for _, f := range fired {
			total += f.n
		}
		if total < events/2 {
			b.Fatalf("fired %d events, want >= %d", total, events/2)
		}
		windows += g.Summary().Windows
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(windows), "ns/window")
}

// BenchmarkGroupBarrierOverhead isolates the per-window barrier cost: each
// window holds exactly one event per shard, so the run is barrier-dominated.
func BenchmarkGroupBarrierOverhead(b *testing.B) {
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) { benchBarrierOverhead(b, shards) })
	}
}

func benchBarrierOverhead(b *testing.B, shards int) {
	const windows = 10_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewGroup(shards, hop)
		for s := 0; s < g.Len(); s++ {
			k := g.Shard(s).Kernel()
			var step func()
			n := 0
			step = func() {
				n++
				if n < windows {
					k.Schedule(hop, step)
				}
			}
			k.Schedule(0, step)
		}
		g.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/windows, "ns/window")
}

// procNode is one side of procExchange: a kernel, its processes' shared
// state, and a way to send an event to the peer node at an absolute time.
type procNode struct {
	k      *sim.Kernel
	send   func(at sim.Time, fn func())
	res    *sim.Resource
	queued int // workers inside res.Acquire
	tokens int
	arrive *sim.Signal
	log    []string
}

// procExchange builds a two-node process model: on each node, workers
// contend for a one-unit Resource and mail a token to the peer after each
// hold, and a consumer waits on a Signal for the peer's tokens. Local
// sleeps never equal hop, so no local event ties a delivery on both its
// time and its send time. It returns each node's log after run.
func procExchange(nodes [2]*procNode, run func()) [2][]string {
	const workers, rounds = 3, 40
	for i, n := range nodes {
		n.res = sim.NewResource(n.k, 1)
		n.arrive = sim.NewSignal(n.k)
		peer := nodes[1-i]
		for w := 0; w < workers; w++ {
			n.k.Go(fmt.Sprintf("worker%d", w), func(p *sim.Proc) {
				for r := 0; r < rounds; r++ {
					p.Sleep(sim.Time(7+3*w+i) * sim.Nanosecond)
					n.queued++
					n.res.Acquire(p, 1)
					n.queued--
					p.Sleep(11 * sim.Nanosecond)
					n.res.Release(1)
					n.send(p.Now()+hop, func() {
						peer.tokens++
						peer.arrive.Broadcast()
					})
				}
			})
		}
		n.k.Go("consumer", func(p *sim.Proc) {
			for got := 0; got < workers*rounds; got++ {
				for n.tokens == 0 {
					n.arrive.Wait(p)
				}
				n.tokens--
				n.log = append(n.log, fmt.Sprintf("%v token%d queue%d", p.Now(), got, n.queued))
				p.Sleep(5 * sim.Nanosecond)
			}
		})
	}
	run()
	return [2][]string{nodes[0].log, nodes[1].log}
}

// TestProcsAcrossShardsMatchSequential spawns processes on the test
// goroutine, on two kernels, and lets the group step them. Its windows are
// small, so the coordinator runs most of them inline; the logs must equal
// the same model on one shared kernel. TestDenseWindowsMatchSequential
// covers processes that the runners resume.
func TestProcsAcrossShardsMatchSequential(t *testing.T) {
	k := sim.NewKernel()
	local := func(at sim.Time, fn func()) { k.ScheduleAt(at, fn) }
	want := procExchange([2]*procNode{{k: k, send: local}, {k: k, send: local}}, func() { k.Run() })

	// Two runners even on a one-core host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := NewGroup(2, hop)
	a, b := g.Shard(0), g.Shard(1)
	ab, ba := Connect(g, a, b, hop, call), Connect(g, b, a, hop, call)
	got := procExchange([2]*procNode{
		{k: a.Kernel(), send: ab.Send},
		{k: b.Kernel(), send: ba.Send},
	}, func() { g.Run() })

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded process logs diverge\n got: %v\nwant: %v", got, want)
	}
	if len(got[0]) != 120 || len(got[1]) != 120 {
		t.Fatalf("consumers logged %d and %d tokens, want 120 each", len(got[0]), len(got[1]))
	}
}

// TestWaiterIgnoresLateRelease parks a waiter and wakes it with a release
// whose condition does not hold, as a runner that reported one window and
// was descheduled before waking the coordinator delivers it during the
// next window: the waiter must park again until its own condition holds.
func TestWaiterIgnoresLateRelease(t *testing.T) {
	w := &waiter{wake: make(chan struct{}, 1)}
	var ready atomic.Bool
	done := make(chan struct{})
	go func() {
		w.wait(ready.Load)
		close(done)
	}()
	parked := func() {
		t.Helper()
		for i := 0; !w.parked.Load(); i++ {
			if i == 1000 {
				t.Fatal("waiter never parked")
			}
			time.Sleep(time.Millisecond)
		}
	}
	parked()
	w.release() // late: the condition is still false
	parked()
	select {
	case <-done:
		t.Fatal("wait returned on a release whose condition does not hold")
	default:
	}
	ready.Store(true)
	w.release()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("wait did not return after its condition held and it was released")
	}
}
