// Package shard is the conservative parallel-discrete-event runtime: it
// partitions a simulation across N sim.Kernels ("shards") and advances them
// in lock-step time windows bounded by the fabric lookahead.
//
// The scheme is classical conservative PDES (Chandy/Misra/Bryant windows,
// the same property DRackSim exploits for rack-scale disaggregation): the
// ThymesisFlow wire has a fixed minimum one-way crossing (phy.SerdesCrossing,
// 50 ns — the serdes hop of the 950 ns round trip), so no event executed on
// one shard at virtual time t can affect a peer shard before t+lookahead.
// Each window therefore runs every shard independently — and in parallel —
// over [t, t+lookahead), then exchanges the cross-shard messages staged on
// Conduits at a barrier before the next window opens.
//
// Determinism: shards only touch their own state inside a window, the
// barrier flush is single-threaded, and staged messages are injected in a
// canonical order — sorted by (destination shard, delivery time, transmit
// time, conduit creation order, per-conduit sequence) — so a seeded run is
// byte-identical regardless of GOMAXPROCS or how the OS schedules the
// worker goroutines. Injected events carry their remote transmit time into
// the destination kernel's (at, schedAt, seq) event order, reconstructing
// the interleaving a single shared kernel would have produced (deliveries
// are scheduled at transmit time in a sequential run). See
// docs/PARALLEL_SIM.md for the invariants and the residual tie-break rule.
package shard

import (
	"fmt"
	"runtime"
	"sync"

	"thymesisflow/internal/sim"
)

// Shard is one partition of the simulation: a private kernel plus its
// position in the group.
type Shard struct {
	id int
	k  *sim.Kernel
	g  *Group
}

// ID returns the shard's index within its group.
func (s *Shard) ID() int { return s.id }

// Kernel returns the shard's private kernel. All components placed on this
// shard must be built on it.
func (s *Shard) Kernel() *sim.Kernel { return s.k }

// msg is one staged cross-shard event.
type msg struct {
	at   sim.Time // delivery time on the destination kernel
	txAt sim.Time // source kernel's clock when Send was called
	seq  uint64   // per-conduit FIFO sequence
	fn   func()
}

// Conduit is a unidirectional timestamped channel between two shards. The
// source shard stages messages on it during a window (Send); the group
// coordinator drains every conduit at the barrier. A Conduit is owned by
// its source shard: Send must only be called from events executing on the
// source kernel (or between windows).
type Conduit struct {
	id       int
	src, dst *Shard
	minDelay sim.Time
	seq      uint64
	buf      []msg
}

// Send stages fn for delivery at absolute time `at` on the destination
// shard. It panics if the delivery violates the conduit's lookahead — that
// would mean a message could land inside the window currently executing on
// the destination, which the conservative scheme cannot order correctly.
// Send implements phy.Injector.
func (c *Conduit) Send(at sim.Time, fn func()) {
	txAt := c.src.k.Now()
	if at < txAt+c.minDelay {
		panic(fmt.Sprintf("shard: conduit %d delivery at %v violates lookahead (sent %v, min delay %v)",
			c.id, at, txAt, c.minDelay))
	}
	c.buf = append(c.buf, msg{at: at, txAt: txAt, seq: c.seq, fn: fn})
	c.seq++
}

// Group advances a set of shards in conservative windows.
type Group struct {
	shards    []*Shard
	conduits  []*Conduit
	lookahead sim.Time

	// Worker pool, alive for the duration of one RunUntil call: windows
	// are ~lookahead long (50 ns of virtual time), so a full run crosses
	// tens of thousands of barriers; spawning goroutines per window would
	// dominate. The coordinator publishes the window horizon, feeds
	// active shards through `work`, and counts completions on `done`.
	workers int
	horizon sim.Time
	work    chan *Shard
	done    chan struct{}

	// Runtime health counters, updated once per window by the coordinator
	// (single-threaded) under statMu so Health() may be called concurrently
	// by a metrics scraper. Everything is derived from virtual time and
	// event counts, so a seeded run reports identical health regardless of
	// GOMAXPROCS or OS scheduling.
	statMu       sync.Mutex
	windows      uint64
	flushed      uint64
	maxFlush     int
	shardWindows []uint64   // windows in which shard i executed
	shardStall   []sim.Time // virtual time shard i sat idle at barriers
}

// NewGroup builds a group of n shards advanced with the given lookahead
// (the minimum cross-shard delivery delay; every Conduit must respect it).
func NewGroup(n int, lookahead sim.Time) *Group {
	if n < 1 {
		panic("shard: group needs at least one shard")
	}
	if lookahead <= 0 {
		panic("shard: lookahead must be positive")
	}
	g := &Group{lookahead: lookahead}
	for i := 0; i < n; i++ {
		g.shards = append(g.shards, &Shard{id: i, k: sim.NewKernel(), g: g})
	}
	g.workers = n
	if p := runtime.GOMAXPROCS(0); g.workers > p {
		g.workers = p
	}
	g.shardWindows = make([]uint64, n)
	g.shardStall = make([]sim.Time, n)
	return g
}

// Len reports the number of shards.
func (g *Group) Len() int { return len(g.shards) }

// Shard returns shard i.
func (g *Group) Shard(i int) *Shard { return g.shards[i] }

// Lookahead returns the group's window bound.
func (g *Group) Lookahead() sim.Time { return g.lookahead }

// Connect creates a conduit from src to dst with the given minimum delivery
// delay. The delay must be at least the group lookahead, or a message could
// arrive inside the destination's current window. Conduits must be created
// while the group is quiescent (construction or between runs); their
// creation order is part of the deterministic merge order.
func (g *Group) Connect(src, dst *Shard, minDelay sim.Time) *Conduit {
	if src.g != g || dst.g != g {
		panic("shard: Connect across groups")
	}
	if minDelay < g.lookahead {
		panic(fmt.Sprintf("shard: conduit delay %v below group lookahead %v", minDelay, g.lookahead))
	}
	c := &Conduit{id: len(g.conduits), src: src, dst: dst, minDelay: minDelay}
	g.conduits = append(g.conduits, c)
	return c
}

// worker runs shards handed to it until work closes. The channels are
// parameters, not read from g, so a worker that starts late never picks up
// the channels of a later RunUntil call.
func (g *Group) worker(work <-chan *Shard, done chan<- struct{}) {
	for s := range work {
		s.k.RunBefore(g.horizon)
		done <- struct{}{}
	}
}

// flush drains every conduit into the destination kernels in canonical
// order. Single-threaded; runs only between windows.
func (g *Group) flush(scratch []msgRef) []msgRef {
	scratch = scratch[:0]
	for _, c := range g.conduits {
		for i := range c.buf {
			scratch = append(scratch, msgRef{c: c, m: &c.buf[i]})
		}
	}
	if len(scratch) == 0 {
		return scratch
	}
	sortMsgRefs(scratch)
	for _, r := range scratch {
		r.c.dst.k.InjectAt(r.m.at, r.m.txAt, r.m.fn)
	}
	for _, c := range g.conduits {
		for i := range c.buf {
			c.buf[i].fn = nil
		}
		c.buf = c.buf[:0]
	}
	return scratch
}

type msgRef struct {
	c *Conduit
	m *msg
}

// sortMsgRefs orders staged messages by (dst shard, at, txAt, conduit id,
// per-conduit seq) — a total, deterministic order. Insertion sort: barrier
// batches are small (a handful of frames per window).
func sortMsgRefs(refs []msgRef) {
	for i := 1; i < len(refs); i++ {
		r := refs[i]
		j := i - 1
		for j >= 0 && msgRefAfter(refs[j], r) {
			refs[j+1] = refs[j]
			j--
		}
		refs[j+1] = r
	}
}

func msgRefAfter(a, b msgRef) bool {
	if a.c.dst.id != b.c.dst.id {
		return a.c.dst.id > b.c.dst.id
	}
	if a.m.at != b.m.at {
		return a.m.at > b.m.at
	}
	if a.m.txAt != b.m.txAt {
		return a.m.txAt > b.m.txAt
	}
	if a.c.id != b.c.id {
		return a.c.id > b.c.id
	}
	return a.m.seq > b.m.seq
}

// Run advances the group until every shard's queue drains and no staged
// messages remain. It returns the latest kernel clock across shards.
func (g *Group) Run() sim.Time {
	return g.RunUntil(sim.Time(1<<62 - 1))
}

// RunUntil advances the group through conservative windows, executing
// events with timestamps <= limit. If work remains beyond the limit, every
// shard's clock is parked at limit (mirroring Kernel.RunUntil) so that
// processes started afterwards resume from a common instant. It returns the
// latest kernel clock across shards.
func (g *Group) RunUntil(limit sim.Time) sim.Time {
	if g.workers > 1 {
		g.work = make(chan *Shard, len(g.shards))
		g.done = make(chan struct{}, len(g.shards))
		for i := 0; i < g.workers; i++ {
			go g.worker(g.work, g.done)
		}
		defer func() {
			close(g.work)
			g.work = nil
		}()
	}
	var scratch []msgRef
	active := make([]*Shard, 0, len(g.shards))
	isActive := make([]bool, len(g.shards))
	for {
		scratch = g.flush(scratch)
		nflushed := len(scratch)
		t, ok := g.nextAt()
		if !ok || t > limit {
			break
		}
		horizon := t + g.lookahead
		if horizon > limit {
			horizon = limit + 1 // include events at the limit itself
		}
		active = active[:0]
		for i := range isActive {
			isActive[i] = false
		}
		for _, s := range g.shards {
			if at, ok := s.k.NextAt(); ok && at < horizon {
				active = append(active, s)
				isActive[s.id] = true
			}
		}
		g.statMu.Lock()
		g.windows++
		g.flushed += uint64(nflushed)
		if nflushed > g.maxFlush {
			g.maxFlush = nflushed
		}
		for i := range g.shards {
			if isActive[i] {
				g.shardWindows[i]++
			} else {
				// The shard has nothing to run before the horizon: it waits
				// out the window at the barrier. Measured in virtual time so
				// the figure is deterministic per seed and shard count.
				g.shardStall[i] += horizon - t
			}
		}
		g.statMu.Unlock()
		if g.work == nil || len(active) == 1 {
			for _, s := range active {
				s.k.RunBefore(horizon)
			}
			continue
		}
		g.horizon = horizon
		for _, s := range active {
			g.work <- s
		}
		for range active {
			<-g.done
		}
	}
	var end sim.Time
	pending := false
	for _, s := range g.shards {
		if _, ok := s.k.NextAt(); ok {
			pending = true
		}
		if now := s.k.Now(); now > end {
			end = now
		}
	}
	if pending && limit > end {
		// Events remain beyond the limit: park at the limit, as a single
		// kernel's RunUntil would.
		end = limit
	}
	// Align every clock to the common end. A single kernel's clock rests at
	// the globally-last executed event; without this, a drained run leaves
	// shard clocks skewed and work scheduled between runs on a lagging shard
	// could address a peer's past.
	for _, s := range g.shards {
		s.k.AdvanceTo(end)
	}
	return end
}

// ShardStat is one shard's slice of the group's runtime health counters.
type ShardStat struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Windows counts the conservative windows in which the shard had work.
	Windows uint64 `json:"windows"`
	// Events counts the events executed on the shard's kernel.
	Events uint64 `json:"events"`
	// StallPS is the virtual time (picoseconds) the shard sat idle at
	// barriers — windows where peers ran but this shard had nothing due.
	StallPS int64 `json:"stall_ps"`
}

// Health is the group's runtime health snapshot: window/flush counters plus
// the per-shard work split. All figures derive from virtual time and event
// counts, so a seeded run reports byte-identical health at a given shard
// count regardless of GOMAXPROCS or OS scheduling.
type Health struct {
	// Shards holds the per-shard counters, indexed by shard ID.
	Shards []ShardStat `json:"shards"`
	// Windows is the total number of conservative windows executed.
	Windows uint64 `json:"windows"`
	// EventsPerWindow is the mean events executed per window across the
	// whole group.
	EventsPerWindow float64 `json:"events_per_window"`
	// Flushed counts cross-shard messages delivered at barriers; MaxFlushDepth
	// is the largest single-barrier batch (conduit backlog high-water mark).
	Flushed       uint64 `json:"flushed"`
	MaxFlushDepth int    `json:"max_flush_depth"`
	// Imbalance is max/mean of per-shard executed events: 1.0 is a perfect
	// split, N means one shard did N times the average (0 before any work).
	Imbalance float64 `json:"imbalance"`
}

// Health assembles the group's runtime health snapshot. Safe to call
// concurrently with RunUntil only from between-window quiescence or other
// goroutines reading stale-but-consistent counters; kernels' executed counts
// are read without synchronization and may lag mid-window.
func (g *Group) Health() Health {
	g.statMu.Lock()
	h := Health{
		Shards:        make([]ShardStat, len(g.shards)),
		Windows:       g.windows,
		Flushed:       g.flushed,
		MaxFlushDepth: g.maxFlush,
	}
	for i, s := range g.shards {
		h.Shards[i] = ShardStat{
			Shard:   i,
			Windows: g.shardWindows[i],
			Events:  s.k.Executed(),
			StallPS: int64(g.shardStall[i]),
		}
	}
	g.statMu.Unlock()

	var total, max uint64
	for _, st := range h.Shards {
		total += st.Events
		if st.Events > max {
			max = st.Events
		}
	}
	if h.Windows > 0 {
		h.EventsPerWindow = float64(total) / float64(h.Windows)
	}
	if total > 0 {
		mean := float64(total) / float64(len(h.Shards))
		h.Imbalance = float64(max) / mean
	}
	return h
}

// nextAt returns the earliest live event time across shards. Conduits are
// assumed flushed (the coordinator always flushes first).
func (g *Group) nextAt() (sim.Time, bool) {
	var min sim.Time
	found := false
	for _, s := range g.shards {
		if at, ok := s.k.NextAt(); ok && (!found || at < min) {
			min, found = at, true
		}
	}
	return min, found
}
