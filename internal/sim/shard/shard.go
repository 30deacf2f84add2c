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
// runner goroutines. Injected events carry their remote transmit time into
// the destination kernel's (at, schedAt, seq) event order, reconstructing
// the interleaving a single shared kernel would have produced (deliveries
// are scheduled at transmit time in a sequential run). See
// docs/PARALLEL_SIM.md for the invariants and the residual tie-break rule.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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

// Conduit is a unidirectional timestamped channel carrying values of type T
// from one shard to another. The source shard stages values on it during a
// window (Send); at the barrier the group's flush moves them onto a
// sim.Lane in the destination kernel, whose handler receives each value at
// its delivery time. A Conduit is owned by its source shard: Send must only
// be called from events executing on the source kernel (or between
// windows).
type Conduit[T any] struct {
	conduit
	vals []T
	lane *sim.Lane[T]
}

// conduit is the untyped half of a Conduit: what the flush sorts by.
type conduit struct {
	id       int
	src, dst *Shard
	minDelay sim.Time
	keys     []msgKey // staged messages, in send order
	typed    stager   // the Conduit holding the staged values
}

// msgKey is one staged message's place in the canonical flush order.
type msgKey struct {
	at   sim.Time // delivery time on the destination kernel
	txAt sim.Time // source kernel's clock when Send was called
}

// stager is the typed half of a conduit, as the flush sees it.
type stager interface {
	inject(i int) // push staged message i onto the destination lane
	reset()       // drop the staged values
}

// Connect creates a conduit from src to dst with the given minimum delivery
// delay, whose messages are handed to deliver on dst's kernel. The delay
// must be at least the group lookahead, or a message could arrive inside
// the destination's current window. Conduits must be created while the
// group is quiescent (construction or between runs); their creation order
// is part of the deterministic merge order.
func Connect[T any](g *Group, src, dst *Shard, minDelay sim.Time, deliver func(T)) *Conduit[T] {
	if src.g != g || dst.g != g {
		panic("shard: Connect across groups")
	}
	if minDelay < g.lookahead {
		panic(fmt.Sprintf("shard: conduit delay %v below group lookahead %v", minDelay, g.lookahead))
	}
	c := &Conduit[T]{lane: sim.NewLane(dst.k, deliver)}
	c.conduit = conduit{id: len(g.conduits), src: src, dst: dst, minDelay: minDelay, typed: c}
	g.conduits = append(g.conduits, &c.conduit)
	return c
}

// Send stages v for delivery at absolute time `at` on the destination
// shard. It panics if the delivery violates the conduit's lookahead — that
// would mean a message could land inside the window currently executing on
// the destination, which the conservative scheme cannot order correctly.
// Deliveries must not go back in time: `at` never decreases from one Send
// to the next. Send implements phy.Injector for a Conduit[phy.Delivery].
func (c *Conduit[T]) Send(at sim.Time, v T) {
	txAt := c.src.k.Now()
	if at < txAt+c.minDelay {
		panic(fmt.Sprintf("shard: conduit %d delivery at %v violates lookahead (sent %v, min delay %v)",
			c.id, at, txAt, c.minDelay))
	}
	c.keys = append(c.keys, msgKey{at: at, txAt: txAt})
	c.vals = append(c.vals, v)
}

func (c *Conduit[T]) inject(i int) {
	k := c.keys[i]
	c.lane.InjectAt(k.at, k.txAt, c.vals[i])
}

func (c *Conduit[T]) reset() {
	clear(c.vals)
	c.vals = c.vals[:0]
}

// Group advances a set of shards in conservative windows.
type Group struct {
	shards    []*Shard
	conduits  []*conduit
	lookahead sim.Time

	// The barrier. A RunUntil call keeps min(shards, GOMAXPROCS) runners:
	// runners[0] is the calling goroutine (the coordinator), the rest are
	// goroutines that live until the call returns. Shard i is pinned to
	// runner i mod len(runners), so its process coroutines always resume
	// on the same goroutine. Per parallel window the coordinator publishes
	// horizon and active, hands the window to each runner with work by
	// bumping the runner's generation, runs its own shards, and waits for
	// pending to reach zero. Both sides spin for up to spinFor, then park.
	runners   []*runner
	started   bool // runner goroutines alive (inside RunUntil)
	quit      bool
	epoch     uint64
	horizon   sim.Time
	active    []bool // shard i has events before horizon
	coord     waiter
	pending   atomic.Int32
	wg        sync.WaitGroup
	executed  uint64 // events executed across shards after the last window
	lastBatch uint64 // events the last window executed

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

// parallelMinEvents is the smallest previous-window event count at which a
// window is handed to the runners. Below it the coordinator runs every
// active shard itself: a window of a hundred short events finishes sooner
// on one core than the handoff, and the cache misses of a shard's state
// moving between cores, take (BenchmarkGroupWindows with 4 shards holds
// about 70 events a window; the full-scale rack about 300).
const parallelMinEvents = 128

// spinFor bounds how long a runner polls for its next window, and the
// coordinator for the runners, before parking. It covers the coordinator's
// flush between windows and typical shard imbalance inside one, so on a
// host with a core per runner neither side parks in steady state.
const spinFor = 200 * time.Microsecond

// waiter is a goroutine that spins, then parks, until a condition holds.
// Whoever makes the condition true calls release, which wakes the waiter
// if it parked. Padded so two waiters never share a cache line.
type waiter struct {
	_      [64]byte
	parked atomic.Bool
	wake   chan struct{}
	_      [64]byte
}

// wait returns once ready reports true, spinning for up to spinFor and
// then parking until release.
func (w *waiter) wait(ready func() bool) {
	if ready() {
		return
	}
	start := time.Now()
	for i := 1; !ready(); i++ {
		if i%64 == 0 && time.Since(start) > spinFor {
			w.parked.Store(true)
			// Re-check after announcing the park: a release between the
			// last poll and the Store would otherwise be lost.
			if ready() && w.parked.CompareAndSwap(true, false) {
				return
			}
			// A wake-up may come from a release that belongs to an earlier
			// wait (a runner that reported its window and was descheduled
			// before it woke the coordinator), so the loop checks again.
			<-w.wake
		}
	}
}

// release wakes the waiter if it parked. The caller has already made the
// waiter's condition true.
func (w *waiter) release() {
	if w.parked.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
		// The woken goroutine waits in this P's run queue, where an idle
		// P steals it only after a delay. Yield so that it runs now.
		runtime.Gosched()
	}
}

// runner is one goroutine of the barrier and the shards pinned to it.
type runner struct {
	shards []*Shard
	gen    atomic.Uint64 // the last window handed to the runner
	w      waiter
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
	g := &Group{lookahead: lookahead, coord: waiter{wake: make(chan struct{}, 1)}}
	for i := 0; i < n; i++ {
		g.shards = append(g.shards, &Shard{id: i, k: sim.NewKernel(), g: g})
	}
	g.active = make([]bool, n)
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

// pin sizes the runner set for a RunUntil call: min(shards, GOMAXPROCS)
// runners, shard i on runner i mod that count.
func (g *Group) pin() {
	n := min(len(g.shards), runtime.GOMAXPROCS(0))
	if len(g.runners) == n {
		return
	}
	g.runners = make([]*runner, n)
	for i := range g.runners {
		g.runners[i] = &runner{w: waiter{wake: make(chan struct{}, 1)}}
	}
	for _, s := range g.shards {
		r := g.runners[s.id%n]
		r.shards = append(r.shards, s)
	}
}

// start launches the runner goroutines of a RunUntil call.
func (g *Group) start() {
	g.started = true
	for _, r := range g.runners[1:] {
		g.wg.Add(1)
		go g.run(r, r.gen.Load())
	}
}

// stop ends the runner goroutines, first letting any window in flight
// finish (RunUntil may be unwinding from a panic on the coordinator).
func (g *Group) stop() {
	if !g.started {
		return
	}
	g.coord.wait(g.settled)
	g.quit = true
	g.epoch++
	for _, r := range g.runners[1:] {
		g.hand(r)
	}
	g.wg.Wait()
	g.quit, g.started = false, false
}

// settled reports whether every runner has finished its window.
func (g *Group) settled() bool { return g.pending.Load() == 0 }

// hand gives runner r the window g.epoch.
func (g *Group) hand(r *runner) {
	r.gen.Store(g.epoch)
	r.w.release()
}

// run is a runner goroutine: it waits for a window, runs its active shards
// up to the horizon, and reports back, until stop.
func (g *Group) run(r *runner, seen uint64) {
	defer g.wg.Done()
	for {
		r.w.wait(func() bool { return r.gen.Load() != seen })
		seen = r.gen.Load()
		if g.quit {
			return
		}
		r.runActive(g)
		if g.pending.Add(-1) == 0 {
			g.coord.release()
		}
	}
}

// runActive runs r's shards that have work in the current window.
func (r *runner) runActive(g *Group) {
	for _, s := range r.shards {
		if g.active[s.id] {
			s.k.RunBefore(g.horizon)
		}
	}
}

// busy reports whether any of r's shards has work in the current window.
func (r *runner) busy(g *Group) bool {
	for _, s := range r.shards {
		if g.active[s.id] {
			return true
		}
	}
	return false
}

// runWindow runs every active shard up to g.horizon. The window goes to
// the runners only when at least two of them have work and the previous
// window was big enough to pay for the handoff; otherwise the coordinator
// runs the active shards itself.
func (g *Group) runWindow() {
	busy := 0
	if len(g.runners) > 1 && g.lastBatch >= parallelMinEvents {
		for _, r := range g.runners {
			if r.busy(g) {
				busy++
			}
		}
	}
	if busy < 2 {
		for _, s := range g.shards {
			if g.active[s.id] {
				s.k.RunBefore(g.horizon)
			}
		}
		return
	}
	if !g.started {
		g.start()
	}
	g.epoch++
	handed := int32(busy)
	if g.runners[0].busy(g) {
		handed--
	}
	g.pending.Store(handed)
	for _, r := range g.runners[1:] {
		if r.busy(g) {
			g.hand(r)
		}
	}
	g.runners[0].runActive(g)
	g.coord.wait(g.settled)
}

// flush drains every conduit onto the destination lanes in canonical
// order. Single-threaded; runs only between windows.
func (g *Group) flush(scratch []msgRef) []msgRef {
	scratch = scratch[:0]
	for _, c := range g.conduits {
		for i, k := range c.keys {
			scratch = append(scratch, msgRef{msgKey: k, dst: c.dst.id, cid: c.id, i: i, c: c})
		}
	}
	if len(scratch) == 0 {
		return scratch
	}
	sortMsgRefs(scratch)
	for _, r := range scratch {
		r.c.typed.inject(r.i)
	}
	for _, c := range g.conduits {
		if len(c.keys) > 0 {
			c.keys = c.keys[:0]
			c.typed.reset()
		}
	}
	return scratch
}

// msgRef is staged message i of conduit c, with its sort key copied in so
// that the sort reads no conduit.
type msgRef struct {
	msgKey
	dst, cid, i int
	c           *conduit
}

// sortMsgRefs orders staged messages by (dst shard, at, txAt, conduit id,
// send order) — a total, deterministic order. Insertion sort: barrier
// batches are small (a few dozen frames per window).
func sortMsgRefs(refs []msgRef) {
	for i := 1; i < len(refs); i++ {
		r := refs[i]
		j := i - 1
		for j >= 0 && msgRefAfter(&refs[j], &r) {
			refs[j+1] = refs[j]
			j--
		}
		refs[j+1] = r
	}
}

func msgRefAfter(a, b *msgRef) bool {
	if a.dst != b.dst {
		return a.dst > b.dst
	}
	if a.at != b.at {
		return a.at > b.at
	}
	if a.txAt != b.txAt {
		return a.txAt > b.txAt
	}
	if a.cid != b.cid {
		return a.cid > b.cid
	}
	return a.i > b.i
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
// latest kernel clock across shards. No runner goroutine outlives the call.
func (g *Group) RunUntil(limit sim.Time) sim.Time {
	g.pin()
	defer g.stop()
	g.executed = g.executedNow()
	var scratch []msgRef
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
		g.horizon = horizon
		for _, s := range g.shards {
			at, ok := s.k.NextAt()
			g.active[s.id] = ok && at < horizon
		}
		g.statMu.Lock()
		g.windows++
		g.flushed += uint64(nflushed)
		if nflushed > g.maxFlush {
			g.maxFlush = nflushed
		}
		for i := range g.shards {
			if g.active[i] {
				g.shardWindows[i]++
			} else {
				// The shard has nothing to run before the horizon: it waits
				// out the window at the barrier. Measured in virtual time so
				// the figure is deterministic per seed and shard count.
				g.shardStall[i] += horizon - t
			}
		}
		g.statMu.Unlock()
		g.runWindow()
		executed := g.executedNow()
		g.lastBatch = executed - g.executed
		g.executed = executed
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

// executedNow sums the events executed across shards.
func (g *Group) executedNow() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.k.Executed()
	}
	return n
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
	return g.health(make([]ShardStat, len(g.shards)))
}

// Summary is Health without the per-shard split: the group totals, read
// without allocating (the flight recorder samples them every tick).
func (g *Group) Summary() Health { return g.health(nil) }

// ShardStat returns shard i's slice of Health without allocating.
func (g *Group) ShardStat(i int) ShardStat {
	g.statMu.Lock()
	defer g.statMu.Unlock()
	return g.stat(i)
}

// stat reads shard i's counters; the caller holds statMu.
func (g *Group) stat(i int) ShardStat {
	return ShardStat{
		Shard:   i,
		Windows: g.shardWindows[i],
		Events:  g.shards[i].k.Executed(),
		StallPS: int64(g.shardStall[i]),
	}
}

// health fills a Health snapshot, storing the per-shard counters in shards
// when it is non-nil (len(g.shards) long).
func (g *Group) health(shards []ShardStat) Health {
	g.statMu.Lock()
	defer g.statMu.Unlock()
	h := Health{
		Shards:        shards,
		Windows:       g.windows,
		Flushed:       g.flushed,
		MaxFlushDepth: g.maxFlush,
	}
	var total, max uint64
	for i := range g.shards {
		st := g.stat(i)
		if shards != nil {
			shards[i] = st
		}
		total += st.Events
		if st.Events > max {
			max = st.Events
		}
	}
	if h.Windows > 0 {
		h.EventsPerWindow = float64(total) / float64(h.Windows)
	}
	if total > 0 {
		mean := float64(total) / float64(len(g.shards))
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
