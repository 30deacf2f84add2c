package sim

import (
	"fmt"

	"thymesisflow/internal/trace"
)

// Event is a scheduled callback. Cancel it with Cancel before it fires if it
// is no longer wanted.
//
// Event structs are recycled: once an event has fired (or been dropped after
// cancellation) the kernel may reuse its storage for a later Schedule call.
// A handle is therefore only valid until the event fires or is cancelled —
// the idiomatic pattern (see llc.Port's replay timer) is to nil the stored
// handle inside the callback and to never touch a handle afterwards.
// Cancelling an already-fired, not-yet-recycled event remains a no-op.
type Event struct {
	at        Time
	schedAt   Time // time Schedule was called (dispatch-latency tracing)
	seq       uint64
	fn        func()
	heapPos   int32 // position in the 4-ary heap; -1 once popped
	cancelled bool
	lane      bool // a Lane's head: re-keyed in place, never recycled
	k         *Kernel
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. The event stays queued until its
// deadline (lazy deletion) but its callback will not run and Pending no
// longer counts it.
func (e *Event) Cancel() {
	if e.cancelled || e.heapPos < 0 {
		return
	}
	e.cancelled = true
	e.fn = nil // release the closure eagerly
	e.k.cancelledQueued++
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Kernel is a discrete-event simulation executive: a virtual clock plus an
// event queue ordered by (time, insertion sequence). The zero value is not
// usable; construct with NewKernel.
//
// The event queue is an inlined 4-ary heap: compared with container/heap's
// binary heap it halves the tree depth, touches fewer cache lines per
// sift, and avoids the interface-boxed Push/Pop round trips. Fired events
// are recycled through a free list, so steady-state scheduling does not
// allocate. The heap holds every plain event but only the oldest entry of
// each Lane: a stream of events whose times never decrease (a fixed-delay
// timer, a FIFO link) waits in its lane, so a thousand armed timers cost
// one heap slot instead of a thousand.
//
// A process that sleeps until what would be the kernel's very next event
// does not park at all: Proc.Sleep advances the clock in place when its
// wake-up sorts before the heap root, lies below the current run call's
// end, the kernel is not stopped and no tracer is attached. The elided
// wake-up still takes its sequence number and counts as executed, so
// Scheduled, Executed and the firing order read as if it had been queued.
type Kernel struct {
	now             Time
	pq              []*Event
	seq             uint64
	executed        uint64 // events fired (excludes cancelled)
	stopped         bool
	cancelledQueued int      // cancelled events still in pq (lazy deletion)
	backlog         int      // lane entries queued behind their lane's head
	free            []*Event // recycled Event structs
	idle            []*Proc  // finished processes kept for reuse (LIFO)
	// end is the exclusive time bound of the run call in progress (zero
	// outside one): Proc.Sleep's fast path never advances the clock to it.
	end Time

	// tracer, when non-nil, receives a dispatch span and a queue-depth
	// sample per fired event; datapath components reach it through
	// Tracer(). The nil path costs one load+compare and zero allocations
	// (asserted by TestKernelNilTracerZeroAllocs).
	tracer trace.Tracer
}

// SetTracer attaches a tracer to the kernel; components built on this
// kernel pick it up through Tracer() on their next emission, so a tracer
// may be attached (or detached with nil) at any point of a run.
func (k *Kernel) SetTracer(tr trace.Tracer) { k.tracer = tr }

// Tracer returns the attached tracer (nil when tracing is disabled).
func (k *Kernel) Tracer() trace.Tracer { return k.tracer }

// NowPS returns the current virtual time in picoseconds, the time base of
// trace events and latency records.
func (k *Kernel) NowPS() int64 { return int64(k.now) }

// NewKernel returns a kernel with the clock at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Schedule arranges for fn to run after delay. A negative delay is treated
// as zero. Events scheduled for the same instant fire in insertion order.
func (k *Kernel) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return k.ScheduleAt(k.now+delay, fn)
}

// ScheduleAt arranges for fn to run at absolute time t. Scheduling in the
// past panics: it would silently corrupt causality.
func (k *Kernel) ScheduleAt(t Time, fn func()) *Event {
	return k.schedule(t, k.now, fn)
}

// InjectAt splices an externally originated event into the queue: fn runs at
// absolute time t, but sorts among same-instant events by `from`, the virtual
// time the originating kernel sent it. The shard runtime uses this to place a
// cross-kernel delivery exactly where a shared-kernel run would have ordered
// it (deliveries are scheduled at their transmit time in a sequential run).
// `from` may be earlier than this kernel's clock; t may not.
func (k *Kernel) InjectAt(t, from Time, fn func()) *Event {
	if from > t {
		panic(fmt.Sprintf("sim: InjectAt origin %v after delivery %v", from, t))
	}
	return k.schedule(t, from, fn)
}

func (k *Kernel) schedule(t, from Time, fn func()) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) is in the past (now=%v)", t, k.now))
	}
	k.seq++
	var e *Event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		// Field-wise reset: a whole-struct literal assignment compiles to a
		// bulk typed copy (with write barriers for the pointer fields) that
		// measurably slows the scheduling hot path.
		e.at = t
		e.schedAt = from
		e.seq = k.seq
		e.fn = fn
		e.heapPos = 0
		e.cancelled = false
		e.k = k
	} else {
		e = &Event{at: t, schedAt: from, seq: k.seq, fn: fn, k: k}
	}
	k.heapPush(e)
	return e
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue drains or Stop is called. It returns
// the final virtual time.
func (k *Kernel) Run() Time {
	return k.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events with timestamps <= limit, then sets the clock to
// limit if any events remain beyond it (or leaves it at the last executed
// event otherwise). It returns the final virtual time.
func (k *Kernel) RunUntil(limit Time) Time {
	end := limit + 1
	if end < limit {
		end = limit // saturate at the largest Time
	}
	k.run(end)
	if !k.stopped && len(k.pq) > 0 {
		k.now = limit
	}
	return k.now
}

// run fires events with timestamps strictly below end until the queue
// drains or Stop is called. Before it returns it ends the coroutines of
// processes that finished during the call (drainIdle): reuse stays within
// one call, and a kernel left with events pending is not kept alive by
// idle coroutines.
//
// end is recorded in the kernel for Proc.Sleep's fast path while the call
// runs; a nested call restores the outer bound when it returns.
func (k *Kernel) run(end Time) {
	outer := k.end
	k.end = end
	k.stopped = false
	for !k.stopped && len(k.pq) > 0 {
		e := k.pq[0]
		if e.at >= end {
			break
		}
		if e.cancelled {
			k.heapPop()
			k.cancelledQueued--
			k.recycle(e)
			continue
		}
		k.now = e.at
		if tr := k.tracer; tr != nil {
			// The dispatch span covers the event's queue residency
			// (schedule -> fire); the counter samples queue depth as seen
			// at the moment this event left the queue, lane backlogs
			// included, so it reads the same as with one event per entry.
			tr.Span(trace.LayerSim, "dispatch", int64(e.schedAt), int64(e.at))
			tr.Counter(trace.LayerSim, "queue_depth", int64(e.at), float64(len(k.pq)-1+k.backlog))
		}
		if e.lane {
			// A lane's head stays at the root: its callback re-keys it to
			// the lane's next entry and sifts it down, or pops it when the
			// lane drains.
			e.fn()
			k.executed++
			continue
		}
		k.heapPop()
		fn := e.fn
		fn()
		k.executed++
		k.recycle(e)
	}
	if len(k.idle) > 0 {
		k.drainIdle()
	}
	k.end = outer
}

// maxFree caps the free list. Steady-state simulations recycle through a
// small working set; after a one-shot burst drains, retaining every dead
// event would only inflate the GC-scanned heap, so the excess is dropped.
const maxFree = 4096

// recycle returns a popped event to the free list.
func (k *Kernel) recycle(e *Event) {
	if len(k.free) >= maxFree {
		return
	}
	e.fn = nil
	e.k = nil
	k.free = append(k.free, e)
}

// Pending reports the number of events still queued and due to fire, lane
// entries included. Cancelled events awaiting lazy removal from the queue
// are not counted.
func (k *Kernel) Pending() int { return len(k.pq) - k.cancelledQueued + k.backlog }

// Scheduled reports the total number of events ever scheduled on this
// kernel, cancelled ones and lane entries included. Summed across a shard
// group it equals the sequential run's count, since a cross-kernel
// delivery costs one scheduled event either way.
func (k *Kernel) Scheduled() uint64 { return k.seq }

// Executed reports the number of events that have fired on this kernel
// (cancelled events are excluded). The shard runtime reads it per window to
// attribute work across shards.
func (k *Kernel) Executed() uint64 { return k.executed }

// NextAt reports the timestamp of the earliest live event, discarding any
// cancelled events sitting on top of the heap. ok is false when no live
// event is queued. The shard coordinator uses it to pick the next window.
func (k *Kernel) NextAt() (t Time, ok bool) {
	for len(k.pq) > 0 {
		top := k.pq[0]
		if !top.cancelled {
			return top.at, true
		}
		k.heapPop()
		k.cancelledQueued--
		k.recycle(top)
	}
	return 0, false
}

// RunBefore executes events with timestamps strictly below limit and leaves
// the clock at the last executed event (it never advances the clock to
// limit: events at or beyond the horizon belong to a later window, possibly
// interleaved with injected deliveries that sort before them). It returns
// the current virtual time.
func (k *Kernel) RunBefore(limit Time) Time {
	k.run(limit)
	return k.now
}

// AdvanceTo moves the clock forward to t without executing anything. It is
// the shard runtime's end-of-run alignment (mirroring how RunUntil parks the
// clock at its limit) and panics if events earlier than t are still queued.
func (k *Kernel) AdvanceTo(t Time) {
	if t <= k.now {
		return
	}
	if at, ok := k.NextAt(); ok && at < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip event at %v", t, at))
	}
	k.now = t
}

// The event queue: an inlined 4-ary min-heap on (at, schedAt, seq).
// Children of node i live at 4i+1..4i+4; the parent of node i is (i-1)/4.
//
// schedAt participates in the order so that injected cross-kernel events
// (whose schedAt is their remote transmit time) interleave with local
// same-instant events exactly as a single shared kernel would have ordered
// them. For locally scheduled events schedAt is non-decreasing in seq (the
// clock never moves backwards), so on a single kernel this order is
// identical to the historical (at, seq) order.

func eventBefore(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	return a.seq < b.seq
}

// wakesFirst reports whether an event scheduled now for time at would sort
// before the heap root, i.e. fire next (Proc.Sleep's fast path).
func (k *Kernel) wakesFirst(at Time) bool {
	if len(k.pq) == 0 {
		return true
	}
	r := k.pq[0]
	if at != r.at {
		return at < r.at
	}
	// A tie on time goes to the root unless it was sent after now (an
	// injected delivery): the root took its sequence number earlier.
	return k.now < r.schedAt
}

func (k *Kernel) heapPush(e *Event) {
	i := len(k.pq)
	k.pq = append(k.pq, e)
	// Sift up.
	for i > 0 {
		parent := (i - 1) / 4
		p := k.pq[parent]
		if !eventBefore(e, p) {
			break
		}
		k.pq[i] = p
		p.heapPos = int32(i)
		i = parent
	}
	k.pq[i] = e
	e.heapPos = int32(i)
}

func (k *Kernel) heapPop() *Event {
	top := k.pq[0]
	top.heapPos = -1
	n := len(k.pq) - 1
	last := k.pq[n]
	k.pq[n] = nil
	k.pq = k.pq[:n]
	if n > 0 {
		k.siftDown(last)
	}
	return top
}

// siftDown places e, displaced from the tail, starting at the root.
func (k *Kernel) siftDown(e *Event) {
	pq := k.pq
	n := len(pq)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		// Find the smallest of up to four children.
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventBefore(pq[c], pq[min]) {
				min = c
			}
		}
		if !eventBefore(pq[min], e) {
			break
		}
		pq[i] = pq[min]
		pq[i].heapPos = int32(i)
		i = min
	}
	pq[i] = e
	e.heapPos = int32(i)
}
