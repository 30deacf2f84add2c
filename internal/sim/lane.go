package sim

import "fmt"

// Lane is a stream of events whose times never decrease: a fixed-delay
// timer, a FIFO link, a pipeline stage. Only the lane's oldest entry sits in
// the kernel heap; the rest wait in the lane in arrival order, so a
// thousand armed timers cost one heap slot instead of a thousand.
//
// Each entry keeps the (at, schedAt, seq) key a plain Schedule would have
// given it: a push takes the kernel's next sequence number, and entries fire
// in time order, so a k-way merge of lane heads with the plain events fires
// everything in exactly the order one event per entry would. Pending,
// Scheduled and Executed count entries as events.
//
// A lane cannot be cancelled. It lives in one kernel's heap and is pushed
// to only by that kernel's events, or between runs by the shard runtime's
// single-threaded flush (InjectAt), which is how cross-kernel deliveries
// arrive.
type Lane[T any] struct {
	k  *Kernel
	ev Event // the head entry's heap slot, in the heap while q is non-empty
	q  FIFO[laneEntry[T]]
	fn func(T)
	// last and lastFrom are the newest entry's (at, schedAt): entries must
	// arrive in key order for the head to be the lane's earliest.
	last, lastFrom Time
}

type laneEntry[T any] struct {
	at, schedAt Time
	seq         uint64
	v           T
}

// NewLane returns an empty lane on k whose entries are handed to fn as they
// fire.
func NewLane[T any](k *Kernel, fn func(T)) *Lane[T] {
	l := &Lane[T]{k: k, fn: fn}
	l.ev = Event{lane: true, heapPos: -1, k: k}
	l.ev.fn = l.fire
	return l
}

// Schedule queues v to fire after delay. A negative delay is treated as
// zero.
func (l *Lane[T]) Schedule(delay Time, v T) {
	if delay < 0 {
		delay = 0
	}
	l.ScheduleAt(l.k.now+delay, v)
}

// ScheduleAt queues v to fire at absolute time t. Scheduling in the past,
// or earlier than the lane's last entry, panics.
func (l *Lane[T]) ScheduleAt(t Time, v T) {
	l.push(t, l.k.now, v)
}

// InjectAt queues v, sent by another kernel at its time from, to fire at
// absolute time t. Like an event the kernel schedules itself, the entry
// takes the next sequence number, but it sorts among same-instant events
// by from: the (at, schedAt, seq) key the shard runtime gives a
// cross-kernel delivery, placing it where a shared-kernel run would have
// ordered it. Entries must arrive in non-decreasing (t, from) order, and t
// may not be in the past.
func (l *Lane[T]) InjectAt(t, from Time, v T) {
	if from > t {
		panic(fmt.Sprintf("sim: lane InjectAt origin %v after delivery %v", from, t))
	}
	l.push(t, from, v)
}

func (l *Lane[T]) push(t, from Time, v T) {
	k := l.k
	if t < k.now {
		panic(fmt.Sprintf("sim: lane entry at %v is in the past (now=%v)", t, k.now))
	}
	if t < l.last || t == l.last && from < l.lastFrom {
		panic(fmt.Sprintf("sim: lane entry (%v, sent %v) before the lane's last entry (%v, sent %v)",
			t, from, l.last, l.lastFrom))
	}
	l.last, l.lastFrom = t, from
	k.seq++
	l.q.Push(laneEntry[T]{at: t, schedAt: from, seq: k.seq, v: v})
	if l.q.Len() > 1 {
		k.backlog++
		return
	}
	l.ev.at, l.ev.schedAt, l.ev.seq = t, from, k.seq
	k.heapPush(&l.ev)
}

// fire runs the head entry. The kernel calls it with the lane's event at
// the heap root: the event takes the next entry's key and sifts down, or
// leaves the heap when the lane drains, before fn runs.
func (l *Lane[T]) fire() {
	v := l.q.Pop().v
	k := l.k
	if l.q.Len() > 0 {
		next := &l.q.buf[l.q.head]
		l.ev.at, l.ev.schedAt, l.ev.seq = next.at, next.schedAt, next.seq
		k.backlog--
		k.siftDown(&l.ev)
	} else {
		k.heapPop()
	}
	l.fn(v)
}
