//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a cooperative simulated process. Its body runs as a coroutine
// (iter.Pull): an event resumes it, and that event does not return until
// the body parks in a blocking primitive such as Sleep or Wait, or returns.
// Control passes between kernel and process by a direct coroutine switch,
// never through the goroutine scheduler, so at most one process runs at a
// time and never alongside the kernel. This keeps simulations deterministic
// without locks in model code.
//
// A process whose body returns is kept for reuse: its coroutine parks on
// the kernel's idle list, and a Go later in the same Run (or RunUntil,
// RunBefore) call runs the next body on it instead of building a new
// coroutine; the call ends whatever is still idle when it returns. A body
// that panics or calls runtime.Goexit ends its coroutine for good; the
// panic or Goexit surfaces on the goroutine that resumed it, the caller
// of the kernel's Run.
//
// All Proc methods must be called from within the process body.
type Proc struct {
	k    *Kernel
	name string
	// fn is the body the coroutine runs next; nil while idle, and a wake
	// that finds it nil ends the coroutine (Kernel.drainIdle).
	fn func(p *Proc)
	// yield parks the body; it is set when the coroutine first runs.
	yield func(struct{}) bool
	// wake resumes the process until it parks or finishes. It is bound
	// once per coroutine, so every wakeup schedules the same func value
	// and allocates nothing.
	wake func()
}

// Go spawns a new simulated process executing fn. The process starts at the
// current virtual time (after already-queued events for this instant).
//
// The process runs on the most recently idled coroutine if there is one,
// else on a new one; either way Go schedules exactly one event, so event
// sequence numbers and firing order do not depend on reuse. The returned
// Proc is valid only until fn returns: after that it may run another body.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(k.idle); n > 0 {
		p = k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
		p.name, p.fn = name, fn
	} else {
		p = &Proc{k: k, name: name, fn: fn}
		next, _ := iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			for {
				p.fn(p)
				// Only a body that returns gets here: a panic or Goexit
				// unwinds past the loop and ends the coroutine.
				p.fn = nil
				k.idle = append(k.idle, p)
				yield(struct{}{})
				if p.fn == nil {
					return // drained
				}
			}
		})
		p.wake = func() { next() }
	}
	k.Schedule(0, p.wake)
	return p
}

// drainIdle ends every idle coroutine, so none outlives the run that idled
// it: waking an idle process with no body makes its loop return.
func (k *Kernel) drainIdle() {
	for i, p := range k.idle {
		k.idle[i] = nil
		p.wake()
	}
	k.idle = k.idle[:0]
}

// park yields control back to the kernel; the process stays blocked until
// an event runs its wake.
func (p *Proc) park() { p.yield(struct{}{}) }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Sleep blocks the process for d virtual time. Non-positive durations yield
// the processor for one scheduling round without advancing the clock.
//
// When the wake-up would be the kernel's very next event anyway, Sleep
// takes a fast path: it advances the clock and returns without touching
// the heap or switching coroutines. All four conditions must hold:
//   - the wake key (now+d, now, seq+1) sorts strictly before the heap
//     root, or the heap is empty (a cancelled root counts as live);
//   - now+d is below the end of the current Run, RunUntil or RunBefore
//     call, so a window never runs past its horizon;
//   - the kernel is not stopped;
//   - no tracer is attached, so traced runs keep a dispatch span per event.
//
// The elided wake-up takes its sequence number and counts as executed, so
// firing order, Scheduled and Executed are those of the parking path.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	k := p.k
	if at := k.now + d; at < k.end && !k.stopped && k.tracer == nil && k.wakesFirst(at) {
		k.seq++
		k.executed++
		k.now = at
		return
	}
	k.Schedule(d, p.wake)
	p.park()
}

// Signal is a broadcast-style condition variable for processes. Waiters
// block until another party calls Broadcast (wake all) or Wake (wake one).
// The zero value is unusable; construct with NewSignal.
type Signal struct {
	k       *Kernel
	waiters FIFO[*Proc]
}

// NewSignal returns a Signal bound to kernel k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Wait blocks the calling process until the signal is fired.
func (s *Signal) Wait(p *Proc) {
	if p.k != s.k {
		panic("sim: Signal.Wait with process from a different kernel")
	}
	s.waiters.Push(p)
	p.park()
}

// Broadcast wakes every waiting process. Wakeups are delivered as events at
// the current instant, in FIFO order.
func (s *Signal) Broadcast() {
	for s.waiters.Len() > 0 {
		s.k.Schedule(0, s.waiters.Pop().wake)
	}
}

// Wake wakes the longest-waiting process, if any, and reports whether a
// process was woken.
func (s *Signal) Wake() bool {
	if s.waiters.Len() == 0 {
		return false
	}
	s.k.Schedule(0, s.waiters.Pop().wake)
	return true
}

// WaitGroup counts down to zero and wakes waiters, mirroring sync.WaitGroup
// for simulated processes.
type WaitGroup struct {
	sig   *Signal
	count int
}

// NewWaitGroup returns a WaitGroup bound to kernel k.
func NewWaitGroup(k *Kernel) *WaitGroup { return &WaitGroup{sig: NewSignal(k)} }

// Add increments the counter by n (n may be negative, like sync.WaitGroup).
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		wg.sig.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks the calling process until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.sig.Wait(p)
	}
}

func (wg *WaitGroup) String() string { return fmt.Sprintf("WaitGroup(%d)", wg.count) }
