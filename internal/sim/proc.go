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
// A panic or runtime.Goexit in a process body surfaces on the goroutine
// that resumed it: the caller of the kernel's Run.
//
// All Proc methods must be called from within the process body.
type Proc struct {
	k    *Kernel
	name string
	// yield parks the body; it is set when the body first runs.
	yield func(struct{}) bool
	// wake resumes the process until it parks or finishes (a no-op once
	// it has finished). It is bound once at spawn, so every wakeup
	// schedules the same func value and allocates nothing.
	wake func()
}

// Go spawns a new simulated process executing fn. The process starts at the
// current virtual time (after already-queued events for this instant).
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	next, _ := iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
	p.wake = func() { next() }
	k.Schedule(0, p.wake)
	return p
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
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.k.Schedule(d, p.wake)
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

// Waiters reports the number of processes currently blocked on s.
func (s *Signal) Waiters() int { return s.waiters.Len() }

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
