package sim

import "fmt"

// InjectAt splices an externally originated event into the queue: fn runs at
// absolute time t, but sorts among same-instant events by `from`, the
// virtual time the originating kernel sent it. It is Lane.InjectAt for a
// single event, the reference the lane and sleep equivalence models inject
// through. `from` may be earlier than this kernel's clock; t may not.
func (k *Kernel) InjectAt(t, from Time, fn func()) *Event {
	if from > t {
		panic(fmt.Sprintf("sim: InjectAt origin %v after delivery %v", from, t))
	}
	return k.schedule(t, from, fn)
}

// InUse returns the number of units currently held: the resource tests'
// check that nothing leaks and capacity is never exceeded.
func (r *Resource) InUse() int { return r.inUse }

// Waiters reports the number of processes currently blocked on s.
func (s *Signal) Waiters() int { return s.waiters.Len() }
