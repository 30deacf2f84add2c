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
