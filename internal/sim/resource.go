package sim

// Resource is a counted resource (e.g. CPU cores, queue slots, credits) that
// processes acquire and release. Acquisition is strictly FIFO: a large
// request at the head of the queue blocks later small requests, which
// prevents starvation of bulk acquirers.
//
// Resource also tracks a utilization integral so models can report average
// occupancy over a measurement window (used for the "utilized CPU cores"
// metric in the VoltDB experiments).
type Resource struct {
	k        *Kernel
	capacity int
	inUse    int

	waiters FIFO[resWaiter]

	lastChange Time
	busyPS     float64 // integral of inUse over time, in unit*ps
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource returns a resource with the given capacity on kernel k.
func NewResource(k *Kernel, capacity int) *Resource {
	if capacity < 0 {
		panic("sim: negative resource capacity")
	}
	return &Resource{k: k, capacity: capacity}
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int { return r.capacity }

func (r *Resource) accountTo(t Time) {
	r.busyPS += float64(r.inUse) * float64(t-r.lastChange)
	r.lastChange = t
}

// Acquire blocks the calling process until n units are available, then takes
// them. n must not exceed capacity.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 {
		return
	}
	if n > r.capacity {
		panic("sim: Acquire exceeds resource capacity")
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.capacity {
		r.accountTo(r.k.now)
		r.inUse += n
		return
	}
	r.waiters.Push(resWaiter{p: p, n: n})
	p.park()
}

// Release returns n units and hands them to queued waiters in FIFO order.
func (r *Resource) Release(n int) {
	if n <= 0 {
		return
	}
	r.accountTo(r.k.now)
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: Release of more units than acquired")
	}
	r.dispatch()
}

func (r *Resource) dispatch() {
	for r.waiters.Len() > 0 {
		w := r.waiters.Peek()
		if r.inUse+w.n > r.capacity {
			return
		}
		r.waiters.Pop()
		r.accountTo(r.k.now)
		r.inUse += w.n
		r.k.Schedule(0, w.p.wake)
	}
}

// MeanOccupancy returns the time-averaged number of units in use since
// time zero.
func (r *Resource) MeanOccupancy() float64 {
	r.accountTo(r.k.now)
	window := float64(r.k.now)
	if window <= 0 {
		return 0
	}
	return r.busyPS / window
}
