package sim

// Resource is a counted resource (e.g. CPU cores, queue slots, credits) that
// processes acquire and release. Acquisition is strictly FIFO: a large
// request at the head of the queue blocks later small requests, which
// prevents starvation of bulk acquirers.
type Resource struct {
	k        *Kernel
	capacity int
	inUse    int

	waiters FIFO[resWaiter]
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
		r.inUse += w.n
		r.k.Schedule(0, w.p.wake)
	}
}
