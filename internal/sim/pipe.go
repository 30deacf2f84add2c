package sim

// Pipe models a serial, work-conserving transmission resource: a link, a bus
// or a memory channel with a fixed byte rate. Transfers are serialized FIFO;
// a transfer of n bytes occupies the pipe for n/rate seconds. Reserve is a
// pure timing calculation — it does not block — so it can be called from both
// event and process context. Callers that want flow control combine Reserve
// with Proc.Sleep until the returned completion time.
type Pipe struct {
	k           *Kernel
	bytesPerSec float64
	busyUntil   Time

	totalBytes int64
}

// NewPipe returns a pipe with the given rate in bytes per second.
func NewPipe(k *Kernel, bytesPerSec float64) *Pipe {
	if bytesPerSec <= 0 {
		panic("sim: pipe rate must be positive")
	}
	return &Pipe{k: k, bytesPerSec: bytesPerSec}
}

// Rate returns the pipe's configured rate in bytes per second.
func (pp *Pipe) Rate() float64 { return pp.bytesPerSec }

// Reserve enqueues a transfer of n bytes starting no earlier than the
// current time and returns (start, done): the time the transfer begins
// transmission and the time its last byte leaves the pipe.
func (pp *Pipe) Reserve(n int64) (start, done Time) {
	now := pp.k.now
	start = now
	if pp.busyUntil > start {
		start = pp.busyUntil
	}
	d := DurationForBytes(n, pp.bytesPerSec)
	done = start + d
	pp.busyUntil = done
	pp.totalBytes += n
	return start, done
}

// Backlog returns how far in the future the pipe is already committed.
func (pp *Pipe) Backlog() Time {
	if pp.busyUntil <= pp.k.now {
		return 0
	}
	return pp.busyUntil - pp.k.now
}

// TotalBytes returns the bytes reserved since creation.
func (pp *Pipe) TotalBytes() int64 { return pp.totalBytes }

// Throughput returns achieved bytes/sec since time zero.
func (pp *Pipe) Throughput() float64 {
	window := float64(pp.k.now)
	if window <= 0 {
		return 0
	}
	return float64(pp.totalBytes) / (window / float64(Second))
}
