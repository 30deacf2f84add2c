// Package sim provides the discrete-event simulation kernel that underpins
// every timing model in this repository: the interconnect datapath, the
// memory hierarchy, and the simulated application workloads.
//
// The kernel is deliberately small: a virtual clock, an event queue, and
// cooperative processes with SimPy-like blocking primitives (Sleep, Signal,
// Resource, Pipe). Determinism is a hard requirement — given the same seed
// and the same sequence of API calls, a simulation produces bit-identical
// results. To that end each process body runs as a coroutine that only the
// event resuming it can run, so at most one process runs at a time and only
// while the kernel waits for it to park; ties between events scheduled for
// the same instant are broken by insertion order.
package sim

import "fmt"

// Time is a point (or span) of virtual time measured in integer picoseconds.
// int64 picoseconds cover about 106 days of simulated time, far beyond any
// experiment in this repository.
type Time int64

// Convenient duration units, all expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds converts t to floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String renders the time with an adaptive unit, e.g. "950ns" or "1.25ms".
func (t Time) String() string {
	neg := ""
	if t < 0 {
		neg = "-"
		t = -t
	}
	switch {
	case t < Nanosecond:
		return fmt.Sprintf("%s%dps", neg, int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%s%.3gns", neg, t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%s%.4gus", neg, t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%s%.4gms", neg, float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%s%.4gs", neg, t.Seconds())
	}
}

// DurationForBytes returns the time needed to move n bytes at rate bytes/sec.
// It rounds up so that a non-zero transfer never takes zero time.
func DurationForBytes(n int64, bytesPerSec float64) Time {
	if n <= 0 || bytesPerSec <= 0 {
		return 0
	}
	ps := float64(n) / bytesPerSec * float64(Second)
	t := Time(ps)
	if t == 0 {
		t = 1
	}
	return t
}
