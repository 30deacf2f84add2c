// Package trace is the cross-layer tracing subsystem: a zero-overhead-when-
// disabled Tracer interface, a bounded ring-buffer recorder, and a Chrome
// trace-event exporter (chrome://tracing / Perfetto) so a full simulated run
// can be inspected on a timeline.
//
// Every event is keyed by a layer (the component of the disaggregation
// datapath that emitted it: sim, phy, llc, capi, rmmu) and stamped with the
// *virtual* simulation time in picoseconds, so the exported timeline shows
// where simulated time goes inside the stack — flit flight times, replay
// windows, CAPI transactions and their stages — not host wall-clock.
//
// Instrumented components hold a Tracer and guard every emission with a nil
// check:
//
//	if tr := k.Tracer(); tr != nil {
//	    tr.Instant(trace.LayerLLC, "rx_crc_error", k.NowPS())
//	}
//
// so the disabled path costs one pointer load and compare, and zero
// allocations (verified by TestKernelNilTracerZeroAllocs in internal/sim).
//
// A datapath transaction is recorded in one Txn call when it completes: its
// round trip plus the per-stage spans of its latency record, under one id.
package trace

import "sync"

// Layer names used across the stack. Free-form strings are allowed; these
// constants name the layers of the ThymesisFlow datapath.
const (
	LayerSim  = "sim"  // discrete-event kernel (dispatch latency, queue depth)
	LayerPhy  = "phy"  // physical channels (frame flight, drops, corruption)
	LayerLLC  = "llc"  // low-latency link protocol (frames, replay, credits)
	LayerCAPI = "capi" // cache-coherent transactions (request round trips)
	LayerRMMU = "rmmu" // remote-MMU translations
)

// Stage is one stage of a transaction passed to Tracer.Txn: Dur
// picoseconds charged to Name on Layer.
type Stage struct {
	Layer, Name string
	Dur         int64
}

// Tracer records spans and instant events on a virtual timeline. All
// timestamps are virtual simulation time in picoseconds. Implementations
// must be safe for concurrent use: independent simulation kernels (e.g. the
// parallel experiment runner's cells) may share one recorder.
type Tracer interface {
	// Txn records one transaction as a whole: a root span [startPS, endPS)
	// named name on layer, then one span per stage, laid end to end from
	// startPS in the order given. Every event of the transaction carries the
	// same Event.Txn id. The tracer does not retain stages.
	Txn(layer, name string, startPS, endPS int64, stages []Stage)
	// Span records a complete span whose endpoints are both known.
	Span(layer, name string, startPS, endPS int64)
	// Instant records a point event.
	Instant(layer, name string, tsPS int64)
	// Counter records a sample of a named numeric series (rendered as a
	// counter track on the timeline).
	Counter(layer, name string, tsPS int64, value float64)
}

// Phase distinguishes event kinds, mirroring the Chrome trace-event phases.
type Phase byte

// Event phases.
const (
	PhaseSpan    Phase = 'X' // complete span (TS..TS+Dur)
	PhaseInstant Phase = 'i' // point event
	PhaseCounter Phase = 'C' // counter sample (Value)
)

// Event is one recorded trace event.
type Event struct {
	Seq   uint64 // global record sequence (monotonic, 0-based)
	TS    int64  // virtual time, picoseconds
	Dur   int64  // span duration in picoseconds
	Layer string
	Name  string
	Ph    Phase
	Value float64 // counter sample value (PhaseCounter only)
	// Txn groups the events of one transaction recorded by Tracer.Txn: its
	// root's Seq plus one, so that zero means "not part of a transaction".
	Txn uint64
}

// DefaultRingCapacity bounds recorders created with NewRing(0): 1 Mi events
// (~64 MiB) keeps the tail of even a full-scale experiment without letting
// an unbounded trace eat the host.
const DefaultRingCapacity = 1 << 20

// Ring is a bounded ring-buffer Tracer: it retains the most recent
// `capacity` events and silently evicts the oldest beyond that, so tracing
// can stay attached to a long-lived simulation (or a live tfd daemon)
// without unbounded growth. The buffer is allocated up front; recording
// never allocates.
type Ring struct {
	mu  sync.Mutex
	buf []Event
	seq uint64 // total events ever recorded; next sequence number
}

// NewRing returns a recorder retaining the last `capacity` events
// (DefaultRingCapacity if capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// record appends an event, stamping its sequence number.
func (r *Ring) record(e Event) {
	e.Seq = r.seq
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.seq%uint64(cap(r.buf))] = e
	}
	r.seq++
}

// Txn implements Tracer. The transaction's events are recorded under one
// lock hold, so they are contiguous in the ring even when several kernels
// share it.
func (r *Ring) Txn(layer, name string, startPS, endPS int64, stages []Stage) {
	r.mu.Lock()
	id := r.seq + 1
	r.record(Event{TS: startPS, Dur: max(endPS-startPS, 0), Layer: layer, Name: name, Ph: PhaseSpan, Txn: id})
	ts := startPS
	for _, s := range stages {
		r.record(Event{TS: ts, Dur: s.Dur, Layer: s.Layer, Name: s.Name, Ph: PhaseSpan, Txn: id})
		ts += s.Dur
	}
	r.mu.Unlock()
}

// Span implements Tracer.
func (r *Ring) Span(layer, name string, startPS, endPS int64) {
	dur := endPS - startPS
	if dur < 0 {
		dur = 0
	}
	r.mu.Lock()
	r.record(Event{TS: startPS, Dur: dur, Layer: layer, Name: name, Ph: PhaseSpan})
	r.mu.Unlock()
}

// Instant implements Tracer.
func (r *Ring) Instant(layer, name string, tsPS int64) {
	r.mu.Lock()
	r.record(Event{TS: tsPS, Layer: layer, Name: name, Ph: PhaseInstant})
	r.mu.Unlock()
}

// Counter implements Tracer.
func (r *Ring) Counter(layer, name string, tsPS int64, value float64) {
	r.mu.Lock()
	r.record(Event{TS: tsPS, Layer: layer, Name: name, Ph: PhaseCounter, Value: value})
	r.mu.Unlock()
}

// Len reports the number of events currently retained.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Recorded reports the total number of events ever recorded, including
// evicted ones.
func (r *Ring) Recorded() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dropped reports how many events have been evicted by the ring bound.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq - uint64(len(r.buf))
}

// Snapshot returns the retained events oldest-first. The returned slice is
// a copy and safe to use while recording continues.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		copy(out, r.buf)
		return out
	}
	head := int(r.seq % uint64(cap(r.buf))) // index of the oldest event
	n := copy(out, r.buf[head:])
	copy(out[n:], r.buf[:head])
	return out
}

var _ Tracer = (*Ring)(nil)
