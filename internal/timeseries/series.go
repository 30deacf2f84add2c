// Package timeseries is the fabric flight recorder: fixed-capacity
// ring-buffer time series sampled on a periodic tick from the same
// instrument tables the metrics registry publishes (internal/instrument:
// llc, phy, capi, backend, sim and shard instruments on the datapath, the
// cp.* saga counters on the control plane), under the same names and
// kinds. Two tick domains exist side by side: datapath series are sampled
// at a fixed grid of virtual (simulated) instants while the cluster steps
// between conservative windows, and control-plane series are sampled on a
// trace.WallClock (deterministic StepClock in seeded harnesses, monotonic
// in tfd).
//
// Like the tracer, the recorder follows the zero-overhead-when-disabled
// idiom: a cluster that never calls EnableFlightRecorder schedules nothing
// and allocates nothing; sampling itself never allocates after a series'
// ring is created (points overwrite the oldest slot once full).
package timeseries

import (
	"sort"
	"sync"
)

// DefaultCapacity is the per-series ring capacity: enough for a multi-
// millisecond chaos horizon at a ~5 us tick, small enough that a hundred
// series stay a few MiB.
const DefaultCapacity = 1 << 13

// Point is one sample: a timestamp in the series' tick domain (virtual
// picoseconds for datapath series, wall/step nanoseconds for control-plane
// series) and the sampled value.
type Point struct {
	TS int64   `json:"ts"`
	V  float64 `json:"v"`
}

// Kind tags how a series should be read: a Gauge point is an instantaneous
// level, a Counter point is a monotonic cumulative total (detectors diff
// consecutive points to recover per-tick rates).
type Kind uint8

// Series kinds.
const (
	Gauge Kind = iota
	Counter
)

func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// Series is one named fixed-capacity ring of points. A series is written by
// exactly one sampler but may be snapshotted concurrently, so writes and
// reads synchronize on a per-series mutex (sampling is periodic and far off
// any hot path).
type Series struct {
	name string
	kind Kind

	mu      sync.Mutex
	buf     []Point // len == cap once full; oldest overwritten
	seq     uint64  // total points ever recorded
	dropped uint64  // points that overwrote an unread slot
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Kind returns the series kind.
func (s *Series) Kind() Kind { return s.kind }

// Record appends one sample, overwriting the oldest once the ring is full.
// It never allocates: the ring's backing array is preallocated at creation.
func (s *Series) Record(ts int64, v float64) {
	s.mu.Lock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, Point{TS: ts, V: v})
	} else {
		s.buf[s.seq%uint64(cap(s.buf))] = Point{TS: ts, V: v}
		s.dropped++
	}
	s.seq++
	s.mu.Unlock()
}

// Len returns the number of points currently held.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Recorded returns the total number of points ever recorded.
func (s *Series) Recorded() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Points returns the held points oldest-first.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.buf))
	if len(s.buf) < cap(s.buf) {
		copy(out, s.buf)
		return out
	}
	head := int(s.seq % uint64(cap(s.buf)))
	n := copy(out, s.buf[head:])
	copy(out[n:], s.buf[:head])
	return out
}

// Recorder owns a set of named series. Series creation is rare (attachment
// setup); recording is lock-free against the registry (each series carries
// its own lock).
type Recorder struct {
	mu       sync.RWMutex
	capacity int
	series   map[string]*Series
	order    []string // sorted lazily at snapshot
}

// NewRecorder returns an empty recorder whose series hold up to capacity
// points each (<=0 selects DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{capacity: capacity, series: make(map[string]*Series)}
}

// Series returns the named series, creating it on first use.
func (r *Recorder) Series(name string, kind Kind) *Series {
	r.mu.RLock()
	s := r.series[name]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.series[name]; s != nil {
		return s
	}
	s = &Series{name: name, kind: kind, buf: make([]Point, 0, r.capacity)}
	r.series[name] = s
	r.order = append(r.order, name)
	return s
}

// Lookup returns the named series or nil.
func (r *Recorder) Lookup(name string) *Series {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.series[name]
}

// Stats summarizes the recorder for the metrics exposition.
func (r *Recorder) Stats() (series int, points, dropped uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, s := range r.series {
		s.mu.Lock()
		points += s.seq
		dropped += s.dropped
		s.mu.Unlock()
	}
	return len(r.series), points, dropped
}

// SeriesSnapshot is one series' frozen contents.
type SeriesSnapshot struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`
}

// Snapshot is a frozen, name-sorted copy of every series — the unit the
// REST endpoint serves, tfmon renders, and detectors analyze. Byte-stable:
// series sort by name, points are oldest-first.
type Snapshot struct {
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot freezes every series, sorted by name.
func (r *Recorder) Snapshot() Snapshot {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	r.mu.RUnlock()
	sort.Strings(names)
	snap := Snapshot{Series: make([]SeriesSnapshot, 0, len(names))}
	for _, name := range names {
		s := r.Lookup(name)
		if s == nil {
			continue
		}
		snap.Series = append(snap.Series, SeriesSnapshot{
			Name: s.name, Kind: s.kind.String(), Points: s.Points(),
		})
	}
	return snap
}

// Filter returns a sub-snapshot holding only series accepted by keep.
// Detect harnesses use it to strip the shard.* and sim.* runtime series,
// which differ by shard count, before scoring.
func (s Snapshot) Filter(keep func(name string) bool) Snapshot {
	out := Snapshot{}
	for _, ss := range s.Series {
		if keep(ss.Name) {
			out.Series = append(out.Series, ss)
		}
	}
	return out
}

// ClockSampler drives wall-domain sampling deterministically: it wraps a
// trace.WallClock-shaped function and invokes the sample callback every
// Every readings, passing the freshly read timestamp. Seeded control-plane
// harnesses hand their StepClock through a ClockSampler so samples land at
// deterministic points of the saga event stream.
type ClockSampler struct {
	Every  int64 // sample every N clock readings (<=0: every 16)
	Sample func(ts int64)

	n int64
}

// Wrap returns a clock that ticks inner and samples on cadence.
func (cs *ClockSampler) Wrap(inner func() int64) func() int64 {
	every := cs.Every
	if every <= 0 {
		every = 16
	}
	return func() int64 {
		ts := inner()
		cs.n++
		if cs.n%every == 0 && cs.Sample != nil {
			cs.Sample(ts)
		}
		return ts
	}
}
