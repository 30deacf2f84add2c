package metrics

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Gauge is an instantaneous value (queue depth, live attachment count).
// Like Counter, updates and reads are atomic.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry aggregates named counters, gauges, and histograms behind one
// snapshot interface, replacing per-component ad-hoc stat structs as the way
// telemetry leaves the simulation. Components either hold instruments
// obtained from Counter/Gauge/Histogram and update them inline, register
// read functions (CounterFunc/GaugeFunc) evaluated at snapshot time — how
// the instrument tables of internal/instrument publish llc, phy, core and
// control-plane state — or register a collector (AddCollector) that pulls
// values in at snapshot time.
//
// Registry is safe for concurrent use. Snapshot consistency is per
// instrument, not global: a snapshot taken while the simulation runs sees
// each counter at some recent value.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	counterFns map[string]func() float64
	gauges     map[string]*Gauge
	gaugeFns   map[string]func() float64
	hists      map[string]*Histogram
	histFns    map[string]func() HistogramSummary
	collectors []func(*Registry)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		counterFns: make(map[string]func() float64),
		gauges:     make(map[string]*Gauge),
		gaugeFns:   make(map[string]func() float64),
		hists:      make(map[string]*Histogram),
		histFns:    make(map[string]func() HistogramSummary),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// CounterFunc registers a counter whose cumulative value is read at
// snapshot time (truncated to int64) — for components that keep their own
// monotonic totals. Re-registering a name replaces the function.
func (r *Registry) CounterFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counterFns[name] = fn
}

// GaugeFunc registers a gauge whose value is computed at snapshot time
// (e.g. the kernel's pending-event count). Re-registering a name replaces
// the function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns the named histogram, creating it on first use.
// Histogram itself is not synchronized: observe from one goroutine (one
// simulation kernel), or merge per-worker histograms with Merge.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// HistogramFunc registers a histogram whose summary is computed at snapshot
// time — the adapter for components that keep their own synchronized
// distributions (e.g. a latency.Sink) rather than observing into a registry
// histogram. Like collectors, the function runs outside the registry lock.
// Re-registering a name replaces the function.
func (r *Registry) HistogramFunc(name string, fn func() HistogramSummary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.histFns[name] = fn
}

// AddCollector registers a pull hook run at the start of every Snapshot.
// Collectors convert component-internal stats into registry instruments;
// they run outside the registry lock and may freely call Counter/Gauge/etc.
func (r *Registry) AddCollector(fn func(*Registry)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// HistogramSummary is the snapshot form of a histogram.
type HistogramSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]int64            `json:"counters,omitempty"`
	Gauges     map[string]float64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
}

// Snapshot runs the registered collectors, then captures every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	cols := append([]func(*Registry){}, r.collectors...)
	hfns := make(map[string]func() HistogramSummary, len(r.histFns))
	for name, fn := range r.histFns {
		hfns[name] = fn
	}
	r.mu.Unlock()
	for _, fn := range cols {
		fn(r)
	}
	// Histogram functions also run outside the lock: they may synchronize on
	// component-internal state (a latency.Sink mutex) that must not nest
	// inside r.mu.
	hsums := make(map[string]HistogramSummary, len(hfns))
	for name, fn := range hfns {
		hsums[name] = fn()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)+len(r.counterFns)),
		Gauges:     make(map[string]float64, len(r.gauges)+len(r.gaugeFns)),
		Histograms: make(map[string]HistogramSummary, len(r.hists)+len(hsums)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, fn := range r.counterFns {
		s.Counters[name] = int64(fn())
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistogramSummary{
			Count: h.Count(), Mean: h.Mean(),
			P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99),
			P999: h.Quantile(0.999), Max: h.Max(),
		}
	}
	for name, sum := range hsums {
		s.Histograms[name] = sum
	}
	return s
}

// Delta returns the change from prev to s: counters are subtracted
// (counters absent from prev pass through); gauges and histogram summaries
// are instantaneous, so the current values are kept as-is.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     s.Gauges,
		Histograms: s.Histograms,
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	return out
}

// WriteJSON writes an indented snapshot of the registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
