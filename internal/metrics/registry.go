package metrics

import (
	"encoding/json"
	"io"
	"maps"
	"sync"
)

// Registry is a named view of read functions: every counter, gauge and
// histogram it exposes is a function registered once and evaluated at
// snapshot time. It holds no values of its own. Scalar instruments reach it
// through the instrument tables of internal/instrument (llc, phy, core,
// control plane, replay); histograms through HistogramFunc adapters over
// component-owned distributions such as a latency.Sink.
//
// Registry is safe for concurrent use. Snapshot consistency is per
// instrument, not global: a snapshot taken while the simulation runs sees
// each read at some recent value.
type Registry struct {
	mu         sync.Mutex
	counterFns map[string]func() float64
	gaugeFns   map[string]func() float64
	histFns    map[string]func() HistogramSummary
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counterFns: make(map[string]func() float64),
		gaugeFns:   make(map[string]func() float64),
		histFns:    make(map[string]func() HistogramSummary),
	}
}

// CounterFunc registers a counter whose cumulative value is read at
// snapshot time (truncated to int64). Re-registering a name replaces the
// function.
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

// HistogramFunc registers a histogram whose summary is computed at snapshot
// time. Re-registering a name replaces the function.
func (r *Registry) HistogramFunc(name string, fn func() HistogramSummary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.histFns[name] = fn
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

// Snapshot evaluates every registered function. The functions run outside
// the registry lock: they may synchronize on component-internal state (a
// latency.Sink or an event-log mutex) that must not nest inside it.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := maps.Clone(r.counterFns)
	gauges := maps.Clone(r.gaugeFns)
	hists := maps.Clone(r.histFns)
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistogramSummary, len(hists)),
	}
	for name, fn := range counters {
		s.Counters[name] = int64(fn())
	}
	for name, fn := range gauges {
		s.Gauges[name] = fn()
	}
	for name, fn := range hists {
		s.Histograms[name] = fn()
	}
	return s
}

// WriteJSON writes an indented snapshot of the registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
