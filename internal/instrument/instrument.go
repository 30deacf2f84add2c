// Package instrument declares the stack's scalar telemetry once per layer.
// Each layer exports one table of Defs — a name, a kind (counter or gauge)
// and a pure read of the layer's state — next to the code it observes:
// llc.Instruments for ports, phy.Instruments for channels, the cluster,
// host and shard tables in core, controlplane.Instruments for the saga
// counters, the control plane's event-log, recorder and detector health
// tables, and the churn replay's report tables in bench. Every telemetry
// surface derives from those tables: Bind instantiates a table for one
// live object under a name prefix, Register publishes the bound probes
// into a metrics.Registry (read at snapshot time), and the flight
// recorders sample the same reads at their tick instants. One definition
// gives every surface the same name and kind.
package instrument

import (
	"thymesisflow/internal/metrics"
	"thymesisflow/internal/timeseries"
)

// Def is one scalar instrument of a layer: its name (a suffix appended to
// the bound object's prefix), its kind, and a read of the layer's state.
// Reads are pure — no sampler-side state — so a registry scrape and a
// recorder sample of the same instant agree.
type Def[T any] struct {
	Name string
	Kind timeseries.Kind
	Read func(T) float64
}

// Counter declares a monotonic cumulative instrument.
func Counter[T any](name string, read func(T) float64) Def[T] {
	return Def[T]{Name: name, Kind: timeseries.Counter, Read: read}
}

// Gauge declares an instantaneous-level instrument.
func Gauge[T any](name string, read func(T) float64) Def[T] {
	return Def[T]{Name: name, Kind: timeseries.Gauge, Read: read}
}

// Probe is one instrument bound to one object: its full name, its kind and
// a read closure over the object.
type Probe struct {
	Name string
	Kind timeseries.Kind
	Read func() float64
}

// Bind instantiates defs for v, prefixing every name.
func Bind[T any](prefix string, defs []Def[T], v T) []Probe {
	return BindFunc(prefix, defs, func() T { return v })
}

// BindFunc instantiates defs over a live source: every read takes a fresh
// value from src (a method value such as Service.Reading).
func BindFunc[T any](prefix string, defs []Def[T], src func() T) []Probe {
	out := make([]Probe, len(defs))
	for i, d := range defs {
		read := d.Read
		out[i] = Probe{Name: prefix + d.Name, Kind: d.Kind, Read: func() float64 { return read(src()) }}
	}
	return out
}

// Register publishes probes into reg under prefix: counters as
// CounterFuncs, gauges as GaugeFuncs, both read at snapshot time.
func Register(reg *metrics.Registry, prefix string, probes []Probe) {
	for _, p := range probes {
		if p.Kind == timeseries.Counter {
			reg.CounterFunc(prefix+p.Name, p.Read)
		} else {
			reg.GaugeFunc(prefix+p.Name, p.Read)
		}
	}
}

// Sampler records a growing set of probes into flight-recorder series.
// The zero value is empty and ready to use.
type Sampler struct {
	probes []Probe
	series []*timeseries.Series
}

// Add resolves one rec series per probe (name and kind from the probe)
// and appends the pairs to the sample set.
func (s *Sampler) Add(rec *timeseries.Recorder, probes []Probe) {
	for _, p := range probes {
		s.probes = append(s.probes, p)
		s.series = append(s.series, rec.Series(p.Name, p.Kind))
	}
}

// Sample records one reading of every probe at ts, handing each value to
// observe as well when it is non-nil (an online anomaly detector). It
// allocates nothing.
func (s Sampler) Sample(ts int64, observe func(name string, ts int64, v float64)) {
	for i, p := range s.probes {
		v := p.Read()
		s.series[i].Record(ts, v)
		if observe != nil {
			observe(p.Name, ts, v)
		}
	}
}
