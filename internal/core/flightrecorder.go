package core

import (
	"sync"

	"thymesisflow/internal/instrument"
	"thymesisflow/internal/sim"
	"thymesisflow/internal/timeseries"
)

// DefaultFlightTick is the default datapath sampling period: 5 us of
// virtual time. Samples are taken at absolute grid multiples of the tick,
// after every event at or before the grid instant has executed, so the
// instants are well-defined regardless of how the run is sharded.
const DefaultFlightTick sim.Time = 5_000_000

// FlightOptions parameterizes EnableFlightRecorder.
type FlightOptions struct {
	// Capacity is the per-series ring capacity (0 = timeseries default).
	Capacity int
	// Tick is the virtual sampling period (0 = DefaultFlightTick).
	Tick sim.Time
}

// shardSampler is the probe set of one shard: the instruments whose state
// that shard's kernel owns, so registration from inside a window takes only
// its own shard's lock.
type shardSampler struct {
	mu  sync.Mutex
	set instrument.Sampler
}

// flightRecorder is the cluster-wide recorder state.
type flightRecorder struct {
	rec      *timeseries.Recorder
	tick     sim.Time
	lastTS   int64 // newest sampled instant; dedups phase-boundary samples
	samplers []*shardSampler
}

// EnableFlightRecorder switches on the fabric flight recorder: subsequent
// Cluster.Run/RunUntil calls advance the simulation in opts.Tick grid steps
// and record the datapath instrument catalogue (metrics.go) — every sim,
// shard, capi, backend, llc and phy instrument, under the names the metrics
// registry uses — at each grid instant, while the shards are parked between
// conservative windows. Hosts and attachments added later are picked up
// automatically. Subsequent calls return the same recorder. A cluster that
// never calls this samples nothing and stays on the zero-overhead datapath —
// the recorder adds no simulation events either way, so a recorded run
// reproduces the unrecorded timeline exactly.
func (c *Cluster) EnableFlightRecorder(opts FlightOptions) *timeseries.Recorder {
	if c.flight != nil {
		return c.flight.rec
	}
	tick := opts.Tick
	if tick <= 0 {
		tick = DefaultFlightTick
	}
	fr := &flightRecorder{
		rec:      timeseries.NewRecorder(opts.Capacity),
		tick:     tick,
		samplers: make([]*shardSampler, c.Shards()),
	}
	for si := range fr.samplers {
		fr.samplers[si] = &shardSampler{}
	}
	c.flight = fr
	c.eachProbe(fr.add)
	return fr.rec
}

// sampleAll records one instant across every shard's probe set. The caller
// (runSampled) guarantees the cluster is quiescent, so the reads observe a
// globally consistent, race-free state. Instants that do not advance past
// the newest sample are dropped — repeated RunUntil calls on a drained
// cluster would otherwise duplicate the boundary sample.
func (fr *flightRecorder) sampleAll(now int64) {
	if now <= fr.lastTS {
		return
	}
	fr.lastTS = now
	for _, s := range fr.samplers {
		s.mu.Lock()
		set := s.set
		s.mu.Unlock()
		set.Sample(now, nil)
	}
}

// FlightRecorder returns the cluster's recorder (nil when disabled).
func (c *Cluster) FlightRecorder() *timeseries.Recorder {
	if c.flight == nil {
		return nil
	}
	return c.flight.rec
}

// add registers probes with the sampler of shard si, the shard that owns
// their state.
func (fr *flightRecorder) add(si int, probes []instrument.Probe) {
	s := fr.samplers[si]
	s.mu.Lock()
	s.set.Add(fr.rec, probes)
	s.mu.Unlock()
}
