package controlplane

import (
	"net/http"
	"net/http/pprof"
	"strings"

	"thymesisflow/internal/core"
	"thymesisflow/internal/instrument"
	"thymesisflow/internal/metrics"
	"thymesisflow/internal/timeseries"
	"thymesisflow/internal/timeseries/detect"
	"thymesisflow/internal/trace"
)

// LatencyReporter supplies cluster latency-attribution breakdowns;
// *core.Cluster implements it.
type LatencyReporter interface {
	LatencyReport() core.LatencyReport
}

// Reading is the control plane's scalar state at one instant: the saga
// counters and the number of sagas in flight.
type Reading struct {
	SagaCounters
	Inflight int
}

// Reading samples the service's atomic counters. It takes no lock, so it is
// safe from a timer goroutine or a clock tap while sagas execute.
func (s *Service) Reading() Reading {
	return Reading{SagaCounters: s.Counters(), Inflight: s.InflightSagas()}
}

// Instruments is the control plane's cp.* instrument table. The metrics
// registry (SetTelemetry), FlightSampler and the chaos campaign's
// CPObserver all bind it, so every surface carries the same names.
var Instruments = []instrument.Def[Reading]{
	counter("cp.saga_retries", func(r Reading) int64 { return r.SagaRetries }),
	counter("cp.saga_compensations", func(r Reading) int64 { return r.SagaCompensations }),
	counter("cp.recovery_replays", func(r Reading) int64 { return r.RecoveryReplays }),
	counter("cp.reconcile_repairs", func(r Reading) int64 { return r.ReconcileRepairs }),
	counter("cp.detach_agent_failures", func(r Reading) int64 { return r.DetachAgentFailures }),
	counter("cp.sagas_parked", func(r Reading) int64 { return r.SagasParked }),
	counter("cp.sagas_rejected", func(r Reading) int64 { return r.SagasRejected }),
	instrument.Gauge("cp.saga_inflight", func(r Reading) float64 { return float64(r.Inflight) }),
}

func counter(name string, field func(Reading) int64) instrument.Def[Reading] {
	return instrument.Counter(name, func(r Reading) float64 { return float64(field(r)) })
}

// The registry-only health tables: how much of the saga timeline the
// bounded event log still holds (a growing dropped count means the capacity
// is too small for the saga rate), flight-recorder occupancy, and the
// anomaly detector's tallies — one counter per class, so the exposition's
// instrument set is stable from the first scrape.
var (
	eventLogInstruments = []instrument.Def[*trace.EventLog]{
		instrument.Gauge("cp.events_recorded", func(l *trace.EventLog) float64 { return float64(l.Recorded()) }),
		instrument.Gauge("cp.events_dropped", func(l *trace.EventLog) float64 { return float64(l.Dropped()) }),
	}
	recorderInstruments = []instrument.Def[*timeseries.Recorder]{
		instrument.Gauge("timeseries.series", func(r *timeseries.Recorder) float64 {
			series, _, _ := r.Stats()
			return float64(series)
		}),
		instrument.Gauge("timeseries.points", func(r *timeseries.Recorder) float64 {
			_, points, _ := r.Stats()
			return float64(points)
		}),
		instrument.Gauge("timeseries.dropped", func(r *timeseries.Recorder) float64 {
			_, _, dropped := r.Stats()
			return float64(dropped)
		}),
	}
	detectorInstruments = func() []instrument.Def[*detect.Detector] {
		defs := []instrument.Def[*detect.Detector]{
			instrument.Gauge("anomaly.active", func(d *detect.Detector) float64 { return float64(d.Active()) }),
		}
		for _, class := range detect.Classes() {
			defs = append(defs, instrument.Counter("anomaly.total."+snakeClass(class),
				func(d *detect.Detector) float64 { return float64(d.Totals()[class]) }))
		}
		return defs
	}()
)

// SetTelemetry attaches the live metrics registry and trace ring the REST
// layer serves under GET /v1/metrics and GET /v1/trace/snapshot. Either may
// be nil; unconfigured telemetry endpoints answer 404.
func (s *Service) SetTelemetry(reg *metrics.Registry, ring *trace.Ring) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = reg
	s.ring = ring
	if reg != nil {
		instrument.Register(reg, "", instrument.BindFunc("", Instruments, s.Reading))
	}
	s.registerHealth(s.elog, s.flightRec.Load(), s.flightDet.Load())
}

// registerHealth publishes the health tables of whichever of log, rec and
// det are non-nil into the attached registry, if there is one. SetTelemetry
// passes everything already attached and the other attach points pass what
// they attach, so each table is registered as soon as both it and the
// registry are attached, whichever comes first. Callers hold s.mu.
func (s *Service) registerHealth(log *trace.EventLog, rec *timeseries.Recorder, det *detect.Detector) {
	if s.metrics == nil {
		return
	}
	if log != nil {
		instrument.Register(s.metrics, "", instrument.Bind("", eventLogInstruments, log))
	}
	if rec != nil {
		instrument.Register(s.metrics, "", instrument.Bind("", recorderInstruments, rec))
	}
	if det != nil {
		instrument.Register(s.metrics, "", instrument.Bind("", detectorInstruments, det))
	}
}

// snakeClass maps a CamelCase anomaly class to its snake_case metric
// suffix (ReplayStorm -> replay_storm).
func snakeClass(class string) string {
	var b strings.Builder
	b.Grow(len(class) + 4)
	for i, r := range class {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// SetLatency attaches the latency-attribution source served under
// GET /v1/latency. A nil reporter leaves the endpoint answering 404.
func (s *Service) SetLatency(rep LatencyReporter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latRep = rep
}

// LatencyReport captures the attribution report under the service lock, so
// the attachment walk is serialized against concurrent Attach/Detach. ok is
// false when no reporter is configured.
func (s *Service) LatencyReport() (core.LatencyReport, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latRep == nil {
		return core.LatencyReport{}, false
	}
	return s.latRep.LatencyReport(), true
}

// MetricsSnapshot captures the registry under the service lock, so its
// reads are serialized against concurrent Attach/Detach mutating the
// cluster they read from. ok is false when no registry is configured.
func (s *Service) MetricsSnapshot() (metrics.Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.metrics == nil {
		return metrics.Snapshot{}, false
	}
	return s.metrics.Snapshot(), true
}

// TraceRing returns the configured trace recorder (nil when tracing is not
// configured).
func (s *Service) TraceRing() *trace.Ring {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if !a.authorize(w, r, RoleReader) {
		return
	}
	snap, ok := a.svc.MetricsSnapshot()
	if !ok {
		writeErr(w, http.StatusNotFound, "telemetry not configured")
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, snap)
	case "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		snap.WritePrometheus(w) //nolint:errcheck
	default:
		writeErr(w, http.StatusBadRequest, "unknown format "+format)
	}
}

// handleLatency serves the per-attachment latency-attribution breakdowns.
// Reader-visible, like the aggregate metrics the stages roll up into.
func (a *API) handleLatency(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if !a.authorize(w, r, RoleReader) {
		return
	}
	rep, ok := a.svc.LatencyReport()
	if !ok {
		writeErr(w, http.StatusNotFound, "latency attribution not configured")
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleTraceSnapshot streams the retained trace as Chrome trace-event JSON.
// The trace exposes the fine-grained activity of every tenant's traffic, so
// it is admin-only where the aggregate metrics are reader-visible.
func (a *API) handleTraceSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if !a.authorize(w, r, RoleAdmin) {
		return
	}
	ring := a.svc.TraceRing()
	if ring == nil {
		writeErr(w, http.StatusNotFound, "telemetry not configured")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	ring.WriteChromeTrace(w) //nolint:errcheck
}

// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/,
// admin-gated with the same bearer-token scheme as the rest of the API.
// Off by default: profiling endpoints can stall the process and leak
// internals, so the operator opts in (tfd -pprof).
func (a *API) EnablePprof() {
	admin := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if !a.authorize(w, r, RoleAdmin) {
				return
			}
			h(w, r)
		}
	}
	a.mux.HandleFunc("/debug/pprof/", admin(pprof.Index))
	a.mux.HandleFunc("/debug/pprof/cmdline", admin(pprof.Cmdline))
	a.mux.HandleFunc("/debug/pprof/profile", admin(pprof.Profile))
	a.mux.HandleFunc("/debug/pprof/symbol", admin(pprof.Symbol))
	a.mux.HandleFunc("/debug/pprof/trace", admin(pprof.Trace))
}
