package controlplane

import (
	"net/http"
	"net/http/pprof"
	"strings"

	"thymesisflow/internal/core"
	"thymesisflow/internal/metrics"
	"thymesisflow/internal/timeseries/detect"
	"thymesisflow/internal/trace"
)

// LatencyReporter supplies cluster latency-attribution breakdowns;
// *core.Cluster implements it.
type LatencyReporter interface {
	LatencyReport() core.LatencyReport
}

// SetTelemetry attaches the live metrics registry and trace ring the REST
// layer serves under GET /v1/metrics and GET /v1/trace/snapshot. Either may
// be nil; unconfigured telemetry endpoints answer 404.
func (s *Service) SetTelemetry(reg *metrics.Registry, ring *trace.Ring) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = reg
	s.ring = ring
	if reg != nil {
		reg.AddCollector(s.collectSagaCounters)
	}
}

// collectSagaCounters pulls the fault-handling counters into the registry at
// snapshot time, so saga_retries, saga_compensations, recovery_replays,
// reconcile_repairs (and friends) appear under GET /v1/metrics alongside the
// datapath instruments.
func (s *Service) collectSagaCounters(reg *metrics.Registry) {
	c := s.Counters()
	for name, v := range map[string]int64{
		"saga_retries":          c.SagaRetries,
		"saga_compensations":    c.SagaCompensations,
		"recovery_replays":      c.RecoveryReplays,
		"reconcile_repairs":     c.ReconcileRepairs,
		"detach_agent_failures": c.DetachAgentFailures,
		"sagas_parked":          c.SagasParked,
		"sagas_rejected":        c.SagasRejected,
	} {
		ctr := reg.Counter(name)
		ctr.Reset()
		ctr.Add(v)
	}
	// Event-log health: how much of the saga timeline the bounded log still
	// holds. A growing dropped count means the capacity is too small for the
	// saga rate.
	if elog := s.elogShared.Load(); elog != nil {
		reg.Gauge("cp.events_recorded").Set(float64(elog.Recorded()))
		reg.Gauge("cp.events_dropped").Set(float64(elog.Dropped()))
	}
	// Flight-recorder health (timeseries_*) and anomaly tallies (anomaly_*).
	// Every class appears even at zero, so the exposition's instrument set is
	// stable from the first scrape.
	if rec := s.flightRec.Load(); rec != nil {
		series, points, dropped := rec.Stats()
		reg.Gauge("timeseries.series").Set(float64(series))
		reg.Gauge("timeseries.points").Set(float64(points))
		reg.Gauge("timeseries.dropped").Set(float64(dropped))
	}
	if det := s.flightDet.Load(); det != nil {
		reg.Gauge("anomaly.active").Set(float64(det.Active()))
		totals := det.Totals()
		for _, class := range detect.Classes() {
			ctr := reg.Counter("anomaly.total." + snakeClass(class))
			ctr.Reset()
			ctr.Add(int64(totals[class])) //nolint:gosec // event counts, far below int64
		}
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

// MetricsSnapshot captures the registry under the service lock, so the
// collector pass is serialized against concurrent Attach/Detach mutating the
// cluster the collectors read from. ok is false when no registry is
// configured.
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
