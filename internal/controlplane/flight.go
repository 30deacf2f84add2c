package controlplane

import (
	"net/http"
	"strings"

	"thymesisflow/internal/timeseries"
	"thymesisflow/internal/timeseries/detect"
)

// SetFlightRecorder attaches the time-series flight recorder and online
// anomaly detector served read-only under GET /v1/timeseries and
// GET /v1/anomalies. Either may be nil; unconfigured endpoints answer 404.
// Recorder and detector are internally synchronized, so the pointers are
// kept in atomics and never touch the service lock — samplers tick them
// from their own goroutine (tfd) or clock tap (seeded harnesses) while the
// REST layer reads.
func (s *Service) SetFlightRecorder(rec *timeseries.Recorder, det *detect.Detector) {
	s.flightRec.Store(rec)
	s.flightDet.Store(det)
}

// FlightRecorder returns the attached recorder (nil when unconfigured).
func (s *Service) FlightRecorder() *timeseries.Recorder { return s.flightRec.Load() }

// FlightDetector returns the attached detector (nil when unconfigured).
func (s *Service) FlightDetector() *detect.Detector { return s.flightDet.Load() }

// FlightSampler records the service's saga counters into the cp.* flight-
// recorder series schema (docs/OBSERVABILITY.md) and streams every sample
// through the anomaly detector — the wall-clock tick-domain counterpart of
// the datapath grid sampler. It reads only atomic counters, so it is safe
// to call from a timer goroutine while sagas execute.
type FlightSampler struct {
	svc *Service
	det *detect.Detector

	retries, repairs, parked, rejected, inflight *timeseries.Series
}

// NewFlightSampler builds a sampler over svc recording into rec and
// feeding det (det may be nil for record-only operation).
func NewFlightSampler(svc *Service, rec *timeseries.Recorder, det *detect.Detector) *FlightSampler {
	return &FlightSampler{
		svc:      svc,
		det:      det,
		retries:  rec.Series("cp.saga_retries", timeseries.Counter),
		repairs:  rec.Series("cp.reconcile_repairs", timeseries.Counter),
		parked:   rec.Series("cp.sagas_parked", timeseries.Counter),
		rejected: rec.Series("cp.sagas_rejected", timeseries.Counter),
		inflight: rec.Series("cp.saga_inflight", timeseries.Gauge),
	}
}

// Sample records one reading of every cp.* series at ts (nanoseconds in
// the caller's wall domain).
func (fs *FlightSampler) Sample(ts int64) {
	c := fs.svc.Counters()
	fs.record(fs.retries, ts, float64(c.SagaRetries))
	fs.record(fs.repairs, ts, float64(c.ReconcileRepairs))
	fs.record(fs.parked, ts, float64(c.SagasParked))
	fs.record(fs.rejected, ts, float64(c.SagasRejected))
	fs.record(fs.inflight, ts, float64(fs.svc.InflightSagas()))
}

func (fs *FlightSampler) record(s *timeseries.Series, ts int64, v float64) {
	s.Record(ts, v)
	if fs.det != nil {
		fs.det.Observe(s.Name(), ts, v)
	}
}

// handleTimeseries serves a frozen snapshot of the flight-recorder series.
// Reader-visible like the aggregate metrics. ?format=binary streams the
// TFTS wire format (what tfmon decodes); ?prefix=llc. filters to one
// series family.
func (a *API) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if !a.authorize(w, r, RoleReader) {
		return
	}
	rec := a.svc.FlightRecorder()
	if rec == nil {
		writeErr(w, http.StatusNotFound, "flight recorder not configured")
		return
	}
	snap := rec.Snapshot()
	if prefix := r.URL.Query().Get("prefix"); prefix != "" {
		snap = snap.Filter(func(name string) bool { return strings.HasPrefix(name, prefix) })
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, snap)
	case "binary":
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(timeseries.EncodeSnapshot(snap)) //nolint:errcheck
	default:
		writeErr(w, http.StatusBadRequest, "unknown format "+format)
	}
}

// anomaliesView is the JSON shape of GET /v1/anomalies.
type anomaliesView struct {
	Active int               `json:"active"`
	Totals map[string]uint64 `json:"totals"`
	Events []detect.Event    `json:"events"`
}

// handleAnomalies serves the detector's event list (closed and still-open
// anomalies) plus the active/total tallies the anomaly_* metrics export.
func (a *API) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if !a.authorize(w, r, RoleReader) {
		return
	}
	det := a.svc.FlightDetector()
	if det == nil {
		writeErr(w, http.StatusNotFound, "anomaly detection not configured")
		return
	}
	writeJSON(w, http.StatusOK, anomaliesView{
		Active: det.Active(),
		Totals: det.Totals(),
		Events: det.Events(),
	})
}
