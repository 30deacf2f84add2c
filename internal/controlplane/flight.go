package controlplane

import (
	"net/http"
	"strings"

	"thymesisflow/internal/instrument"
	"thymesisflow/internal/timeseries"
	"thymesisflow/internal/timeseries/detect"
)

// SetFlightRecorder attaches the time-series flight recorder and online
// anomaly detector served read-only under GET /v1/timeseries and
// GET /v1/anomalies. Either may be nil; unconfigured endpoints answer 404.
// Recorder and detector are internally synchronized, so the pointers are
// kept in atomics that samplers and the REST layer read without the
// service lock — samplers tick them from their own goroutine (tfd) or
// clock tap (seeded harnesses) while the REST layer reads.
func (s *Service) SetFlightRecorder(rec *timeseries.Recorder, det *detect.Detector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flightRec.Store(rec)
	s.flightDet.Store(det)
	s.registerHealth(nil, rec, det)
}

// FlightRecorder returns the attached recorder (nil when unconfigured).
func (s *Service) FlightRecorder() *timeseries.Recorder { return s.flightRec.Load() }

// FlightDetector returns the attached detector (nil when unconfigured).
func (s *Service) FlightDetector() *detect.Detector { return s.flightDet.Load() }

// FlightSampler records the service's cp.* instruments (Instruments) into
// the flight recorder and streams every sample through the anomaly
// detector — the wall-clock tick-domain counterpart of the datapath grid
// sampler. It reads only atomic counters, so it is safe to call from a
// timer goroutine while sagas execute.
type FlightSampler struct {
	set     instrument.Sampler
	observe func(name string, ts int64, v float64)
}

// NewFlightSampler builds a sampler over svc recording into rec and
// feeding det (det may be nil for record-only operation).
func NewFlightSampler(svc *Service, rec *timeseries.Recorder, det *detect.Detector) *FlightSampler {
	fs := &FlightSampler{}
	fs.set.Add(rec, instrument.BindFunc("", Instruments, svc.Reading))
	if det != nil {
		fs.observe = det.Observe
	}
	return fs
}

// Sample records one reading of every cp.* series at ts (nanoseconds in
// the caller's wall domain).
func (fs *FlightSampler) Sample(ts int64) { fs.set.Sample(ts, fs.observe) }

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
