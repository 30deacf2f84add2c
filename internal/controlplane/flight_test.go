package controlplane

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"thymesisflow/internal/metrics"
	"thymesisflow/internal/timeseries"
	"thymesisflow/internal/timeseries/detect"
)

func TestFlightEndpointsNotConfigured(t *testing.T) {
	api, _ := restAPI(t)
	for _, path := range []string{"/v1/timeseries", "/v1/anomalies"} {
		if w := doReq(t, api, http.MethodGet, path, "reader-tok", nil); w.Code != http.StatusNotFound {
			t.Fatalf("unconfigured GET %s = %d", path, w.Code)
		}
	}
}

func TestTimeseriesEndpoint(t *testing.T) {
	api, svc := restAPI(t)
	rec := timeseries.NewRecorder(64)
	svc.SetFlightRecorder(rec, detect.New(detect.ControlPlaneRules()))
	rec.Series("cp.saga_retries", timeseries.Counter).Record(10, 1)
	rec.Series("cp.saga_inflight", timeseries.Gauge).Record(10, 2)
	rec.Series("llc.att-0.p0.credits", timeseries.Gauge).Record(10, 256)

	// Reader-gated: anonymous 401, reader OK.
	if w := doReq(t, api, http.MethodGet, "/v1/timeseries", "", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("anonymous GET /v1/timeseries = %d", w.Code)
	}
	w := doReq(t, api, http.MethodGet, "/v1/timeseries", "reader-tok", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("reader GET /v1/timeseries = %d body=%s", w.Code, w.Body.String())
	}
	var snap timeseries.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Series) != 3 || snap.Series[0].Name != "cp.saga_inflight" {
		t.Fatalf("snapshot series = %+v", snap.Series)
	}

	// prefix= filters to one family.
	w = doReq(t, api, http.MethodGet, "/v1/timeseries?prefix=llc.", "reader-tok", nil)
	var filtered timeseries.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Series) != 1 || filtered.Series[0].Name != "llc.att-0.p0.credits" {
		t.Fatalf("filtered series = %+v", filtered.Series)
	}

	// format=binary serves the TFTS wire format, decodable round trip.
	w = doReq(t, api, http.MethodGet, "/v1/timeseries?format=binary", "reader-tok", nil)
	if ct := w.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("binary Content-Type = %q", ct)
	}
	decoded, err := timeseries.DecodeSnapshot(w.Body.Bytes())
	if err != nil {
		t.Fatalf("binary snapshot does not decode: %v", err)
	}
	if len(decoded.Series) != 3 {
		t.Fatalf("binary snapshot = %d series, want 3", len(decoded.Series))
	}

	if w := doReq(t, api, http.MethodGet, "/v1/timeseries?format=xml", "reader-tok", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown format = %d", w.Code)
	}
}

func TestAnomaliesEndpoint(t *testing.T) {
	api, svc := restAPI(t)
	det := detect.New(detect.ControlPlaneRules())
	svc.SetFlightRecorder(timeseries.NewRecorder(64), det)

	// A retry burst between samples opens (and later clears) a
	// SagaRetryStorm.
	for i, v := range []float64{0, 0, 5, 9, 9, 9, 9, 9, 9, 9, 9} {
		det.Observe("cp.saga_retries", int64(i+1)*100, v)
	}

	if w := doReq(t, api, http.MethodGet, "/v1/anomalies", "", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("anonymous GET /v1/anomalies = %d", w.Code)
	}
	w := doReq(t, api, http.MethodGet, "/v1/anomalies", "reader-tok", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("reader GET /v1/anomalies = %d body=%s", w.Code, w.Body.String())
	}
	var view anomaliesView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Totals[detect.SagaRetryStorm] != 1 || len(view.Events) != 1 {
		t.Fatalf("anomalies view = %+v", view)
	}
	if view.Events[0].Class != detect.SagaRetryStorm || view.Events[0].OnsetTS != 300 {
		t.Fatalf("event = %+v", view.Events[0])
	}

	if w := doReq(t, api, http.MethodPost, "/v1/anomalies", "admin-tok", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/anomalies = %d", w.Code)
	}
}

// TestFlightPrometheusExposition: with a recorder and detector attached,
// the metrics scrape gains timeseries_* health gauges and one
// anomaly_total_* counter per class (all six, even at zero), plus
// anomaly_active.
func TestFlightPrometheusExposition(t *testing.T) {
	api, svc := restAPI(t)
	svc.SetTelemetry(metrics.NewRegistry(), nil)
	rec := timeseries.NewRecorder(64)
	det := detect.New(detect.ControlPlaneRules())
	svc.SetFlightRecorder(rec, det)
	rec.Series("cp.saga_retries", timeseries.Counter).Record(10, 0)
	for i, v := range []float64{0, 7, 14} {
		det.Observe("cp.saga_retries", int64(i+1)*100, v)
	}

	w := doReq(t, api, http.MethodGet, "/v1/metrics?format=prometheus", "reader-tok", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"timeseries_series 1\n",
		"timeseries_points 1\n",
		"timeseries_dropped 0\n",
		"anomaly_active 1\n",
		"anomaly_total_saga_retry_storm 1\n",
		"anomaly_total_credit_starvation 0\n",
		"anomaly_total_replay_storm 0\n",
		"anomaly_total_link_degraded 0\n",
		"anomaly_total_link_dead 0\n",
		"anomaly_total_reconciler_backlog 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestFlightSamplerRecordsCounters drives a real attach through the saga
// engine and asserts the sampler lands the cp.* schema in the recorder.
func TestFlightSamplerRecordsCounters(t *testing.T) {
	svc, _ := testService(t)
	rec := timeseries.NewRecorder(64)
	det := detect.New(detect.ControlPlaneRules())
	fs := NewFlightSampler(svc, rec, det)

	fs.Sample(100)
	if _, err := svc.Attach(AttachRequest{ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1}); err != nil {
		t.Fatal(err)
	}
	fs.Sample(200)

	want := []string{
		"cp.detach_agent_failures", "cp.reconcile_repairs", "cp.recovery_replays",
		"cp.saga_compensations", "cp.saga_inflight", "cp.saga_retries",
		"cp.sagas_parked", "cp.sagas_rejected",
	}
	snap := rec.Snapshot()
	if len(snap.Series) != len(want) {
		t.Fatalf("series = %+v", snap.Series)
	}
	for i, name := range want {
		if snap.Series[i].Name != name {
			t.Fatalf("series[%d] = %s, want %s", i, snap.Series[i].Name, name)
		}
		if len(snap.Series[i].Points) != 2 {
			t.Fatalf("series %s has %d points, want 2", name, len(snap.Series[i].Points))
		}
	}
	// A healthy attach produces no anomalies.
	if det.Active() != 0 || len(det.Events()) != 0 {
		t.Fatalf("healthy run produced anomalies: %+v", det.Events())
	}
}
