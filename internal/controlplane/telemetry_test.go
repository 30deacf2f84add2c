package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"thymesisflow/internal/metrics"
	"thymesisflow/internal/trace"
)

// restAPIWithTelemetry is restAPI plus a configured registry and trace ring.
func restAPIWithTelemetry(t *testing.T) (*API, *metrics.Registry, *trace.Ring) {
	t.Helper()
	api, svc := restAPI(t)
	reg := metrics.NewRegistry()
	ring := trace.NewRing(1 << 10)
	svc.SetTelemetry(reg, ring)
	return api, reg, ring
}

func TestMetricsEndpointAuth(t *testing.T) {
	api, reg, _ := restAPIWithTelemetry(t)
	reg.CounterFunc("attach_total", func() float64 { return 3 })

	// Reader can read aggregate metrics.
	w := doReq(t, api, http.MethodGet, "/v1/metrics", "reader-tok", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("reader GET /v1/metrics = %d body=%s", w.Code, w.Body.String())
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["attach_total"] != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// No token: 401.
	if w := doReq(t, api, http.MethodGet, "/v1/metrics", "", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("anonymous GET /v1/metrics = %d", w.Code)
	}
	// Wrong method: 405.
	if w := doReq(t, api, http.MethodPost, "/v1/metrics", "admin-tok", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/metrics = %d", w.Code)
	}
}

func TestTraceSnapshotEndpointAuth(t *testing.T) {
	api, _, ring := restAPIWithTelemetry(t)
	ring.Span(trace.LayerSim, "dispatch", 0, 1_000_000)
	ring.Instant(trace.LayerLLC, "rx_gap", 2_000_000)

	// The trace is admin-only: readers get 403, anonymous 401.
	if w := doReq(t, api, http.MethodGet, "/v1/trace/snapshot", "reader-tok", nil); w.Code != http.StatusForbidden {
		t.Fatalf("reader GET /v1/trace/snapshot = %d", w.Code)
	}
	if w := doReq(t, api, http.MethodGet, "/v1/trace/snapshot", "", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("anonymous GET /v1/trace/snapshot = %d", w.Code)
	}

	w := doReq(t, api, http.MethodGet, "/v1/trace/snapshot", "admin-tok", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("admin GET /v1/trace/snapshot = %d body=%s", w.Code, w.Body.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("trace snapshot is not valid JSON: %v", err)
	}
	// 2 recorded events + per-layer thread_name metadata.
	if len(doc.TraceEvents) < 2 {
		t.Fatalf("traceEvents = %d, want >= 2", len(doc.TraceEvents))
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	api, reg, _ := restAPIWithTelemetry(t)
	reg.CounterFunc("attach_total", func() float64 { return 3 })
	rtt := metrics.NewHistogram()
	rtt.Observe(950)
	reg.HistogramFunc("rtt_ns", rtt.Summary)

	w := doReq(t, api, http.MethodGet, "/v1/metrics?format=prometheus", "reader-tok", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET ?format=prometheus = %d body=%s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content-type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE attach_total counter\nattach_total 3\n",
		"# TYPE rtt_ns summary\n",
		"rtt_ns_count 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	// Explicit json format still serves the snapshot document.
	w = doReq(t, api, http.MethodGet, "/v1/metrics?format=json", "reader-tok", nil)
	var snap metrics.Snapshot
	if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &snap) != nil {
		t.Fatalf("GET ?format=json = %d body=%s", w.Code, w.Body.String())
	}
	// Unknown formats are a client error, and the format switch does not
	// bypass auth.
	if w := doReq(t, api, http.MethodGet, "/v1/metrics?format=xml", "reader-tok", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("GET ?format=xml = %d", w.Code)
	}
	if w := doReq(t, api, http.MethodGet, "/v1/metrics?format=prometheus", "", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("anonymous prometheus scrape = %d", w.Code)
	}
}

// TestPrometheusSagaTraceInstruments pins the event-log instruments: with
// saga tracing on, cp_events_recorded / cp_events_dropped surface in the
// Prometheus exposition, track the log exactly, and scrape byte-stable at
// quiescence.
func TestPrometheusSagaTraceInstruments(t *testing.T) {
	svc, _ := testService(t)
	reg := metrics.NewRegistry()
	svc.SetTelemetry(reg, nil)
	// A tiny log: one attach+detach records far more than 8 events, so the
	// dropped counter is exercised too.
	elog := trace.NewEventLog(8)
	svc.SetSagaTracing(elog, trace.StepClock(0, 10))

	rec, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Detach(rec.ID); err != nil {
		t.Fatal(err)
	}
	if elog.Dropped() == 0 {
		t.Fatal("tiny log never evicted; dropped counter untested")
	}

	snap, ok := svc.MetricsSnapshot()
	if !ok {
		t.Fatal("telemetry configured but MetricsSnapshot not ok")
	}
	var a bytes.Buffer
	if err := snap.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	out := a.String()
	for _, want := range []string{
		"# TYPE cp_events_recorded gauge\n",
		fmt.Sprintf("cp_events_recorded %d\n", elog.Recorded()),
		"# TYPE cp_events_dropped gauge\n",
		fmt.Sprintf("cp_events_dropped %d\n", elog.Dropped()),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Quiescent service: a second scrape must be byte-identical.
	snap2, _ := svc.MetricsSnapshot()
	var b bytes.Buffer
	if err := snap2.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if out != b.String() {
		t.Fatalf("quiescent scrapes differ:\n%s\n---\n%s", out, b.String())
	}
}

func TestLatencyEndpointAuth(t *testing.T) {
	svc, c := testService(t)
	api := NewAPI(svc, AuthConfig{
		AdminTokens:  []string{"admin-tok"},
		ReaderTokens: []string{"reader-tok"},
	})

	// Not configured: 404 (auth still checked first).
	if w := doReq(t, api, http.MethodGet, "/v1/latency", "reader-tok", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unconfigured GET /v1/latency = %d", w.Code)
	}

	c.EnableLatency()
	svc.SetLatency(c)

	if w := doReq(t, api, http.MethodGet, "/v1/latency", "", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("anonymous GET /v1/latency = %d", w.Code)
	}
	if w := doReq(t, api, http.MethodPost, "/v1/latency", "admin-tok", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/latency = %d", w.Code)
	}

	// Reader-visible, like the aggregate metrics.
	w := doReq(t, api, http.MethodGet, "/v1/latency", "reader-tok", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("reader GET /v1/latency = %d body=%s", w.Code, w.Body.String())
	}
	var rep struct {
		Enabled bool `json:"enabled"`
		Overall struct {
			Count int64 `json:"count"`
		} `json:"overall"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Enabled || rep.Overall.Count != 0 {
		t.Fatalf("report = %+v (idle cluster, attribution enabled)", rep)
	}
}

func TestTelemetryNotConfigured(t *testing.T) {
	api, _ := restAPI(t) // no SetTelemetry
	if w := doReq(t, api, http.MethodGet, "/v1/metrics", "reader-tok", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unconfigured GET /v1/metrics = %d", w.Code)
	}
	if w := doReq(t, api, http.MethodGet, "/v1/trace/snapshot", "admin-tok", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unconfigured GET /v1/trace/snapshot = %d", w.Code)
	}
}

func TestPprofAdminGated(t *testing.T) {
	api, _, _ := restAPIWithTelemetry(t)
	// Not mounted until EnablePprof: the mux falls through to 404.
	if w := doReq(t, api, http.MethodGet, "/debug/pprof/cmdline", "admin-tok", nil); w.Code != http.StatusNotFound {
		t.Fatalf("pprof before EnablePprof = %d, want 404", w.Code)
	}
	api.EnablePprof()
	if w := doReq(t, api, http.MethodGet, "/debug/pprof/cmdline", "reader-tok", nil); w.Code != http.StatusForbidden {
		t.Fatalf("reader pprof = %d, want 403", w.Code)
	}
	if w := doReq(t, api, http.MethodGet, "/debug/pprof/cmdline", "", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("anonymous pprof = %d, want 401", w.Code)
	}
	if w := doReq(t, api, http.MethodGet, "/debug/pprof/cmdline", "admin-tok", nil); w.Code != http.StatusOK {
		t.Fatalf("admin pprof = %d, want 200", w.Code)
	}
}
