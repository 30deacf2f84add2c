package controlplane

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"thymesisflow/internal/metrics"
	"thymesisflow/internal/timeseries"
	"thymesisflow/internal/timeseries/detect"
	"thymesisflow/internal/trace"
)

// exposition drives a service with every registry-facing attachment (saga
// tracing on a step clock, a flight recorder with a detector, a registry
// with a trace ring) through a few sagas and samples, and returns its full
// Prometheus text followed by its JSON snapshot. telemetryFirst attaches
// the registry before the event log and flight recorder, otherwise after.
func exposition(t *testing.T, telemetryFirst bool) []byte {
	t.Helper()
	svc, _ := testService(t)
	reg := metrics.NewRegistry()
	elog := trace.NewEventLog(16) // small enough that the run evicts events
	rec := timeseries.NewRecorder(4)
	det := detect.New(detect.ControlPlaneRules())
	if telemetryFirst {
		svc.SetTelemetry(reg, trace.NewRing(64))
	}
	svc.SetSagaTracing(elog, trace.StepClock(0, 10))
	svc.SetFlightRecorder(rec, det)
	if !telemetryFirst {
		svc.SetTelemetry(reg, trace.NewRing(64))
	}

	fs := NewFlightSampler(svc, rec, det)
	fs.Sample(100)
	attach := func(donor string, ts int64) string {
		r, err := svc.Attach(AttachRequest{ComputeHost: "node0", DonorHost: donor, Bytes: 1 << 20, Channels: 1})
		if err != nil {
			t.Fatal(err)
		}
		fs.Sample(ts)
		return r.ID
	}
	first := attach("node1", 200)
	attach("node2", 300)
	if err := svc.Detach(first); err != nil {
		t.Fatal(err)
	}
	fs.Sample(400)
	attach("node1", 500)
	// A retry storm the detector opens, so one anomaly tally is non-zero.
	for i, v := range []float64{0, 7, 14} {
		det.Observe("cp.saga_retries", int64(700+100*i), v)
	}

	snap, ok := svc.MetricsSnapshot()
	if !ok {
		t.Fatal("telemetry configured but MetricsSnapshot not ok")
	}
	var out bytes.Buffer
	if err := snap.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	out.Write(js)
	return out.Bytes()
}

// TestControlPlaneExpositionPinned pins the whole control-plane scrape —
// every name, kind and value of the Prometheus text and of the JSON
// snapshot — whichever way round the registry and the event log, recorder
// and detector are attached.
func TestControlPlaneExpositionPinned(t *testing.T) {
	const want = "74e12a4c5276890bf585edbb6e8dfc0a72507fd04b596645b720c1700f5ebf1a"
	for _, telemetryFirst := range []bool{true, false} {
		body := exposition(t, telemetryFirst)
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("telemetryFirst=%v: exposition hash %s, want %s\n%s", telemetryFirst, got, want, body)
		}
	}
}
