package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"thymesisflow/internal/core"
	"thymesisflow/internal/trace"
)

// TestProbeDatapathCoversTransactionLayers builds a small traced testbed,
// runs the datapath probe, and checks every layer of the transaction path
// shows up in the recorded trace — the coverage a traced fig5 run relies on,
// since STREAM itself is priced through the analytic backend. The rmmu is
// not required: translation takes no simulated time, so it contributes no
// stage span, and a clean probe raises no translate_fault.
func TestProbeDatapathCoversTransactionLayers(t *testing.T) {
	tb, err := core.NewTestbed(core.ConfigSingleDisaggregated, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(1 << 16)
	tb.Cluster.K.SetTracer(ring)
	probeDatapath(tb)

	layers := make(map[string]int)
	for _, e := range ring.Snapshot() {
		layers[e.Layer]++
	}
	for _, want := range []string{
		trace.LayerSim, trace.LayerLLC, trace.LayerCAPI, trace.LayerPhy,
	} {
		if layers[want] == 0 {
			t.Fatalf("layer %q absent from probe trace (got %v)", want, layers)
		}
	}

	// The export must be loadable Chrome trace-event JSON.
	var buf bytes.Buffer
	if err := ring.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(layers) {
		t.Fatalf("exported %d events for %d layers", len(doc.TraceEvents), len(layers))
	}
}

// TestProbeDatapathNoAttachment checks the probe is a no-op for
// configurations without an attachment (local, scale-out).
func TestProbeDatapathNoAttachment(t *testing.T) {
	tb, err := core.NewTestbed(core.ConfigLocal, 0)
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(64)
	tb.Cluster.K.SetTracer(ring)
	probeDatapath(tb)
	if n := ring.Len(); n != 0 {
		t.Fatalf("probe on attachment-less testbed recorded %d events", n)
	}
}
