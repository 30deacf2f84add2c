package trace

import (
	"bytes"
	"math"
	"testing"
)

// buildTrace records a synthetic trace of two concurrent transactions plus
// protocol events and round-trips it through the Chrome export, so the
// analysis path is tested against the real wire format. Transaction 2 runs
// inside transaction 1's window: grouping must go by id, not by overlap.
func buildTrace(t *testing.T) []ParsedEvent {
	t.Helper()
	r := NewRing(256)
	r.Instant(LayerRMMU, "translate_fault", 50_000)
	// Transaction 1: 1000 ns round trip with a 300 ns credit stall.
	r.Txn(LayerCAPI, "read_req", 0, 1_000_000, []Stage{
		{LayerCAPI, "capi_cross", 200_000}, {LayerLLC, "credit_stall", 300_000},
		{LayerPhy, "phy_flight", 50_000}, {LayerCAPI, "complete", 450_000},
	})
	// Transaction 2: 400 ns round trip, no stall.
	r.Txn(LayerCAPI, "write_req", 100_000, 500_000, []Stage{
		{LayerCAPI, "capi_cross", 200_000}, {LayerPhy, "phy_flight", 50_000},
		{LayerCAPI, "complete", 150_000},
	})
	r.Span(LayerPhy, "xmit", 450_000, 500_000)
	r.Span(LayerLLC, "replay", 5_000_000, 5_200_000)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestParseChromeTraceRoundTrip(t *testing.T) {
	events := buildTrace(t)
	if len(events) != 12 {
		t.Fatalf("parsed %d events, want 12 (metadata dropped)", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].TS < events[i-1].TS {
			t.Fatalf("events not sorted by timestamp")
		}
	}
	first := events[0]
	if first.Layer != LayerCAPI || first.Name != "read_req" || first.Dur != 1_000_000 || first.Txn == 0 {
		t.Fatalf("first event mangled: %+v", first)
	}
	ids := map[uint64]int{}
	for _, e := range events {
		if e.Txn != 0 {
			ids[e.Txn]++
		}
	}
	if len(ids) != 2 || ids[first.Txn] != 5 {
		t.Fatalf("txn ids read back = %v, want two transactions of 5 and 4 events", ids)
	}
}

func TestParseChromeTraceKeepsPicoseconds(t *testing.T) {
	// Times that are not whole nanoseconds survive the µs float export.
	r := NewRing(8)
	r.Txn(LayerCAPI, "read_req", 123_456_789_001, 123_456_789_001+950_001, []Stage{
		{LayerCAPI, "capi_cross", 212_500}, {LayerCAPI, "complete", 737_501},
	})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	txns := Transactions(events)
	if len(txns) != 1 {
		t.Fatalf("got %d transactions, want 1", len(txns))
	}
	tx := txns[0]
	if tx.Root.TS != 123_456_789_001 || tx.Root.Dur != 950_001 {
		t.Fatalf("root = %+v", tx.Root)
	}
	if end := tx.Stages[1].TS + tx.Stages[1].Dur; end != tx.Root.TS+tx.Root.Dur {
		t.Fatalf("stages end at %d, root at %d", end, tx.Root.TS+tx.Root.Dur)
	}
}

func TestSummarize(t *testing.T) {
	sums := Summarize(buildTrace(t))
	byKey := map[string]SpanSummary{}
	for _, s := range sums {
		byKey[s.Layer+"/"+s.Name] = s
	}
	rt := byKey[LayerCAPI+"/read_req"]
	if rt.Count != 1 || rt.MeanNS != 1000 {
		t.Fatalf("read_req summary = %+v", rt)
	}
	flight := byKey[LayerPhy+"/phy_flight"]
	if flight.Count != 2 || flight.TotalNS != 100 || flight.MaxNS != 50 {
		t.Fatalf("phy_flight summary = %+v", flight)
	}
	if tr := byKey[LayerRMMU+"/translate_fault"]; tr.Kind != "instant" || tr.Count != 1 {
		t.Fatalf("translate_fault summary = %+v", tr)
	}
	// Sorted by descending total time: the 1000 ns round trip leads.
	if sums[0].Name != "read_req" {
		t.Fatalf("summaries not sorted by total time: first is %s", sums[0].Name)
	}
}

func TestCriticalPaths(t *testing.T) {
	events := buildTrace(t)
	paths := CriticalPaths(events, 1)
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(paths))
	}
	cp := paths[0]
	if cp.Root.Name != "read_req" || cp.RootNS != 1000 {
		t.Fatalf("slowest root = %+v", cp.Root)
	}
	// Only the transaction's own four stages: not transaction 2's stages,
	// which overlap its window, nor the protocol events.
	if len(cp.Stages) != 4 {
		t.Fatalf("path has %d stages, want 4: %+v", len(cp.Stages), cp.Stages)
	}
	for _, s := range cp.Stages {
		if s.Txn != cp.Root.Txn {
			t.Fatalf("stage of txn %d in path of txn %d", s.Txn, cp.Root.Txn)
		}
	}
	if cp.ByLayer[LayerLLC] != 300 || cp.ByLayer[LayerPhy] != 50 || cp.ByLayer[LayerCAPI] != 650 {
		t.Fatalf("per-layer rollup = %+v", cp.ByLayer)
	}

	if got := CriticalPaths(events, 10); len(got) != 2 {
		t.Fatalf("k beyond population returned %d paths, want 2", len(got))
	}
}

func TestAttributeStalls(t *testing.T) {
	att := AttributeStalls(buildTrace(t))
	if att.RoundTrips != 2 || att.RoundTripNS != 1400 {
		t.Fatalf("round trips = %+v", att)
	}
	want := []StageShare{
		{LayerCAPI, "complete", 600, 100 * 600.0 / 1400},
		{LayerCAPI, "capi_cross", 400, 100 * 400.0 / 1400},
		{LayerLLC, "credit_stall", 300, 100 * 300.0 / 1400},
		{LayerPhy, "phy_flight", 100, 100 * 100.0 / 1400},
	}
	if len(att.Stages) != len(want) {
		t.Fatalf("stages = %+v, want %+v", att.Stages, want)
	}
	var sum float64
	for i, w := range want {
		got := att.Stages[i]
		if got.Layer != w.Layer || got.Stage != w.Stage || got.TotalNS != w.TotalNS || math.Abs(got.SharePct-w.SharePct) > 1e-9 {
			t.Fatalf("stage %d = %+v, want %+v", i, got, w)
		}
		sum += got.SharePct
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("shares sum to %v%%, want 100%%", sum)
	}
}

func TestTransactionsDropEvictedRoots(t *testing.T) {
	// Capacity 5 keeps the last five events: transaction 1's root is
	// evicted but two of its stages remain; transaction 2 is whole.
	r := NewRing(5)
	r.Txn(LayerCAPI, "read_req", 0, 300, []Stage{{LayerCAPI, "a", 100}, {LayerCAPI, "b", 100}, {LayerCAPI, "c", 100}})
	r.Txn(LayerCAPI, "write_req", 0, 200, []Stage{{LayerCAPI, "a", 100}, {LayerCAPI, "b", 100}})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	txns := Transactions(events)
	if len(txns) != 1 || txns[0].Root.Name != "write_req" || len(txns[0].Stages) != 2 {
		t.Fatalf("transactions = %+v, want only the whole write_req", txns)
	}
}

// TestNearestRank pins the analyzers' quantile rule to nearest rank,
// ceil(q·n), as metrics.Histogram.Quantile uses: at n = 100 the p99 is
// the 99th value, not the maximum.
func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n        int
		p50, p99 int64
	}{
		{1, 1, 1},
		{2, 1, 2},
		{100, 50, 99},
		{200, 100, 198},
	} {
		xs := make([]int64, tc.n)
		for i := range xs {
			xs[i] = int64(i + 1)
		}
		if got := nearestRank(xs, 0.5); got != tc.p50 {
			t.Errorf("n=%d: p50 = %d, want %d", tc.n, got, tc.p50)
		}
		if got := nearestRank(xs, 0.99); got != tc.p99 {
			t.Errorf("n=%d: p99 = %d, want %d", tc.n, got, tc.p99)
		}
	}
}

func TestParseChromeTraceRejectsGarbage(t *testing.T) {
	if _, err := ParseChromeTrace(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage input parsed without error")
	}
}
