package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestRingRecordAndSnapshot(t *testing.T) {
	r := NewRing(16)
	r.Span(LayerLLC, "replay", 100, 400)
	r.Instant(LayerLLC, "rx_gap", 150)
	r.Counter(LayerSim, "queue_depth", 200, 7)
	r.Span(LayerPhy, "xmit", 50, 90)

	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(evs))
	}
	if evs[0].Name != "replay" || evs[0].Ph != PhaseSpan || evs[0].Dur != 300 {
		t.Fatalf("bad span: %+v", evs[0])
	}
	if evs[1].Ph != PhaseInstant || evs[1].Layer != LayerLLC {
		t.Fatalf("bad instant: %+v", evs[1])
	}
	if evs[2].Ph != PhaseCounter || evs[2].Value != 7 {
		t.Fatalf("bad counter: %+v", evs[2])
	}
	if evs[3].TS != 50 || evs[3].Dur != 40 {
		t.Fatalf("bad complete span: %+v", evs[3])
	}
	for _, e := range evs {
		if e.Txn != 0 {
			t.Fatalf("event outside a transaction has txn id: %+v", e)
		}
	}
}

// TestRingTxn checks a transaction is recorded as its root span followed by
// its stages laid end to end, all under the root's id.
func TestRingTxn(t *testing.T) {
	r := NewRing(16)
	r.Instant(LayerSim, "before", 0)
	r.Txn(LayerCAPI, "read_req", 1000, 1600, []Stage{
		{LayerCAPI, "capi_cross", 200}, {LayerLLC, "credit_stall", 100}, {LayerPhy, "phy_flight", 300},
	})
	evs := r.Snapshot()
	if len(evs) != 5 {
		t.Fatalf("snapshot has %d events, want 5", len(evs))
	}
	root := evs[1]
	if root.Name != "read_req" || root.TS != 1000 || root.Dur != 600 || root.Txn != root.Seq+1 {
		t.Fatalf("bad root: %+v", root)
	}
	want := []struct {
		name   string
		ts, to int64
	}{{"capi_cross", 1000, 1200}, {"credit_stall", 1200, 1300}, {"phy_flight", 1300, 1600}}
	for i, w := range want {
		e := evs[2+i]
		if e.Name != w.name || e.TS != w.ts || e.TS+e.Dur != w.to || e.Txn != root.Txn || e.Ph != PhaseSpan {
			t.Fatalf("stage %d = %+v, want %s [%d, %d) in txn %d", i, e, w.name, w.ts, w.to, root.Txn)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	const capacity = 8
	r := NewRing(capacity)
	for i := 0; i < 20; i++ {
		r.Instant(LayerSim, "e", int64(i))
	}
	if r.Len() != capacity {
		t.Fatalf("len = %d, want %d", r.Len(), capacity)
	}
	if r.Recorded() != 20 || r.Dropped() != 20-capacity {
		t.Fatalf("recorded/dropped = %d/%d", r.Recorded(), r.Dropped())
	}
	evs := r.Snapshot()
	for i, e := range evs {
		if want := int64(12 + i); e.TS != want {
			t.Fatalf("event %d has ts %d, want %d (oldest-first order broken)", i, e.TS, want)
		}
	}
}

func TestRingConcurrentRecording(t *testing.T) {
	r := NewRing(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Txn(LayerCAPI, "read_req", int64(i), int64(i)+10, []Stage{{LayerLLC, "s", 10}})
				r.Instant(LayerPhy, "p", int64(i))
			}
		}()
	}
	wg.Wait()
	if r.Recorded() != 8*500*3 {
		t.Fatalf("recorded %d events, want %d", r.Recorded(), 8*500*3)
	}
	// Each transaction's two events stay adjacent under one id.
	evs := r.Snapshot()
	for i, e := range evs {
		if e.Name == "read_req" && i+1 < len(evs) && (evs[i+1].Txn != e.Txn || evs[i+1].Name != "s") {
			t.Fatalf("transaction %d split by a concurrent writer: %+v then %+v", e.Txn, e, evs[i+1])
		}
	}
}

// chromeTrace is the JSON shape the exporter must produce.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTrace(t *testing.T) {
	r := NewRing(64)
	r.Span(LayerCAPI, "read_req", 1_000_000, 3_000_000) // 1 us + 2 us
	r.Instant(LayerRMMU, "translate_fault", 1_100_000)
	r.Counter(LayerSim, "queue_depth", 2_000_000, 3)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v\n%s", err, buf.String())
	}

	var metas, spans, instants, counters int
	layers := make(map[string]bool)
	for _, e := range ct.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
			layers[e.Args["name"].(string)] = true
		case "X":
			spans++
			if e.TS != 1.0 || e.Dur != 2.0 {
				t.Fatalf("span ts/dur = %v/%v us, want 1/2", e.TS, e.Dur)
			}
			if e.Cat != LayerCAPI {
				t.Fatalf("span category = %q", e.Cat)
			}
		case "i":
			instants++
		case "C":
			counters++
			if e.Args["value"].(float64) != 3 {
				t.Fatalf("counter args = %v", e.Args)
			}
		}
	}
	if metas != 3 || spans != 1 || instants != 1 || counters != 1 {
		t.Fatalf("event mix = %d meta / %d span / %d instant / %d counter",
			metas, spans, instants, counters)
	}
	for _, l := range []string{LayerCAPI, LayerRMMU, LayerSim} {
		if !layers[l] {
			t.Fatalf("missing thread_name metadata for layer %q", l)
		}
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRing(4).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("empty trace is invalid JSON: %v", err)
	}
	if len(ct.TraceEvents) != 0 {
		t.Fatalf("empty ring exported %d events", len(ct.TraceEvents))
	}
}
