package latency

import (
	"encoding/json"
	"testing"

	"thymesisflow/internal/trace"
)

func TestRecordTilesExactly(t *testing.T) {
	r := NewRecord(1000)
	r.MarkTo(StageTranslate, 1000) // zero-duration stage
	r.MarkTo(StageCapiCross, 1500)
	r.MarkTo(StageCreditStall, 1700)
	r.Add(StageC1Ingress, 300)
	r.Wire(StageFrameTx, StagePhyFlight, 2600, 250)
	r.Finish(3000)
	if !r.tiles() {
		t.Fatalf("stage durations do not tile the round trip")
	}
	if got := r.Elapsed(); got != 2000 {
		t.Fatalf("Elapsed = %d, want 2000", got)
	}
	want := map[Stage]int64{
		StageCapiCross:   500,
		StageCreditStall: 200,
		StageC1Ingress:   300,
		StageFrameTx:     350, // wire gap 600 minus flight 250
		StagePhyFlight:   250,
		StageComplete:    400,
	}
	var sum int64
	for _, st := range Stages() {
		if d := r.Duration(st); d != want[st] {
			t.Errorf("stage %v = %d, want %d", st, d, want[st])
		}
		sum += r.Duration(st)
	}
	if sum != r.Elapsed() {
		t.Fatalf("stage sum %d != elapsed %d", sum, r.Elapsed())
	}
}

func TestWireClampsFlight(t *testing.T) {
	r := NewRecord(0)
	// Elapsed gap (100) smaller than the nominal flight (250): everything
	// lands in the flight stage, nothing goes negative.
	r.Wire(StageFrameTx, StagePhyFlight, 100, 250)
	if d := r.Duration(StageFrameTx); d != 0 {
		t.Fatalf("tx stage = %d, want 0", d)
	}
	if d := r.Duration(StagePhyFlight); d != 100 {
		t.Fatalf("flight stage = %d, want 100", d)
	}
	r.Finish(100)
	if !r.tiles() {
		t.Fatalf("clamped wire stamp broke tiling")
	}
}

func TestMarkToIgnoresBackwardClock(t *testing.T) {
	r := NewRecord(1000)
	r.MarkTo(StageCapiCross, 900) // never happens in virtual time; must not underflow
	if d := r.Duration(StageCapiCross); d != 0 {
		t.Fatalf("negative elapsed charged %d", d)
	}
}

func TestSinkAggregatesPerFlow(t *testing.T) {
	s := NewSink()
	for i := 0; i < 10; i++ {
		r := NewRecord(0)
		r.Flow = uint16(1 + i%2)
		r.MarkTo(StageCapiCross, 200)
		r.Add(StageC1Service, 300)
		r.Finish(1000)
		s.Done(r)
	}
	b := s.Snapshot()
	if b.Count != 10 {
		t.Fatalf("Count = %d, want 10", b.Count)
	}
	if b.Skewed != 0 {
		t.Fatalf("Skewed = %d, want 0", b.Skewed)
	}
	if b.EndToEnd.MeanNS != 1.0 { // 1000 ps
		t.Fatalf("end-to-end mean = %v ns, want 1", b.EndToEnd.MeanNS)
	}
	if b.ReconcileErrPct > 1e-9 {
		t.Fatalf("reconcile error %v%% on exactly tiled records", b.ReconcileErrPct)
	}
	ids := s.FlowIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("FlowIDs = %v, want [1 2]", ids)
	}
	fb, ok := s.FlowSnapshot(1)
	if !ok || fb.Count != 5 {
		t.Fatalf("flow 1 snapshot = (%v, %v), want count 5", fb.Count, ok)
	}
	if _, ok := s.FlowSnapshot(99); ok {
		t.Fatalf("unknown flow reported a snapshot")
	}
}

func TestSinkCountsSkew(t *testing.T) {
	s := NewSink()
	r := NewRecord(0)
	r.Add(StageC1Service, 5000) // more stage time than the round trip
	r.Finish(1000)
	s.Done(r)
	if b := s.Snapshot(); b.Skewed != 1 {
		t.Fatalf("Skewed = %d, want 1", b.Skewed)
	}
}

func TestCrossingStagesSumToBudgetShape(t *testing.T) {
	// The six crossing stages are exactly the ones the paper's flit-RTT
	// budget enumerates: 4 stack crossings + 2 pure-flight serdes stages.
	want := map[Stage]bool{
		StageCapiCross: true, StagePhyFlight: true, StageC1Ingress: true,
		StageC1Egress: true, StageRetFlight: true, StageComplete: true,
	}
	for _, st := range Stages() {
		if st.IsCrossing() != want[st] {
			t.Errorf("stage %v crossing = %v, want %v", st, st.IsCrossing(), want[st])
		}
	}
}

func TestBreakdownJSONRoundTrip(t *testing.T) {
	s := NewSink()
	r := NewRecord(0)
	r.MarkTo(StageCapiCross, 212_500)
	r.Finish(212_500)
	s.Done(r)
	data, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var b Breakdown
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.Count != 1 || len(b.Stages) != NumStages {
		t.Fatalf("round-tripped breakdown: count %d, %d stages", b.Count, len(b.Stages))
	}
}

func TestStageNamesStable(t *testing.T) {
	// Stage names are API: metrics series, Prometheus exposition, and JSON
	// payloads all embed them.
	want := []string{
		"issue", "translate", "capi_cross", "credit_stall", "llc_queue",
		"frame_tx", "phy_flight", "c1_ingress", "c1_service", "c1_egress",
		"ret_queue", "ret_tx", "ret_flight", "complete",
	}
	for i, st := range Stages() {
		if st.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, st.String(), want[i])
		}
	}
}

func TestEmitTilesRoot(t *testing.T) {
	for _, st := range Stages() {
		if stageLayer[st] == "" {
			t.Fatalf("stage %v has no trace layer", st)
		}
	}
	r := NewRecord(1000)
	r.MarkTo(StageTranslate, 1000) // zero: no span
	r.MarkTo(StageCapiCross, 1500)
	r.MarkTo(StageCreditStall, 1700)
	r.Wire(StageFrameTx, StagePhyFlight, 2600, 250)
	r.Finish(3000)
	ring := trace.NewRing(16)
	buf := r.Emit(ring, "read_req", nil)
	if len(buf) != 5 {
		t.Fatalf("emitted %d stages, want the 5 non-zero ones: %+v", len(buf), buf)
	}
	evs := ring.Snapshot()
	root := evs[0]
	if root.Layer != trace.LayerCAPI || root.Name != "read_req" || root.TS != 1000 || root.Dur != r.Elapsed() {
		t.Fatalf("root = %+v", root)
	}
	want := []struct{ layer, name string }{
		{trace.LayerCAPI, "capi_cross"}, {trace.LayerLLC, "credit_stall"}, {trace.LayerLLC, "frame_tx"},
		{trace.LayerPhy, "phy_flight"}, {trace.LayerCAPI, "complete"},
	}
	end := root.TS
	for i, w := range want {
		e := evs[1+i]
		if e.Layer != w.layer || e.Name != w.name || e.TS != end || e.Txn != root.Txn {
			t.Fatalf("stage %d = %+v, want %s/%s at %d in txn %d", i, e, w.layer, w.name, end, root.Txn)
		}
		end += e.Dur
	}
	if end != root.TS+root.Dur {
		t.Fatalf("stages end at %d, root at %d", end, root.TS+root.Dur)
	}
}
