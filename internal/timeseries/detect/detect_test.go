package detect

import (
	"reflect"
	"testing"

	"thymesisflow/internal/timeseries"
)

func gaugeRule(onset, clear int) []Rule {
	return []Rule{{
		Class: ReplayStorm, Suffix: ".depth",
		Threshold: 4, OnsetCount: onset, ClearCount: clear,
	}}
}

func feed(d *Detector, series string, vals ...float64) {
	for i, v := range vals {
		d.Observe(series, int64(i+1)*10, v)
	}
}

func TestOnsetClearHysteresis(t *testing.T) {
	d := New(gaugeRule(2, 2))
	// One hot reading is not an onset; two in a row are, and the onset
	// timestamp backdates to the first hot reading of the run.
	feed(d, "a.depth", 0, 5, 0, 5, 6, 7, 5, 0, 0, 0)
	events := d.Events()
	if len(events) != 1 {
		t.Fatalf("events = %+v, want 1", events)
	}
	e := events[0]
	if e.OnsetTS != 40 || e.ClearTS != 80 {
		t.Fatalf("onset/clear = %d/%d, want 40/80", e.OnsetTS, e.ClearTS)
	}
	if e.Peak != 7 || e.Ticks != 4 {
		t.Fatalf("peak/ticks = %.0f/%d, want 7/4", e.Peak, e.Ticks)
	}
}

func TestQuietBlipDoesNotClear(t *testing.T) {
	d := New(gaugeRule(1, 3))
	// A single quiet reading inside the storm must not split the event.
	feed(d, "a.depth", 5, 5, 0, 5, 5, 0, 0, 0)
	events := d.Events()
	if len(events) != 1 {
		t.Fatalf("events = %+v, want 1 merged event", events)
	}
	if events[0].OnsetTS != 10 || events[0].ClearTS != 60 {
		t.Fatalf("onset/clear = %d/%d, want 10/60", events[0].OnsetTS, events[0].ClearTS)
	}
}

func TestOpenEventSurfacesAndLatch(t *testing.T) {
	d := New([]Rule{{
		Class: LinkDead, Suffix: ".down",
		Threshold: 1, OnsetCount: 1, Latch: true,
	}})
	feed(d, "p.down", 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)
	events := d.Events()
	if len(events) != 1 || events[0].ClearTS != 0 {
		t.Fatalf("latched event = %+v, want one open event", events)
	}
	if d.Active() != 1 {
		t.Fatalf("Active = %d, want 1", d.Active())
	}
	if d.Totals()[LinkDead] != 1 {
		t.Fatalf("Totals = %v", d.Totals())
	}
}

func TestDeltaRuleAndCounterReset(t *testing.T) {
	d := New([]Rule{{
		Class: LinkDegraded, Suffix: ".dropped",
		Delta: true, Threshold: 1, OnsetCount: 1, ClearCount: 2,
	}})
	// Cumulative counter: flat, then +3, flat, then a reset to zero (which
	// must clamp to quiet, not trigger on a huge negative delta).
	feed(d, "c.dropped", 10, 10, 13, 13, 0, 0, 0)
	events := d.Events()
	if len(events) != 1 {
		t.Fatalf("events = %+v, want 1", events)
	}
	if events[0].OnsetTS != 30 || events[0].Peak != 3 {
		t.Fatalf("onset/peak = %d/%.0f, want 30/3", events[0].OnsetTS, events[0].Peak)
	}
}

func TestPerSeriesIndependentState(t *testing.T) {
	d := New(gaugeRule(2, 2))
	// Interleaved series: a storms, b stays quiet; b must not dilute a's
	// hot run.
	for i := 0; i < 6; i++ {
		d.Observe("a.depth", int64(i+1)*10, 9)
		d.Observe("b.depth", int64(i+1)*10, 0)
	}
	events := d.Events()
	if len(events) != 1 || events[0].Series != "a.depth" {
		t.Fatalf("events = %+v, want one open event on a.depth", events)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	snap := timeseries.Snapshot{Series: []timeseries.SeriesSnapshot{
		{Name: "x.depth", Kind: "gauge", Points: []timeseries.Point{
			{TS: 10, V: 0}, {TS: 20, V: 6}, {TS: 30, V: 6},
			{TS: 40, V: 0}, {TS: 50, V: 0}, {TS: 60, V: 0},
		}},
	}}
	a := Analyze(snap, gaugeRule(2, 2))
	b := Analyze(snap, gaugeRule(2, 2))
	if !reflect.DeepEqual(a, b) || len(a) != 1 {
		t.Fatalf("Analyze not deterministic: %+v vs %+v", a, b)
	}
}

func TestScoreOptionalLabels(t *testing.T) {
	events := []Event{
		{Class: ReplayStorm, Series: "a", OnsetTS: 100, ClearTS: 200},
		{Class: ReplayStorm, Series: "b", OnsetTS: 900, ClearTS: 950},
	}
	labels := []Label{
		{Class: ReplayStorm, From: 50, To: 250},
		{Class: ReplayStorm, From: 800, To: 1000, Optional: true},
	}
	classes, lats := Score(labels, events, 0)
	if len(classes) != 1 {
		t.Fatalf("classes = %+v", classes)
	}
	c := classes[0]
	c.Finalize()
	// The optional label absorbs event b for precision but adds no recall
	// denominator and no latency sample.
	if c.Labels != 1 || c.LabelsDetected != 1 || c.Events != 2 || c.EventsMatched != 2 {
		t.Fatalf("score = %+v", c)
	}
	if c.Precision != 1 || c.Recall != 1 {
		t.Fatalf("precision/recall = %v/%v", c.Precision, c.Recall)
	}
	if len(lats) != 1 || lats[0] != 50 {
		t.Fatalf("latencies = %v, want [50]", lats)
	}
}

func TestScorePadAndMisses(t *testing.T) {
	events := []Event{
		{Class: LinkDegraded, Series: "a", OnsetTS: 320, ClearTS: 340}, // inside pad
		{Class: LinkDegraded, Series: "b", OnsetTS: 700, ClearTS: 710}, // unmatched
	}
	labels := []Label{
		{Class: LinkDegraded, From: 100, To: 300},
		{Class: LinkDead, From: 0, To: 400}, // never detected
	}
	classes, _ := Score(labels, events, 50)
	byClass := map[string]ClassScore{}
	for _, c := range classes {
		c.Finalize()
		byClass[c.Class] = c
	}
	deg := byClass[LinkDegraded]
	if deg.LabelsDetected != 1 || deg.EventsMatched != 1 || deg.Events != 2 {
		t.Fatalf("degraded = %+v", deg)
	}
	if deg.Precision != 0.5 {
		t.Fatalf("degraded precision = %v, want 0.5", deg.Precision)
	}
	dead := byClass[LinkDead]
	if dead.Recall != 0 {
		t.Fatalf("dead recall = %v, want 0", dead.Recall)
	}
}
