package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"sync/atomic"
	"testing"
)

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	var ops atomic.Int64
	r.CounterFunc("ops", func() float64 { return float64(ops.Load()) })
	r.GaugeFunc("depth", func() float64 { return 7.5 })
	r.GaugeFunc("live", func() float64 { return 2 })
	lat := NewHistogram()
	lat.Observe(10)
	lat.Observe(20)
	r.HistogramFunc("lat", lat.Summary)

	ops.Add(3)
	ops.Add(1) // counters are read at snapshot time, not pushed
	s := r.Snapshot()
	if s.Counters["ops"] != 4 {
		t.Fatalf("ops = %d, want 4", s.Counters["ops"])
	}
	if s.Gauges["depth"] != 7.5 || s.Gauges["live"] != 2 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	h := s.Histograms["lat"]
	if h.Count != 2 || math.Abs(h.Mean-15) > 1e-9 {
		t.Fatalf("lat summary = %+v", h)
	}

	// Re-registering a name replaces its function; a counter read is
	// truncated to int64.
	r.CounterFunc("ops", func() float64 { return 9.9 })
	if got := r.Snapshot().Counters["ops"]; got != 9 {
		t.Fatalf("re-registered ops = %d, want 9", got)
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("c", func() float64 { return 1 })
	r.GaugeFunc("g", func() float64 { return 3 })
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v\n%s", err, buf.String())
	}
	if s.Counters["c"] != 1 || s.Gauges["g"] != 3 {
		t.Fatalf("round-tripped snapshot = %+v", s)
	}
}

// TestRegistrySnapshotUnderParallelWriters exercises the control-plane
// pattern: writers advance the state that counter and gauge functions read
// while another goroutine takes Snapshot continuously. Run under -race this
// is the regression test for snapshot-vs-write synchronization; the
// monotonicity check catches torn counter reads.
func TestRegistrySnapshotUnderParallelWriters(t *testing.T) {
	r := NewRegistry()
	var ops atomic.Int64
	var depth atomic.Int64
	r.CounterFunc("ops", func() float64 { return float64(ops.Load()) })
	r.GaugeFunc("depth", func() float64 { return float64(depth.Load()) })
	r.GaugeFunc("fn.gauge", func() float64 { return 1 })
	r.HistogramFunc("fn.hist", func() HistogramSummary {
		return HistogramSummary{Count: 1, Mean: 2}
	})

	const writers = 4
	const iters = 2000
	stop := make(chan struct{})
	done := make(chan struct{})
	for i := 0; i < writers; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < iters; j++ {
				ops.Add(1)
				depth.Store(int64(j))
			}
		}()
	}

	snaps := make(chan struct{})
	go func() {
		defer close(snaps)
		prev := r.Snapshot()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			if s.Counters["ops"] < prev.Counters["ops"] {
				t.Errorf("counter went backwards: %d -> %d", prev.Counters["ops"], s.Counters["ops"])
				return
			}
			if s.Histograms["fn.hist"].Count != 1 || s.Gauges["fn.gauge"] != 1 {
				t.Errorf("function-backed instruments missing from snapshot: %+v", s)
				return
			}
			prev = s
		}
	}()

	for i := 0; i < writers; i++ {
		<-done
	}
	close(stop)
	<-snaps

	s := r.Snapshot()
	if s.Counters["ops"] != writers*iters {
		t.Fatalf("ops = %d, want %d", s.Counters["ops"], writers*iters)
	}
}

// TestRegistryConcurrentUse registers instruments from several goroutines
// while another snapshots: registration and snapshot share the registry
// lock, and every registered name is present afterwards.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				name := string(rune('a'+i)) + "." + string(rune('a'+j%26))
				r.CounterFunc(name, func() float64 { return 1 })
				r.GaugeFunc(name, func() float64 { return float64(j) })
			}
		}()
	}
	stop := make(chan struct{})
	snaps := make(chan struct{})
	go func() {
		defer close(snaps)
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	for i := 0; i < 4; i++ {
		<-done
	}
	close(stop)
	<-snaps
	s := r.Snapshot()
	if len(s.Counters) != 4*26 || len(s.Gauges) != 4*26 {
		t.Fatalf("registered %d counters, %d gauges, want %d each", len(s.Counters), len(s.Gauges), 4*26)
	}
}
